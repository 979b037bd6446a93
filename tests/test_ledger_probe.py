"""The ledger probe behind docs/DECISIONS.md still runs against the engine."""

import os
import subprocess
import sys
from pathlib import Path

import critquench
import ledger_probe
import pytest


def test_ramp_prints_fits_and_linear_response(capsys):
    ledger_probe.main(
        ["ramp", "--rn", "2", "--kappa", "1e-7", "--tau-min", "20", "--tau-max", "200", "--points", "5"]
    )
    out = capsys.readouterr().out
    assert out.startswith("r_n = 2  kappa = 1e-07  tau_q = 20..200")
    for name in ("e_r", "dp"):
        assert f"{name}: power law b = " in out
    assert out.count("delta(kappa)/delta(kappa/10) = ") == 2


def test_steps_prints_every_solve_of_the_legs(tmp_path, capsys):
    grid = "sweep.tau_min = 5\nsweep.tau_max = 10\nsweep.points_per_decade = 5\nobservables = e_r\n"
    for bath, numbers in (("bath.type = structured\n", 100), ("bath.kappa = 1e-3\n", 4)):
        config = tmp_path / "short.cfg"
        config.write_text(bath + grid)
        ledger_probe.main(["steps", str(config)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{config}  3 quench times in [5, 10]")
        # the numbers the stages carry (U), the frame's nodes, the uncapped step,
        # and for the chain its eigenvalue moduli and the largest h |lambda| reached
        structured = numbers == 100
        nodes = 16 if structured else 24
        assert f"  stages carry 4 of {numbers} numbers per member, {nodes} Gauss nodes, max_step inf" in lines[0]
        assert ("chain's |lambda| " in lines[0]) == structured
        assert (", largest h|lambda| " in lines[0]) == structured
        if structured:
            moduli = lines[0].split("chain's |lambda| ")[1].split(", largest")[0].split(", ")
            assert len(moduli) == 4 and float(lines[0].split("h|lambda| ")[1]) > 0.0
        rows = [line.split() for line in lines[2:-1]]
        # one member per quench time, leaving at its end
        assert [int(row[2]) for row in rows] == [3, 2, 1]
        # U's collocation and the frame, each within its span's wall time
        for row in rows:
            wall, u_s, frame_s = (float(v) for v in row[6:9])
            assert 0.0 < u_s <= wall and 0.0 < frame_s <= wall
        # every batch chains its spans from 0 to tau_max in physical time
        spans = [row[1].split("..") for row in rows]
        assert spans[0][0] == "0" and all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        attempts = [int(row[3]) for row in rows]
        assert all(int(row[4]) + int(row[5]) <= int(row[3]) for row in rows)
        total = f"total: {len(rows)} spans, {sum(attempts)} attempts,"
        assert lines[-1].strip().startswith(total)
        assert f" {sum(m * a for m, a in zip([3, 2, 1], attempts))} member-attempts, " in lines[-1]
        assert f" {sum(attempts) / 10.0:.4f} attempts per unit time to t = 10, " in lines[-1]


def test_accuracy_prints_both_columns_against_a_tight_run(capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "critical_akz_zero_temperature.cfg"
    ledger_probe.main(["accuracy", str(config)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{config}  11 members  rtol 1e-10, atol 1e-12 against rtol 1e-13, atol 1e-15  hash ")
    assert [line.split(":")[0] for line in lines[1:]] == ["  isolated", "  open"]
    for line in lines[1:]:
        words = line.split()
        rel, ratio, v_err = float(words[3]), float(words[9]), float(words[-1])
        # the worst move is of the observables, (e_r, tau_q 10000) say, and
        # its ratio to max(2e-9 |ref|, 1e-14) at most rel / 2e-9
        assert words[6].strip("(,") in ("n", "dx", "dp", "e_r") and words[7] == "tau_q"
        assert 0.0 < ratio <= rel / 2e-9 * (1.0 + 1e-2) and ratio < 1.0
        assert 0.0 < v_err < 1e-11


def test_accuracy_samples_one_quench_time(tmp_path, capsys):
    config = tmp_path / "short.cfg"
    config.write_text("bath.kappa = 1e-3\nprotocol.r_n = 0.5\n")
    ledger_probe.main(["accuracy", str(config), "--tau", "20", "--samples", "0.5", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{config}  one member at tau_q = 20, r_n = 0.5  rtol 1e-10, atol 1e-12 against ")
    assert [line.split(":")[0] for line in lines[1:]] == ["  s = 0.5", "  s = 1"]
    for line in lines[1:]:
        isolated, opened = float(line.split()[-3].rstrip(",")), float(line.split()[-1])
        assert isolated < 1e-8 and opened < 1e-8


def test_oracle_prints_both_excesses(tmp_path, capsys):
    config = tmp_path / "short.cfg"
    config.write_text("bath.type = structured\nprotocol.g_final = 0.75\nobservables = e_r\n")
    ledger_probe.main(["oracle", str(config), "--tau", "5", "--cap-divisor", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{config}  tau_q = 5  long double at cap/2  hash ")
    assert [line.split()[0] for line in lines[1:]] == ["n:", "dx:", "dp:", "e_r:"]
    for line in lines[1:]:
        words = line.split()
        shipped, oracle, rel = float(words[2]), float(words[4]), float(words[-1])
        assert rel == pytest.approx(abs(shipped - oracle) / abs(oracle), rel=1e-2)
        assert rel < 1e-5


def test_oracle_takes_several_quench_times(tmp_path, capsys):
    config = tmp_path / "short.cfg"
    config.write_text("bath.type = structured\nobservables = e_r\n")
    ledger_probe.main(["oracle", str(config), "--tau", "4", "6", "--cap-divisor", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{config}  tau_q = 4, 6  long double at cap/2  hash ")
    rows = [line.split() for line in lines[1:]]
    assert [(row[0], row[-4]) for row in rows] == [(obs, tau) for tau in "46" for obs in ("n:", "dx:", "dp:", "e_r:")]
    worst = float(lines[0].split("worst rel diff ")[1])
    assert worst == max(float(row[-1]) for row in rows) and worst < 1e-5


def test_a_closed_pipe_ends_the_probe_quietly(tmp_path):
    # ``ledger_probe.py steps <config> | head -1``: the reader is gone before the probe prints
    config = tmp_path / "short.cfg"
    config.write_text("bath.kappa = 1e-3\nsweep.tau_min = 5\nsweep.tau_max = 10\nobservables = e_r\n")
    src = str(Path(critquench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read, write = os.pipe()
    os.close(read)
    try:
        probe = [sys.executable, ledger_probe.__file__, "steps", str(config)]
        out = subprocess.run(probe, stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (1, "")
