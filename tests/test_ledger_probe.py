"""The ledger probe behind docs/DECISIONS.md still runs against the engine."""

import ledger_probe


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
    for bath, members in (("bath.type = structured\n", [6, 4, 2]), ("bath.kappa = 1e-3\n", [6])):
        config = tmp_path / "short.cfg"
        config.write_text(bath + grid)
        ledger_probe.main(["steps", str(config)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{config}  3 quench times in [5, 10]")
        rows = [line.split() for line in lines[2:-1]]
        assert [int(row[2]) for row in rows] == members
        # a structured batch chains its solves from 0 to tau_max in physical time
        spans = [row[1].split("..") for row in rows]
        assert spans[0][0] == "0" and all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        attempts = [int(row[3]) for row in rows]
        assert all(int(row[4]) + int(row[5]) <= int(row[3]) for row in rows)
        total = f"total: {len(rows)} solves, {sum(attempts)} attempts,"
        assert lines[-1].strip().startswith(total)
        assert f" {sum(m * a for m, a in zip(members, attempts))} member-attempts, " in lines[-1]
