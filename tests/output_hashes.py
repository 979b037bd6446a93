"""Check the shipped configs' output files against their recorded sha256.

Runs every run listed in ``tests/output_hashes.json`` (or only the runs
named on the command line) through the ``critquench`` CLI, one fresh
interpreter per run, into a temporary directory, and compares the
sha256 of each output file with the recorded one.  A run named after a
``configs/*.cfg`` file is its sweep, which writes ``sweep.csv`` and
``sweep_report.txt``, or its size crossover, which writes
``size_crossover.csv`` and ``size_crossover_report.txt``; a run named
``dump-trajectory <config>`` writes ``trajectory.tsv``, the quench
that ``DUMP_ARGS`` sets.  Prints one line per file and each run's wall
time; exits 1 on any mismatch or failed run.  Run from the repository
root::

    python tests/output_hashes.py
    python tests/output_hashes.py critical_akz_thermal.cfg qrm_size_crossover.cfg
    python tests/output_hashes.py "dump-trajectory ohmic_critical.cfg"

pytest does not collect this file.  A change that moves an output on
purpose records the new hash, printed on mismatch, in the JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASHES = Path(__file__).resolve().with_suffix(".json")
#: output stem -> CLI command that writes it
COMMANDS = {"sweep": "sweep", "size_crossover": "size-crossover"}
#: the sampled quench of a ``dump-trajectory`` run
DUMP_ARGS = ["--tau", "50", "--samples", "11"]


def command_line(name: str, expected: dict[str, str], out_dir: Path) -> list[str]:
    """CLI arguments of a recorded run: ``<config>`` or ``dump-trajectory <config>``."""
    command, _, config = name.rpartition(" ")
    config_args = ["--config", str(ROOT / "configs" / config)]
    if command == "dump-trajectory":
        return [command, *config_args, *DUMP_ARGS, "--out", str(out_dir / "trajectory.tsv")]
    stem = next(f[: -len(".csv")] for f in expected if f.endswith(".csv"))
    return [COMMANDS[stem], *config_args, "--out", str(out_dir)]


def run_config(name: str, expected: dict[str, str], out_dir: Path) -> tuple[bool, float]:
    """Run one recorded run and compare its outputs; ``(all match, wall seconds)``."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, "-m", "critquench.cli", *command_line(name, expected, out_dir)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    ok = proc.returncode == 0
    if not ok:
        print(f"{name}: exit code {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}")
    for file, want in sorted(expected.items()):
        path = out_dir / file
        got = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
        verdict = "ok" if got == want else f"MISMATCH (recorded {want})"
        ok = ok and got == want
        print(f"{name}: {file} {got} {verdict}")
    print(f"{name}: {wall:.1f} s wall")
    return ok, wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", help="recorded run names (default: every recorded run)")
    args = ap.parse_args(argv)
    recorded = json.loads(HASHES.read_text())
    names = args.configs or sorted(recorded)
    unknown = [n for n in names if n not in recorded]
    if unknown:
        print(f"no recorded hashes for {unknown}; known: {sorted(recorded)}", file=sys.stderr)
        return 2
    failed, total = [], 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            ok, wall = run_config(name, recorded[name], Path(tmp) / name)
            total += wall
            if not ok:
                failed.append(name)
    print(f"{len(names) - len(failed)}/{len(names)} runs match, {total:.1f} s wall in all")
    if failed:
        print(f"mismatch: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
