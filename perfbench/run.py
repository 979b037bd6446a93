"""Sweep benchmark for critquench.

Each workload is one shipped config run through ``run_sweep`` or
``run_size_crossover``: a closed loop with one client, one sweep at a
time, every repetition in a fresh interpreter (``probe.py``) with BLAS
pinned to one thread and no process pool (``sweep.chunk_size = 0``).

``--trace 0`` reports the end-to-end metrics: the median sweep and
set-up times in reference seconds (wall time rescaled by the sampled
CPU speed, see ``probe.SpeedClock``), peak memory, the accuracy of
``delta`` and ``b`` against ``reference.json``, and ``ok_row_frac``,
one minus the share of failed rows (a metric may not be 0).
``--trace 1`` runs one untraced and one traced sweep and reports the
per-layer metrics of the traced one, in wall seconds, with the tracing
overhead as the difference of the two sweep times.

Every repetition is checked: its ``sweep.csv`` text must be
byte-identical to every other repetition of the same source, ``delta``
finite in every row and the fit verdicts those of ``reference.json``.
A repetition that fails a check counts as failed and gives no timing.

The workloads are shipped configs with no random input, so ``--seed``
selects nothing; it is recorded in the manifest.  Run from the
repository root::

    python3 perfbench/run.py --workload markovian_sweep --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run manifest and the
per-repetition samples go to ``.perfbench_out/<workload>/trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import WORKLOADS

HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delta_max_rel_err": "1",
    "b_max_abs_err": "1",
    "ok_row_frac": "1",
}
PER_LAYER_UNITS = {
    "ode.steps": "count",
    "ode.rejected": "count",
    "ode.accept_ratio": "1",
    "ode.pinned_frac": "1",
    "ode.cap_ratio": "1",
    "ode.self_s": "s",
    "moments.iso.rhs_calls": "count",
    "moments.iso.rhs_us": "us",
    "moments.iso.leg_s": "s",
    "moments.open.rhs_calls": "count",
    "moments.open.rhs_us": "us",
    "moments.open.leg_s": "s",
    "auxbath.build_s": "s",
    "auxbath.open.rhs_calls": "count",
    "auxbath.open.rhs_us": "us",
    "auxbath.open.leg_s": "s",
    "sweep.iso_leg_s": "s",
    "sweep.open_leg_s": "s",
    "sweep.chunk_s": "s",
    "sweep.fallback_rows": "count",
    "sweep.iso_cache_hits": "count",
    "sweep.self_s": "s",
    "scaling.fit_calls": "count",
    "scaling.fit_s": "s",
    "config.load_s": "s",
    "sweep.wall_s": "s",
    "trace.sweep_s": "s",
    "trace.overhead_s": "s",
}

#: set-up-only repetitions per run, on top of the set-up of each sweep
SETUP_REPS = 4
#: a run starts no repetition that could end after this many seconds
DEADLINE_S = 170.0
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict[str, str]:
    """The parent environment minus config overrides, with one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CRITQUENCH_")}
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(root: Path, workload: str, mode: str, deadline: float) -> dict:
    """One repetition in a fresh interpreter; ``{"error": ...}`` if it did not finish."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--mode", mode]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(root), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
    return {"mode": mode, "error": tail[0]}


def source_digest(root: Path, config_path: str) -> str:
    """Hash of the package sources and the workload's config."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + [root / config_path]:
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def problems(rep: dict, ref: dict, expected_csv: str | None) -> list[str]:
    """Why a repetition's output is wrong; empty when it passes every check."""
    if "error" in rep:
        return [rep["error"]]
    if rep["mode"] == "setup":
        return []
    found = []
    if rep["config_hash"] != ref["config_hash"]:
        found.append(f"config hash {rep['config_hash']} != reference {ref['config_hash']}")
    if expected_csv is not None and rep["csv_sha256"] != expected_csv:
        found.append("sweep.csv differs from another repetition of the same source")
    if not all(math.isfinite(v) for series in rep["delta"].values() for v in series):
        found.append("delta is not finite in every row")
    if {k: len(v) for k, v in rep["delta"].items()} != {k: len(v) for k, v in ref["delta"].items()}:
        found.append("delta series do not match the reference's")
    if rep["b"].keys() != ref["b"].keys():
        found.append("fitted series do not match the reference's")
    if rep["verdicts"] != ref["verdicts"]:
        found.append(f"verdicts {rep['verdicts']} != reference {ref['verdicts']}")
    if rep.get("layers", {}).get("sweep.iso_cache_hits", 0):
        found.append("the isolated-leg cache was hit in a timed sweep")
    return found


def accuracy(rep: dict, ref: dict) -> dict[str, float]:
    """Errors of ``delta`` and ``b`` against the reference, read no lower than its floor."""
    delta_err = max(
        abs(d - r) / abs(r)
        for name, series in ref["delta"].items()
        for d, r in zip(rep["delta"][name], series)
    )
    b_err = max(abs(rep["b"][name] - b) for name, b in ref["b"].items())
    return {
        "delta_max_rel_err": max(delta_err, ref["floor"]["delta_rel"]),
        "b_max_abs_err": max(b_err, ref["floor"]["b_abs"]),
    }


def complete(reps: list[dict], trace: int) -> bool:
    """Whether ``reps`` hold every kind of sweep repetition the run needs."""
    modes = {r["mode"] for r in reps}
    return {"sweep", "trace"} <= modes if trace else "sweep" in modes


def end_to_end(reps: list[dict], ref: dict) -> dict[str, float]:
    sweeps = [r for r in reps if r["mode"] == "sweep"]
    worst = [accuracy(r, ref) for r in sweeps]
    return {
        "sweep_s": statistics.median(r["sweep_s"] for r in sweeps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in sweeps),
        "delta_max_rel_err": max(w["delta_max_rel_err"] for w in worst),
        "b_max_abs_err": max(w["b_max_abs_err"] for w in worst),
        "ok_row_frac": min(1.0 - r["n_failed_rows"] / r["rows"] for r in sweeps),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    plain = next(r for r in reps if r["mode"] == "sweep")
    traced = next(r for r in reps if r["mode"] == "trace")
    layers = dict(traced["layers"])
    layers["config.load_s"] = traced["config_load_s"]
    layers["sweep.wall_s"] = plain["sweep_wall_s"]
    layers["trace.sweep_s"] = traced["sweep_s"]
    layers["trace.overhead_s"] = traced["sweep_s"] - plain["sweep_s"]
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    config_path, entry = WORKLOADS[args.workload]
    needed = [root / "src" / "critquench" / "__init__.py", root / config_path, HERE / "reference.json"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from a critquench checkout; missing {missing}", file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]

    out_dir = root / ".perfbench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = source_digest(root, config_path)
    csv_file = out_dir / "csv_sha256.json"
    known_csv = json.loads(csv_file.read_text()) if csv_file.is_file() else {}
    expected_csv = known_csv.get(digest)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    if args.trace:
        reps = [
            run_child(root, args.workload, "sweep", deadline),
            run_child(root, args.workload, "trace", deadline),
        ]
    else:
        reps = [run_child(root, args.workload, "setup", deadline) for _ in range(SETUP_REPS)]
        while True:
            t0 = time.monotonic()
            reps.append(run_child(root, args.workload, "sweep", deadline))
            now = time.monotonic()
            if now + (now - t0) > min(start + args.seconds, deadline):
                break

    for rep in reps:
        if expected_csv is None and "csv_sha256" in rep:
            expected_csv = rep["csv_sha256"]
        rep["problems"] = problems(rep, ref, expected_csv)
    ok = [r for r in reps if not r["problems"]]
    # failed repetitions give no timing, unless none passed: then the
    # result still reports what they measured, marked incorrect
    timed = ok if complete(ok, args.trace) else [r for r in reps if "error" not in r]
    try:
        if args.trace:
            values, units = per_layer(timed), PER_LAYER_UNITS
        else:
            values, units = end_to_end(timed, ref), END_TO_END_UNITS
    except (KeyError, StopIteration, ValueError, ZeroDivisionError):
        values = {}
    if not all(math.isfinite(values.get(name, math.nan)) for name in units):
        for rep in reps:
            print(f"perfbench: {rep['mode']} repetition failed: {rep['problems']}", file=sys.stderr)
        return 1
    if all(r["csv_sha256"] == expected_csv for r in reps if "csv_sha256" in r):
        known_csv[digest] = expected_csv
        csv_file.write_text(json.dumps(known_csv, indent=1) + "\n")

    result = {
        "correct": len(ok) == len(reps),
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }

    first = next(r for r in timed if r["mode"] != "setup")
    manifest = {
        "workload": args.workload,
        "config": config_path,
        "entry": entry,
        "config_hash": first["config_hash"],
        "git_commit": git_commit(root),
        "source_sha256": digest,
        "csv_sha256": first["csv_sha256"],
        "versions": first["versions"],
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    run_dir = out_dir / f"trace{args.trace}"
    run_dir.mkdir(exist_ok=True)
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    samples = [{k: v for k, v in r.items() if k not in ("delta", "b")} for r in reps]
    (run_dir / "result.json").write_text(json.dumps({"result": result, "samples": samples}, indent=1) + "\n")

    for rep in reps:
        if rep["problems"]:
            print(f"failed {rep['mode']} repetition: {'; '.join(rep['problems'])}")
    print(f"{args.workload}: {len(reps)} repetitions, {result['failed']} failed, trace = {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<24} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
