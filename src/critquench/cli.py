"""Command-line interface: sweeps, size crossovers, predictions, diagnostics.

Exit codes: 0 success, 2 configuration or validation error, 3 at least
one sweep row failed to integrate, 4 a fit verdict is FAIL and
``--enforce`` was given.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import moments
from .config import load_config
from .errors import ConfigError, DomainError, IntegrationFailure
from .model import OBSERVABLES
from .protocol import QuenchProtocol
from .scaling import predict_regime
from .sweep import run_size_crossover, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ROW_FAILURE = 3
EXIT_FIT_FAIL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critquench",
        description="Gaussian-moment quench sweeps and scaling analysis "
        "for fully-connected critical bosonic models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a quench-time sweep from a config file")
    p_sweep.add_argument("--config", required=True, help="path to the experiment config")
    p_sweep.add_argument("--out", default=None, help="output directory (default: output.path)")
    p_sweep.add_argument(
        "--enforce", action="store_true", help="exit 4 when any fit verdict is FAIL"
    )

    p_size = sub.add_parser("size-crossover", help="fit the excess exponent per system size")
    p_size.add_argument("--config", required=True)
    p_size.add_argument("--out", default=None)

    p_pred = sub.add_parser("predict", help="print a predicted scaling exponent")
    p_pred.add_argument("--observable", required=True, help=f"one of {', '.join(OBSERVABLES)}")
    p_pred.add_argument("--rn", type=float, default=1.0, help="ramp nonlinearity exponent")
    p_pred.add_argument(
        "--off-critical", action="store_true", help="ramp ends below the critical coupling"
    )
    p_pred.add_argument(
        "--isolated", action="store_true", help="no bath: isolated quench prediction"
    )

    p_ss = sub.add_parser("steady-state", help="fixed point of the dissipative dynamics")
    p_ss.add_argument("--config", required=True)
    p_ss.add_argument("--g", type=float, required=True, help="frozen coupling in [0, 1]")

    p_dump = sub.add_parser("dump-trajectory", help="propagate one quench and dump samples")
    p_dump.add_argument("--config", required=True)
    p_dump.add_argument("--tau", type=float, required=True, help="quench time")
    p_dump.add_argument("--samples", type=int, default=201)
    p_dump.add_argument("--out", required=True, help="output table, .tsv or .csv")
    return parser


def _write_outputs(out_dir: str, stem: str, csv_text: str, report_text: str) -> None:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{stem}.csv").write_text(csv_text, encoding="utf-8")
    (path / f"{stem}_report.txt").write_text(report_text, encoding="utf-8")


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = run_sweep(config)
    print(result.report_text, end="")
    out_dir = args.out if args.out is not None else config.output_path
    _write_outputs(out_dir, "sweep", result.csv_text, result.report_text)
    if result.n_failed_rows:
        return EXIT_ROW_FAILURE
    if args.enforce and not result.all_fits_pass:
        return EXIT_FIT_FAIL
    return EXIT_OK


def _cmd_size_crossover(args) -> int:
    config = load_config(args.config)
    result = run_size_crossover(config)
    print(result.report_text, end="")
    out_dir = args.out if args.out is not None else config.output_path
    _write_outputs(out_dir, "size_crossover", result.csv_text, result.report_text)
    return EXIT_ROW_FAILURE if result.n_failed_rows else EXIT_OK


def _cmd_predict(args) -> int:
    if args.observable not in OBSERVABLES:
        raise ConfigError("observable", f"unknown observable {args.observable!r}; known: {list(OBSERVABLES)}")
    prediction = predict_regime(
        args.observable,
        critical=not args.off_critical,
        isolated=args.isolated,
        r_n=args.rn,
    )
    print(f"observable = {args.observable}  regime = {prediction.regime.value}  r_n = {prediction.r_n}")
    print(f"exponent = {prediction.exponent} = {float(prediction.exponent)!r}")
    return EXIT_OK


def _cmd_steady_state(args) -> int:
    config = load_config(args.config)
    v = moments.steady_state_covariance(config.model, args.g, *config.bath.lyapunov_terms(config.model))
    obs = moments.observables_from_covariance(v, args.g, config.model.omega)
    print(f"g = {args.g:g}")
    for name, label in (("n", "n"), ("dx", "dx"), ("dp", "dp"), ("energy", "energy"), ("e_r", "residual_energy")):
        print(f"{label} = {obs[name]:.12g}")
    return EXIT_OK


def _cmd_dump_trajectory(args) -> int:
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    moments.trajectory_delimiter(args.out)  # reject a bad --out before propagating
    if Path(args.out).is_dir():
        raise ValueError(f"--out {args.out} is a directory")
    if not Path(args.out).parent.is_dir():
        raise FileNotFoundError(f"no directory for --out {args.out}")
    config = load_config(args.config)
    protocol = QuenchProtocol(g_final=config.g_final, tau_q=args.tau, r_n=config.r_n)
    traj = moments.integrate(protocol, config.model, config.bath, config.settings, args.samples)
    moments.write_trajectory(args.out, traj)
    print(f"wrote {traj.ts.size} samples to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "size-crossover": _cmd_size_crossover,
    "predict": _cmd_predict,
    "steady-state": _cmd_steady_state,
    "dump-trajectory": _cmd_dump_trajectory,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationFailure as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_ROW_FAILURE


if __name__ == "__main__":
    sys.exit(main())
