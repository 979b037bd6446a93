"""Reproduce the numbers of docs/DECISIONS.md.

Run from the repository root with ``PYTHONPATH=src``:

``python tests/ledger_probe.py linear configs/critical_akz_thermal.cfg --kappa 1e-4``
    sweeps a config at ``kappa`` and ``kappa/10`` and prints, per
    observable, the fitted exponent, the linear-response ratio
    ``delta(kappa)/delta(kappa/10)`` at ``tau_max`` and the local
    exponents between neighbouring grid points.  Without ``--kappa`` the
    config's own coupling is used.

``python tests/ledger_probe.py ramp --rn 2 --kappa 1e-7``
    propagates a critical ramp from the cold Markovian bath over
    ``1e4..1e5`` and prints the pure power-law and log-corrected
    exponents with their residuals, the linear-response ratio and the
    local exponents.

``python tests/ledger_probe.py ripple configs/ohmic_offcritical.cfg --tau 900 --refit``
    scans three periods of ``tau_q`` above ``--tau`` and fits the excess
    with a local power law plus a ripple ``A cos(2 I tau_q - phi)``,
    where ``I`` is the ramp average of the bare gap, ``int_0^1 sqrt(1 -
    g(s)^2) ds``: a term launched at ``t = 0`` and carried to the end with
    the dynamical phase of a squeezing oscillation.  With ``--refit`` it
    also sweeps the config and refits it with that ripple removed.

``python tests/ledger_probe.py steps configs/ohmic_critical.cfg``
    propagates a config's quench-time grid once (both legs, no fit) and
    prints, for each span of the engine in order (a ``solve_to`` call,
    or a ``collocate_to`` call of a structured batch), its time span,
    the members it carries, the attempted steps, the rejected ones, the
    accepted steps that sat at ``max_step``, its wall time and the wall
    time of its chain frame's collocation steps, U's solve included (0
    without a chain); then the totals, with the member-attempts (members
    times attempts, summed).  The first line also gives how many numbers
    per member the stepper carries (V, or U), out of the covariance's,
    and the step cap;
    for a structured config, the eigenvalue moduli ``|lambda|`` of the
    chain drift (one per conjugate pair) and the largest
    ``h |lambda|`` an accepted step reached.

``python tests/ledger_probe.py oracle configs/ohmic_critical.cfg --tau 100 1000 --cap-divisor 4``
    propagates one quench of a structured config per ``--tau``, its
    isolated and open members as one batch, once as a sweep does and
    once in long double through the full flow (no frame) at rtol 1e-13
    with its stability cap ``3.5 / radius`` divided by
    ``--cap-divisor``, and prints both excesses per quench time and
    observable with their relative difference; the first line ends
    with the worst of them.
"""

import argparse
import math
import time

import numpy as np
from scipy.integrate import quad
from test_acceptance import fit_log_corrected
from test_auxbath import EXCESS_OBSERVABLES, long_double_excess, structured_excess

from critquench import _ode, moments
from critquench.auxbath import build_system
from critquench.config import load_config
from critquench.model import THERMODYNAMIC
from critquench.moments import observables_from_covariance, propagate_moments_batch
from critquench.protocol import ramp_profile
from critquench.scaling import fit_power_law
from critquench.sweep import compute_chunk, run_sweep, tau_grid


def local_exponents(taus, deltas):
    return np.diff(np.log(deltas)) / np.diff(np.log(taus))


def _fmt(values):
    return " ".join(f"{v:.3f}" for v in values)


def cmd_linear(args):
    base = load_config(args.config)
    kappa = base.bath.kappa if args.kappa is None else args.kappa
    result = run_sweep(load_config(args.config, overrides={"bath.kappa": repr(kappa)}))
    tenth = run_sweep(load_config(args.config, overrides={"bath.kappa": repr(kappa / 10.0)}))
    print(f"{args.config}  kappa = {kappa:g}  hash {result.config_hash}")
    for fit in result.fits:
        taus, deltas = result.delta_arrays(fit.observable)
        ratio = deltas[-1] / tenth.delta_arrays(fit.observable)[1][-1]
        print(
            f"  {fit.observable:>3}: b = {fit.fit.exponent:.4f}"
            f"  delta(kappa)/delta(kappa/10) = {ratio:.4f} at tau_q = {taus[-1]:g}"
        )
        print(f"       local b: {_fmt(local_exponents(taus, deltas))}")


def cmd_ramp(args):
    taus = np.geomspace(args.tau_min, args.tau_max, args.points)
    n = taus.size
    tau_b = np.concatenate([taus, taus, [taus[-1]]])
    kap_b = np.concatenate([np.zeros(n), np.full(n, args.kappa), [args.kappa / 10.0]])
    _, ys = propagate_moments_batch(tau_b, 1.0, args.rn, THERMODYNAMIC, kap_b, 0.0)
    obs = observables_from_covariance(ys[-1], 1.0, 1.0)
    print(f"r_n = {args.rn:g}  kappa = {args.kappa:g}  tau_q = {args.tau_min:g}..{args.tau_max:g}")
    for name in ("e_r", "dp"):
        values = obs[name]
        deltas = values[n : 2 * n] - values[:n]
        pure = fit_power_law(taus, deltas)
        b, c, rms = fit_log_corrected(taus, deltas)
        ratio = deltas[-1] / (values[-1] - values[n - 1])
        print(
            f"  {name:>3}: power law b = {pure.exponent:.4f} (rms {pure.residual_rms:.2e})"
            f"  log-corrected b = {b:.4f}, c = {c:.3f} (rms {rms:.2e})"
            f"  delta(kappa)/delta(kappa/10) = {ratio:.4f}"
        )
        print(f"       local b: {_fmt(local_exponents(taus, deltas))}")


def cmd_ripple(args):
    config = load_config(args.config)
    gap, _ = quad(lambda s: np.sqrt(1.0 - (config.g_final * ramp_profile(config.r_n)(s)) ** 2), 0, 1)
    freq = 2.0 * gap
    taus = np.linspace(args.tau, args.tau + 3.0 * (2.0 * np.pi / freq), args.points)
    iso, opn, _ = compute_chunk(config, taus)
    wave = np.column_stack([np.cos(freq * taus), np.sin(freq * taus)])
    print(f"{args.config}  ripple period {2.0 * np.pi / freq:.4f} in tau_q, scan from {args.tau:g}")
    swept = run_sweep(config) if args.refit else None
    for obs in config.observables:
        deltas = opn[obs] - iso[obs]
        # local exponent from the log fit, then the ripple as an additive term
        log_design = np.column_stack([np.ones_like(taus), np.log(taus / args.tau), wave])
        b_loc = np.linalg.lstsq(log_design, np.log(deltas), rcond=None)[0][1]
        design = np.column_stack([(taus / args.tau) ** b_loc, wave])
        (scale, c_cos, c_sin), *_ = np.linalg.lstsq(design, deltas, rcond=None)
        amp, phase = math.hypot(c_cos, c_sin), math.atan2(c_sin, c_cos)
        rms = math.sqrt(float(np.mean((deltas - design @ (scale, c_cos, c_sin)) ** 2))) / scale
        print(
            f"  {obs:>3}: local b = {b_loc:.3f}  ripple {amp:.3e} absolute, {amp / scale:.2e}"
            f" of the excess, phase {math.degrees(phase):.1f} deg  (residual {rms:.1e})"
        )
        if swept is not None:
            t, d = swept.delta_arrays(obs)
            ripple = amp * np.cos(freq * t - phase)
            print(
                f"       b = {swept.fit_for(obs).fit.exponent:.4f} as swept,"
                f" {fit_power_law(t, d - ripple).exponent:.4f} with the ripple removed"
            )


def chain_moduli(config):
    """Eigenvalue moduli of a structured config's chain drift ``Gamma_cc``, one per conjugate pair, ascending."""
    drift = build_system(config.model, config.bath)[0]
    lam = np.linalg.eigvals(drift[2:, 2:])
    return np.sort(np.abs(lam[lam.imag >= 0.0]))


def cmd_steps(args):
    config = load_config(args.config)
    taus = tau_grid(config.tau_min, config.tau_max, config.points_per_decade)
    real = (_ode._StepControl, moments._StepControl, moments.ChainFrame, moments.solve_to, moments.collocate_to)
    real_frame, real_solve, real_collocate = real[2:]
    spans, controls = [], []  # one record per span; every step control made
    fastest = chain_moduli(config)[-1] if config.bath_type == "structured" else 0.0
    reached = [0.0]  # the largest h |lambda| of an accepted step

    class Counted(real[0]):
        # a propagation's step control, counting as it settles
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.rejected = self.at_cap = 0
            controls.append(self)

        def settle(self, err):
            accepted = super().settle(err)
            self.rejected += not accepted
            self.at_cap += accepted and self.h_try == self.settings.max_step
            return accepted

    def counts(step):
        return np.array([step.n_steps, step.rejected, step.at_cap]) if step is not None else np.zeros(3, int)

    def span(t0, t1, y0, step, run):
        # one span of the engine: its members, numbers per member, step counts, wall and frame time
        record = {"span": (t0, t1), "members": y0.shape[0], "carried": y0[0].size, "frame_s": 0.0}
        spans.append(record)
        before, start = counts(step), time.perf_counter()
        y = run()
        record["wall_s"] = time.perf_counter() - start
        step = step or controls[-1]
        record["steps"], record["max_step"] = counts(step) - before, step.settings.max_step
        return y

    def solve_to(rhs, t0, t1, y0, settings, step=None):
        return span(t0, t1, y0, step, lambda: real_solve(rhs, t0, t1, y0, settings, step=step))

    def collocate_to(attempt, t0, t1, u0, step):
        return span(t0, t1, u0, step, lambda: real_collocate(attempt, t0, t1, u0, step))

    def timed_frame(*args):
        # the frame's collocation step, U's solve included, is timed within its span
        frame = real_frame(*args)
        stepper = frame.stepper

        def timed_stepper(*setup):
            attempt = stepper(*setup)

            def timed(t, h, u):
                start = time.perf_counter()
                err, commit = attempt(t, h, u)
                spans[-1]["frame_s"] += time.perf_counter() - start

                def counted():
                    start = time.perf_counter()
                    commit()
                    reached[0] = max(reached[0], h * fastest)
                    spans[-1]["frame_s"] += time.perf_counter() - start

                return err, counted

            return timed

        frame.stepper = timed_stepper
        return frame

    _ode._StepControl = moments._StepControl = Counted
    moments.ChainFrame, moments.solve_to, moments.collocate_to = timed_frame, solve_to, collocate_to
    try:
        t0 = time.perf_counter()
        compute_chunk(config, taus)
        wall = time.perf_counter() - t0
    finally:
        _ode._StepControl, moments._StepControl, moments.ChainFrame, moments.solve_to, moments.collocate_to = real
    cap, numbers = spans[0]["max_step"], 4  # the Markovian 2x2 V
    if config.bath_type == "structured":
        numbers = build_system(config.model, config.bath)[0].size
    limits = f"  stages carry {spans[0]['carried']} of {numbers} numbers per member, step cap {cap:.6g}"
    if config.bath_type == "structured":
        moduli = ", ".join(f"{m:.4g}" for m in chain_moduli(config))
        limits += f", chain's |lambda| {moduli}, largest h|lambda| {reached[0]:.3f}"
    print(f"{args.config}  {taus.size} quench times in [{taus[0]:g}, {taus[-1]:g}]  hash {config.config_hash}{limits}")
    print("  solve  t0..t1  members  attempts  rejected  at_max_step  wall_s  frame_s")
    for i, s in enumerate(spans):
        (a, b), (attempts, rejected, at_cap) = s["span"], s["steps"]
        print(
            f"  {i:>5}  {a:g}..{b:g}  {s['members']}  {attempts}  {rejected}  {at_cap}"
            f"  {s['wall_s']:.4f}  {s['frame_s']:.4f}"
        )
    total = sum(s["steps"] for s in spans)
    print(
        f"  total: {len(spans)} solves, {total[0]} attempts, {total[1]} rejected, {total[2]} at max_step,"
        f" {sum(s['members'] * s['steps'][0] for s in spans)} member-attempts, {wall:.3f} s wall"
    )


def cmd_oracle(args):
    config = load_config(args.config)
    if config.bath_type != "structured":
        raise SystemExit(f"{args.config}: the oracle needs a structured bath")
    rows = []
    for tau in args.tau:
        protocol = (config.bath, config.model, tau, config.g_final, config.r_n)
        shipped = structured_excess(*protocol, settings=config.settings)
        oracle = long_double_excess(*protocol, cap_divisor=args.cap_divisor)
        rows += [(tau, obs, shipped[obs], oracle[obs]) for obs in EXCESS_OBSERVABLES]
    rel = [abs(shipped - oracle) / abs(oracle) for *_, shipped, oracle in rows]
    taus = ", ".join(f"{tau:g}" for tau in args.tau)
    print(
        f"{args.config}  tau_q = {taus}  long double at cap/{args.cap_divisor:g}  hash {config.config_hash}"
        f"  worst rel diff {max(rel):.3e}"
    )
    for (tau, obs, shipped, oracle), diff in zip(rows, rel):
        print(f"  {obs:>3}: shipped {shipped:.15e}  oracle {oracle:.15e}  tau_q {tau:g}  rel diff {diff:.3e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_lin = sub.add_parser("linear", help="fit and linear-response ratio of a config")
    p_lin.add_argument("config", help="path to the experiment config")
    p_lin.add_argument("--kappa", type=float, default=None)
    p_ramp = sub.add_parser("ramp", help="power-law and log-corrected fits of a critical ramp")
    p_ramp.add_argument("--rn", type=float, default=2.0)
    p_ramp.add_argument("--kappa", type=float, default=1e-7)
    p_ramp.add_argument("--tau-min", type=float, default=1e4)
    p_ramp.add_argument("--tau-max", type=float, default=1e5)
    p_ramp.add_argument("--points", type=int, default=11)
    p_rip = sub.add_parser("ripple", help="fit the tau-periodic ripple of a config's excess")
    p_rip.add_argument("config", help="path to the experiment config")
    p_rip.add_argument("--tau", type=float, required=True, help="start of the scan")
    p_rip.add_argument("--points", type=int, default=39)
    p_rip.add_argument("--refit", action="store_true", help="refit the sweep without the ripple")
    p_steps = sub.add_parser("steps", help="step counts of every span of a config's legs")
    p_steps.add_argument("config", help="path to the experiment config")
    p_oracle = sub.add_parser("oracle", help="a structured excess against a long-double run")
    p_oracle.add_argument("config", help="path to a structured-bath config")
    p_oracle.add_argument("--tau", type=float, nargs="+", required=True, help="quench times")
    p_oracle.add_argument("--cap-divisor", type=float, default=4.0, help="step cap divisor of the long-double run")
    args = parser.parse_args(argv)
    commands = {"linear": cmd_linear, "ramp": cmd_ramp, "ripple": cmd_ripple, "steps": cmd_steps, "oracle": cmd_oracle}
    commands[args.command](args)


if __name__ == "__main__":
    main()
