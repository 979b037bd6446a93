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
    ``1e4..1e5`` on the engine, one member per quench time and one more
    at ``kappa/10`` for ``tau_max``, and prints the pure power-law and
    log-corrected exponents with their residuals, the linear-response
    ratio and the local exponents.

``python tests/ledger_probe.py ripple configs/ohmic_offcritical.cfg --tau 900 --refit``
    scans three periods of ``tau_q`` above ``--tau`` and fits the excess
    with a local power law plus a ripple ``A cos(2 I tau_q - phi)``,
    where ``I`` is the ramp average of the bare gap, ``int_0^1 sqrt(1 -
    g(s)^2) ds``: a term launched at ``t = 0`` and carried to the end with
    the dynamical phase of a squeezing oscillation.  With ``--refit`` it
    also sweeps the config and refits it with that ripple removed.

``python tests/ledger_probe.py steps configs/ohmic_critical.cfg``
    propagates a config's quench-time grid once (both columns, no fit;
    a size crossover's whole batch, every size, with its fits) and
    prints, for each span of the engine in order (a
    ``collocate_to`` call), its time span, the members it carries, the
    attempted steps, the rejected ones, the accepted steps that sat at
    ``max_step``, its wall time, and the parts of it spent in U's
    collocation and in the frame (the Markovian excess, or the chain);
    then the totals, with the member-attempts (members times attempts,
    summed), and the attempts per unit of the longest member's time.
    The first line also gives how many numbers per member the stepper
    carries (U), out of the covariance's, the Gauss nodes of a step and
    the effective ``max_step``; for a structured config, the eigenvalue
    moduli ``|lambda|`` of the chain drift (one per conjugate pair) and
    the largest ``h |lambda|`` an accepted step reached.

``python tests/ledger_probe.py accuracy configs/critical_akz_zero_temperature.cfg configs/nonlinear_sqrt_ramp.cfg``
    propagates each config's batch (its quench-time grid, every size of
    a size crossover) once at its own settings and once at rtol 1e-13,
    atol 1e-15, and prints for its isolated and open columns the worst
    move of an observable against the tight run, relative to it, with
    that move's ratio to ``max(2e-9 |ref|, 1e-14)``, and the worst
    per-member ``|V - V_tight| / max|V_tight|``.  With ``--tau`` and
    ``--samples`` it propagates one member at that quench time instead,
    sampled at the ramp times ``s``, and prints that V error per sample.

``python tests/ledger_probe.py oracle configs/ohmic_critical.cfg --tau 100 1000 --cap-divisor 4``
    propagates one quench of a structured config per ``--tau``, once as
    a sweep does (one member, its isolated state its own ``U U^T``) and
    once in long double through the full flow (no frame), its isolated
    and open members as one batch, at rtol 1e-13 with its stability cap
    ``3.5 / radius`` divided by ``--cap-divisor``, and prints both
    excesses per quench time and observable with their relative
    difference; the first line ends with the worst of them.
"""

import argparse
import math
import os
import sys
import time

import numpy as np
from scipy.integrate import quad
from test_acceptance import fit_log_corrected
from test_auxbath import EXCESS_OBSERVABLES, long_double_excess, structured_excess

from critquench import moments
from critquench.auxbath import build_system
from critquench.config import load_config
from critquench.model import THERMODYNAMIC
from critquench.moments import observables_from_covariance, thermal_bath
from critquench.protocol import ramp_profile
from critquench.scaling import fit_power_law
from critquench.sweep import compute_chunk, run_size_crossover, run_sweep, tau_grid


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
    tau_b = np.append(taus, taus[-1])
    kap_b = np.append(np.full(n, args.kappa), args.kappa / 10.0)
    one = np.ones(n + 1)
    _, vs, isolated = moments.propagate_batch(
        *thermal_bath(kap_b, 0.0), THERMODYNAMIC, tau_b, one, args.rn * one, THERMODYNAMIC.eta * one
    )
    obs, iso = (observables_from_covariance(v[-1], 1.0, 1.0) for v in (vs, isolated))
    print(f"r_n = {args.rn:g}  kappa = {args.kappa:g}  tau_q = {args.tau_min:g}..{args.tau_max:g}")
    for name in ("e_r", "dp"):
        excess = obs[name] - iso[name]
        deltas = excess[:n]
        pure = fit_power_law(taus, deltas)
        b, c, rms = fit_log_corrected(taus, deltas)
        ratio = deltas[-1] / excess[-1]
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
    real = (moments._StepControl, moments.collocate_to)
    spans = []  # one record per span
    fastest = chain_moduli(config)[-1] if config.bath_type == "structured" else 0.0
    reached = [0.0]  # the largest h |lambda| of an accepted step

    class Counted(real[0]):
        # the propagation's step control, counting as it settles
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.rejected = self.at_cap = 0

        def settle(self, err):
            accepted = super().settle(err)
            self.rejected += not accepted
            self.at_cap += accepted and self.h_try == self.settings.max_step
            return accepted

    def timed(key, func):
        # func, its wall time added to the current span's ``key``
        def call(*args):
            start = time.perf_counter()
            try:
                return func(*args)
            finally:
                spans[-1][key] += time.perf_counter() - start

        return call

    class TimedRule:
        # the frame's quadrature, timing U's collocation
        def __init__(self, rule):
            self.nodes, self.collocate = rule.nodes, timed("u_s", rule.collocate)

    def timed_advance(advance):
        def frame_step(h, nodes, u_new):
            err, commit = advance(h, nodes, u_new)

            def counted():
                commit()
                reached[0] = max(reached[0], h * fastest)

            return err, timed("frame_s", counted)

        return timed("frame_s", frame_step)

    def collocate_to(rule, system, advance, t0, t1, u0, step):
        # one span of the engine: its members, numbers per member, step counts and times
        record = {"span": (t0, t1), "members": u0.shape[0], "carried": u0[0].size}
        record.update(nodes=rule.nodes.size, u_s=0.0, frame_s=0.0)
        spans.append(record)
        before = np.array([step.n_steps, step.rejected, step.at_cap])
        start = time.perf_counter()
        u = real[1](TimedRule(rule), system, timed_advance(advance), t0, t1, u0, step)
        record["wall_s"] = time.perf_counter() - start
        record["steps"] = np.array([step.n_steps, step.rejected, step.at_cap]) - before
        record["max_step"] = step.settings.max_step
        return u

    moments._StepControl, moments.collocate_to = Counted, collocate_to
    try:
        t0 = time.perf_counter()
        run_size_crossover(config) if config.eta_list else compute_chunk(config, taus)
        wall = time.perf_counter() - t0
    finally:
        moments._StepControl, moments.collocate_to = real
    first, numbers = spans[0], 4  # the Markovian 2x2 V
    if config.bath_type == "structured":
        numbers = build_system(config.model, config.bath)[0].size
    limits = f"  stages carry {first['carried']} of {numbers} numbers per member, {first['nodes']} Gauss nodes"
    limits += f", max_step {first['max_step']:.6g}"
    if config.bath_type == "structured":
        moduli = ", ".join(f"{m:.4g}" for m in chain_moduli(config))
        limits += f", chain's |lambda| {moduli}, largest h|lambda| {reached[0]:.3f}"
    print(f"{args.config}  {taus.size} quench times in [{taus[0]:g}, {taus[-1]:g}]  hash {config.config_hash}{limits}")
    print("  span  t0..t1  members  attempts  rejected  at_max_step  wall_s  u_s  frame_s")
    for i, s in enumerate(spans):
        (a, b), (attempts, rejected, at_cap) = s["span"], s["steps"]
        print(
            f"  {i:>4}  {a:g}..{b:g}  {s['members']}  {attempts}  {rejected}  {at_cap}"
            f"  {s['wall_s']:.6f}  {s['u_s']:.6f}  {s['frame_s']:.6f}"
        )
    total, longest = sum(s["steps"] for s in spans), spans[-1]["span"][1]
    print(
        f"  total: {len(spans)} spans, {total[0]} attempts, {total[1]} rejected, {total[2]} at max_step,"
        f" {sum(s['members'] * s['steps'][0] for s in spans)} member-attempts,"
        f" {total[0] / longest:.4f} attempts per unit time to t = {longest:g},"
        f" {sum(s['u_s'] for s in spans):.3f} s U's solve, {sum(s['frame_s'] for s in spans):.3f} s frame,"
        f" {wall:.3f} s wall"
    )


#: the tight settings of :func:`cmd_accuracy`'s reference run
TIGHT = {"integrator.rtol": "1e-13", "integrator.atol": "1e-15"}


def batch_members(config):
    """``(tau, eta)`` of a config's one batch: its quench-time grid, at every size of a size crossover."""
    taus = tau_grid(config.tau_min, config.tau_max, config.points_per_decade)
    etas = sorted(set(config.eta_list)) or [config.model.eta]
    return np.tile(taus, len(etas)), np.repeat(etas, taus.size)


def propagated(config, tau, eta, s_samples=None):
    """``(isolated, open)`` V of a batch, (S, B, 2, 2), propagated as :func:`critquench.sweep._legs` does."""
    members = moments.broadcast_members(tau, config.g_final, config.r_n, eta)
    terms = config.bath.lyapunov_terms(config.model)
    _, vs, isolated = moments.propagate_batch(*terms, config.model, *members, config.settings, s_samples)
    return isolated, vs


def v_error(v, ref):
    """``|V - V_tight| / max|V_tight|`` per member, the worst entry of each."""
    return np.max(np.abs(v - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))


def cmd_accuracy(args):
    for path in args.config:
        config, tight = load_config(path), load_config(path, overrides=TIGHT)
        settings = " against ".join(f"rtol {c.settings.rtol:g}, atol {c.settings.atol:g}" for c in (config, tight))
        if args.tau is not None:
            samples = np.array(args.samples)
            runs = [propagated(c, np.array([args.tau]), np.array([config.model.eta]), samples) for c in (config, tight)]
            member = f"one member at tau_q = {args.tau:g}, r_n = {config.r_n:g}"
            print(f"{path}  {member}  {settings}  hash {config.config_hash}")
            for k, s in enumerate(samples):
                errors = [v_error(got[k, 0], ref[k, 0]) for got, ref in zip(*runs)]
                print(f"  s = {s:.8g}: |V - V_tight| / max|V| isolated {errors[0]:.3e}, open {errors[1]:.3e}")
            continue
        tau, eta = batch_members(config)
        runs = [propagated(c, tau, eta) for c in (config, tight)]
        print(f"{path}  {tau.size} members  {settings}  hash {config.config_hash}")
        for name, v, ref in zip(("isolated", "open"), *runs):
            got, want = (observables_from_covariance(w[-1], config.g_final, config.model.omega) for w in (v, ref))
            worst = (-1.0,)
            for obs in config.observables:
                move = np.abs(got[obs] - want[obs])
                ratio = move / np.maximum(2e-9 * np.abs(want[obs]), 1e-14)
                i = int(np.argmax(ratio))
                worst = max(worst, (ratio[i], move[i] / abs(want[obs][i]), obs, i))
            ratio, rel, obs, i = worst
            where = f"{obs}, tau_q {tau[i]:g}" + (f", eta {eta[i]:g}" if config.eta_list else "")
            print(
                f"  {name}: worst move {rel:.3e} of |ref| ({where}), {ratio:.3g} of max(2e-9 |ref|, 1e-14);"
                f" worst |V - V_tight| / max|V| {np.max(v_error(v[-1], ref[-1])):.3e}"
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
    p_acc = sub.add_parser("accuracy", help="configs' outputs against a run at rtol 1e-13")
    p_acc.add_argument("config", nargs="+", help="paths to experiment configs")
    p_acc.add_argument("--tau", type=float, default=None, help="one quench time, sampled, instead of the grid")
    p_acc.add_argument("--samples", type=float, nargs="+", default=[1.0], help="ramp times s of the --tau run")
    p_oracle = sub.add_parser("oracle", help="a structured excess against a long-double run")
    p_oracle.add_argument("config", help="path to a structured-bath config")
    p_oracle.add_argument("--tau", type=float, nargs="+", required=True, help="quench times")
    p_oracle.add_argument("--cap-divisor", type=float, default=4.0, help="step cap divisor of the long-double run")
    args = parser.parse_args(argv)
    commands = {
        "linear": cmd_linear,
        "ramp": cmd_ramp,
        "ripple": cmd_ripple,
        "steps": cmd_steps,
        "accuracy": cmd_accuracy,
        "oracle": cmd_oracle,
    }
    try:
        commands[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (``| head``): point stdout at devnull, so the exit's flush fails quietly too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
