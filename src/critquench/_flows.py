"""The flows :func:`critquench.moments.propagate_batch` hands to the stepper.

Two right-hand sides of the Lyapunov equation
``dV/dt = Gamma(t) V + V Gamma(t)^T + D`` for a batch of members:
:func:`lyapunov_batch_rhs` on the full covariance (the Markovian 2x2
one, and a reference on any network), and :func:`system_columns_rhs`
on the system columns of a network with a chain beside the system
mode.  :func:`chain_flow` is the exact sub-flow that advances such a
network's chain block, the block from index 2 on, once per accepted
step.  Every network is in the mode-by-mode order of
:mod:`critquench.moments`, so at any size the ramped entries are
``Gamma[1, 0]`` and ``Gamma[0, 1]``.  Each is built once per
``solve_to`` call; only the ramped system block of ``Gamma`` moves with
the coupling.
"""

from __future__ import annotations

import numpy as np

from . import model as model_mod
from .model import ModelSpec
from .protocol import ramp_profile


def _horner(coeffs, x, out) -> None:
    """``coeffs[0] + x coeffs[1] + x^2 coeffs[2] + ...`` written into ``out``."""
    np.multiply(coeffs[-1], x, out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= x
    out += coeffs[0]


def _ramp(model: ModelSpec, tau_q, g_final, r_n, eta, end):
    """The ramped drift entries of a batch as polynomials in one ramp variable.

    Returns ``(rate, (qq, pp), x_of)``.  ``rate = tau_q / end`` is per
    member; ``qq`` and ``pp`` are the per-member coefficients, by power
    of ``x``, of ``Gamma[p_1, q_1] = -rate h_qq`` and
    ``Gamma[q_1, p_1] = rate h_pp``, with the highest powers dropped
    while they are zero for every member; ``x_of(u)`` is the ramp
    variable at solver time ``u``.  The coefficients absorb
    ``g_final^2`` per power of ``g^2`` and, for a member whose ramp is
    linear, ``1 / end^2``: its ``g^2 = g_final^2 u^2 / end^2``.  So
    ``x = u^2``, a float when every ramp is linear; otherwise ``x`` is
    per member, ``ramp(s)^2`` at ``s = u / end``, and ``u^2`` for the
    linear members, so a linear member gets the same bits in a mixed
    batch as alone.
    """
    rate = tau_q / end
    a, b = model_mod.quadrature_coefficients(model, eta)
    linear = np.asarray(r_n) == 1.0
    x_scale = g_final * g_final / np.where(linear, end * end, 1.0)
    polys = []
    for coeffs in ([-c * rate for c in a], [c * rate for c in b]):
        while len(coeffs) > 1 and not np.any(coeffs[-1]):
            coeffs.pop()
        polys.append([c * x_scale**k for k, c in enumerate(coeffs)])
    all_linear, ramp = bool(linear.all()), ramp_profile(r_n)

    def x_of(u):
        return u * u if all_linear else np.where(linear, u * u, np.square(ramp(u / end)))

    return rate, polys, x_of


def lyapunov_batch_rhs(drift_base, diffusion, model: ModelSpec, tau_q, g_final, r_n, eta=None, end=1.0):
    """``dV/du = (tau_q / end) (Gamma(s) V + V Gamma(s)^T + D)`` for a batch of covariances.

    Each member reads its ramp at its own clock ``s = u / end`` of the
    solver's one time ``u``, rescaled time at ``end = 1`` (the default)
    and physical time at ``end = tau_q`` (see
    :func:`critquench.moments.propagate_batch`).  The rate
    ``tau_q / end`` is folded in once, here, into a drift
    buffer holding ``drift_base`` (one matrix, or one per member), into
    the diffusion and into the ramp coefficients of :func:`_ramp`.  A
    call evaluates the ramped entries by Horner's rule at ``x``.  It
    writes only those entries: ``Gamma[p_1, q_1] = -rate h_qq``, and
    ``Gamma[q_1, p_1] = rate h_pp`` where ``h_pp`` moves with the
    coupling (LMG); a constant ``h_pp`` is written once.  No other entry
    is touched, so the result depends on ``(u, V)`` only.  V must be
    symmetric, as ``V Gamma^T`` is taken as ``(Gamma V)^T``; the output
    is a fresh, exactly symmetric array, so a flow started from a
    symmetric V stays exactly symmetric through every Runge-Kutta
    stage.  ``tau_q``, ``g_final``, ``r_n``, ``eta`` and ``end`` are per
    member.
    """
    rate, polys, x_of = _ramp(model, tau_q, g_final, r_n, eta, end)
    drift, diffusion = rate[:, None, None] * drift_base, rate[:, None, None] * diffusion
    # (coefficients, entry) of each ramped entry; a constant entry is written once
    ramped = []
    for coeffs, entry in zip(polys, (drift[:, 1, 0], drift[:, 0, 1])):
        if len(coeffs) == 1:
            entry[...] = coeffs[0]
        else:
            ramped.append((coeffs, entry))
    m = np.empty_like(drift)

    def rhs(u, v):
        x = x_of(u)
        for coeffs, entry in ramped:
            _horner(coeffs, x, entry)
        np.matmul(drift, v, out=m)
        out = m + m.swapaxes(-1, -2)
        out += diffusion
        return out

    return rhs


def system_columns_rhs(drift_base, diffusion, model: ModelSpec, tau_q, g_final, r_n, eta, end):
    """``dW/du`` of the system columns of a batch of covariances.

    ``W = V[:, :, :2]`` of shape (B, N, 2) holds the system block S in
    its first two rows and the chain-system cross block X below; the
    chain block C sits outside, frozen during the stages.  With the rate
    and the ramp folded in as in :func:`lyapunov_batch_rhs` (``Gamma_ss``
    the system block of ``Gamma``,
    ``K_sc = Gamma[system, chain]``),

        dW/du = Gamma W + W Gamma_ss^T + [X^T K_sc^T; C K_sc^T] + D[:, :2],

    so, with ``M = Gamma W``, the system rows are ``M_s + M_s^T`` and
    the chain rows ``M_c + X Gamma_ss^T + C K_sc^T``.  The map is linear
    in W and affine in the powers of the ramp variable ``x``
    (:func:`_ramp`), so it is built once, here: one per-member operator
    ``L_k`` on the flattened W per power ``x^k``, applied to the basis.
    A call is one batched product
    ``[w, x w, ..., 1, 1] @ [L_0; L_1; ...; D[:, :2]; [0; q]]``.  The
    rows of ``S_01`` and ``S_10`` are the same functional, so S stays
    exactly symmetric.  Returns ``(rhs, q)``: ``q`` (B, N - 2, 2), a
    view into the operator, is the chain's forcing ``C K_sc^T``, which
    the caller writes before the first call and keeps current
    (:func:`chain_flow` does).
    """
    rate, polys, x_of = _ramp(model, tau_q, g_final, r_n, eta, end)
    b, dim = drift_base.shape[:2]
    size, powers = 2 * dim, max(len(coeffs) for coeffs in polys)
    drifts = np.zeros((powers, b, dim, dim))
    drifts[0] = rate[:, None, None] * drift_base
    for (i, j), coeffs in zip(((1, 0), (0, 1)), polys):
        for k, c in enumerate(coeffs):
            drifts[k, :, i, j] = c
    # row e of L_k^T is the image of the e-th basis W, as (member, basis, N, 2)
    basis = np.eye(size).reshape(size, dim, 2)
    operator = np.zeros((b, powers * size + 2, size))
    for k, drift in enumerate(drifts):
        image = drift[:, None] @ basis
        system = image[..., :2, :]
        system += system.swapaxes(-1, -2).copy()
        image[..., 2:, :] += basis[:, 2:] @ drift[:, None, :2, :2].swapaxes(-1, -2)
        operator[:, k * size : (k + 1) * size] = image.reshape(b, size, size)
    operator[:, -2] = (rate[:, None, None] * diffusion[:, :, :2]).reshape(b, size)
    stacked = np.ones((b, 1, powers * size + 2))
    rows = [stacked[:, 0, k * size : (k + 1) * size] for k in range(powers)]
    per_member = np.ndim(x_of(0.0)) > 0

    def rhs(u, w):
        x = x_of(u)
        if per_member:
            x = x[:, None]
        rows[0][...] = w.reshape(b, size)
        for lower, upper in zip(rows, rows[1:]):
            np.multiply(lower, x, out=upper)
        return np.matmul(stacked, operator).reshape(w.shape)

    return rhs, operator[:, -1].reshape(b, dim, 2)[:, 2:]


def chain_flow(drift_base, diffusion, rate, c, q):
    """Exact flow of a batch's chain block over one step, as a ``subflow`` for ``solve_to``.

    The chain block ``C = V[:, 2:, 2:]`` (B, N - 2, N - 2), one
    contiguous array, obeys
    ``dC/du = G C + C G^T + D_cc + K X^T + X K^T``, where
    ``G = rate Gamma_cc``, ``K = rate Gamma[chain, system]`` and
    ``X = W[:, 2:]`` is the cross block of the system columns W that
    the stepper integrates (:func:`system_columns_rhs`); no
    coefficient moves with the coupling.  The chain's vacuum must be
    stationary, ``G + G^T + rate D_cc = 0``, as it is exactly for every
    chain :func:`critquench.auxbath.build_system` writes.  Then
    ``E = C - I`` obeys ``dE/du = G E + E G^T + F`` with
    ``F = K X^T + X K^T``, and, holding F at its value at the step's
    end, the flow over a step of length ``h`` is exact:

        E <- Phi_h (E + L) Phi_h^T - L,   Phi_h = exp(h G),   G L + L G^T = F.

    ``Phi_h`` comes from one eigendecomposition of G, and L from the
    inverse of the Lyapunov operator on the row-major ``vec`` of the
    block, both computed once.  Every member must share G.  Returns
    ``subflow(t, t_new, w)``, which updates ``c`` in place, exactly
    symmetric, and leaves ``w`` alone; a member without forcing
    (``K = 0``) keeps ``C = I`` exactly.  The chain's forcing of the
    system columns, ``q = C K_sc^T`` (B, N - 2, 2) with
    ``K_sc = rate Gamma[system, chain]``, is written here and refreshed
    from C after every step.
    """
    b, dim = drift_base.shape[:2]
    m = dim - 2
    r = np.asarray(rate, dtype=float)[:, None, None]
    gamma = r * drift_base[:, 2:, 2:]
    if np.any(gamma != gamma[:1]):
        raise ValueError("the members of a frozen-chain batch must share one chain drift")
    if np.any(gamma + gamma.swapaxes(-1, -2) + r * diffusion[:, 2:, 2:]):
        raise ValueError("a frozen chain needs a stationary vacuum: Gamma_cc + Gamma_cc^T + D_cc = 0")
    gamma, eye = gamma[0], np.eye(m)
    k = r * drift_base[:, 2:, :2]
    k_sc_t = (r * drift_base[:, :2, 2:]).swapaxes(-1, -2).copy()
    # Phi_h = Re sum_k exp(h lam_k) P[:, k] P^-1[k, :] is one real product
    # with the (re, im) pairs of exp(h lam).  P^-1 is read off the inverse of
    # P's real form [[Re, -Im], [Im, Re]]: a complex inverse maps 0.4 MB
    # more of LAPACK into every structured run.
    lam, vecs = np.linalg.eig(gamma)
    real_inv = np.linalg.inv(np.block([[vecs.real, -vecs.imag], [vecs.imag, vecs.real]]))
    outer = vecs.T[:, :, None] * (real_inv[:m, :m] + 1j * real_inv[m:, :m])[:, None, :]
    expand = np.stack([outer.real, -outer.imag], axis=1).reshape(2 * m, m * m).T
    # row-major vec(L) = vec(F) @ lyapunov_inv.T, and F = K X^T + (K X^T)^T
    # is vec(K X^T) @ (1 + transpose).T
    lyapunov_inv = np.linalg.inv(np.kron(gamma, eye) + np.kron(eye, gamma))
    transpose = np.eye(m * m).reshape(m, m, m, m).swapaxes(2, 3).reshape(m * m, m * m)
    weights = (lyapunov_inv @ (np.eye(m * m) + transpose)).T

    def subflow(t, t_new, w):
        phi = (expand @ np.exp((t_new - t) * lam).view(float)).reshape(m, m)
        kx = k @ w[:, 2:].swapaxes(-1, -2)
        lyap = (kx.reshape(b, -1) @ weights).reshape(c.shape)
        a = c - eye
        a += lyap
        a = np.matmul(phi, (a.reshape(-1, m) @ phi.T).reshape(a.shape))
        a -= lyap
        np.add(a, a.swapaxes(-1, -2), out=c)
        np.multiply(c, 0.5, out=c)
        np.add(c, eye, out=c)
        np.matmul(c, k_sc_t, out=q)

    np.matmul(c, k_sc_t, out=q)
    return subflow
