"""The flows and the one stepper of :func:`critquench.moments.propagate_batch`.

Every batch is integrated in the isolated mode's frame by
:func:`collocate_to`: each step collocates the 2x2 propagator U of the
system block (:func:`system_rates`) at the Gauss nodes of a
:class:`FrameRule`, and a frame advances the rest of V from U at those
nodes.  :class:`MarkovFrame` carries a Markovian bath's excess ``e``
with an integrating factor; :class:`ChainFrame` carries a chain beside
the system mode, with the exponential weights of
:meth:`FrameRule.exp_weights` and the exact chain-block flow of
:func:`chain_flow`.  Every network is in the mode-by-mode order of
:mod:`critquench.moments`, so at any size the ramped entries are
``Gamma[1, 0]`` and ``Gamma[0, 1]``; only they move with the coupling.
:func:`lyapunov_batch_rhs`, the right-hand side of the Lyapunov
equation ``dV/dt = Gamma(t) V + V Gamma(t)^T + D`` for a batch of
covariances on any network, drives only the Runge-Kutta reference
:func:`critquench.moments.propagate_moments_batch`.
"""

from __future__ import annotations

import math

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


def _ramped_drift(drift_base, model: ModelSpec, tau_q, g_final, r_n, eta, end):
    """``(rate, drift, at)``: the drift ``rate drift_base`` of a batch and ``at(u)``,
    which writes its ramped entries at solver time ``u`` and returns it.

    Only ``Gamma[p_1, q_1] = -rate h_qq`` and, where it moves with the
    coupling (LMG), ``Gamma[q_1, p_1] = rate h_pp`` are rewritten, by
    Horner's rule at the ramp variable of :func:`_ramp`; a constant
    ``h_pp`` is written once.
    """
    rate, polys, x_of = _ramp(model, tau_q, g_final, r_n, eta, end)
    drift = rate[:, None, None] * drift_base
    # (coefficients, entry) of each ramped entry; a constant entry is written once
    ramped = []
    for coeffs, entry in zip(polys, (drift[:, 1, 0], drift[:, 0, 1])):
        if len(coeffs) == 1:
            entry[...] = coeffs[0]
        else:
            ramped.append((coeffs, entry))

    def at(u):
        x = x_of(u)
        for coeffs, entry in ramped:
            _horner(coeffs, x, entry)
        return drift

    return rate, drift, at


def lyapunov_batch_rhs(drift_base, diffusion, model: ModelSpec, tau_q, g_final, r_n, eta=None, end=1.0):
    """``dV/du = (tau_q / end) (Gamma(s) V + V Gamma(s)^T + D)`` for a batch of covariances.

    Each member reads its ramp at its own clock ``s = u / end`` of the
    solver's one time ``u``, rescaled time at ``end = 1`` (the default)
    and physical time at ``end = tau_q``.  The rate
    ``tau_q / end`` is folded in once, here, into the drift
    (:func:`_ramped_drift`), the diffusion and the ramp coefficients, so
    the result depends on ``(u, V)`` only.  V must be symmetric, as
    ``V Gamma^T`` is taken as ``(Gamma V)^T``; the output is a fresh,
    exactly symmetric array, so a flow started from a symmetric V stays
    exactly symmetric through every Runge-Kutta stage.  ``tau_q``,
    ``g_final``, ``r_n``, ``eta`` and ``end`` are per member.
    """
    rate, drift, at = _ramped_drift(drift_base, model, tau_q, g_final, r_n, eta, end)
    diffusion = rate[:, None, None] * diffusion
    m = np.empty_like(drift)

    def rhs(u, v):
        np.matmul(at(u), v, out=m)
        out = m + m.swapaxes(-1, -2)
        out += diffusion
        return out

    return rhs


def system_rates(model: ModelSpec, tau_q, g_final, r_n, eta):
    """``at(t)``: ``(p, q)`` of a batch's system block ``Gamma_ss = [[0, p], [-q, 0]]`` at physical times ``t``.

    ``p`` and ``q`` are (len(t), B), the ramp folded in as in
    :func:`lyapunov_batch_rhs` at ``end = tau_q``.  The system block
    does not depend on the bath, so a member's isolated state ``U U^T``
    is the same for every bath.
    """
    rate, polys, x_of = _ramp(model, tau_q, g_final, r_n, eta, tau_q)
    size = rate.size

    def at(t):
        x = x_of(np.asarray(t, dtype=float)[:, None])
        entries = np.empty((2, len(t), size))  # Gamma[1, 0] = -q, Gamma[0, 1] = p
        for coeffs, entry in zip(polys, entries):
            if len(coeffs) == 1:
                entry[...] = coeffs[0]
            else:
                _horner(coeffs, x, entry)
        return entries[1], -entries[0]

    return at


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1].

    Newton's iteration on the Legendre polynomial ``P_n`` from the
    asymptotic guesses, with no LAPACK call: the eigensolver of the
    Golub-Welsch rule pages about 1 MB more of LAPACK into the process.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        lower, p = np.ones_like(x), x
        for k in range(1, n):
            lower, p = p, ((2 * k + 1) * x * p - k * lower) / (k + 1)
        slope = n * (x * p - lower) / (x * x - 1.0)
        x = x - p / slope
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * slope * slope)


def _lagrange_expansion(nodes, x0):
    """``d^n l_j / dx^n`` at each of ``x0`` as (..., n, j), for the Lagrange basis ``l_j`` of ``nodes``.

    Read off the expansion of ``l_j`` about ``x0`` itself, which keeps
    every derivative to a few ulps.
    """
    m = nodes.size
    others = np.array([np.delete(nodes, j) for j in range(m)])  # (j, m - 1)
    roots = others - np.asarray(x0)[..., None, None]
    coeffs = np.zeros(roots.shape[:-1] + (m,))  # by ascending power of x - x0
    coeffs[..., 0] = 1.0
    for i in range(m - 1):
        coeffs[..., 1:] = coeffs[..., :-1] - roots[..., i, None] * coeffs[..., 1:]
        coeffs[..., 0] *= -roots[..., i]
    factorials = np.cumprod(np.concatenate(([1.0], np.arange(1.0, m))))
    coeffs *= factorials / np.prod(nodes[:, None] - others, axis=-1)[:, None]
    return coeffs.swapaxes(-1, -2)


#: |z tau| above which :meth:`FrameRule.exp_weights` integrates by parts
FAR = 16.0


class FrameRule:
    """The quadrature of one frame step: 12 Gauss nodes on [0, 1] and their weight tables.

    Built by each frame (:class:`MarkovFrame`, :class:`ChainFrame`), so
    importing the package computes nothing.  ``nodes`` and ``gauss`` are
    the Gauss rule; ``ends`` the nodes and then 1, the step's end;
    ``collocation[t, j]`` is ``int_0^ends_t l_j`` over the nodes'
    Lagrange basis ``l_j``, whose rows at the nodes,
    ``collocation[:-1]``, are the Gauss collocation matrix; ``tail`` the
    projector of node values on their last Legendre mode.
    """

    def __init__(self):
        m = 12
        self.nodes, self.gauss = _gauss_legendre(m)
        self.ends = np.append(self.nodes, 1.0)
        # near branch: a 20-point Gauss rule on [0, tau] for each end tau,
        # near[t, q, j] = tau_t g_q l_j(tau_t y_q)
        self.y, g = _gauss_legendre(20)
        points = self.ends[:, None] * self.y
        self.near = self.ends[:, None, None] * g[:, None] * _lagrange_expansion(self.nodes, points)[..., 0, :]
        # far branch: the derivatives of the basis at 0 and at each end
        self.deriv_0 = _lagrange_expansion(self.nodes, 0.0)
        self.deriv_end = _lagrange_expansion(self.nodes, self.ends)
        self.collocation = self.near.sum(axis=1)  # the weights at z = 0
        # (T f)_j = a P(c_j) for the last Legendre mode a P of the interpolant of f:
        # P the shifted Legendre polynomial of degree m - 1, a = (2m - 1) sum_j b_j P(c_j) f_j
        x = 2.0 * self.nodes - 1.0
        lower, top = np.ones_like(x), x
        for n in range(1, m - 1):
            lower, top = top, ((2 * n + 1) * x * top - n * lower) / (n + 1)
        self.tail = (2 * m - 1) * top[:, None] * (self.gauss * top)
        self.stage_tail = self.collocation[:-1] @ self.tail

    def collocate(self, p, q, h, u):
        """Gauss collocation of ``U' = A U``, ``A = [[0, p], [-q, 0]]``, over one step of length ``h`` from ``u``.

        ``p`` and ``q`` are A's entries at the nodes, (m, B); ``u`` is
        (B, 2, 2).  U at the nodes solves ``U_i = u + h sum_j a_ij A_j U_j``,
        ``a`` the collocation matrix: its first rows ``x`` solve
        ``(1 + h^2 a P a Q) x = x_0 + h a P y_0``, one batched m x m
        solve, and its second rows are ``y = y_0 - h a Q x`` (P and Q
        diagonal in p and q).  U at the end, ``u + h sum_j b_j A_j U_j``
        by the Gauss weights, is of order 2m and keeps ``det U``
        (Hairer, Lubich & Wanner, Geometric Numerical Integration,
        sections II.1.3 and IV.2).  Returns U at the nodes (B, m, 2, 2),
        U at the end, and the stage estimate: U's change at the nodes
        when the stage derivatives ``A_j U_j`` lose their last Legendre
        mode.
        """
        a = self.collocation[:-1]
        hp, hq = h * p.T[:, :, None], h * q.T[:, :, None]  # (B, m, 1)
        ap, aq = a * hp.swapaxes(-1, -2), a * hq.swapaxes(-1, -2)  # h a P, h a Q
        x0, y0 = u[:, None, 0], u[:, None, 1]
        x = np.linalg.solve(np.eye(a.shape[0]) + ap @ aq, x0 + np.sum(ap, axis=-1)[..., None] * y0)
        y = y0 - aq @ x
        slopes = np.stack([hp * y, -hq * x], axis=-2)  # h A_j U_j, (B, m, 2, 2)
        flat = slopes.reshape(u.shape[0], -1, 4)
        end = u + (self.gauss @ flat).reshape(u.shape)
        return np.stack([x, y], axis=-2), end, (self.stage_tail @ flat).reshape(slopes.shape)

    def exp_weights(self, z):
        """``W[k, t, j] = int_0^tau_t exp(z_k (tau_t - x)) l_j(x) dx`` over the nodes' Lagrange basis.

        ``tau`` runs over :attr:`ends`, so for a polynomial ``p`` of
        degree below the node count ``sum_j W[k, t, j] p(c_j)`` is the
        solution at ``tau_t`` of ``y' = z_k y + p(x)``, ``y(0) = 0``.  Up
        to ``|z tau| = FAR`` the integral is a 20-point Gauss rule, exact
        to rounding there; beyond it,
        integration by parts,
        ``sum_n (e^{z tau} l^(n)(0) - l^(n)(tau)) / z^(n + 1)``, whose
        terms shrink with ``|z|``.  Both agree to a few 1e-14 at the
        switch.  ``z`` is a 1-d complex array.  Returns W and
        ``exp(z_k tau_t)``.
        """
        zt = z[:, None] * self.ends
        decay = np.exp(zt)
        w = np.matmul(np.exp(zt[..., None] * (1.0 - self.y)).swapaxes(0, 1), self.near).swapaxes(0, 1)
        far = np.abs(zt) > FAR
        if far.any():
            with np.errstate(divide="ignore", invalid="ignore"):  # a z = 0 is never far
                powers = (1.0 / z[:, None]) ** np.arange(1.0, self.nodes.size + 1.0)
            by_parts = decay[..., None] * (powers @ self.deriv_0)[:, None]
            by_parts -= np.matmul(powers, self.deriv_end).swapaxes(0, 1)
            w = np.where(far[..., None], by_parts, w)
        return w, decay


def _unimodular(u):
    """``u / sqrt(det u)`` of a stack of 2x2 matrices of positive determinant."""
    det = u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0]
    return u / np.sqrt(det)[..., None, None]


_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _chain_modes(gamma):
    """``(lam, vecs, inv)``: eigenvalues, eigenvectors P and ``P^-1`` of a real chain drift.

    ``P^-1`` is read off the inverse of P's real form
    ``[[Re, -Im], [Im, Re]]``: a complex inverse maps 0.4 MB more of
    LAPACK into every structured run.
    """
    m = gamma.shape[-1]
    lam, vecs = np.linalg.eig(gamma)
    real_inv = np.linalg.inv(np.block([[vecs.real, -vecs.imag], [vecs.imag, vecs.real]]))
    return lam, vecs, real_inv[:m, :m] + 1j * real_inv[m:, :m]


def _chain_drift(drift_base, diffusion):
    """The shared chain drift ``Gamma_cc`` of a batch, checked as :func:`chain_flow` needs it."""
    gamma = drift_base[:, 2:, 2:]
    if np.any(gamma != gamma[:1]):
        raise ValueError("the members of a frozen-chain batch must share one chain drift")
    if np.any(gamma + gamma.swapaxes(-1, -2) + diffusion[:, 2:, 2:]):
        raise ValueError("a frozen chain needs a stationary vacuum: Gamma_cc + Gamma_cc^T + D_cc = 0")
    return gamma[0]


def chain_flow(drift_base, diffusion):
    """Exact flow of a batch's chain block over one step.

    The chain block ``C = V[:, 2:, 2:]`` (B, N - 2, N - 2) obeys
    ``dC/dt = G C + C G^T + D_cc + K X^T + X K^T``, where
    ``G = Gamma_cc``, ``K = Gamma[chain, system]`` and
    ``X = V[:, 2:, :2]`` is the cross block; no coefficient moves with
    the coupling.  The chain's vacuum must be stationary,
    ``G + G^T + D_cc = 0``, as it is exactly for every chain
    :func:`critquench.auxbath.build_system` writes.  Then ``E = C - I``
    obeys ``dE/dt = G E + E G^T + F`` with ``F = K X^T + X K^T``, and,
    holding F at its value at the step's end, the flow over a step of
    length ``h`` is exact:

        E <- Phi_h (E + L) Phi_h^T - L,   Phi_h = exp(h G),   G L + L G^T = F.

    ``Phi_h`` comes from one eigendecomposition of G, and L from the
    inverse of the Lyapunov operator on the row-major ``vec`` of the
    block, both computed once.  Every member must share G.  Returns
    ``advance(h, c, x, rows)``, the new C, exactly symmetric, from C
    and the cross block X at the step's end of the members ``rows``
    (default: all); a member without forcing (``K = 0``) keeps ``C = I``
    exactly.
    """
    gamma = _chain_drift(drift_base, diffusion)
    m = gamma.shape[-1]
    eye = np.eye(m)
    k = drift_base[:, 2:, :2]
    # Phi_h = Re sum_k exp(h lam_k) P[:, k] P^-1[k, :] is one real product
    # with the (re, im) pairs of exp(h lam)
    lam, vecs, inv = _chain_modes(gamma)
    outer = vecs.T[:, :, None] * inv[:, None, :]
    expand = np.stack([outer.real, -outer.imag], axis=1).reshape(2 * m, m * m).T
    # row-major vec(L) = vec(F) @ lyapunov_inv.T, and F = K X^T + (K X^T)^T
    # is vec(K X^T) @ (1 + transpose).T
    lyapunov_inv = np.linalg.inv(np.kron(gamma, eye) + np.kron(eye, gamma))
    transpose = np.eye(m * m).reshape(m, m, m, m).swapaxes(2, 3).reshape(m * m, m * m)
    weights = (lyapunov_inv @ (np.eye(m * m) + transpose)).T

    def advance(h, c, x, rows=slice(None)):
        phi = (expand @ np.exp(h * lam).view(float)).reshape(m, m)
        kx = k[rows] @ x.swapaxes(-1, -2)
        lyap = (kx.reshape(c.shape[0], -1) @ weights).reshape(c.shape)
        a = c - eye
        a += lyap
        a = np.matmul(phi, (a.reshape(-1, m) @ phi.T).reshape(a.shape))
        a -= lyap
        out = a + a.swapaxes(-1, -2)
        out *= 0.5
        out += eye
        return out

    return advance


class MarkovFrame:
    """The excess ``e`` of a Markovian batch in the isolated mode's frame.

    The bath's drift base is ``-(kappa/2) I`` and its diffusion ``d I``
    per member (:func:`critquench.moments.thermal_bath`).  The damping
    commutes with the ramped system block ``A``, so with ``U' = A U``,
    ``U(0) = I`` and ``V = U (1 + e) U^T`` the excess obeys exactly
    ``e' = -kappa e + d (U^T U)^-1 - kappa I``.  Each step advances it
    from U at the Gauss nodes ``c_j`` (weights ``b_j``) with the
    integrating factor,

        e <- exp(-kappa h) e + h sum_j b_j exp(-kappa h (1 - c_j)) [d (U_j^T U_j)^-1 - kappa I],

    Gauss collocation of ``exp(kappa t) e`` beside U's, of order 2m at
    the step's end.  Its error is 0, so U's stage estimate is the step's
    only control; its first step is the cap.  ``e`` is kept as its
    entries ``(e_qq, e_qp, e_pp)``, (B, 3); a member at
    ``kappa = d = 0`` keeps ``e = 0`` exactly, so its V is ``U U^T``.
    """

    def __init__(self, drift_base, diffusion):
        self.kappa, self.d = -2.0 * drift_base[:, 0, 0], diffusion[:, 0, 0]
        for term, scale in ((drift_base, -0.5 * self.kappa), (diffusion, self.d)):
            if np.any(term != scale[:, None, None] * np.eye(2)):
                raise ValueError("a Markovian frame needs a drift base -(kappa/2) I and a diffusion d I")
        self.e = np.zeros((self.kappa.size, 3))
        self.rule, self.first_step = FrameRule(), math.inf

    def state(self):
        """``(e, x, c)`` of :func:`critquench.moments._covariance`: ``e`` (B, 2, 2), no chain."""
        return self.e[:, [0, 1, 1, 2]].reshape(-1, 2, 2), np.zeros((len(self.e), 0, 2)), np.zeros((len(self.e), 0, 0))

    def advance(self, active, rtol, atol):
        """``advance(h, nodes, u_new) -> (0, commit)``: ``e`` of the members ``active`` over one step.

        ``nodes`` is their U at the nodes (A, m, 2, 2), ``u_new`` at the step's end.
        """
        kappa, d, rule = self.kappa[active], self.d[active], self.rule
        if not (np.any(kappa) or np.any(d)):
            return lambda h, nodes, u_new: (0.0, lambda: None)
        damping = (1.0 - rule.nodes) * -kappa[:, None]  # (A, m)

        def advance(h, nodes, u_new):
            weights = h * rule.gauss * np.exp(h * damping)
            u00, u01, u10, u11 = nodes.reshape(*nodes.shape[:2], 4).T  # (m, A) each
            det = u00 * u11 - u01 * u10
            # (U^T U)^-1 = adj(U^T U) / det(U)^2, as its (qq, qp, pp) entries
            inverse = np.stack([u01 * u01 + u11 * u11, -(u00 * u01 + u10 * u11), u00 * u00 + u10 * u10])
            forcing = d[:, None] * np.sum(inverse * (weights.T / (det * det)), axis=1).T
            forcing[:, ::2] -= (kappa * weights.sum(axis=1))[:, None]
            e_new = np.exp(-kappa * h)[:, None] * self.e[active] + forcing

            def commit():
                self.e[active] = e_new

            return 0.0, commit

        return advance


class ChainFrame:
    """The state of a network's chain beside the isolated mode's propagator U.

    Write ``V = [[S, X^T], [X, C]]``, ``A = Gamma_ss`` the ramped system
    block of the drift, ``G = Gamma_cc = P Lam P^-1``,
    ``K = Gamma[chain, system]`` and ``K_sc = Gamma[system, chain]``.
    With ``U' = A U``, ``U(0) = I``, the frame
    variables ``S = U (1 + e) U^T`` and ``X^T = U Z P^T`` obey exactly

        e' = U^-1 K_sc P Z^T + transpose,
        z_k' = lam_k z_k + phi_k,   Phi = ((1 + e) U^T K^T + U^-1 K_sc C) P^-T,

    and C the Lyapunov flow of :func:`chain_flow`.  The system mode
    must be undamped (``D`` zero in its rows, ``A`` zero on its
    diagonal) and the chain drift shared.  U does not depend on the
    coupling to the chain.  Each step of :func:`collocate_to` collocates
    U at the Gauss nodes of the frame's :class:`FrameRule`, and
    :meth:`advance` moves ``e``, Z and C from U there:

    - Z exactly, for Phi the polynomial through its values at the
      nodes (:meth:`FrameRule.exp_weights`), each pair of conjugate modes through
      one of them;
    - ``e`` by the Gauss rule, ``e`` at the nodes from one collocation
      re-pass;
    - C by :func:`chain_flow`, fed the cross block X at the step's end;
      Phi reads C at the step's start.

    The frame's error estimate is the change of ``e`` and Z at the
    step's end when Phi loses its highest Legendre mode at the nodes,
    each scaled by ``atol + rtol |.|`` of its own entries.  ``e`` is
    O(kappa^2) and Z O(kappa) (about 1e-7..3e-6 and 1e-5 on the shipped
    configs), so with ``atol = 1e-12`` the scale is ``atol``, 1e3..1e5
    times ``rtol |.|``: this estimate cannot hold the excess to ``rtol``,
    whose accuracy comes from U's steps.  Every member is stepped; one
    without coupling (``K = 0`` and ``K_sc = 0``) gets zero forcing, so
    it keeps ``e = 0``, ``Z = 0``, ``X = 0`` and ``C = I`` exactly.  The
    state arrays ``e`` (B, 2, 2), ``z`` (B, modes, 2), ``x``
    (B, N - 2, 2) and ``c`` (B, N - 2, N - 2) are per member.

    ``first_step`` is ``1 / max |lam|``, the chain's fastest time.  The
    chain starts in its own vacuum, so Z starts off its driven, slowly
    varying course and relaxes at the chain's rates; the Gauss rule of
    ``e`` cannot integrate that transient over a longer first step, and
    no estimate sees it (Phi stays smooth).  A
    first step at the cap left ``e`` 1.8e-5 off at ``ohmic_critical``'s
    ``tau = 50``; any first step up to 0.3 left it at rounding.
    """

    def __init__(self, drift_base, diffusion):
        b, dim = drift_base.shape[:2]
        if np.any(diffusion[:, :2]) or np.any(drift_base[:, 0, 0]) or np.any(drift_base[:, 1, 1]):
            raise ValueError("the chain frame needs an undamped system mode")
        self.k, self.k_sc = drift_base[:, 2:, :2], drift_base[:, :2, 2:]
        lam, vecs, inv = _chain_modes(_chain_drift(drift_base, diffusion))
        # one mode of each conjugate pair, counted twice in X = Re(P Z^T) U^T
        keep = lam.imag >= 0.0
        self.lam = lam[keep]
        self.p = vecs[:, keep] * np.where(lam[keep].imag > 0.0, 2.0, 1.0)
        self.inv_t = inv[keep].T.copy()
        self.e = np.zeros((b, 2, 2))
        self.z = np.zeros((b, self.lam.size, 2), dtype=complex)
        self.x = np.zeros((b, dim - 2, 2))
        self.c = np.broadcast_to(np.eye(dim - 2), (b, dim - 2, dim - 2)).copy()
        self.flow = chain_flow(drift_base, diffusion)
        self.rule, self.first_step = FrameRule(), 1.0 / np.max(np.abs(lam))

    def state(self):
        """Copies of ``(e, x, c)``, which with U give V (:func:`critquench.moments._covariance`)."""
        return self.e.copy(), self.x.copy(), self.c.copy()

    def _couplings(self, o):
        """``K^T P^-T``, ``K_sc`` and ``K_sc P`` as ``(Re, -Im)`` of the members ``o``.

        The products they enter are real: a complex factor enters as its
        float view, and ``Re(K_sc P Z^T)`` is one real product with Z's
        ``(Re, Im)`` stacked.
        """
        k_p = np.ascontiguousarray(self.k[o].swapaxes(-1, -2) @ self.inv_t).view(float)
        k_sc_p = self.k_sc[o] @ self.p
        return k_p, self.k_sc[o], np.concatenate([k_sc_p.real, -k_sc_p.imag], axis=-1)

    def _factors(self, couplings, u, c):
        """``(u_k, base, inv_k)`` at propagators ``u`` (..., O, 2, 2) and chain blocks ``c``.

        ``Phi = base + e u_k`` as a float view and
        ``e' = inv_k [Re Z^T; Im Z^T] + transpose``.
        """
        k_p, k_sc, k_sc_p = couplings
        u_t = u.swapaxes(-1, -2)
        inv = u_t[..., ::-1, ::-1] * _ADJUGATE_SIGNS
        inv /= (u[..., 0, 0] * u[..., 1, 1] - u[..., 0, 1] * u[..., 1, 0])[..., None, None]
        u_k = u_t @ k_p  # U^T K^T P^-T
        return u_k, u_k + inv @ (k_sc @ (c @ self.inv_t.view(float))), inv @ k_sc_p

    def rates(self, u, e, z, c):
        """``(e', Z')`` of the batch at propagators ``u`` and frame state ``e``, ``z``, ``c``."""
        u_k, base, inv_k = self._factors(self._couplings(slice(None)), u, c)
        dz = self.lam[:, None] * z + (base + e @ u_k).view(complex).swapaxes(-1, -2)
        de = inv_k @ np.concatenate([z.real, z.imag], axis=-2)
        return de + de.swapaxes(-1, -2), dz

    def advance(self, active, rtol, atol):
        """``advance(h, nodes, u_new) -> (err, commit)``: the frame of the members ``active`` over one step.

        ``nodes`` is their U at the nodes (A, m, 2, 2), ``u_new`` at the step's end.
        """
        lam, n_modes, size = self.lam, self.lam.size, 2 * active.size
        couplings = self._couplings(active)
        rule, m = self.rule, self.rule.nodes.size

        def scaled(err, old, new):
            return err / (atol + rtol * np.maximum(np.abs(old), np.abs(new)))

        def advance(h, nodes, u_new):
            e0, z0, c0 = self.e[active], self.z[active], self.c[active]
            u_k, base, inv_k = self._factors(couplings, nodes.swapaxes(0, 1), c0)
            inv_kk = np.concatenate([inv_k, inv_k], axis=1)
            w, decay = rule.exp_weights(h * lam)  # (modes, ends, m), (modes, ends)
            # Z's free flow from the step's start, (modes, ends, 2 A)
            free = decay[..., None] * z0.transpose(1, 0, 2).reshape(n_modes, 1, size)
            e_nodes = e0
            for repass in (False, True):
                phi = (base + e_nodes @ u_k).view(complex)  # (m, A, 2, modes)
                phi = phi.transpose(3, 0, 1, 2).reshape(n_modes, -1, size)
                if repass:  # with Phi's last Legendre mode, for the error estimate
                    phi = np.concatenate([phi, rule.tail @ phi], axis=-1)
                z = h * (w @ phi)  # (modes, ends, 2 A), twice on the re-pass
                z[..., :size] += free
                zs = z[:, :-1].reshape(n_modes, m, -1, 2)
                de = (inv_kk if repass else inv_k) @ np.concatenate([zs.real, zs.imag]).transpose(1, 2, 0, 3)
                de += de.swapaxes(-1, -2)
                if not repass:
                    e_nodes = e0 + h * (rule.collocation[:-1] @ de.reshape(m, -1)).reshape(de.shape)
            de = h * (rule.gauss @ de.reshape(m, -1)).reshape(de.shape[1:])
            e_new = e0 + de[: active.size]
            e_new = 0.5 * (e_new + e_new.swapaxes(-1, -2))
            z_new, dz_new = z[:, -1].reshape(n_modes, 2, active.size, 2).transpose(1, 2, 0, 3)
            x_new = (self.p @ z_new).real @ u_new.swapaxes(-1, -2)
            c_new = self.flow(h, c0, x_new, active)
            # the embedded estimate: what Phi's last Legendre mode adds at the end
            err_e, err_z = scaled(de[active.size :], e0, e_new), scaled(np.abs(dz_new), z0, z_new)

            def commit():
                self.e[active], self.z[active], self.x[active], self.c[active] = e_new, z_new, x_new, c_new

            return math.sqrt((np.vdot(err_e, err_e) + np.vdot(err_z, err_z)) / (err_e.size + err_z.size)), commit

        return advance


def collocate_to(rule, system, advance, t0, t1, u0, step):
    """U of a batch at ``t1`` from ``u0`` at ``t0``; returns it.

    Each attempt collocates U at the nodes ``t + h c_j`` of ``rule``
    (:meth:`FrameRule.collocate`), where ``system`` gives the rates of
    the members' system block (:func:`system_rates`), and hands U at the
    nodes and at the step's end to the frame's ``advance``
    (:meth:`MarkovFrame.advance`, :meth:`ChainFrame.advance`).  Every
    accepted U is projected back to ``det U = 1``, which the exact flow
    keeps (``Gamma_ss`` is traceless), so rounding does not drift the
    isolated state off purity.  The attempt's error is the larger of two
    RMS norms: the stage estimate, scaled by ``atol + rtol |U|`` at the
    nodes, and the frame's estimate.  Steps under ``step``, the
    :class:`critquench._ode._StepControl` of the propagation, whose
    proposal is set (the frame's ``first_step`` on the first span) and
    whose ``settings`` give the tolerances.
    """
    u = np.array(u0)
    rtol, atol = step.settings.rtol, step.settings.atol
    step.span(t0, t1)
    while step.t < step.t1:
        t, h = step.t, step.attempt()
        nodes, end, change = rule.collocate(*system(t + h * rule.nodes), h, u)
        u_new = _unimodular(end)
        stage = change / (atol + rtol * np.abs(nodes))
        frame_err, commit = advance(h, nodes, u_new)
        if step.settle(max(math.sqrt(np.vdot(stage, stage) / stage.size), frame_err)):
            u = u_new
            commit()
    return u
