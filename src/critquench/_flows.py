"""The flows and the one stepper of :func:`critquench.moments.propagate_batch`.

Every batch is integrated in the isolated mode's frame by
:func:`collocate_to`: each step collocates the 2x2 propagator U of the
system block (:func:`system_rates`) at the Gauss nodes of a
:class:`FrameRule`, and a frame advances the rest of V from U at those
nodes.  :class:`MarkovFrame` carries a Markovian bath's excess ``e``
with an integrating factor, on lanes of each ramp that it then composes
exactly (:meth:`MarkovFrame.compose`); :class:`ChainFrame` carries a chain beside
the system mode, with the exponential weights of its
:class:`ChainRule` and its exact chain-block flow
:meth:`ChainFrame.flow`.  Every network is in the mode-by-mode order of
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


def _ramp(model: ModelSpec, tau_q, g_final, r_n, eta, end):
    """``(rate, writer)``: the one writer of a batch's ramped drift entries.

    ``rate = tau_q / end`` per member.  ``writer(entries)`` takes the pair
    ``Gamma[p_1, q_1] = -rate h_qq``, ``Gamma[q_1, p_1] = rate h_pp``,
    writes one that is constant (``h_pp`` but for LMG) at once and
    returns ``write(u)``, which writes the others at solver time ``u`` by
    Horner's rule in one ramp variable ``x``, up to the highest power
    not zero for every member.  The coefficients, per member, absorb
    ``rate``, ``g_final^2`` per power of ``g^2`` and, for a linear ramp,
    ``1 / end^2``: its ``g^2 = g_final^2 u^2 / end^2``.  So ``x = u^2``,
    a float when every ramp is linear; otherwise ``x`` is per member,
    ``ramp(s)^2`` at ``s = u / end`` and ``u^2`` for the linear members,
    which so get the same bits in a mixed batch as alone.
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

    def writer(entries):
        ramped = [(coeffs, entry) for coeffs, entry in zip(polys, entries) if len(coeffs) > 1]
        for coeffs, entry in zip(polys, entries):
            if len(coeffs) == 1:
                entry[...] = coeffs[0]

        def write(u):
            x = u * u if all_linear else np.where(linear, u * u, np.square(ramp(u / end)))
            for coeffs, entry in ramped:  # coeffs[0] + x coeffs[1] + x^2 coeffs[2] + ... by Horner's rule
                np.multiply(coeffs[-1], x, out=entry)
                for c in coeffs[-2:0:-1]:
                    entry += c
                    entry *= x
                entry += coeffs[0]

        return write

    return rate, writer


def lyapunov_batch_rhs(drift_base, diffusion, model: ModelSpec, tau_q, g_final, r_n, eta=None, end=1.0):
    """``dV/du = (tau_q / end) (Gamma(s) V + V Gamma(s)^T + D)`` for a batch of covariances.

    Each member reads its ramp at its own clock ``s = u / end`` of the
    solver's one time ``u``, rescaled time at ``end = 1`` (the default)
    and physical time at ``end = tau_q``.  The rate ``tau_q / end`` is
    folded in once, here, into the drift and the diffusion, and each
    call writes the drift's ramped entries with the writer of
    :func:`_ramp`, so the result depends on ``(u, V)`` only.  V must be
    symmetric, as ``V Gamma^T`` is taken as ``(Gamma V)^T``; the output
    is a fresh, exactly symmetric array, so a flow started from a
    symmetric V stays exactly symmetric through every Runge-Kutta stage.
    ``tau_q``, ``g_final``, ``r_n``, ``eta`` and ``end`` are per member.
    """
    rate, writer = _ramp(model, tau_q, g_final, r_n, eta, end)
    drift = rate[:, None, None] * drift_base
    diffusion = rate[:, None, None] * diffusion
    write = writer((drift[:, 1, 0], drift[:, 0, 1]))
    m = np.empty_like(drift)

    def rhs(u, v):
        write(u)
        np.matmul(drift, v, out=m)
        out = m + m.swapaxes(-1, -2)
        out += diffusion
        return out

    return rhs


def system_rates(model: ModelSpec, tau_q, g_final, r_n, eta, start=0.0):
    """``at(t)``: ``(p, q)`` of a batch's system block ``Gamma_ss = [[0, p], [-q, 0]]`` at physical times ``start + t``.

    ``p`` and ``q`` are (len(t), B), written by the writer of
    :func:`_ramp` at ``end = tau_q``, the one :func:`lyapunov_batch_rhs`
    calls; ``start`` is per member, a lane's start in its ramp.  The
    system block does not depend on the bath, so a member's isolated
    state ``U U^T`` is the same for every bath.
    """
    rate, writer = _ramp(model, tau_q, g_final, r_n, eta, tau_q)

    def at(t):
        entries = np.empty((2, len(t), rate.size))  # Gamma[1, 0] = -q, Gamma[0, 1] = p
        writer(entries)(np.asarray(t, dtype=float)[:, None] + start)
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


def _basis_integrals(nodes, ends):
    """``(y, near)``: a 40-point Gauss rule ``y`` and ``int_0^tau_t l_j = sum_q near[t, q, j]`` at ``ends``."""
    # near[t, q, j] = tau_t g_q l_j(tau_t y_q), the Lagrange basis l_j of the nodes
    # from its barycentric weights: l_j(x) = prod_k (x - c_k) w_j / (x - c_j)
    y, g = _gauss_legendre(40)
    gaps = (ends[:, None] * y)[..., None] - nodes  # (t, q, j)
    barycentric = 1.0 / np.prod(nodes[:, None] - nodes + np.eye(nodes.size), axis=1)
    basis = np.prod(gaps, axis=-1, keepdims=True) * barycentric / gaps
    return y, ends[:, None, None] * g[:, None] * basis


class FrameRule:
    """The Gauss collocation of one frame step: ``m`` nodes on [0, 1] and the tables both frames read.

    Each frame builds its own, at its own ``m`` (:class:`MarkovFrame`
    24, :class:`ChainFrame` a 16-node :class:`ChainRule`), so importing
    the package computes nothing.  ``nodes`` and ``gauss`` are the Gauss
    rule; ``collocation[i, j]`` is ``int_0^c_i l_j`` over the nodes'
    Lagrange basis ``l_j``, the Gauss collocation matrix; ``pairs`` the
    m x m^2 table ``pairs[j, i m + k] = a_ij a_jk`` of :meth:`collocate`'s
    GEMM; ``tail`` the projector of node values on their last Legendre mode.
    """

    def __init__(self, m):
        self.nodes, self.gauss = _gauss_legendre(m)
        self.collocation = a = self._integrals().sum(axis=1)[:m]
        self.pairs = (a.T[:, :, None] * a[:, None, :]).reshape(m, m * m)
        # (T f)_j = a P(c_j) for the last Legendre mode a P of the interpolant of f:
        # P the shifted Legendre polynomial of degree m - 1, a = (2m - 1) sum_j b_j P(c_j) f_j
        x = 2.0 * self.nodes - 1.0
        lower, top = np.ones_like(x), x
        for n in range(1, m - 1):
            lower, top = top, ((2 * n + 1) * x * top - n * lower) / (n + 1)
        self.tail = (2 * m - 1) * top[:, None] * (self.gauss * top)
        self.stage_tail = self.collocation @ self.tail

    def _integrals(self):
        """``near`` of :func:`_basis_integrals` at the nodes, summed into ``collocation``."""
        return _basis_integrals(self.nodes, self.nodes)[1]

    def collocate(self, p, q, h, u):
        """Gauss collocation of ``U' = A U``, ``A = [[0, p], [-q, 0]]``, over one step of length ``h`` from ``u``.

        ``p`` and ``q`` are A's entries at the nodes, (m, B); ``u`` is
        (B, 2, 2).  U at the nodes solves ``U_i = u + h sum_j a_ij A_j U_j``,
        ``a`` the collocation matrix: its first rows ``x`` solve
        ``(1 + h^2 a P a Q) x = x_0 + h a P y_0``, one batched m x m
        solve, and its second rows are ``y = y_0 - a (h Q x)`` (P and Q
        diagonal in p and q).  The solve's matrix, ``delta_ik + h^2
        (sum_j a_ij a_jk p_j) q_k``, is one GEMM of the members' ``h p``
        with ``pairs``, its columns then scaled by ``h q`` and its
        diagonal raised by one in place; every member shares ``a`` and
        ``pairs``.  U at the end, ``u + h sum_j b_j A_j U_j``
        by the Gauss weights, is of order 2m and keeps ``det U``
        (Hairer, Lubich & Wanner, Geometric Numerical Integration,
        sections II.1.3 and IV.2).  Returns U at the nodes (B, m, 2, 2),
        U at the end, and the stage estimate: U's change at the nodes
        when the stage derivatives ``A_j U_j`` lose their last Legendre
        mode.
        """
        a, m = self.collocation, self.nodes.size
        hp, hq = h * p.T, h * q.T  # (B, m)
        x0, y0 = u[:, None, 0], u[:, None, 1]
        matrix = (hp @ self.pairs).reshape(-1, m, m)
        matrix *= hq[:, None, :]
        matrix.reshape(-1, m * m)[:, :: m + 1] += 1.0
        x = np.linalg.solve(matrix, x0 + (hp @ a.T)[..., None] * y0)
        y = y0 - a @ (hq[..., None] * x)
        slopes = np.stack([hp[..., None] * y, -hq[..., None] * x], axis=-2)  # h A_j U_j, (B, m, 2, 2)
        flat = slopes.reshape(u.shape[0], -1, 4)
        end = u + (self.gauss @ flat).reshape(u.shape)
        return np.stack([x, y], axis=-2), end, (self.stage_tail @ flat).reshape(slopes.shape)


#: |z tau| above which :meth:`ChainRule.exp_weights` integrates by parts
FAR = 32.0


class ChainRule(FrameRule):
    """A :class:`FrameRule` with the tables of :meth:`exp_weights`, the chain frame's exponential integrator.

    ``y`` and ``near`` are the 40-point rule of ``int_0^tau`` at each of
    ``ends`` (:func:`_basis_integrals`), ``deriv_0`` and ``deriv_end``
    the basis' derivatives at 0 and at each end, for integration by
    parts.  :class:`MarkovFrame` reads none of them.
    """

    def _integrals(self):
        """``near`` at ``ends``, the nodes and the step's end, built with the other tables of :meth:`exp_weights`."""
        self.ends = np.append(self.nodes, 1.0)
        self.y, self.near = _basis_integrals(self.nodes, self.ends)
        self.deriv_0 = _lagrange_expansion(self.nodes, 0.0)
        self.deriv_end = _lagrange_expansion(self.nodes, self.ends)
        return self.near

    def exp_weights(self, z):
        """``W[k, t, j] = int_0^tau_t exp(z_k (tau_t - x)) l_j(x) dx`` over the nodes' Lagrange basis.

        ``tau`` runs over :attr:`ends`, so for a polynomial ``p`` of
        degree below the node count ``sum_j W[k, t, j] p(c_j)`` is the
        solution at ``tau_t`` of ``y' = z_k y + p(x)``, ``y(0) = 0``.  Up
        to ``|z tau| = FAR`` the integral is a 40-point Gauss rule, exact
        to rounding there; beyond it, integration by parts,
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
    only control.  Only the Gauss weights enter, so the rule has 24
    nodes, 2.4 times fewer attempts than 16.  ``first_step`` is
    infinite: the first attempt is the whole first span, and the
    estimate cuts it down.  ``e`` is kept as its entries ``(e_qq, e_qp,
    e_pp)``, (B, 3); a member at ``kappa = d = 0`` keeps ``e = 0``
    exactly, so its V is ``U U^T``.  The members may be lanes of
    longer ramps, which :meth:`compose` joins.
    """

    def __init__(self, drift_base, diffusion):
        self.kappa, self.d = -2.0 * drift_base[:, 0, 0], diffusion[:, 0, 0]
        for term, scale in ((drift_base, -0.5 * self.kappa), (diffusion, self.d)):
            if np.any(term != scale[:, None, None] * np.eye(2)):
                raise ValueError("a Markovian frame needs a drift base -(kappa/2) I and a diffusion d I")
        self.e = np.zeros((self.kappa.size, 3))
        self.rule, self.first_step = FrameRule(24), math.inf

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

    def compose(self, phi, member, length):
        """Yield ``(U, state)`` of the members after each one's lane k, k = 0, 1, ..., this frame's members being lanes.

        Each lane ran its ``length`` from ``U = I``, ``e = 0`` to ``phi`` and
        ``e_s``; ``member`` is ascending, a member's lanes in time order.
        Both flows are linear, so from lane 0's own state each next lane
        folds in exactly, U on the right the member's at the lane's start:

            U <- unimodular(phi U),   e <- exp(-kappa L) e + U^-1 (e_s + c I) U^-T - c I,   c = 1 - exp(-kappa L).

        A member out of lanes keeps its state (``state`` as :meth:`state`).
        """
        e_lane, x, c = self.state()
        rank = np.arange(member.size) - np.searchsorted(member, member)
        decay, gain = np.exp(-self.kappa * length), -np.expm1(-self.kappa * length)
        for k in range(rank.max() + 1):
            lane = np.flatnonzero(rank == k)
            if k == 0:
                u, e = phi[lane], e_lane[lane]
            else:
                m, u, e = member[lane], u.copy(), e.copy()
                inv, lift = np.linalg.inv(u[m]), gain[lane, None, None] * np.eye(2)
                e[m] = decay[lane, None, None] * e[m] + inv @ (e_lane[lane] + lift) @ inv.swapaxes(-1, -2) - lift
                u[m] = _unimodular(phi[lane] @ u[m])
            yield u, (e, x[: len(u)], c[: len(u)])


class ChainFrame:
    """The state of a network's chain beside the isolated mode's propagator U.

    Write ``V = [[S, X^T], [X, C]]``, ``A = Gamma_ss`` the ramped system
    block of the drift, ``G = Gamma_cc = P Lam P^-1``,
    ``K = Gamma[chain, system]`` and ``K_sc = Gamma[system, chain]``.
    With ``U' = A U``, ``U(0) = I``, the frame
    variables ``S = U (1 + e) U^T`` and ``X^T = U Z P^T`` obey exactly

        e' = U^-1 K_sc P Z^T + transpose,
        z_k' = lam_k z_k + phi_k,   Phi = ((1 + e) U^T K^T + U^-1 K_sc C) P^-T,

    and C the Lyapunov flow of :meth:`flow`.  The system mode
    must be undamped (``D`` zero in its rows, ``A`` zero on its
    diagonal), the chain drift shared, its vacuum stationary and, when
    coupled, its modes damped (:class:`ValueError`).  U does not depend on the
    coupling to the chain.  Each step of :func:`collocate_to` collocates
    U at the Gauss nodes of the frame's :class:`ChainRule`, and
    :meth:`advance` moves ``e``, Z and C from U there:

    - Z exactly, for Phi the polynomial through its values at the
      nodes (:meth:`ChainRule.exp_weights`), each pair of conjugate modes through
      one of them;
    - ``e`` by the Gauss rule, ``e`` at the nodes from one collocation
      re-pass;
    - C by :meth:`flow`, fed the cross block X at the step's end;
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

    The rule has 16 nodes: at 24, :meth:`ChainRule.exp_weights` is 8e-12
    off and jumps 4e-10 at ``FAR``; an 80-point near rule and ``FAR = 80``
    mend that, but cost ``structured_sweep`` up to 5 % and 1.6 MB.

    ``first_step`` is ``1 / max |lam|``, the chain's fastest time.  The
    chain starts in its own vacuum, so Z starts off its driven, slowly
    varying course and relaxes at the chain's rates; the Gauss rule of
    ``e`` cannot integrate that transient over a longer first step, and
    no estimate sees it (Phi stays smooth).  A first step of 3.5 left
    ``e`` 1.8e-5 off at ``ohmic_critical``'s ``tau = 50``; any first
    step up to 0.3 left it at rounding.
    """

    def __init__(self, drift_base, diffusion):
        b, dim = drift_base.shape[:2]
        if np.any(diffusion[:, :2]) or np.any(drift_base[:, 0, 0]) or np.any(drift_base[:, 1, 1]):
            raise ValueError("the chain frame needs an undamped system mode")
        gamma, n = drift_base[:, 2:, 2:], dim - 2
        if np.any(gamma != gamma[:1]):
            raise ValueError("the members of a frozen-chain batch must share one chain drift")
        if np.any(gamma + gamma.swapaxes(-1, -2) + diffusion[:, 2:, 2:]):
            raise ValueError("a frozen chain needs a stationary vacuum: Gamma_cc + Gamma_cc^T + D_cc = 0")
        self.k, self.k_sc = drift_base[:, 2:, :2], drift_base[:, :2, 2:]
        lam, vecs = np.linalg.eig(gamma[0])
        # the Lyapunov operator of :meth:`flow` has the eigenvalues lam_i + lam_j: an undamped mode makes it singular
        if np.any(self.k) and -lam.real.max() <= 1e-10 * np.max(np.abs(lam)):
            slowest = abs(lam[np.argmax(lam.real)].imag)
            raise ValueError(f"a coupled chain needs damped modes, but its mode at frequency {slowest:.6g} is undamped")
        # P^-1 from the inverse of P's real form [[Re, -Im], [Im, Re]]: a
        # complex inverse maps 0.4 MB more of LAPACK into every structured run
        real_inv = np.linalg.inv(np.block([[vecs.real, -vecs.imag], [vecs.imag, vecs.real]]))
        inv = real_inv[:n, :n] + 1j * real_inv[n:, :n]
        # one mode of each conjugate pair, counted twice in X = Re(P Z^T) U^T
        keep = lam.imag >= 0.0
        self.lam = lam[keep]
        self.p = vecs[:, keep] * np.where(lam[keep].imag > 0.0, 2.0, 1.0)
        self.inv_t = inv[keep].T.copy()
        # the tables of :meth:`flow`, over every mode: Phi_h = Re sum_k exp(h lam_k)
        # P[:, k] P^-1[k, :] is one real product with the (re, im) pairs of exp(h lam)
        outer = vecs.T[:, :, None] * inv[:, None, :]
        self.modes = lam
        self.expand = np.stack([outer.real, -outer.imag], axis=1).reshape(2 * n, n * n).T
        # row-major vec(L) = vec(F) @ lyapunov_inv.T, and F = K X^T + (K X^T)^T
        # is vec(K X^T) @ (1 + transpose).T
        eye = np.eye(n)
        lyapunov_inv = np.linalg.inv(np.kron(gamma[0], eye) + np.kron(eye, gamma[0]))
        transpose = np.eye(n * n).reshape(n, n, n, n).swapaxes(2, 3).reshape(n * n, n * n)
        self.lyapunov = (lyapunov_inv @ (np.eye(n * n) + transpose)).T
        self.e = np.zeros((b, 2, 2))
        self.z = np.zeros((b, self.lam.size, 2), dtype=complex)
        self.x = np.zeros((b, n, 2))
        self.c = np.broadcast_to(eye, (b, n, n)).copy()
        self.rule, self.first_step = ChainRule(16), 1.0 / np.max(np.abs(lam))

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

    def flow(self, h, c, x, rows):
        """The chain block C of the members ``rows`` after one step of length ``h``, exactly symmetric.

        C obeys ``dC/dt = G C + C G^T + D_cc + K X^T + X K^T``, no
        coefficient moving with the coupling.  With the stationary vacuum
        ``G + G^T + D_cc = 0``, which every chain of
        :func:`critquench.auxbath.build_system` has exactly, ``E = C - I``
        obeys ``dE/dt = G E + E G^T + F``, ``F = K X^T + X K^T``.  Holding
        F at the given cross block X, the step's end, the flow is exact:

            E <- Phi_h (E + L) Phi_h^T - L,   Phi_h = exp(h G),   G L + L G^T = F,

        ``Phi_h`` from the frame's eigendecomposition of G, and L from the
        inverse of the Lyapunov operator on the row-major ``vec`` of the
        block.  A member without forcing (``K = 0``) keeps ``C = I`` exactly.
        """
        n = c.shape[-1]
        eye = np.eye(n)
        phi = (self.expand @ np.exp(h * self.modes).view(float)).reshape(n, n)
        kx = self.k[rows] @ x.swapaxes(-1, -2)
        lyap = (kx.reshape(c.shape[0], -1) @ self.lyapunov).reshape(c.shape)
        a = c - eye
        a += lyap
        a = np.matmul(phi, (a.reshape(-1, n) @ phi.T).reshape(a.shape))
        a -= lyap
        out = a + a.swapaxes(-1, -2)
        out *= 0.5
        out += eye
        return out

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
                    e_nodes = e0 + h * (rule.collocation @ de.reshape(m, -1)).reshape(de.shape)
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
