"""Second routes kept as test oracles for formulas the package computes once.

- The one-dimensional Gaussian expectation E[g(Z)] on a Gauss-Hermite rule
  and the square-loss proximal (formula row 5): the package's expectations
  are two-dimensional or written out where they are used, and its square
  channel is closed form (row 8).
- The empirical feature spectrum (formula row 3): the exact eigenvalues of
  one sampled Omega, the finite-p counterpart of the closed-form
  Marchenko-Pastur model. A finite-p spectral integral is their mean.
- The spectral prior update (formula row 12) by adaptive `quad` against
  the closed-form Marchenko-Pastur density, the accuracy reference for
  its fixed bulk grid.
- Finite-matrix prior traces (formula row 13): the trace formulas over
  sampled feature matrices that the spectral prior must reproduce as p grows.
- Kernel-ridge one-shot closed forms (row 17): the form as printed, whose q
  is wrong, and the q rederived from the fixed-point equations.
- The hinge channel and training loss (rows 10 and 11) on the kinked-panel
  grid: composite Gauss-Legendre panels over [-12 sd, 12 sd], split at the
  proximal's branch boundaries, with prox_hinge evaluated at every node and
  the two labels summed, or doubled from y = +1, as the package did before
  its hinge route became the erf-weighted closed form. Its q1_hat is
  checked two ways:

  - a brute-force quadrature that tensorizes the same panels over (W, W')
    and evaluates prox_hinge at every node;
  - the package's analytic inner integral over W given W + W', written as
    a loop over s-nodes and cells.
- The damped single-learner loop (row 26) written on numpy (m, q0, v)
  arrays; the package's loop on Python floats must return the same
  FixedPoint bit for bit.
- The damped solve of the full (m, q0, q1, v) map, at finite ratio and in
  the kernel limit, as every loss was solved before the two-stage solve:
  the accuracy reference for it.
- The Monte Carlo block sampler and error estimate (row 24) as they were
  before the sampler worked in place; the package must draw the same
  samples and return the same estimate bit for bit.
- The logistic ERM trainer (row 27) as a dense Newton: the p x p Hessian
  from a general product, solved by LU, with the objective recomputed from
  w; the factored trainer must take the same Newton steps.
- An ERM trial (rows 27-29) on the whole ensemble: all K training feature
  blocks featurized in one call and trained together, the exact ridge test
  error where the trial takes it, else test points featurized for all
  learners at once, either drawn at once as whole (test_samples, p) blocks
  or in the trial's row chunks; the trial, which holds one learner's
  features at a time, must return the same record.
"""

import math

import numpy as np
from scipy import integrate
from scipy.linalg import cho_factor, cho_solve
from scipy.special import erf, expit

from rfensemble import ConfigError, DomainError, NumericalError, OrderParams, prox_hinge, teacher_dz0, teacher_z0
from rfensemble import erm_lab, quadrature, solver, special
from rfensemble.channels import ConjugateParams, channel_update
from rfensemble.observables import MC_BLOCK, resolve_estimator
from rfensemble.priors import kernel_channel_update, kernel_prior_update, prior_update_spectral
from rfensemble.spectrum import sample_feature_matrix


# ---------------------------------------------------------------------------
# One-dimensional expectation and the square-loss proximal
# ---------------------------------------------------------------------------


def expect_1d(g, rule):
    """E[g(Z)], Z ~ N(0,1), on a Gauss-Hermite rule; g must accept an array of nodes."""
    vals = np.asarray(g(rule.nodes), dtype=float)
    quadrature._check_finite(vals, "integrand", rule.nodes)
    return float(rule.weights @ vals)


def prox_square(y, omega, v: float):
    """argmin_x (x-omega)^2/(2v) + (y-x)^2/2 = (omega + v y)/(1 + v)."""
    if not v > 0:
        raise DomainError(f"v must be positive, got {v}")
    return (np.asarray(omega) + v * np.asarray(y)) / (1.0 + v)


# ---------------------------------------------------------------------------
# Empirical feature spectrum
# ---------------------------------------------------------------------------


def empirical_spectrum(seed, p, d, coeffs):
    """Sorted eigenvalues of (kappa1^2/d) F F^T + kappa_star^2 I_p, F = sample_feature_matrix(seed, p, d)."""
    F = sample_feature_matrix(seed, p, d)
    omega = (coeffs.kappa1**2 / d) * (F @ F.T)
    omega[np.diag_indices(p)] += coeffs.kappa_star_sq
    return np.linalg.eigvalsh(omega)


def mp_integral_quad(model, g):
    """Integral of g against `model`'s spectral law (bulk + atom) by adaptive `quad`.

    The bulk density sqrt((hi - x)(x - lo)) / (2 pi c b2 x), x = s - shift,
    is written as the algebraic end-point weight (x - lo)^(-1/2) (hi - x)^(1/2)
    times (x - lo)/x, which stays bounded as lo -> 0; the adaptive rule, not
    a fixed grid, resolves the 1/x factor near a small lower edge.
    """
    c = 1.0 / model.aspect
    b2 = model.scale**2
    lo = b2 * (1 - math.sqrt(c)) ** 2
    hi = b2 * (1 + math.sqrt(c)) ** 2

    def f(x):
        ratio = (x - lo) / x if x > 0 else 1.0  # its limit when lo = 0
        return g(x + model.shift) * ratio / (2 * math.pi * c * b2)

    bulk = integrate.quad(f, lo, hi, weight="alg", wvar=(-0.5, 0.5), epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return bulk + model.atom_mass * g(model.atom_location)


def prior_update_quad_oracle(conj, lam, model):
    """`priors.prior_update_spectral` with its three integrals by `mp_integral_quad`."""
    mh, q0h, q1h, vh = conj.m_hat, conj.q0_hat, conj.q1_hat, conj.v_hat
    gamma, ks2 = model.aspect, model.shift
    v = mp_integral_quad(model, lambda s: s / (lam + vh * s))
    i_theta = mp_integral_quad(model, lambda s: (s - ks2) / (lam + vh * s))
    q0 = mp_integral_quad(model, lambda s: ((q0h + mh**2) * s**2 - mh**2 * ks2 * s) / (lam + vh * s) ** 2)
    m = mh / math.sqrt(gamma) * i_theta
    q1 = (mh**2 + q1h) * i_theta**2 / gamma
    return OrderParams(m=m, q0=q0, q1=q1, v=v)


# ---------------------------------------------------------------------------
# Finite-matrix prior traces
# ---------------------------------------------------------------------------


def omega_diag(ensemble, k):
    """Omega_kk = (kappa1^2/d) F_k F_k^T + kappa_star^2 I."""
    F = ensemble.F_list[k]
    out = (ensemble.coeffs.kappa1**2 / ensemble.d) * (F @ F.T)
    out[np.diag_indices(ensemble.p)] += ensemble.coeffs.kappa_star_sq
    return out


def omega_cross(ensemble, k, kp):
    """Omega_kk' = (kappa1^2/d) F_k F_k'^T for k != k'."""
    return (ensemble.coeffs.kappa1**2 / ensemble.d) * (ensemble.F_list[k] @ ensemble.F_list[kp].T)


def prior_update_matrix_oracle(conj, lam, ensemble):
    """Finite-size trace formulas over the sampled feature covariance blocks.

    Needs two independent feature matrices for the cross overlap q1. Linear
    systems (lam I + v_hat Omega) X = B are solved by Cholesky; conditioning
    degrades near the interpolation peak, so failures surface with context.
    """
    if ensemble.K < 2:
        raise ConfigError("matrix oracle needs K >= 2 feature matrices for q1")
    mh, q0h, q1h, vh = conj.m_hat, conj.q0_hat, conj.q1_hat, conj.v_hat
    p = ensemble.p
    gamma = ensemble.d / p
    ks2 = ensemble.coeffs.kappa_star_sq
    omega = omega_diag(ensemble, 0)
    omega_p = omega_diag(ensemble, 1)
    cross = omega_cross(ensemble, 0, 1)
    a = lam * np.eye(p) + vh * omega
    a_p = lam * np.eye(p) + vh * omega_p
    try:
        cf = cho_factor(a)
        cf_p = cho_factor(a_p)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"resolvent factorization failed at lam={lam}, v_hat={vh}: {exc}") from exc
    r_omega = cho_solve(cf, omega)
    theta_block = omega.copy()
    theta_block[np.diag_indices(p)] -= ks2
    r_theta = cho_solve(cf, theta_block)
    v = float(np.trace(r_omega)) / p
    m = mh / np.sqrt(gamma) * float(np.trace(r_theta)) / p
    mid = mh**2 * theta_block + q0h * omega
    r_mid = cho_solve(cf, mid)
    q0 = float(np.sum(r_mid * r_omega.T)) / p
    r_cross = cho_solve(cf, cross)
    rp_cross_t = cho_solve(cf_p, cross.T)
    q1 = (mh**2 + q1h) * float(np.sum(r_cross * rp_cross_t.T)) / p
    return OrderParams(m=m, q0=q0, q1=q1, v=v)


# ---------------------------------------------------------------------------
# Kernel-ridge one-shot closed forms
# ---------------------------------------------------------------------------


def kernel_ridge_closed_form(lam, delta, rho, coeffs):
    """Kernel-limit ridge fixed point in one shot, as printed: returns (v, m, q).

    The v and m expressions agree with the kernel fixed-point iteration to
    machine precision. The printed q expression does not (its numerator's
    bare delta is correct, its denominator is not); see
    kernel_ridge_closed_form_derived for the form that matches the fixed
    point, and docs/formula_map.md for the cross-check protocol.
    """
    if not lam > 0:
        raise DomainError(f"closed form requires lam > 0, got {lam}")
    k1sq = coeffs.kappa1**2
    ks2 = coeffs.kappa_star_sq
    disc = (1 - delta) ** 2 * k1sq**2 + 2 * (ks2 + lam) * (1 + delta) * k1sq + (ks2 + lam) ** 2
    v = ((1 - delta) * k1sq + np.sqrt(disc) + ks2 - lam) / (2 * lam)
    m = 1.0 / (1.0 + lam * (v + 1.0) / (delta * k1sq))
    q = (delta - 2.0 * m + rho) / ((1.0 + 2.0 * lam * (v + 1.0) / (delta * k1sq)) ** 2 - 1.0)
    return v, m, q


def kernel_ridge_closed_form_derived(lam, delta, rho, coeffs):
    """Kernel ridge closed form rederived from the fixed-point equations.

    Same v and m as the printed form; q solves the self-consistency
    q = delta kappa1^4 (q_hat + m_hat^2) / (lam + delta kappa1^2 v_hat)^2
    with the ridge channel, giving
    q = (rho + delta - 2 m) / (delta (1 + x)^2 - 1), x = lam (v+1)/(delta kappa1^2).
    """
    if not lam > 0:
        raise DomainError(f"closed form requires lam > 0, got {lam}")
    v, m, _ = kernel_ridge_closed_form(lam, delta, rho, coeffs)
    x = lam * (v + 1.0) / (delta * coeffs.kappa1**2)
    q = (rho + delta - 2.0 * m) / (delta * (1.0 + x) ** 2 - 1.0)
    return v, m, q


# ---------------------------------------------------------------------------
# Hinge channel on kinked panels
# ---------------------------------------------------------------------------


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def kink_grid_1d(sd, knots, span=12.0):
    """Composite Gauss-Legendre nodes/weights on [-span sd, span sd], panels
    at most sd/2 wide and split at the interior knots."""
    lo, hi = -span * sd, span * sd
    cuts = sorted({lo, hi, *[k for k in knots if lo < k < hi]})
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(a, b, max(1, int(np.ceil((b - a) / (0.5 * sd)))) + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        nodes.append((mid[:, None] + half[:, None] * _GL_NODES).ravel())
        weights.append((half[:, None] * _GL_WEIGHTS).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def expect_kinked_2d(g, q0, q1, knots):
    """E[g(W, W')] over the correlated pair, panels split at knots per axis."""
    sd = np.sqrt(q0)
    x, wx = kink_grid_1d(sd, knots)
    if abs(q1) >= q0 * (1 - 1e-12):
        sign = 1.0 if q1 > 0 else -1.0
        pdf = np.exp(-(x**2) / (2.0 * q0)) / np.sqrt(2.0 * np.pi * q0)
        return float(np.sum(wx * pdf * g(x, sign * x)))
    det = q0 * q0 - q1 * q1
    xs, ys = x[:, None], x[None, :]
    pdf = np.exp(-(q0 * xs**2 - 2.0 * q1 * xs * ys + q0 * ys**2) / (2.0 * det)) / (2.0 * np.pi * np.sqrt(det))
    vals = g(np.broadcast_to(xs, pdf.shape), np.broadcast_to(ys, pdf.shape))
    return float(np.einsum("i,j,ij->", wx, wx, pdf * vals))


def hinge_q1_hat(params, rho, alpha):
    """q1_hat = 2 alpha E[Z0(+1, m(W+W')/(q0+q1), s_pair) f(W) f(W')] (both
    labels contribute equally)."""
    m, q0, q1, v = params.m, params.q0, params.q1, params.v
    s_pair = rho - 2.0 * m**2 / (q0 + q1)

    def pair(wa, wb):
        fa = prox_hinge(1.0, wa, v).f
        fb = prox_hinge(1.0, wb, v).f
        return teacher_z0(1.0, m * (wa + wb) / (q0 + q1), s_pair) * fa * fb

    return 2.0 * alpha * expect_kinked_2d(pair, q0, q1, (1.0 - v, 1.0))


def kinked_gauss_grid(q0, knots):
    """Nodes x and weights w with sum(w * g(x)) = E[g(W)], W ~ N(0, q0), on the kinked-panel grid."""
    x, w = kink_grid_1d(np.sqrt(q0), knots)
    return x, w * np.exp(-(x**2) / (2.0 * q0)) / np.sqrt(2.0 * np.pi * q0)


def hinge_channel_oracle(params, rho, alpha, gamma):
    """The hinge conjugates from prox_hinge on the kinked-panel grid: v_hat,
    q0_hat and m_hat as twice their y = +1 term, q1_hat by the brute-force
    2D quadrature (hinge_q1_hat)."""
    params.validate(rho)
    m, q0, v = params.m, params.q0, params.v
    s0 = rho - m**2 / q0

    def moments(x):
        pr = prox_hinge(1.0, x, v)
        z0, dz0 = teacher_z0(1.0, m * x / q0, s0), teacher_dz0(1.0, m * x / q0, s0)
        return np.stack([-z0 * pr.df_domega, z0 * pr.f**2, dz0 * pr.f])

    x, w = kinked_gauss_grid(q0, (1.0 - v, 1.0))
    vh, q0h, mh = 2.0 * alpha * (moments(x) @ w)
    return ConjugateParams(m_hat=mh / np.sqrt(gamma), q0_hat=q0h, q1_hat=hinge_q1_hat(params, rho, alpha), v_hat=vh)


def hinge_training_loss_oracle(params, rho):
    """sum_y E[Z0(y, m W/q0, s0) max(0, 1 - y h_y(W))], one kinked grid per label."""
    params.validate(rho)
    m, q0, v = params.m, params.q0, params.v
    s0 = rho - m**2 / q0
    total = 0.0
    for y in (1.0, -1.0):
        x, w = kinked_gauss_grid(q0, ((1.0 - v) / y, 1.0 / y))
        total += float(w @ (teacher_z0(y, m * x / q0, s0) * np.maximum(0.0, 1.0 - y * prox_hinge(y, x, v).h)))
    return total


def _trunc_moments(mu, var, a, b):
    """Integrals of 1, u, u^2 against N(mu, var) over [a, b], on the package's erf as the channel's are."""
    sd = np.sqrt(var)
    za, zb = (a - mu) / sd, (b - mu) / sd
    cdf = lambda z: 0.5 * (1.0 + special.erf(z / np.sqrt(2.0)))
    pdf = lambda z: np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    m0 = cdf(zb) - cdf(za)
    i1 = pdf(za) - pdf(zb)
    i2 = m0 + za * pdf(za) - zb * pdf(zb)
    return m0, mu * m0 + sd * i1, mu**2 * m0 + 2.0 * mu * sd * i1 + var * i2


def hinge_pair_inner_loop(s, q0, q1, v):
    """E[f(W) f(s-W)] with W | W+W'=s ~ N(s/2, (q0-q1)/2), one s-node and
    one nonempty cell between the breakpoints {s-1, s-1+v, 1-v, 1} at a time."""
    var = 0.5 * (q0 - q1)
    out = np.zeros(len(s))
    for i, si in enumerate(s):
        if si >= 2.0:
            continue
        edges = np.unique(np.clip([si - 1.0, si - 1.0 + v, 1.0 - v, 1.0], si - 1.0, 1.0))
        for a, b in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a + b)
            # f(+1) at omega = mid and at omega' = s - mid, as (constant, slope)
            c_f = (1.0, 0.0) if mid < 1.0 - v else (1.0 / v, -1.0 / v)
            c_g = (1.0, 0.0) if mid > si - 1.0 + v else ((1.0 - si) / v, 1.0 / v)
            m0, m1, m2 = _trunc_moments(0.5 * si, var, a, b)
            out[i] += c_f[0] * c_g[0] * m0 + (c_f[0] * c_g[1] + c_f[1] * c_g[0]) * m1 + c_f[1] * c_g[1] * m2
    return out


# ---------------------------------------------------------------------------
# Damped solver loops on numpy arrays
# ---------------------------------------------------------------------------


def project_array_oracle(params, rho):
    """`solver._project` on numpy scalars."""
    m, q0, v = params.m, params.q0, params.v
    moved = False
    if not np.isfinite(q0) or q0 > solver.DIVERGENCE_Q0:
        return OrderParams(m=m, q0=q0, q1=q0, v=v), False
    if q0 <= 0:
        q0, moved = 1e-12, True
    if v <= 0:
        v, moved = 1e-12, True
    cap = np.sqrt(rho * q0)
    if abs(m) >= cap:
        m, moved = np.sign(m) * cap * (1 - 1e-12), True
    return OrderParams(m=m, q0=q0, q1=q0, v=v), moved


def _pinned(x):
    """OrderParams of the (m, q0, v) array x with q1 = q0."""
    return OrderParams(m=x[0], q0=x[1], q1=x[1], v=x[2])


def newton_point_array_oracle(step, x, fx, rho):
    """`solver._newton_point` on (m, q0, v) arrays."""
    h = solver.FD_STEP * np.maximum(np.abs(x), 1.0)
    if x[0] > 0:
        h[0] = -h[0]
    jac = np.empty((3, 3))
    for j in range(3):
        y = x.copy()
        y[j] += h[j]
        out, _ = step(_pinned(y))
        jac[:, j] = (np.array([out.m, out.q0, out.v], dtype=float) - fx) / h[j]
    jac -= np.eye(3)
    try:
        point = x - np.linalg.solve(jac, fx - x)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(point).all():
        return None
    params, moved = project_array_oracle(_pinned(point), rho)
    return None if moved else params


def iterate_array_oracle(step, init, rho, opts, newton=False):
    """Drop-in for `solver._iterate`: the same loop on (m, q0, v) arrays, q1 pinned to q0."""
    params, _ = project_array_oracle(init, rho)
    cur = np.array([params.m, params.q0, params.v], dtype=float)
    damping = opts.damping
    projections = 0
    residual = np.inf
    prev_sign = None
    osc_count = 0
    conj = ConjugateParams(0.0, 0.0, 0.0, 0.0)
    switch = solver.NEWTON_SWITCH if newton else 0.0
    best = None
    it = 0
    while it < opts.max_iters:
        it += 1
        update, conj = step(params)
        new = np.array([update.m, update.q0, update.v], dtype=float)
        if not np.isfinite(new).all() or update.q0 > solver.DIVERGENCE_Q0:
            return solver.FixedPoint(params, conj, it, residual, False, "interpolation_divergence", projections)
        residual = float(np.abs(new - cur).max())
        if residual < max(opts.tol, 4.0 * np.spacing(np.abs(new).max())):
            return solver.FixedPoint(_pinned(new), conj, it, residual, True, "converged", projections)
        if best is not None and residual >= best[2]:
            cur, new, residual = best
            best, switch = None, solver.NEWTON_RETRY * residual
        elif residual < switch and it + 4 <= opts.max_iters:
            best = (cur, new, residual)
            point = newton_point_array_oracle(step, cur, new, rho)
            it += 3
            if point is not None:
                params = point
                cur = np.array([params.m, params.q0, params.v])
                continue
            best, switch = None, solver.NEWTON_RETRY * residual
        sign = np.sign((new - cur)[1:])
        if prev_sign is not None:
            if (sign == -prev_sign).all() and sign.any():
                osc_count += 1
                if osc_count >= 3 and damping > 0.1:
                    damping = 0.1
            else:
                osc_count = 0
        prev_sign = sign
        params, moved = project_array_oracle(_pinned(damping * new + (1 - damping) * cur), rho)
        projections += int(moved)
        cur = np.array([params.m, params.q0, params.v])
    return solver.FixedPoint(params, conj, opts.max_iters, residual, False, "max_iters", projections)


def damped_full_map_oracle(step, init, rho, opts):
    """The damped loop on the full (m, q0, q1, v) map, q1 iterated with the
    rest and held in [-q0, q0]: how every loss was solved before the
    two-stage solve."""

    def project(params):
        pinned, moved = project_array_oracle(params, rho)
        q1 = np.sign(params.q1) * pinned.q0 if abs(params.q1) > pinned.q0 else params.q1
        return OrderParams(pinned.m, pinned.q0, q1, pinned.v), moved or q1 != params.q1

    params, _ = project(init)
    cur = params.as_array()
    damping = opts.damping
    projections = 0
    residual = np.inf
    prev_sign = None
    osc_count = 0
    conj = ConjugateParams(0.0, 0.0, 0.0, 0.0)
    for it in range(1, opts.max_iters + 1):
        update, conj = step(params)
        new = update.as_array()
        if not np.isfinite(new).all() or update.q0 > solver.DIVERGENCE_Q0:
            return solver.FixedPoint(params, conj, it, residual, False, "interpolation_divergence", projections)
        delta = new - cur
        residual = float(np.abs(delta).max())
        if residual < max(opts.tol, 4.0 * np.spacing(np.abs(new).max())):
            return solver.FixedPoint(update, conj, it, residual, True, "converged", projections)
        sign = np.sign(delta[1::2])
        if prev_sign is not None:
            if (sign == -prev_sign).all() and sign.any():
                osc_count += 1
                if osc_count >= 3 and damping > 0.1:
                    damping = 0.1
            else:
                osc_count = 0
        prev_sign = sign
        params, moved = project(OrderParams(*(damping * new + (1 - damping) * cur)))
        projections += int(moved)
        cur = params.as_array()
    return solver.FixedPoint(params, conj, opts.max_iters, residual, False, "max_iters", projections)


def damped_solve_oracle(config, opts):
    """`damped_full_map_oracle` on the finite-ratio map of `config`."""

    def step(params):
        conj = channel_update(params, config.rho, config.alpha, config.gamma, config.spec)
        return prior_update_spectral(conj, config.lam, config.spectrum), conj

    return damped_full_map_oracle(step, opts.init, config.rho, opts)


def damped_kernel_oracle(delta, rho, lam, spec, coeffs, opts):
    """`damped_full_map_oracle` on the kernel-limit map at delta = n/d."""

    def step(params):
        conj = kernel_channel_update(params, rho, delta, spec)
        return kernel_prior_update(conj, lam, delta, coeffs), conj

    return damped_full_map_oracle(step, opts.init, rho, opts)


# ---------------------------------------------------------------------------
# Monte Carlo over the limiting Gaussian, out-of-place
# ---------------------------------------------------------------------------


def _sum_left_to_right(cols):
    """Sum of the columns of a (samples, K) array, first column first."""
    total = cols[:, 0].copy()
    for k in range(1, cols.shape[1]):
        total = total + cols[:, k]
    return total


def _sign_pm1_oracle(x):
    return np.where(x >= 0, 1.0, -1.0)


# (f_hat on (samples, K) scores, default teacher) of each named estimator,
# written from the formulas: the mean of the scores, the sign of the summed
# scores and the sign of the summed signs, with 0 mapping to +1
ESTIMATOR_ORACLES = {
    "mean": (lambda mu: _sum_left_to_right(mu) / mu.shape[1], "linear"),
    "avg_sign": (lambda mu: _sign_pm1_oracle(_sum_left_to_right(mu)), "sign"),
    "majority": (lambda mu: _sign_pm1_oracle(_sum_left_to_right(_sign_pm1_oracle(mu))), "sign"),
}


def sample_block_oracle(cov, block, count, seed):
    """`observables._draw_samples` on the stream of block `block`, sample-major,
    with every intermediate a new array."""
    K = cov.K
    z = np.random.Generator(np.random.Philox(key=(seed, block))).standard_normal((count, K + 1))
    z0 = z[:, 0]
    xi = z[:, 1:]
    nu = math.sqrt(cov.rho) * z0
    q0t = cov.q0 - cov.m**2 / cov.rho
    q1t = cov.q1 - cov.m**2 / cov.rho
    diag = math.sqrt(max(cov.q0 - cov.q1, 0.0))
    row = max(q0t + (K - 1) * q1t, 0.0)
    coupling = (math.sqrt(row) - diag) / K
    shared = coupling * _sum_left_to_right(xi)
    mu = (cov.m / math.sqrt(cov.rho)) * z0[:, None] + diag * xi + shared[:, None]
    return nu, mu


def gen_error_oracle(cov, estimator, metric, samples, seed):
    """`observables.generic_gen_error` of a named estimator on the oracle sampler, squaring every loss."""
    f_hat, teacher = ESTIMATOR_ORACLES[estimator]
    total = total_sq = 0.0
    done = block = 0
    while done < samples:
        count = min(MC_BLOCK, samples - done)
        nu, mu = sample_block_oracle(cov, block, count, seed)
        block += 1
        y = nu if teacher == "linear" else _sign_pm1_oracle(nu)
        y_hat = f_hat(mu)
        delta = (y - y_hat) ** 2 if metric == "mse" else (y != y_hat).astype(float)
        total += float(delta.sum())
        total_sq += float((delta**2).sum())
        done += count
    mean = total / samples
    return mean, math.sqrt(max(total_sq / samples - mean**2, 0.0) / samples)


# ---------------------------------------------------------------------------
# ERM lab: dense Newton and whole-array test scoring
# ---------------------------------------------------------------------------


def train_logistic_lu_oracle(features, y, lam):
    """`erm_lab.train_logistic` as a dense p x p Newton: the Hessian from a general
    matrix product, solved by LU, and the objective recomputed from w at every
    line-search trial. Same stopping rule, backtracking constants and return."""
    ws, gns, its = [], [], []
    for U in features:
        n, p = U.shape
        sqrt_p = math.sqrt(p)
        tol = erm_lab._NEWTON_GRAD_TOL * sqrt_p
        w = np.zeros(p)

        def objective(wv):
            return float(np.sum(np.logaddexp(0.0, -y * erm_lab.preactivation(U, wv))) + 0.5 * lam * wv @ wv)

        for it in range(erm_lab._NEWTON_MAX_ITER):
            s = expit(-y * erm_lab.preactivation(U, w))
            g = -U.T @ (y * s) / sqrt_p + lam * w
            gn = float(np.linalg.norm(g))
            if gn <= tol:
                break
            H = (U.T * (s * (1.0 - s))) @ U / p
            H[np.diag_indices(p)] += lam
            step = np.linalg.solve(H, g)
            obj = objective(w)
            slope = float(g @ step)
            t = 1.0
            while t > 1e-10:
                if objective(w - t * step) <= obj - 1e-4 * t * slope:
                    break
                t *= 0.5
            w = w - t * step
        else:
            raise AssertionError(f"oracle Newton stalled at gradient norm {gn:.3e}")
        ws.append(w)
        gns.append(gn)
        its.append(it)
    return np.column_stack(ws), np.array(gns), np.array(its)


def whole_ensemble_trial_oracle(
    trial, seed, spec, coeffs, n, p, d, K, rho, lam, estimator, activation, test_samples, chunk=None
):
    """`erm_lab.run_trial` from the package's public pieces, every step on all K learners at once.

    The training inputs are featurized in one call over the whole ensemble and
    trained in one trainer call. The square-loss `mean` trial with a linear
    teacher and erf features takes the exact test error; any other trial draws
    its test points at once (`chunk` None) or `chunk` rows at a time, the last
    chunk taking the remainder, and featurizes each draw for every learner in
    one call.
    """
    ds = erm_lab.generate_dataset(n, d, rho, spec.teacher, seed)
    ens = erm_lab.sample_feature_ensemble(
        K, p, d, coeffs, ds.theta, seed=erm_lab.derive_seed(seed, "features"), activation=activation
    )
    feats = erm_lab.featurize(ds.X, ens)
    if spec.loss == "square":
        W, gns = erm_lab.train_ridge(feats, ds.y, lam)
    else:
        W, gns, _ = erm_lab.train_logistic(feats, ds.y, lam)
    ov = erm_lab.empirical_overlaps(ens, W)
    z_train = np.column_stack([erm_lab.preactivation(U, W[:, k]) for k, U in enumerate(feats)])
    if spec.loss == "square":
        train_loss = float(np.mean(0.5 * (ds.y[:, None] - z_train) ** 2))
    else:
        train_loss = float(np.mean(np.logaddexp(0.0, -ds.y[:, None] * z_train)))
    disagreement = math.nan
    if spec.loss == "square" and estimator == "mean" and activation is erf:
        test_error = erm_lab.square_test_error_erf(ds.theta, ens, W)
    else:
        rng = np.random.default_rng(erm_lab.derive_seed(seed, "test"))
        if chunk is None:
            sizes = [test_samples]
        else:
            sizes = [chunk] * max(0, test_samples // chunk - 1)
            sizes.append(test_samples - sum(sizes))
        y, scores = [], []
        for rows in sizes:
            X = rng.standard_normal((rows, d))
            y.append(erm_lab.apply_teacher(erm_lab.teacher_field(X, ds.theta), spec.teacher))
            scores.append(
                np.column_stack([erm_lab.preactivation(U, W[:, k]) for k, U in enumerate(erm_lab.featurize(X, ens))])
            )
        y, scores = np.concatenate(y), np.concatenate(scores)
        y_hat = resolve_estimator(estimator).f_hat(scores)
        test_error = float(np.mean((y - y_hat) ** 2 if spec.loss == "square" else y != y_hat))
        if K >= 2 and spec.teacher == "sign":
            signs = _sign_pm1_oracle(scores)
            disagreement = float(
                np.mean([np.mean(signs[:, a] != signs[:, b]) for a in range(K) for b in range(a + 1, K)])
            )
    return erm_lab.TrialRecord(
        trial=trial, seed=seed, ok=True, m=ov.m, q0=ov.q0, q1=ov.q1, train_loss=train_loss,
        test_error=test_error, disagreement=disagreement, grad_norm_max=float(np.max(gns)),
    )
