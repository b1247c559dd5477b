"""Teacher measure, loss proximals and the channel (hat-parameter) updates.

The channel step maps the order parameters (m, q0, q1, v) to their conjugates
(m_hat, q0_hat, q1_hat, v_hat). For the square loss with a linear teacher the
update is closed form; for logistic and hinge losses with a sign teacher it
is a Gaussian expectation of proximal quantities weighted by the teacher
measure

    Z0(y, w0, s0) = (1 + erf(y w0 / sqrt(2 s0))) / 2,

evaluated at w0 = m*omega/q0, s0 = rho - m^2/q0 for the single-learner
moments and at the pair-conditioned arguments m(omega+omega')/(q0+q1),
rho - 2 m^2/(q0+q1) for the cross moment.

Both labels contribute equally to every margin-loss integral, so each is
twice its y = +1 term.

Logistic integrands are smooth and use Gauss-Hermite rules of the fixed
orders ORDER_1D (single-learner moments and the training loss) and ORDER_2D
(per axis of the pair grid); this module is the only one that knows them.
The hinge proximal is piecewise linear, so each hinge integral reduces to
an integral of a polynomial against N(x; 0, var) (1 + erf(c x)) between
branch boundaries, or, for m_hat, to truncated Gaussian moments
(channel_update_hinge_closed_form). Every such integral runs on one rule,
_erf_panels: composite Gauss-Legendre panels on the interval clipped to
12 sd and split exactly at the kinks (Gauss-Hermite stalls near 1e-4 on
kinked integrands regardless of order). The hinge pair expectation is that
rule over s = omega + omega' of an inner integral given s that is
analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError
from .quadrature import expect_2d_correlated, gauss_hermite_rule
from .special import erf, expit

LOSSES = ("square", "logistic", "hinge")
TEACHERS = ("linear", "sign")

_COSH_CLIP = 350.0
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# h' nodes of the logistic proximal's starting table; sigmoid(40) is 1 to float64
_START_GRID = np.linspace(-40.0, 40.0, 129)
_PROX_TOL = 1e-12  # relative to the bracket magnitude
_PROX_MAX_ITER = 300
# Gauss-Hermite orders of the logistic integrals; the rules are looked up
# (cached) when a logistic branch runs, so importing the module builds none
ORDER_1D = 101
ORDER_2D = 61


@dataclass(frozen=True)
class ChannelSpec:
    """Loss/teacher pairing. Square pairs with the linear teacher, margin
    losses with the sign teacher; other pairings are rejected."""

    loss: str
    teacher: str

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {LOSSES}")
        if self.teacher not in TEACHERS:
            raise ConfigError(f"unknown teacher {self.teacher!r}; expected one of {TEACHERS}")
        if self.loss == "square" and self.teacher != "linear":
            raise ConfigError("square loss pairs with the linear teacher")
        if self.loss in ("logistic", "hinge") and self.teacher != "sign":
            raise ConfigError(f"{self.loss} loss pairs with the sign teacher")


class OrderParams(NamedTuple):
    m: float
    q0: float
    q1: float
    v: float

    def validate(self, rho: float) -> None:
        if not self.q0 > 0:
            raise DomainError(f"q0 must be positive, got {self.q0}")
        if abs(self.q1) > self.q0 * (1 + 1e-9):
            raise DomainError(f"|q1| = {abs(self.q1)} exceeds q0 = {self.q0}")
        if not self.v > 0:
            raise DomainError(f"v must be positive, got {self.v}")
        if self.m**2 > rho * self.q0 * (1 + 1e-9):
            raise DomainError(f"m^2 = {self.m**2} exceeds rho*q0 = {rho * self.q0}")


class ConjugateParams(NamedTuple):
    m_hat: float
    q0_hat: float
    q1_hat: float
    v_hat: float


class ProxResult(NamedTuple):
    h: np.ndarray
    f: np.ndarray
    df_domega: np.ndarray


def teacher_z0(y: float, omega0, sigma0: float):
    """Gaussian-smoothed label likelihood for the sign teacher.

    The linear teacher never goes through this function: continuous labels
    are integrated out analytically inside the ridge channel.
    """
    if not sigma0 > 0:
        raise DomainError(f"sigma0 must be positive, got {sigma0}")
    if y not in (-1, 1):
        raise DomainError(f"sign-teacher labels are +/-1, got {y}")
    return 0.5 * (1.0 + erf(y * np.asarray(omega0) / np.sqrt(2.0 * sigma0)))


def teacher_dz0(y: float, omega0, sigma0: float):
    """Derivative of the sign-teacher measure in its mean argument."""
    if not sigma0 > 0:
        raise DomainError(f"sigma0 must be positive, got {sigma0}")
    if y not in (-1, 1):
        raise DomainError(f"sign-teacher labels are +/-1, got {y}")
    w = np.asarray(omega0)
    return y * np.exp(-(w**2) / (2.0 * sigma0)) / np.sqrt(2.0 * np.pi * sigma0)


def prox_logistic(y: float, omega, v: float) -> ProxResult:
    """Proximal of the logistic loss at label y.

    Solves h = omega + y v / (1 + exp(y h)) by Newton safeguarded with
    bisection on the bracket [omega, omega + y v]; the residual is monotone
    increasing in h so the bracket always contains the unique root. The
    tolerance is scaled by the bracket magnitude, the best float64 can do
    when v or omega are large (small-ridge fixed points reach v ~ 1e3).

    The iteration starts from the inverse of the monotone map
    a(h') = h' - v sigmoid(-h') (h' = y h, a = y omega), tabulated on
    _START_GRID and inverted by linear interpolation, then clipped into the
    bracket. Beyond the table the map is linear to float64 accuracy, and
    the clip lands on that line: np.interp holds the end value, so the start
    becomes h' = a + v on the left and h' = a on the right. At v ~ 500
    four Newton/bisection passes then suffice.

    Each element is frozen, after one last Newton step, as soon as its own
    residual meets the tolerance; only the elements still above it take
    further steps.
    """
    if not v > 0:
        raise DomainError(f"v must be positive, got {v}")
    omega = np.asarray(omega, dtype=float)
    w = omega.reshape(-1)
    lo = np.minimum(w, w + y * v)
    hi = np.maximum(w, w + y * v)
    tol_eff = _PROX_TOL * max(1.0, float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
    a_grid = _START_GRID - v * expit(-_START_GRID)
    h_out = np.clip(y * np.interp(y * w, a_grid, _START_GRID), lo, hi)
    # the active set: flat indices still iterating, with their own copies of
    # the state so each pass touches only those elements
    idx = np.arange(w.size)
    h, dx_old = h_out, hi - lo
    converged = False
    for _ in range(_PROX_MAX_ITER):
        s = expit(-y * h)
        g = h - w - y * v * s
        done = np.abs(g) < tol_eff
        if done.any():
            # a Newton step from within the tolerance lands at float64
            # resolution, so frozen elements carry no tolerance-sized error
            # into the channel sums (the small-ridge solver amplifies it)
            h_out[idx[done]] = h[done] - g[done] / (1.0 + v * s[done] * (1.0 - s[done]))
            keep = ~done
            idx, h, w, g, s, lo, hi, dx_old = (a[keep] for a in (idx, h, w, g, s, lo, hi, dx_old))
        if idx.size == 0:
            converged = True
            break
        lo = np.where(g < 0, h, lo)
        hi = np.where(g < 0, hi, h)
        gp = 1.0 + v * s * (1.0 - s)
        h_newton = h - g / gp
        # bisect whenever Newton would leave the bracket or beat less than a
        # halving (large v makes g nearly flat away from the origin, where
        # raw Newton ping-pongs between the bracket edges)
        slow = np.abs(2.0 * g) > np.abs(dx_old * gp)
        bisect = slow | (h_newton <= lo) | (h_newton >= hi)
        dx_old = np.where(bisect, 0.5 * (hi - lo), np.abs(g / gp))
        h = np.where(bisect, 0.5 * (lo + hi), h_newton)
    if not converged:
        raise ConvergenceError(f"logistic proximal did not reach {_PROX_TOL} in {_PROX_MAX_ITER} iterations")
    h = h_out.reshape(omega.shape)
    f = (h - omega) / v
    df = -1.0 / (v + 4.0 * np.cosh(np.clip(y * h / 2.0, -_COSH_CLIP, _COSH_CLIP)) ** 2)
    return ProxResult(h=h, f=f, df_domega=df)


def prox_hinge(y: float, omega, v: float) -> ProxResult:
    """Proximal of the hinge loss at label y; ties on the branch boundaries
    are assigned to the middle branch so the map is deterministic."""
    if not v > 0:
        raise DomainError(f"v must be positive, got {v}")
    omega = np.asarray(omega, dtype=float)
    margin = omega * y
    middle = (margin >= 1.0 - v) & (margin <= 1.0)
    below = margin < 1.0 - v
    f = np.where(below, y, np.where(middle, (y - omega) / v, 0.0))
    df = np.where(middle, -1.0 / v, 0.0)
    h = omega + v * f
    return ProxResult(h=h, f=f, df_domega=df)


def _erf_panels(lo: float, hi: float, var: float, c: float, kinks: Iterable[float] = ()):
    """Nodes x and weights w with sum(w * g(x)) = int_lo^hi N(x; 0, var) (1 + erf(c x)) g(x) dx.

    Composite 24-point Gauss-Legendre on [lo, hi] clipped to [-12 sd, 12 sd]
    (the Gaussian past 12 sd is below 1e-31 of its peak), split at the kinks
    that fall inside and with panels at most sd/2 wide. An empty interval
    gives no nodes.
    """
    sd = np.sqrt(var)
    lo, hi = max(lo, -12.0 * sd), min(hi, 12.0 * sd)
    if not lo < hi:
        return np.empty(0), np.empty(0)
    cuts = [lo, *sorted(k for k in kinks if lo < k < hi), hi]
    starts = [np.linspace(a, b, max(1, int(np.ceil((b - a) / (0.5 * sd)))), endpoint=False) for a, b in zip(cuts, cuts[1:])]
    edges = np.append(np.concatenate(starts), hi)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    w = (half[:, None] * _GL_WEIGHTS).ravel()
    return x, w * np.exp(-(x**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var) * (1.0 + erf(c * x))


def _teacher_variances(params: OrderParams, rho: float) -> tuple[float, float]:
    if not params.q0 + params.q1 > 0:
        raise DomainError(
            f"q0 + q1 = {params.q0 + params.q1} must be positive: the pair teacher variance divides by it"
        )
    s0 = rho - params.m**2 / params.q0
    s_pair = rho - 2.0 * params.m**2 / (params.q0 + params.q1)
    if s0 <= 0 or s_pair <= 0:
        raise DomainError(
            f"teacher conditional variance nonpositive (s0={s0}, s_pair={s_pair}); m too large for (rho, q0, q1)"
        )
    return s0, s_pair


def channel_update(
    params: OrderParams,
    rho: float,
    alpha: float,
    gamma: float,
    spec: ChannelSpec,
) -> ConjugateParams:
    """One channel step: order parameters to conjugate parameters."""
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if not gamma > 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    if spec.loss == "square":
        # globally well-defined closed form: degenerate q0 = 0 inputs allowed
        return _channel_square(params, rho, alpha, gamma)
    if alpha == 0.0:
        return ConjugateParams(0.0, 0.0, 0.0, 0.0)
    if spec.loss == "hinge":
        conj = channel_update_hinge_closed_form(params, rho, alpha)
        return ConjugateParams(conj.m_hat / math.sqrt(gamma), conj.q0_hat, conj.q1_hat, conj.v_hat)
    params.validate(rho)
    m, q0, q1, v = params.m, params.q0, params.q1, params.v
    s0, s_pair = _teacher_variances(params, rho)

    # Both labels contribute equally: the logistic loss obeys
    # f(-1, w) = -f(+1, -w), the Gauss-Hermite nodes are symmetric about 0,
    # and the sign teacher flips with its mean argument, so the y-sum is
    # twice the y=+1 term node for node.
    rule = gauss_hermite_rule(ORDER_1D)
    w = np.sqrt(q0) * rule.nodes
    wt = rule.weights
    pr = prox_logistic(1.0, w, v)
    z0 = teacher_z0(1.0, m * w / q0, s0)
    dz0 = teacher_dz0(1.0, m * w / q0, s0)
    vh = -2.0 * alpha * float(wt @ (z0 * pr.df_domega))
    q0h = 2.0 * alpha * float(wt @ (z0 * pr.f**2))
    mh = 2.0 * (alpha / np.sqrt(gamma)) * float(wt @ (dz0 * pr.f))

    if q1 >= q0 * (1 - 1e-12):
        # perfectly correlated pair (solver stage 1 and stage 2's first q1
        # evaluation): q0_hat's integrand on its nodes, so q1_hat == q0_hat to
        # the bit and, in the kernel limit, that first evaluation is the root
        q1h = 2.0 * alpha * float(wt @ (teacher_z0(1.0, m * (w + w) / (q0 + q1), s_pair) * pr.f**2))
    else:

        def pair_integrand(wa, wb):
            # wa is the (n, 1) column of row nodes, so f(W) is solved once
            # per row; wb is the full (n, n) grid. One proximal call takes
            # both, which saves a second pass loop.
            f = prox_logistic(1.0, np.concatenate([wa.ravel(), wb.ravel()]), v).f
            fa, fb = f[: wa.size].reshape(wa.shape), f[wa.size :].reshape(wb.shape)
            return teacher_z0(1.0, m * (wa + wb) / (q0 + q1), s_pair) * fa * fb

        q1h = 2.0 * alpha * expect_2d_correlated(pair_integrand, q0, q1, gauss_hermite_rule(ORDER_2D))
    return ConjugateParams(m_hat=mh, q0_hat=q0h, q1_hat=q1h, v_hat=vh)


def _channel_square(params: OrderParams, rho: float, alpha: float, gamma: float) -> ConjugateParams:
    m, q0, q1, v = params.m, params.q0, params.q1, params.v
    one_plus_v = 1.0 + v
    return ConjugateParams(
        alpha / math.sqrt(gamma) / one_plus_v,
        alpha * (rho - 2.0 * m + q0) / one_plus_v**2,
        alpha * (rho - 2.0 * m + q1) / one_plus_v**2,
        alpha / one_plus_v,
    )


# ---------------------------------------------------------------------------
# Hinge closed form
# ---------------------------------------------------------------------------


def _trunc_moments(mu: float, var: float, a: np.ndarray, b: np.ndarray):
    """(M0, M1, M2): integrals of 1, u, u^2 against N(mu, var) over [a, b]."""
    sd = np.sqrt(var)
    za, zb = (a - mu) / sd, (b - mu) / sd
    cdf = lambda z: 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
    pdf = lambda z: np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi)
    m0 = cdf(zb) - cdf(za)
    i1 = pdf(za) - pdf(zb)
    i2 = m0 + za * pdf(za) - zb * pdf(zb)
    m1 = mu * m0 + sd * i1
    m2 = mu**2 * m0 + 2.0 * mu * sd * i1 + var * i2
    return m0, m1, m2


def _hinge_pair_inner(s: np.ndarray, q0: float, q1: float, v: float) -> np.ndarray:
    """E[f(W) f(s-W)] with W | W+W'=s ~ N(s/2, (q0-q1)/2), y=+1 branches.

    The product of the two piecewise-linear factors is quadratic between the
    breakpoints {s-1, s-1+v, 1-v, 1}, so each cell reduces to truncated
    Gaussian moments. Outside [s-1, 1] one factor vanishes; the clipped and
    sorted breakpoints split that interval into three cells per s-node (some
    of zero width, which contribute nothing).
    """
    s = np.asarray(s, dtype=float)
    var = 0.5 * (q0 - q1)
    if var < 1e-14 * q0:
        half = 0.5 * s
        fa = prox_hinge(1.0, half, v).f
        return fa * fa
    lo_all = s - 1.0
    cuts = np.stack([lo_all, lo_all + v, np.full_like(s, 1.0 - v), np.ones_like(s)], axis=-1)
    edges = np.sort(np.clip(cuts, lo_all[..., None], 1.0), axis=-1)
    a, b = edges[..., :-1], edges[..., 1:]
    mid = 0.5 * (a + b)
    # factor f(+1) at omega=mid: 1 below the middle branch, (1-omega)/v on it
    f_low = mid < 1.0 - v
    f0 = np.where(f_low, 1.0, 1.0 / v)
    f1 = np.where(f_low, 0.0, -1.0 / v)
    # factor f(+1) at omega' = s - omega: 1 below, (1 - s + omega)/v on it
    g_low = mid > (lo_all + v)[..., None]
    g0 = np.where(g_low, 1.0, ((1.0 - s) / v)[..., None])
    g1 = np.where(g_low, 0.0, 1.0 / v)
    m0, m1, m2 = _trunc_moments((0.5 * s)[..., None], var, a, b)
    cells = f0 * g0 * m0 + (f0 * g1 + f1 * g0) * m1 + f1 * g1 * m2
    return np.where(s < 2.0, cells.sum(axis=-1), 0.0)


def _hinge_pair_expectation(m: float, q0: float, q1: float, v: float, s_pair: float) -> float:
    """E[Z0(+1, m s/(q0+q1), s_pair) f(W) f(W')], the y=+1 part of q1_hat.

    Outer integral over s = W + W' up to 2, where the inner integral
    vanishes, on panels split at its kinks; the inner integral given s is
    analytic (_hinge_pair_inner).
    """
    c = m / ((q0 + q1) * np.sqrt(2.0 * s_pair))
    s, w = _erf_panels(-np.inf, 2.0, 2.0 * (q0 + q1), c, (2.0 - 2.0 * v, 2.0 - v))
    return 0.5 * float(w @ _hinge_pair_inner(s, q0, q1, v))


def channel_update_hinge_closed_form(params: OrderParams, rho: float, alpha: float) -> ConjugateParams:
    """Hinge channel via erf/Gaussian reductions and 1D quadrature only, m_hat at gamma = 1.

    Both labels contribute equally by the omega -> -omega symmetry, so every
    expression below is twice the y=+1 term. On the middle branch
    1 - v <= omega <= 1 the proximal has f = (1 - omega)/v and df = -1/v,
    below it f = 1 and df = 0, above it f = 0.
    """
    params.validate(rho)
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0.0:
        return ConjugateParams(0.0, 0.0, 0.0, 0.0)
    m, q0, q1, v = params.m, params.q0, params.q1, params.v
    s0, s_pair = _teacher_variances(params, rho)
    c = m / (q0 * np.sqrt(2.0 * s0))
    _, w_below = _erf_panels(-np.inf, 1.0 - v, q0, c)
    x, w_middle = _erf_panels(1.0 - v, 1.0, q0, c)
    v_hat = (alpha / v) * float(np.sum(w_middle))
    q0_hat = alpha * (float(np.sum(w_below)) + float(w_middle @ ((1.0 - x) / v) ** 2))

    # m_hat: the teacher-density weight folds into a single Gaussian of
    # variance q0*s0/rho, leaving elementary truncated moments.
    tau2 = q0 * s0 / rho
    tau = np.sqrt(tau2)
    below = 0.5 * (1.0 + erf((1.0 - v) / (tau * np.sqrt(2.0))))
    m0, m1, _ = _trunc_moments(0.0, tau2, np.array(1.0 - v), np.array(1.0))
    m_hat = (2.0 * alpha) * (below + (m0 - m1) / v) / np.sqrt(2.0 * np.pi * rho)

    q1_hat = 2.0 * alpha * _hinge_pair_expectation(m, q0, q1, v, s_pair)
    return ConjugateParams(m_hat=m_hat, q0_hat=q0_hat, q1_hat=q1_hat, v_hat=v_hat)


def training_loss(params: OrderParams, rho: float, spec: ChannelSpec) -> float:
    """Asymptotic per-sample training loss of a single learner at a fixed point.

    Both labels contribute equally, as in channel_update, so each margin
    loss is twice its y=+1 term: for the hinge, whose loss 1 - v - omega is
    nonzero only below the middle branch, the erf-weighted integral over
    omega < 1 - v.
    """
    m, q0, v = params.m, params.q0, params.v
    if spec.loss == "square":
        return (rho - 2.0 * m + q0) / (2.0 * (1.0 + v) ** 2)
    params.validate(rho)
    s0, _ = _teacher_variances(params, rho)
    if spec.loss == "hinge":
        x, w = _erf_panels(-np.inf, 1.0 - v, q0, m / (q0 * np.sqrt(2.0 * s0)))
        return float(w @ (1.0 - v - x))
    rule = gauss_hermite_rule(ORDER_1D)
    w = np.sqrt(q0) * rule.nodes
    h = prox_logistic(1.0, w, v).h
    return 2.0 * float(rule.weights @ (teacher_z0(1.0, m * w / q0, s0) * np.logaddexp(0.0, -h)))
