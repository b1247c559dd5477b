"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports rfensemble. Each function restates a formula from the
theory (or a standard closed form) and evaluates it by a different numerical
route than the package: adaptive `scipy.integrate.quad` in place of fixed
Gauss-Hermite / midpoint grids, bracketed scalar root finding in place of the
vectorised safeguarded Newton proximal, and closed forms in place of
fixed-point iteration.
"""

from __future__ import annotations

import math

from scipy import integrate, optimize, special

# Gaussian-equivalent coefficients of erf, in closed form:
#   kappa1 = E[Z erf(Z)] = E[erf'(Z)] = 2 / sqrt(3 pi)
#   E[erf(Z)^2] = (2/pi) arcsin(2/3), kappa0 = 0 by symmetry.
ERF_KAPPA1 = 2.0 / math.sqrt(3.0 * math.pi)
ERF_KAPPA_STAR_SQ = (2.0 / math.pi) * math.asin(2.0 / 3.0) - ERF_KAPPA1**2


def _quad(f, a, b, **kw):
    value, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=400, **kw)
    return value


# ---------------------------------------------------------------------------
# Marchenko-Pastur prior (finite-ratio ridge)
# ---------------------------------------------------------------------------


def mp_integral(g, gamma: float, kappa1: float = ERF_KAPPA1, kstar2: float = ERF_KAPPA_STAR_SQ) -> float:
    """Integral of g(s) against the spectrum of (kappa1^2/d) F F^T + kappa*^2 I_p.

    The bulk of (1/d) F F^T with p/d = c is the Marchenko-Pastur law
    sqrt((b - x)(x - a)) / (2 pi c x) on [a, b] = [(1 - sqrt c)^2, (1 + sqrt c)^2]
    (scaled by kappa1^2 here); for c > 1 an atom of mass 1 - 1/c sits at 0,
    i.e. at kappa*^2 after the shift. The square-root edges are handled
    exactly by quad's algebraic weight (QUADPACK QAWS).
    """
    c = 1.0 / gamma
    b2 = kappa1**2
    lo = b2 * (1.0 - math.sqrt(c)) ** 2
    hi = b2 * (1.0 + math.sqrt(c)) ** 2
    norm = 2.0 * math.pi * c * b2
    if lo > 0.0:
        bulk = _quad(lambda x: g(x + kstar2) / (norm * x), lo, hi, weight="alg", wvar=(0.5, 0.5))
    else:  # c = 1: the lower edge touches 0 and sqrt(x - lo)/x = x^(-1/2)
        bulk = _quad(lambda x: g(x + kstar2) / norm, lo, hi, weight="alg", wvar=(-0.5, 0.5))
    return bulk + max(0.0, 1.0 - gamma) * g(kstar2)


def ridge_prior(m_hat, q0_hat, q1_hat, v_hat, lam, gamma, kstar2=ERF_KAPPA_STAR_SQ):
    """Order parameters (m, q0, q1, v) from conjugates through the spectral prior."""
    den = lambda s: lam + v_hat * s
    v = mp_integral(lambda s: s / den(s), gamma)
    i_theta = mp_integral(lambda s: (s - kstar2) / den(s), gamma)
    q0 = mp_integral(lambda s: ((q0_hat + m_hat**2) * s * s - m_hat**2 * kstar2 * s) / den(s) ** 2, gamma)
    m = m_hat / math.sqrt(gamma) * i_theta
    q1 = (m_hat**2 + q1_hat) * i_theta**2 / gamma
    return m, q0, q1, v


def square_channel(m, q0, q1, v, alpha, gamma, rho):
    """Square-loss conjugates (m_hat, q0_hat, q1_hat, v_hat) and their
    first-order sensitivities to a perturbation of each of (m, q0, q1, v).

    Returns (values, bounds) where bounds[i] = sum_j |d value_i / d x_j|.
    """
    a = 1.0 + v
    r0 = rho - 2.0 * m + q0
    r1 = rho - 2.0 * m + q1
    values = (alpha / math.sqrt(gamma) / a, alpha * r0 / a**2, alpha * r1 / a**2, alpha / a)
    bounds = (
        alpha / math.sqrt(gamma) / a**2,
        alpha * (3.0 / a**2 + 2.0 * abs(r0) / a**3),
        alpha * (3.0 / a**2 + 2.0 * abs(r1) / a**3),
        alpha / a**2,
    )
    return values, bounds


# ---------------------------------------------------------------------------
# Kernel-limit ridge closed form
# ---------------------------------------------------------------------------


def kernel_ridge(lam, delta, rho, kappa1=ERF_KAPPA1, kstar2=ERF_KAPPA_STAR_SQ):
    """(v, m, q) of the kernel-limit ridge fixed point, q = q0 = q1.

    With v_hat = 1/(1+v) the prior v = kstar2/lam + k/(lam + delta k v_hat),
    k = kappa1^2, becomes lam v^2 - B v - C = 0 with
    B = (1 - delta) k + kstar2 - lam and C = kstar2 + k + kstar2 delta k / lam;
    the positive root is taken in the cancellation-free form. Then
    m = 1 / (1 + x), x = lam (1 + v) / (delta k), and
    q = (rho + delta - 2 m) / (delta (1 + x)^2 - 1).
    """
    k = kappa1**2
    b = (1.0 - delta) * k + kstar2 - lam
    c = kstar2 + k + kstar2 * delta * k / lam
    root = math.sqrt(b * b + 4.0 * lam * c)
    v = (b + root) / (2.0 * lam) if b >= 0 else 2.0 * c / (root - b)
    x = lam * (1.0 + v) / (delta * k)
    m = 1.0 / (1.0 + x)
    q = (rho + delta - 2.0 * m) / (delta * (1.0 + x) ** 2 - 1.0)
    return v, m, q


# ---------------------------------------------------------------------------
# Margin-loss channels (sign teacher)
# ---------------------------------------------------------------------------


def prox_logistic(y: float, w: float, v: float):
    """(f, df/dw) for the logistic proximal: h = w + y v sigmoid(-y h), f = (h - w)/v.

    The residual h - w - y v sigmoid(-y h) is increasing in h and changes
    sign on [w, w + y v], so Brent's method on that bracket finds the root.
    """
    lo, hi = sorted((w, w + y * v))
    if lo == hi:
        h = w
    else:
        g = lambda h: h - w - y * v * special.expit(-y * h)
        h = optimize.brentq(g, lo, hi, xtol=1e-15 * max(1.0, abs(lo), abs(hi)), rtol=1e-15, maxiter=500)
    s = special.expit(-y * h)
    curv = s * (1.0 - s)
    return (h - w) / v, -curv / (1.0 + v * curv)


def prox_hinge(y: float, w: float, v: float):
    """(f, df/dw) for the hinge loss max(0, 1 - y h)."""
    margin = y * w
    if margin < 1.0 - v:
        return y, 0.0
    if margin <= 1.0:
        return (y - w) / v, -1.0 / v
    return 0.0, 0.0


def margin_conjugates(loss, m, q0, v, rho, alpha, gamma):
    """(v_hat, q0_hat, m_hat) of one learner, summed over both labels.

        v_hat  = -alpha sum_y E_w[Z0(y, w) df(y, w)/dw]
        q0_hat =  alpha sum_y E_w[Z0(y, w) f(y, w)^2]
        m_hat  =  alpha/sqrt(gamma) sum_y E_w[dZ0(y, w) f(y, w)]

    with w ~ N(0, q0), teacher mean m w / q0 and variance s0 = rho - m^2/q0,
    Z0 = (1 + erf(y mean / sqrt(2 s0)))/2 and dZ0 its derivative in the mean.
    Each expectation is an adaptive quad over [-12 sd, 12 sd], split at the
    hinge branch points where the integrand has kinks.
    """
    prox = {"logistic": prox_logistic, "hinge": prox_hinge}[loss]
    s0 = rho - m * m / q0
    sd = math.sqrt(q0)
    span = 12.0 * sd

    def density(w):
        return math.exp(-w * w / (2.0 * q0)) / math.sqrt(2.0 * math.pi * q0)

    totals = [0.0, 0.0, 0.0]
    for y in (1.0, -1.0):
        cuts = [-span, span]
        if loss == "hinge":
            cuts += [k for k in (y * (1.0 - v), y) if -span < k < span]
        else:
            cuts.append(0.0)
        cuts = sorted(set(cuts))

        memo = {}

        def parts(w, y=y, memo=memo):
            if w in memo:
                return memo[w]
            mean = m * w / q0
            z0 = 0.5 * (1.0 + math.erf(y * mean / math.sqrt(2.0 * s0)))
            dz0 = y * math.exp(-mean * mean / (2.0 * s0)) / math.sqrt(2.0 * math.pi * s0)
            f, df = prox(y, w, v)
            memo[w] = out = (density(w), z0, dz0, f, df)
            return out

        def term(w, i, parts=parts):
            d, z0, dz0, f, df = parts(w)
            return (-d * z0 * df, d * z0 * f * f, d * dz0 * f)[i]

        for i in range(3):
            totals[i] += sum(_quad(term, a, b, args=(i,)) for a, b in zip(cuts[:-1], cuts[1:]))
    v_hat, q0_hat, m_hat = totals
    return alpha * v_hat, alpha * q0_hat, alpha / math.sqrt(gamma) * m_hat


def score_average_error(m, q0, q1, rho, K):
    """Zero-one error of sign(sum_k mu_k) against sign(nu): the angle between
    nu and the summed field, arccos(K m / sqrt(rho K (q0 + (K-1) q1))) / pi."""
    return math.acos(K * m / math.sqrt(rho * K * (q0 + (K - 1) * q1))) / math.pi


def mse_error(m, q0, q1, rho, K):
    """Squared error of the mean of K learner fields against the teacher field."""
    return rho + q1 - 2.0 * m + (q0 - q1) / K
