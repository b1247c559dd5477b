"""Fixed point of the channel and prior updates, solved in two stages.

The channel's m_hat, q0_hat, v_hat do not read q1 and the prior's m, q0, v
do not read q1_hat, so (m, q0, v) is the single-learner problem, for every
loss and in the kernel limit alike. Stage 1 iterates it with q1 pinned to
q0, where the channel takes its exact 1-D branch instead of the pair
integral: a damped loop for the square loss, and for the margin losses a
loose damped start finished by Newton steps on a finite-difference
Jacobian, which costs only 3 extra map calls on a 3-vector (Kelley 2003,
Solving Nonlinear Equations with Newton's Method, SIAM). Stage 2 solves
one scalar equation for the cross overlap q1 at those fixed (m, q0, v). In
the kernel limit q1 = q0 is the root, and the first evaluation of stage 2
finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .channels import ChannelSpec, ConjugateParams, OrderParams, channel_update
from .errors import ConfigError, DomainError
from .priors import kernel_channel_update, kernel_prior_update, prior_update_spectral
from .spectrum import ActivationCoeffs, SpectralModel

DIVERGENCE_Q0 = 1e12

DEFAULT_INIT = OrderParams(m=0.01, q0=1.0, q1=0.5, v=1.0)

# evaluations of the scalar q1 equation before a solve gives up
Q1_MAX_EVALS = 60

# a margin-loss stage 1 turns from damped steps to Newton steps once a map
# step moves the point by less than this
NEWTON_SWITCH = 1.0
# after a failed Newton step, the next waits for a map step this many times shorter
NEWTON_RETRY = 1e-1
# relative shift of the one-sided finite-difference Jacobian
FD_STEP = 1e-7


@dataclass(frozen=True)
class ModelConfig:
    """Problem definition for one fixed-point solve."""

    alpha: float
    gamma: float
    rho: float
    lam: float
    K: int
    spec: ChannelSpec
    spectrum: SpectralModel
    coeffs: ActivationCoeffs

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0 and self.rho > 0):
            raise ConfigError("alpha, gamma and rho must be positive")
        if not self.lam > 0:
            raise ConfigError(
                "lam must be positive; the ridgeless limit is approached with a small lam (1e-6 ridge, 1e-4 classification)"
            )
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        # the spectral prior reads gamma and kappa_star^2 from the spectrum
        spectrum = (self.spectrum.aspect, self.spectrum.scale, self.spectrum.shift)
        own = (self.gamma, self.coeffs.kappa1, self.coeffs.kappa_star_sq)
        if spectrum != own:
            raise ConfigError(
                f"spectrum (aspect, scale, shift) = {spectrum} is not the model's (gamma, kappa1, kappa_star^2) = {own}"
            )


@dataclass(frozen=True)
class SolveOptions:
    damping: float = 0.5
    tol: float = 1e-9
    max_iters: int = 50_000
    init: OrderParams = DEFAULT_INIT

    def __post_init__(self):
        if not (0 < self.damping <= 1):
            raise ConfigError("damping must lie in (0, 1]")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tol must be positive and finite")
        if not self.max_iters >= 1:
            raise ConfigError("max_iters must be at least 1")


@dataclass(frozen=True)
class FixedPoint:
    params: OrderParams
    conj: ConjugateParams
    iterations: int
    residual: float
    converged: bool
    status: str = "converged"  # converged | max_iters | interpolation_divergence | q1_unbracketed
    projections: int = 0

    def as_dict(self) -> dict:
        return {
            "m": self.params.m,
            "q0": self.params.q0,
            "q1": self.params.q1,
            "v": self.params.v,
            "m_hat": self.conj.m_hat,
            "q0_hat": self.conj.q0_hat,
            "q1_hat": self.conj.q1_hat,
            "v_hat": self.conj.v_hat,
            "iterations": self.iterations,
            "residual": self.residual,
            "converged": self.converged,
            "status": self.status,
            "projections": self.projections,
        }


def _project(params: OrderParams, rho: float) -> tuple[OrderParams, bool]:
    """The single-learner point of `params`, q1 pinned to q0, with (m, q0, v)
    pulled back into the admissible set; reports if (m, q0, v) moved."""
    m, q0, _, v = params
    moved = False
    if not math.isfinite(q0) or q0 > DIVERGENCE_Q0:
        return OrderParams(m, q0, q0, v), False  # divergence handled by the caller
    if q0 <= 0:
        q0, moved = 1e-12, True
    if v <= 0:
        v, moved = 1e-12, True
    cap = math.sqrt(rho * q0)
    if abs(m) >= cap:
        m, moved = math.copysign(cap, m) * (1 - 1e-12), True
    return OrderParams(m, q0, q0, v), moved


def _iterate(step, init: OrderParams, rho: float, opts: SolveOptions, newton: bool) -> FixedPoint:
    """Stage-1 iteration of the single learner; `step` maps OrderParams -> (OrderParams, ConjugateParams).

    The state (m, q0, v) starts at the projection of `init` and is carried as
    Python floats, component by component: a solve takes hundreds of cheap
    iterations, where numpy calls or generators would cost more than the
    arithmetic. The step sees q1 = q0 and its q1 is dropped, so the returned
    parameters carry q1 = q0.

    Without `newton` this is a damped loop. With it, once a map step moves
    the point by less than NEWTON_SWITCH, the loop takes Newton steps on
    G(x) = F(x) - x instead (`_newton_point`). A Newton point that is not
    admissible, or whose map step is not shorter than that of the point it
    started from, sends the loop back to damped steps from that point, and
    Newton waits for a map step NEWTON_RETRY times shorter. Every map call
    counts as an iteration, the Jacobian's included; the stopping rule and
    what is returned are those of the damped loop.
    """
    params, _ = _project(init, rho)
    cur = (float(params.m), float(params.q0), float(params.v))
    damping = opts.damping
    tol, max_iters = opts.tol, opts.max_iters
    projections = 0
    residual = math.inf
    prev_sign: Optional[tuple[int, int]] = None  # signs of the last q0 and v steps
    osc_count = 0
    conj = ConjugateParams(0.0, 0.0, 0.0, 0.0)
    switch = NEWTON_SWITCH if newton else 0.0
    best = None  # (x, F(x), residual) of the last point a Newton step started from
    it = 0
    while it < max_iters:
        it += 1
        update, conj = step(params)
        new = (float(update.m), float(update.q0), float(update.v))
        fm, fq0, fv = new
        if not (math.isfinite(fm) and math.isfinite(fq0) and math.isfinite(fv)) or update.q0 > DIVERGENCE_Q0:
            return FixedPoint(params, conj, it, residual, False, "interpolation_divergence", projections)
        m, q0, v = cur
        residual = max(abs(fm - m), abs(fq0 - q0), abs(fv - v))
        # tol below the float64 spacing of the iterate cannot be met: stop
        # within a few ulps of the largest component instead
        if residual < max(tol, 4.0 * math.ulp(max(abs(fm), abs(fq0), abs(fv)))):
            return FixedPoint(OrderParams(fm, fq0, fq0, fv), conj, it, residual, True, "converged", projections)
        if best is not None and residual >= best[2]:
            cur, new, residual = best  # the Newton point did not help: back to the best point
            (m, q0, v), (fm, fq0, fv) = cur, new
            best, switch = None, NEWTON_RETRY * residual
        elif residual < switch and it + 4 <= max_iters:
            best = (cur, new, residual)
            point = _newton_point(step, cur, new, rho)
            it += 3
            if point is not None:
                params = point
                cur = (params.m, params.q0, params.v)
                continue
            best, switch = None, NEWTON_RETRY * residual
        dq0, dv = fq0 - q0, fv - v
        sign = ((dq0 > 0) - (dq0 < 0), (dv > 0) - (dv < 0))
        if prev_sign is not None:
            if sign == (-prev_sign[0], -prev_sign[1]) and sign != (0, 0):
                osc_count += 1
                if osc_count >= 3 and damping > 0.1:
                    damping = 0.1
            else:
                osc_count = 0
        prev_sign = sign
        m = damping * fm + (1 - damping) * m
        q0 = damping * fq0 + (1 - damping) * q0
        v = damping * fv + (1 - damping) * v
        params, moved = _project(OrderParams(m, q0, q0, v), rho)
        projections += moved
        cur = (params.m, params.q0, params.v)
    return FixedPoint(params, conj, it, residual, False, "max_iters", projections)


def _newton_point(step, x: list, fx: list, rho: float) -> Optional[OrderParams]:
    """The Newton point x - J^-1 G(x) of G(y) = F(y) - y, or None if it is not admissible.

    J is the one-sided finite-difference Jacobian of G at x, from three map
    calls. Each shift moves m toward 0 and q0, v up, so the shifted points
    stay admissible when x is.
    """
    g = [a - b for a, b in zip(fx, x)]
    jac = np.empty((3, 3))
    for j in range(3):
        h = FD_STEP * max(abs(x[j]), 1.0)
        if j == 0 and x[0] > 0:
            h = -h
        y = list(x)
        y[j] += h
        out, _ = step(OrderParams(y[0], y[1], y[1], y[2]))
        fy = (float(out.m), float(out.q0), float(out.v))
        jac[:, j] = [(a - b) / h for a, b in zip(fy, fx)]
        jac[j, j] -= 1.0
    try:
        s = np.linalg.solve(jac, g)
    except np.linalg.LinAlgError:
        return None
    m, q0, v = (a - float(b) for a, b in zip(x, s))
    if not all(map(math.isfinite, (m, q0, v))):
        return None
    params, moved = _project(OrderParams(m, q0, q0, v), rho)
    return None if moved else params


def solve_fixed_point(config: ModelConfig, opts: SolveOptions | None = None) -> FixedPoint:
    """Solve the self-consistent equations for a finite-size-ratio model."""
    opts = opts or SolveOptions()

    def step(params: OrderParams):
        conj = channel_update(params, config.rho, config.alpha, config.gamma, config.spec)
        update = prior_update_spectral(conj, config.lam, config.spectrum)
        return update, conj

    return _solve_two_stage(step, opts.init, config.rho, opts, config.spec.loss != "square")


class _Q1Point(NamedTuple):
    """One evaluation of g(q1) = F(q1) - q1, with the map step it came from."""

    x: float
    g: float
    done: bool  # |g| meets the stopping rule of the damped loop
    update: OrderParams
    conj: ConjugateParams


def _solve_two_stage(step, init: OrderParams, rho: float, opts: SolveOptions, newton: bool) -> FixedPoint:
    """Iterate (m, q0, v) with q1 pinned to q0, then solve for q1.

    `iterations` counts the stage-1 map steps plus the q1 evaluations; the
    last evaluation, at the root, is the final map step whose parameters and
    conjugates are returned. The residual is the larger of the stage-1 step
    and |g| at the root.
    """
    fp = _iterate(step, init, rho, opts, newton)
    if not fp.converged:
        return fp
    m, q0, v = fp.params.m, fp.params.q0, fp.params.v

    def evaluate(q1: float) -> _Q1Point:
        update, conj = step(OrderParams(m=m, q0=q0, q1=q1, v=v))
        g = float(update.q1) - q1
        scale = max(abs(m), abs(q0), abs(update.q1), abs(v))
        return _Q1Point(q1, g, abs(g) < max(opts.tol, 4.0 * math.ulp(scale)), update, conj)

    # below 2 m^2/rho - q0 the pair teacher variance rho - 2 m^2/(q0 + q1) is negative
    lo = max(0.0, 2.0 * m * m / rho - q0)
    lo += 1e-9 * (q0 - lo)
    point, evals, status = _solve_q1(evaluate, lo, q0, init.q1)
    iterations = fp.iterations + evals
    if status != "converged":
        return FixedPoint(fp.params, fp.conj, iterations, abs(point.g), False, status, fp.projections)
    return FixedPoint(
        point.update, point.conj, iterations, max(fp.residual, abs(point.g)), True, "converged", fp.projections
    )


def _solve_q1(evaluate, lo: float, hi: float, guess: float) -> tuple[_Q1Point, int, str]:
    """Root of g on [lo, hi] by secant steps kept inside a sign-change bracket.

    The upper end q1 = q0 goes first: the channel takes its 1-D branch there,
    so it costs no pair integral. Then `guess` (the initial q1, a warm start's
    root) and the lower end only if those two agree in sign. Each step is the
    secant through the last two evaluations, or the bracket's midpoint when
    the secant leaves the bracket. When no float is left inside the bracket
    the end with the smaller |g| is the root.
    Returns (point, evaluations, status).
    """
    upper = evaluate(hi)
    if upper.done:
        return upper, 1, "converged"
    first = evaluate(guess if lo < guess < hi else 0.5 * (lo + hi))
    evals = 2
    if first.done:
        return first, evals, "converged"
    prev, cur = upper, first
    if (first.g > 0) == (upper.g > 0):
        prev, cur = first, evaluate(lo)
        evals += 1
        if (cur.g > 0) == (first.g > 0) and not cur.done:
            return min(upper, first, cur, key=lambda p: abs(p.g)), evals, "q1_unbracketed"
    a, b = prev, cur  # the ends of the bracket, g(a) and g(b) of opposite sign
    while not cur.done:
        if evals >= Q1_MAX_EVALS:
            return cur, evals, "max_iters"
        left, right = min(a.x, b.x), max(a.x, b.x)
        x = cur.x - cur.g * (cur.x - prev.x) / (cur.g - prev.g) if cur.g != prev.g else left
        if not left < x < right:
            x = 0.5 * (left + right)
            if not left < x < right:
                return min(a, b, key=lambda p: abs(p.g)), evals, "converged"
        prev, cur = cur, evaluate(x)
        evals += 1
        if (cur.g > 0) == (a.g > 0):
            a = cur
        else:
            b = cur
    return cur, evals, "converged"


def solve_kernel_limit(
    delta: float,
    rho: float,
    lam: float,
    spec: ChannelSpec,
    coeffs: ActivationCoeffs,
    opts: SolveOptions | None = None,
) -> FixedPoint:
    """Fixed point of the kernel-limit equations at fixed delta = n/d."""
    if not delta > 0:
        raise DomainError(f"delta must be positive, got {delta}")
    if not rho > 0:
        raise ConfigError(f"rho must be positive, got {rho}")
    if not lam > 0:
        raise ConfigError("kernel mode requires lam > 0")
    opts = opts or SolveOptions()

    def step(params: OrderParams):
        conj = kernel_channel_update(params, rho, delta, spec)
        update = kernel_prior_update(conj, lam, delta, coeffs)
        return update, conj

    return _solve_two_stage(step, opts.init, rho, opts, spec.loss != "square")


def warm_options(opts: SolveOptions, fp: FixedPoint) -> SolveOptions:
    """Options seeded at a previously converged fixed point (sweep warm starts)."""
    if not fp.converged:
        return opts
    return replace(opts, init=fp.params)
