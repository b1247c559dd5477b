"""Everything derived from a solved fixed point.

The limiting joint law of (teacher field, K learner fields) is Gaussian with
covariance assembled from (rho, m, q0, q1). Closed forms cover the mean
estimator under squared error and the score-average sign estimator under
zero-one error; everything else (majority vote in particular) goes through
Monte Carlo over the limiting Gaussian. Each block of samples owns a keyed
Philox stream and draws its ziggurat normals sample-major, so results are
reproducible and shard-invariant: the first `count` samples of a block do not
depend on `count`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .channels import OrderParams
from .errors import ConfigError, DomainError

Estimator = Union[str, Callable[[np.ndarray], np.ndarray]]

_PSD_TOL = 1e-9


@dataclass(frozen=True)
class EnsembleCovariance:
    """Covariance of (teacher field nu, learner fields mu_1..mu_K).

    Var(nu) = rho, Cov(nu, mu_k) = m, Cov(mu) = (q0 - q1) I + q1 ones.
    """

    rho: float
    m: float
    q0: float
    q1: float
    K: int

    def __post_init__(self):
        if not self.rho > 0:
            raise DomainError(f"rho must be positive, got {self.rho}")
        if self.K < 1:
            raise ConfigError("K must be >= 1")

    @classmethod
    def from_params(cls, params: OrderParams, rho: float, K: int) -> "EnsembleCovariance":
        return cls(rho=rho, m=params.m, q0=params.q0, q1=params.q1, K=K)

    def matrix(self) -> np.ndarray:
        sigma = np.empty((self.K + 1, self.K + 1))
        sigma[0, 0] = self.rho
        sigma[0, 1:] = sigma[1:, 0] = self.m
        sigma[1:, 1:] = (self.q0 - self.q1) * np.eye(self.K) + self.q1
        return sigma

    def psd_margins(self) -> tuple[float, float, float]:
        """(q0 - q1, q0 + (K-1) q1, q0 + (K-1) q1 - K m^2 / rho): all must be >= 0."""
        row = self.q0 + (self.K - 1) * self.q1
        return self.q0 - self.q1, row, row - self.K * self.m**2 / self.rho

    def check_psd(self) -> None:
        margins = self.psd_margins()
        scale = max(self.q0, 1.0)
        if min(margins) < -_PSD_TOL * scale:
            raise DomainError(f"covariance not PSD: margins (q0-q1, q0+(K-1)q1, schur) = {margins}")


def mse_test_error(cov: EnsembleCovariance) -> tuple[float, float, float]:
    """(eps_g, eps_bar, delta_eps) for the mean estimator under squared error."""
    eps_bar = cov.rho + cov.q1 - 2.0 * cov.m
    delta = (cov.q0 - cov.q1) / cov.K
    return eps_bar + delta, eps_bar, delta


def _acos_clipped(x: float) -> float:
    if abs(x) > 1.0 + 1e-12:
        raise DomainError(f"arccos argument {x} outside [-1, 1]")
    return math.acos(min(1.0, max(-1.0, x)))


def classification_error_avg(cov: EnsembleCovariance) -> float:
    """Zero-one error of sign(sum_k mu_k) against the sign teacher."""
    score_var = cov.rho * (cov.q0 - cov.q1 + cov.K * cov.q1)
    if not score_var > 0:
        raise DomainError(f"rho (q0 - q1 + K q1) = {score_var} must be positive")
    arg = math.sqrt(cov.K) * cov.m / math.sqrt(score_var)
    return _acos_clipped(arg) / math.pi


def classification_error_bar(rho: float, m: float, q1: float) -> float:
    """Ensemble-limit zero-one error (the K -> infinity form)."""
    if not rho * q1 > 0:
        raise DomainError(f"rho q1 = {rho * q1} must be positive")
    return _acos_clipped(m / math.sqrt(rho * q1)) / math.pi


def disagreement_probability(q0: float, q1: float) -> float:
    """Probability two learners output opposite labels: arccos(q1/q0)/pi."""
    if not q0 > 0:
        raise DomainError(f"q0 must be positive, got {q0}")
    if abs(q1) > q0 * (1 + 1e-12):
        raise DomainError(f"|q1| = {abs(q1)} exceeds q0 = {q0}")
    return _acos_clipped(q1 / q0) / math.pi


def ensemble_test_error(params: OrderParams, rho: float, loss: str, K) -> tuple[float, float, float]:
    """(eps_g, eps_bar, delta_eps) of K learners at one fixed point; K is an int or "inf".

    Square loss scores the mean estimator under squared error, the margin
    losses the score-average sign estimator under zero-one error. At K = "inf"
    eps_g is eps_bar and delta_eps is 0.
    """
    if K == "inf":
        if loss == "square":
            eps_bar = mse_test_error(EnsembleCovariance.from_params(params, rho, 1))[1]
        else:
            eps_bar = classification_error_bar(rho, params.m, params.q1)
        return eps_bar, eps_bar, 0.0
    cov = EnsembleCovariance.from_params(params, rho, K)
    if loss == "square":
        return mse_test_error(cov)
    eps_g = classification_error_avg(cov)
    eps_bar = classification_error_bar(rho, params.m, params.q1)
    return eps_g, eps_bar, eps_g - eps_bar


# ---------------------------------------------------------------------------
# Monte Carlo over the limiting Gaussian
# ---------------------------------------------------------------------------


MC_BLOCK = 1 << 16
# doubles in each sample buffer of `generic_gen_error` (256 KB, so the two
# buffers fit in L2): a block is drawn in chunks of MC_BUFFER // (K + 1)
# samples, 8,192 at K = 3
MC_BUFFER = 1 << 15


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _block_stream(seed: int, block: int) -> np.random.Generator:
    """The independent stream of fixed-size block `block`, keyed by (seed, block index).

    The key is built as uint64 words: a tuple of Python ints at or above
    2**63 would pass through float64 and lose its low bits.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _draw_samples(cov: EnsembleCovariance, rng: np.random.Generator, count: int, u=None, z=None):
    """The next `count` samples of the stream `rng` as (nu, mu).

    The ziggurat draws K+1 standard normals per sample, sample-major, and
    consumes the stream in sample order. The first `count` samples of a
    block's stream therefore do not depend on `count`, and a block drawn in
    consecutive chunks gives the samples of one draw: the samples depend only
    on (seed, block, position), reproducible and shard-invariant.

    Both buffers may be passed in (at least `count` samples wide) to be
    reused across draws. The work is field-major: the normals, drawn as
    (count, K+1) into `u`, are copied transposed into the (K+1, count) field
    buffer `z`, row 0 the teacher and rows 1..K the learners; the returned
    nu (count,) and mu (count, K) are views of `z`, overwritten by the next
    draw into it. The learners' shared term sums their normals left to
    right, xi_1 + xi_2 + ... + xi_K, for every K.
    """
    K = cov.K
    width = K + 1
    u = np.empty((count, width)) if u is None else u[:count]
    z = np.empty((width, count)) if z is None else z[:, :count]
    rng.standard_normal(out=u)
    np.copyto(z, u.T)
    z0 = z[0]
    xi = z[1:]
    q0t = cov.q0 - cov.m**2 / cov.rho
    q1t = cov.q1 - cov.m**2 / cov.rho
    diag = math.sqrt(max(cov.q0 - cov.q1, 0.0))
    row = max(q0t + (K - 1) * q1t, 0.0)
    coupling = (math.sqrt(row) - diag) / K
    # mu = (a z0 + diag xi) + coupling sum(xi), built in place on the learner
    # rows; each element is summed in that order (float addition commutes, it
    # does not associate)
    shared = np.add.reduce(xi, axis=0)
    shared *= coupling
    teacher_part = np.multiply(cov.m / math.sqrt(cov.rho), z0)
    xi *= diag
    xi += teacher_part
    xi += shared
    z0 *= math.sqrt(cov.rho)
    return z0, xi.T


def _sign_pm1(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0, -1.0)


def _avg_sign_positive(rows: np.ndarray) -> np.ndarray:
    # the same reduction as scores.sum(axis=1) on the transposed view
    return np.add.reduce(rows, axis=0) >= 0


def _majority_positive(rows: np.ndarray) -> np.ndarray:
    # the K signs sum to 2 (number of nonnegative rows) - K >= 0 when at least (K + 1) // 2 rows are
    # nonnegative; the count fits K's smallest integer type
    K = rows.shape[0]
    return np.add.reduce(rows >= 0, axis=0, dtype=np.min_scalar_type(K)) >= (K + 1) // 2


class ResolvedEstimator(NamedTuple):
    """An estimator name or callable as the Monte Carlo and the ERM lab score it.

    f_hat maps scores (samples, K) to predictions; teacher is the default
    teacher (None for a callable). A sign estimator is its `positive`, which
    maps the learner rows (K, samples) to where the prediction is +1 (a zero
    sum or vote counting as +1), so its zero-one error against the sign
    teacher is counted on booleans; f_hat writes the same predictions as +-1.
    """

    f_hat: Callable[[np.ndarray], np.ndarray]
    teacher: Optional[str]
    positive: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _sign_estimator(positive) -> ResolvedEstimator:
    return ResolvedEstimator(lambda mu: np.where(positive(mu.T), 1.0, -1.0), "sign", positive)


def resolve_estimator(estimator: Estimator) -> ResolvedEstimator:
    """The ResolvedEstimator of an estimator name or callable."""
    if callable(estimator):
        return ResolvedEstimator(estimator, None)
    if estimator == "mean":
        return ResolvedEstimator(lambda mu: mu.mean(axis=1), "linear")
    if estimator == "avg_sign":
        return _sign_estimator(_avg_sign_positive)
    if estimator == "majority":
        return _sign_estimator(_majority_positive)
    raise ConfigError(f"unknown estimator {estimator!r}")


def generic_gen_error(
    cov: EnsembleCovariance,
    estimator: Estimator,
    metric: str,
    samples: int,
    seed: int,
    teacher: str | None = None,
) -> tuple[float, float]:
    """Monte Carlo test error for any estimator/error measure pair.

    Returns (estimate, std_error). `samples` is an int of at least 10,000
    and `seed` an int in [0, 2**64), one Philox key word. Deterministic for
    a fixed seed and invariant to how blocks are distributed across
    workers. Samples come in blocks of MC_BLOCK, each drawn from its own
    stream (`_block_stream`) in consecutive chunks of MC_BUFFER // (K+1)
    samples, into one sample-major normal buffer and one field-major
    (K+1, chunk) buffer of MC_BUFFER doubles each, allocated per call and
    reused by every chunk, so memory does not grow with K and the buffers
    stay in L2; a chunk's samples are those of its place in the block, so
    the chunk size cannot move an estimate. The estimator sees each
    chunk's scores as a (chunk, K) view of the field buffer, so a sum over
    learners runs left to right. Squared errors are summed per block, over
    a block-wide buffer. The zero-one error of a sign estimator against the
    sign teacher is counted on booleans (`ResolvedEstimator.positive` of
    the learner rows), giving the same counts as its +-1 predictions.
    """
    if not _is_int(samples):
        raise ConfigError(f"samples must be an int, got {samples!r}")
    if samples < 10_000:
        raise ConfigError("use at least 1e4 samples; below that the MC band is not meaningful")
    if not (_is_int(seed) and 0 <= seed < 2**64):
        raise ConfigError(f"seed must be an int in [0, 2**64) (one Philox key word), got {seed!r}")
    cov.check_psd()
    f_hat, default_teacher, positive = resolve_estimator(estimator)
    teacher = teacher or default_teacher
    if teacher not in ("linear", "sign"):
        raise ConfigError(f"unknown teacher {teacher!r}")
    if metric not in ("mse", "zero_one"):
        raise ConfigError(f"unknown metric {metric!r}")
    if estimator == "mean" and metric == "zero_one":
        raise ConfigError("estimator 'mean' predicts real values, which the zero-one metric counts as always wrong")
    if teacher == "linear" and metric == "zero_one":
        raise ConfigError("the linear teacher is real-valued, which the zero-one metric counts as always wrong")
    size = min(MC_BLOCK, samples)
    chunk = min(size, max(1, MC_BUFFER // (cov.K + 1)))
    u = np.empty((chunk, cov.K + 1))
    z = np.empty((cov.K + 1, chunk))
    sq = np.empty(size) if metric == "mse" else None
    total = 0.0
    total_sq = 0.0
    done = 0
    block = 0
    while done < samples:
        count = min(MC_BLOCK, samples - done)
        rng = _block_stream(seed, block)
        block += 1
        for start in range(0, count, chunk):
            nu, mu = _draw_samples(cov, rng, min(chunk, count - start), u, z)
            if metric == "mse":
                y = nu if teacher == "linear" else _sign_pm1(nu)
                sq[start:start + len(nu)] = (y - np.asarray(f_hat(mu), dtype=float)) ** 2
            else:
                # zero_one: the teacher is the sign teacher (checked above)
                if positive is not None:
                    wrong = (nu >= 0) != positive(mu.T)
                else:
                    wrong = _sign_pm1(nu) != np.asarray(f_hat(mu), dtype=float)
                # a zero-one loss is 0 or 1, so its square is itself
                mismatches = int(np.count_nonzero(wrong))
                total += mismatches
                total_sq += mismatches
        if metric == "mse":
            delta = sq[:count]
            total += float(delta.sum())
            total_sq += float((delta**2).sum())
        done += count
    mean = total / samples
    var = max(total_sq / samples - mean**2, 0.0)
    return mean, math.sqrt(var / samples)


def majority_vote_error(cov: EnsembleCovariance, samples: int, seed: int) -> tuple[float, float]:
    """Zero-one error of the majority rule sign(sum_k sign(mu_k)) over the cov.K learners; K odd."""
    if cov.K % 2 == 0:
        raise ConfigError("majority vote needs odd K (even K leaves ties)")
    return generic_gen_error(cov, "majority", "zero_one", samples, seed)


def confidence_density(q0: float, q1: float, grid: Sequence[float]) -> np.ndarray:
    """Joint density of the two learners' logistic confidence scores.

    Pushforward of (mu_1, mu_2) ~ N(0, [[q0,q1],[q1,q0]]) through the
    logistic map: density(p1, p2) = N2(logit p1, logit p2) / prod p_i(1-p_i).
    """
    if not q0 > 0:
        raise DomainError(f"q0 must be positive, got {q0}")
    if abs(q1) >= q0 * (1 - 1e-12):
        raise DomainError("confidence density needs |q1| < q0; the degenerate case is a diagonal line mass")
    phi = np.asarray(grid, dtype=float)
    if np.any(phi <= 0) or np.any(phi >= 1):
        raise DomainError("grid points must lie strictly inside (0, 1)")
    x = np.log(phi / (1.0 - phi))
    det = q0 * q0 - q1 * q1
    xs = x[:, None]
    ys = x[None, :]
    quad = (q0 * xs**2 - 2.0 * q1 * xs * ys + q0 * ys**2) / (2.0 * det)
    normal = np.exp(-quad) / (2.0 * np.pi * np.sqrt(det))
    jac = (phi * (1.0 - phi))[:, None] * (phi * (1.0 - phi))[None, :]
    return normal / jac
