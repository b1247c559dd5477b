"""Finite-size empirical-risk-minimization experiments.

Validates the asymptotic theory at desk scale: draw a synthetic dataset,
train K learners on their own random-feature maps, measure the overlap
statistics and errors, and compare against the solved fixed point.

Scaling conventions are pinned here once and shared by every trainer and
estimator: pre-activations are w.u/sqrt(p), the teacher field is
theta.x/sqrt(d), and the trained objective is

    sum_mu loss(y_mu, w.u_mu/sqrt(p)) + lam/2 |w|^2,

i.e. the same lam the fixed-point equations use. (The per-sample-averaged
objective with an order-one lam has no nontrivial proportional limit.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .channels import ChannelSpec
from .errors import ConfigError, ConvergenceError, DomainError, NumericalError
from .observables import resolve_estimator
from .priors import FeatureEnsemble, sample_feature_ensemble
from .quadrature import gauss_hermite_rule
from .special import scipy_special
from .spectrum import ActivationCoeffs, activation_coeffs

DEFAULT_TEST_SAMPLES = 10_000
# Newton stops at |grad| <= _NEWTON_GRAD_TOL sqrt(p) on the summed objective,
# an order of magnitude below the 1e-8 sqrt(p) optimality contract and above
# the float64 cancellation floor of the gradient sums
_NEWTON_GRAD_TOL = 1e-9
_NEWTON_MAX_ITER = 100
# rows of sampled test points featurized at a time
_TEST_CHUNK = 1024
# rows of a chunk screened in float32 at a time, so the screen's buffers stay in cache
_SCREEN_ROWS = 256
# The erf surrogate tanh(a P(a^2)) with a = clip(x, -6, 6) and P of degree 4,
# evaluated in float32: the odd polynomial a P(a^2) is a minimax fit on [0, 6],
# where it rises from 0 to 234. Past 6 erf is 1 to within 2e-17. Its worst
# error against scipy's erf over the whole line is 3.0e-6, near |x| = 0.65
# (tests/test_erm_lab.py::TestErfSurrogate), bounded by _ERF_DELTA with more
# than a factor 2 to spare.
_ERF_CLIP = 6.0
_ERF_P = tuple(np.float32(c) for c in (3.22722375e-05, -4.15366107e-04, -4.96410745e-04, 0.102932951, 1.12835812))
_ERF_DELTA = 7e-6
# scipy's erf is within _ERF_EPS of erf everywhere; its worst distance from
# math.erf, the theory's erf, is 3.3e-16 (tests/test_special.py::TestErf)
_ERF_EPS = 2.0**-49


def derive_seed(*parts) -> tuple:
    """Flatten seed components into a SeedSequence-compatible tuple of ints.

    String tags (stream labels like "features") hash to stable 32-bit ints so
    distinct streams of one trial never collide. An int must lie in
    [0, 2**32): reducing it mod 2**32 would give seeds 0 and 2**32 the same
    feature matrices and test points, so any other int raises ConfigError,
    as does a bool, which would run seed 0 or 1.
    """
    out = []
    for part in parts:
        if isinstance(part, (tuple, list)):
            out.extend(derive_seed(*part))
        elif isinstance(part, str):
            # imported here, so that loading the lab does not load OpenSSL
            import hashlib

            digest = hashlib.sha256(part.encode()).digest()
            out.append(int.from_bytes(digest[:4], "little"))
        elif isinstance(part, (bool, np.bool_)):
            raise ConfigError(f"seed components must not be booleans, got {part!r}")
        elif isinstance(part, (int, np.integer)):
            if not 0 <= part < 2**32:
                raise ConfigError(f"seed ints must lie in [0, 2**32), got {part}")
            out.append(int(part))
        else:
            raise ConfigError(f"seed components must be ints, strings or tuples, got {type(part)}")
    return tuple(out)


def preactivation(features: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Score u -> w.u/sqrt(p); the single place the sqrt(p) lives."""
    return features @ w / math.sqrt(features.shape[1])


def teacher_field(X: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """theta.x/sqrt(d); the single place the sqrt(d) lives."""
    return X @ theta / math.sqrt(X.shape[1])


@dataclass(frozen=True)
class SyntheticDataset:
    X: np.ndarray
    theta: np.ndarray
    y: np.ndarray


def apply_teacher(z: np.ndarray, teacher: str) -> np.ndarray:
    if teacher == "linear":
        return z
    if teacher == "sign":
        return np.where(z >= 0, 1.0, -1.0)
    raise ConfigError(f"unknown teacher {teacher!r}")


def generate_dataset(n: int, d: int, rho: float, teacher: str, seed) -> SyntheticDataset:
    """i.i.d. Gaussian inputs with labels from a Gaussian linear teacher."""
    if n < 1 or d < 1:
        raise ConfigError("n and d must be >= 1")
    if not rho > 0:
        raise ConfigError("rho must be positive")
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, math.sqrt(rho), size=d)
    X = rng.standard_normal((n, d))
    y = apply_teacher(teacher_field(X, theta), teacher)
    return SyntheticDataset(X=X, theta=theta, y=y)


def _preactivations(X: np.ndarray, F: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """A = X F^T/sqrt(d), one learner's pre-activations, written into `out` when given."""
    A = np.matmul(X, F.T, out=out)
    A /= math.sqrt(F.shape[1])
    return A


def featurize(X: np.ndarray, ensemble: FeatureEnsemble) -> list[np.ndarray]:
    """Per-learner feature blocks u_k = phi(F_k x / sqrt(d)), each n x p.

    A float64 ufunc activation (erf, tanh) is applied in place on the
    pre-activations, so one n x p block is held per learner, not two.
    """
    X = np.asarray(X)
    if X.shape[1] != ensemble.d:
        raise ConfigError(f"inputs have d={X.shape[1]} but ensemble expects d={ensemble.d}")
    phi = ensemble.activation
    in_place = isinstance(phi, np.ufunc) and "d->d" in phi.types
    return [phi(A, out=A) if in_place else phi(A) for A in (_preactivations(X, F) for F in ensemble.F_list)]


def _learners(ensemble: FeatureEnsemble) -> list[FeatureEnsemble]:
    """One-learner views of the ensemble, in learner order, so a caller can featurize one block at a time."""
    return [replace(ensemble, F_list=(F,), seeds=(seed,)) for F, seed in zip(ensemble.F_list, ensemble.seeds)]


def _ridge_cond(U: np.ndarray, lam: float) -> float:
    """Condition number of the system actually solved, from the singular values of U."""
    s2 = np.linalg.svd(U, compute_uv=False) ** 2 / U.shape[1]
    return float((s2.max() + lam) / (s2.min() + lam))


def train_ridge(features: Sequence[np.ndarray], y: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact regularized least squares per learner, by LU solves of the smaller Gram matrix.

    The normal equations A w = b, A = U^T U/p + lam I_p, b = U^T y/sqrt(p),
    are solved in the smaller space: for p > n through the dual system
    (U U^T/p + lam I_n) a = y, w = U^T a/sqrt(p). The contract
    |A w - b| <= 1e-10 max(1, |b|) is checked in p-space without forming A;
    when the first solve misses it, one step of iterative refinement (a
    second solve, on the residual) brings the residual near machine
    precision even at lam = 1e-6 close to the interpolation peak.
    """
    if not lam > 0:
        raise ConfigError("lam must be positive")
    ws, resids = [], []
    for U in features:
        n, p = U.shape
        b = U.T @ y / math.sqrt(p)
        bound = 1e-10 * max(1.0, float(np.linalg.norm(b)))
        dual = p > n
        M = U @ U.T if dual else U.T @ U
        M /= p
        M[np.diag_indices_from(M)] += lam
        rhs = y if dual else b
        x = None
        for _ in range(2):  # the solve, then one refinement step only if its residual misses the contract
            try:
                x = np.linalg.solve(M, rhs) if x is None else x + np.linalg.solve(M, rhs - M @ x)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"ridge normal equations failed (cond ~ {_ridge_cond(U, lam):.2e})") from exc
            w = U.T @ x / math.sqrt(p) if dual else x
            resid = float(np.linalg.norm(U.T @ (U @ w) / p + lam * w - b))
            if resid <= bound:
                break
        else:
            raise NumericalError(
                f"ridge optimality residual {resid:.2e} too large (cond ~ {_ridge_cond(U, lam):.2e})"
            )
        ws.append(w)
        resids.append(resid)
    return np.column_stack(ws), np.array(resids)


def _logistic_objective(z: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> float:
    """The summed logistic objective at weights w with pre-activations z = Uw/sqrt(p)."""
    return float(np.sum(np.logaddexp(0.0, -y * z)) + 0.5 * lam * w @ w)


def _newton_direction(V: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Solve (V^T V + lam I_p) x = g with one LU solve of the smaller Gram matrix.

    For p > n the Woodbury identity keeps the system n x n:
    x = (g - V^T (V V^T + lam I_n)^-1 V g)/lam.
    """
    n, p = V.shape
    dual = p > n
    # a product of V with its own transpose is a symmetric rank-k update in numpy
    M = V @ V.T if dual else V.T @ V
    M[np.diag_indices_from(M)] += lam
    try:
        if dual:
            return (g - V.T @ np.linalg.solve(M, V @ g)) / lam
        return np.linalg.solve(M, g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("logistic Newton system failed") from exc


def train_logistic(features: Sequence[np.ndarray], y: np.ndarray, lam: float):
    """Newton with backtracking per learner, to near machine-precision gradients.

    The Hessian U^T diag(s(1-s)) U/p + lam I is V^T V + lam I with the rows of
    U scaled to V = U sqrt(s(1-s)/p); `_newton_direction` solves with it, in
    n-space when p > n. The pre-activations z = Uw/sqrt(p) are carried
    through the line search and updated with the step's own pre-activations.

    Returns (W, gradient norms, Newton iterations), one column or entry per
    learner; the convergence target is |grad| <= _NEWTON_GRAD_TOL sqrt(p).
    """
    if not lam > 0:
        raise ConfigError("lam must be positive")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ConfigError("logistic training expects labels in {-1, +1}")
    ws, gns, its = [], [], []
    for U in features:
        n, p = U.shape
        sqrt_p = math.sqrt(p)
        tol = _NEWTON_GRAD_TOL * sqrt_p
        w = np.zeros(p)
        z = np.zeros(n)
        gn = np.inf
        done_iters = _NEWTON_MAX_ITER
        for it in range(_NEWTON_MAX_ITER):
            s = scipy_special().expit(-y * z)  # = -d loss / d (y z)
            g = -U.T @ (y * s) / sqrt_p + lam * w
            gn = float(np.linalg.norm(g))
            if gn <= tol:
                done_iters = it
                break
            V = U * np.sqrt(s * (1.0 - s) / p)[:, None]
            step = _newton_direction(V, g, lam)
            dz = preactivation(U, step)
            obj = _logistic_objective(z, y, w, lam)
            slope = float(g @ step)
            t = 1.0
            while t > 1e-10:
                if _logistic_objective(z - t * dz, y, w - t * step, lam) <= obj - 1e-4 * t * slope:
                    break
                t *= 0.5
            w = w - t * step
            z = z - t * dz
        else:
            raise ConvergenceError(f"logistic Newton stalled at gradient norm {gn:.3e} (tol {tol:.1e})")
        ws.append(w)
        gns.append(gn)
        its.append(done_iters)
    return np.column_stack(ws), np.array(gns), np.array(its)


def square_test_error_erf(theta: np.ndarray, ensemble: FeatureEnsemble, W: np.ndarray) -> float:
    """Exact population MSE of the mean estimator for a linear teacher and erf features.

    With a = F_all x/sqrt(d) ~ N(0, G), G = F_all F_all^T/d over the stacked
    F_k, s_i = 1/sqrt(1 + 2 G_ii) and y = theta.x/sqrt(d):

        E[erf a_i erf a_j] = (2/pi) arcsin(2 G_ij s_i s_j)      (arcsine kernel, Williams 1997)
        E[y erf a_i] = (F_all theta/d)_i (2/sqrt(pi)) s_i         (Stein's identity)

    so the error is |theta|^2/d - 2 wbar.e + wbar^T C wbar with wbar the
    stacked W[:, k]/(K sqrt(p)). C is symmetric: only its blocks k <= l are
    formed, each in turn in one reused p x p buffer, arcsin taken in place.
    Uses the sample's own |theta|^2/d, so the value is exact for this draw.
    """
    K, p, d = ensemble.K, ensemble.p, ensemble.d
    F = ensemble.F_list
    s = [1.0 / np.sqrt(1.0 + 2.0 * np.einsum("ij,ij->i", Fk, Fk) / d) for Fk in F]
    w_bar = [W[:, k] / (K * math.sqrt(p)) for k in range(K)]
    cross = sum(w_bar[k] @ ((F[k] @ theta / d) * s[k]) for k in range(K)) * (2.0 / math.sqrt(math.pi))
    quad = 0.0
    C = np.empty((p, p))
    for k in range(K):
        for l in range(k, K):
            np.matmul(F[k], F[l].T, out=C)
            C *= (2.0 / d) * s[k][:, None]
            C *= s[l][None, :]
            np.arcsin(C, out=C)
            term = float(w_bar[k] @ C @ w_bar[l])
            quad += term if k == l else 2.0 * term
    return float(theta @ theta / d - 2.0 * cross + (2.0 / math.pi) * quad)


@dataclass(frozen=True)
class Overlaps:
    m: float
    q0: float
    q1: float  # nan for a single learner


def empirical_overlaps(ens: FeatureEnsemble, W: np.ndarray) -> Overlaps:
    """Population overlaps of the trained weights W (p x K) via the equivalent Gaussian blocks.

    m_k = w_k . (kappa1 F_k theta / sqrt(d)) / sqrt(p d)
    q_kk' = w_k . Omega_kk' . w_k' / p, with the cross blocks kappa1^2 F_k F_k'^T / d.
    """
    p, d = ens.p, ens.d
    k1, ks2 = ens.coeffs.kappa1, ens.coeffs.kappa_star_sq
    K = W.shape[1]
    ms, q0s, q1s = [], [], []
    projections = [ens.F_list[k].T @ W[:, k] for k in range(K)]  # F_k^T w_k, shape d
    for k in range(K):
        w = W[:, k]
        ms.append(k1 * float(w @ (ens.F_list[k] @ ens.theta)) / (d * math.sqrt(p)))
        q0s.append(k1**2 * float(projections[k] @ projections[k]) / (d * p) + ks2 * float(w @ w) / p)
    for a in range(K):
        for b in range(a + 1, K):
            q1s.append(k1**2 * float(projections[a] @ projections[b]) / (d * p))
    return Overlaps(
        m=float(np.mean(ms)),
        q0=float(np.mean(q0s)),
        q1=float(np.mean(q1s)) if q1s else math.nan,
    )


# ---------------------------------------------------------------------------
# Full experiment driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: object
    ok: bool
    m: float = math.nan
    q0: float = math.nan
    q1: float = math.nan
    train_loss: float = math.nan
    test_error: float = math.nan
    disagreement: float = math.nan
    grad_norm_max: float = math.nan
    error: str = ""


@dataclass
class ExperimentResult:
    records: list

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def aggregate(self) -> dict:
        out = {"trials": len(self.records), "failures": self.failures}
        good = [r for r in self.records if r.ok]
        for name in ("m", "q0", "q1", "train_loss", "test_error", "disagreement"):
            vals = np.array([getattr(r, name) for r in good], dtype=float)
            vals = vals[np.isfinite(vals)]
            if len(vals) == 0:
                out[name] = {"mean": math.nan, "std_error": math.nan}
                continue
            se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            out[name] = {"mean": float(np.mean(vals)), "std_error": se}
        return out


def _erf_surrogate(A: np.ndarray, a: np.ndarray, a2: np.ndarray, t: np.ndarray) -> np.ndarray:
    """tanh(a P(a^2)), a = clip(A, -6, 6), evaluated in the float32 buffers a, a2, t shaped like A.

    Within _ERF_DELTA of scipy's erf at every float64 A, the infinities
    included, and exactly odd; the result is in t.
    """
    np.clip(A, -_ERF_CLIP, _ERF_CLIP, out=a, casting="same_kind")
    np.multiply(a, a, out=a2)
    np.multiply(a2, _ERF_P[0], out=t)
    for c in _ERF_P[1:-1]:
        t += c
        t *= a2
    t += _ERF_P[-1]
    t *= a
    return np.tanh(t, out=t)


class _CertifiedErfScores:
    """Scores of erf-featurized test rows whose signs, and the signs of their sums, are the exact route's.

    The exact route's score is s_k = erf(A_k) w_k/sqrt(p), A_k = X F_k^T/sqrt(d),
    float64 products throughout (`featurize` followed by `preactivation`).
    Each chunk is first screened in float32: A~_k = fl32(X) G_k^T with
    G_k = fl32(F_k/sqrt(d)), the surrogate erf~ applied in place on it, and
    s~_k = erf~(A~_k) fl32(w_k)/sqrt(p). A dot product of n terms in unit
    roundoff u is off by at most gamma_n = n u/(1 - n u) times the sum of
    its terms' sizes, in any summation order (Higham 2002, sec. 3.1). With
    erf 2/sqrt(pi)-Lipschitz, erf~ within delta of scipy's erf, and scipy's
    erf within eps of erf, row i's screened score is within

      r_ik sqrt(p) = (delta + 2 eps + g32_{p+4} + g64_{p+4}) |w_k|_1
                     + (2/sqrt(pi)) (g32_{d+4} + g64_{d+4}) (|X_i| . v_k)/sqrt(d)
                     + 4 p 2^-150 + 2^-148 |v_k|_1/sqrt(d) + 2^-1000,   v_k = |F_k|^T |w_k|,

    of the exact route's: the first line is the surrogate, both erfs and
    both score products, the second both pre-activation products, the
    third the float32 and float64 underflows (g32, g64 are gamma in 2^-24
    and 2^-53; the +4 leaves room for the conversions to float32, the
    scalings and the rounding of r itself). The radius is infinite for a
    learner whose weights or G_k do not fit float32 (|w_k|_1 > 2^64, or an
    entry of F_k/sqrt(d) that is not 0 and not of size in [2^-126, 2^64]);
    the test rows are standard normal, so fl32(X) overflows nowhere.

    A score with |s~_ik| > r_ik has the sign of s_ik. For a summing
    estimator, a row whose sum S~ has |S~| > R + K 2^-50 (sum_k |s~_k| + R),
    R = sum_k r_ik, has the sign of the exact route's sum: the last term
    bounds the float64 rounding of both sums, in any order, also where some
    of the row's scores are then replaced by better ones. A nan score or an
    infinite radius certifies nothing.

    Every score the screen leaves open, and every score of a row whose sum it
    leaves open, is recomputed in float64 on those rows alone
    (`_row_scores`). That route and the exact route are float64 products
    over blocks of different shapes, so they may round differently, each
    within its gamma bounds: the row score is within

      r'_ik sqrt(p) = (2 eps + 2 g64_{p+4}) |w_k|_1
                      + (2/sqrt(pi)) 2 g64_{d+4} (|X_i| . v_k)/sqrt(d) + 2^-1000

    of the exact route's, and the same two tests run again with r' in place
    of r. What they still leave open is rescored on the exact route itself
    by `_rescore`. The screen runs _SCREEN_ROWS rows at a time in buffers
    reused across blocks and chunks.
    """

    def __init__(self, ensemble: FeatureEnsemble, W: np.ndarray, sums: bool, rows: int):
        p, d = ensemble.p, ensemble.d
        self.F_list, self.W, self.sums = ensemble.F_list, W, sums
        self.sqrt_p = math.sqrt(p)
        absW = np.abs(W)
        w1 = absW.sum(axis=0)
        self.V = np.column_stack([np.abs(F).T @ absW[:, k] for k, F in enumerate(self.F_list)])
        self.fits = [w1[k] <= 2.0**64 and _fits_float32(F / math.sqrt(d)) for k, F in enumerate(self.F_list)]
        g32, g64 = partial(_gamma, u=2.0**-24), partial(_gamma, u=2.0**-53)
        lipschitz = 2.0 / math.sqrt(math.pi) / math.sqrt(d)
        screen_w = (
            (_ERF_DELTA + 2.0 * _ERF_EPS + g32(p + 4) + g64(p + 4)) * w1
            + 4 * p * 2.0**-150 + 2.0**-148 * self.V.sum(axis=0) / math.sqrt(d) + 2.0**-1000
        )
        self.screen_coef = (lipschitz * (g32(d + 4) + g64(d + 4)), np.where(self.fits, screen_w, np.inf))
        self.row_coef = (lipschitz * 2.0 * g64(d + 4), (2.0 * _ERF_EPS + 2.0 * g64(p + 4)) * w1 + 2.0**-1000)
        rows = min(rows, _SCREEN_ROWS)
        self.G32, self.w32 = np.empty((p, d), dtype=np.float32), np.empty(p, dtype=np.float32)
        self.X32 = np.empty((rows, d), dtype=np.float32)
        self.absX = np.empty((rows, d))
        self.buffers = [np.empty((rows, p), dtype=np.float32) for _ in range(3)]

    def screen(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the screened (rows, K) scores of the inputs X into `out`; return |X_i| . v_k, (rows, K).

        One learner at a time, in blocks of _SCREEN_ROWS rows; a learner that
        does not fit float32 is screened as zeros, which its infinite radius
        leaves open.
        """
        blocks = [slice(start, start + _SCREEN_ROWS) for start in range(0, X.shape[0], _SCREEN_ROWS)]
        G, w32 = self.G32, self.w32
        for k, F in enumerate(self.F_list):
            if not self.fits[k]:
                out[:, k] = 0.0
                continue
            np.divide(F, math.sqrt(F.shape[1]), out=G, casting="same_kind")
            np.copyto(w32, self.W[:, k], casting="same_kind")
            for block in blocks:
                rows = X[block].shape[0]
                X32 = self.X32[:rows]
                np.copyto(X32, X[block], casting="same_kind")
                A, a2, t = (buf[:rows] for buf in self.buffers)
                np.matmul(X32, G.T, out=A)
                out[block, k] = np.matmul(_erf_surrogate(A, A, a2, t), w32)
        out /= self.sqrt_p
        xv = np.empty(out.shape)
        for block in blocks:
            np.matmul(np.abs(X[block], out=self.absX[: X[block].shape[0]]), self.V, out=xv[block])
        return xv

    def radius(self, xv: np.ndarray, coef: tuple) -> np.ndarray:
        """The radii (x xv + w)/sqrt(p) of one level, coef = (x, w) with w per learner."""
        x, w = coef
        return (x * xv + w) / self.sqrt_p

    def open_scores(self, scores: np.ndarray, radius: np.ndarray) -> np.ndarray:
        """(rows, K) mask of the scores whose sign, or whose row's summed sign, the radii leave open."""
        open_ = ~(np.abs(scores) > radius)
        if self.sums:
            R = radius.sum(axis=1)
            bound = R + scores.shape[1] * 2.0**-50 * (np.abs(scores).sum(axis=1) + R)
            open_ |= ~(np.abs(scores.sum(axis=1)) > bound)[:, None]
        return open_

    def __call__(self, X: np.ndarray, out: np.ndarray) -> None:
        """Write the (rows, K) scores of the inputs X into `out`."""
        xv = self.screen(X, out)
        radius = self.radius(xv, self.screen_coef)
        open_ = self.open_scores(out, radius)
        if not open_.any():
            return
        row_radius = self.radius(xv, self.row_coef)
        for k, F in enumerate(self.F_list):
            rows = np.flatnonzero(open_[:, k])
            if rows.size:
                out[rows, k] = _row_scores(X[rows], F, self.W[:, k])
                radius[rows, k] = row_radius[rows, k]
        open_ = self.open_scores(out, radius)
        if open_.any():
            A = np.empty((X.shape[0], self.W.shape[0]))
            for k, F in enumerate(self.F_list):
                _rescore(X, F, self.W[:, k], np.flatnonzero(open_[:, k]), A, out[:, k])


def _gamma(n: int, u: float) -> float:
    """gamma_n = n u/(1 - n u), infinite once n u reaches 1/2."""
    return n * u / (1.0 - n * u) if n * u < 0.5 else math.inf


def _fits_float32(G: np.ndarray) -> bool:
    """Whether every entry of G is 0 or of size in [2^-126, 2^64], so float32 holds it to relative 2^-24."""
    size = np.abs(G)
    return bool(np.all((size == 0) | ((size >= 2.0**-126) & (size <= 2.0**64))))


def _row_scores(X: np.ndarray, F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The float64 scores erf(X F^T/sqrt(d)) w/sqrt(p) of the rows X, formed on those rows alone."""
    A = _preactivations(X, F)
    return preactivation(scipy_special().erf(A, out=A), w)


def _rescore(X, F, w, rows: np.ndarray, A: np.ndarray, out: np.ndarray) -> None:
    """Write the exact scores erf(A) w/sqrt(p) of the given rows into `out`, A = X F^T/sqrt(d) in the buffer A.

    A is formed for the whole chunk and the product runs over the whole
    block, so each row rounds as it does in featurize followed by
    preactivation: a row's score does not depend on the other rows, but the
    BLAS kernel, and so its rounding, depends on the block's shape.
    """
    if rows.size:
        _preactivations(X, F, out=A)
        A[rows] = scipy_special().erf(A[rows])
        out[rows] = preactivation(A, w)[rows]


def _exact_scores(learners: list[FeatureEnsemble], W: np.ndarray, X: np.ndarray, out: np.ndarray) -> None:
    """Write the (rows, K) scores of the inputs X into `out`, featurizing one learner at a time."""
    for k, learner in enumerate(learners):
        (U,) = featurize(X, learner)
        out[:, k] = preactivation(U, W[:, k])


def _sampled_test_scores(seed, theta, teacher, ensemble, W, samples, estimator):
    """Labels (samples,) and scores (samples, K) of fresh test points, scored in row chunks.

    The points come from the trial's "test" stream, drawn _TEST_CHUNK rows at
    a time into one reused buffer, which gives the rows of one (samples, d)
    draw, and each chunk is scored one learner at a time, so memory grows
    neither with `samples` beyond the labels and scores nor with K beyond
    one column of scores. The last chunk takes the remainder: a BLAS product
    over a few rows takes another kernel and rounds differently, so no chunk
    is shorter than _TEST_CHUNK rows unless it is the only one.

    A named sign estimator on erf features reads only signs, so its chunks
    are scored by `_CertifiedErfScores`, which screens them in float32,
    gives every sign it reads as the exact route does, and computes erf in
    float64 only on the rows it cannot decide; every other case featurizes
    each chunk exactly.
    """
    rng = np.random.default_rng(derive_seed(seed, "test"))
    y = np.empty(samples)
    scores = np.empty((samples, W.shape[1]))
    bounds = list(range(0, samples, _TEST_CHUNK))[: max(1, samples // _TEST_CHUNK)] + [samples]
    longest = int(np.max(np.diff(bounds)))
    if ensemble.activation is scipy_special().erf and resolve_estimator(estimator).positive is not None:
        score = _CertifiedErfScores(ensemble, W, estimator == "avg_sign", longest)
    else:
        score = partial(_exact_scores, _learners(ensemble), W)
    points = np.empty((longest, ensemble.d))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        X = rng.standard_normal(out=points[: stop - start])
        y[start:stop] = apply_teacher(teacher_field(X, theta), teacher)
        score(X, scores[start:stop])
    return y, scores


def _default_estimator(spec: ChannelSpec) -> str:
    return "mean" if spec.loss == "square" else "avg_sign"


def _check_test_samples(test_samples: int) -> None:
    # a bool or a float would reach numpy's sampler as a shape and fail there, inside the first trial
    if not (isinstance(test_samples, (int, np.integer)) and not isinstance(test_samples, bool) and test_samples >= 1):
        raise ConfigError(f"test_samples must be an int >= 1, got {test_samples!r}")


def run_trial(
    trial: int,
    seed,
    spec: ChannelSpec,
    coeffs: ActivationCoeffs,
    n: int,
    p: int,
    d: int,
    K: int,
    rho: float,
    lam: float,
    estimator: str,
    activation: Optional[Callable] = None,
    test_samples: int = DEFAULT_TEST_SAMPLES,
) -> TrialRecord:
    """Train one K-learner ensemble and score it; the activation defaults to scipy's erf ufunc."""
    _check_test_samples(test_samples)
    try:
        dataset = generate_dataset(n, d, rho, spec.teacher, seed)
        ensemble = sample_feature_ensemble(
            K, p, d, coeffs, dataset.theta, seed=derive_seed(seed, "features"), activation=activation
        )
        # looked up at call time, so a wrapper set on the module is the one called
        trainer = {"square": train_ridge, "logistic": train_logistic}.get(spec.loss)
        if trainer is None:
            raise ConfigError(f"no trainer for loss {spec.loss!r}")
        # one learner's n x p training features at a time: featurize, train, score, drop
        W = np.empty((p, K))
        z_train = np.empty((n, K))
        grad_norms = np.empty(K)
        for k, learner in enumerate(_learners(ensemble)):
            (U,) = featurize(dataset.X, learner)
            trained = trainer([U], dataset.y, lam)
            W[:, k] = trained[0][:, 0]
            grad_norms[k] = trained[1][0]
            z_train[:, k] = preactivation(U, W[:, k])
            del U
        overlaps = empirical_overlaps(ensemble, W)

        if spec.loss == "square":
            train_loss = float(np.mean(0.5 * (dataset.y[:, None] - z_train) ** 2))
        else:
            train_loss = float(np.mean(np.logaddexp(0.0, -dataset.y[:, None] * z_train)))

        disagreement = math.nan
        if spec.loss == "square" and estimator == "mean" and ensemble.activation is scipy_special().erf:
            test_error = square_test_error_erf(dataset.theta, ensemble, W)
        else:
            y_test, scores = _sampled_test_scores(
                seed, dataset.theta, spec.teacher, ensemble, W, test_samples, estimator
            )
            y_hat = resolve_estimator(estimator).f_hat(scores)
            if spec.loss == "square":
                test_error = float(np.mean((y_test - y_hat) ** 2))
            else:
                test_error = float(np.mean(y_test != y_hat))
            if K >= 2 and spec.teacher == "sign":
                positive = scores >= 0
                pair_dis = [
                    float(np.mean(positive[:, a] != positive[:, b])) for a in range(K) for b in range(a + 1, K)
                ]
                disagreement = float(np.mean(pair_dis))
        return TrialRecord(
            trial=trial,
            seed=seed,
            ok=True,
            m=overlaps.m,
            q0=overlaps.q0,
            q1=overlaps.q1,
            train_loss=train_loss,
            test_error=test_error,
            disagreement=disagreement,
            grad_norm_max=float(np.max(grad_norms)),
        )
    except (ConfigError, DomainError, NumericalError, ConvergenceError) as exc:
        return TrialRecord(trial=trial, seed=seed, ok=False, error=f"{type(exc).__name__}: {exc}")


def run_experiment(
    spec: ChannelSpec,
    coeffs: ActivationCoeffs,
    n: int,
    p: int,
    d: int,
    K: int,
    rho: float,
    lam: float,
    trials: int,
    master_seed: int = 0,
    estimator: Optional[str] = None,
    activation: Optional[Callable] = None,
    test_samples: int = DEFAULT_TEST_SAMPLES,
    seeds: Optional[Sequence] = None,
    map_fn=map,
) -> ExperimentResult:
    """Run independent trials and aggregate; failures are recorded per trial.

    Trials are deterministic in (master_seed, trial index) or in the explicit
    seed list; `map_fn` may be an executor map for parallel runs. The
    overlaps read kappa1 and kappa_star^2 from `coeffs` while the features
    apply `activation`, so `coeffs` must be the activation's own (on the
    order-201 Gauss-Hermite rule) to 1e-9 relative. The activation defaults
    to scipy's erf ufunc, which the lab applies in place and scores by
    certified signs.
    """
    if trials < 0:
        raise ConfigError("trials must be >= 0")
    _check_test_samples(test_samples)
    if activation is None:
        activation = scipy_special().erf
    own = activation_coeffs(activation, gauss_hermite_rule(201))
    given, want = (np.array([c.kappa0, c.kappa1, c.kappa_star]) for c in (coeffs, own))
    if np.max(np.abs(given - want)) > 1e-9 * np.max(np.abs(want)):
        raise ConfigError(f"coeffs {coeffs} are not the activation's own {own}")
    estimator = estimator or _default_estimator(spec)
    if estimator == "mean" and spec.loss != "square":
        raise ConfigError(f"estimator 'mean' never equals a +-1 label; loss {spec.loss!r} needs a sign estimator")
    if seeds is None:
        seeds = [(master_seed, t) for t in range(trials)]
    elif len(seeds) != trials:
        raise ConfigError("seed list length must equal trials")
    for seed in seeds:  # a seed out of range fails here, before any trial runs
        derive_seed(seed)
    worker = partial(
        _trial_worker, spec=spec, coeffs=coeffs, n=n, p=p, d=d, K=K, rho=rho, lam=lam,
        estimator=estimator, activation=activation, test_samples=test_samples,
    )
    records = list(map_fn(worker, list(enumerate(seeds))))
    records.sort(key=lambda r: r.trial)
    return ExperimentResult(records=records)


def _trial_worker(job: tuple, **shared) -> TrialRecord:
    """Run one (trial, seed) job; module-level so a partial of it pickles into process pools."""
    trial, seed = job
    return run_trial(trial, seed, **shared)
