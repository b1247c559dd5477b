"""Prior (tilde-parameter) updates: conjugates back to order parameters.

Two routes implement the same map. The spectral route integrates against
the feature-covariance density; the kernel route is its p -> infinity limit
at fixed n/d. The finite-matrix trace formulas the spectral route must
reproduce as p grows are a test oracle (tests/oracles.py), as are the
kernel-ridge one-shot closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channels import ChannelSpec, ConjugateParams, OrderParams, channel_update
from .errors import ConfigError, DomainError, ResourceError
from .special import scipy_special
from .spectrum import (
    MAX_MATRIX_ENTRIES,
    ActivationCoeffs,
    SpectralModel,
    sample_feature_matrix,
    spectral_integral,
)


def prior_update_spectral(conj: ConjugateParams, lam: float, model: SpectralModel) -> OrderParams:
    """Spectral form of the ridge prior update.

    gamma and kappa_star^2 are the model's aspect and shift. q1 uses the
    factorized form (m_hat^2 + q1_hat) I^2 / gamma with
    I = int (s - kappa_star^2) rho(s) / (lam + v_hat s) ds, which is
    algebraically identical to (1 + q1_hat/m_hat^2) m^2 but stays finite at
    m_hat = 0 (uninformative iterates of symmetric teachers).
    """
    mh, q0h, q1h, vh = conj.m_hat, conj.q0_hat, conj.q1_hat, conj.v_hat
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    smin = model.support_min
    if lam + vh * smin <= 0:
        raise DomainError(f"lam + v_hat*s vanishes on the spectral support (min s = {smin})")
    gamma = model.aspect
    a2 = q0h + mh**2
    b1 = mh**2 * model.shift
    s_sq, s_shifted = model.node_terms

    def integrands(s):
        # v, I_theta and q0 in one pass over the support, written into one
        # buffer; each element sees the operations of the textbook form
        # s/D, (s - ks2)/D, (a2 s^2 - b1 s)/D^2 in the same order, s^2 and
        # s - ks2 read from the model's cache of its fixed nodes
        rows = np.empty((3, len(s)))
        v_row, i_row, q_row = rows
        denom = np.multiply(vh, s)
        np.add(lam, denom, out=denom)
        np.divide(s, denom, out=v_row)
        np.divide(s_shifted, denom, out=i_row)
        np.multiply(a2, s_sq, out=q_row)
        q_row -= np.multiply(b1, s)
        np.multiply(denom, denom, out=denom)
        np.divide(q_row, denom, out=q_row)
        return rows

    v, i_theta, q0 = spectral_integral(model, integrands)
    m = mh / math.sqrt(gamma) * i_theta
    q1 = (mh**2 + q1h) * i_theta**2 / gamma
    return OrderParams(m, q0, q1, v)


@dataclass(frozen=True)
class FeatureEnsemble:
    """K sampled feature matrices plus the teacher vector they all see."""

    F_list: tuple
    coeffs: ActivationCoeffs
    theta: np.ndarray
    seeds: tuple
    activation: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        shapes = {F.shape for F in self.F_list}
        if len(shapes) != 1:
            raise ConfigError(f"all feature matrices must share (p, d), got {shapes}")
        if len(self.F_list) != len(self.seeds):
            raise ConfigError("one seed per feature matrix")
        p, d = self.F_list[0].shape
        if self.theta.shape != (d,):
            raise ConfigError(f"teacher must have shape ({d},), got {self.theta.shape}")

    @property
    def K(self) -> int:
        return len(self.F_list)

    @property
    def p(self) -> int:
        return self.F_list[0].shape[0]

    @property
    def d(self) -> int:
        return self.F_list[0].shape[1]


def sample_feature_ensemble(
    K: int,
    p: int,
    d: int,
    coeffs: ActivationCoeffs,
    theta: np.ndarray,
    seed: int,
    activation: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> FeatureEnsemble:
    """Sample K independent feature matrices from child streams of `seed`.

    The activation defaults to scipy's erf ufunc, the ERM lab's erf.
    """
    if K < 1:
        raise ConfigError("K must be >= 1")
    if p * d * K > MAX_MATRIX_ENTRIES:
        raise ResourceError(f"ensemble size K*p*d = {K * p * d} exceeds cap {MAX_MATRIX_ENTRIES}")
    seeds = tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(K))
    F_list = tuple(sample_feature_matrix(s, p, d) for s in seeds)
    if activation is None:
        activation = scipy_special().erf
    return FeatureEnsemble(F_list=F_list, coeffs=coeffs, theta=np.asarray(theta, dtype=float), seeds=seeds, activation=activation)


# ---------------------------------------------------------------------------
# Kernel limit (p -> infinity at fixed delta = n/d)
# ---------------------------------------------------------------------------


def kernel_channel_update(
    params: OrderParams,
    rho: float,
    delta: float,
    spec: ChannelSpec,
) -> ConjugateParams:
    """Channel step in rescaled kernel variables; m_hat carries sqrt(delta)."""
    if delta < 0:
        raise DomainError(f"delta must be nonnegative, got {delta}")
    base = channel_update(params, rho, alpha=1.0, gamma=1.0, spec=spec)
    return ConjugateParams(math.sqrt(delta) * base.m_hat, base.q0_hat, base.q1_hat, base.v_hat)


def kernel_prior_update(conj: ConjugateParams, lam: float, delta: float, coeffs: ActivationCoeffs) -> OrderParams:
    """Closed-form kernel-limit prior update.

    These are the p -> infinity limits of the spectral integrals: the bulk of
    the spectrum escapes to kappa1^2 p/d while the atom pins kappa_star^2,
    leaving rational functions of lam + delta kappa1^2 v_hat.
    """
    if not lam > 0:
        raise DomainError(f"kernel-limit prior requires lam > 0, got {lam}")
    if delta < 0:
        raise DomainError(f"delta must be nonnegative, got {delta}")
    mh, q0h, q1h, vh = conj.m_hat, conj.q0_hat, conj.q1_hat, conj.v_hat
    k1sq = coeffs.kappa1**2
    ks2 = coeffs.kappa_star_sq
    denom = lam + delta * k1sq * vh
    v = ks2 / lam + k1sq / denom
    m = math.sqrt(delta) * k1sq * mh / denom
    q0 = delta * k1sq**2 * (q0h + mh**2) / denom**2
    q1 = delta * k1sq**2 * (q1h + mh**2) / denom**2
    return OrderParams(m, q0, q1, v)
