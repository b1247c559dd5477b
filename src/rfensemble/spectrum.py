"""Activation coefficients and the feature-covariance spectrum.

A random-features map u(x) = phi(F x / sqrt(d)) with F (p x d) Gaussian has
population covariance Omega = (kappa1^2/d) F F^T + kappa_star^2 I_p once the
nonlinearity is reduced to its Gaussian-equivalent coefficients

    kappa0 = E[phi(Z)],  kappa1 = E[Z phi(Z)],
    kappa_star^2 = E[phi(Z)^2] - kappa0^2 - kappa1^2.

The spectrum of Omega is a Marchenko-Pastur bulk of shape c = p/d, scale
kappa1^2, shifted by kappa_star^2, plus an atom of mass [1 - d/p]_+ at
kappa_star^2 when p > d (rank deficiency of F F^T). `SpectralModel` is that
closed form alone, and `spectral_integral` integrates against it. The exact
spectrum of one sampled Omega is a test oracle (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .quadrature import QuadratureRule

MAX_MATRIX_ENTRIES = 50_000_000
DEFAULT_BULK_NODES = 2001


@dataclass(frozen=True)
class ActivationCoeffs:
    kappa0: float
    kappa1: float
    kappa_star: float

    def __post_init__(self):
        if self.kappa_star < 0:
            raise DomainError("kappa_star is stored as the nonnegative root")

    @property
    def kappa_star_sq(self) -> float:
        return self.kappa_star**2


def activation_coeffs(activation: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> ActivationCoeffs:
    """Gaussian-equivalent coefficients of a scalar activation."""
    vals = np.asarray(activation(rule.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("activation evaluated non-finite on quadrature nodes")
    k0 = float(rule.weights @ vals)
    k1 = float(rule.weights @ (rule.nodes * vals))
    second = float(rule.weights @ vals**2)
    resid = second - k0 * k0 - k1 * k1
    if resid < -1e-8:
        raise DomainError(f"E[phi^2] - kappa0^2 - kappa1^2 = {resid} < 0: inconsistent quadrature")
    return ActivationCoeffs(kappa0=k0, kappa1=k1, kappa_star=float(np.sqrt(max(resid, 0.0))))


@dataclass(frozen=True)
class SpectralModel:
    """Closed-form spectral density of the feature covariance.

    The bulk is the shifted MP law parameterized by (aspect, scale, shift) =
    (d/p, kappa1, kappa_star^2); the atom of mass [1 - d/p]_+ sits at the
    shift.
    """

    aspect: float
    scale: float
    shift: float
    bulk_nodes: int = DEFAULT_BULK_NODES

    @cached_property
    def atom_mass(self) -> float:
        return max(0.0, 1.0 - self.aspect)

    @cached_property
    def atom_location(self) -> float:
        return self.shift

    @cached_property
    def support_min(self) -> float:
        lo = self.shift + self.scale**2 * (1 - np.sqrt(1.0 / self.aspect)) ** 2
        return min(lo, self.atom_location) if self.atom_mass > 0 else lo

    @property
    def support_max(self) -> float:
        return self.shift + self.scale**2 * (1 + np.sqrt(1.0 / self.aspect)) ** 2

    @cached_property
    def bulk_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, weights) of the closed-form bulk, built once per model, read-only.

        Every weight is positive and finite, so a non-finite integrand value
        anywhere on the bulk makes its weighted sum non-finite.
        """
        nodes, weights = _mp_bulk_grid(self)
        if not (np.isfinite(weights).all() and (weights > 0).all()):
            raise NumericalError("MP bulk weights must be positive and finite")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return nodes, weights

    @cached_property
    def support_nodes(self) -> np.ndarray:
        """The closed-form bulk nodes followed by the atom when it has mass, read-only."""
        nodes = self.bulk_grid[0]
        if self.atom_mass > 0:
            nodes = np.append(nodes, self.atom_location)
            nodes.setflags(write=False)
        return nodes

    @cached_property
    def node_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """s*s and s - shift on the support nodes, read-only, built once per model."""
        s = self.support_nodes
        terms = (np.multiply(s, s), np.subtract(s, self.shift))
        for t in terms:
            t.setflags(write=False)
        return terms


def mp_spectral_model(alpha: float, gamma: float, coeffs: ActivationCoeffs, bulk_nodes: int = DEFAULT_BULK_NODES) -> SpectralModel:
    """Closed-form shifted Marchenko-Pastur model for Gaussian feature matrices.

    Stated for centered activations; a nonzero kappa0 adds a rank-one block
    the closed form does not carry.
    """
    if not (alpha > 0 and gamma > 0):
        raise ConfigError(f"alpha and gamma must be positive, got {alpha}, {gamma}")
    if abs(coeffs.kappa0) > 1e-10:
        raise ConfigError(f"closed-form MP spectrum assumes a centered activation, got kappa0 = {coeffs.kappa0}")
    return SpectralModel(aspect=gamma, scale=coeffs.kappa1, shift=coeffs.kappa_star_sq, bulk_nodes=bulk_nodes)


def sample_feature_matrix(seed: int, p: int, d: int) -> np.ndarray:
    """The i.i.d. N(0,1) feature matrix F of u(x) = phi(F x / sqrt(d)).

    One draw per seed, shared by `priors.sample_feature_ensemble` (and
    through it the ERM lab) and the finite-p test oracles.
    """
    return np.random.default_rng(seed).standard_normal((p, d))


def _mp_bulk_grid(model: SpectralModel):
    """Midpoint grid under x = lo + (hi-lo) sin^2(t).

    The substitution absorbs the square-root vanishing of the MP density at
    both soft edges, so the transformed integrand is smooth and the midpoint
    rule converges spectrally.
    """
    c = 1.0 / model.aspect
    b2 = model.scale**2
    lo = b2 * (1 - np.sqrt(c)) ** 2
    hi = b2 * (1 + np.sqrt(c)) ** 2
    n = model.bulk_nodes
    t = (np.arange(n) + 0.5) * (np.pi / 2) / n
    x = lo + (hi - lo) * np.sin(t) ** 2
    dx = (hi - lo) * 2 * np.sin(t) * np.cos(t) * (np.pi / 2) / n
    density = np.sqrt(np.maximum((hi - x) * (x - lo), 0.0)) / (2 * np.pi * c * b2 * x)
    return x + model.shift, density * dx


def spectral_integral(model: SpectralModel, g: Callable[[np.ndarray], np.ndarray]) -> float | list[float]:
    """Integral of g against the spectral density (bulk + atom).

    g maps the array s of support points either to one array of g(s), and
    the integral is a float, or to a stack of k rows of shape (k, len(s)),
    one integrand per row, and the result is a list of k floats. g is called
    once, on the MP bulk nodes followed by the atom
    (`SpectralModel.support_nodes`). Each row of a stack is summed on its
    own (`row[:n] @ w` over the n bulk nodes plus atom_mass times its atom
    value), so it equals the single-integrand call bit for bit. Every row's
    bulk sum and atom value must be finite: a non-finite value on the bulk,
    or a finite row whose sum overflows, raises NumericalError.
    """
    w = model.bulk_grid[1]
    n = len(w)
    vals = np.asarray(g(model.support_nodes), dtype=float)
    rows = vals if vals.ndim == 2 else vals[np.newaxis]
    out = [float(row[:n] @ w) for row in rows]
    if not all(map(math.isfinite, out)):
        raise NumericalError("spectral integrand non-finite on MP bulk support")
    if model.atom_mass > 0:
        atom_vals = rows[:, n]
        if not np.isfinite(atom_vals).all():
            raise NumericalError(f"spectral integrand non-finite at atom s={model.atom_location}")
        out = [x + model.atom_mass * float(a) for x, a in zip(out, atom_vals)]
    return out if vals.ndim == 2 else out[0]
