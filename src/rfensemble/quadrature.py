"""Gaussian-expectation primitives.

Everything downstream (channel integrals, activation coefficients) consumes
expectations of the form E[g(Z)] with Z standard normal, or E[g(W, W')] with
(W, W') a correlated Gaussian pair of common variance q0 and covariance q1.
Rules use the probabilists' normalization: weights sum to 1 and nodes are
abscissae of the standard normal, so scaling lives in the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, NumericalError

MAX_ORDER = 320


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights normalized for expectations under N(0,1)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ConfigError("quadrature weights must sum to 1 within 1e-12")
        if np.any(np.diff(self.nodes) <= 0):
            raise ConfigError("quadrature nodes must be strictly increasing")
        if np.max(np.abs(self.nodes + self.nodes[::-1])) > 1e-12 * (1 + np.max(np.abs(self.nodes))):
            raise ConfigError("quadrature nodes must be symmetric about 0")


def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Probabilists' Gauss-Hermite rule of the given order.

    Exact for polynomial integrands of degree <= 2*order - 1 under N(0,1).
    Each order is built once per process; its arrays are read-only, so the
    one rule object is shared by every caller.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ConfigError(f"quadrature order must be a positive integer, got {order!r}")
    if order > MAX_ORDER:
        raise ConfigError(f"quadrature order {order} exceeds cap {MAX_ORDER}")
    return _build_gauss_hermite_rule(int(order))


@lru_cache(maxsize=None)
def _build_gauss_hermite_rule(order: int) -> QuadratureRule:
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / weights.sum()
    # symmetrize away last-ulp asymmetry from the eigenvalue solver
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def _check_finite(values: np.ndarray, what: str, *nodes: np.ndarray) -> None:
    """Raise NumericalError naming the first node where `values` is not finite.

    Each array in `nodes` holds one coordinate of the nodes and broadcasts
    against `values`.
    """
    values = np.atleast_1d(values)
    bad = ~np.isfinite(values)
    if bad.any():
        idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
        try:
            coords = [float(np.broadcast_to(x, bad.shape)[idx]) for x in nodes]
        except ValueError:
            coords = []
        node = coords[0] if len(coords) == 1 else tuple(coords) or None
        raise NumericalError(f"{what} evaluated non-finite at node {node}")


def expect_2d_correlated(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    q0: float,
    q1: float,
    rule: QuadratureRule,
) -> float:
    """E[g(W, W')] with Var(W)=Var(W')=q0 and Cov(W,W')=q1.

    Tensorized rule after a Cholesky transform of [[q0,q1],[q1,q0]]. The
    degenerate cases q1 = +/-q0 dispatch to an exact 1D expectation; the
    kernel limit drives q1 -> q0, so this path must not go through a
    near-singular factorization.

    Broadcasting contract: after the transform W depends only on the row
    node, so g receives W as an (n, 1) column and W' as the full (n, n)
    grid, and must return values that broadcast to (n, n); an integrand can
    then evaluate a factor of W alone once per row. In the degenerate cases
    both arguments are the same-shape (n,) vector of nodes.
    """
    if not q0 > 0:
        raise DomainError(f"q0 must be positive, got {q0}")
    if abs(q1) > q0 * (1 + 1e-12):
        raise DomainError(f"|q1|={abs(q1)} exceeds q0={q0}: covariance not PSD")
    s = np.sqrt(q0)
    if abs(q1) >= q0 * (1 - 1e-12):
        sign = 1.0 if q1 > 0 else -1.0
        w = s * rule.nodes
        vals = np.asarray(g(w, sign * w), dtype=float)
        _check_finite(vals, "integrand", w, sign * w)
        return float(rule.weights @ vals)
    z1 = rule.nodes[:, None]
    z2 = rule.nodes[None, :]
    w = s * z1
    wp = (q1 / s) * z1 + np.sqrt(q0 - q1 * q1 / q0) * z2
    vals = np.asarray(g(w, wp), dtype=float)
    _check_finite(vals, "integrand", w, wp)
    weights = rule.weights[:, None] * rule.weights[None, :]
    return float(np.sum(weights * vals))
