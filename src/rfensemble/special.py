"""The theory's erf and expit, on numpy and the standard library alone.

The fixed-point theory evaluates erf only as a formula, on a few hundred
nodes per call: the erf activation's coefficients kappa1 and kappa_star,
the sign-teacher measure Z0 and the hinge's erf-weighted panels. It takes
erf from `math.erf`, applied elementwise, and expit from scipy's own
formula 1/(1 + exp(-x)) on numpy, so that no theory command loads
scipy.special, which costs about 0.25 s and 18 MB of start-up.

The ERM lab featurizes millions of entries per trial, where scipy's erf
ufunc is about 10x faster than `math.erf` elementwise, and the certified
signs of its test scores are proved for scipy's erf (docs/formula_map.md
row 31). It keeps scipy's ufuncs, imported through `scipy_special` the
first time a trial needs them; the two erfs share no code.
"""

from __future__ import annotations

import math

import numpy as np


def erf(x):
    """The error function by `math.erf`: a float for a scalar, else a float64 array of x's shape."""
    if np.ndim(x) == 0:
        return math.erf(x)
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


def expit(x):
    """The logistic sigmoid 1/(1 + exp(-x)), scipy's formula; exp(-x) overflows to inf silently, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.negative(x)))


def scipy_special():
    """scipy.special, whose erf and expit ufuncs the ERM lab uses; imported at the first call."""
    import scipy.special

    return scipy.special
