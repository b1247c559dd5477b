"""The theory's erf and expit (rfensemble.special) against their contract and scipy's ufuncs."""

import math

import numpy as np
import pytest
import scipy.special

from rfensemble import activation_coeffs, erm_lab, gauss_hermite_rule
from rfensemble.special import erf, expit

# any RuntimeWarning (an overflow in exp, an invalid erf) fails the test that raises it
pytestmark = pytest.mark.filterwarnings("error")


def _ulps(a, b):
    """Units in the last place between float64 arrays of one sign, nans and equal values at 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    return np.where(same, 0, np.abs(a.view(np.int64) - b.view(np.int64)))


class TestErf:
    def test_odd_on_a_grid(self):
        x = np.concatenate([np.linspace(0, 8, 100_001), np.logspace(-300, 300, 601)])
        np.testing.assert_array_equal(erf(-x), -erf(x))

    def test_signed_zeros_infinities_and_nan(self):
        got = erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert got[:4].tolist() == [0.0, 0.0, 1.0, -1.0]
        assert np.signbit(got[:2]).tolist() == [False, True]
        assert math.isnan(got[4])

    def test_keeps_the_shape_and_gives_float64(self):
        x = np.linspace(-3, 3, 24).reshape(2, 3, 4)
        got = erf(x)
        assert got.shape == (2, 3, 4) and got.dtype == np.float64
        assert got.tolist() == [[[math.erf(v) for v in row] for row in block] for block in x.tolist()]
        assert erf(np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("x", [0.3, -2, np.float64(0.3), np.array(0.3)], ids=["float", "int", "float64", "0-d"])
    def test_scalar_gives_a_float(self, x):
        got = erf(x)
        assert type(got) is float and got == math.erf(float(x))

    def test_scipy_erf_within_half_the_lab_allowance(self):
        # the certified scores' radii take scipy's erf within erm_lab._ERF_EPS of erf
        x = np.concatenate([np.linspace(-7, 7, 10**6 + 1), np.logspace(-300, 2, 10**4)])
        x = np.concatenate([x, -x])
        worst = np.max(np.abs(scipy.special.erf(x) - erf(x)))
        assert 2 * worst <= erm_lab._ERF_EPS, f"worst error {worst:.3e}"

    def test_gauss_hermite_coefficients_match_the_closed_forms(self):
        # kappa1 = E[Z erf(Z)] = 2/sqrt(3 pi), E[erf(Z)^2] = (2/pi) arcsin(2/3)
        coeffs = activation_coeffs(erf, gauss_hermite_rule(201))
        kappa1 = 2.0 / math.sqrt(3.0 * math.pi)
        assert abs(coeffs.kappa0) <= 1e-15
        assert abs(coeffs.kappa1 - kappa1) <= 1e-15
        assert abs(coeffs.kappa_star_sq - (2.0 / math.pi * math.asin(2.0 / 3.0) - kappa1**2)) <= 1e-15


class TestExpit:
    def test_within_2_ulp_of_scipy_outside_the_tie_band(self):
        x = np.concatenate([np.linspace(-800, 800, 1_600_001), [700, -700, 800, -800, np.inf, -np.inf, np.nan]])
        got, want = expit(x), scipy.special.expit(x)
        assert np.array_equal(np.isnan(got), np.isnan(x))
        # exp(-x) in [2^53, 2^54) makes 1 + exp(-x) a tie, rounded to even:
        # there numpy's exp, which may differ from the C library's by one ulp,
        # moves the sum by two ulp of its own, and the result by up to 4 ulp
        with np.errstate(over="ignore"):
            band = (np.exp(-x) >= 2.0**53) & (np.exp(-x) < 2.0**54)
        assert _ulps(got[~band], want[~band]).max() <= 2
        assert _ulps(got[band], want[band]).max() <= 4

    def test_limits_and_nan(self):
        got = expit(np.array([np.inf, -np.inf, 800.0, -800.0, 0.0, np.nan]))
        assert got[:5].tolist() == [1.0, 0.0, 1.0, 0.0, 0.5]
        assert math.isnan(got[5])

    def test_scalar_and_shape(self):
        assert expit(-800.0) == 0.0
        assert expit(np.zeros((2, 3))).shape == (2, 3)
