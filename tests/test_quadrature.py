import math

import numpy as np
import pytest

from rfensemble import ConfigError, DomainError, NumericalError, expect_2d_correlated, gauss_hermite_rule

from oracles import expect_1d


def gaussian_moment(k: int) -> float:
    """Exact E[Z^k] for Z ~ N(0,1): odd vanish, even are (k-1)!!."""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class TestGaussHermiteRule:
    def test_order_one_is_the_mean(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes.shape == (1,)
        np.testing.assert_allclose(rule.nodes[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(rule.weights[0], 1.0, atol=1e-15)

    def test_second_moment_exact_at_order_two(self):
        rule = gauss_hermite_rule(2)
        assert expect_1d(lambda x: x**2, rule) == pytest.approx(1.0, abs=1e-14)

    def test_fourth_moment_at_order_three(self):
        rule = gauss_hermite_rule(3)
        assert expect_1d(lambda x: x**4, rule) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("order", [0, -3, 321])
    def test_rejects_bad_orders(self, order):
        with pytest.raises(ConfigError):
            gauss_hermite_rule(order)

    def test_each_order_built_once_and_still_validated(self):
        rule = gauss_hermite_rule(61)
        assert gauss_hermite_rule(np.int64(61)) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        # 61.0 == 61 and hashes alike, so a cache in front of the check would serve it
        with pytest.raises(ConfigError):
            gauss_hermite_rule(61.0)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 13, 40])
    def test_polynomial_exactness_up_to_degree(self, order):
        rule = gauss_hermite_rule(order)
        for degree in range(2 * order):
            got = expect_1d(lambda x, d=degree: x**d, rule)
            # rounding floor scales with the even moment of comparable degree
            scale = gaussian_moment(degree if degree % 2 == 0 else degree + 1)
            assert got == pytest.approx(gaussian_moment(degree), abs=1e-10 + 1e-12 * scale)

    def test_weights_normalized_and_nodes_symmetric(self):
        rule = gauss_hermite_rule(101)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-14)


class TestExpect1d:
    def test_constant(self):
        assert expect_1d(lambda x: np.ones_like(x), gauss_hermite_rule(7)) == pytest.approx(1.0, abs=1e-14)

    def test_odd_function_vanishes(self):
        assert expect_1d(lambda x: x, gauss_hermite_rule(31)) == pytest.approx(0.0, abs=1e-14)

    def test_lognormal_moment(self):
        # oracle: E[exp(Z)] = exp(1/2) for a standard normal
        got = expect_1d(np.exp, gauss_hermite_rule(64))
        assert got == pytest.approx(math.exp(0.5), abs=1e-10)

    def test_nonfinite_integrand_names_node(self):
        rule = gauss_hermite_rule(11)
        with pytest.raises(NumericalError, match="node"):
            expect_1d(lambda x: 1.0 / x, rule)

    def test_refinement_stability(self):
        g = lambda x: np.tanh(x) ** 2 + np.cos(x)
        a = expect_1d(g, gauss_hermite_rule(101))
        b = expect_1d(g, gauss_hermite_rule(202))
        assert abs(a - b) < 1e-9  # below the solver tolerance the orders feed


class TestExpect2dCorrelated:
    def test_cross_moment_is_q1(self):
        rule = gauss_hermite_rule(41)
        for q0, q1 in [(1.0, 0.3), (2.5, -1.1), (0.7, 0.0)]:
            got = expect_2d_correlated(lambda a, b: a * b, q0, q1, rule)
            assert got == pytest.approx(q1, abs=1e-10)

    def test_marginal_variance_is_q0(self):
        rule = gauss_hermite_rule(41)
        got = expect_2d_correlated(lambda a, b: a**2, 1.7, 0.6, rule)
        assert got == pytest.approx(1.7, abs=1e-10)

    def test_degenerate_perfect_correlation(self):
        rule = gauss_hermite_rule(41)
        got = expect_2d_correlated(lambda a, b: (a - b) ** 2, 1.3, 1.3, rule)
        assert got == 0.0

    def test_degenerate_anticorrelation(self):
        rule = gauss_hermite_rule(41)
        got = expect_2d_correlated(lambda a, b: (a + b) ** 2, 0.9, -0.9, rule)
        assert got == 0.0

    def test_rejects_non_psd(self):
        with pytest.raises(DomainError):
            expect_2d_correlated(lambda a, b: a, 1.0, 1.5, gauss_hermite_rule(5))
        with pytest.raises(DomainError):
            expect_2d_correlated(lambda a, b: a, -1.0, 0.0, gauss_hermite_rule(5))

    def test_symmetric_integrand_symmetric_marginals(self):
        rule = gauss_hermite_rule(31)
        g_ab = expect_2d_correlated(lambda a, b: a**2 * np.cos(b), 1.2, 0.4, rule)
        g_ba = expect_2d_correlated(lambda a, b: b**2 * np.cos(a), 1.2, 0.4, rule)
        assert g_ab == pytest.approx(g_ba, abs=1e-12)

    def test_first_argument_is_a_row_column(self):
        # broadcasting contract: W arrives as an (n, 1) column, W' as (n, n)
        rule = gauss_hermite_rule(9)
        shapes = []

        def g(a, b):
            shapes.append((a.shape, b.shape))
            return np.cos(a) * b**2

        got = expect_2d_correlated(g, 1.4, 0.5, rule)
        assert shapes == [((9, 1), (9, 9))]
        # a factor of W alone evaluated per row gives the same expectation as
        # the same factor evaluated on the full grid
        full = expect_2d_correlated(lambda a, b: np.cos(a + 0 * b) * b**2, 1.4, 0.5, rule)
        assert got == pytest.approx(full, abs=1e-15)

    def test_nonfinite_integrand_names_pair_node(self):
        # odd order: the middle row has W = 0 exactly
        rule = gauss_hermite_rule(5)
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericalError, match=r"node \(0\.0, -"):
            expect_2d_correlated(lambda a, b: b / a, 1.0, 0.3, rule)
