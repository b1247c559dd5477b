import math

import numpy as np
import pytest
from scipy.integrate import quad

from rfensemble import (
    ChannelSpec,
    ConfigError,
    DomainError,
    OrderParams,
    channel_update,
    channel_update_hinge_closed_form,
    prox_hinge,
    prox_logistic,
    teacher_dz0,
    teacher_z0,
    training_loss,
)
import rfensemble.channels as channels
from rfensemble.channels import _hinge_pair_inner

import oracles
from oracles import prox_square

SQUARE = ChannelSpec(loss="square", teacher="linear")
LOGISTIC = ChannelSpec(loss="logistic", teacher="sign")
HINGE = ChannelSpec(loss="hinge", teacher="sign")


class TestChannelSpec:
    def test_valid_pairings(self):
        for loss, teacher in (("square", "linear"), ("logistic", "sign"), ("hinge", "sign")):
            spec = ChannelSpec(loss=loss, teacher=teacher)
            assert (spec.loss, spec.teacher) == (loss, teacher)

    @pytest.mark.parametrize("loss,teacher", [("square", "sign"), ("logistic", "linear"), ("hinge", "linear")])
    def test_rejects_mismatched_pairs(self, loss, teacher):
        with pytest.raises(ConfigError):
            ChannelSpec(loss=loss, teacher=teacher)


class TestTeacherMeasure:
    def test_balanced_at_zero_mean(self):
        assert teacher_z0(1, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        assert teacher_z0(1, 50.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_over_labels(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w0, s0 = rng.normal(), rng.uniform(0.1, 3.0)
            total = teacher_z0(1, w0, s0) + teacher_z0(-1, w0, s0)
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_dz0_standard_normal_density_at_zero(self):
        assert teacher_dz0(1, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-14)

    def test_dz0_label_antisymmetry(self):
        assert teacher_dz0(-1, 0.7, 1.3) == pytest.approx(-teacher_dz0(1, 0.7, 1.3), abs=1e-15)

    def test_dz0_is_derivative_of_z0(self):
        # oracle: central finite differences in the mean argument
        eps = 1e-6
        for w0, s0 in [(0.0, 1.0), (0.8, 0.5), (-1.2, 2.0)]:
            fd = (teacher_z0(1, w0 + eps, s0) - teacher_z0(1, w0 - eps, s0)) / (2 * eps)
            assert teacher_dz0(1, w0, s0) == pytest.approx(fd, abs=1e-6)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            teacher_z0(1, 0.0, 0.0)
        with pytest.raises(DomainError):
            teacher_dz0(1, 0.0, -1.0)


class TestProxSquare:
    def test_vanishing_step_returns_omega(self):
        assert prox_square(3.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_fixed_point_when_loss_minimized(self):
        for v in (0.1, 1.0, 10.0):
            assert prox_square(0.7, 0.7, v) == pytest.approx(0.7, abs=1e-15)

    def test_midpoint(self):
        assert prox_square(2.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def bisect_logistic_prox(y, omega, v, lo, hi, iters=200):
    """Independent bisection oracle for h = omega + y v sigmoid(-y h)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g = mid - omega - y * v / (1.0 + math.exp(min(y * mid, 700.0)))
        if g > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def mixed_grid(y, v):
    """Easy elements (|omega| >> v) and hard ones (omega near 0 and near -y v)."""
    return np.concatenate([
        [-5e4, -3e3, -2e3, 2e3, 3e3, 5e4],
        np.linspace(-5.0, 5.0, 41),
        -y * v + np.linspace(-5.0, 5.0, 41),
        np.random.default_rng(0).normal(0.0, 9.0, 300),
    ])


class TestProxLogistic:
    def test_vanishing_step(self):
        res = prox_logistic(1.0, np.array([0.4]), 1e-10)
        assert res.h[0] == pytest.approx(0.4, abs=1e-9)

    def test_reference_point_against_bisection_oracle(self):
        want = bisect_logistic_prox(1.0, 0.0, 1.0, 0.0, 1.0)
        res = prox_logistic(1.0, np.array([0.0]), 1.0)
        assert res.h[0] == pytest.approx(want, abs=1e-11)
        assert res.h[0] == pytest.approx(0.4011, abs=2e-4)

    def test_saturated_region(self):
        res = prox_logistic(1.0, np.array([40.0]), 1.0)
        assert res.h[0] == pytest.approx(40.0, abs=1e-10)

    @pytest.mark.parametrize("y", [1.0, -1.0])
    def test_mixed_grid_at_large_v(self, y):
        # easy elements (|omega| >> v) converge in a pass or two and are
        # frozen; hard ones (omega near 0 and near -y v, where the bracket is
        # v wide) keep iterating; every element must meet the scaled tolerance
        v = 500.0
        omega = mixed_grid(y, v)
        res = prox_logistic(y, omega, v)
        scale = max(1.0, np.max(np.abs(omega)) + v)
        resid = res.h - omega - y * v / (1.0 + np.exp(np.clip(y * res.h, -700, 700)))
        assert np.max(np.abs(resid)) <= 1e-10 * scale
        # frozen elements take one last Newton step, so each sits at float64
        # resolution rather than anywhere within the tolerance: the
        # small-ridge solver amplifies tolerance-sized errors past its tol
        want = np.array([bisect_logistic_prox(y, o, v, min(o, o + y * v), max(o, o + y * v)) for o in omega])
        assert np.all(np.abs(res.h - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("v", [1e-8, 1e-3, 1.0, 500.0, 1e5])
    @pytest.mark.parametrize("y", [1.0, -1.0])
    def test_matches_bisection_oracle_beyond_start_table(self, y, v):
        # a = y omega: the start table covers a in [-40 - v, 40]; past its
        # edges the start comes from the clip into the bracket alone. The
        # residual h - omega - ... is computed at the scale of the bracket
        # ends, so that scale bounds what float64 can resolve (at v = 1e5,
        # omega = -1e5 pins h ~ -10 only to a few 1e-12)
        edge = 40.0 + v
        beyond = np.array([1e-3, 1.0, 50.0, 1e4])
        a = np.concatenate([
            -edge - beyond,
            edge + beyond,
            np.linspace(-edge, edge, 61),
            np.linspace(-5.0, 5.0, 11),
            -v + np.linspace(-5.0, 5.0, 11),
        ])
        omega = y * a
        res = prox_logistic(y, omega, v)
        want = np.array([bisect_logistic_prox(y, o, v, min(o, o + y * v), max(o, o + y * v)) for o in omega])
        scale = np.maximum(1.0, np.maximum(np.abs(omega), np.abs(omega + y * v)))
        assert np.all(np.abs(res.h - want) <= 1e-13 * scale)

    def test_tabulated_start_needs_few_passes(self, monkeypatch):
        # one expit call builds the start table, then one per pass: the
        # mixed grid at v = 500 took 17 calls from a fixed-point-step start
        calls = []
        expit = channels.expit
        monkeypatch.setattr(channels, "expit", lambda x: calls.append(1) or expit(x))
        v = 500.0
        for y in (1.0, -1.0):
            calls.clear()
            prox_logistic(y, mixed_grid(y, v), v)
            assert len(calls) <= 6

    def test_keeps_input_shape(self):
        omega = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        res = prox_logistic(1.0, omega, 2.0)
        assert res.h.shape == res.f.shape == res.df_domega.shape == (3, 4)
        flat = prox_logistic(1.0, omega.ravel(), 2.0)
        np.testing.assert_array_equal(res.h.ravel(), flat.h)

    def test_residual_on_wide_grid(self):
        rng = np.random.default_rng(1)
        omega = rng.normal(0, 30, size=500)
        for v in (1e-3, 0.5, 7.0, 300.0):
            for y in (1.0, -1.0):
                res = prox_logistic(y, omega, v)
                resid = res.h - omega - y * v / (1.0 + np.exp(np.clip(y * res.h, -700, 700)))
                scale = max(1.0, np.max(np.abs(omega)) + v)
                assert np.max(np.abs(resid)) < 1e-10 * scale


class TestProxHinge:
    # branch values straight from the piecewise definition of the proximal
    @pytest.mark.parametrize(
        "y,omega,v,f_want,h_want",
        [(1.0, 2.0, 0.5, 0.0, 2.0), (1.0, 0.0, 0.5, 1.0, 0.5), (1.0, 0.8, 0.5, 0.4, 1.0)],
    )
    def test_branches(self, y, omega, v, f_want, h_want):
        res = prox_hinge(y, np.array([omega]), v)
        assert res.f[0] == pytest.approx(f_want, abs=1e-15)
        assert res.h[0] == pytest.approx(h_want, abs=1e-15)

    def test_boundary_ties_go_to_middle_branch(self):
        v = 0.5
        res = prox_hinge(1.0, np.array([1.0 - v, 1.0]), v)
        np.testing.assert_allclose(res.df_domega, [-1 / v, -1 / v])


def subgradient_residual(loss, y, omega, v):
    """Max over a grid of |h - omega + v * l'(y, h)| with the closest valid subgradient."""
    if loss == "logistic":
        res = prox_logistic(y, omega, v)
        lprime = -y / (1.0 + np.exp(np.clip(y * res.h, -700, 700)))
        return np.max(np.abs(res.h - omega + v * lprime))
    res = prox_hinge(y, omega, v)
    worst = 0.0
    for h_i, o_i in zip(res.h, omega):
        if y * h_i < 1 - 1e-12:
            grads = [-y]
        elif y * h_i > 1 + 1e-12:
            grads = [0.0]
        else:
            # at the kink any subgradient between -y and 0 is admissible
            lo_g, hi_g = sorted((float(-y), 0.0))
            g_needed = (o_i - h_i) / v
            worst = max(worst, v * max(lo_g - g_needed, g_needed - hi_g, 0.0))
            continue
        worst = max(worst, min(abs(h_i - o_i + v * g) for g in grads))
    return worst


class TestProximalInvariants:
    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    @pytest.mark.parametrize("v", [0.05, 0.7, 3.0])
    def test_stationarity_residual(self, loss, v):
        omega = np.linspace(-6, 6, 201)
        for y in (1.0, -1.0):
            assert subgradient_residual(loss, y, omega, v) <= 1e-10

    def test_square_stationarity(self):
        omega = np.linspace(-6, 6, 101)
        for v in (0.3, 2.0):
            h = prox_square(1.5, omega, v)
            assert np.max(np.abs(h - omega + v * (h - 1.5))) < 1e-12

    @pytest.mark.parametrize("loss", ["square", "logistic", "hinge"])
    def test_firmly_nonexpansive(self, loss):
        rng = np.random.default_rng(3)
        w1 = rng.normal(0, 4, size=1000)
        w2 = rng.normal(0, 4, size=1000)
        for v in (0.2, 1.0, 5.0):
            if loss == "square":
                h1, h2 = prox_square(1.0, w1, v), prox_square(1.0, w2, v)
            elif loss == "logistic":
                h1, h2 = prox_logistic(1.0, w1, v).h, prox_logistic(1.0, w2, v).h
            else:
                h1, h2 = prox_hinge(1.0, w1, v).h, prox_hinge(1.0, w2, v).h
            assert np.all(np.abs(h1 - h2) <= np.abs(w1 - w2) + 1e-12)

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    def test_df_matches_finite_differences(self, loss):
        # oracle: central differences of f in omega, away from the hinge kinks
        v = 0.8
        eps = 1e-5  # below this, the 1e-12-accurate proximal solves dominate the FD noise
        omega = np.linspace(-4, 4, 301)
        if loss == "hinge":
            omega = omega[(np.abs(omega - (1 - v)) > 0.01) & (np.abs(omega - 1.0) > 0.01)]
        prox = prox_logistic if loss == "logistic" else prox_hinge
        res = prox(1.0, omega, v)
        fd = (prox(1.0, omega + eps, v).f - prox(1.0, omega - eps, v).f) / (2 * eps)
        np.testing.assert_allclose(res.df_domega, fd, atol=1e-6)


class TestChannelUpdate:
    def test_zero_alpha_gives_zero_conjugates(self):
        params = OrderParams(m=0.2, q0=1.0, q1=0.5, v=1.0)
        for spec in (SQUARE, LOGISTIC, HINGE):
            conj = channel_update(params, 1.0, 0.0, 1.0, spec)
            np.testing.assert_array_equal(conj.as_array(), 0.0)

    def test_square_closed_form_point(self):
        params = OrderParams(m=0.0, q0=0.0, q1=0.0, v=1.0)
        conj = channel_update(params, 1.0, 2.0, 1.0, SQUARE)
        assert conj.v_hat == pytest.approx(1.0, abs=1e-15)
        assert conj.m_hat == pytest.approx(1.0, abs=1e-15)
        assert conj.q0_hat == pytest.approx(0.5, abs=1e-15)
        assert conj.q1_hat == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("spec", [LOGISTIC, HINGE])
    def test_degenerate_correlation_collapses_q1_to_q0(self, spec):
        params = OrderParams(m=0.4, q0=1.3, q1=1.3, v=0.9)
        conj = channel_update(params, 1.0, 1.5, 0.8, spec)
        assert conj.q1_hat == pytest.approx(conj.q0_hat, rel=1e-9)

    def test_rejects_nonpositive_teacher_variance(self):
        params = OrderParams(m=1.0, q0=1.0, q1=0.9, v=1.0)
        with pytest.raises(DomainError):
            channel_update(params, 0.9, 1.0, 1.0, LOGISTIC)

    def test_logistic_survives_vanishing_v(self):
        params = OrderParams(m=0.3, q0=1.0, q1=0.5, v=1e-12)
        conj = channel_update(params, 1.0, 2.0, 1.0, LOGISTIC)
        assert 0.0 < conj.v_hat < 2.0
        assert np.all(np.isfinite(conj.as_array()))

    def test_logistic_matches_adaptive_quadrature(self):
        # spot check of the default orders against scipy adaptive integration
        m, q0, v, rho, alpha = 0.5, 1.4, 0.8, 1.0, 1.0
        params = OrderParams(m=m, q0=q0, q1=0.7, v=v)
        conj = channel_update(params, rho, alpha, 1.0, LOGISTIC)
        s0 = rho - m**2 / q0

        def q0h_integrand(w):
            h = prox_logistic(1.0, np.array([w]), v).h[0]
            f = (h - w) / v
            z0 = 0.5 * (1 + math.erf(m * w / (q0 * math.sqrt(2 * s0))))
            return math.exp(-(w**2) / (2 * q0)) / math.sqrt(2 * math.pi * q0) * z0 * f * f

        want, err = quad(q0h_integrand, -12 * math.sqrt(q0), 12 * math.sqrt(q0), epsabs=1e-13, limit=500)
        assert conj.q0_hat == pytest.approx(2 * alpha * want, abs=1e-9)

    def test_refining_orders_changes_little(self, monkeypatch):
        params = OrderParams(m=0.5, q0=1.4, q1=0.9, v=0.8)
        assert (channels.ORDER_1D, channels.ORDER_2D) == (101, 61)
        base = channel_update(params, 1.0, 1.0, 1.0, LOGISTIC)
        monkeypatch.setattr(channels, "ORDER_1D", 202)
        monkeypatch.setattr(channels, "ORDER_2D", 122)
        fine = channel_update(params, 1.0, 1.0, 1.0, LOGISTIC)
        assert np.max(np.abs(base.as_array() - fine.as_array())) < 1e-9


HINGE_POINTS = [
    OrderParams(m=0.3, q0=1.0, q1=0.5, v=0.7),
    OrderParams(m=0.1, q0=0.6, q1=0.2, v=1.5),
    OrderParams(m=0.8, q0=2.0, q1=1.1, v=0.4),
    OrderParams(m=0.0, q0=1.0, q1=0.3, v=1.0),
    OrderParams(m=0.5, q0=1.2, q1=-0.2, v=2.2),
]


# the hinge fixed point of the theory-margin benchmark (lambda 0.1, p/n = 1)
HINGE_MARGIN_POINT = OrderParams(m=0.9831587453979157, q0=1.7599095842317802, q1=1.364235700860087, v=1.1591076869174772)
# the hinge fixed point at lambda 1e-4, p/n = 2, n/d = 2
HINGE_SMALL_RIDGE_POINT = OrderParams(m=1.2235160988967058, q0=2.3418585470771176, q1=2.06000039962636, v=1058.043832204512)


class TestHingeClosedForm:
    def test_zero_alpha(self):
        conj = channel_update_hinge_closed_form(HINGE_POINTS[0], 1.0, 0.0)
        np.testing.assert_array_equal(conj.as_array(), 0.0)

    def test_uninformative_iterate_still_generates_alignment(self):
        # the m_hat integrand is even under the joint (y, omega) flip, so it
        # does not vanish at m = 0 (otherwise the informative fixed point
        # would be unreachable); closed form and kinked-panel oracle must agree
        params = OrderParams(m=0.0, q0=1.0, q1=0.3, v=1.0)
        closed = channel_update_hinge_closed_form(params, 1.0, 1.0)
        assert closed.m_hat > 0.0
        assert closed.m_hat == pytest.approx(oracles.hinge_channel_oracle(params, 1.0, 1.0, 1.0).m_hat, abs=1e-10)

    @pytest.mark.parametrize("params", HINGE_POINTS)
    def test_matches_kinked_panel_oracle(self, params):
        rho, alpha = 1.0, 1.0
        closed = channel_update_hinge_closed_form(params, rho, alpha)
        want = oracles.hinge_channel_oracle(params, rho, alpha, 1.0)
        np.testing.assert_allclose(closed.as_array(), want.as_array(), atol=1e-6)

    @pytest.mark.parametrize("gamma", [1.0, 0.3, 2.5])
    def test_channel_update_is_the_closed_form(self, gamma):
        # the hinge channel is the closed form, m_hat divided by sqrt(gamma)
        params, rho, alpha = HINGE_POINTS[2], 1.2, 0.7
        closed = channel_update_hinge_closed_form(params, rho, alpha)
        conj = channel_update(params, rho, alpha, gamma, HINGE)
        assert conj.as_array().tolist() == [closed.m_hat / np.sqrt(gamma), closed.q0_hat, closed.q1_hat, closed.v_hat]

    def test_small_ridge_point_matches_oracle_on_clipped_panels(self, monkeypatch):
        # the hinge fixed point at lambda 1e-4, p/n = 2 (n/d = 2): v ~ 1e3, so the
        # middle branch [1 - v, 1] reaches far past the 12 sd of the Gaussian
        params, alpha = HINGE_SMALL_RIDGE_POINT, 0.5
        calls = []
        erf_panels = channels._erf_panels

        def recording(lo, hi, var, c, kinks=()):
            x, w = erf_panels(lo, hi, var, c, kinks)
            calls.append((var, x))
            return x, w

        monkeypatch.setattr(channels, "_erf_panels", recording)
        conj = channel_update(params, 1.0, alpha, alpha / 2.0, HINGE)
        want = oracles.hinge_channel_oracle(params, 1.0, alpha, alpha / 2.0)
        np.testing.assert_allclose(conj.as_array(), want.as_array(), rtol=1e-12, atol=0)
        # no more nodes than the +-12 sd grids split at the same kinks: the
        # oracle's grid in omega, and that grid in s = omega + omega'
        q0, q1, v = params.q0, params.q1, params.v
        var_s = 2.0 * (q0 + q1)
        assert {var for var, _ in calls} == {q0, var_s}
        for var, kinks in ((q0, (1.0 - v, 1.0)), (var_s, (2.0 - 2.0 * v, 2.0 - v))):
            nodes = np.concatenate([x for u, x in calls if u == var])
            assert np.all(np.abs(nodes) <= 12.0 * np.sqrt(var))
            assert nodes.size <= oracles.kink_grid_1d(np.sqrt(var), kinks)[0].size

    # the last point has q0 so small that both kinks lie beyond 12 sd
    @pytest.mark.parametrize("params", HINGE_POINTS + [HINGE_MARGIN_POINT, OrderParams(m=5e-5, q0=1e-8, q1=4e-9, v=0.7)])
    def test_q1_hat_matches_kinked_2d_oracle(self, params):
        generic = channel_update(params, 1.0, 1.0, 1.0, HINGE)
        assert generic.q1_hat == pytest.approx(oracles.hinge_q1_hat(params, 1.0, 1.0), abs=1e-6)

    def test_q1_hat_reference_point_tight(self):
        generic = channel_update(HINGE_POINTS[0], 1.0, 1.0, 1.0, HINGE)
        want = oracles.hinge_q1_hat(HINGE_POINTS[0], 1.0, 1.0)
        assert generic.q1_hat == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("q0,q1,v", [(1.0, 0.5, 0.7), (0.6, 0.2, 1.5), (1.2, -0.2, 2.2), (2.0, 1.1, 0.4)])
    def test_pair_inner_matches_loop_reference(self, q0, q1, v):
        # same cells and arithmetic (zero-width cells add exact zeros)
        s = np.concatenate([np.linspace(-6.0, 2.5, 397), [2.0 - 2.0 * v, 2.0 - v, 1.0, 2.0]])
        want = oracles.hinge_pair_inner_loop(s, q0, q1, v)
        np.testing.assert_array_equal(_hinge_pair_inner(s, q0, q1, v), want)

    def test_pair_inner_degenerate_correlation(self):
        # q1 -> q0: W | W+W'=s concentrates at s/2 and the inner integral
        # tends to f(s/2)^2, continuously across the exact-degenerate branch
        q0, v = 1.3, 0.9
        s = np.linspace(-4.0, 1.99, 301)
        want = prox_hinge(1.0, 0.5 * s, v).f ** 2
        np.testing.assert_array_equal(_hinge_pair_inner(s, q0, q0, v), want)
        for gap in (1e-6, 1e-9, 1e-12):
            near = _hinge_pair_inner(s, q0, q0 * (1.0 - gap), v)
            sd = np.sqrt(0.5 * q0 * gap)
            # f^2 is Lipschitz with constant 2/v, so smoothing moves it by O(sd)
            assert np.max(np.abs(near - want)) <= 2.0 / v * sd

    def test_q1_hat_tends_to_q0_hat(self):
        params = OrderParams(m=0.4, q0=1.3, q1=1.3, v=0.9)
        q0_hat = channel_update(params, 1.0, 1.5, 0.8, HINGE).q0_hat
        for gap in (1e-4, 1e-8, 1e-12):
            near = OrderParams(m=0.4, q0=1.3, q1=1.3 * (1.0 - gap), v=0.9)
            conj = channel_update(near, 1.0, 1.5, 0.8, HINGE)
            assert 0.0 < q0_hat - conj.q1_hat <= 10.0 * gap * q0_hat

    def test_reference_point_tight(self):
        closed = channel_update_hinge_closed_form(HINGE_POINTS[0], 1.0, 1.0)
        want = oracles.hinge_channel_oracle(HINGE_POINTS[0], 1.0, 1.0, 1.0)
        np.testing.assert_allclose(closed.as_array(), want.as_array(), atol=1e-12)


class TestTrainingLoss:
    def test_square_null_predictor(self):
        params = OrderParams(m=0.0, q0=0.0, q1=0.0, v=1e-12)
        assert training_loss(params, 1.0, SQUARE) == pytest.approx(0.5, abs=1e-10)

    def test_hinge_vanishes_when_margins_satisfied(self):
        # strongly aligned, sharp-teacher learner: the h >= 1 region dominates
        params = OrderParams(m=0.99995 * 50.0, q0=2500.0, q1=2500.0 * 0.99995, v=0.02)
        loss = training_loss(params, 1.0, HINGE)
        assert 0.0 <= loss < 0.02

    @pytest.mark.parametrize("params", HINGE_POINTS + [HINGE_MARGIN_POINT, HINGE_SMALL_RIDGE_POINT])
    def test_hinge_matches_label_loop_oracle(self, params):
        assert training_loss(params, 1.0, HINGE) == pytest.approx(oracles.hinge_training_loss_oracle(params, 1.0),
                                                                  rel=1e-12, abs=1e-16)

    def test_logistic_positive_and_below_ln2(self):
        params = OrderParams(m=0.8, q0=1.5, q1=1.0, v=1.0)
        val = training_loss(params, 1.0, LOGISTIC)
        assert 0.0 < val < math.log(2.0)


class TestAntiCorrelatedPair:
    # q1 = -q0 passes OrderParams.validate, but the pair teacher variance
    # rho - 2 m^2 / (q0 + q1) is undefined there
    POINT = OrderParams(m=0.0, q0=1.0, q1=-1.0, v=1.0)

    @pytest.mark.parametrize("spec", [LOGISTIC, HINGE], ids=["logistic", "hinge"])
    def test_channel_update_raises_domain_error(self, spec):
        with pytest.raises(DomainError, match=r"q0 \+ q1"):
            channel_update(self.POINT, 1.0, 1.0, 1.0, spec)

    def test_hinge_closed_form_raises_domain_error(self):
        with pytest.raises(DomainError, match=r"q0 \+ q1"):
            channel_update_hinge_closed_form(self.POINT, 1.0, 1.0)

    @pytest.mark.parametrize("spec", [LOGISTIC, HINGE], ids=["logistic", "hinge"])
    def test_training_loss_raises_domain_error(self, spec):
        with pytest.raises(DomainError, match=r"q0 \+ q1"):
            training_loss(self.POINT, 1.0, spec)
