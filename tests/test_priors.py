import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erf

from rfensemble import (
    ChannelSpec,
    ConfigError,
    ConjugateParams,
    DomainError,
    OrderParams,
    ResourceError,
    activation_coeffs,
    gauss_hermite_rule,
    kernel_channel_update,
    kernel_prior_update,
    mp_spectral_model,
    prior_update_spectral,
    sample_feature_ensemble,
    solve_kernel_limit,
    spectral_integral,
    SolveOptions,
    SpectralModel,
)

from oracles import (
    empirical_spectrum,
    kernel_ridge_closed_form,
    kernel_ridge_closed_form_derived,
    omega_diag,
    prior_update_matrix_oracle,
    prior_update_quad_oracle,
)

RULE = gauss_hermite_rule(201)
COEFFS = activation_coeffs(erf, RULE)
SQUARE = ChannelSpec(loss="square", teacher="linear")
LOGISTIC = ChannelSpec(loss="logistic", teacher="sign")


def random_conjugates(rng):
    return ConjugateParams(
        m_hat=rng.uniform(0.1, 1.0),
        q0_hat=rng.uniform(0.1, 1.0),
        q1_hat=rng.uniform(0.05, 0.8),
        v_hat=rng.uniform(0.2, 1.5),
    )


class TestPriorUpdateSpectral:
    def test_zero_conjugates_zero_overlaps(self):
        model = mp_spectral_model(1.0, 0.5, COEFFS)
        conj = ConjugateParams(0.0, 0.0, 0.0, 0.5)
        out = prior_update_spectral(conj, 0.1, model)
        assert out.m == out.q0 == out.q1 == 0.0
        want_v = spectral_integral(model, lambda s: s / (0.1 + 0.5 * s))
        assert out.v == pytest.approx(want_v, rel=1e-12)

    def test_infinite_ridge_scalings(self):
        model = mp_spectral_model(1.0, 0.5, COEFFS)
        conj = ConjugateParams(0.4, 0.3, 0.2, 0.6)
        a = prior_update_spectral(conj, 1e6, model)
        b = prior_update_spectral(conj, 1e7, model)
        assert a.v / b.v == pytest.approx(10.0, rel=1e-3)
        assert a.m / b.m == pytest.approx(10.0, rel=1e-3)
        assert a.q0 / b.q0 == pytest.approx(100.0, rel=1e-3)
        assert a.q1 / b.q1 == pytest.approx(100.0, rel=1e-3)

    def test_q1_robust_form_at_zero_mhat(self):
        model = mp_spectral_model(1.0, 0.5, COEFFS)
        out = prior_update_spectral(ConjugateParams(0.0, 0.3, 0.2, 0.6), 0.1, model)
        assert np.isfinite(out.q1)
        assert out.m == 0.0
        assert out.q1 > 0.0

    def test_q1_equals_paper_form_when_mhat_nonzero(self):
        model = mp_spectral_model(1.0, 0.5, COEFFS)
        conj = ConjugateParams(0.7, 0.3, 0.2, 0.6)
        out = prior_update_spectral(conj, 0.1, model)
        paper_q1 = (1.0 + conj.q1_hat / conj.m_hat**2) * out.m**2
        assert out.q1 == pytest.approx(paper_q1, rel=1e-12)

    def test_rejects_vanishing_resolvent(self):
        ident = activation_coeffs(lambda x: x, RULE)  # kappa_star = 0: atom can sit at s = 0
        model = mp_spectral_model(1.0, 0.5, ident)
        with pytest.raises(DomainError):
            prior_update_spectral(ConjugateParams(0.1, 0.1, 0.1, 0.0), 0.0, model)


def prior_update_three_pass(conj, lam, model):
    """The spectral prior update as three separate integrals: oracle of the one-pass form."""
    mh, q0h, q1h, vh = conj.m_hat, conj.q0_hat, conj.q1_hat, conj.v_hat
    gamma, ks2 = model.aspect, model.shift
    v = spectral_integral(model, lambda s: s / (lam + vh * s))
    i_theta = spectral_integral(model, lambda s: (s - ks2) / (lam + vh * s))
    m = mh / np.sqrt(gamma) * i_theta
    q0 = spectral_integral(
        model, lambda s: ((q0h + mh**2) * s**2 - mh**2 * ks2 * s) / (lam + vh * s) ** 2
    )
    q1 = (mh**2 + q1h) * i_theta**2 / gamma
    return OrderParams(m=m, q0=q0, q1=q1, v=v)


class TestOnePassPrior:
    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: mp_spectral_model(1.0, 0.5, COEFFS),
            lambda: mp_spectral_model(1.0, 1.5, COEFFS),
            lambda: mp_spectral_model(1.0, 0.5, COEFFS, bulk_nodes=4001),
        ],
        ids=["mp-atom", "mp-no-atom", "mp-4001-nodes"],
    )
    def test_equals_three_pass_oracle_exactly(self, make_model):
        model = make_model()
        rng = np.random.default_rng(17)
        for lam in (1e-6, 1e-2, 3.0):
            for _ in range(5):
                conj = random_conjugates(rng)
                got = prior_update_spectral(conj, lam, model)
                want = prior_update_three_pass(conj, lam, model)
                assert (got.m, got.q0, got.q1, got.v) == (want.m, want.q0, want.q1, want.v)

    def test_cached_node_terms_follow_the_models_shift(self):
        # s^2 and s - kappa_star^2 are cached per model; two models of one
        # aspect and different shifts are met in turn
        other = dataclasses.replace(COEFFS, kappa_star=0.5 * COEFFS.kappa_star)
        models = [mp_spectral_model(1.0, 0.5, coeffs) for coeffs in (COEFFS, other)]
        rng = np.random.default_rng(18)
        for model in models + models:
            conj = random_conjugates(rng)
            got = prior_update_spectral(conj, 1e-2, model)
            want = prior_update_three_pass(conj, 1e-2, model)
            assert (got.m, got.q0, got.q1, got.v) == (want.m, want.q0, want.q1, want.v)


_GRID_MISSES_SMALL_LOWER_EDGE = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the 2,001-node sin^2 bulk grid does not resolve the MP density's 1/x "
        "factor when the lower edge kappa1^2 (1 - sqrt(p/d))^2 is tiny but not "
        "zero: v and q0 miss quad by 1.2e-4 relative (ROADMAP item 12)"
    ),
)


class TestBulkGridAgainstQuad:
    @pytest.mark.parametrize(
        "aspect",
        [
            0.97,
            1.0,
            pytest.param(0.999, marks=_GRID_MISSES_SMALL_LOWER_EDGE),
            pytest.param(1.001, marks=_GRID_MISSES_SMALL_LOWER_EDGE),
        ],
    )
    def test_prior_matches_adaptive_quad(self, aspect):
        # aspect is d/p; at 0.99 the grid is off by 1.8e-11, at exactly 1
        # the lower edge is 0 and the sin^2 substitution absorbs it
        model = SpectralModel(aspect=aspect, scale=0.6, shift=0.04)
        conj = ConjugateParams(1.0, 2.0, 1.0, 1e3)
        got = prior_update_spectral(conj, 1e-6, model)
        want = prior_update_quad_oracle(conj, 1e-6, model)
        np.testing.assert_allclose(got.as_array(), want.as_array(), rtol=1e-12, atol=0)


class TestSampleFeatureEnsemble:
    def test_resource_cap(self):
        # K*p*d = 1e8 is over the cap, which raises before any matrix is drawn
        with pytest.raises(ResourceError):
            sample_feature_ensemble(1, 10_000, 10_000, COEFFS, np.zeros(10_000), seed=0)


class TestMatrixOracle:
    def test_zero_conjugates(self):
        ens = sample_feature_ensemble(2, 300, 150, COEFFS, np.zeros(150), seed=0)
        out = prior_update_matrix_oracle(ConjugateParams(0.0, 0.0, 0.0, 0.5), 0.1, ens)
        assert out.m == out.q0 == out.q1 == 0.0

    def test_needs_two_matrices(self):
        ens = sample_feature_ensemble(1, 50, 25, COEFFS, np.zeros(25), seed=0)
        with pytest.raises(ConfigError):
            prior_update_matrix_oracle(ConjugateParams(0.1, 0.1, 0.1, 0.5), 0.1, ens)

    def test_v_matches_empirical_spectral_integral_exactly(self):
        # same matrix, two code paths
        p, d = 400, 200
        ens = sample_feature_ensemble(2, p, d, COEFFS, np.zeros(d), seed=3)
        eigs = empirical_spectrum(ens.seeds[0], p, d, COEFFS)
        out = prior_update_matrix_oracle(ConjugateParams(0.0, 0.0, 0.0, 1.0), 1.0, ens)
        want = np.mean(eigs / (1.0 + eigs))
        assert out.v == pytest.approx(want, rel=1e-10)

    def test_freeness_factorization_for_q1(self):
        p, d = 2000, 1000
        rng = np.random.default_rng(11)
        conj = random_conjugates(rng)
        ens = sample_feature_ensemble(2, p, d, COEFFS, np.zeros(d), seed=7)
        out = prior_update_matrix_oracle(conj, 0.3, ens)
        # trace of the auxiliary matrix Theta (lam I + v_hat Omega)^{-1}
        gamma = d / p
        from scipy.linalg import cho_factor, cho_solve

        omega = omega_diag(ens, 0)
        theta = omega.copy()
        theta[np.diag_indices(p)] -= COEFFS.kappa_star_sq
        cf = cho_factor(0.3 * np.eye(p) + conj.v_hat * omega)
        tr_fhat = float(np.trace(cho_solve(cf, theta))) / p
        want = (conj.m_hat**2 + conj.q1_hat) * tr_fhat**2 / gamma
        assert out.q1 == pytest.approx(want, rel=0.01)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_matches_matrix_oracle_at_p2000(self, seed):
        p, d = 2000, 1000
        gamma = d / p
        rng = np.random.default_rng(100 + seed)
        conj = random_conjugates(rng)
        lam = rng.uniform(0.05, 0.5)
        model = mp_spectral_model(1.0, gamma, COEFFS)
        spectral = prior_update_spectral(conj, lam, model)
        ens = sample_feature_ensemble(2, p, d, COEFFS, np.zeros(d), seed=seed)
        oracle = prior_update_matrix_oracle(conj, lam, ens)
        np.testing.assert_allclose(spectral.as_array(), oracle.as_array(), rtol=0.02)

    def test_gap_shrinks_with_p(self):
        gamma = 0.5
        rng = np.random.default_rng(21)
        gaps = {}
        for p in (500, 1000, 2000):
            d = int(p * gamma)
            model = mp_spectral_model(1.0, gamma, COEFFS)
            rel = []
            for seed in range(5):
                conj = random_conjugates(np.random.default_rng(1000 + seed))
                lam = 0.2
                spectral = prior_update_spectral(conj, lam, model)
                oracle = prior_update_matrix_oracle(conj, lam, sample_feature_ensemble(2, p, d, COEFFS, np.zeros(d), seed=seed))
                rel.append(np.max(np.abs(spectral.as_array() - oracle.as_array()) / np.abs(spectral.as_array())))
            gaps[p] = float(np.median(rel))
        assert gaps[1000] < gaps[500]
        assert gaps[2000] < gaps[1000]


class TestKernelChannel:
    def test_delta_zero_kills_mhat(self):
        params = OrderParams(m=0.3, q0=1.0, q1=0.5, v=0.7)
        conj = kernel_channel_update(params, 1.0, 0.0, LOGISTIC)
        assert conj.m_hat == 0.0

    def test_square_reference_point(self):
        params = OrderParams(m=0.0, q0=0.0, q1=0.0, v=1.0)
        delta = 1.7
        conj = kernel_channel_update(params, 1.0, delta, SQUARE)
        assert conj.v_hat == pytest.approx(0.5, abs=1e-15)
        assert conj.q0_hat == pytest.approx(0.25, abs=1e-15)
        assert conj.q1_hat == pytest.approx(0.25, abs=1e-15)
        assert conj.m_hat == pytest.approx(math.sqrt(delta) / 2, abs=1e-15)

    def test_logistic_degenerate_correlation(self):
        params = OrderParams(m=0.2, q0=0.9, q1=0.9, v=1.1)
        conj = kernel_channel_update(params, 1.0, 2.0, LOGISTIC)
        assert conj.q1_hat == pytest.approx(conj.q0_hat, rel=1e-9)


class TestKernelPrior:
    def test_equal_hats_give_equal_overlaps(self):
        conj = ConjugateParams(0.4, 0.3, 0.3, 0.6)
        out = kernel_prior_update(conj, 0.01, 2.0, COEFFS)
        assert out.q0 == out.q1

    def test_zeros(self):
        out = kernel_prior_update(ConjugateParams(0.0, 0.0, 0.0, 0.5), 0.1, 2.0, COEFFS)
        assert out.m == out.q0 == out.q1 == 0.0

    def test_negative_delta_is_a_domain_error(self):
        # as in kernel_channel_update: a named error, not a NaN m or a bare ValueError from sqrt
        with pytest.raises(DomainError, match="delta"):
            kernel_prior_update(ConjugateParams(0.4, 0.3, 0.3, 0.6), 0.01, -1.0, COEFFS)

    def test_no_data_limit(self):
        out = kernel_prior_update(ConjugateParams(0.4, 0.3, 0.2, 0.6), 0.1, 1e-12, COEFFS)
        assert out.v == pytest.approx((COEFFS.kappa1**2 + COEFFS.kappa_star_sq) / 0.1, rel=1e-6)
        assert abs(out.m) < 1e-5
        assert abs(out.q0) < 1e-5

    def test_rejects_zero_lambda(self):
        with pytest.raises(DomainError):
            kernel_prior_update(ConjugateParams(0.1, 0.1, 0.1, 0.5), 0.0, 2.0, COEFFS)

    def test_matches_small_alpha_spectral_limit(self):
        # alpha -> 0 of the finite-size-ratio prior with hat variables rescaled
        # (v,q -> alpha*, m -> sqrt(alpha)*); lam sits where the neglected
        # atom terms are O(alpha/lam^2) small
        delta, lam, alpha = 2.0, 0.05, 1e-3
        gamma = alpha / delta
        conj_k = ConjugateParams(m_hat=0.4, q0_hat=0.3, q1_hat=0.25, v_hat=0.6)
        kernel = kernel_prior_update(conj_k, lam, delta, COEFFS)
        conj_orig = ConjugateParams(
            m_hat=math.sqrt(alpha) * conj_k.m_hat,
            q0_hat=alpha * conj_k.q0_hat,
            q1_hat=alpha * conj_k.q1_hat,
            v_hat=alpha * conj_k.v_hat,
        )
        model = mp_spectral_model(alpha, gamma, COEFFS, bulk_nodes=4001)
        spectral = prior_update_spectral(conj_orig, lam, model)
        np.testing.assert_allclose(kernel.as_array(), spectral.as_array(), rtol=0.01)


class TestKernelRidgeClosedForm:
    def test_returns_equal_q(self):
        v, m, q = kernel_ridge_closed_form(1e-3, 2.0, 1.0, COEFFS)
        assert np.isfinite(q)

    def test_m_to_one_at_vanishing_ridge_for_noiseless_features(self):
        # with kappa_star > 0 lam*v tends to a positive constant and m
        # saturates below 1; the ridgeless-alignment limit needs the
        # noise-free feature map (kappa_star = 0) and delta > 1
        ident = activation_coeffs(lambda x: x, RULE)
        _, m, _ = kernel_ridge_closed_form(1e-10, 2.0, 1.0, ident)
        assert m == pytest.approx(1.0, abs=1e-6)
        _, m_erf, _ = kernel_ridge_closed_form(1e-10, 2.0, 1.0, COEFFS)
        assert m_erf < 1.0

    def test_printed_v_m_match_fixed_point_and_q_discrepancy_documented(self):
        lam, delta, rho = 1e-3, 2.0, 1.0
        fp = solve_kernel_limit(delta, rho, lam, SQUARE, COEFFS, SolveOptions(tol=1e-13, max_iters=60000))
        assert fp.converged
        v_c, m_c, q_c = kernel_ridge_closed_form(lam, delta, rho, COEFFS)
        v_d, m_d, q_d = kernel_ridge_closed_form_derived(lam, delta, rho, COEFFS)
        # printed v and m reproduce the fixed point
        assert v_c == pytest.approx(fp.params.v, rel=1e-6)
        assert m_c == pytest.approx(fp.params.m, rel=1e-6)
        # the rederived q matches the fixed point; the printed q does not
        # (documented discrepancy: its denominator is inconsistent with the
        # printed v and m, see docs/formula_map.md)
        assert q_d == pytest.approx(fp.params.q0, rel=1e-6)
        assert abs(q_c - fp.params.q0) / fp.params.q0 > 0.5
