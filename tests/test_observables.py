import math
import tracemalloc

import numpy as np
import pytest

from rfensemble import (
    ConfigError,
    DomainError,
    EnsembleCovariance,
    OrderParams,
    classification_error_avg,
    classification_error_bar,
    confidence_density,
    disagreement_probability,
    ensemble_test_error,
    generic_gen_error,
    majority_vote_error,
    mse_test_error,
)
from rfensemble.observables import MC_BLOCK, MC_BUFFER, _block_stream, _draw_samples, resolve_estimator

from oracles import ESTIMATOR_ORACLES, gen_error_oracle, sample_block_oracle


ORACLE_KS = [1, 3, 5, 7, 8, 33]


def cov(rho=1.0, m=0.5, q0=1.0, q1=0.5, K=2):
    return EnsembleCovariance(rho=rho, m=m, q0=q0, q1=q1, K=K)


class TestClosedForms:
    @pytest.mark.parametrize("K", [1, 3, "inf"])
    def test_classification_split_rejects_negative_q1(self, K):
        with pytest.raises(DomainError):
            ensemble_test_error(OrderParams(m=0.1, q0=1.0, q1=-0.2, v=1.0), 1.0, "logistic", K)

    def test_classification_errors_reject_nonpositive_variance(self):
        with pytest.raises(DomainError):
            classification_error_bar(1.0, 0.1, 0.0)
        with pytest.raises(DomainError):
            classification_error_avg(cov(m=0.1, q0=1.0, q1=-0.6, K=3))

    def test_mse_null_predictor(self):
        for K in (1, 2, 7):
            assert mse_test_error(cov(m=0.0, q0=0.0, q1=0.0, K=K)) == (1.0, 1.0, 0.0)

    def test_mse_arithmetic_point(self):
        eps_g, eps_bar, delta = mse_test_error(cov(m=0.5, q0=0.8, q1=0.6, K=2))
        assert eps_g == pytest.approx(0.7, abs=1e-15)
        assert eps_bar == pytest.approx(0.6, abs=1e-15)
        assert delta == pytest.approx(0.1, abs=1e-15)

    def test_mse_large_K_reaches_eps_bar(self):
        c = cov(m=0.5, q0=0.8, q1=0.6, K=10**9)
        eps_g, eps_bar, _ = mse_test_error(c)
        assert eps_g == pytest.approx(eps_bar, abs=1e-9)

    def test_mse_decreasing_in_K(self):
        vals = [mse_test_error(cov(K=K))[0] for K in (1, 2, 4, 8, 32)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_classification_balanced(self):
        assert classification_error_avg(cov(m=0.0, K=1)) == pytest.approx(0.5, abs=1e-15)

    def test_classification_perfect_alignment(self):
        c = cov(m=1.0, q0=1.0, q1=1.0, K=1)
        assert classification_error_avg(c) == pytest.approx(0.0, abs=1e-8)

    def test_classification_arccos_half(self):
        c = cov(m=0.5, q0=1.0, q1=0.3, K=1)
        assert classification_error_avg(c) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_classification_monotone_in_K(self):
        vals = [classification_error_avg(cov(K=K)) for K in (1, 2, 4, 16)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert classification_error_bar(1.0, 0.5, 0.5) <= vals[-1] + 1e-12

    def test_disagreement_reference_values(self):
        assert disagreement_probability(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert disagreement_probability(1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert disagreement_probability(2.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_disagreement_domain(self):
        with pytest.raises(DomainError):
            disagreement_probability(1.0, 1.5)

    def test_decomposition_identity_and_sign(self):
        pts = [OrderParams(m=0.4, q0=1.0, q1=q1, v=1.0) for q1 in (0.2, 0.5, 0.8, 1.0)]
        out = [ensemble_test_error(params, 1.0, "logistic", 1)[1:] for params in pts]
        for (eps_bar, delta), params in zip(out, pts):
            eps_k1 = math.acos(params.m / math.sqrt(params.q0)) / math.pi
            assert eps_bar + delta == pytest.approx(eps_k1, abs=1e-14)
            assert delta >= -1e-14
        assert out[-1][1] == pytest.approx(0.0, abs=1e-14)


class TestCovariance:
    def test_k1_marginal_matrix(self):
        c = cov(K=1)
        np.testing.assert_array_equal(c.matrix(), np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_psd_check_raises(self):
        bad = cov(m=0.99, q0=1.0, q1=0.0, K=2)  # q0 + q1 < K m^2 / rho
        with pytest.raises(DomainError):
            bad.check_psd()

    def test_matrix_psd_matches_margins(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = cov(m=rng.uniform(-1, 1), q0=rng.uniform(0.2, 2), q1=rng.uniform(-0.5, 1.5), K=3)
            eigs = np.linalg.eigvalsh(c.matrix())
            margins_ok = min(c.psd_margins()) >= -1e-12
            assert margins_ok == bool(eigs.min() >= -1e-10)


class TestMonteCarlo:
    def test_sampling_matches_covariance(self):
        c = cov(m=0.4, q0=1.2, q1=0.7, K=3)
        nu, mu = _draw_samples(c, _block_stream(5, 0), 200_000)
        assert np.var(nu) == pytest.approx(c.rho, rel=0.02)
        emp = np.cov(mu.T)
        np.testing.assert_allclose(np.diag(emp), c.q0, rtol=0.03)
        np.testing.assert_allclose(emp[0, 1], c.q1, rtol=0.05)
        assert np.mean(nu * mu[:, 0]) == pytest.approx(c.m, rel=0.05)

    def test_avg_sign_matches_arccos(self):
        c = cov(m=0.5, q0=1.0, q1=0.5, K=1)
        est, se = generic_gen_error(c, "avg_sign", "zero_one", 10**6, seed=1)
        assert abs(est - classification_error_avg(c)) <= 3 * se

    def test_mean_mse_matches_closed_form(self):
        c = cov(m=0.4, q0=1.1, q1=0.6, K=3)
        est, se = generic_gen_error(c, "mean", "mse", 10**6, seed=2)
        assert abs(est - mse_test_error(c)[0]) <= 3 * se

    def test_identical_learners_vote_like_one(self):
        c3 = cov(m=0.5, q0=1.0, q1=1.0, K=3)
        est, se = generic_gen_error(c3, "majority", "zero_one", 200_000, seed=3)
        want = classification_error_avg(cov(m=0.5, q0=1.0, q1=1.0, K=1))
        assert abs(est - want) <= 3 * se + 1e-12

    def test_majority_k1_equals_closed_form(self):
        c = cov(m=0.5, q0=1.0, q1=1.0, K=1)
        est, se = majority_vote_error(c, 200_000, seed=4)
        assert abs(est - classification_error_avg(c)) <= 3 * se

    def test_majority_requires_odd_K(self):
        with pytest.raises(ConfigError):
            majority_vote_error(cov(K=2), 10**4, seed=0)

    @pytest.mark.parametrize("K, exact, seed", [(1, 1 / 3, 41), (3, 3 / 10, 43), (5, 2 / 7, 45)])
    def test_majority_matches_its_exact_values(self, K, exact, seed):
        # at (rho, m, q0, q1) = (1, 0.5, 1, 0.5) the one-factor integral of the majority error is rational
        maj, se = majority_vote_error(cov(m=0.5, q0=1.0, q1=0.5, K=K), 500_000, seed=seed)
        assert abs(maj - exact) <= 4 * se

    def test_majority_never_beats_score_average(self):
        c = cov(m=0.5, q0=1.0, q1=0.5, K=3)
        maj, se = majority_vote_error(c, 10**6, seed=5)
        avg = classification_error_avg(c)
        assert maj >= avg - 3 * se

    def test_majority_approaches_score_average_in_large_ensembles(self):
        # empirical observation at MC tolerance (no identity is claimed):
        # the two estimators' errors coincide as K grows, so their
        # fluctuation decompositions coincide too
        bar = classification_error_bar(1.0, 0.5, 0.5)
        maj51, _ = majority_vote_error(cov(m=0.5, q0=1.0, q1=0.5, K=51), 400_000, seed=21)
        maj301, _ = majority_vote_error(cov(m=0.5, q0=1.0, q1=0.5, K=301), 400_000, seed=22)
        assert abs(maj301 - bar) < 0.005
        assert abs(maj301 - bar) < abs(maj51 - bar)

    def test_deterministic_and_shard_invariant(self):
        c = cov(K=2)
        a = generic_gen_error(c, "avg_sign", "zero_one", 150_000, seed=9)
        b = generic_gen_error(c, "avg_sign", "zero_one", 150_000, seed=9)
        assert a == b
        # manual block-wise recomputation reproduces the estimate
        from rfensemble.observables import MC_BLOCK, _sign_pm1

        total, done, block = 0.0, 0, 0
        while done < 150_000:
            count = min(MC_BLOCK, 150_000 - done)
            nu, mu = _draw_samples(c, _block_stream(9, block), count)
            total += float(np.sum(_sign_pm1(nu) != _sign_pm1(mu.sum(axis=1))))
            done += count
            block += 1
        assert total / 150_000 == pytest.approx(a[0], abs=1e-15)

    def test_mc_error_rate_scaling(self):
        c = cov(K=1)
        _, se1 = generic_gen_error(c, "avg_sign", "zero_one", 100_000, seed=6)
        _, se2 = generic_gen_error(c, "avg_sign", "zero_one", 400_000, seed=6)
        assert se2 * 2 == pytest.approx(se1, rel=0.2)

    def test_disagreement_matches_mc_frequency(self):
        c = cov(m=0.3, q0=1.0, q1=0.6, K=2)
        nu, mu = _draw_samples(c, _block_stream(7, 0), 300_000)
        freq = float(np.mean(np.sign(mu[:, 0]) != np.sign(mu[:, 1])))
        se = math.sqrt(freq * (1 - freq) / 300_000)
        assert abs(freq - disagreement_probability(1.0, 0.6)) <= 3 * se

    def test_custom_estimator(self):
        c = cov(m=0.5, q0=1.0, q1=0.5, K=2)
        est, se = generic_gen_error(c, lambda mu: np.where(mu.sum(axis=1) >= 0, 1.0, -1.0),
                                    "zero_one", 10**5, seed=8, teacher="sign")
        assert abs(est - classification_error_avg(c)) <= 4 * se

    @pytest.mark.parametrize("K", ORACLE_KS)
    def test_block_sampler_equals_out_of_place_oracle(self, K):
        # learner sums run left to right for every K, so K >= 8 (where a
        # numpy row sum pairs its terms) is pinned too
        c = cov(m=7.78, q0=140.55, q1=83.63, K=K)
        u, z = np.empty((MC_BLOCK, K + 1)), np.empty((K + 1, MC_BLOCK))
        for block, count in ((0, MC_BLOCK), (3, MC_BLOCK), (7, 1000)):
            want_nu, want_mu = sample_block_oracle(c, block, count, seed=11)
            for buffers in ((), (u, z)):
                nu, mu = _draw_samples(c, _block_stream(11, block), count, *buffers)
                assert np.array_equal(nu, want_nu) and np.array_equal(mu, want_mu)

    @pytest.mark.parametrize("K", ORACLE_KS)
    @pytest.mark.parametrize(
        "estimator,metric", [("avg_sign", "zero_one"), ("majority", "zero_one"), ("mean", "mse")]
    )
    def test_estimate_equals_oracle(self, estimator, metric, K):
        # 150,000 samples: two full blocks and a partial one
        c = cov(m=0.4, q0=1.1, q1=0.6, K=K)
        got = generic_gen_error(c, estimator, metric, 150_000, seed=12)
        assert got == gen_error_oracle(c, estimator, metric, 150_000, seed=12)

    def test_buffers_do_not_grow_with_K(self):
        # at K = 301 a block is drawn in chunks of MC_BUFFER // (K + 1)
        # samples: each buffer holds MC_BUFFER doubles, not (K + 1) MC_BLOCK
        c = cov(m=0.5, q0=1.0, q1=0.5, K=301)
        tracemalloc.start()
        try:
            generic_gen_error(c, "majority", "zero_one", MC_BLOCK + 10_000, seed=23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * MC_BUFFER * 8

    @pytest.mark.parametrize(
        "estimator,metric", [("avg_sign", "zero_one"), ("majority", "zero_one"), ("mean", "mse")]
    )
    def test_memory_stays_below_2mb_at_k3(self, estimator, metric):
        # theory-margin's size: a 65,536-sample block is drawn in chunks of
        # MC_BUFFER // 4 samples, so the two sample buffers hold 2 MC_BUFFER
        # doubles (0.5 MB), and the mse metric adds its block-wide buffer
        # (0.5 MB); the warm-up call takes the first call's one-off 0.8 MB
        c = cov(m=0.5, q0=1.0, q1=0.5, K=3)
        generic_gen_error(c, estimator, metric, 500_000, seed=25)
        tracemalloc.start()
        try:
            generic_gen_error(c, estimator, metric, 500_000, seed=25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("estimator,metric", [("majority", "zero_one"), ("mean", "mse")])
    def test_chunked_blocks_equal_whole_block_draws_at_large_K(self, estimator, metric):
        # the oracle draws the block at once; the chunks continue its one stream
        c = cov(m=0.5, q0=1.0, q1=0.5, K=301)
        assert MC_BUFFER // (c.K + 1) < 10_000
        got = generic_gen_error(c, estimator, metric, 10_000, seed=24)
        assert got == gen_error_oracle(c, estimator, metric, 10_000, seed=24)

    @pytest.mark.parametrize("K", ORACLE_KS)
    def test_block_prefix_does_not_depend_on_count(self, K):
        c = cov(m=0.4, q0=1.1, q1=0.6, K=K)
        for buffers in ((), (np.empty((MC_BLOCK, K + 1)), np.empty((K + 1, MC_BLOCK)))):
            full_nu, full_mu = (a.copy() for a in _draw_samples(c, _block_stream(13, 2), MC_BLOCK, *buffers))
            nu, mu = _draw_samples(c, _block_stream(13, 2), 1000, *buffers)
            assert np.array_equal(nu, full_nu[:1000]) and np.array_equal(mu, full_mu[:1000])

    @pytest.mark.parametrize("K", ORACLE_KS)
    def test_block_samples_are_finite(self, K):
        c = cov(m=7.78, q0=140.55, q1=83.63, K=K)
        for block in range(3):
            nu, mu = _draw_samples(c, _block_stream(13, block), MC_BLOCK)
            assert np.isfinite(nu).all() and np.isfinite(mu).all()

    @pytest.mark.parametrize("K", ORACLE_KS)
    @pytest.mark.parametrize("estimator", ["avg_sign", "majority"])
    def test_boolean_count_equals_float_path(self, estimator, K):
        # 100,000 samples: a full block and a partial one; a callable
        # estimator is scored on its +-1 predictions
        c = cov(m=0.4, q0=1.1, q1=0.6, K=K)
        f_hat = resolve_estimator(estimator).f_hat
        want = generic_gen_error(c, f_hat, "zero_one", 100_000, seed=14, teacher="sign")
        assert generic_gen_error(c, estimator, "zero_one", 100_000, seed=14) == want

    @pytest.mark.parametrize("K", ORACLE_KS)
    @pytest.mark.parametrize("estimator", ["avg_sign", "majority"])
    def test_sign_estimators_equal_oracle_on_ties(self, estimator, K):
        # integer scores make exact zeros and tied votes common
        mu = np.random.default_rng(K).integers(-2, 3, size=(500, K)).astype(float)
        f_hat, _, positive = resolve_estimator(estimator)
        want = ESTIMATOR_ORACLES[estimator][0](mu)
        assert np.array_equal(f_hat(mu), want) and np.array_equal(positive(mu.T), want == 1.0)

    def test_rejects_non_psd(self):
        with pytest.raises(DomainError):
            generic_gen_error(cov(m=0.99, q0=1.0, q1=0.0, K=2), "avg_sign", "zero_one", 10**4, seed=0)

    def test_rejects_tiny_sample_budget(self):
        with pytest.raises(ConfigError):
            generic_gen_error(cov(K=1), "avg_sign", "zero_one", 100, seed=0)

    @pytest.mark.parametrize("samples", [1e5, True, "100000"])
    def test_rejects_non_int_samples(self, samples):
        with pytest.raises(ConfigError, match="samples"):
            generic_gen_error(cov(K=3), "avg_sign", "zero_one", samples, seed=1)

    @pytest.mark.parametrize("seed", [1.5, 2**64, -1, True, None])
    def test_rejects_seed_outside_one_philox_word(self, seed):
        # 1.5 used to run as seed 1, 2**64 to raise a bare OverflowError
        with pytest.raises(ConfigError, match="seed"):
            generic_gen_error(cov(K=3), "avg_sign", "zero_one", 10**4, seed=seed)

    def test_every_seed_of_one_philox_word_keys_its_own_stream(self):
        # a key tuple holding a Python int at or above 2**63 goes through
        # float64 (2**63 + 1 would draw the stream of 2**63), so the key is
        # built as uint64 words
        seeds = (0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)
        draws = {tuple(_block_stream(seed, 0).standard_normal(4)) for seed in seeds}
        assert len(draws) == len(seeds)
        c = cov(K=3)
        want = generic_gen_error(c, "avg_sign", "zero_one", 10**4, seed=2**64 - 1)
        assert generic_gen_error(c, "avg_sign", "zero_one", 10**4, seed=np.uint64(2**64 - 1)) == want

    @pytest.mark.parametrize("estimator", ["avg_sign", "majority", resolve_estimator("avg_sign").f_hat])
    def test_rejects_zero_one_against_linear_teacher(self, estimator):
        # a real-valued teacher never equals a +-1 prediction, so the estimate would read 1.0
        with pytest.raises(ConfigError, match="linear teacher"):
            generic_gen_error(cov(K=3), estimator, "zero_one", 20_000, seed=1, teacher="linear")

    @pytest.mark.parametrize("teacher", [None, "sign", "linear"])
    def test_rejects_mean_estimator_under_zero_one(self, teacher):
        # a real-valued prediction never equals a label, so the estimate would read 1.0
        with pytest.raises(ConfigError, match="'mean'"):
            generic_gen_error(cov(K=2), "mean", "zero_one", 10**4, seed=0, teacher=teacher)


class TestConfidenceDensity:
    def test_symmetry(self):
        grid = np.linspace(0.05, 0.95, 19)
        dens = confidence_density(1.0, 0.4, grid)
        np.testing.assert_allclose(dens, dens.T, atol=1e-12)

    def test_independence_factorizes(self):
        grid = np.linspace(0.1, 0.9, 9)
        dens = confidence_density(1.0, 0.0, grid)
        x = np.log(grid / (1 - grid))
        marg = np.exp(-(x**2) / 2) / math.sqrt(2 * math.pi) / (grid * (1 - grid))
        np.testing.assert_allclose(dens, np.outer(marg, marg), atol=1e-12)

    def test_normalization_by_grid_integration(self):
        n = 400
        grid = (np.arange(n) + 0.5) / n
        dens = confidence_density(1.0, 0.4, grid)
        mass = dens.sum() / n**2
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_correlation_rejected(self):
        with pytest.raises(DomainError):
            confidence_density(1.0, 1.0, np.linspace(0.1, 0.9, 5))

    def test_grid_domain(self):
        with pytest.raises(DomainError):
            confidence_density(1.0, 0.3, np.array([0.0, 0.5]))
