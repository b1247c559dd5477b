import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf, expit

from rfensemble import (
    ChannelSpec,
    ConfigError,
    FeatureEnsemble,
    ModelConfig,
    SolveOptions,
    activation_coeffs,
    empirical_overlaps,
    featurize,
    gauss_hermite_rule,
    generate_dataset,
    generic_gen_error,
    EnsembleCovariance,
    mp_spectral_model,
    run_experiment,
    sample_feature_ensemble,
    solve_fixed_point,
    square_test_error_erf,
    train_logistic,
    train_ridge,
    training_loss,
)
from rfensemble import erm_lab
from rfensemble.erm_lab import derive_seed, preactivation, run_trial, teacher_field
from rfensemble.errors import NumericalError
from oracles import train_logistic_lu_oracle, whole_ensemble_trial_oracle

COEFFS = activation_coeffs(erf, gauss_hermite_rule(201))
SQUARE = ChannelSpec(loss="square", teacher="linear")
LOGISTIC = ChannelSpec(loss="logistic", teacher="sign")


class TestGenerateDataset:
    def test_sign_labels_balanced(self):
        ds = generate_dataset(4000, 50, 1.0, "sign", seed=0)
        assert abs(ds.y.mean()) < 5 / math.sqrt(4000)
        assert set(np.unique(ds.y)) <= {-1.0, 1.0}

    def test_linear_labels_variance_concentrates(self):
        ds = generate_dataset(10_000, 1000, 1.7, "linear", seed=1)
        assert ds.y.var() == pytest.approx(1.7, rel=0.1)

    def test_teacher_norm_concentrates(self):
        ds = generate_dataset(10, 5000, 2.0, "linear", seed=2)
        assert np.dot(ds.theta, ds.theta) / 5000 == pytest.approx(2.0, abs=5 / math.sqrt(5000) * 2.0)

    def test_deterministic(self):
        a = generate_dataset(100, 20, 1.0, "sign", seed=3)
        b = generate_dataset(100, 20, 1.0, "sign", seed=3)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)


class TestFeaturize:
    def test_identity_map_recovers_scaled_inputs(self):
        d = 6
        ident = activation_coeffs(lambda x: x, gauss_hermite_rule(101))
        ens = FeatureEnsemble(
            F_list=(np.eye(d),), coeffs=ident, theta=np.zeros(d), seeds=(0,), activation=lambda x: x
        )
        X = np.random.default_rng(0).standard_normal((4, d))
        blocks = featurize(X, ens)
        np.testing.assert_allclose(blocks[0], X / math.sqrt(d), atol=1e-15)

    def test_erf_features_bounded(self):
        ds = generate_dataset(50, 30, 1.0, "sign", seed=4)
        ens = sample_feature_ensemble(2, 40, 30, COEFFS, ds.theta, seed=5, activation=erf)
        for U in featurize(ds.X, ens):
            assert np.all(np.abs(U) < 1.0)

    def test_column_second_moment_matches_coefficients(self):
        n, p, d = 6000, 60, 600
        ds = generate_dataset(n, d, 1.0, "sign", seed=6)
        ens = sample_feature_ensemble(1, p, d, COEFFS, ds.theta, seed=7, activation=erf)
        U = featurize(ds.X, ens)[0]
        want = COEFFS.kappa1**2 + COEFFS.kappa_star_sq
        got = np.mean(U**2)
        assert got == pytest.approx(want, abs=6 / math.sqrt(n))

    def test_shape_mismatch_rejected(self):
        ens = sample_feature_ensemble(1, 10, 8, COEFFS, np.zeros(8), seed=0)
        with pytest.raises(ConfigError):
            featurize(np.zeros((5, 9)), ens)


class TestTrainRidge:
    def test_weights_shrink_like_inverse_lambda(self):
        ds = generate_dataset(100, 40, 1.0, "linear", seed=10)
        ens = sample_feature_ensemble(1, 60, 40, COEFFS, ds.theta, seed=11, activation=erf)
        feats = featurize(ds.X, ens)
        w3, _ = train_ridge(feats, ds.y, 1e3)
        w4, _ = train_ridge(feats, ds.y, 1e4)
        ratio = np.linalg.norm(w3) / np.linalg.norm(w4)
        assert ratio == pytest.approx(10.0, rel=0.05)

    def test_interpolation_rank_dichotomy(self):
        ds = generate_dataset(80, 40, 1.0, "linear", seed=12)
        ens = sample_feature_ensemble(1, 160, 40, COEFFS, ds.theta, seed=13, activation=erf)
        feats = featurize(ds.X, ens)
        W, _ = train_ridge(feats, ds.y, 1e-6)
        mse = np.mean((ds.y - preactivation(feats[0], W[:, 0])) ** 2)
        assert mse <= 1e-10

        ens_small = sample_feature_ensemble(1, 40, 40, COEFFS, ds.theta, seed=14, activation=erf)
        feats_small = featurize(ds.X, ens_small)
        W2, _ = train_ridge(feats_small, ds.y, 1e-6)
        mse2 = np.mean((ds.y - preactivation(feats_small[0], W2[:, 0])) ** 2)
        assert mse2 > 1e-6

    def test_two_by_two_hand_solve(self):
        # oracle: explicit 2x2 normal equations solved by hand (Cramer)
        U = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([1.0, -2.0])
        lam = 0.7
        p = 2
        A = U.T @ U / p + lam * np.eye(p)
        b = U.T @ y / math.sqrt(p)
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        w_hand = np.array([(b[0] * A[1, 1] - b[1] * A[0, 1]) / det, (A[0, 0] * b[1] - A[1, 0] * b[0]) / det])
        W, resid = train_ridge([U], y, lam)
        np.testing.assert_allclose(W[:, 0], w_hand, atol=1e-12)
        assert resid[0] <= 1e-10

    def test_min_norm_limit_stable(self):
        ds = generate_dataset(60, 30, 1.0, "linear", seed=15)
        ens = sample_feature_ensemble(1, 120, 30, COEFFS, ds.theta, seed=16, activation=erf)
        feats = featurize(ds.X, ens)
        w_a, _ = train_ridge(feats, ds.y, 1e-6)
        w_b, _ = train_ridge(feats, ds.y, 1e-6 + 1e-9)
        rel = np.linalg.norm(w_a - w_b) / np.linalg.norm(w_a)
        assert rel <= 1e-4

    @pytest.mark.parametrize("lam", [1e-2, 1e-4])
    def test_dual_solve_matches_primal_normal_equations(self, lam):
        # p > n is solved in n-space; oracle: the p x p normal equations,
        # formed explicitly and solved by LU with one refinement step
        ds = generate_dataset(90, 40, 1.0, "linear", seed=30)
        ens = sample_feature_ensemble(2, 150, 40, COEFFS, ds.theta, seed=31, activation=erf)
        feats = featurize(ds.X, ens)
        W, _ = train_ridge(feats, ds.y, lam)
        for k, U in enumerate(feats):
            p = U.shape[1]
            A = U.T @ U / p + lam * np.eye(p)
            b = U.T @ ds.y / math.sqrt(p)
            w = np.linalg.solve(A, b)
            w += np.linalg.solve(A, b - A @ w)
            assert np.linalg.norm(W[:, k] - w) <= 1e-10 * np.linalg.norm(w)

    @pytest.mark.parametrize("n,p", [(60, 40), (40, 60)], ids=["p<n", "p>n-dual"])
    @pytest.mark.parametrize("scale,solves", [(1.0, 1), (1.0 + 1e-6, 2)], ids=["first-solve-meets", "refined"])
    def test_refines_only_when_the_first_solve_misses_the_contract(self, monkeypatch, n, p, scale, solves):
        # the first solve's answer scaled by 1 + 1e-6 stands for a solve that misses the contract
        ds = generate_dataset(n, 30, 1.0, "linear", seed=17)
        feats = featurize(ds.X, sample_feature_ensemble(1, p, 30, COEFFS, ds.theta, seed=18, activation=erf))
        want, _ = train_ridge(feats, ds.y, 1e-2)
        calls = []
        real = np.linalg.solve

        def solve(M, rhs):
            calls.append(rhs)
            return real(M, rhs) * (scale if len(calls) == 1 else 1.0)

        monkeypatch.setattr(np.linalg, "solve", solve)
        W, resid = train_ridge(feats, ds.y, 1e-2)
        b = feats[0].T @ ds.y / math.sqrt(p)
        assert len(calls) == solves
        assert resid[0] <= 1e-10 * max(1.0, np.linalg.norm(b))
        np.testing.assert_allclose(W, want, rtol=1e-10)

    def test_refinement_that_misses_the_contract_raises(self, monkeypatch):
        ds = generate_dataset(60, 30, 1.0, "linear", seed=17)
        feats = featurize(ds.X, sample_feature_ensemble(1, 40, 30, COEFFS, ds.theta, seed=18, activation=erf))
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda M, rhs: 2.0 * real(M, rhs))
        with pytest.raises(NumericalError, match="ridge optimality residual"):
            train_ridge(feats, ds.y, 1e-2)

    @pytest.mark.parametrize("n,p", [(16, 4), (4, 16)], ids=["p<n", "p>n-dual"])
    def test_singular_system_raises_numerical_error(self, n, p):
        # constant features give a rank-one Gram matrix with exact entries, so once a
        # lam below the rounding of its entries is added the LU solve meets an exact 0 pivot
        with pytest.raises(NumericalError, match="ridge normal equations failed"):
            train_ridge([np.ones((n, p))], np.ones(n), 1e-20)


class TestTrainLogistic:
    def test_large_lambda_null_predictor(self):
        ds = generate_dataset(200, 30, 1.0, "sign", seed=17)
        ens = sample_feature_ensemble(1, 50, 30, COEFFS, ds.theta, seed=18, activation=erf)
        feats = featurize(ds.X, ens)
        W, gns, _ = train_logistic(feats, ds.y, 1e4)
        assert np.linalg.norm(W) < 1e-2
        loss = np.mean(np.logaddexp(0, -ds.y * preactivation(feats[0], W[:, 0])))
        assert loss == pytest.approx(math.log(2), abs=1e-3)

    def test_separable_margins_nonnegative(self):
        ds = generate_dataset(40, 20, 1.0, "sign", seed=19)
        ens = sample_feature_ensemble(1, 200, 20, COEFFS, ds.theta, seed=20, activation=erf)
        feats = featurize(ds.X, ens)
        W, _, _ = train_logistic(feats, ds.y, 1e-4)
        margins = ds.y * preactivation(feats[0], W[:, 0])
        assert np.all(margins >= 0)

    def test_gradient_matches_finite_differences(self):
        # oracle: central differences of the summed objective
        ds = generate_dataset(60, 15, 1.0, "sign", seed=21)
        ens = sample_feature_ensemble(1, 25, 15, COEFFS, ds.theta, seed=22, activation=erf)
        U = featurize(ds.X, ens)[0]
        lam = 0.3
        W, gns, _ = train_logistic([U], ds.y, lam)
        w = W[:, 0]
        rng = np.random.default_rng(23)
        direction = rng.standard_normal(len(w))
        direction /= np.linalg.norm(direction)
        eps = 1e-6

        def objective(wv):
            z = preactivation(U, wv)
            return float(np.sum(np.logaddexp(0, -ds.y * z)) + 0.5 * lam * wv @ wv)

        fd = (objective(w + eps * direction) - objective(w - eps * direction)) / (2 * eps)
        assert fd == pytest.approx(0.0, abs=1e-5)
        assert gns[0] <= 1e-9 * math.sqrt(len(w))


class TestLogisticNewtonStep:
    """The Newton step on the smaller Gram matrix against the dense p x p LU Newton it replaced."""

    @pytest.mark.parametrize("lam", [1e-2, 1e-4])
    @pytest.mark.parametrize("n,p", [(120, 60), (120, 120), (120, 240)], ids=["p<n", "p=n", "p=2n-woodbury"])
    def test_matches_dense_lu_newton(self, n, p, lam):
        seed = (50, n, p)
        ds = generate_dataset(n, 60, 1.0, "sign", seed)
        ens = sample_feature_ensemble(2, p, 60, COEFFS, ds.theta, seed=derive_seed(seed, "features"), activation=erf)
        feats = featurize(ds.X, ens)
        W, gns, its = train_logistic(feats, ds.y, lam)
        W_lu, _, its_lu = train_logistic_lu_oracle(feats, ds.y, lam)
        np.testing.assert_array_equal(its, its_lu)
        for k, U in enumerate(feats):
            w = W[:, k]
            assert np.linalg.norm(w - W_lu[:, k]) <= 1e-12 * np.linalg.norm(W_lu[:, k])
            # the gradient at the returned weights, recomputed from U rather than carried
            s = expit(-ds.y * preactivation(U, w))
            grad = -U.T @ (ds.y * s) / math.sqrt(p) + lam * w
            assert np.linalg.norm(grad) <= 1e-8 * math.sqrt(p)
            assert gns[k] <= 1e-9 * math.sqrt(p)

    @pytest.mark.parametrize("n,p", [(16, 4), (4, 16)], ids=["p<n", "p>n-woodbury"])
    def test_singular_system_raises_numerical_error(self, n, p):
        # constant features give a rank-one Gram matrix whose entries are exact in
        # binary at the first step (s = 1/2), so the LU solve meets an exact 0 pivot
        # once a lam below the rounding of 1 is added
        with pytest.raises(NumericalError, match="Newton system"):
            train_logistic([np.ones((n, p))], np.ones(n), 1e-20)


class TestEmpiricalOverlaps:
    def test_zero_weights(self):
        ens = sample_feature_ensemble(2, 30, 20, COEFFS, np.zeros(20), seed=24)
        ov = empirical_overlaps(ens, np.zeros((30, 2)))
        assert ov.m == ov.q0 == ov.q1 == 0.0

    def test_identical_learners(self):
        d = 20
        rng = np.random.default_rng(25)
        F = rng.standard_normal((30, d))
        ens = FeatureEnsemble(F_list=(F, F), coeffs=COEFFS, theta=rng.standard_normal(d), seeds=(0, 0), activation=erf)
        w = rng.standard_normal(30)
        ov = empirical_overlaps(ens, np.column_stack([w, w]))
        # same F and same weights: the cross overlap only misses the
        # kappa_star^2 |w|^2/p piece that the diagonal block carries
        assert ov.q1 == pytest.approx(ov.q0 - COEFFS.kappa_star_sq * w @ w / 30, rel=1e-12)

    def test_q0_matches_monte_carlo_contraction(self):
        n_fresh, p, d = 40_000, 60, 120
        rng = np.random.default_rng(26)
        theta = rng.standard_normal(d)
        ens = sample_feature_ensemble(1, p, d, COEFFS, theta, seed=27, activation=erf)
        w = rng.standard_normal(p)
        ov = empirical_overlaps(ens, w[:, None])
        assert math.isnan(ov.q1)  # no pair of learners
        X = rng.standard_normal((n_fresh, d))
        scores = preactivation(featurize(X, ens)[0], w)
        mc = scores**2
        se = mc.std(ddof=1) / math.sqrt(n_fresh)
        assert abs(ov.q0 - mc.mean()) <= 3 * se

    def test_overlap_concentration_rate(self):
        # per-trial std of m shrinks like 1/sqrt(p), within a factor 2
        stds = {}
        for p in (100, 200, 400):
            ms = []
            for t in range(12):
                rec = run_trial(t, (28, p, t), SQUARE, COEFFS, n=2 * p, p=p, d=p, K=1,
                                rho=1.0, lam=0.1, estimator="mean", activation=erf, test_samples=100)
                ms.append(rec.m)
            stds[p] = np.std(ms, ddof=1)
        for p_small, p_big in ((100, 400),):
            expected = math.sqrt(p_big / p_small)
            ratio = stds[p_small] / stds[p_big]
            assert expected / 2 < ratio < expected * 2


class TestDeriveSeed:
    @pytest.mark.parametrize("bad", [2**32, -1, np.uint64(2**63)])
    def test_int_outside_32_bits_rejected(self, bad):
        # reduced mod 2**32, trial seeds (0, t) and (2**32, t) drew the same features and test points
        assert derive_seed(2**32 - 1) == (2**32 - 1,)
        with pytest.raises(ConfigError, match=r"\[0, 2\*\*32\)"):
            derive_seed((bad, 0), "features")

    def test_colliding_master_seed_rejected_before_any_trial(self):
        def no_trials(*args):
            raise AssertionError("ran a trial before rejecting the seed")

        kwargs = dict(n=30, p=20, d=10, K=2, rho=1.0, lam=0.5, trials=2, activation=erf, test_samples=100,
                      map_fn=no_trials)
        with pytest.raises(ConfigError, match=r"2\*\*32"):
            run_experiment(SQUARE, COEFFS, master_seed=2**32, **kwargs)
        with pytest.raises(ConfigError, match=r"2\*\*32"):
            run_experiment(SQUARE, COEFFS, seeds=[(0, 0), (2**32, 1)], **kwargs)


class TestRunExperiment:
    def test_deterministic(self):
        kwargs = dict(n=60, p=40, d=30, K=2, rho=1.0, lam=0.5, trials=2, master_seed=5, activation=erf, test_samples=500)
        a = run_experiment(SQUARE, COEFFS, **kwargs)
        b = run_experiment(SQUARE, COEFFS, **kwargs)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb

    def test_mean_estimator_rejected_for_a_margin_loss(self):
        # real-valued predictions never equal a +-1 label, so every test point would count as an error
        with pytest.raises(ConfigError, match="'mean'"):
            run_experiment(LOGISTIC, COEFFS, n=30, p=20, d=10, K=2, rho=1.0, lam=0.5, trials=2,
                           estimator="mean", activation=erf, test_samples=100)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_nonpositive_test_samples_rejected_before_any_trial(self, samples):
        def no_trials(*args):
            raise AssertionError("ran a trial before rejecting test_samples")

        with pytest.raises(ConfigError, match="test_samples"):
            run_experiment(LOGISTIC, COEFFS, n=30, p=20, d=10, K=2, rho=1.0, lam=0.5, trials=2,
                           activation=erf, test_samples=samples, map_fn=no_trials)
        with pytest.raises(ConfigError, match="test_samples"):
            run_trial(0, (53, 0), LOGISTIC, COEFFS, n=30, p=20, d=10, K=2, rho=1.0, lam=0.5,
                      estimator="avg_sign", activation=erf, test_samples=samples)

    def test_coefficients_of_another_activation_rejected_before_any_trial(self):
        # erf's coefficients with tanh features would give wrong overlaps without an error
        def no_trials(*args):
            raise AssertionError("ran a trial with mismatched coefficients")

        with pytest.raises(ConfigError, match="coeffs"):
            run_experiment(SQUARE, COEFFS, n=30, p=20, d=10, K=2, rho=1.0, lam=0.5, trials=2,
                           activation=np.tanh, test_samples=100, map_fn=no_trials)
        off = dataclasses.replace(COEFFS, kappa1=COEFFS.kappa1 * (1.0 + 1e-8))
        with pytest.raises(ConfigError, match="coeffs"):
            run_experiment(SQUARE, off, n=30, p=20, d=10, K=2, rho=1.0, lam=0.5, trials=2,
                           activation=erf, test_samples=100, map_fn=no_trials)

    def test_failures_recorded_not_raised(self):
        hinge = ChannelSpec(loss="hinge", teacher="sign")
        res = run_experiment(hinge, COEFFS, n=30, p=20, d=10, K=1, rho=1.0, lam=0.5,
                             trials=2, master_seed=0, activation=erf, test_samples=100)
        assert res.failures == 2
        assert all(not r.ok and "ConfigError" in r.error for r in res.records)

    def test_empirical_error_matches_gaussian_model_at_empirical_overlaps(self):
        res = run_experiment(LOGISTIC, COEFFS, n=300, p=200, d=150, K=2, rho=1.0, lam=1e-2,
                             trials=8, master_seed=2, activation=erf, test_samples=4000)
        agg = res.aggregate()
        cov = EnsembleCovariance(rho=1.0, m=agg["m"]["mean"], q0=agg["q0"]["mean"], q1=agg["q1"]["mean"], K=2)
        mc, mc_se = generic_gen_error(cov, "avg_sign", "zero_one", 10**5, seed=3)
        se = math.hypot(agg["test_error"]["std_error"], mc_se)
        assert abs(agg["test_error"]["mean"] - mc) <= 3 * se + 1e-3

    def test_training_loss_matches_theory(self):
        # asymptotic per-sample training loss vs the trained ensembles at d=200
        alpha, gamma, lam = 1.5, 0.75, 1e-2
        model = mp_spectral_model(alpha, gamma, COEFFS)
        cfg = ModelConfig(alpha=alpha, gamma=gamma, rho=1.0, lam=lam, K=1, spec=LOGISTIC,
                          spectrum=model, coeffs=COEFFS)
        fp = solve_fixed_point(cfg, SolveOptions(tol=1e-10, max_iters=30000))
        theory = training_loss(fp.params, 1.0, LOGISTIC)
        d = 200
        n = int(round(alpha / gamma * d))
        p = int(round(d / gamma))
        res = run_experiment(LOGISTIC, COEFFS, n=n, p=p, d=d, K=1, rho=1.0, lam=lam,
                             trials=10, master_seed=4, activation=erf, test_samples=100)
        agg = res.aggregate()
        assert agg["failures"] == 0
        se = agg["train_loss"]["std_error"]
        assert abs(agg["train_loss"]["mean"] - theory) <= 3 * se


class TestDefaultActivation:
    """Without `activation` the lab featurizes with scipy's erf ufunc itself, the identity that the in-place
    `featurize`, the exact ridge test error and the certified signs look for."""

    KW = dict(n=60, p=40, d=30, K=2, rho=1.0, lam=1e-2, test_samples=1500)

    def test_sample_feature_ensemble(self):
        assert sample_feature_ensemble(2, 30, 20, COEFFS, np.zeros(20), seed=0).activation is erf

    @pytest.mark.parametrize("spec,estimator", [(SQUARE, "mean"), (LOGISTIC, "avg_sign")], ids=["ridge", "logistic"])
    def test_run_trial(self, monkeypatch, spec, estimator):
        ensembles = []
        sample = erm_lab.sample_feature_ensemble

        def recorded(*args, **kwargs):
            ensembles.append(sample(*args, **kwargs))
            return ensembles[-1]

        monkeypatch.setattr(erm_lab, "sample_feature_ensemble", recorded)
        rec = run_trial(0, (61, 0), spec, COEFFS, estimator=estimator, **self.KW)
        assert rec.ok and len(ensembles) == 1 and ensembles[0].activation is erf
        assert rec == run_trial(0, (61, 0), spec, COEFFS, estimator=estimator, activation=erf, **self.KW)

    def test_run_experiment(self):
        kwargs = dict(self.KW, trials=2, master_seed=62)
        default = run_experiment(LOGISTIC, COEFFS, **kwargs).records
        assert all(r.ok for r in default)
        assert default == run_experiment(LOGISTIC, COEFFS, activation=erf, **kwargs).records


def _trained_ensemble(seed, n, p, d, K, lam=1e-2):
    ds = generate_dataset(n, d, 1.0, "linear", seed)
    ens = sample_feature_ensemble(K, p, d, COEFFS, ds.theta, seed=derive_seed(seed, "features"), activation=erf)
    W, _ = train_ridge(featurize(ds.X, ens), ds.y, lam)
    return ds, ens, W


class TestSquareTestErrorErf:
    def test_matches_sampled_mse(self):
        # oracle: 400k fresh test points through the trained ensemble's mean score
        ds, ens, W = _trained_ensemble((40, 0), n=150, p=100, d=50, K=2)
        exact = square_test_error_erf(ds.theta, ens, W)
        rng = np.random.default_rng(41)
        errs = []
        for _ in range(8):
            X = rng.standard_normal((50_000, ds.theta.size))
            scores = np.column_stack([preactivation(U, W[:, k]) for k, U in enumerate(featurize(X, ens))])
            errs.append((teacher_field(X, ds.theta) - scores.mean(axis=1)) ** 2)
        errs = np.concatenate(errs)
        se = errs.std(ddof=1) / math.sqrt(errs.size)
        assert abs(exact - errs.mean()) <= 4 * se


def _count_featurize(monkeypatch):
    """Record each featurize call as (inputs, seeds of the learners it featurizes)."""
    calls = []
    real = erm_lab.featurize

    def counting(X, ensemble):
        calls.append((X, ensemble.seeds))
        return real(X, ensemble)

    monkeypatch.setattr(erm_lab, "featurize", counting)
    return calls


def _rows_per_learner(calls, X_train):
    """Training and test rows featurized for each learner seed, summed over the calls."""
    train, test = {}, {}
    for X, seeds in calls:
        is_train = X.shape == X_train.shape and np.array_equal(X, X_train)
        for seed in seeds:
            rows = train if is_train else test
            rows[seed] = rows.get(seed, 0) + X.shape[0]
    return train, test


class TestRunTrialTestError:
    KW = dict(n=60, p=50, d=30, K=2, rho=1.0, lam=0.1, test_samples=300)

    def test_ridge_erf_trial_is_exact_without_test_features(self, monkeypatch):
        calls = _count_featurize(monkeypatch)
        rec = run_trial(0, (43, 0), SQUARE, COEFFS, estimator="mean", activation=erf, **self.KW)
        assert rec.ok
        ds, ens, W = _trained_ensemble((43, 0), n=60, p=50, d=30, K=2, lam=0.1)
        # the n training rows, once for each learner, and no test rows
        train, test = _rows_per_learner(calls, ds.X)
        assert train == {seed: self.KW["n"] for seed in ens.seeds}
        assert test == {}
        assert rec.test_error == square_test_error_erf(ds.theta, ens, W)

    def test_tanh_trial_still_samples(self, monkeypatch):
        tanh_coeffs = activation_coeffs(np.tanh, gauss_hermite_rule(201))
        calls = _count_featurize(monkeypatch)
        rec = run_trial(0, (44, 0), SQUARE, tanh_coeffs, estimator="mean", activation=np.tanh, **self.KW)
        assert rec.ok
        ds = generate_dataset(self.KW["n"], self.KW["d"], 1.0, "linear", (44, 0))
        seeds = sample_feature_ensemble(self.KW["K"], self.KW["p"], self.KW["d"], tanh_coeffs, ds.theta,
                                        seed=derive_seed((44, 0), "features")).seeds
        # the n training rows and test_samples test rows, once for each of the K learners
        train, test = _rows_per_learner(calls, ds.X)
        assert train == {seed: self.KW["n"] for seed in seeds}
        assert test == {seed: self.KW["test_samples"] for seed in seeds}


CHUNK = erm_lab._TEST_CHUNK


class TestStreamedTestScores:
    """The sampled test error, featurized in row chunks, against one whole-array draw."""

    KW = dict(n=80, p=60, d=30, rho=1.0, lam=1e-2)

    @pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 5000])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("estimator", ["avg_sign", "majority"])
    def test_logistic_record_equals_whole_array_scoring(self, samples, K, estimator):
        args = (3, (54, samples, K), LOGISTIC, COEFFS)
        kw = dict(self.KW, K=K, estimator=estimator, activation=erf, test_samples=samples)
        assert run_trial(*args, **kw) == whole_ensemble_trial_oracle(*args, **kw)

    @pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1, 5000])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_tanh_mean_record_equals_whole_array_scoring(self, samples, K):
        coeffs = activation_coeffs(np.tanh, gauss_hermite_rule(201))
        args = (4, (55, samples, K), SQUARE, coeffs)
        kw = dict(self.KW, K=K, estimator="mean", activation=np.tanh, test_samples=samples)
        rec, want = run_trial(*args, **kw), whole_ensemble_trial_oracle(*args, **kw)
        # with one BLAS thread the two agree bit for bit; with several, a product over the
        # whole block splits its rows between threads by its length, and a row at a split
        # may round differently, so the mean squared error is held to rounding
        assert rec == dataclasses.replace(want, test_error=rec.test_error)
        assert rec.test_error == pytest.approx(want.test_error, rel=1e-13, abs=0)

    def test_memory_does_not_grow_with_test_samples(self):
        # one whole (200k, d) draw is 48 MB before any feature block is built
        samples, d = 200_000, 30
        tracemalloc.start()
        try:
            rec = run_trial(0, (56, 0), LOGISTIC, COEFFS, n=60, p=50, d=d, K=2, rho=1.0, lam=1e-2,
                            estimator="avg_sign", activation=erf, test_samples=samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rec.ok
        assert peak <= 16e6, f"traced peak {peak / 1e6:.1f} MB"


def _differing_fields(a, b):
    """Names of the fields where two records differ, nan counting as equal to nan."""
    def same(u, v):
        return u == v or (isinstance(u, float) and isinstance(v, float) and math.isnan(u) and math.isnan(v))

    return [f.name for f in dataclasses.fields(a) if not same(getattr(a, f.name), getattr(b, f.name))]


TANH = activation_coeffs(np.tanh, gauss_hermite_rule(201))


class TestOneLearnerAtATime:
    """The trial featurizes, trains and scores one learner at a time; the whole ensemble at once is the oracle."""

    @pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK + 1, 3000])
    @pytest.mark.parametrize("n,p", [(80, 40), (80, 80), (80, 160)], ids=["p<n", "p=n", "p>n"])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize(
        "spec,coeffs,activation,estimator",
        [(SQUARE, COEFFS, erf, "mean"), (SQUARE, TANH, np.tanh, "mean"),
         (LOGISTIC, COEFFS, erf, "avg_sign"), (LOGISTIC, COEFFS, erf, "majority")],
        ids=["ridge-erf-exact", "ridge-tanh-mean", "logistic-avg_sign", "logistic-majority"],
    )
    def test_record_equals_whole_ensemble_trial(self, spec, coeffs, activation, estimator, K, n, p, samples):
        args = (2, (57, K, n, p, samples), spec, coeffs)
        kw = dict(n=n, p=p, d=30, K=K, rho=1.0, lam=1e-2, estimator=estimator, activation=activation,
                  test_samples=samples)
        rec = run_trial(*args, **kw)
        assert rec.ok, rec.error
        assert _differing_fields(rec, whole_ensemble_trial_oracle(*args, **kw, chunk=CHUNK)) == []

    @pytest.mark.parametrize(
        "spec,estimator,n,p,samples",
        [(SQUARE, "mean", 200, 400, 100), (LOGISTIC, "avg_sign", 200, 200, 4096)],
        ids=["ridge-erf-exact", "logistic-sampled"],
    )
    def test_peak_memory_grows_with_K_by_the_feature_matrices_alone(self, spec, estimator, n, p, samples):
        d, slack = 100, 0.5e6
        peaks = {}
        for K in (1, 6):
            tracemalloc.start()
            try:
                rec = run_trial(0, (58, 0), spec, COEFFS, n=n, p=p, d=d, K=K, rho=1.0, lam=1e-2,
                                estimator=estimator, activation=erf, test_samples=samples)
                _, peaks[K] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rec.ok, rec.error
        added_features = 5 * p * d * 8  # five more p x d float64 matrices F_k
        rise = peaks[6] - peaks[1]
        assert rise <= added_features + slack, (
            f"peak rose {rise / 1e6:.2f} MB from K = 1 to 6, against {added_features / 1e6:.2f} MB of F"
        )


def _exact_erf(a):
    """scipy's erf behind a wrapper, which takes a sign-estimator trial down the exact route."""
    return erf(a)


def _count_rescored(monkeypatch):
    """Record each float64 rescoring as (route, learner has a nonzero weight, rows rescored, rows in the chunk).

    The route is "row" for `_row_scores`, which sees only the rows it rescores (so its chunk is
    None), and "chunk" for `_rescore`, the exact route over the whole chunk.
    """
    calls = []
    real_row, real_chunk = erm_lab._row_scores, erm_lab._rescore

    def row(X, F, w):
        calls.append(("row", bool(np.any(w)), X.shape[0], None))
        return real_row(X, F, w)

    def chunk(X, F, w, rows, A, out):
        calls.append(("chunk", bool(np.any(w)), rows.size, X.shape[0]))
        return real_chunk(X, F, w, rows, A, out)

    monkeypatch.setattr(erm_lab, "_row_scores", row)
    monkeypatch.setattr(erm_lab, "_rescore", chunk)
    return calls


def _rescored(calls, route):
    """Rows rescored by one route, summed over its calls."""
    return sum(rows for r, _, rows, _ in calls if r == route)


class TestErfSurrogate:
    """The float32 erf surrogate of the certified scores against scipy's erf, through the production code."""

    @staticmethod
    def surrogate(x):
        x = np.asarray(x, dtype=float)
        return erm_lab._erf_surrogate(x, *(np.empty(x.shape, np.float32) for _ in range(3))).astype(float)

    def test_within_half_the_declared_bound_on_a_dense_grid(self):
        # 10^7 points over [0, 6], the range where the surrogate is not clipped
        worst = max(np.max(np.abs(self.surrogate(x) - erf(x))) for x in np.array_split(np.linspace(0, 6, 10**7), 10))
        assert 2 * worst <= erm_lab._ERF_DELTA, f"worst error {worst:.3e}"

    def test_within_half_the_declared_bound_out_to_1e3_and_on_a_log_grid(self):
        x = np.concatenate([np.linspace(6, 1e3, 200_001), np.logspace(-300, 300, 6001)])
        x = np.concatenate([x, -x])
        worst = np.max(np.abs(self.surrogate(x) - erf(x)))
        assert 2 * worst <= erm_lab._ERF_DELTA, f"worst error {worst:.3e}"

    def test_infinities_huge_values_and_signed_zeros(self):
        got = self.surrogate([np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0])
        assert got.tolist() == [1.0, -1.0, 1.0, -1.0, 0.0, 0.0]
        assert np.signbit(got).tolist() == [False, True, False, True, False, True]

    def test_exactly_odd(self):
        x = np.linspace(0, 8, 10**6 + 1)
        np.testing.assert_array_equal(self.surrogate(-x), -self.surrogate(x))


def _trained_logistic(seed, n, p, d, K, lam):
    ds = generate_dataset(n, d, 1.0, "sign", seed)
    ens = sample_feature_ensemble(K, p, d, COEFFS, ds.theta, seed=derive_seed(seed, "features"), activation=erf)
    W, _, _ = train_logistic(featurize(ds.X, ens), ds.y, lam)
    return ds, ens, W


class TestCertificateRadii:
    """The two levels of radii of the certified scores against the exact route's scores."""

    def test_screened_and_row_scores_lie_within_their_radii_at_the_benchmark_logistic_size(self):
        # the erm-lab workload's logistic configuration (rfbench/worker.py): 49 chunks x 2 learners,
        # 100,352 scores; the row route runs on blocks of 7 rows, a shape the chunk route never takes
        p, d, K = 200, 100, 2
        _, ens, W = _trained_logistic((63, 0), n=200, p=p, d=d, K=K, lam=1e-4)
        score = erm_lab._CertifiedErfScores(ens, W, True, CHUNK)
        rng = np.random.default_rng(64)
        screened, exact = np.empty((CHUNK, K)), np.empty((CHUNK, K))
        worst = worst_row = 0.0
        for _ in range(49):
            X = rng.standard_normal((CHUNK, d))
            xv = score.screen(X, screened)
            erm_lab._exact_scores(erm_lab._learners(ens), W, X, exact)
            ratio = np.abs(screened - exact) / score.radius(xv, score.screen_coef)
            row_radius = score.radius(xv, score.row_coef)
            for k, F in enumerate(ens.F_list):
                rows = np.concatenate([erm_lab._row_scores(X[i:i + 7], F, W[:, k]) for i in range(0, CHUNK, 7)])
                worst_row = max(worst_row, float(np.max(np.abs(rows - exact[:, k]) / row_radius[:, k])))
            worst = max(worst, float(np.max(ratio)))
        assert worst <= 1.0 and worst_row <= 1.0, f"largest |s~ - s|/r {worst:.3g}, |s_row - s|/r' {worst_row:.3g}"

    def test_weights_beyond_float32_take_an_infinite_screen_radius(self):
        _, ens, W = _trained_ensemble((66, 0), n=80, p=60, d=30, K=2)
        assert np.all(np.isinf(erm_lab._CertifiedErfScores(ens, W * 1e39, True, CHUNK).screen_coef[1]))
        for scale in (1.0, 1e-42):
            coef = erm_lab._CertifiedErfScores(ens, W * scale, True, CHUNK).screen_coef[1]
            assert np.all(np.isfinite(coef) & (coef > 0))


class TestCertifiedSigns:
    """A sign estimator on erf features is scored by certified signs; the exact route is the oracle."""

    @pytest.mark.parametrize("p", [60, 200, 400])
    @pytest.mark.parametrize("lam", [1e-2, 1e-4])
    @pytest.mark.parametrize("K", [1, 3, 5])
    @pytest.mark.parametrize("estimator", ["avg_sign", "majority"])
    @pytest.mark.parametrize("spec", [LOGISTIC, SQUARE], ids=["logistic", "square"])
    def test_record_equals_exact_route(self, spec, estimator, K, lam, p):
        args = (5, (59, K, p, round(-math.log10(lam))), spec, COEFFS)
        kw = dict(n=80, p=p, d=30, K=K, rho=1.0, lam=lam, estimator=estimator, test_samples=2100)
        rec = run_trial(*args, activation=erf, **kw)
        assert rec.ok, rec.error
        assert _differing_fields(rec, run_trial(*args, activation=_exact_erf, **kw)) == []

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("estimator", ["avg_sign", "majority"])
    def test_record_equals_exact_route_with_a_coarse_surrogate(self, monkeypatch, estimator, K):
        # tanh(2x/sqrt(pi)) is off erf by up to 0.035; declared as 0.08, its radius leaves many scores
        # and sums uncertified, and the certified ones must still carry the exact route's signs
        monkeypatch.setattr(erm_lab, "_ERF_P", (np.float32(0.0), np.float32(2 / math.sqrt(math.pi))))
        monkeypatch.setattr(erm_lab, "_ERF_DELTA", 0.08)
        x = np.linspace(-8, 8, 10**5 + 1)
        assert 2 * np.max(np.abs(TestErfSurrogate.surrogate(x) - erf(x))) <= erm_lab._ERF_DELTA
        calls = _count_rescored(monkeypatch)
        args = (6, (60, K), LOGISTIC, COEFFS)
        kw = dict(n=80, p=60, d=30, K=K, rho=1.0, lam=1e-2, estimator=estimator, test_samples=2100)
        rec = run_trial(*args, activation=erf, **kw)
        rescored = _rescored(calls, "row") + _rescored(calls, "chunk")
        assert 0.2 * 2100 * K <= rescored < 2100 * K
        assert _differing_fields(rec, run_trial(*args, activation=_exact_erf, **kw)) == []

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("estimator", ["avg_sign", "majority"])
    def test_zero_weight_learner_is_rescored_on_every_row(self, monkeypatch, estimator, K):
        # its screened and row scores are exactly 0 and its radii are underflow terms alone, so
        # nothing certifies them; rescored on the exact route, they are exactly 0 again and count
        # as positive
        ds, ens, W = _trained_ensemble((61, K), n=80, p=60, d=30, K=K)
        W[:, 0] = 0.0
        calls = _count_rescored(monkeypatch)
        y, scores = erm_lab._sampled_test_scores((62, 0), ds.theta, "sign", ens, W, 2100, estimator)
        zero = [(route, rows, chunk) for route, nonzero, rows, chunk in calls if not nonzero]
        assert [rows for route, rows, _ in zero if route == "row"] == [1024, 1076]
        assert [(rows, chunk) for route, rows, chunk in zero if route == "chunk"] == [(1024, 1024), (1076, 1076)]
        assert np.all(scores[:, 0] == 0.0)
        exact = dataclasses.replace(ens, activation=_exact_erf)
        y_exact, scores_exact = erm_lab._sampled_test_scores((62, 0), ds.theta, "sign", exact, W, 2100, estimator)
        np.testing.assert_array_equal(y, y_exact)
        f_hat = erm_lab.resolve_estimator(estimator).f_hat
        np.testing.assert_array_equal(f_hat(scores), f_hat(scores_exact))
        np.testing.assert_array_equal(scores >= 0, scores_exact >= 0)
        if K == 1:
            assert np.all(f_hat(scores) == 1.0)

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("estimator", ["avg_sign", "majority"])
    @pytest.mark.parametrize("weights", ["times 1e39", "times 1e-42", "first learner zero"])
    def test_record_equals_exact_route_with_extreme_weights(self, monkeypatch, weights, estimator, K):
        # x 1e39 overflows float32, so the screen certifies nothing and the row route scores every
        # point; x 1e-42 makes every float32 weight subnormal; a zero learner is left open by both
        # levels and rescored on the exact route
        trained = []
        real = erm_lab.train_logistic

        def scaled(features, y, lam):
            W, gn, its = real(features, y, lam)
            trained.append(None)
            if weights == "first learner zero":
                return (W * 0.0 if len(trained) == 1 else W), gn, its
            return W * {"times 1e39": 1e39, "times 1e-42": 1e-42}[weights], gn, its

        monkeypatch.setattr(erm_lab, "train_logistic", scaled)
        calls = _count_rescored(monkeypatch)
        args = (7, (65, K), LOGISTIC, COEFFS)
        kw = dict(n=80, p=60, d=30, K=K, rho=1.0, lam=1e-2, estimator=estimator, test_samples=2100)
        rec = run_trial(*args, activation=erf, **kw)
        assert rec.ok, rec.error
        if weights == "times 1e39":
            assert _rescored(calls, "row") == 2100 * K
        if weights == "first learner zero":
            assert _rescored(calls, "chunk") >= 2100
        trained.clear()
        assert _differing_fields(rec, run_trial(*args, activation=_exact_erf, **kw)) == []

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("estimator", ["avg_sign", "majority"])
    def test_record_equals_exact_route_when_the_row_certificate_fails(self, monkeypatch, estimator, K):
        # the coarse surrogate leaves many scores open, and nan row scores certify nothing, so every
        # score the screen leaves open goes on to the exact route
        monkeypatch.setattr(erm_lab, "_ERF_P", (np.float32(0.0), np.float32(2 / math.sqrt(math.pi))))
        monkeypatch.setattr(erm_lab, "_ERF_DELTA", 0.08)
        monkeypatch.setattr(erm_lab, "_row_scores", lambda X, F, w: np.full(X.shape[0], np.nan))
        calls = _count_rescored(monkeypatch)
        args = (6, (67, K), LOGISTIC, COEFFS)
        kw = dict(n=80, p=60, d=30, K=K, rho=1.0, lam=1e-2, estimator=estimator, test_samples=2100)
        rec = run_trial(*args, activation=erf, **kw)
        assert _rescored(calls, "chunk") >= _rescored(calls, "row") >= 0.2 * 2100 * K
        assert _differing_fields(rec, run_trial(*args, activation=_exact_erf, **kw)) == []

    def test_few_rows_rescored_and_none_featurized_at_the_benchmark_logistic_size(self, monkeypatch):
        # the erm-lab workload's logistic configuration (rfbench/worker.py), one trial
        seed, n, d, K, samples = (0, 0, 2, 0), 200, 100, 2, 10_000
        featurized = _count_featurize(monkeypatch)
        calls = _count_rescored(monkeypatch)
        rec = run_trial(0, seed, LOGISTIC, COEFFS, n=n, p=200, d=d, K=K, rho=1.0, lam=1e-4,
                        estimator="avg_sign", activation=erf, test_samples=samples)
        assert rec.ok, rec.error
        assert _rescored(calls, "row") + _rescored(calls, "chunk") < 0.01 * samples * K
        assert _rescored(calls, "chunk") == 0
        train, test = _rows_per_learner(featurized, generate_dataset(n, d, 1.0, "sign", seed).X)
        assert sorted(train.values()) == [n] * K
        assert test == {}
