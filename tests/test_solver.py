import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from rfensemble import (
    FixedPoint,
    ChannelSpec,
    ConfigError,
    ConjugateParams,
    ModelConfig,
    OrderParams,
    SolveOptions,
    activation_coeffs,
    gauss_hermite_rule,
    mp_spectral_model,
    solve_fixed_point,
    solve_kernel_limit,
)

from rfensemble import channels, cli, priors, solver
from oracles import (
    damped_kernel_oracle,
    damped_solve_oracle,
    iterate_array_oracle,
    kernel_ridge_closed_form_derived,
    project_array_oracle,
    square_root_oracle,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RULE_201 = gauss_hermite_rule(201)
COEFFS = activation_coeffs(erf, RULE_201)
SQUARE = ChannelSpec(loss="square", teacher="linear")
LOGISTIC = ChannelSpec(loss="logistic", teacher="sign")


def ridge_config(alpha=1.0, gamma=1.0, lam=10.0, K=1):
    return ModelConfig(
        alpha=alpha, gamma=gamma, rho=1.0, lam=lam, K=K,
        spec=SQUARE, spectrum=mp_spectral_model(alpha, gamma, COEFFS), coeffs=COEFFS,
    )


def logistic_config(alpha=1.0, gamma=0.5, lam=1e-2):
    return ModelConfig(
        alpha=alpha, gamma=gamma, rho=1.0, lam=lam, K=2,
        spec=LOGISTIC, spectrum=mp_spectral_model(alpha, gamma, COEFFS), coeffs=COEFFS,
    )


class TestSolveFixedPoint:
    def test_strong_ridge_converges_fast(self):
        fp = solve_fixed_point(ridge_config(), SolveOptions(damping=0.5, tol=1e-10))
        assert fp.converged
        assert fp.iterations < 200
        assert fp.residual <= 1e-10

    def test_idempotent_at_fixed_point(self, monkeypatch):
        opts = SolveOptions(tol=1e-10)
        fp = solve_fixed_point(ridge_config(), opts)
        stage_one = []
        inner = solver._iterate
        monkeypatch.setattr(solver, "_iterate", lambda *a: stage_one.append(inner(*a)) or stage_one[-1])
        again = solve_fixed_point(ridge_config(), SolveOptions(tol=1e-10, init=fp.params))
        assert [s.iterations for s in stage_one] == [1]
        assert again.iterations <= 1 + 3
        np.testing.assert_allclose(np.array(again.params), np.array(fp.params), atol=1e-9)

    @pytest.mark.parametrize("config_fn", [ridge_config, logistic_config])
    def test_damping_invariance(self, config_fn):
        tol = 1e-10
        fps = [
            solve_fixed_point(config_fn(), SolveOptions(damping=d, tol=tol, max_iters=20000))
            for d in (0.3, 0.5, 0.8)
        ]
        assert all(fp.converged for fp in fps)
        base = np.array(fps[0].params)
        for fp in fps[1:]:
            assert np.max(np.abs(np.array(fp.params) - base)) < 10 * tol * max(1.0, np.max(np.abs(base)))

    @pytest.mark.parametrize("config_fn", [ridge_config, logistic_config])
    def test_init_invariance(self, config_fn):
        tol = 1e-10
        small = OrderParams(m=0.01, q0=1.0, q1=0.5, v=1.0)
        large = OrderParams(m=0.9, q0=2.0, q1=1.8, v=0.1)
        fa = solve_fixed_point(config_fn(), SolveOptions(tol=tol, init=small, max_iters=20000))
        fb = solve_fixed_point(config_fn(), SolveOptions(tol=tol, init=large, max_iters=20000))
        assert fa.converged and fb.converged
        scale = max(1.0, np.max(np.abs(np.array(fa.params))))
        assert np.max(np.abs(np.array(fa.params) - np.array(fb.params))) < 10 * tol * scale

    def test_interpolation_divergence_is_structured(self, monkeypatch):
        # near the peak q0 grows linearly per iteration, so exercising the
        # structured outcome at the real 1e12 threshold would take ~1e13
        # iterations; lower the threshold to test the handling itself
        import rfensemble.solver as solver_mod

        monkeypatch.setattr(solver_mod, "DIVERGENCE_Q0", 1e2)
        cfg = ridge_config(alpha=1.0, gamma=0.5, lam=1e-10)
        fp = solve_fixed_point(cfg, SolveOptions(max_iters=20000))
        assert not fp.converged
        assert fp.status == "interpolation_divergence"

    def test_iterates_stay_admissible(self):
        fp = solve_fixed_point(logistic_config(), SolveOptions(tol=1e-9, max_iters=20000))
        p = fp.params
        assert p.q0 > 0 and abs(p.q1) <= p.q0 and p.m**2 <= 1.0 * p.q0 * (1 + 1e-9)
        assert fp.projections >= 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(alpha=1.0, gamma=1.0, rho=1.0, lam=0.0, K=1,
                        spec=SQUARE, spectrum=mp_spectral_model(1.0, 1.0, COEFFS), coeffs=COEFFS)
        with pytest.raises(ConfigError):
            ModelConfig(alpha=-1.0, gamma=1.0, rho=1.0, lam=1.0, K=1,
                        spec=SQUARE, spectrum=mp_spectral_model(1.0, 1.0, COEFFS), coeffs=COEFFS)

    @pytest.mark.parametrize(
        "spectrum",
        [mp_spectral_model(1.0, 2.0, COEFFS), mp_spectral_model(1.0, 0.5, activation_coeffs(np.tanh, RULE_201))],
        ids=["other-gamma", "other-activation"],
    )
    def test_config_rejects_a_spectrum_of_another_model(self, spectrum):
        # the spectral prior reads gamma and kappa_star^2 from the spectrum alone
        with pytest.raises(ConfigError, match="spectrum"):
            ModelConfig(alpha=1.0, gamma=0.5, rho=1.0, lam=1.0, K=1, spec=SQUARE, spectrum=spectrum, coeffs=COEFFS)

    @pytest.mark.parametrize(
        "field,value",
        [("damping", 0.0), ("damping", 1.5), ("tol", 0.0), ("max_iters", 0), ("max_iters", -3), ("tol", math.inf)],
        ids=["damping-0", "damping-1.5", "tol-0", "max_iters-0", "max_iters-negative", "tol-inf"],
    )
    def test_solve_options_reject_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SolveOptions(**{field: value})
        assert SolveOptions(max_iters=1).max_iters == 1

    def test_default_options_converge_at_the_interpolation_peak(self):
        # p/n = 1 of the ridge double-descent sweep takes over 5,000 map steps;
        # the library's defaults are the CLI's, so both converge there
        cfg = json.loads((CONFIGS / "ridge_double_descent.json").read_text())
        opts = SolveOptions(tol=cfg["tol"])
        assert cli.solve_options_from(cfg) == opts
        fp = solve_fixed_point(cli.parse_problem(cfg).at(cfg["axis"], 1.0).model(), opts)
        assert fp.converged, fp.status


class TestSolveKernelLimit:
    def test_q0_equals_q1(self):
        fp = solve_kernel_limit(2.0, 1.0, 1e-6, SQUARE, COEFFS, SolveOptions(tol=1e-12, max_iters=60000))
        assert fp.converged
        assert abs(fp.params.q0 - fp.params.q1) / fp.params.q0 < 1e-8

    def test_square_matches_derived_closed_form(self):
        lam, delta = 1e-3, 2.0
        fp = solve_kernel_limit(delta, 1.0, lam, SQUARE, COEFFS, SolveOptions(tol=1e-13, max_iters=60000))
        v, m, q = kernel_ridge_closed_form_derived(lam, delta, 1.0, COEFFS)
        assert fp.params.v == pytest.approx(v, rel=1e-6)
        assert fp.params.m == pytest.approx(m, rel=1e-6)
        assert fp.params.q0 == pytest.approx(q, rel=1e-6)

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ConfigError):
            solve_kernel_limit(1.0, -1.0, 1e-2, SQUARE, COEFFS)

    def test_no_data_limit(self):
        fp = solve_kernel_limit(1e-8, 1.0, 1e-2, SQUARE, COEFFS, SolveOptions(tol=1e-12))
        assert fp.converged
        assert abs(fp.params.m) < 1e-4
        assert abs(fp.params.q0) < 1e-4

    def test_logistic_kernel_mode(self):
        fp = solve_kernel_limit(2.0, 1.0, 1e-2, LOGISTIC, COEFFS, SolveOptions(tol=1e-10, max_iters=30000))
        assert fp.converged
        assert abs(fp.params.q0 - fp.params.q1) / fp.params.q0 < 1e-8


RIDGE = {"loss": "square", "rho": 1.0, "lambda": 1e-6, "n_over_d": 2.0, "tol": 1e-10}


class TestScalarLoopMatchesArrayOracle:
    """The float loop of `solver._iterate` returns the array loop's FixedPoint bit for bit, in either stage."""

    @pytest.mark.parametrize(
        "cfg, init, status",
        [
            ({**RIDGE, "p_over_n": 0.95}, None, "converged"),
            ({**RIDGE, "p_over_n": 1.0}, None, "converged"),
            ({**RIDGE, "p_over_n": 2.0}, None, "converged"),
            ({**RIDGE, "p_over_n": 1.0, "max_iters": 40}, None, "max_iters"),
            ({"loss": "square", "rho": 1.0, "lambda": 1e-6, "kernel": True, "n_over_d": 1.0, "tol": 1e-11},
             None, "converged"),
            ({"loss": "logistic", "rho": 1.0, "lambda": 1e-4, "n_over_d": 2.0, "p_over_n": 0.6}, None, "converged"),
            ({"loss": "hinge", "rho": 1.0, "lambda": 0.1, "n_over_d": 2.0, "p_over_n": 1.0, "damping": 1.0},
             None, "converged"),
            ({"loss": "logistic", "rho": 1.0, "lambda": 1e-4, "kernel": True, "n_over_d": 4.0, "damping": 1.0},
             OrderParams(m=0.0927, q0=-0.0242, q1=-0.00696, v=-0.0945), "converged"),
            # m = sqrt(rho q0) exactly: on the cap, the first step would leave
            # the teacher no conditional variance
            ({"loss": "logistic", "rho": 1.0, "lambda": 1e-4, "kernel": True, "n_over_d": 4.0, "damping": 1.0},
             OrderParams(m=0.01, q0=1e-4, q1=0.0, v=10.0), "converged"),
        ],
        ids=["ridge-0.95", "ridge-1.0", "ridge-2.0", "ridge-max-iters", "kernel-ulp-floor",
             "logistic-0.6", "hinge-undamped", "kernel-logistic-projects", "kernel-logistic-m-on-cap"],
    )
    def test_fixed_point_fields_equal(self, cfg, init, status, monkeypatch):
        problem = cli.parse_problem(cfg)
        opts = cli.solve_options_from(cfg)
        if init is not None:
            opts = replace(opts, init=init)
        new = cli.solve_point(problem, opts)
        monkeypatch.setattr(solver, "_iterate", iterate_array_oracle)
        old = cli.solve_point(problem, opts)
        self.assert_same(new, old)
        assert new.status == status
        if cfg.get("kernel") and cfg["loss"] == "square":
            # v is large here: the solve ends on the float64 spacing, not on tol
            assert new.residual >= opts.tol
        if init is not None:
            # the map keeps (m, q0, v) admissible, so only the init is projected
            assert solver._project(init, problem.rho)[1]

    def test_interpolation_divergence(self, monkeypatch):
        monkeypatch.setattr(solver, "DIVERGENCE_Q0", 1e2)
        cfg = ridge_config(alpha=1.0, gamma=0.5, lam=1e-10)
        opts = SolveOptions(max_iters=20000)
        new = solve_fixed_point(cfg, opts)
        monkeypatch.setattr(solver, "_iterate", iterate_array_oracle)
        old = solve_fixed_point(cfg, opts)
        self.assert_same(new, old)
        assert new.status == "interpolation_divergence"

    @pytest.mark.parametrize(
        "params",
        [
            OrderParams(m=0.3, q0=-1.0, q1=0.0, v=1.0),
            OrderParams(m=0.3, q0=1.0, q1=0.5, v=-2.0),
            OrderParams(m=0.3, q0=1.0, q1=1.5, v=1.0),
            OrderParams(m=0.3, q0=1.0, q1=-1.5, v=1.0),
            OrderParams(m=2.0, q0=1.0, q1=0.5, v=1.0),
            OrderParams(m=-2.0, q0=1.0, q1=0.5, v=1.0),
            OrderParams(m=0.3, q0=1.0, q1=0.5, v=1.0),
            OrderParams(m=0.3, q0=float("nan"), q1=0.5, v=1.0),
            OrderParams(m=1.0, q0=2.0, q1=0.5, v=1.0),
            OrderParams(m=-1.0, q0=2.0, q1=0.5, v=1.0),
        ],
    )
    def test_projection_equals_array_projection(self, params):
        new, moved = solver._project(params, 0.5)
        old, old_moved = project_array_oracle(params, 0.5)
        assert moved == old_moved
        assert [float(x).hex() for x in new._asdict().values()] == [float(x).hex() for x in old._asdict().values()]

    @staticmethod
    def assert_same(new, old):
        for field in fields(FixedPoint):
            a, b = getattr(new, field.name), getattr(old, field.name)
            if field.name in ("params", "conj"):
                assert [float(x).hex() for x in a._asdict().values()] == [float(x).hex() for x in b._asdict().values()]
            else:
                assert a == b, field.name


RECORD_PARAMS = OrderParams(m=0.3, q0=1.0, q1=0.5, v=0.7)
RECORD_CONJ = ConjugateParams(m_hat=0.4, q0_hat=0.6, q1_hat=0.2, v_hat=1.3)


class TestFloatRecords:
    """The map step of the square loss and the kernel limit, and the projection, run on Python floats."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: channels.channel_update(RECORD_PARAMS, 1.0, 2.0, 0.5, SQUARE),
            lambda: priors.prior_update_spectral(RECORD_CONJ, 0.1, mp_spectral_model(1.0, 0.5, COEFFS)),
            lambda: priors.kernel_channel_update(RECORD_PARAMS, 1.0, 2.0, SQUARE),
            lambda: priors.kernel_prior_update(RECORD_CONJ, 0.1, 2.0, COEFFS),
            lambda: solver._project(RECORD_PARAMS, 1.0)[0],
            lambda: solver._project(OrderParams(m=2.0, q0=1.0, q1=0.5, v=-1.0), 1.0)[0],
        ],
        ids=["channel_update-square", "prior_update_spectral", "kernel_channel_update", "kernel_prior_update",
             "project", "project-moved"],
    )
    def test_fields_are_exactly_float(self, make):
        assert [type(x) for x in make()] == [float] * 4

    @pytest.mark.parametrize("record", [RECORD_PARAMS, RECORD_CONJ], ids=["OrderParams", "ConjugateParams"])
    def test_records_reject_attribute_assignment(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 1.0)

    def test_keyword_construction_keeps_the_field_order(self):
        assert OrderParams(v=4.0, q1=3.0, q0=2.0, m=1.0) == OrderParams(1.0, 2.0, 3.0, 4.0)
        assert ConjugateParams(v_hat=4.0, q1_hat=3.0, q0_hat=2.0, m_hat=1.0) == ConjugateParams(1.0, 2.0, 3.0, 4.0)
        assert np.array(RECORD_PARAMS).tolist() == [0.3, 1.0, 0.5, 0.7]
        assert np.array(RECORD_CONJ).tolist() == [0.4, 0.6, 0.2, 1.3]


MARGIN_POINTS = {
    "logistic-1e-4-0.6": {"loss": "logistic", "rho": 1.0, "lambda": 1e-4, "n_over_d": 2.0, "p_over_n": 0.6},
    "logistic-1e-4-0.55": {"loss": "logistic", "rho": 1.0, "lambda": 1e-4, "n_over_d": 2.0, "p_over_n": 0.55},
    "logistic-1e-2-1.0": {"loss": "logistic", "rho": 1.0, "lambda": 1e-2, "n_over_d": 2.0, "p_over_n": 1.0},
    "hinge-0.1-1.0": {"loss": "hinge", "rho": 1.0, "lambda": 0.1, "n_over_d": 2.0, "p_over_n": 1.0, "damping": 1.0},
}


def margin_point(name, **solver_keys):
    cfg = {**MARGIN_POINTS[name], **solver_keys}
    return cli.parse_problem(cfg).model(), cli.solve_options_from(cfg)


def damped_stage_one(step, init, rho, opts, newton):
    """`solver._iterate` with the Newton finish off: the damped loop alone."""
    return iterate_array_oracle(step, init, rho, opts)


def rel_distance(params, ref):
    a, b = np.array(params), np.array(ref)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


class TestTwoStageMarginSolve:
    """Margin losses: (m, q0, v) iterated with q1 = q0, then the scalar q1 equation."""

    @pytest.mark.parametrize("name", list(MARGIN_POINTS))
    def test_at_least_as_close_to_tight_reference_as_damped_solve(self, name):
        config, opts = margin_point(name, tol=1e-9)
        _, ref_opts = margin_point(name, tol=1e-13)
        ref = damped_solve_oracle(config, ref_opts)
        damped = damped_solve_oracle(config, opts)
        fp = solve_fixed_point(config, opts)
        assert ref.converged and damped.converged and fp.converged
        assert fp.status == "converged"
        assert rel_distance(fp.params, ref.params) <= rel_distance(damped.params, ref.params)
        assert rel_distance(fp.params, ref.params) < 1e-9

    def test_hinge_solve_calls_prox_hinge(self, monkeypatch):
        # stage 1 pins q1 to q0, where the pair integral takes the hinge
        # proximal at s/2; the benchmark's trace requires that span
        calls = []
        prox = channels.prox_hinge
        monkeypatch.setattr(channels, "prox_hinge", lambda *args: calls.append(args) or prox(*args))
        config, opts = margin_point("hinge-0.1-1.0", tol=1e-9)
        assert solve_fixed_point(config, opts).converged
        assert len(calls) >= 1

    @pytest.mark.parametrize("name", list(MARGIN_POINTS))
    def test_returned_parameters_are_the_prior_of_the_returned_conjugates(self, name):
        config, opts = margin_point(name, tol=1e-9)
        fp = solve_fixed_point(config, opts)
        again = solver.prior_update_spectral(fp.conj, config.lam, config.spectrum)
        assert [float(x).hex() for x in again._asdict().values()] == [float(x).hex() for x in fp.params._asdict().values()]
        assert 0 < fp.params.q1 < fp.params.q0

    def test_pair_integral_runs_at_most_12_times(self, monkeypatch):
        from rfensemble import channels

        calls = []
        inner = channels.expect_2d_correlated
        monkeypatch.setattr(channels, "expect_2d_correlated", lambda *a, **k: calls.append(1) or inner(*a, **k))
        config, opts = margin_point("logistic-1e-4-0.6", tol=1e-9)
        fp = solve_fixed_point(config, opts)
        assert fp.converged
        assert 1 <= len(calls) <= 12
        # a hard point: the damped stage 1 takes over 200 map steps
        with monkeypatch.context() as m:
            m.setattr(solver, "_iterate", damped_stage_one)
            assert solve_fixed_point(config, opts).iterations > 200
        calls.clear()
        config, _ = margin_point("logistic-1e-4-0.55")
        warm = solve_fixed_point(config, solver.warm_options(opts, fp))
        assert warm.converged
        assert 1 <= len(calls) <= 12

    def test_logistic_kernel_point_at_least_as_close_to_tight_reference_as_damped_solve(self):
        cfg = {"loss": "logistic", "rho": 1.0, "lambda": 1e-2, "kernel": True, "n_over_d": 2.0, "tol": 1e-9}
        problem, opts = cli.parse_problem(cfg), cli.solve_options_from(cfg)
        args = (problem.n_over_d, problem.rho, problem.lam, problem.spec, problem.coeffs)
        ref = damped_kernel_oracle(*args, replace(opts, tol=1e-13))
        damped = damped_kernel_oracle(*args, opts)
        fp = solve_kernel_limit(*args, opts)
        assert ref.converged and damped.converged and fp.converged
        assert rel_distance(fp.params, ref.params) <= rel_distance(damped.params, ref.params)
        assert rel_distance(fp.params, ref.params) < 1e-9
        assert fp.iterations < damped.iterations

    @pytest.mark.parametrize("name", list(MARGIN_POINTS))
    def test_newton_finish_takes_no_more_map_calls_than_the_damped_loop(self, name, monkeypatch):
        config, opts = margin_point(name, tol=1e-9)
        fp = solve_fixed_point(config, opts)
        monkeypatch.setattr(solver, "_iterate", damped_stage_one)
        damped = solve_fixed_point(config, opts)
        assert fp.converged and damped.converged
        assert fp.iterations <= damped.iterations

    @pytest.mark.parametrize("bad_step", ["inadmissible", "uphill"])
    def test_failed_newton_step_falls_back_to_damped_steps_and_converges(self, bad_step, monkeypatch):
        # the first Newton step is replaced: one that sends q0 below 0, or one
        # that walks away from the root; later steps are the true ones
        steps = []
        inner = np.linalg.solve

        def first_step_bad(jac, g):
            s = inner(jac, g)
            steps.append(s)
            if len(steps) > 1:
                return s
            return np.array([0.0, 1e6, 0.0]) if bad_step == "inadmissible" else -s

        config, opts = margin_point("logistic-1e-2-1.0", tol=1e-9)
        fp = solve_fixed_point(config, opts)
        ref = damped_solve_oracle(config, replace(opts, tol=1e-13))
        monkeypatch.setattr(np.linalg, "solve", first_step_bad)
        fallen = solve_fixed_point(config, opts)
        assert len(steps) >= 2  # Newton was tried again after the fallback
        assert fallen.converged and fallen.status == "converged"
        assert fallen.iterations > fp.iterations
        assert rel_distance(fallen.params, ref.params) < 1e-9

    def test_iterations_count_stage_one_steps_and_q1_evaluations(self, monkeypatch):
        stage_one = []
        inner = solver._iterate
        monkeypatch.setattr(solver, "_iterate", lambda *a: stage_one.append(inner(*a)) or stage_one[-1])
        evaluations = []
        inner_solve_q1 = solver._solve_q1
        monkeypatch.setattr(solver, "_solve_q1", lambda *a: evaluations.append(inner_solve_q1(*a)) or evaluations[-1])
        config, opts = margin_point("logistic-1e-2-1.0", tol=1e-9)
        fp = solve_fixed_point(config, opts)
        (first,) = stage_one
        (root,) = evaluations
        assert first.params.q1 == first.params.q0
        assert fp.iterations == first.iterations + root[1]
        assert fp.projections == first.projections
        assert fp.residual == max(first.residual, abs(root[0].g))

    def test_warm_restart_at_a_converged_point_takes_one_stage_one_step(self, monkeypatch):
        config, opts = margin_point("logistic-1e-4-0.6", tol=1e-9)
        fp = solve_fixed_point(config, opts)
        stage_one = []
        inner = solver._iterate
        monkeypatch.setattr(solver, "_iterate", lambda *a: stage_one.append(inner(*a)) or stage_one[-1])
        again = solve_fixed_point(config, replace(opts, init=fp.params))
        assert [s.iterations for s in stage_one] == [1]
        assert again.converged
        assert rel_distance(again.params, fp.params) < 1e-9

    def test_unbracketed_root_is_a_named_status(self, monkeypatch):
        # a prior whose q1 exceeds every q1 on [lo, q0]: g > 0 on the whole bracket
        inner = solver.prior_update_spectral

        def shifted(*args):
            out = inner(*args)
            return out._replace(q1=out.q1 + 1e3)

        monkeypatch.setattr(solver, "prior_update_spectral", shifted)
        config, opts = margin_point("logistic-1e-2-1.0", tol=1e-9)
        fp = solve_fixed_point(config, opts)
        assert fp.status == "q1_unbracketed"
        assert not fp.converged
        assert fp.params.q1 == fp.params.q0
        assert fp.residual > 1e2

    def test_q1_evaluation_cap_is_max_iters(self, monkeypatch):
        monkeypatch.setattr(solver, "Q1_MAX_EVALS", 3)
        config, opts = margin_point("logistic-1e-2-1.0", tol=1e-9)
        fp = solve_fixed_point(config, opts)
        assert fp.status == "max_iters" and not fp.converged


RIDGE_POINTS = {f"ridge-{pn}": {**RIDGE, "p_over_n": pn} for pn in (0.95, 1.0, 2.0)}
KERNEL = {"loss": "square", "rho": 1.0, "lambda": 1e-6, "kernel": True, "tol": 1e-11}
KERNEL_POINTS = {f"kernel-{delta}": {**KERNEL, "n_over_d": delta} for delta in (0.25, 1.0, 4.0)}


class TestTwoStageSquareAndKernelSolve:
    """Ridge and the kernel limit take the two-stage solve of the margin losses."""

    @pytest.mark.parametrize("name", list(RIDGE_POINTS))
    def test_ridge_at_least_as_close_to_tight_reference_as_damped_solve(self, name):
        cfg = RIDGE_POINTS[name]
        config, opts = cli.parse_problem(cfg).model(), cli.solve_options_from(cfg)
        ref = damped_solve_oracle(config, replace(opts, tol=1e-13))
        damped = damped_solve_oracle(config, opts)
        fp = solve_fixed_point(config, opts)
        assert ref.converged and damped.converged and fp.converged
        assert rel_distance(fp.params, ref.params) <= rel_distance(damped.params, ref.params)

    @pytest.mark.parametrize("name", list(KERNEL_POINTS))
    def test_kernel_at_least_as_close_to_closed_form_as_damped_solve(self, name):
        cfg = KERNEL_POINTS[name]
        problem, opts = cli.parse_problem(cfg), cli.solve_options_from(cfg)
        args = (problem.n_over_d, problem.rho, problem.lam, problem.spec, problem.coeffs)
        v, m, q = kernel_ridge_closed_form_derived(problem.lam, problem.n_over_d, problem.rho, problem.coeffs)
        ref = OrderParams(m=m, q0=q, q1=q, v=v)
        damped = damped_kernel_oracle(*args, opts)
        fp = solve_kernel_limit(*args, opts)
        assert damped.converged and fp.converged
        assert rel_distance(fp.params, ref) <= rel_distance(damped.params, ref)

    @pytest.mark.parametrize(
        "cfg",
        [*KERNEL_POINTS.values(), {"loss": "logistic", "rho": 1.0, "lambda": 1e-2, "kernel": True, "n_over_d": 2.0}],
        ids=[*KERNEL_POINTS, "kernel-logistic"],
    )
    def test_kernel_solves_return_q1_equal_to_q0(self, cfg):
        fp = cli.solve_point(cli.parse_problem(cfg), cli.solve_options_from(cfg))
        assert fp.converged
        assert fp.params.q1 == fp.params.q0

    @pytest.mark.parametrize("name", list(RIDGE_POINTS))
    def test_ridge_takes_at_most_3_q1_evaluations(self, name, monkeypatch):
        evaluations = []
        inner = solver._solve_q1
        monkeypatch.setattr(solver, "_solve_q1", lambda *a: evaluations.append(inner(*a)) or evaluations[-1])
        fp = cli.solve_point(cli.parse_problem(RIDGE_POINTS[name]), cli.solve_options_from(RIDGE_POINTS[name]))
        ((_, evals, status),) = evaluations
        assert fp.converged and status == "converged"
        assert evals <= 3


class TestSquareLossRootNearInterpolation:
    """The square-loss fixed point at n/d = 2, p/n = 1, lambda = 1e-6 against its scalar root (quad integrals)."""

    ALPHA, GAMMA, LAM = 1.0, 0.5, 1e-6

    @pytest.fixture(scope="class")
    def setting(self):
        config = ridge_config(alpha=self.ALPHA, gamma=self.GAMMA, lam=self.LAM)
        return config, square_root_oracle(1.0, self.ALPHA, self.GAMMA, self.LAM, config.spectrum)

    def test_the_root_is_a_fixed_point_of_the_production_map(self, setting):
        config, root = setting
        conj = channels.channel_update(root, 1.0, self.ALPHA, self.GAMMA, SQUARE)
        mapped = priors.prior_update_spectral(conj, self.LAM, config.spectrum)
        np.testing.assert_allclose(np.array(mapped), np.array(root), rtol=1e-13, atol=0)

    @pytest.mark.xfail(strict=True, reason=(
        "the damped map contracts slowly near interpolation: a step below tol 1e-10 stops 1.28e-8 from "
        "the root in q0 and 1.35e-8 in v, after 6,684 map calls"
    ))
    def test_a_solve_at_tol_lands_within_10_tol_of_the_root(self, setting):
        config, root = setting
        tol = 1e-10
        fp = solve_fixed_point(config, SolveOptions(tol=tol))
        assert fp.converged
        assert abs(fp.params.q0 - root.q0) <= 10 * tol
        assert abs(fp.params.v - root.v) <= 10 * tol


def point_at(x, g):
    params = OrderParams(m=0.0, q0=1.0, q1=x, v=1.0)
    return solver._Q1Point(x, g, abs(g) < 1e-12, params, None)


class TestSolveQ1:
    """The bracketed secant on scalar functions with known roots."""

    @pytest.mark.parametrize(
        "fn,root",
        [
            (lambda x: 2.0 - x, 2.0),
            (lambda x: np.cos(x) - x, 0.7390851332151607),
            (lambda x: 4.0 * np.exp(-x) - x, 1.2021678731970429),
        ],
        ids=["linear", "cos", "exp"],
    )
    @pytest.mark.parametrize("guess", [0.5, 3.0, -1.0])
    def test_finds_the_root(self, fn, root, guess):
        seen = []

        def evaluate(x):
            seen.append(x)
            return point_at(x, float(fn(x)))

        point, evals, status = solver._solve_q1(evaluate, 0.0, 5.0, guess)
        assert status == "converged"
        assert point.x == pytest.approx(root, abs=1e-11)
        assert evals == len(seen) <= 12
        assert seen[0] == 5.0 and all(0.0 <= x <= 5.0 for x in seen)

    def test_root_at_the_upper_end_costs_one_evaluation(self):
        point, evals, status = solver._solve_q1(lambda x: point_at(x, 5.0 - x), 0.0, 5.0, 1.0)
        assert (point.x, evals, status) == (5.0, 1, "converged")

    def test_no_sign_change_is_unbracketed(self):
        point, evals, status = solver._solve_q1(lambda x: point_at(x, 10.0 - x), 0.0, 5.0, 1.0)
        assert status == "q1_unbracketed"
        assert evals == 3
        assert point.x == 5.0  # the smaller |g|

    def test_jump_stops_when_no_float_is_left_in_the_bracket(self):
        # g changes sign without a root: the bracket closes on the jump at 1
        point, evals, status = solver._solve_q1(lambda x: point_at(x, 1.0 if x < 1.0 else -1.0), 0.0, 5.0, 3.0)
        assert status == "converged"
        assert abs(point.x - 1.0) <= 2 * np.spacing(1.0)
        assert evals <= solver.Q1_MAX_EVALS
