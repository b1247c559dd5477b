import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from rfensemble import (
    ChannelSpec,
    ConfigError,
    ConjugateParams,
    ConvergenceError,
    EnsembleCovariance,
    FixedPoint,
    NumericalError,
    OrderParams,
    activation_coeffs,
    classification_error_avg,
    classification_error_bar,
    gauss_hermite_rule,
    mse_test_error,
    training_loss,
)
from rfensemble import cli, erm_lab
from rfensemble.cli import main, observable_row, parse_problem, solve_options_from, solve_point
from rfensemble.observables import theory_estimator

from corpus import GoldenRecord, evaluate_record
from oracles import kernel_ridge_closed_form, kernel_ridge_closed_form_derived

ROOT = Path(__file__).resolve().parents[1]

RIDGE_CFG = {
    "loss": "square",
    "rho": 1.0,
    "lambda": 10.0,
    "alpha": 1.0,
    "n_over_d": 2.0,
    "K": [1, 2],
    "tol": 1e-10,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolve:
    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = dict(RIDGE_CFG)
        del cfg["rho"]
        code = main(["solve", "--config", write_cfg(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert "rho" in captured.err

    def test_missing_alpha_names_it(self, tmp_path, capsys):
        cfg = {k: v for k, v in RIDGE_CFG.items() if k != "alpha"}
        code = main(["solve", "--config", write_cfg(tmp_path, cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "alpha" in err or "p_over_n" in err

    def test_ridge_solve_payload(self, tmp_path, capsys):
        code = main(["solve", "--config", write_cfg(tmp_path, RIDGE_CFG)])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        for key in ("m", "q0", "q1", "v", "m_hat", "q0_hat", "q1_hat", "v_hat", "iterations", "residual"):
            assert key in payload
        assert "eps_g_K1" in payload["observables"]
        assert "eps_g_K2" in payload["observables"]

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_cfg(tmp_path, RIDGE_CFG)
        main(["solve", "--config", path])
        first = capsys.readouterr().out
        main(["solve", "--config", path])
        second = capsys.readouterr().out
        assert first == second

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        cfg = dict(RIDGE_CFG)
        cfg["lambda"] = 1e-4
        cfg["max_iters"] = 3
        code = main(["solve", "--config", write_cfg(tmp_path, cfg)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["converged"] is False

    def test_negative_q1_classification_point_exits_3(self, tmp_path, capsys, monkeypatch):
        # no shipped solve lands on q1 < 0; hand the command such a fixed point
        params = OrderParams(m=0.1, q0=1.0, q1=-0.2, v=1.0)
        fp = FixedPoint(params, ConjugateParams(0.1, 0.1, 0.1, 0.1), 1, 0.0, True)
        monkeypatch.setattr("rfensemble.cli.solve_point", lambda *args, **kwargs: fp)
        cfg = dict(RIDGE_CFG, loss="logistic", K=[1, 3, "inf"])
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path)]) == 2


SWEEP_CFG = {
    "loss": "square",
    "rho": 1.0,
    "lambda": 1e-6,
    "n_over_d": 2.0,
    "K": [1, 2, "inf"],
    "axis": "p_over_n",
    "grid": [0.5, 1.0, 1.5, 2.0],
    "tol": 1e-9,
}

EXPECTED_SWEEP_COLUMNS = [
    "axis", "value", "m", "q0", "q1", "v", "m_hat", "q0_hat", "q1_hat", "v_hat",
    "status", "iterations", "eps_g_K1", "eps_g_K2", "eps_g_Kinf",
    "eps_bar", "delta_eps", "disagreement", "q1_over_q0",
]


class TestSweep:
    def test_schema_and_peak(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", write_cfg(tmp_path, SWEEP_CFG), "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == EXPECTED_SWEEP_COLUMNS
        assert len(rows) == 4
        eps = [float(r[header.index("eps_g_K1")]) for r in rows]
        values = [float(r[header.index("value")]) for r in rows]
        assert values == SWEEP_CFG["grid"]
        assert max(eps) == eps[1]  # interpolation point p/n = 1
        # the K=inf column equals eps_bar by construction
        for r in rows:
            assert float(r[header.index("eps_g_Kinf")]) == pytest.approx(float(r[header.index("eps_bar")]), rel=1e-12)

    def test_single_point_grid(self, tmp_path):
        cfg = dict(SWEEP_CFG, grid=[1.5])
        out = tmp_path / "one.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1

    def test_rejects_non_monotone_grid(self, tmp_path):
        cfg = dict(SWEEP_CFG, grid=[1.0, 0.5, 2.0])
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_rejects_bad_axis(self, tmp_path):
        cfg = dict(SWEEP_CFG, axis="banana")
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_delta_axis_requires_kernel(self, tmp_path):
        cfg = dict(SWEEP_CFG, axis="delta")
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_kernel_sweep(self, tmp_path):
        cfg = {
            "loss": "square", "rho": 1.0, "lambda": 1e-3, "kernel": True,
            "K": [1], "axis": "delta", "grid": [0.5, 1.0, 2.0], "tol": 1e-10,
        }
        out = tmp_path / "kernel.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        for r in rows:
            q0 = float(r[header.index("q0")])
            q1 = float(r[header.index("q1")])
            assert abs(q0 - q1) / q0 < 1e-8


class TestShippedSweeps:
    def test_kernel_limit_converges_to_closed_form(self, tmp_path):
        # tol = 1e-11 sits below the float64 spacing of v ~ 1e5 here; the
        # solver must stop at float64 resolution instead of running to max_iters
        out = tmp_path / "kernel_limit.csv"
        assert main(["sweep", "--config", str(ROOT / "configs" / "kernel_limit.json"), "--out", str(out)]) == 0
        coeffs = activation_coeffs(erf, gauss_hermite_rule(201))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 7
        for r in rows:
            assert r["status"] == "converged"
            v, m, _ = kernel_ridge_closed_form(1e-6, float(r["value"]), 1.0, coeffs)
            _, _, q = kernel_ridge_closed_form_derived(1e-6, float(r["value"]), 1.0, coeffs)
            for name, want in (("v", v), ("m", m), ("q0", q), ("q1", q)):
                assert float(r[name]) == pytest.approx(want, rel=1e-12)

    def test_ridge_double_descent_bytes_unchanged(self, tmp_path):
        # written by the two-stage solve; every point is at least as close
        # to a tol-1e-13 damped reference as the damped solve that wrote it
        # before (per-point table in CHANGES.md)
        out = tmp_path / "ridge_double_descent.csv"
        assert main(["sweep", "--config", str(ROOT / "configs" / "ridge_double_descent.json"), "--out", str(out)]) == 0
        assert out.read_bytes() == (ROOT / "tests" / "data" / "ridge_double_descent.csv").read_bytes()


class TestObservableRow:
    # fixed order parameters: every column is compared with == against the formula functions
    PARAMS = OrderParams(m=0.41, q0=0.93, q1=0.57, v=1.3)
    RHO = 1.3

    def row(self, loss):
        problem = parse_problem({"loss": loss, "rho": self.RHO, "lambda": 0.1, "alpha": 1.0, "K": [1, 2, 3, "inf"]})
        fp = FixedPoint(params=self.PARAMS, conj=ConjugateParams(0.0, 0.0, 0.0, 0.0), iterations=0,
                        residual=0.0, converged=True)
        return observable_row(problem, fp)

    def cov(self, K):
        return EnsembleCovariance.from_params(self.PARAMS, self.RHO, K)

    def test_square_columns_are_the_formula_values(self):
        row = self.row("square")
        for K in (1, 2, 3):
            assert row[f"eps_g_K{K}"] == mse_test_error(self.cov(K))[0]
        eps_g, eps_bar, delta_eps = mse_test_error(self.cov(1))
        assert row["eps_g_Kinf"] == row["eps_bar"] == eps_bar
        assert row["delta_eps"] == delta_eps
        # the mean-estimator formula adds the fluctuation part to eps_bar
        assert row["eps_g_K1"] == row["eps_bar"] + row["delta_eps"]

    def test_logistic_columns_are_the_formula_values(self):
        row = self.row("logistic")
        for K in (1, 2, 3):
            assert row[f"eps_g_K{K}"] == classification_error_avg(self.cov(K))
        eps_bar = classification_error_bar(self.RHO, self.PARAMS.m, self.PARAMS.q1)
        assert row["eps_g_Kinf"] == row["eps_bar"] == eps_bar
        assert row["delta_eps"] == row["eps_g_K1"] - row["eps_bar"]


SIM_CFG = {
    "loss": "square",
    "rho": 1.0,
    "lambda": 1e-2,
    "n_over_d": 2.0,
    "K": [2],
    "axis": "p_over_n",
    "grid": [0.8, 1.6],
    "tol": 1e-9,
    "simulate": {"trials": 4, "d": 40, "seed": 3, "test_samples": 500},
}


class TestSimulate:
    def test_trials_zero_matches_sweep_output(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        cfg = {k: v for k, v in SIM_CFG.items() if k != "simulate"}
        main(["sweep", "--config", write_cfg(tmp_path, cfg, "a.json"), "--out", str(sweep_out)])
        sim_out = tmp_path / "sim.csv"
        cfg_sim = dict(SIM_CFG, simulate={"trials": 0, "d": 40})
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg_sim, "b.json"), "--out", str(sim_out)]) == 0
        assert sweep_out.read_text() == sim_out.read_text()

    def test_small_simulation_columns_and_determinism(self, tmp_path):
        out1 = tmp_path / "sim1.csv"
        out2 = tmp_path / "sim2.csv"
        path = write_cfg(tmp_path, SIM_CFG)
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        header, rows = read_csv(out1)
        for col in ("emp_m", "emp_q0", "emp_q1", "emp_test_error", "z_test_error", "trials", "failures", "sim_status"):
            assert col in header
        for r in rows:
            assert r[header.index("sim_status")] == "ok"
            assert int(r[header.index("failures")]) == 0
            z = float(r[header.index("z_test_error")])
            assert math.isfinite(z)

    def test_k_inf_only_scores_the_trained_single_learner(self, tmp_path):
        # "inf" alone trains K = 1, whose theory error has no column of its own
        cfg = dict(SIM_CFG, K=["inf"], grid=[0.8], simulate={"trials": 2, "d": 20})
        out = tmp_path / "inf.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert rows[0][header.index("sim_status")] == "ok"
        assert math.isfinite(float(rows[0][header.index("z_test_error")]))

    @pytest.mark.parametrize("loss,estimator", [("logistic", "majority")])
    def test_estimator_without_theory_leaves_z_test_error_empty(self, tmp_path, loss, estimator):
        # the theory test error is the avg-sign error of a margin loss, never the majority's
        cfg = dict(SIM_CFG, loss=loss, K=[3], grid=[1.5],
                   simulate={"trials": 2, "d": 20, "seed": 3, "test_samples": 200, "estimator": estimator})
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        header, (row,) = read_csv(out)
        assert row[header.index("z_test_error")] == ""
        assert row[header.index("sim_status")] == f"no theory for estimator '{estimator}' with loss '{loss}'"
        assert int(row[header.index("failures")]) == 0
        for col in ("emp_test_error", "z_m", "z_q0", "z_q1"):
            assert math.isfinite(float(row[header.index(col)]))

    def test_simulation_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # an axis that does not move the sizes is a config error, seen before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a point before rejecting the axis")

        monkeypatch.setattr("rfensemble.cli.solve_point", no_solve)
        lam_sweep = dict(SIM_CFG, axis="lambda", grid=[1e-3, 1e-2], p_over_n=1.0)
        delta_sweep = dict(KERNEL_CFG, axis="delta", grid=[0.5, 1.0], simulate=SIM_CFG["simulate"])
        for cfg in (lam_sweep, delta_sweep):
            out = tmp_path / "f.csv"
            code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert "p_over_n" in err and "alpha" in err and repr(cfg["axis"]) in err
            assert not out.exists()

    def test_all_trials_failing_exit_code(self, tmp_path):
        # no trainer for the hinge loss: every trial fails
        cfg = dict(SIM_CFG, loss="hinge", grid=[1.6], simulate={"trials": 2, "d": 20, "seed": 3, "test_samples": 200})
        out = tmp_path / "hinge.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
        header, rows = read_csv(out)
        assert int(rows[0][header.index("failures")]) == 2
        assert rows[0][header.index("sim_status")] == (
            "2 failed trials: 2 ConfigError; first: ConfigError: no trainer for loss 'hinge'"
        )

    @pytest.mark.parametrize("loss", ["square", "logistic"])
    def test_default_estimator_is_the_theory_estimator(self, tmp_path, loss):
        # the estimator row's values and its default are the names observables owns
        assert cli._SCHEMA["simulate.estimator"][0] == ("mean", "avg_sign", "majority")
        block = {"trials": 2, "d": 20, "seed": 3, "test_samples": 200}
        outputs = []
        for simulate in (block, dict(block, estimator=theory_estimator(loss))):
            out = tmp_path / f"sim{len(outputs)}.csv"
            cfg = dict(SIM_CFG, loss=loss, grid=[1.5], simulate=simulate)
            assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        header, (row,) = read_csv(out)
        assert row[header.index("sim_status")] == "ok"

    def test_point_with_no_features_is_flagged_and_the_others_simulated(self, tmp_path):
        # p = round(n * p_over_n) = round(40 * 0.01) = 0 at the first point, which used to stop the run with
        # a ZeroDivisionError traceback and no CSV
        cfg = dict(SIM_CFG, grid=[0.01, 0.5], simulate={"trials": 2, "d": 20, "seed": 3, "test_samples": 200})
        out = tmp_path / "p0.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
        header, (first, second) = read_csv(out)
        assert first[header.index("sim_status")] == "failed: p must be >= 1, got 0"
        assert first[header.index("emp_m")] == first[header.index("trials")] == ""
        assert second[header.index("sim_status")] == "ok"
        assert math.isfinite(float(second[header.index("z_test_error")]))

    def test_failed_trials_counted_by_error_class(self, tmp_path, monkeypatch):
        # the ridge trainer fails on chosen seeds, each trial's data told apart by its labels
        n_over_d, d, seeds = SIM_CFG["n_over_d"], 20, [10, 11, 12, 13, 14]
        failing = {11: NumericalError("ridge normal equations failed"), 12: ConvergenceError("stalled"),
                   14: NumericalError("ridge optimality residual too large")}
        labels = {erm_lab.generate_dataset(int(n_over_d * d), d, 1.0, "linear", seed).y.tobytes(): seed
                  for seed in failing}
        real = erm_lab.train_ridge

        def flaky(features, y, lam):
            if y.tobytes() in labels:
                raise failing[labels[y.tobytes()]]
            return real(features, y, lam)

        monkeypatch.setattr(erm_lab, "train_ridge", flaky)
        cfg = dict(SIM_CFG, grid=[1.6], simulate={"trials": 5, "d": d, "seeds": seeds, "test_samples": 200})
        out = tmp_path / "flaky.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        header, (row,) = read_csv(out)
        assert int(row[header.index("failures")]) == 3
        assert row[header.index("sim_status")] == (
            "3 failed trials: 2 NumericalError, 1 ConvergenceError; first: NumericalError: ridge normal equations failed"
        )
        assert math.isfinite(float(row[header.index("z_test_error")]))

    @pytest.mark.parametrize("block", [3, [], "x", None], ids=["number", "list", "string", "null"])
    def test_simulate_block_not_an_object_exits_2(self, tmp_path, capsys, block):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, dict(SIM_CFG, simulate=block)), "--out", str(out)]) == 2
        assert f"field 'simulate' must be a JSON object, got {block!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_flag_with_identity_activation(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        path = write_cfg(tmp_path, dict(SIM_CFG, activation="identity"))
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_text() == out2.read_text()

    def test_seed_flag_equals_config_seed(self, tmp_path):
        flag, config, base = tmp_path / "flag.csv", tmp_path / "config.csv", tmp_path / "base.csv"
        path = write_cfg(tmp_path, SIM_CFG)
        assert main(["simulate", "--config", path, "--out", str(flag), "--seed", "7"]) == 0
        seeded = dict(SIM_CFG, simulate={**SIM_CFG["simulate"], "seed": 7})
        assert main(["simulate", "--config", write_cfg(tmp_path, seeded, "s7.json"), "--out", str(config)]) == 0
        assert main(["simulate", "--config", path, "--out", str(base)]) == 0
        assert flag.read_bytes() == config.read_bytes()
        assert flag.read_bytes() != base.read_bytes()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, SIM_CFG), "--out", str(out), "--seed", "-1"]) == 2
        assert "'--seed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block,flags", [({"seed": 2**32}, []), ({"seeds": [0, 2**32]}, []),
                                             ({}, ["--seed", str(2**32)])], ids=["seed", "seeds", "flag"])
    def test_seed_past_32_bits_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch, block, flags):
        # reduced mod 2**32, seed 4294967296 trained on the features and test points of seed 0
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a point before rejecting the seed")

        monkeypatch.setattr("rfensemble.cli.solve_point", no_solve)
        cfg = dict(SIM_CFG, simulate={"trials": 2, "d": 20, **block})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)] + flags) == 2
        assert "2**32" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_past_32_bits_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", write_cfg(tmp_path, SIM_CFG), "--out", str(out), "--seed", str(2**32)]) == 2
        assert "field '--seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_flag_gives_same_rows(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        path = write_cfg(tmp_path, SIM_CFG)
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_text() == out2.read_text()


class TestConfidenceDensity:
    def test_matrix_properties(self, tmp_path):
        # Fig-5-left regime: strongly underparameterized, moderate q0, so the
        # confidence scores stay away from the grid edges
        cfg = {
            "loss": "logistic", "rho": 1.0, "lambda": 1e-2, "n_over_d": 2.0,
            "K": [2], "p_over_n": 0.13, "resolution": 64, "tol": 1e-9,
        }
        out = tmp_path / "conf.csv"
        assert main(["confidence-density", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("# q0=")
        assert "q1=" in text[0]
        rows = list(csv.reader(text[1:]))
        grid = np.array([float(x) for x in rows[0][1:]])
        dens = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(dens, dens.T, atol=1e-10)
        step = grid[1] - grid[0]
        mass = dens.sum() * step**2
        assert 0.99 <= mass <= 1.01

    def test_square_loss_rejected(self, tmp_path):
        cfg = {"loss": "square", "rho": 1.0, "lambda": 1.0, "alpha": 1.0, "K": [1]}
        assert main(["confidence-density", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_no_convergence_reports_diagnostics(self, tmp_path, capsys):
        cfg = {
            "loss": "logistic", "rho": 1.0, "lambda": 1e-2, "n_over_d": 2.0,
            "K": [2], "p_over_n": 0.13, "resolution": 16, "tol": 1e-9, "max_iters": 3,
        }
        out = tmp_path / "conf.csv"
        assert main(["confidence-density", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "max_iters" in err
        assert "3 iterations" in err
        assert "residual" in err
        assert not out.exists()


LOGISTIC_POINT_CFG = {
    "loss": "logistic", "rho": 1.0, "lambda": 1e-1, "n_over_d": 2.0,
    "K": [1, 2], "p_over_n": 0.5, "tol": 1e-9, "damping": 0.4, "resolution": 16,
}

KERNEL_CFG = {
    "loss": "square", "rho": 1.0, "lambda": 1e-3, "kernel": True, "n_over_d": 1.5,
    "K": [1, "inf"], "tol": 1e-12,
}


class TestResolver:
    def test_every_command_solves_the_same_point(self, tmp_path, capsys):
        # solve, a one-point sweep, confidence-density and the golden corpus
        # all resolve the config to one point and solve it with one set of options
        path = write_cfg(tmp_path, LOGISTIC_POINT_CFG)
        assert main(["solve", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = (payload["q0"], payload["q1"])

        sweep_cfg = dict(LOGISTIC_POINT_CFG, axis="p_over_n", grid=[LOGISTIC_POINT_CFG["p_over_n"]])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, sweep_cfg, "sweep.json"), "--out", str(out)]) == 0
        with open(out) as fh:
            (row,) = list(csv.DictReader(fh))
        assert (float(row["q0"]), float(row["q1"])) == want

        out = tmp_path / "conf.csv"
        assert main(["confidence-density", "--config", path, "--out", str(out)]) == 0
        header = dict(item.split("=") for item in out.read_text().splitlines()[0][2:].split())
        assert (float(header["q0"]), float(header["q1"])) == want

        record = GoldenRecord(name="resolver", kind="fixed_point", config=LOGISTIC_POINT_CFG,
                              expected={}, tolerance={}, provenance="same point as the CLI")
        produced = evaluate_record(record)
        assert (produced["q0"], produced["q1"]) == want

    @pytest.mark.parametrize(
        "command,cfg,fix",
        [
            ("sweep", dict(RIDGE_CFG, axis="K", grid=[1, 2, 4]), '"K": [1, 2, 4]'),
            ("sweep", {**KERNEL_CFG, "axis": "p_over_n", "grid": [0.5, 1.0]}, "sweep 'delta' or 'lambda'"),
            ("confidence-density", dict(LOGISTIC_POINT_CFG, kernel=True), "drop 'kernel'"),
        ],
        ids=["K-axis", "kernel-p_over_n", "kernel-confidence-density"],
    )
    def test_config_error_names_the_fix(self, tmp_path, capsys, command, cfg, fix):
        code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert fix in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "command,cfg,key",
        [
            ("sweep", dict(SWEEP_CFG, grid=["a"]), "'grid'"),
            ("solve", dict(RIDGE_CFG, rho="one"), "'rho'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": "x", "d": 40}), "'simulate.trials'"),
            ("sweep", dict(SWEEP_CFG, K=[True]), "K entries"),
            ("solve", dict(RIDGE_CFG, K=[1, True]), "K entries"),
        ],
        ids=["grid-string", "rho-string", "trials-string", "K-bool-sweep", "K-bool-solve"],
    )
    def test_non_numeric_value_exits_2_naming_the_key(self, tmp_path, capsys, command, cfg, key):
        code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "command,cfg,key",
        [
            ("confidence-density", dict(LOGISTIC_POINT_CFG, resolution=-1), "'resolution'"),
            ("confidence-density", dict(LOGISTIC_POINT_CFG, resolution=0), "'resolution'"),
            ("solve", dict(RIDGE_CFG, activation=["erf"]), "'activation'"),
            ("sweep", dict(SWEEP_CFG, out=9), "'out'"),
            ("sweep", dict(SWEEP_CFG, out=1), "'out'"),
            ("solve", dict(RIDGE_CFG, tol=True), "'tol'"),
            ("solve", dict(RIDGE_CFG, max_iters=-3), "max_iters"),
            ("sweep", dict(SWEEP_CFG, max_iters=0), "max_iters"),
            ("simulate", dict(SIM_CFG, simulate={"trials": -2, "d": 40}), "'simulate.trials'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2.7, "d": 40}), "'simulate.trials'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 0}), "'simulate.d'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2}), "'simulate.d'"),
            ("simulate", dict(SIM_CFG, loss="logistic", simulate={"trials": 2, "d": 20, "test_samples": -5}),
             "'simulate.test_samples'"),
            ("simulate", dict(SIM_CFG, loss="logistic", simulate={"trials": 2, "d": 20, "test_samples": 0}),
             "'simulate.test_samples'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "estimator": "medain"}),
             "'simulate.estimator'"),
            ("simulate", dict(SIM_CFG, loss="logistic", simulate={"trials": 2, "d": 20, "estimator": "mean"}),
             "'simulate.estimator'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "estimator": "avg_sign"}),
             "'simulate.estimator'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "estimator": "majority"}),
             "'simulate.estimator'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "seed": 2**32}), "'simulate.seed'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "seeds": [0, 2**32]}), "'simulate.seeds'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "seeds": 5}), "'simulate.seeds'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "seeds": [1, 2, 3]}), "'simulate.seeds'"),
            ("sweep", dict(SWEEP_CFG, simulate={"trials": -2, "d": 40}), "'simulate.trials'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "seeds": ["a", "b"]}), "'simulate.seeds'"),
            ("simulate", dict(SIM_CFG, simulate={"trials": 2, "d": 20, "seed": -1}), "'simulate.seed'"),
            ("solve", dict(RIDGE_CFG, alpha=0), "'alpha'"),
            ("sweep", dict(SWEEP_CFG, axis="alpha", grid=[2.0, 1.0, -1.0]), "'grid'"),
            ("solve", dict(RIDGE_CFG, tol=math.inf), "'tol'"),
            ("solve", dict(RIDGE_CFG, rho=math.inf), "'rho'"),
            ("solve", dict(RIDGE_CFG, **{"lambda": math.inf}), "'lambda'"),
            ("sweep", dict(SWEEP_CFG, grid=[0.5, 1.0, math.inf]), "'grid'"),
        ],
        ids=["resolution-negative", "resolution-0", "activation-list", "out-9", "out-1", "tol-true",
             "max_iters-negative", "max_iters-0", "trials-negative", "trials-fraction", "d-0", "d-missing",
             "test_samples-negative", "test_samples-0", "estimator-misspelled", "estimator-mean-margin",
             "estimator-avg_sign-square", "estimator-majority-square", "seed-past-32-bits", "seeds-past-32-bits",
             "seeds-number",
             "seeds-wrong-length", "sweep-reads-simulate-values", "seeds-strings", "seed-negative", "alpha-0",
             "alpha-grid-negative", "tol-inf", "rho-inf", "lambda-inf", "grid-inf"],
    )
    def test_bad_value_exits_2_naming_the_key_before_any_solve(self, tmp_path, capsys, monkeypatch, command, cfg,
                                                               key):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a point before rejecting the value")

        monkeypatch.setattr("rfensemble.cli.solve_point", no_solve)
        out = tmp_path / "x.csv"
        # a config that names its own `out` gets no flag
        code = main([command, "--config", write_cfg(tmp_path, cfg)] + ([] if "out" in cfg else ["--out", str(out)]))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error:") and key in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,cfg,key",
        [
            ("solve", {"loss": "square", "rho": 1, "lambda": 0.1, "p_over_n": 0, "K": [1]}, "'p_over_n'"),
            ("sweep", dict(SWEEP_CFG, grid=[0.0, 1.0]), "'grid'"),
            ("sweep", dict(SWEEP_CFG, grid=[1.0, 0.5, 0.0]), "'grid'"),
        ],
        ids=["solve-p_over_n-0", "sweep-grid-starts-at-0", "sweep-grid-ends-at-0"],
    )
    def test_zero_p_over_n_exits_2_naming_the_key(self, tmp_path, capsys, command, cfg, key):
        code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "positive p/n" in err
        assert not (tmp_path / "x.csv").exists()

    def test_parse_problem_rejects_nonpositive_p_over_n(self):
        cfg = {k: v for k, v in RIDGE_CFG.items() if k != "alpha"}
        assert parse_problem(dict(cfg, p_over_n=2.0)).alpha == 0.5
        for value in (0, 0.0, -1.0):
            with pytest.raises(ConfigError, match="p_over_n"):
                parse_problem(dict(cfg, p_over_n=value))

    def test_at_rejects_nonpositive_p_over_n(self):
        problem = parse_problem(SWEEP_CFG)
        assert problem.at("p_over_n", 2.0).alpha == 0.5
        for value in (0, 0.0, -0.5):
            with pytest.raises(ConfigError, match="grid"):
                problem.at("p_over_n", value)

    @pytest.mark.parametrize(
        "command,cfg,key",
        [
            ("solve", dict(KERNEL_CFG, n_over_d=0), "'n_over_d'"),
            ("solve", dict(RIDGE_CFG, n_over_d=0), "'n_over_d'"),
            ("sweep", dict(KERNEL_CFG, axis="delta", grid=[0.0, 1.0]), "'grid'"),
        ],
        ids=["kernel-n_over_d-0", "finite-n_over_d-0", "sweep-delta-grid-0"],
    )
    def test_zero_n_over_d_exits_2_naming_the_key(self, tmp_path, capsys, command, cfg, key):
        code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "positive n/d" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("kernel", [False, True])
    def test_parse_problem_rejects_nonpositive_n_over_d(self, kernel):
        cfg = dict(RIDGE_CFG, kernel=kernel)
        assert parse_problem(dict(cfg, n_over_d=1.5)).n_over_d == 1.5
        for value in (0, 0.0, -1.0):
            with pytest.raises(ConfigError, match="n_over_d"):
                parse_problem(dict(cfg, n_over_d=value))

    def test_at_rejects_nonpositive_delta(self):
        problem = parse_problem(KERNEL_CFG)
        assert problem.at("delta", 2.0).n_over_d == 2.0
        for value in (0, 0.0, -0.5):
            with pytest.raises(ConfigError, match="grid"):
                problem.at("delta", value)

    @pytest.mark.parametrize(
        "command,cfg,key,near",
        [
            ("solve", dict(RIDGE_CFG, dampning=0.2), "'dampning'", "'damping'"),
            ("sweep", dict(SWEEP_CFG, gird=[1.0]), "'gird'", "'grid'"),
            ("simulate", dict(SIM_CFG, simulate={"trails": 2, "d": 40}), "'simulate.trails'", "'simulate.trials'"),
            # the quadrature orders are fixed in the channel module, not set by a config
            ("solve", dict(LOGISTIC_POINT_CFG, order_1d=101), "'order_1d'", "'n_over_d'"),
        ],
        ids=["solve-dampning", "sweep-gird", "simulate-trails", "solve-order_1d"],
    )
    def test_unknown_key_exits_2_naming_the_nearest_known_key(self, tmp_path, capsys, command, cfg, key, near):
        code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 2
        assert f"unknown field {key}; did you mean {near}?" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_key_with_no_near_match_lists_the_known_keys(self, tmp_path, capsys):
        assert main(["solve", "--config", write_cfg(tmp_path, dict(RIDGE_CFG, zzz=1))]) == 2
        assert "unknown field 'zzz'; known: ['K', 'activation'," in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path",
        sorted((ROOT / "configs").glob("*.json")) + sorted((ROOT / "rfbench" / "configs").glob("*.json"))
        + [p for p in sorted((ROOT / "goldens").glob("*.json"))
           if json.loads(p.read_text())["kind"] in ("fixed_point", "kernel_fixed_point", "sweep_property")],
        ids=lambda p: f"{p.parent.name}/{p.stem}",
    )
    def test_shipped_configs_and_golden_sweeps_have_known_keys(self, path):
        cfg = json.loads(path.read_text())
        if path.parent.name == "goldens":
            cfg = cfg["config"].get("sweep", cfg["config"])
        cli._check_keys(cfg)
        # every value is read through the table, without a solve
        problem = parse_problem(cfg)
        assert solve_options_from(cfg).tol == cfg.get("tol", 1e-9)
        for value in cfg.get("grid", []):
            problem.at(cfg["axis"], value)
        sim = cfg.get("simulate", {})
        for key in sim:
            assert cli._read(sim, "simulate." + key) == sim[key]

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]], ids=repr)
    def test_non_boolean_kernel_exits_2(self, tmp_path, capsys, value):
        cfg = {"loss": "square", "rho": 1.0, "lambda": 0.1, "p_over_n": 0.5, "K": [1], "kernel": value}
        assert main(["solve", "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert "'kernel' must be true or false" in captured.err
        assert captured.out == ""
        with pytest.raises(ConfigError, match="kernel"):
            parse_problem(cfg)

    def test_boolean_kernel_values_are_read(self):
        cfg = {"loss": "square", "rho": 1.0, "lambda": 0.1, "p_over_n": 0.5, "K": [1]}
        assert parse_problem(dict(cfg, kernel=True)).kernel is True
        assert parse_problem(dict(cfg, kernel=False)).kernel is False
        assert parse_problem(cfg).kernel is False

    def test_kernel_lambda_sweep(self, tmp_path):
        cfg = dict(KERNEL_CFG, axis="lambda", grid=[1e-3, 1e-2, 1e-1])
        out = tmp_path / "kernel_lambda.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        coeffs = activation_coeffs(erf, gauss_hermite_rule(201))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["value"]) for r in rows] == cfg["grid"]
        for r in rows:
            lam = float(r["value"])
            v, m, _ = kernel_ridge_closed_form(lam, KERNEL_CFG["n_over_d"], 1.0, coeffs)
            _, _, q = kernel_ridge_closed_form_derived(lam, KERNEL_CFG["n_over_d"], 1.0, coeffs)
            for name, want in (("v", v), ("m", m), ("q0", q), ("q1", q)):
                assert float(r[name]) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_configs_resolve_every_point(self, path):
        cfg = json.loads(path.read_text())
        problem = parse_problem(cfg)
        points = [problem.at(cfg["axis"], value) for value in cfg["grid"]] if "axis" in cfg else [problem]
        for point in points:
            # a kernel point needs no ModelConfig; a finite one builds it without a solve
            assert point.kernel or point.model().alpha == point.alpha


class TestSolverSettings:
    """Solver settings come from the config only; the command line carries the
    paths, and `simulate` also its `--jobs` and `--seed`."""

    def test_config_damping_changes_iterations(self, tmp_path, capsys):
        assert main(["solve", "--config", write_cfg(tmp_path, RIDGE_CFG)]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["solve", "--config", write_cfg(tmp_path, dict(RIDGE_CFG, damping=0.9), "d.json")]) == 0
        damped = json.loads(capsys.readouterr().out)
        assert damped["iterations"] != base["iterations"]

    @pytest.mark.parametrize(
        "flag,command",
        [(flag, command) for flag in ("--jobs", "--seed") for command in ("solve", "sweep", "confidence-density")]
        + [(flag, command) for flag in ("--tol", "--damping")
           for command in ("solve", "sweep", "simulate", "confidence-density")],
    )
    def test_jobs_and_seed_belong_to_simulate(self, tmp_path, capsys, command, flag):
        # and `--tol`, `--damping` to no command: the config sets both
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", write_cfg(tmp_path, RIDGE_CFG), flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_import_loads_neither_scipy_linalg_nor_the_process_pool():
    # numpy's LAPACK solves the ERM systems, and only `simulate --jobs N` starts workers,
    # so a fresh process that imports the package and the CLI needs neither module
    code = ("import sys, rfensemble, rfensemble.cli; "
            "print([m for m in ('scipy.linalg', 'concurrent.futures.process') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


# cli.main on each argv of the first list, then on the second: prints the exit codes, the scipy
# modules loaded before the second, and whether scipy.special was loaded after it
_SCIPY_PROBE = """
import contextlib, io, json, sys
import rfensemble, rfensemble.cli as cli

LAB = ("rfensemble.erm_lab", "scipy.special", "hashlib", "_hashlib", "difflib")

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)

theory, lab = json.loads(sys.argv[1])
codes = [run(argv) for argv in theory]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.") or m in LAB)
codes.append(run(lab))
print(json.dumps({"codes": codes, "theory": loaded, "lab": [m for m in LAB[:2] if m in sys.modules]}))
"""


def test_theory_commands_load_no_scipy_and_simulate_does(tmp_path):
    # the theory takes erf and expit from rfensemble.special; only the ERM lab imports scipy.special.
    # The theory commands load neither the lab nor hashlib (OpenSSL), nor difflib for a known key
    def argv(command, cfg, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        return [command, "--config", str(path), "--out", str(tmp_path / f"{name}.out")]

    def first_point(path):
        cfg = json.loads(path.read_text())
        point = {k: v for k, v in cfg.items() if k not in ("axis", "grid", "simulate")}
        return dict(point, **{cfg["axis"]: cfg["grid"][0]})

    ridge = json.loads((ROOT / "configs" / "ridge_double_descent.json").read_text())
    theory = [
        argv("sweep", json.loads((ROOT / "configs" / "kernel_limit.json").read_text()), "kernel"),
        argv("sweep", dict(ridge, grid=ridge["grid"][:2]), "ridge"),
        argv("solve", first_point(ROOT / "configs" / "logistic_overlaps.json"), "logistic"),
        argv("solve", first_point(ROOT / "rfbench" / "configs" / "margin_hinge.json"), "hinge"),
        argv("confidence-density", json.loads((ROOT / "configs" / "confidence_density.json").read_text()), "density"),
    ]
    erm = json.loads((ROOT / "configs" / "ridge_theory_vs_erm.json").read_text())
    lab = argv("simulate", dict(erm, grid=[2.0], simulate={"trials": 1, "d": 20, "test_samples": 100}), "simulate")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps([theory, lab])],
                            env=env, capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == {"codes": [0] * 6, "theory": [], "lab": ["rfensemble.erm_lab", "scipy.special"]}


def test_package_resolves_the_lab_names_on_first_use():
    import rfensemble

    defined = {name for name, obj in vars(erm_lab).items() if getattr(obj, "__module__", None) == erm_lab.__name__}
    lab = [name for name in rfensemble.__all__ if name in defined]
    assert len(lab) == 10
    for name in lab:
        assert getattr(rfensemble, name) is getattr(erm_lab, name)
    star = {}
    exec("from rfensemble import *", star)
    assert set(rfensemble.__all__) <= set(star)
    assert all(star[name] is getattr(erm_lab, name) for name in lab)
    with pytest.raises(AttributeError, match="'rfensemble' has no attribute 'no_such_name'"):
        rfensemble.no_such_name


def test_simulate_without_test_samples_passes_the_lab_default(tmp_path, monkeypatch):
    # the config table holds no copy of the default: simulate reads it from the lab
    seen = []

    def record(*args, **kwargs):
        seen.append(kwargs["test_samples"])
        raise ConfigError("stop after the first point")

    monkeypatch.setattr(erm_lab, "run_experiment", record)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(SIM_CFG, grid=[1.6], simulate={"trials": 1, "d": 20})))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 4
    assert seen == [erm_lab.DEFAULT_TEST_SAMPLES]
