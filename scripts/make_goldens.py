"""Generate the golden-record corpus under goldens/.

Run from the repo root: python scripts/make_goldens.py
Each record stores full-precision values plus an explicit tolerance and the
oracle that produced it. The records are evaluated by the golden harness in
tests/corpus.py, which this script imports by putting tests/ on sys.path;
tests/test_corpus.py and corpus.regenerate_goldens re-check them.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import corpus  # noqa: E402

RECORDS = [
    {
        "name": "ridge_strong_reg_point",
        "kind": "fixed_point",
        "config": {
            "loss": "square", "rho": 1.0, "lambda": 10.0, "alpha": 1.0,
            "n_over_d": 2.0, "K": [1, 2], "tol": 1e-12,
        },
        "expected_keys": ["m", "q0", "q1", "v", "m_hat", "q0_hat", "q1_hat", "v_hat", "eps_g_K1", "eps_g_K2"],
        "tolerance": 1e-8,
        "provenance": "damped fixed-point iteration at tol 1e-12; cross-validated against the finite-matrix trace oracle and finite-size training runs",
    },
    {
        "name": "ridge_near_interpolation_point",
        "kind": "fixed_point",
        "config": {
            "loss": "square", "rho": 1.0, "lambda": 1e-6, "p_over_n": 1.5,
            "n_over_d": 2.0, "K": [1, 2, 4], "tol": 1e-11,
        },
        "expected_keys": ["m", "q0", "q1", "v", "eps_g_K1", "eps_g_K2", "eps_g_K4", "eps_bar", "disagreement"],
        "tolerance": 1e-6,
        "provenance": "damped fixed-point iteration at tol 1e-11; overlaps validated against 12-trial training runs at d=200 within one standard error",
    },
    {
        "name": "logistic_moderate_point",
        "kind": "fixed_point",
        "config": {
            "loss": "logistic", "rho": 1.0, "lambda": 1e-2, "p_over_n": 1.0,
            "n_over_d": 2.0, "K": [1, 2], "tol": 1e-10,
        },
        "expected_keys": ["m", "q0", "q1", "v", "eps_g_K1", "eps_g_K2", "disagreement"],
        "tolerance": 1e-6,
        "provenance": "damped fixed-point iteration with Gauss-Hermite orders 101/61, doubled-order refinement below 1e-8; validated against 8-trial training runs at d=150",
    },
    {
        "name": "kernel_ridge_point",
        "kind": "kernel_fixed_point",
        "config": {
            "loss": "square", "rho": 1.0, "lambda": 1e-3, "n_over_d": 2.0,
            "K": [1], "kernel": True, "tol": 1e-13,
        },
        "expected_keys": ["m", "q0", "q1", "v", "eps_bar"],
        "tolerance": 1e-8,
        "provenance": "kernel-limit iteration; v and m agree with the one-shot closed form to 1e-8, q with its rederived self-consistent form",
    },
    {
        "name": "majority_vote_k3_reference",
        "kind": "mc_estimate",
        "config": {
            "rho": 1.0, "m": 0.5, "q0": 1.0, "q1": 0.5, "K": 3,
            "estimator": "majority", "metric": "zero_one", "samples": 10_000_000, "seed": 7,
        },
        "expected_keys": ["estimate"],
        "tolerance": 6e-4,
        "provenance": "counter-based Monte Carlo at 1e7 samples, seed 7 (about four standard errors); no closed form exists for the majority rule",
    },
    {
        "name": "mp_moments_gamma_half",
        "kind": "spectral_moment",
        "config": {"gamma": 0.5, "activation": "erf", "moments": ["mass", "mean", "resolvent"]},
        "expected_keys": ["mass", "mean", "resolvent"],
        "tolerance": 1e-8,
        "provenance": "edge-concentrating quadrature of the shifted Marchenko-Pastur law; mass and mean pinned by trace identities, resolvent cross-checked against 2000x1000 empirical eigenvalues within 0.03 percent",
    },
    {
        "name": "ridge_double_descent_peak",
        "kind": "sweep_property",
        "config": {
            "sweep": {
                "loss": "square", "rho": 1.0, "lambda": 1e-6, "n_over_d": 2.0,
                "K": [1], "axis": "p_over_n",
                "grid": [0.5, 0.7, 0.85, 1.0, 1.15, 1.3, 1.5, 2.0], "tol": 1e-9,
            },
            "column": "eps_g_K1",
            "property": "argmax_value",
        },
        "expected_keys": ["argmax"],
        "tolerance": 1e-12,
        "provenance": "double-descent peak property: the single-learner error is maximal at the interpolation point p = n",
    },
    {
        "name": "logistic_agreement_grows",
        "kind": "sweep_property",
        "config": {
            "sweep": {
                "loss": "logistic", "rho": 1.0, "lambda": 1e-4, "n_over_d": 2.0,
                "K": [1], "axis": "p_over_n",
                "grid": [0.5, 0.8, 1.2, 1.8, 2.5], "tol": 1e-8,
            },
            "column": "q1_over_q0",
            "property": "increasing",
        },
        "expected_keys": ["fraction_increasing"],
        "tolerance": 1e-12,
        "provenance": "overparametrization-promotes-agreement property: the learner cosine similarity rises monotonically with p/n",
    },
]


def main(overwrite: bool) -> None:
    out_dir = ROOT / "goldens"
    out_dir.mkdir(exist_ok=True)
    for spec in RECORDS:
        path = out_dir / f"{spec['name']}.json"
        if path.exists() and not overwrite:
            print(f"skip (exists): {path.name}")
            continue
        record = corpus.GoldenRecord(
            name=spec["name"],
            kind=spec["kind"],
            config=spec["config"],
            expected={k: 0.0 for k in spec["expected_keys"]},
            tolerance={k: spec["tolerance"] for k in spec["expected_keys"]},
            provenance=spec["provenance"],
        )
        produced = corpus.evaluate_record(record)
        payload = {
            "name": spec["name"],
            "kind": spec["kind"],
            "config": spec["config"],
            "expected": {k: produced[k] for k in spec["expected_keys"]},
            "tolerance": {k: spec["tolerance"] for k in spec["expected_keys"]},
            "provenance": spec["provenance"],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main(overwrite="--overwrite" in sys.argv)
