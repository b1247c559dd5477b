"""Golden-record corpus: frozen values with provenance, re-checkable on demand.

Each record is one JSON file holding a config, the expected values, a per
field tolerance, and a provenance note naming the oracle that produced the
value (independent quadrature, high-sample Monte Carlo with a pinned seed,
closed form, ...). Records store full-precision floats plus explicit
tolerances; regeneration never overwrites without an explicit flag.

A test harness, not part of the package: the tests import it from their own
directory, and scripts/make_goldens.py and scripts/cli_digest.py put tests/
on sys.path to reach it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from rfensemble import cli
from rfensemble.errors import ConfigError, RfensembleError
from rfensemble.observables import EnsembleCovariance, generic_gen_error, majority_vote_error
from rfensemble.spectrum import mp_spectral_model, spectral_integral

KINDS = ("fixed_point", "kernel_fixed_point", "mc_estimate", "spectral_moment", "sweep_property")


@dataclass(frozen=True)
class GoldenRecord:
    name: str
    kind: str
    config: dict
    expected: dict
    tolerance: dict
    provenance: str
    path: Optional[Path] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown golden kind {self.kind!r}")
        if not self.provenance:
            raise ConfigError(f"golden record {self.name!r} must carry a provenance tag")
        for key in self.expected:
            if key not in self.tolerance:
                raise ConfigError(f"golden record {self.name!r}: no tolerance for field {key!r}")


def load_record(path) -> GoldenRecord:
    raw = json.loads(Path(path).read_text())
    return GoldenRecord(
        name=raw["name"],
        kind=raw["kind"],
        config=raw["config"],
        expected=raw["expected"],
        tolerance=raw["tolerance"],
        provenance=raw["provenance"],
        path=Path(path),
    )


def load_corpus(corpus_dir) -> list:
    paths = sorted(Path(corpus_dir).glob("*.json"))
    if not paths:
        raise ConfigError(f"no golden records under {corpus_dir}")
    return [load_record(p) for p in paths]


def _evaluate_fixed_point(config: dict) -> dict:
    problem = cli.parse_problem(config)
    fp = cli.solve_point(problem, cli.solve_options_from(config))
    out = fp.as_dict()
    out.update(cli.observable_row(problem, fp))
    return out


def _evaluate_mc(config: dict) -> dict:
    cov = EnsembleCovariance(
        rho=config["rho"], m=config["m"], q0=config["q0"], q1=config["q1"], K=config["K"]
    )
    if config.get("estimator") == "majority":
        est, se = majority_vote_error(cov, config["samples"], config["seed"])
    else:
        est, se = generic_gen_error(
            cov, config["estimator"], config["metric"], config["samples"], config["seed"]
        )
    return {"estimate": est, "std_error": se}


def _evaluate_spectral(config: dict) -> dict:
    problem = cli.parse_problem({**config, "loss": config.get("loss", "square"), "rho": 1.0, "lambda": 1.0})
    model = mp_spectral_model(config.get("alpha", 1.0), config["gamma"], problem.coeffs)
    moments = {
        "mass": lambda s: np.ones_like(s),
        "mean": lambda s: s,
        "resolvent": lambda s: s / (1.0 + s),
    }
    return {name: spectral_integral(model, g) for name, g in moments.items() if name in config["moments"]}


def _evaluate_sweep_property(config: dict) -> dict:
    rows, _, _ = cli.sweep_rows(config["sweep"])
    values = np.array([row[config["column"]] for row in rows], dtype=float)
    grid = np.array([row["value"] for row in rows], dtype=float)
    prop = config["property"]
    if prop == "argmax_value":
        return {"argmax": float(grid[int(np.argmax(values))])}
    if prop == "increasing":
        return {"fraction_increasing": float(np.mean(np.diff(values) > 0))}
    if prop == "kink_spike":
        second = np.abs(np.diff(values, 2))
        spike = float(np.max(second) / np.median(second))
        return {"spike_ratio": spike, "spike_at": float(grid[1 + int(np.argmax(second))])}
    raise ConfigError(f"unknown sweep property {prop!r}")


def evaluate_record(record: GoldenRecord) -> dict:
    if record.kind in ("fixed_point", "kernel_fixed_point"):
        return _evaluate_fixed_point(record.config)
    if record.kind == "mc_estimate":
        return _evaluate_mc(record.config)
    if record.kind == "spectral_moment":
        return _evaluate_spectral(record.config)
    if record.kind == "sweep_property":
        return _evaluate_sweep_property(record.config)
    raise ConfigError(f"unknown golden kind {record.kind!r}")


@dataclass
class GoldenReport:
    name: str
    passed: bool
    diffs: dict = field(default_factory=dict)
    error: str = ""


def check_record(record: GoldenRecord) -> GoldenReport:
    try:
        produced = evaluate_record(record)
    except RfensembleError as exc:
        return GoldenReport(name=record.name, passed=False, error=f"{type(exc).__name__}: {exc}")
    diffs = {}
    passed = True
    for key, want in record.expected.items():
        got = produced.get(key, math.nan)
        tol = record.tolerance[key]
        ok = math.isfinite(got) and abs(got - want) <= tol
        passed = passed and ok
        diffs[key] = {"expected": want, "got": got, "tol": tol, "ok": ok}
    return GoldenReport(name=record.name, passed=passed, diffs=diffs)


def regenerate_goldens(corpus_dir, overwrite: bool = False) -> list:
    """Re-run every golden config and report pass/fail per record.

    With overwrite=True the produced values replace the stored expectations
    (tolerances and provenance are kept).
    """
    reports = []
    for record in load_corpus(corpus_dir):
        report = check_record(record)
        reports.append(report)
        if overwrite and not report.error:
            produced = {k: report.diffs[k]["got"] for k in record.expected}
            payload = {
                "name": record.name,
                "kind": record.kind,
                "config": record.config,
                "expected": produced,
                "tolerance": record.tolerance,
                "provenance": record.provenance,
            }
            record.path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return reports
