"""Print one sha256 per CLI output, so two checkouts can be compared byte for byte.

Usage: python scripts/cli_digest.py > digest.txt  (from any directory; no options)

It runs, with BLAS pinned to one thread:
- `sweep` on every sweep config (one with an "axis") in configs/ and
  rfbench/configs/, hashing the CSV it writes;
- `solve` at the first grid point of each of those configs, and on the
  hinge at lambda = 1e-4, p/n = 2 (v ~ 1e3, so the hinge's middle branch
  reaches far past the 12 sd its integrals are clipped to), hashing the JSON
  it prints;
- `confidence-density` on configs/confidence_density.json, hashing its CSV;
- `simulate` on configs/logistic_overlaps.json cut to two grid points and
  three small trials each, and on configs/ridge_theory_vs_erm.json cut to
  two grid points and two small trials each, hashing each CSV;
- erm_lab.run_experiment on each ERM configuration of the benchmark's
  erm-lab workload (rfbench/worker.py, round 0 at seed 0; its logistic
  configuration takes the avg_sign estimator), on a tanh square case
  (sampled test error), on a logistic K = 3 case with the majority
  estimator, so that both sign estimators are pinned, and on a hinge case
  (every trial fails), hashing the records in the canonical form below;
- corpus.evaluate_record (tests/corpus.py) on every record in goldens/,
  hashing the repr of the evaluation in a canonical form: every float-like
  scalar is written as `float(v).hex()`, so a float that becomes an
  np.float64 of the same value (or back) leaves its line alone, while any
  change in the last bit shows;
- observables.generic_gen_error at 150,000 samples (two full Monte Carlo
  blocks and a partial one): avg_sign and majority zero-one error at K = 3
  and mean squared error at K = 2, hashing (estimate, std_error) in the
  same canonical form.
Each line is "<sha256>  <output> exit=<code>"; output on stderr gets a line
of its own. Diff the output of the two checkouts to compare them.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "rfbench"))
sys.path.insert(0, str(ROOT / "tests"))

from scipy.special import erf  # noqa: E402

from rfensemble import (  # noqa: E402
    EnsembleCovariance,
    RfensembleError,
    activation_coeffs,
    cli,
    erm_lab,
    gauss_hermite_rule,
    generic_gen_error,
)
import corpus  # noqa: E402
from worker import ErmLab  # noqa: E402

# the delta axis moves n_over_d; every other axis is the config key of its own name
AXIS_KEYS = {"delta": "n_over_d"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value):
    """`value` with dicts, lists and tuples walked and every float-like scalar written as float.hex."""
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def run_cli(command: str, cfg: dict, label: str, tmp: Path) -> None:
    cfg_path, out_path = tmp / "config.json", tmp / "out"
    cfg_path.write_text(json.dumps(cfg))
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", str(cfg_path), "--out", str(out_path)])
    if command == "solve":
        data = stdout.getvalue().encode()
    else:
        data = out_path.read_bytes() if out_path.exists() else b""
    print(f"{sha256(data)}  {command} {label} exit={code}", flush=True)
    if stderr.getvalue():
        print(f"{sha256(stderr.getvalue().encode())}  {command} {label} stderr", flush=True)


def run_erm(label: str, loss: str, activation, n, p, d, K, lam, trials, seeds, test_samples, estimator=None) -> None:
    coeffs = activation_coeffs(activation, gauss_hermite_rule(201))
    result = erm_lab.run_experiment(
        ErmLab.spec(loss), coeffs, n=n, p=p, d=d, K=K, rho=1.0, lam=lam, trials=trials, seeds=seeds,
        estimator=estimator, activation=activation, test_samples=test_samples,
    )
    records = [canonical(dataclasses.asdict(r)) for r in result.records]
    print(f"{sha256(repr(records).encode())}  erm {label}", flush=True)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)

        sweeps = sorted((ROOT / "configs").glob("*.json")) + sorted((ROOT / "rfbench" / "configs").glob("*.json"))
        for path in sweeps:
            cfg = json.loads(path.read_text())
            if "axis" not in cfg:
                continue
            label = str(path.relative_to(ROOT))
            run_cli("sweep", cfg, label, tmp)
            point = {k: v for k, v in cfg.items() if k not in ("axis", "grid")}
            point[AXIS_KEYS.get(cfg["axis"], cfg["axis"])] = cfg["grid"][0]
            run_cli("solve", point, f"{label}@{cfg['axis']}={cfg['grid'][0]}", tmp)
        hinge = {"loss": "hinge", "rho": 1.0, "lambda": 1e-4, "n_over_d": 2.0, "p_over_n": 2.0, "K": [1, 3, "inf"]}
        run_cli("solve", hinge, "hinge lambda=1e-4 n/d=2 p/n=2", tmp)
        density = ROOT / "configs" / "confidence_density.json"
        run_cli("confidence-density", json.loads(density.read_text()), str(density.relative_to(ROOT)), tmp)
        for name, grid, trials in (("logistic_overlaps.json", [0.5, 1.5], 3), ("ridge_theory_vs_erm.json", [0.8, 1.5], 2)):
            simulate = ROOT / "configs" / name
            cfg = json.loads(simulate.read_text())
            cfg.update(grid=grid, simulate={"trials": trials, "d": 40, "seed": 0, "test_samples": 2000})
            run_cli("simulate", cfg, f"{simulate.relative_to(ROOT)} (2 points, {trials} trials, d 40)", tmp)
        for idx, (tag, loss, n, p, d, K, lam, trials) in enumerate(ErmLab.CONFIGS):
            seeds = [(0, 0, idx, t) for t in range(trials)]
            run_erm(tag, loss, erf, n, p, d, K, lam, trials, seeds, ErmLab.TEST_SAMPLES)
        run_erm("tanh-square", "square", np.tanh, 120, 100, 60, 2, 1e-2, 3, [(1, t) for t in range(3)], 2000)
        run_erm("logistic-k3-majority", "logistic", erf, 200, 200, 100, 3, 1e-4, 3, [(3, t) for t in range(3)], 10_000,
                estimator="majority")
        run_erm("hinge", "hinge", erf, 60, 40, 30, 2, 1e-2, 2, [(2, t) for t in range(2)], 500)
        for record in corpus.load_corpus(ROOT / "goldens"):
            try:
                result = corpus.evaluate_record(record)
            except RfensembleError as exc:
                result = exc
            print(f"{sha256(repr(canonical(result)).encode())}  golden {record.name}", flush=True)
        for estimator, metric, K in (("avg_sign", "zero_one", 3), ("majority", "zero_one", 3), ("mean", "mse", 2)):
            cov = EnsembleCovariance(rho=1.0, m=0.4, q0=1.1, q1=0.6, K=K)
            result = generic_gen_error(cov, estimator, metric, 150_000, seed=12)
            print(f"{sha256(repr(canonical(result)).encode())}  mc {estimator} {metric} K={K}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
