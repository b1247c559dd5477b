"""Benchmark entry point: one workload, fresh processes, one JSON result line.

    python3 rfbench/run.py --workload theory-ridge --seed 0 --seconds 10 --trace 0

Run from the repository root. With --trace 0 it starts PROBES set-up probes
around the timed run, one process at a time, and prints the end-to-end
metrics; with --trace 1 it starts one traced run and prints the per-layer
metrics. Every child has BLAS/OpenMP pinned to one thread and its
RFENSEMBLE_CACHE under .bench_out/. Exits 1 if a check fails and 2 if the
run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("theory-ridge", "theory-margin", "erm-lab")
PROBES = 6
CHILD_TIMEOUT_S = 170.0  # the whole command must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path, out: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["RFENSEMBLE_CACHE"] = str(out / "cache")
    return env


def run_child(args, mode: str, out: Path, env: dict, deadline: float) -> dict:
    worker = Path(__file__).resolve().parent / "worker.py"
    started = time.monotonic()
    cmd = [sys.executable, str(worker), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--spawned-at", repr(started), "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - started))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "rfensemble" / "__init__.py").is_file():
        print(f"no rfensemble sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    out = root / ".bench_out"
    (out / "cache").mkdir(parents=True, exist_ok=True)
    env = child_env(root, out)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    try:
        if args.trace:
            run = run_child(args, "trace", out, env, deadline)
            setups = []
        else:
            # half the probes before the timed run and half after it, so that
            # the samples span the run rather than one moment of machine load
            probe = lambda: run_child(args, "probe", out, env, deadline)
            setups = [probe() for _ in range(PROBES // 2)]
            run = run_child(args, "run", out, env, deadline)
            setups += [probe() for _ in range(PROBES - PROBES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    failed_checks = [c for c in run["checks"] if not c["ok"]]
    for c in failed_checks:
        print(f"CHECK FAILED {c['name']}: {c['detail']}", file=sys.stderr)
    if args.trace:
        for span in run["missing_layers"]:
            print(f"CHECK FAILED layer {span} recorded no calls on {args.workload}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in run["layers"].items()}
        correct = not failed_checks and not run["missing_layers"]
    else:
        rounds = run["rounds"]
        metrics = {
            "setup_s": {"value": statistics.median(p["raw_setup_s"] / p["slowdown"] for p in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "ops_per_s": {"value": statistics.median(r["ok_ops"] / r["wall_s"] for r in rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        correct = not failed_checks
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
    detail = dict(result, rounds=run["rounds"], setup_samples=setups, checks=len(run["checks"]),
                  failed_checks=failed_checks)
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
