"""Command-line front end: solve, sweep, simulate, confidence-density.

Configs are JSON (schema in docs/config_schema.md); outputs are CSV with a
stable, golden-tested column set and full double precision (shortest
round-trip formatting). Exit codes: 0 success, 2 config error,
3 convergence failure, 4 simulation failure.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .channels import LOSSES, ChannelSpec, training_loss
from .errors import ConfigError, RfensembleError
from .observables import confidence_density, disagreement_probability, ensemble_test_error
from .quadrature import gauss_hermite_rule
from .solver import (
    FixedPoint,
    ModelConfig,
    SolveOptions,
    solve_fixed_point,
    solve_kernel_limit,
    warm_options,
)
from .special import erf, scipy_special
from .spectrum import ActivationCoeffs, activation_coeffs, mp_spectral_model
from . import erm_lab

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SIMULATION = 4


def _identity(x):
    return x


# the theory's activations, whose coefficients every command takes;
# module-level functions only: simulate --jobs pickles them for the workers
ACTIVATIONS = {
    "erf": erf,
    "identity": _identity,
    "tanh": np.tanh,
}

SWEEP_AXES = ("p_over_n", "alpha", "lambda", "delta")

_REQUIRED = object()

# key -> (type or allowed values, default or _REQUIRED[, exclusive lower bound]), `simulate.*` inside the
# simulate block; `_read` is the only reader, and docs/config_schema.md has a row for each key
_SCHEMA = {
    "loss": (LOSSES, _REQUIRED),
    "activation": (tuple(ACTIVATIONS), "erf"),
    "rho": (float, _REQUIRED, 0),
    "lambda": (float, _REQUIRED, 0),
    "n_over_d": (float, 2.0, 0),
    "alpha": (float, None, 0),
    "p_over_n": (float, None, 0),
    "K": (object, [1]),  # parse_problem checks the entries
    "kernel": (bool, False),
    "damping": (float, SolveOptions.damping),
    "tol": (float, SolveOptions.tol),
    "max_iters": (int, SolveOptions.max_iters),
    "axis": (str, _REQUIRED),
    "grid": (list, _REQUIRED),
    "out": (str, _REQUIRED),
    "resolution": (int, 64, 0),
    "simulate": (dict, _REQUIRED),
    "simulate.trials": (int, _REQUIRED, -1),
    "simulate.d": (int, _REQUIRED, 0),
    "simulate.seed": (int, 0, -1),
    "simulate.test_samples": (int, erm_lab.DEFAULT_TEST_SAMPLES, 0),
    "simulate.estimator": (("mean", "avg_sign", "majority"), None),
    "simulate.seeds": (list, None),
}

_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string", list: "a list", dict: "a JSON object"}


def _check(name: str, value, key: str):
    """`value` of the config field `name`, checked against and converted by the row of `key`."""
    kind, _, *low = _SCHEMA[key]
    number = kind in (int, float)
    if isinstance(kind, tuple):
        fits, must = value in kind, f"one of {list(kind)}"
    else:
        # booleans are not numbers, and an integer field takes no fraction
        fits = type(value) in (int, float) and (kind is float or value % 1 == 0) if number else isinstance(value, kind)
        must = _KINDS.get(kind)
    if not fits:
        raise ConfigError(f"field {name!r} must be {must}, got {value!r}")
    checked = kind(value) if number else value
    if low and not checked > low[0]:
        # a ratio `x_over_y` is a positive x/y
        what = f"a positive {key.replace('_over_', '/')}" if "_over_" in key else f"above {low[0]}"
        raise ConfigError(f"field {name!r} must be {what}, got {value!r}")
    return checked


def _read(cfg: dict, key: str):
    """The config field `key` checked against its row, or its default; `simulate.x` reads `x` of the block `cfg`."""
    field, default = key.rpartition(".")[2], _SCHEMA[key][1]
    if field not in cfg and default is _REQUIRED:
        raise ConfigError(f"missing field {key!r} in config")
    return _check(key, cfg[field], key) if field in cfg else default


@dataclass(frozen=True)
class TheoryProblem:
    """One theory point: the parsed problem, moved along a sweep axis by `at`.

    `alpha` = n/p comes from `alpha` or `1/p_over_n` and is None when the
    config gives neither. In kernel mode p/n is infinite and `n_over_d` is
    the kernel ratio delta. `K_list` only picks the observable columns: the
    fixed point does not depend on K.
    """

    spec: ChannelSpec
    activation_name: str
    coeffs: ActivationCoeffs
    rho: float
    lam: float
    n_over_d: float
    alpha: Optional[float]
    K_list: tuple
    kernel: bool = False

    def at(self, axis: str, value) -> "TheoryProblem":
        """The point at `value` on a sweep axis, checked as the key the axis moves; the only place an axis is read."""
        if axis in ("p_over_n", "alpha"):
            if self.kernel:
                raise ConfigError(
                    f"axis {axis!r} has no meaning in kernel mode (p/n is infinite); sweep 'delta' or 'lambda'"
                )
            value = _check("grid", value, axis)
            return replace(self, alpha=1.0 / value if axis == "p_over_n" else value)
        if axis == "delta":
            if not self.kernel:
                raise ConfigError("axis 'delta' requires kernel mode")
            return replace(self, n_over_d=_check("grid", value, "n_over_d"))
        if axis == "lambda":
            return replace(self, lam=_check("grid", value, "lambda"))
        if axis == "K":
            raise ConfigError(
                "axis 'K' is not a sweep axis: the fixed point does not depend on K; "
                "list the ensemble sizes in 'K' (e.g. \"K\": [1, 2, 4]) for one eps_g column each"
            )
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")

    def model(self) -> ModelConfig:
        """The finite-ratio solve of this point."""
        if self.alpha is None:
            raise ConfigError("the finite-ratio solve needs 'alpha' or 'p_over_n' in the config")
        gamma = self.alpha / self.n_over_d
        return ModelConfig(
            alpha=self.alpha, gamma=gamma, rho=self.rho, lam=self.lam, K=1, spec=self.spec,
            spectrum=mp_spectral_model(self.alpha, gamma, self.coeffs), coeffs=self.coeffs,
        )


def parse_problem(cfg: dict) -> TheoryProblem:
    loss = _read(cfg, "loss")
    activation_name = _read(cfg, "activation")
    K_list = _read(cfg, "K")
    K_list = tuple(K_list if isinstance(K_list, list) else [K_list])
    for k in K_list:
        if k != "inf" and not (type(k) is int and k >= 1):
            raise ConfigError(f"K entries must be positive integers or 'inf', got {k!r}")
    alpha, p_over_n = _read(cfg, "alpha"), _read(cfg, "p_over_n")
    if alpha is None and p_over_n is not None:
        alpha = 1.0 / p_over_n
    return TheoryProblem(
        spec=ChannelSpec(loss=loss, teacher="linear" if loss == "square" else "sign"),
        activation_name=activation_name,
        coeffs=activation_coeffs(ACTIVATIONS[activation_name], gauss_hermite_rule(201)),
        rho=_read(cfg, "rho"),
        lam=_read(cfg, "lambda"),
        n_over_d=_read(cfg, "n_over_d"),
        alpha=alpha,
        K_list=K_list,
        kernel=_read(cfg, "kernel"),
    )


def solve_options_from(cfg: dict) -> SolveOptions:
    return SolveOptions(**{key: _read(cfg, key) for key in ("damping", "tol", "max_iters")})


def solve_point(problem: TheoryProblem, opts: SolveOptions) -> FixedPoint:
    """Solve the fixed point of one theory point, in the kernel limit or at finite ratio."""
    if problem.kernel:
        return solve_kernel_limit(problem.n_over_d, problem.rho, problem.lam, problem.spec, problem.coeffs, opts)
    return solve_fixed_point(problem.model(), opts)


def observable_row(problem: TheoryProblem, fp: FixedPoint) -> dict:
    params, rho, loss = fp.params, problem.rho, problem.spec.loss
    row = {f"eps_g_K{K}": ensemble_test_error(params, rho, loss, K)[0] for K in problem.K_list}
    _, row["eps_bar"], row["delta_eps"] = ensemble_test_error(params, rho, loss, 1)
    row["disagreement"] = disagreement_probability(params.q0, params.q1)
    row["q1_over_q0"] = params.q1 / params.q0
    return row


def cmd_solve(cfg: dict, args) -> int:
    problem = parse_problem(cfg)
    opts = solve_options_from(cfg)
    fp = solve_point(problem, opts)
    payload = fp.as_dict()
    payload["observables"] = observable_row(problem, fp)
    try:
        payload["train_loss"] = training_loss(fp.params, problem.rho, problem.spec)
    except RfensembleError:
        payload["train_loss"] = math.nan
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK if fp.converged else EXIT_NO_CONVERGENCE


THEORY_COLUMNS = ["axis", "value", "m", "q0", "q1", "v", "m_hat", "q0_hat", "q1_hat", "v_hat", "status", "iterations"]


def sweep_rows(cfg: dict) -> tuple[list, list, list]:
    """Solve the grid in order, each point warm-started at the last converged one.

    Returns (rows, fixed points, point problems), one of each per grid value.
    """
    problem = parse_problem(cfg)
    axis, grid = _read(cfg, "axis"), _read(cfg, "grid")
    if not grid:
        raise ConfigError("grid must be a nonempty list")
    points = [problem.at(axis, value) for value in grid]
    diffs = np.diff(np.array(grid, dtype=float))
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("grid must be strictly monotone")
    opts = solve_options_from(cfg)
    rows, fps = [], []
    for value, point in zip(grid, points):
        fp = solve_point(point, opts)
        opts = warm_options(opts, fp)
        rows.append({"axis": axis, "value": value, **fp.as_dict(), **observable_row(point, fp)})
        fps.append(fp)
    return rows, fps, points


def _theory_columns(problem: TheoryProblem) -> list:
    return THEORY_COLUMNS + [f"eps_g_K{K}" for K in problem.K_list] + [
        "eps_bar", "delta_eps", "disagreement", "q1_over_q0",
    ]


def _write_csv(path: str, columns: Sequence[str], rows: Sequence[dict]) -> None:
    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row.get(c, "")) for c in columns])


def cmd_sweep(cfg: dict, args) -> int:
    out = args.out or _read(cfg, "out")
    rows, fps, points = sweep_rows(cfg)
    _write_csv(out, _theory_columns(points[0]), rows)
    if not all(fp.converged for fp in fps):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


SIM_EXTRA_COLUMNS = [
    "emp_m", "emp_m_se", "emp_q0", "emp_q0_se", "emp_q1", "emp_q1_se",
    "emp_test_error", "emp_test_error_se", "emp_train_loss", "emp_train_loss_se",
    "emp_disagreement", "emp_disagreement_se", "trials", "failures",
    "z_m", "z_q0", "z_q1", "z_test_error", "sim_status",
]


def cmd_simulate(cfg: dict, args) -> int:
    # the simulate block becomes the keywords of erm_lab.run_experiment, all read before any point is solved
    sim = _read(cfg, "simulate")
    run = {key: _read(sim, "simulate." + key) for key in ("trials", "d", "test_samples", "estimator", "seeds")}
    run["master_seed"] = _read(sim, "simulate.seed") if args.seed is None else _check("--seed", args.seed, "simulate.seed")
    for seed in run["seeds"] or []:  # one per trial, each a seed as `simulate.seed` is
        _check("simulate.seeds", seed, "simulate.seed")
    if run["seeds"] is not None and len(run["seeds"]) != run["trials"]:
        raise ConfigError(f"field 'simulate.seeds' must hold one seed per trial, got {len(run['seeds'])}")
    # the trials take their seeds through derive_seed, so one it rejects exits 2 here, before any solve
    erm_lab.derive_seed(run["master_seed"], run["seeds"] or [])
    if run["estimator"] == "mean" and _read(cfg, "loss") != "square":
        raise ConfigError("field 'simulate.estimator' must not be 'mean' for a margin loss: it never equals a label")
    axis = _read(cfg, "axis")
    if run["trials"] > 0 and axis not in ("p_over_n", "alpha"):
        raise ConfigError(
            f"simulate needs the sizes to move along the sweep: axis must be 'p_over_n' or 'alpha', got {axis!r}"
        )
    out = args.out or _read(cfg, "out")
    rows, fps, points = sweep_rows(cfg)
    # a degenerate simulate block produces exactly the theory-only sweep file
    columns = _theory_columns(points[0]) + (SIM_EXTRA_COLUMNS if run["trials"] > 0 else [])
    sim_failed = False
    if run["trials"] > 0:
        executor = None
        map_fn = map
        if args.jobs and args.jobs > 1:
            # imported here, so a run without workers does not load the process pool
            from concurrent.futures import ProcessPoolExecutor

            executor = ProcessPoolExecutor(max_workers=args.jobs)
            map_fn = executor.map
        try:
            for row, point, fp in zip(rows, points, fps):
                try:
                    row.update(_simulate_point(point, fp, run, map_fn))
                    if row["failures"] == run["trials"]:
                        sim_failed = True
                except RfensembleError as exc:
                    row["sim_status"] = f"failed: {exc}"
                    sim_failed = True
        finally:
            if executor is not None:
                executor.shutdown()
    _write_csv(out, columns, rows)
    if sim_failed:
        return EXIT_SIMULATION
    if not all(fp.converged for fp in fps):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _lab_activation(name: str):
    """The activation `simulate` featurizes with: the theory's own, except scipy's erf ufunc for "erf".

    The lab applies that ufunc in place and scores sign estimators on it by
    certified signs; its coefficients are within 1e-15 of the theory's.
    """
    return scipy_special().erf if name == "erf" else ACTIVATIONS[name]


def _simulate_point(point: TheoryProblem, fp: FixedPoint, run: dict, map_fn) -> dict:
    """Train the ensembles at the finite sizes of one sweep point and score them against its fixed point.

    The largest finite K of the config is trained, K = 1 when it lists only "inf".
    The test error has a theory only for the estimator of `ensemble_test_error`:
    `mean` for the square loss, `avg_sign` for a margin loss. Another estimator
    gets no `z_test_error`, and `sim_status` says so. Failed trials are counted
    in `sim_status` by error class, most frequent first, before the first one's error.
    """
    n = int(round(run["d"] * point.n_over_d))
    p = int(round(n / point.alpha))
    K = max([k for k in point.K_list if k != "inf"], default=1)
    result = erm_lab.run_experiment(
        point.spec, point.coeffs, n=n, p=p, K=K, rho=point.rho, lam=point.lam,
        activation=_lab_activation(point.activation_name), map_fn=map_fn, **run,
    )
    agg = result.aggregate()
    out = {"trials": run["trials"], "failures": agg["failures"]}
    for name in ("m", "q0", "q1", "test_error", "train_loss", "disagreement"):
        out[f"emp_{name}"], out[f"emp_{name}_se"] = agg[name]["mean"], agg[name]["std_error"]
    failed = [r.error for r in result.records if not r.ok]
    status = []
    if failed:
        # a trial's error reads "<error class>: <message>"
        by_class = Counter(error.split(":", 1)[0] for error in failed).most_common()
        counts = ", ".join(f"{count} {name}" for name, count in by_class)
        status.append(f"{len(failed)} failed trials: {counts}; first: {failed[0]}")
    theory = {"m": fp.params.m, "q0": fp.params.q0, "q1": fp.params.q1}
    loss, estimator = point.spec.loss, run["estimator"]
    if estimator in (None, "mean" if loss == "square" else "avg_sign"):
        theory["test_error"] = ensemble_test_error(fp.params, point.rho, loss, K)[0]
    else:
        status.append(f"no theory for estimator {estimator!r} with loss {loss!r}")
    out["sim_status"] = "; ".join(status) or "ok"
    for name, theory_val in theory.items():
        se = out[f"emp_{name}_se"]
        emp = out[f"emp_{name}"]
        out[f"z_{name}"] = abs(theory_val - emp) / se if se and math.isfinite(emp) else math.nan
    return out


def cmd_confidence_density(cfg: dict, args) -> int:
    problem = parse_problem(cfg)
    if problem.spec.loss == "square":
        raise ConfigError("confidence density is defined for the classification losses")
    if problem.kernel:
        raise ConfigError(
            "confidence density needs a finite p/n: in kernel mode q1 = q0 and the density is a line mass; "
            "drop 'kernel' and set 'alpha' or 'p_over_n'"
        )
    resolution = _read(cfg, "resolution")
    out = args.out or _read(cfg, "out")
    fp = solve_point(problem, solve_options_from(cfg))
    if not fp.converged:
        # no density is written for an unconverged point; say why
        print(
            f"fixed point not converged: status {fp.status}, {fp.iterations} iterations, residual {fp.residual!r}",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    eps = 1.0 / (resolution + 1)
    grid = np.linspace(eps, 1 - eps, resolution)
    dens = confidence_density(fp.params.q0, fp.params.q1, grid)
    with open(out, "w", newline="") as fh:
        fh.write(f"# q0={float(fp.params.q0)!r} q1={float(fp.params.q1)!r} p_over_n={1.0 / problem.alpha!r}\n")
        writer = csv.writer(fh)
        writer.writerow(["phi"] + [repr(float(g)) for g in grid])
        for i, g in enumerate(grid):
            writer.writerow([repr(float(g))] + [repr(float(x)) for x in dens[i]])
    return EXIT_OK


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _check_keys(block, path: str = "") -> None:
    """Reject a key with no row in the table, naming the nearest known key, and any value its row rejects."""
    if not isinstance(block, dict):
        raise ConfigError("a config must be a JSON object")
    known = [key[len(path):] for key in _SCHEMA if key.rpartition(".")[0] == path[:-1]]
    for key in block:
        if key not in known:
            near = difflib.get_close_matches(key, known, n=1)
            hint = f"did you mean {path + near[0]!r}?" if near else f"known: {sorted(known)}"
            raise ConfigError(f"unknown field {path + key!r}; {hint}")
        _read(block, path + key)
        if _SCHEMA[path + key][0] is dict:
            _check_keys(block[key], path + key + ".")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfensemble",
        description="Solve the asymptotic fixed point for ensembles of random-feature GLMs and compare against finite-size training runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("sweep", cmd_sweep),
        ("simulate", cmd_simulate),
        ("confidence-density", cmd_confidence_density),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        if name == "simulate":
            sp.add_argument("--jobs", type=int, default=1)
            sp.add_argument("--seed", type=int, default=None)
        sp.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _check_keys(cfg)
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RfensembleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION if args.command == "simulate" else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
