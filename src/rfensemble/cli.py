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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.special import erf

from .channels import ChannelSpec, training_loss
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
from .spectrum import ActivationCoeffs, activation_coeffs, empirical_spectral_model, mp_spectral_model
from . import erm_lab

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_SIMULATION = 4


def _identity(x):
    return x


# module-level functions only: simulate --jobs pickles them for the workers
ACTIVATIONS = {
    "erf": erf,
    "identity": _identity,
    "tanh": np.tanh,
}

SWEEP_AXES = ("p_over_n", "alpha", "lambda", "delta")

# every key some command reads; docs/config_schema.md has a table row for each
_CONFIG_KEYS = frozenset(
    "loss teacher activation rho lambda n_over_d K kernel alpha p_over_n spectrum spectrum_seed spectrum_p "
    "damping tol max_iters order_1d order_2d axis grid out resolution simulate".split()
)
_SIMULATE_KEYS = frozenset("trials d seed test_samples estimator seeds".split())


def _require(cfg: dict, key: str, path: str = ""):
    if key not in cfg:
        raise ConfigError(f"missing field {path + key!r} in config")
    return cfg[key]


def _number(value, key: str, kind=float):
    """`kind(value)` for the config field `key`; a value that does not convert is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {key!r} must be a number, got {value!r}") from exc


def _positive(value, key: str, ratio: str) -> float:
    """The number `value` of the config field `key`, which must be a positive `ratio`."""
    number = _number(value, key)
    if not number > 0:
        raise ConfigError(f"field {key!r} must be a positive {ratio}, got {value!r}")
    return number


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
    spectrum_kind: str = "closed_form_mp"
    spectrum_seed: int = 0
    spectrum_p: int = 2000

    def at(self, axis: str, value) -> "TheoryProblem":
        """The point at `value` on a sweep axis; the only place an axis is read."""
        if axis in ("p_over_n", "alpha"):
            if self.kernel:
                raise ConfigError(
                    f"axis {axis!r} has no meaning in kernel mode (p/n is infinite); sweep 'delta' or 'lambda'"
                )
            alpha = 1.0 / _positive(value, "grid", "p/n") if axis == "p_over_n" else _number(value, "grid")
            return replace(self, alpha=alpha)
        if axis == "delta":
            if not self.kernel:
                raise ConfigError("axis 'delta' requires kernel mode")
            return replace(self, n_over_d=_positive(value, "grid", "n/d"))
        if axis == "lambda":
            return replace(self, lam=_number(value, "grid"))
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
        if self.spectrum_kind == "closed_form_mp":
            spectrum = mp_spectral_model(self.alpha, gamma, self.coeffs)
        elif self.spectrum_kind == "empirical":
            p = self.spectrum_p
            spectrum = empirical_spectral_model(self.spectrum_seed, p, max(int(round(p * gamma)), 1), self.coeffs)
        else:
            raise ConfigError(f"unknown spectrum kind {self.spectrum_kind!r}")
        return ModelConfig(
            alpha=self.alpha, gamma=gamma, rho=self.rho, lam=self.lam,
            K=1, spec=self.spec, spectrum=spectrum, coeffs=self.coeffs,
        )


def parse_problem(cfg: dict) -> TheoryProblem:
    loss = _require(cfg, "loss")
    teacher = cfg.get("teacher", "linear" if loss == "square" else "sign")
    activation_name = cfg.get("activation", "erf")
    if activation_name not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {activation_name!r}; known: {sorted(ACTIVATIONS)}")
    k_raw = cfg.get("K", [1])
    if not isinstance(k_raw, list):
        k_raw = [k_raw]
    K_list = []
    for k in k_raw:
        if k == "inf":
            K_list.append("inf")
        elif isinstance(k, int) and not isinstance(k, bool) and k >= 1:
            K_list.append(k)
        else:
            raise ConfigError(f"K entries must be positive integers or 'inf', got {k!r}")
    if "alpha" in cfg:
        alpha = _number(cfg["alpha"], "alpha")
    elif "p_over_n" in cfg:
        alpha = 1.0 / _positive(cfg["p_over_n"], "p_over_n", "p/n")
    else:
        alpha = None
    kernel = cfg.get("kernel", False)
    if not isinstance(kernel, bool):
        raise ConfigError(f"field 'kernel' must be true or false, got {kernel!r}")
    return TheoryProblem(
        spec=ChannelSpec(loss=loss, teacher=teacher),
        activation_name=activation_name,
        coeffs=activation_coeffs(ACTIVATIONS[activation_name], gauss_hermite_rule(201)),
        rho=_number(_require(cfg, "rho"), "rho"),
        lam=_number(_require(cfg, "lambda"), "lambda"),
        n_over_d=_positive(cfg.get("n_over_d", 2.0), "n_over_d", "n/d"),
        alpha=alpha,
        K_list=tuple(K_list),
        kernel=kernel,
        spectrum_kind=cfg.get("spectrum", "closed_form_mp"),
        spectrum_seed=_number(cfg.get("spectrum_seed", 0), "spectrum_seed", int),
        spectrum_p=_number(cfg.get("spectrum_p", 2000), "spectrum_p", int),
    )


def solve_options_from(cfg: dict) -> SolveOptions:
    return SolveOptions(
        damping=_number(cfg.get("damping", 0.5), "damping"),
        tol=_number(cfg.get("tol", 1e-9), "tol"),
        max_iters=_number(cfg.get("max_iters", 50000), "max_iters", int),
        order_1d=_number(cfg.get("order_1d", 101), "order_1d", int),
        order_2d=_number(cfg.get("order_2d", 61), "order_2d", int),
    )


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
        payload["train_loss"] = training_loss(fp.params, problem.rho, problem.spec, opts.rules())
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
    axis = _require(cfg, "axis")
    grid = _require(cfg, "grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("grid must be a nonempty list")
    diffs = np.diff([_number(value, "grid") for value in grid])
    if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("grid must be strictly monotone")
    points = [problem.at(axis, value) for value in grid]
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
    rows, fps, points = sweep_rows(cfg)
    out = args.out or _require(cfg, "out")
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
    sim = _require(cfg, "simulate")
    trials = _number(_require(sim, "trials", "simulate."), "simulate.trials", int)
    axis = _require(cfg, "axis")
    if trials > 0 and axis not in ("p_over_n", "alpha"):
        raise ConfigError(
            f"simulate needs the sizes to move along the sweep: axis must be 'p_over_n' or 'alpha', got {axis!r}"
        )
    rows, fps, points = sweep_rows(cfg)
    # a degenerate simulate block produces exactly the theory-only sweep file
    columns = _theory_columns(points[0]) + (SIM_EXTRA_COLUMNS if trials > 0 else [])
    out = args.out or _require(cfg, "out")
    sim_failed = False
    if trials > 0:
        executor = None
        map_fn = map
        if args.jobs and args.jobs > 1:
            executor = ProcessPoolExecutor(max_workers=args.jobs)
            map_fn = executor.map
        try:
            for row, point in zip(rows, points):
                try:
                    row.update(_simulate_point(point, sim, row, args.seed, map_fn))
                    if row["failures"] == trials:
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


def _simulate_point(point: TheoryProblem, sim: dict, row: dict, seed_flag, map_fn) -> dict:
    """Train the ensembles at the finite sizes of one sweep row and score them against its theory."""
    d = _number(_require(sim, "d", "simulate."), "simulate.d", int)
    n = int(round(d * point.n_over_d))
    p = int(round(n / point.alpha))
    trials = int(sim["trials"])
    master_seed = _number(seed_flag if seed_flag is not None else sim.get("seed", 0), "simulate.seed", int)
    K = max([k for k in point.K_list if k != "inf"], default=1)
    result = erm_lab.run_experiment(
        point.spec, point.coeffs, n=n, p=p, d=d, K=K,
        rho=point.rho, lam=point.lam, trials=trials, master_seed=master_seed,
        estimator=sim.get("estimator"), activation=ACTIVATIONS[point.activation_name],
        test_samples=_number(sim.get("test_samples", erm_lab.DEFAULT_TEST_SAMPLES), "simulate.test_samples", int),
        seeds=sim.get("seeds"),
        map_fn=map_fn,
    )
    agg = result.aggregate()
    out = {"trials": trials, "failures": agg["failures"]}
    for name in ("m", "q0", "q1", "test_error", "train_loss", "disagreement"):
        out[f"emp_{name}"], out[f"emp_{name}_se"] = agg[name]["mean"], agg[name]["std_error"]
    failed = [r for r in result.records if not r.ok]
    out["sim_status"] = f"{len(failed)} failed trials; first: {failed[0].error}" if failed else "ok"
    theory_eps = row.get(f"eps_g_K{K}", math.nan)
    for name, theory_val in (("m", row["m"]), ("q0", row["q0"]), ("q1", row["q1"]), ("test_error", theory_eps)):
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
    fp = solve_point(problem, solve_options_from(cfg))
    if not fp.converged:
        # no density is written for an unconverged point; say why
        print(
            f"fixed point not converged: status {fp.status}, {fp.iterations} iterations, residual {fp.residual!r}",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    resolution = _number(cfg.get("resolution", 64), "resolution", int)
    eps = 1.0 / (resolution + 1)
    grid = np.linspace(eps, 1 - eps, resolution)
    dens = confidence_density(fp.params.q0, fp.params.q1, grid)
    out = args.out or _require(cfg, "out")
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


def _check_keys(cfg) -> None:
    """Reject a config key that no command reads, naming the nearest known key."""
    if not isinstance(cfg, dict):
        raise ConfigError("a config must be a JSON object")
    sim = cfg.get("simulate", {})
    if not isinstance(sim, dict):
        raise ConfigError(f"field 'simulate' must be a JSON object, got {sim!r}")
    for path, block, known in (("", cfg, _CONFIG_KEYS), ("simulate.", sim, _SIMULATE_KEYS)):
        for key in block:
            if key not in known:
                near = difflib.get_close_matches(key, known, n=1)
                hint = f"did you mean {path + near[0]!r}?" if near else f"known: {sorted(known)}"
                raise ConfigError(f"unknown field {path + key!r}; {hint}")


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
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--damping", type=float, default=None)
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
        # the flags override the config's solver block for every command
        for key in ("tol", "damping"):
            if getattr(args, key) is not None:
                cfg[key] = getattr(args, key)
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RfensembleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION if args.command == "simulate" else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
