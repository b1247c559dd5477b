"""One workload in one fresh process: set-up, timed rounds, checks.

Started by run.py; prints one JSON object as its last line of output. Modes:

  probe  stop at the first operation and report only the set-up time,
         with the host's slowdown measured right after it;
  run    repeat whole rounds of the workload's fixed work, untraced, until
         --seconds have passed since the first operation (at least two
         rounds), with the host's speed sampled all along (SpeedProbe),
         then check the outputs;
  trace  one untraced round, then one round with spans on every layer.

An operation is one fixed-point solve (theory workloads) or one training
trial (erm-lab). A round's wall time runs from its first operation to its
end, so set-up is never part of it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()


class SetupDone(Exception):
    """Raised at the first operation of a set-up probe."""


class SpeedProbe:
    """Samples the host's speed while the rounds run.

    Every PERIOD_S of wall time a one-shot SIGALRM timer runs a fixed
    reference computation of the benchmark's own (an interpreter loop and
    vectorised transcendentals, about half the time each) and records how
    long it took. Small matrix products were tried as a third part and left
    out: with them the scaled round times of theory-ridge spread more.
    The host's speed drifts by 30 % and more within a run, on a scale of
    seconds; a round's time divided by the mean reference time of the samples
    taken during that round, times REF_S, is the round's time at the
    reference speed, which repeats from run to run where the raw time does
    not. The package's code is not touched, so a change to it moves the
    scaled time as it would move the raw time at a fixed host speed.
    """

    PERIOD_S = 0.25
    REF_S = 0.010  # the reference computation's usual time on the 2-vCPU host the figures come from

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20220131)
        self.np = np
        self.vec = rng.standard_normal(2048)
        self.out = np.empty_like(self.vec)
        self.samples = []  # (start, seconds)

    def reference(self):
        s = 0.0
        for i in range(60_000):
            s += i * 0.5
        for _ in range(750):
            self.np.exp(self.vec, out=self.out)
            self.out.sum()
        return s

    def _fire(self, signum, frame):
        start = time.monotonic()
        self.reference()
        self.samples.append((start, time.monotonic() - start))
        # re-armed only now, so samples never overlap
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown_now(self) -> float:
        """The host's slowdown against REF_S, from five back-to-back samples."""
        times = []
        for _ in range(5):
            start = time.monotonic()
            self.reference()
            times.append(time.monotonic() - start)
        return statistics.median(times) / self.REF_S

    def between(self, t0: float, t1: float) -> list:
        return [dt for start, dt in self.samples if t0 <= start < t1]


class OpLog:
    """Counts operations and timestamps the first one of the run and of each round."""

    def __init__(self, probe: bool, on_first=None):
        self.probe = probe
        self.on_first = on_first
        self.first = None
        self.round_start = None
        self.attempted = 0
        self.failed = 0

    def begin(self):
        now = time.monotonic()
        if self.first is None:
            self.first = now
            if self.on_first is not None:
                self.on_first()
        if self.round_start is None:
            self.round_start = now
        if self.probe:
            raise SetupDone

    def end(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def map(self, fn, jobs):
        """Built-in map over trials, with each trial counted as an operation."""
        for job in jobs:
            self.begin()
            record = fn(job)
            self.end(record.ok)
            yield record


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def close(self, name: str, got: float, want: float, rel: float, abs_: float = 0.0):
        err = abs(got - want)
        self.add(name, err <= rel * abs(want) + abs_, f"got {got!r} want {want!r} |diff| {err:.3e}")


def read_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


# ---------------------------------------------------------------------------
# Theory workloads: in-process `rfensemble sweep`
# ---------------------------------------------------------------------------


class TheoryWorkload:
    configs: tuple = ()

    def __init__(self, seed: int, out_dir: Path):
        from rfensemble import cli, solver

        self.seed = seed
        self.cli = cli
        self.out_dir = out_dir
        self.outputs = {}  # config label -> CSV bytes of every round
        self.codes = {}
        # count each solve as an operation; the solver is looked up at call
        # time so that tracing wrappers installed later are seen
        for attr in ("solve_fixed_point", "solve_kernel_limit"):

            def hooked(*args, _attr=attr, **kwargs):
                self.log.begin()
                fp = getattr(solver, _attr)(*args, **kwargs)
                self.log.end(fp.status == "converged")
                return fp

            setattr(cli, attr, hooked)

    def run_round(self, r: int):
        for label, config in self.configs:
            out = self.out_dir / f"{self.name}-{label}.csv"
            code = self.cli.main(["sweep", "--config", str(config), "--out", str(out)])
            data = out.read_bytes()
            self.outputs.setdefault(label, []).append(data)
            self.codes.setdefault(label, []).append(code)
            self.after_sweep(label, read_rows(data))

    def after_sweep(self, label, rows):
        pass

    def check_common(self, checks: Checks):
        for label, outs in self.outputs.items():
            checks.add(f"{label}: every round wrote the same CSV", len(set(outs)) == 1)
            rows = read_rows(outs[-1])
            all_converged = all(row["status"] == "converged" for row in rows)
            want = 0 if all_converged else 3
            checks.add(f"{label}: exit code matches solve statuses", set(self.codes[label]) == {want},
                       f"codes {sorted(set(self.codes[label]))}, expected {want}")


class TheoryRidge(TheoryWorkload):
    name = "theory-ridge"
    configs = (
        ("ridge_double_descent", ROOT / "configs" / "ridge_double_descent.json"),
        ("kernel_limit", ROOT / "configs" / "kernel_limit.json"),
    )

    def check(self, checks: Checks):
        import oracles

        self.check_common(checks)
        cfg = json.loads(self.configs[0][1].read_text())
        rho, lam, n_over_d, tol = cfg["rho"], cfg["lambda"], cfg["n_over_d"], cfg["tol"]
        rows = read_rows(self.outputs["ridge_double_descent"][-1])
        for row in rows:
            pn = float(row["value"])
            f = {k: float(v) for k, v in row.items() if k not in ("axis", "status")}
            alpha = 1.0 / pn
            gamma = alpha / n_over_d
            tag = f"ridge p/n={row['value']}"
            # prior: (m, q0, q1, v) are the prior map of the stored conjugates
            ref = oracles.ridge_prior(f["m_hat"], f["q0_hat"], f["q1_hat"], f["v_hat"], lam, gamma)
            for name, want in zip(("m", "q0", "q1", "v"), ref):
                checks.close(f"{tag}: {name} = MP prior(conjugates)", f[name], want, rel=1e-12)
            # channel: conjugates were evaluated at the previous iterate,
            # which lies within tol of the stored parameters in each component
            vals, sens = oracles.square_channel(f["m"], f["q0"], f["q1"], f["v"], alpha, gamma, rho)
            for name, want, s in zip(("m_hat", "q0_hat", "q1_hat", "v_hat"), vals, sens):
                checks.close(f"{tag}: {name} = square channel(m, q0, q1, v)", f[name], want,
                             rel=1e-13, abs_=2.0 * tol * s)
            eps_bar = rho + f["q1"] - 2.0 * f["m"]
            checks.close(f"{tag}: eps_bar = rho + q1 - 2m", f["eps_bar"], eps_bar, rel=1e-12, abs_=1e-15)
            for K in (1, 2, 4):
                checks.close(f"{tag}: eps_g_K{K} = eps_bar + (q0 - q1)/K", f[f"eps_g_K{K}"],
                             eps_bar + (f["q0"] - f["q1"]) / K, rel=1e-12, abs_=1e-15)
            checks.close(f"{tag}: eps_g_Kinf = eps_bar", f["eps_g_Kinf"], eps_bar, rel=1e-12, abs_=1e-15)
            order = [f["eps_g_K1"], f["eps_g_K2"], f["eps_g_K4"], f["eps_g_Kinf"]]
            checks.add(f"{tag}: eps_g_K1 >= K2 >= K4 >= Kinf", all(a >= b for a, b in zip(order, order[1:])),
                       str(order))
        peak = max(rows, key=lambda row: float(row["eps_g_K1"]))
        checks.add("ridge: largest eps_g_K1 at p/n = 1", float(peak["value"]) == 1.0, f"peak at {peak['value']}")

        kcfg = json.loads(self.configs[1][1].read_text())
        for row in read_rows(self.outputs["kernel_limit"][-1]):
            delta = float(row["value"])
            v, m, q = oracles.kernel_ridge(kcfg["lambda"], delta, kcfg["rho"])
            tag = f"kernel delta={row['value']} ({row['status']})"
            for name, want in (("v", v), ("m", m), ("q0", q), ("q1", q)):
                checks.close(f"{tag}: {name} = closed form", float(row[name]), want, rel=1e-12)
            checks.close(f"{tag}: q0 = q1", float(row["q0"]), float(row["q1"]), rel=1e-12)


class TheoryMargin(TheoryWorkload):
    name = "theory-margin"
    configs = (
        ("logistic", BENCH_DIR / "configs" / "margin_logistic.json"),
        ("hinge", BENCH_DIR / "configs" / "margin_hinge.json"),
    )
    MC_K = 3
    MC_SAMPLES = 500_000

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.mc = {}

    def after_sweep(self, label, rows):
        from rfensemble import observables

        for i, row in enumerate(rows):
            cov = observables.EnsembleCovariance(
                rho=1.0, m=float(row["m"]), q0=float(row["q0"]), q1=float(row["q1"]), K=self.MC_K
            )
            seed = (self.seed * 16 + i) % 2**63
            self.mc[(label, i)] = {
                est: observables.generic_gen_error(cov, est, "zero_one", self.MC_SAMPLES, seed)
                for est in ("avg_sign", "majority")
            }

    def check(self, checks: Checks):
        import oracles

        self.check_common(checks)
        for label, config in self.configs:
            cfg = json.loads(config.read_text())
            rho, n_over_d = cfg["rho"], cfg["n_over_d"]
            # Gauss-Hermite orders 101/61 leave 1.5e-3 to 2.3e-3 relative error
            # in the logistic v_hat at lambda = 1e-4 (v ~ 500) and below 1e-4 in
            # q0_hat and m_hat (orders 201/301 close in on the quad values); the
            # kinked hinge panels agree to ~1e-10, near the solver tolerance
            if cfg["loss"] == "logistic":
                rels = (1e-2, 1e-3, 1e-3)
            else:
                rels = (1e-7, 1e-7, 1e-7)
            for i, row in enumerate(read_rows(self.outputs[label][-1])):
                f = {k: float(row[k]) for k in ("value", "m", "q0", "q1", "v", "m_hat", "q0_hat", "v_hat")}
                alpha = 1.0 / f["value"]
                gamma = alpha / n_over_d
                tag = f"{label} p/n={row['value']}"
                ref = oracles.margin_conjugates(cfg["loss"], f["m"], f["q0"], f["v"], rho, alpha, gamma)
                for name, want, rel in zip(("v_hat", "q0_hat", "m_hat"), ref, rels):
                    checks.close(f"{tag}: {name} = quad conjugate", f[name], want, rel=rel)
                m, q0, q1 = f["m"], f["q0"], f["q1"]
                checks.add(f"{tag}: |q1| <= q0", abs(q1) <= q0, f"q0 {q0!r} q1 {q1!r}")
                checks.add(f"{tag}: m^2 < rho q0", m * m < rho * q0, f"m {m!r} q0 {q0!r}")
                exact = oracles.score_average_error(m, q0, q1, rho, self.MC_K)
                checks.close(f"{tag}: eps_g_K{self.MC_K} = arccos form", float(row[f"eps_g_K{self.MC_K}"]),
                             exact, rel=1e-12)
                (avg, avg_se), (maj, maj_se) = self.mc[(label, i)]["avg_sign"], self.mc[(label, i)]["majority"]
                checks.add(f"{tag}: MC avg-sign within 4 SE of closed form", abs(avg - exact) <= 4 * avg_se,
                           f"MC {avg:.6f} +/- {avg_se:.1e}, closed form {exact:.6f}")
                for col in ("eps_g_K1", f"eps_g_K{self.MC_K}", "eps_g_Kinf", "eps_bar", "disagreement"):
                    val = float(row[col])
                    checks.add(f"{tag}: {col} in (0, 1/2)", 0.0 < val < 0.5, repr(val))
                for name, val in (("MC avg-sign", avg), ("MC majority", maj)):
                    checks.add(f"{tag}: {name} in (0, 1/2)", 0.0 < val < 0.5, repr(val))


# ---------------------------------------------------------------------------
# ERM lab
# ---------------------------------------------------------------------------


class ErmLab:
    name = "erm-lab"
    # (tag, loss, n, p, d, K, lambda, trials per round); n/d = 2 throughout
    CONFIGS = (
        ("ridge-p400", "square", 400, 400, 200, 3, 1e-2, 6),
        ("ridge-p800", "square", 400, 800, 200, 3, 1e-2, 4),
        ("logistic-p200", "logistic", 200, 200, 100, 2, 1e-4, 12),
    )
    TEST_SAMPLES = 10_000
    Z_MAX = 6.0

    def __init__(self, seed: int, out_dir: Path):
        from scipy.special import erf

        from rfensemble import erm_lab, quadrature, spectrum

        self.seed = seed
        self.erm_lab = erm_lab
        self.erf = erf
        self.coeffs = spectrum.activation_coeffs(erf, quadrature.gauss_hermite_rule(201))
        self.records = {cfg[0]: [] for cfg in self.CONFIGS}

    @staticmethod
    def spec(loss: str):
        from rfensemble import ChannelSpec

        return ChannelSpec(loss=loss, teacher="linear" if loss == "square" else "sign")

    def run_round(self, r: int):
        for idx, (tag, loss, n, p, d, K, lam, trials) in enumerate(self.CONFIGS):
            seeds = [(self.seed, r, idx, t) for t in range(trials)]
            result = self.erm_lab.run_experiment(
                self.spec(loss), self.coeffs, n=n, p=p, d=d, K=K, rho=1.0, lam=lam, trials=trials, seeds=seeds,
                activation=self.erf, test_samples=self.TEST_SAMPLES, map_fn=self.log.map,
            )
            self.records[tag].extend(result.records)

    def check(self, checks: Checks):
        import numpy as np

        import oracles
        from rfensemble import ModelConfig, SolveOptions, mp_spectral_model, solve_fixed_point

        for tag, loss, n, p, d, K, lam, _ in self.CONFIGS:
            records = self.records[tag]
            bad = [r.error for r in records if not r.ok]
            checks.add(f"{tag}: every trial ok", not bad, "; ".join(bad[:3]))
            if bad:
                continue
            gmax = max(r.grad_norm_max for r in records)
            checks.add(f"{tag}: grad_norm_max <= 1e-8 sqrt(p)", gmax <= 1e-8 * math.sqrt(p), f"{gmax:.3e}")
            alpha, gamma = n / p, d / p
            model = ModelConfig(alpha=alpha, gamma=gamma, rho=1.0, lam=lam, K=K, spec=self.spec(loss),
                                spectrum=mp_spectral_model(alpha, gamma, self.coeffs), coeffs=self.coeffs)
            fp = solve_fixed_point(model, SolveOptions(tol=1e-7, max_iters=20000))
            checks.add(f"{tag}: theory fixed point converged", fp.converged, fp.status)
            m, q0, q1 = fp.params.m, fp.params.q0, fp.params.q1
            if loss == "square":
                eps = oracles.mse_error(m, q0, q1, 1.0, K)
            else:
                eps = oracles.score_average_error(m, q0, q1, 1.0, K)
            for name, want in (("m", m), ("q0", q0), ("q1", q1), ("test_error", eps)):
                vals = np.array([getattr(r, name) for r in records])
                se = vals.std(ddof=1) / math.sqrt(len(vals))
                z = abs(vals.mean() - want) / se
                checks.add(f"{tag}: empirical {name} within {self.Z_MAX:g} SE of theory", z <= self.Z_MAX,
                           f"{vals.mean():.5g} +/- {se:.2g} vs {want:.5g} (z={z:.2f}, {len(vals)} trials)")


WORKLOADS = {cls.name: cls for cls in (TheoryRidge, TheoryMargin, ErmLab)}


# ---------------------------------------------------------------------------
# Traced layers
# ---------------------------------------------------------------------------


def _count_points(counts, name, args, kwargs, result):
    omega = kwargs["omega"] if "omega" in kwargs else args[1]
    counts[name + ".points"] += getattr(omega, "size", 1)


def _count_solve(counts, name, args, kwargs, fp):
    counts["solver.solves"] += 1
    counts["solver.iterations"] += fp.iterations
    counts["solver.projections"] += fp.projections
    if not fp.converged:
        counts["solver.iterations_unconverged"] += fp.iterations


def _count_samples(counts, name, args, kwargs, result):
    counts[name + ".samples"] += kwargs["samples"] if "samples" in kwargs else args[3]


def _count_entries(counts, name, args, kwargs, blocks):
    counts[name + ".entries"] += sum(b.size for b in blocks)


def _count_newton(counts, name, args, kwargs, result):
    counts[name + ".newton_iters"] += float(sum(result[2]))


def _channel_name(args, kwargs):
    spec = kwargs["spec"] if "spec" in kwargs else args[4]
    return "channels.channel_update." + spec.loss


def install_tracer(tracer):
    from rfensemble import channels, cli, erm_lab, observables, priors, quadrature, solver, spectrum

    for module, attr, name, count, op in (
        (quadrature, "gauss_hermite_rule", "quadrature.gauss_hermite_rule", None, False),
        (quadrature, "expect_2d_correlated", "quadrature.expect_2d_correlated", None, False),
        (spectrum, "activation_coeffs", "spectrum.activation_coeffs", None, False),
        (spectrum, "spectral_integral", "spectrum.spectral_integral", None, False),
        (channels, "channel_update", _channel_name, None, False),
        (channels, "prox_logistic", "channels.prox_logistic", _count_points, False),
        (channels, "prox_hinge", "channels.prox_hinge", _count_points, False),
        (channels, "channel_update_hinge_closed_form", "channels.channel_update_hinge_closed_form", None, False),
        (priors, "prior_update_spectral", "priors.prior_update_spectral", None, False),
        (priors, "kernel_prior_update", "priors.kernel_prior_update", None, False),
        (priors, "sample_feature_ensemble", "priors.sample_feature_ensemble", None, False),
        (solver, "solve_fixed_point", "solver", _count_solve, True),
        (solver, "solve_kernel_limit", "solver", _count_solve, True),
        (observables, "generic_gen_error", "observables.generic_gen_error", _count_samples, False),
        (erm_lab, "generate_dataset", "erm_lab.generate_dataset", None, False),
        (erm_lab, "featurize", "erm_lab.featurize", _count_entries, False),
        (erm_lab, "train_ridge", "erm_lab.train_ridge", None, False),
        (erm_lab, "train_logistic", "erm_lab.train_logistic", _count_newton, False),
        (erm_lab, "empirical_overlaps", "erm_lab.empirical_overlaps", None, False),
        (erm_lab, "run_trial", "erm_lab.run_trial", None, True),
        (cli, "main", "cli.main", None, False),
        (cli, "sweep_rows", "cli.sweep_rows", None, False),
        (cli, "observable_row", "cli.observable_row", None, False),
    ):
        tracer.install(module, attr, name, count, op)


# Per-layer metrics: (metric, source). A source "calls"/"self_s"/"mean_ms"
# reads the span of the metric's prefix; "count" reads a counter of that name.
LAYER_METRICS = (
    [(f"quadrature.gauss_hermite_rule.{k}", k) for k in ("calls", "self_s")]
    + [(f"quadrature.expect_2d_correlated.{k}", k) for k in ("calls", "self_s")]
    + [(f"spectrum.activation_coeffs.{k}", k) for k in ("calls", "self_s")]
    + [(f"spectrum.spectral_integral.{k}", k) for k in ("calls", "self_s")]
    + [(f"channels.channel_update.square.{k}", k) for k in ("calls", "self_s")]
    + [(f"channels.channel_update.logistic.{k}", k) for k in ("calls", "self_s", "mean_ms")]
    + [(f"channels.channel_update.hinge.{k}", k) for k in ("calls", "self_s", "mean_ms")]
    + [("channels.prox_logistic.calls", "calls"), ("channels.prox_logistic.points", "count"),
       ("channels.prox_logistic.self_s", "self_s")]
    + [("channels.prox_hinge.calls", "calls"), ("channels.prox_hinge.points", "count"),
       ("channels.prox_hinge.self_s", "self_s")]
    + [("channels.channel_update_hinge_closed_form.calls", "calls")]
    + [(f"priors.prior_update_spectral.{k}", k) for k in ("calls", "self_s")]
    + [(f"priors.kernel_prior_update.{k}", k) for k in ("calls", "self_s")]
    + [("priors.sample_feature_ensemble.self_s", "self_s")]
    + [(f"solver.{k}", "count") for k in ("solves", "iterations", "iterations_unconverged", "projections")]
    + [("solver.useful_iteration_ratio", "ratio"), ("solver.self_s", "self_s")]
    + [("observables.generic_gen_error.calls", "calls"), ("observables.generic_gen_error.samples", "count"),
       ("observables.generic_gen_error.self_s", "self_s")]
    + [("erm_lab.featurize.calls", "calls"), ("erm_lab.featurize.entries", "count"),
       ("erm_lab.featurize.self_s", "self_s")]
    + [(f"erm_lab.train_ridge.{k}", k) for k in ("calls", "self_s")]
    + [("erm_lab.train_logistic.calls", "calls"), ("erm_lab.train_logistic.newton_iters", "count"),
       ("erm_lab.train_logistic.self_s", "self_s")]
    + [(f"erm_lab.{k}.self_s", "self_s") for k in ("generate_dataset", "empirical_overlaps", "run_trial")]
    + [("cli.main.self_s", "self_s"), ("cli.sweep_rows.self_s", "self_s"),
       ("cli.observable_row.calls", "calls"), ("cli.observable_row.self_s", "self_s")]
)

# Spans that must record calls on each workload: the layers the workload is
# built to exercise. channel_update_hinge_closed_form is left out: the solver
# does not route hinge through it yet, so it reads 0 on theory-margin.
REQUIRED_SPANS = {
    "theory-ridge": ("quadrature.gauss_hermite_rule", "spectrum.activation_coeffs", "spectrum.spectral_integral",
                     "channels.channel_update.square", "priors.prior_update_spectral",
                     "priors.kernel_prior_update", "solver", "cli.main", "cli.sweep_rows",
                     "cli.observable_row"),
    "theory-margin": ("quadrature.expect_2d_correlated", "channels.channel_update.logistic",
                      "channels.channel_update.hinge", "channels.prox_logistic", "channels.prox_hinge",
                      "solver", "observables.generic_gen_error", "cli.main", "cli.sweep_rows",
                      "cli.observable_row"),
    "erm-lab": ("priors.sample_feature_ensemble", "erm_lab.generate_dataset", "erm_lab.featurize",
                "erm_lab.train_ridge", "erm_lab.train_logistic", "erm_lab.empirical_overlaps",
                "erm_lab.run_trial"),
}


def layer_metrics(tracer) -> dict:
    totals = {}
    for name, start, end, _, _, _ in tracer.spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    out = {}
    for metric, source in LAYER_METRICS:
        span = metric.rsplit(".", 1)[0]
        if source == "calls":
            value = tracer.calls.get(span, 0)
        elif source == "self_s":
            value = tracer.self_s.get(span, 0.0)
        elif source == "mean_ms":
            calls = tracer.calls.get(span, 0)
            value = 1e3 * totals.get(span, 0.0) / calls if calls else 0.0
        elif source == "count":
            value = tracer.counts.get(metric, 0)
        else:  # ratio
            its = tracer.counts.get("solver.iterations", 0)
            value = 1.0 - tracer.counts.get("solver.iterations_unconverged", 0) / its if its else 0.0
        out[metric] = value
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "run", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import rfensemble

    if Path(rfensemble.__file__).resolve().parent != (src / "rfensemble").resolve():
        print(f"rfensemble imported from {rfensemble.__file__}, not from {src}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    speed = SpeedProbe() if args.mode == "run" else None
    log = OpLog(probe=args.mode == "probe", on_first=speed.start if speed else None)
    workload = WORKLOADS[args.workload](args.seed, out_dir / "csv")
    workload.log = log
    (out_dir / "csv").mkdir(parents=True, exist_ok=True)

    result = {}
    rounds = []

    def timed_round(r):
        log.round_start = None
        ok_before = log.attempted - log.failed
        workload.run_round(r)
        end = time.monotonic()
        row = {"wall_s": end - log.round_start, "ok_ops": log.attempted - log.failed - ok_before}
        if speed is not None:
            # wall_s becomes the round's own work (probe samples taken out)
            # at the reference speed; the raw figures are kept beside it
            samples = speed.between(log.round_start, end)
            work = row["wall_s"] - sum(samples)
            factor = statistics.fmean(samples) / speed.REF_S
            row.update(raw_wall_s=row["wall_s"], work_s=work, speed_samples=len(samples),
                       slowdown=factor, wall_s=work / factor)
        rounds.append(row)
        return end

    try:
        end = timed_round(0)
    except SetupDone:
        setup = log.first - args.spawned_at
        print(json.dumps({"raw_setup_s": setup, "slowdown": SpeedProbe().slowdown_now()}))
        return 0
    result["raw_setup_s"] = log.first - args.spawned_at

    if args.mode == "run":
        r = 1
        while r < 2 or end - log.first < args.seconds:
            end = timed_round(r)
            r += 1
        speed.stop()
    else:
        from spans import Tracer

        tracer = Tracer()
        install_tracer(tracer)
        timed_round(1)
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer)
        result["layers"]["trace.spans"] = len(tracer.spans)
        result["layers"]["trace.overhead_s"] = rounds[1]["wall_s"] - rounds[0]["wall_s"]
        result["missing_layers"] = [s for s in REQUIRED_SPANS[args.workload] if tracer.calls.get(s, 0) == 0]
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rounds"] = rounds
    result["attempted"] = log.attempted
    result["failed"] = log.failed

    checks = Checks()
    workload.check(checks)
    result["checks"] = checks.items
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
