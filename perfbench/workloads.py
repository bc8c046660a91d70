"""The benchmark's four workloads.

Building a workload object is its set-up.  After that it runs identical
rounds: each round is one call of the package's public entry points at a
fixed size, with the workload seed, so every round computes the same result.
Each workload also runs a control row after the timed phase and checks its
outputs against reference.json.  run_round takes `between`, the timing loop's
speed probe; only bounds_grid, whose round lasts seconds, calls it, between
stretches of its round, and reports the stretches' times in Round.segments.

  random_tail   reproduce("fig2", workers=1): random design, p = 2, uniform
                noise, N up to 53653.  The design is redrawn every trial, so
                it is the single-process baseline of the trial path.
  fixed_nsweep  reproduce("fig6", workers=2): Toeplitz pilot design, p = 8,
                FIR noise, N in {3000, 4500, 6000, 7500}.  The design is
                factored once per row; the noise draw and the solve dominate,
                and it is the only workload that starts process pools.
  bounds_grid   every bound family plus eps_of_n on seeded parameter sets,
                with no Monte-Carlo; the inner optimizers dominate.
  diagnostics   run_event_diagnostics at the fig3 setting (p = 4, Gaussian
                noise R = 10, N in {1987, 665}): small N, an eigensolve and
                quadratic-sum reductions on every trial.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    BOUND_RTOL,
    FIXED_EPS_RTOL,
    check_bound_values,
    check_close,
    check_control,
    check_equal,
    check_overlap,
)
from lsqbounds import bounds, presets
from lsqbounds.io import read_result_csv
from lsqbounds.models import Gaussian, IidBoundedColumns, implied_problem_params
from lsqbounds.montecarlo import ExperimentSpec, run_event_diagnostics, run_tail
from lsqbounds.params import Accuracy, ProblemParams

DEFAULT_SEED = presets.DEFAULT_SEED
FAMILIES = ("main", "main_tau", "bounded", "mds_subgaussian", "mds_bounded", "fixed_mds")
FLOOR_REPS = 25

# Raw draws of one trial, by law, without the scaling the package applies.
LAWS = {
    "uniform": lambda rng, shape: rng.uniform(-1.0, 1.0, shape),
    "normal": lambda rng, shape: rng.standard_normal(shape),
    "rademacher": lambda rng, shape: rng.integers(0, 2, size=shape),
}


@dataclass
class Round:
    """One round: its wall time and what it computed."""

    wall_s: float
    ops: int  # trials for Monte-Carlo workloads, bound calls for bounds_grid
    failed: int  # rank-deficient trials, or bound calls that raised
    observed: tuple  # everything the round computed; rounds must agree exactly
    draws: list = field(default_factory=list)  # per row: the (law, shape) draws of one trial
    latencies: dict = field(default_factory=dict)  # bounds_grid: seconds per call, by family
    segments: list = field(default_factory=list)  # wall time of each stretch between speed probes

    def __post_init__(self) -> None:
        if not self.segments:
            self.segments = [self.wall_s]


def rng_floor_s(draws: list, rng: np.random.Generator, reps: int = FLOOR_REPS) -> float:
    """RNG floor per trial: for each row, the median time of making one
    trial's raw draws from an existing generator; averaged over the rows,
    which run equal trial counts."""
    per_row = []
    for row in draws:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for law, shape in row:
                LAWS[law](rng, shape)
            times.append(time.perf_counter() - t0)
        per_row.append(statistics.median(times))
    return statistics.fmean(per_row)


class PresetTail:
    """A figure preset run through presets.reproduce, whose rows pair a bound
    with a tail estimate, plus a control row of run_tail on the same noise."""

    monte_carlo = True
    workers = 1

    def __init__(self, seed: int, size: str, outdir: Path, design, noise, control_design) -> None:
        self.seed, self.outdir = seed, outdir
        self.trials = self.TRIALS[size]
        self.control_trials = self.CONTROL_TRIALS[size]
        self.design, self.noise, self.control_design = design, noise, control_design

    def trial_draws(self, row) -> list:
        raise NotImplementedError

    def run_round(self, between=None) -> Round:
        t0 = time.perf_counter()
        out = presets.reproduce(self.figure, self.outdir, trials=self.trials, base_seed=self.seed, workers=self.workers)
        wall = time.perf_counter() - t0
        rows = read_result_csv(out.csv_paths[0])
        return Round(
            wall_s=wall,
            ops=self.trials * len(rows),
            failed=sum(self.trials - row.trials for row in rows),
            observed=tuple(
                (row.axis_value, row.n_bound_real, row.n_bound_ceil, round(row.p_hat * row.trials), row.trials)
                for row in rows
            ),
            draws=[self.trial_draws(row) for row in rows],
        )

    def check(self, rnd: Round, ref: dict) -> None:
        """Every row's interval overlaps its reference; subclasses add the bound values."""
        check_equal(f"{self.name} axis", [o[0] for o in rnd.observed], [r["axis_value"] for r in ref["rows"]])
        for (axis, _, _, k, n), want in zip(rnd.observed, ref["rows"]):
            check_overlap(f"{self.name} row {axis:g}", k, n, want["exceed"], want["trials"])

    def control_row(self) -> dict:
        spec = ExperimentSpec(
            self.control_design,
            self.noise,
            N=self.CONTROL_N,
            r=self.CONTROL_R,
            trials=self.control_trials,
            base_seed=self.seed,
        )
        est = run_tail(spec, workers=self.workers)
        return {"exceed": est.exceed_count, "trials": est.trials}

    def check_control(self, got: dict, ref: dict) -> None:
        check_control(f"{self.name} control", got["exceed"], got["trials"], ref["exceed"], ref["trials"])

    def reference(self, rnd: Round) -> dict:
        rows = [
            {"axis_value": a, "n_bound_real": b, "n_bound_ceil": c, "exceed": k, "trials": n}
            for a, b, c, k, n in rnd.observed
        ]
        return {"seed": self.seed, "rows": rows}


class RandomTail(PresetTail):
    name = "random_tail"
    figure = "fig2"
    TRIALS = {"full": 200, "tiny": 10, "reference": 2000}
    # fig2's models at an N and r where about a quarter of the trials exceed r.
    CONTROL_N, CONTROL_R = 1000, 0.05
    CONTROL_TRIALS = {"full": 4000, "tiny": 400, "reference": 40_000}

    def __init__(self, seed: int, size: str, outdir: Path) -> None:
        design, noise = presets.fig2_models()
        super().__init__(seed, size, outdir, design, noise, design)

    def trial_draws(self, row) -> list:
        return [("uniform", (row.n_bound_ceil, self.design.p)), ("uniform", (row.n_bound_ceil,))]

    def check(self, rnd: Round, ref: dict) -> None:
        super().check(rnd, ref)
        for (axis, n_real, n_ceil, _, _), want in zip(rnd.observed, ref["rows"]):
            check_close(f"{self.name} main bound at r={axis:g}", n_real, want["n_bound_real"], BOUND_RTOL["main"])
            check_equal(f"{self.name} integer N at r={axis:g}", n_ceil, math.floor(n_real) + 1)


class FixedNSweep(PresetTail):
    name = "fixed_nsweep"
    figure = "fig6"
    workers = 2
    # At least 256 trials per row, so that run_tail starts its pool.
    TRIALS = {"full": 1000, "tiny": 300, "reference": 10_000}
    R = 0.01  # fig6's radius
    # fig6's models (pilots of the default seed) at N = 3000, where about a
    # quarter of the trials exceed r.
    CONTROL_N, CONTROL_R = 3000, 0.0017
    CONTROL_TRIALS = {"full": 3000, "tiny": 300, "reference": 40_000}

    def __init__(self, seed: int, size: str, outdir: Path) -> None:
        design, noise = presets.fig5_models(seed)
        super().__init__(seed, size, outdir, design, noise, presets.fig5_models(DEFAULT_SEED)[0])

    def trial_draws(self, row) -> list:
        N = int(row.axis_value)
        return [("rademacher", (N,)), ("normal", (N,))]

    def expected_eps(self, N: int) -> float:
        """fig6's outage bound at N, computed here from the pilots with numpy's
        eigensolver: 2p * exp(-N r^2 sigma_min^2 / (8 alpha^2 R^2)), capped at 1."""
        p = self.design.p
        s = np.asarray(self.design.pilots[:N])
        A = np.zeros((N, p))
        for k in range(p):
            A[k:, k] = s[: N - k]
        sigma_min = float(np.linalg.eigvalsh(A.T @ A / N)[0])
        alpha = float(np.max(np.abs(A)))
        R = self.noise.jammer_scale * sum(abs(t) for t in self.noise.taps) + self.noise.receiver.sigma
        return min(1.0, 2.0 * p * math.exp(-N * self.R**2 * sigma_min**2 / (8.0 * alpha**2 * R**2)))

    def check(self, rnd: Round, ref: dict) -> None:
        super().check(rnd, ref)
        for (axis, eps, _, _, _), want in zip(rnd.observed, ref["rows"]):
            check_close(f"{self.name} outage bound at N={axis:g}", eps, self.expected_eps(int(axis)), FIXED_EPS_RTOL)
            if self.seed == ref["seed"]:
                check_close(f"{self.name} recorded outage bound at N={axis:g}", eps, want["n_bound_real"], FIXED_EPS_RTOL)


def _diag_counts(ed) -> dict:
    n = ed.trials
    return {
        "trials": n,
        "e_rand": round(ed.freq_e_rand * n),
        "e2": [round(f * n) for f in ed.freq_e2],
        "e3": [round(f * n) for f in ed.freq_e3],
        "lemma1_violations": ed.lemma1_violations,
        "identity_violations": ed.identity_violations,
    }


def _check_diag_counts(label: str, got: dict, ref: dict) -> None:
    check_equal(f"{label} lemma1_violations", got["lemma1_violations"], 0)
    check_equal(f"{label} identity_violations", got["identity_violations"], 0)
    n, ref_n = got["trials"], ref["trials"]
    check_overlap(f"{label} e_rand", got["e_rand"], n, ref["e_rand"], ref_n)
    for event in ("e2", "e3"):
        for i, (k, ref_k) in enumerate(zip(got[event], ref[event])):
            check_overlap(f"{label} {event}[{i}]", k, n, ref_k, ref_n)


class Diagnostics:
    name = "diagnostics"
    monte_carlo = True
    workers = 1
    R_GRID = (2.0, 4.0)
    EPS = 0.05
    TRIALS = {"full": 400, "tiny": 20, "reference": 5000}
    # At N = 200 and r = 2 the diagonal-sum threshold r^2/8 sits at the mean
    # of the diagonal sum, so each e2 event fires on about half the trials.
    CONTROL_N, CONTROL_R = 200, 2.0
    CONTROL_TRIALS = {"full": 2000, "tiny": 200, "reference": 40_000}

    def __init__(self, seed: int, size: str, outdir: Path) -> None:
        self.seed = seed
        self.design = IidBoundedColumns((1.0,) * 4, "scaled-uniform")
        self.noise = Gaussian(10.0)
        params = implied_problem_params(self.design, self.noise)
        self.bounds = [bounds.bound_for("main", Accuracy(r=r, eps=self.EPS), params) for r in self.R_GRID]
        trials = self.TRIALS[size]
        self.specs = [
            ExperimentSpec(self.design, self.noise, N=bd.n_ceil, r=r, trials=trials, base_seed=seed, diagnostics=True)
            for r, bd in zip(self.R_GRID, self.bounds)
        ]
        self.control_spec = ExperimentSpec(
            self.design,
            self.noise,
            N=self.CONTROL_N,
            r=self.CONTROL_R,
            trials=self.CONTROL_TRIALS[size],
            base_seed=seed,
            diagnostics=True,
        )

    def run_round(self, between=None) -> Round:
        t0 = time.perf_counter()
        results = [run_event_diagnostics(spec) for spec in self.specs]
        wall = time.perf_counter() - t0
        p = self.design.p
        return Round(
            wall_s=wall,
            ops=sum(spec.trials for spec in self.specs),
            failed=0,  # rank-deficient trials are folded into e_rand; the trace counts them
            observed=tuple((spec.N, tuple(_diag_counts(ed).items())) for spec, ed in zip(self.specs, results)),
            draws=[[("uniform", (spec.N, p)), ("normal", (spec.N,))] for spec in self.specs],
        )

    def check(self, rnd: Round, ref: dict) -> None:
        check_equal(f"{self.name} N", [obs[0] for obs in rnd.observed], [row["N"] for row in ref["rows"]])
        for bd, row in zip(self.bounds, ref["rows"]):
            check_close(f"{self.name} main bound at N={row['N']}", bd.n_final, row["n_bound_real"], BOUND_RTOL["main"])
        for (N, counts), row in zip(rnd.observed, ref["rows"]):
            _check_diag_counts(f"{self.name} N={N}", dict(counts), row["counts"])

    def control_row(self) -> dict:
        return _diag_counts(run_event_diagnostics(self.control_spec))

    def check_control(self, got: dict, ref: dict) -> None:
        check_control(f"{self.name} control e2[0]", got["e2"][0], got["trials"], ref["e2"][0], ref["trials"])
        _check_diag_counts(f"{self.name} control", got, ref)

    def reference(self, rnd: Round) -> dict:
        return {
            "rows": [
                {"N": N, "n_bound_real": bd.n_final, "counts": dict(counts)}
                for (N, counts), bd in zip(rnd.observed, self.bounds)
            ]
        }


def draw_problem_sets(n: int, seed: int) -> list:
    """Seeded parameter sets over the ranges the property suites use; each
    carries eps_of_n's sample count, twice the variance floor plus 10."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n):
        p = int(rng.integers(1, 9))
        alpha = float(rng.uniform(0.3, 3.0))
        sigma_max = float(rng.uniform(0.05, 1.0) * min(p * alpha**2, 4.0))
        sigma_min = float(rng.uniform(0.1, 1.0) * sigma_max)
        R = float(rng.uniform(0.05, 5.0))
        b = float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(0.05, 3.0))
        eps = float(rng.uniform(0.001, 0.5))
        params = ProblemParams(p=p, alpha=alpha, sigma_min=sigma_min, sigma_max=sigma_max, R=R, b=b)
        floor = 4.0 * alpha**2 * R**2 / (sigma_min**2 * r**2)
        sets.append((params, Accuracy(r=r, eps=eps), 2.0 * floor + 10.0))
    return sets


def _terms(result) -> dict:
    names = ("eps2", "eps3", "eps_rand", "eps_final") if hasattr(result, "eps_final") else (
        "n1", "n2", "n3", "n_rand", "n_final"
    )
    return {name: getattr(result, name) for name in names if getattr(result, name) is not None}


def evaluate_set(params: ProblemParams, acc: Accuracy, N: float) -> dict:
    """Every bound family and eps_of_n on one parameter set, as term values."""
    out = {family: _terms(bounds.bound_for(family, acc, params)) for family in FAMILIES}
    out["eps_of_n"] = _terms(bounds.eps_of_n(acc.r, N, params))
    return out


class BoundsGrid:
    name = "bounds_grid"
    monte_carlo = False
    workers = 1
    SETS = {"full": 200, "tiny": 6, "reference": 40}
    # A round of 200 sets takes seconds, long enough for a shared machine to
    # change speed within it, so the timing loop probes the machine's speed
    # between stretches of this many sets.
    SEGMENT_SETS = 40
    CALLS = FAMILIES + ("eps_of_n",)

    def __init__(self, seed: int, size: str, outdir: Path) -> None:
        self.seed = seed
        self.sets = draw_problem_sets(self.SETS[size], seed)

    def run_round(self, between=None) -> Round:
        """One pass over the sets; `between` runs, untimed, after every
        SEGMENT_SETS sets but the last stretch."""
        latencies = {call: [] for call in self.CALLS}
        results = []
        segments = []
        failed = 0
        t0 = time.perf_counter()
        for i, (params, acc, N) in enumerate(self.sets):
            if between is not None and i and i % self.SEGMENT_SETS == 0:
                segments.append(time.perf_counter() - t0)
                between()
                t0 = time.perf_counter()
            for call in self.CALLS:
                t = time.perf_counter()
                try:
                    if call == "eps_of_n":
                        result = bounds.eps_of_n(acc.r, N, params)
                    else:
                        result = bounds.bound_for(call, acc, params)
                except Exception:  # a bound call that raises is a failed operation
                    result = None
                    failed += 1
                latencies[call].append(time.perf_counter() - t)
                results.append(result)
        segments.append(time.perf_counter() - t0)
        return Round(
            wall_s=sum(segments),
            ops=len(results),
            failed=failed,
            observed=tuple(None if res is None else tuple(_terms(res).items()) for res in results),
            latencies=latencies,
            segments=segments,
        )

    def check(self, rnd: Round, ref: dict) -> None:
        for i, entry in enumerate(ref["sets"]):
            params = ProblemParams(**entry["params"])
            acc = Accuracy(**entry["acc"])
            got = evaluate_set(params, acc, entry["N"])
            for family, want in entry["values"].items():
                check_bound_values(f"{self.name} reference set {i}", family, got[family], want)

    def control_row(self) -> None:
        return None

    def check_control(self, got, ref: dict) -> None:
        pass

    def reference(self, rnd: Round) -> dict:
        return {
            "seed": self.seed,
            "sets": [
                {
                    "params": {k: getattr(params, k) for k in ("p", "alpha", "sigma_min", "sigma_max", "R", "b")},
                    "acc": {"r": acc.r, "eps": acc.eps},
                    "N": N,
                    "values": evaluate_set(params, acc, N),
                }
                for params, acc, N in self.sets
            ],
        }


WORKLOADS = {cls.name: cls for cls in (RandomTail, FixedNSweep, BoundsGrid, Diagnostics)}
