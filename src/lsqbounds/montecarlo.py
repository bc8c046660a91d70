"""Seeded Monte-Carlo estimation of estimation-error tail probabilities.

Trials are independent tasks keyed by trial index; every random draw comes
from a stream derived from (base_seed, trial, role), and aggregation is a
commutative count-merge, so results do not depend on the worker count or
execution order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import bounds
from .io import ResultRow
from .linalg import (
    RankDeficiencyError,
    gram_normalized,
    gram_solve,
    sym_extremal_eigs,
)
from .models import (
    DesignModel,
    FixedMatrix,
    NoiseModel,
    SeedSpec,
    design_dim,
    design_is_random,
    implied_problem_params,
    sample_design,
    sample_noise,
)
from .params import Accuracy, ParameterError, ProblemParams

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

INVALID_TRIAL_LIMIT = 1e-3
LEMMA1_TOL = 1e-9
IDENTITY_RTOL = 1e-10


class SimulationQualityError(RuntimeError):
    """Too many invalid (rank-deficient) trials; the setup is suspect."""


class RangeExhaustedError(RuntimeError):
    """The search range contains no sample count meeting the target."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One tail-probability experiment.

    theta0 is accepted and validated but immaterial: the estimation error
    (A^T A)^{-1} A^T v does not depend on it, so no trial uses it.  Random
    designs are redrawn every trial; pilot and fixed designs are materialized
    once per chunk of trials.
    """

    design: DesignModel
    noise: NoiseModel
    N: int
    r: float
    theta0: tuple[float, ...] | None = None
    trials: int = 50_000
    base_seed: int = 0
    diagnostics: bool = False

    def __post_init__(self) -> None:
        p = design_dim(self.design)
        if self.N <= p:
            raise ParameterError(f"need N > p, got N = {self.N}, p = {p}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if not (self.r > 0):
            raise ParameterError(f"r must be positive, got {self.r}")
        if self.theta0 is not None:
            theta = tuple(float(x) for x in self.theta0)
            if len(theta) != p:
                raise ParameterError(f"theta0 has length {len(theta)}, expected {p}")
            object.__setattr__(self, "theta0", theta)

    def seed(self) -> SeedSpec:
        return SeedSpec(self.base_seed)


@dataclass(frozen=True)
class TailEstimate:
    """Exceedance estimate with a 95% score interval and seed provenance."""

    trials: int
    exceed_count: int
    p_hat: float
    ci_low: float
    ci_high: float
    base_seed: int
    invalid_trials: int = 0


@dataclass(frozen=True)
class EventDiagnostics:
    """Frequencies of the concentration events behind the bounds.

    lemma1_violations counts trials where the max-coordinate error exceeds
    lambda_tilde(A) times the Euclidean norm of (1/N) A^T v (a per-trial
    theorem for symmetric Gram matrices; expected 0).  linf_decomp_violations
    counts the stronger per-coordinate variant with the sup norm on the right
    hand side, which does fail on a positive fraction of draws; it is
    recorded for analysis, never asserted.
    """

    trials: int
    freq_e_rand: float
    freq_e2: tuple[float, ...]
    freq_e3: tuple[float, ...]
    lemma1_violations: int
    identity_violations: int
    linf_decomp_violations: int = 0


def wilson_interval(successes: int, n: int, z: float = Z_95) -> tuple[float, float]:
    """Score confidence interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def _trials(spec: ExperimentSpec, start: int, stop: int):
    """Yield (A, v, err) for trials start..stop-1, where err = (A^T A)^{-1} A^T v
    is the least-squares estimation error; err is None for a rank-deficient
    draw.  A non-random design is materialized once, with its solve map
    (A^T A)^{-1} A^T, and yielded as the same array for every trial.
    """
    seed = spec.seed()
    random_design = design_is_random(spec.design)
    if not random_design:
        A = sample_design(spec.design, spec.N, seed.for_trial(0, "design"))
        try:
            solve_map = gram_solve(A.T @ A, A.T)
        except RankDeficiencyError as exc:
            raise SimulationQualityError(
                f"fixed design is rank deficient; every trial would be invalid ({exc})"
            ) from exc
    for t in range(start, stop):
        v = sample_noise(spec.noise, spec.N, seed.for_trial(t, "noise"))
        if not random_design:
            yield A, v, solve_map @ v
            continue
        A = sample_design(spec.design, spec.N, seed.for_trial(t, "design"))
        try:
            err = gram_solve(A.T @ A, A.T @ v)
        except RankDeficiencyError:
            err = None
        yield A, v, err


def _tail_chunk(spec: ExperimentSpec, start: int, stop: int) -> tuple[int, int]:
    exceed = 0
    invalid = 0
    for _, _, err in _trials(spec, start, stop):
        if err is None:
            invalid += 1
        elif np.max(np.abs(err)) > spec.r:
            exceed += 1
    return exceed, invalid


def _chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    pieces = max(1, min(total, workers * 4))
    step = math.ceil(total / pieces)
    return [(i, min(i + step, total)) for i in range(0, total, step)]


def _run_chunks(chunk, spec: ExperimentSpec, workers: int, *args) -> list:
    """Results of chunk(spec, start, stop, *args) over all trials, in trial
    order: one serial chunk, or chunks spread over a process pool."""
    if workers <= 1 or spec.trials < 256:
        return [chunk(spec, 0, spec.trials, *args)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(chunk, spec, a, b, *args)
            for a, b in _chunk_ranges(spec.trials, workers)
        ]
        return [fut.result() for fut in futures]


def run_tail(spec: ExperimentSpec, workers: int = 1) -> TailEstimate:
    """Estimate P(max-coordinate error > r) over spec.trials trials."""
    parts = _run_chunks(_tail_chunk, spec, workers)
    exceed = sum(e for e, _ in parts)
    invalid = sum(i for _, i in parts)
    if invalid > INVALID_TRIAL_LIMIT * spec.trials:
        raise SimulationQualityError(
            f"{invalid} of {spec.trials} trials were rank-deficient "
            f"(limit {INVALID_TRIAL_LIMIT:.1%}); check the design model"
        )
    valid = spec.trials - invalid
    lo, hi = wilson_interval(exceed, valid)
    return TailEstimate(
        trials=valid,
        exceed_count=exceed,
        p_hat=exceed / valid if valid else 0.0,
        ci_low=lo,
        ci_high=hi,
        base_seed=spec.base_seed,
        invalid_trials=invalid,
    )


def _diag_chunk(
    spec: ExperimentSpec,
    start: int,
    stop: int,
    sigma_min: float,
) -> tuple[np.ndarray, np.ndarray, int, int, int, int]:
    p = design_dim(spec.design)
    threshold = sigma_min**2 * spec.r**2 / 8.0
    tilde_limit = 2.0 / sigma_min
    e2 = np.zeros(p, dtype=np.int64)
    e3 = np.zeros(p, dtype=np.int64)
    e_rand = 0
    lemma1_bad = 0
    identity_bad = 0
    linf_bad = 0
    A_seen = None
    for A, v, err in _trials(spec, start, stop):
        if err is None:
            e_rand += 1  # singular Gram certainly exceeds the eigenvalue limit
            continue
        if A is not A_seen:  # _trials yields a fixed design as one array per chunk
            lam_tilde = sym_extremal_eigs(gram_normalized(A)).lambda_tilde
            A_seen = A

        s_vec = (A.T @ v) / spec.N
        total_sq = s_vec**2
        diag_sum = (A * A).T @ (v * v) / spec.N**2
        off_sum = total_sq - diag_sum
        e2 += diag_sum > threshold
        e3 += off_sum > threshold
        e_rand += lam_tilde > tilde_limit
        err_max = float(np.max(np.abs(err)))
        if err_max > lam_tilde * float(np.linalg.norm(s_vec)) + LEMMA1_TOL:
            lemma1_bad += 1
        if err_max > lam_tilde * float(np.max(np.abs(s_vec))) + LEMMA1_TOL:
            linf_bad += 1
        scale = np.maximum.reduce(
            [np.abs(total_sq), np.abs(diag_sum), np.abs(off_sum), np.full_like(total_sq, 1e-300)]
        )
        if np.any(np.abs(diag_sum + off_sum - total_sq) > IDENTITY_RTOL * scale):
            identity_bad += 1
    return e2, e3, e_rand, lemma1_bad, identity_bad, linf_bad


def run_event_diagnostics(
    spec: ExperimentSpec,
    params: ProblemParams | None = None,
    workers: int = 1,
) -> EventDiagnostics:
    """Per-trial frequencies of the Gram-eigenvalue event and the diagonal /
    off-diagonal quadratic-sum events, plus per-trial inequality checks."""
    if not spec.diagnostics:
        raise ParameterError("set diagnostics=True on the spec to run diagnostics")
    if params is None:
        params = implied_problem_params(spec.design, spec.noise, N_hint=spec.N)
    parts = _run_chunks(_diag_chunk, spec, workers, params.sigma_min)
    e2, e3, e_rand, lemma1_bad, identity_bad, linf_bad = (sum(col) for col in zip(*parts))
    n = spec.trials
    return EventDiagnostics(
        trials=n,
        freq_e_rand=e_rand / n,
        freq_e2=tuple(float(x) for x in e2 / n),
        freq_e3=tuple(float(x) for x in e3 / n),
        lemma1_violations=lemma1_bad,
        identity_violations=identity_bad,
        linf_decomp_violations=linf_bad,
    )


# ---------------------------------------------------------------------------
# Sweeps and empirical sample-count search


FIXED_SEARCH_START = 4  # fixed_design_bound's search starts at 4p rows
FIXED_SEARCH_ROUNDS = 50


def fixed_design_bound(
    acc: Accuracy, design: DesignModel, noise: NoiseModel
) -> tuple[int, ProblemParams, bounds.BoundBreakdown]:
    """Self-consistent sample count for a measured design.

    The fixed-design bound uses the smallest Gram eigenvalue of the matrix
    actually used, which itself depends on N; iterate N upward from 4p until
    the bound evaluated at the materialized matrix no longer exceeds N.
    """
    N = FIXED_SEARCH_START * design_dim(design)
    for _ in range(FIXED_SEARCH_ROUNDS):
        params = implied_problem_params(design, noise, N_hint=N)
        bd = bounds.n_fixed_design(acc, params)
        if bd.n_ceil <= N:
            return N, params, bd
        N = bd.n_ceil
    raise ParameterError(
        f"fixed-design bound did not stabilize within {FIXED_SEARCH_ROUNDS} iterations"
    )


def _sweep_rows(
    base: ExperimentSpec,
    axis_name: str,
    axis_values,
    theorem: str,
    eps: float | None,
    beta_as_printed: bool,
):
    """Yield (axis value, spec, params, bound) for each row of a sweep: the
    spec the row runs, the ProblemParams of the design it runs, and the bound
    (a BoundBreakdown on the r and eps axes, the outage value on the N axis).

    A random design has one set of params for every row.  A non-random design
    is measured at the N its row runs: the axis value on the N axis, and
    fixed_design_bound's self-consistent N on the r and eps axes.  A
    FixedMatrix has only its own row count, so it runs on the N axis alone.
    """
    values = list(axis_values)
    if not values:
        raise ParameterError("axis must be nonempty")
    if axis_name not in ("r", "eps", "N"):
        raise ParameterError(f"axis_name must be r, eps, or N, got {axis_name!r}")
    if axis_name == "N" and not all(float(v).is_integer() for v in values):
        raise ParameterError(f"N-axis values must be integers, got {values}")
    if axis_name == "r" and eps is None:
        raise ParameterError("r-axis sweeps need a target eps")
    random_design = design_is_random(base.design)
    if not random_design and theorem != "fixed_mds":
        raise ParameterError(
            f"a non-random design is covered only by the fixed_mds bound, got {theorem!r}"
        )
    if isinstance(base.design, FixedMatrix) and axis_name != "N":
        raise ParameterError(f"a fixed-matrix design runs only on the N axis, got {axis_name!r}")
    params = implied_problem_params(base.design, base.noise) if random_design else None
    p = design_dim(base.design)
    for value in values:
        if axis_name == "N":
            N = int(value)
            if not random_design:
                params = implied_problem_params(base.design, base.noise, N_hint=N)
            yield value, replace(base, N=N), params, bounds.eps_for(theorem, base.r, N, params)
            continue
        if axis_name == "r":
            acc = Accuracy(r=float(value), eps=eps)
        else:
            acc = Accuracy(r=base.r, eps=float(value))
        if random_design:
            bd = bounds.bound_for(theorem, acc, params, beta_as_printed)
            N = max(bd.n_ceil, p + 1)
        else:
            N, params, bd = fixed_design_bound(acc, base.design, base.noise)
        yield value, replace(base, N=N, r=acc.r), params, bd


def sweep(
    base: ExperimentSpec,
    axis_name: str,
    axis_values,
    theorem: str,
    eps: float | None = None,
    beta_as_printed: bool = False,
    workers: int = 1,
) -> list[ResultRow]:
    """One tail run per axis value plus the matching bound evaluation.

    r-axis and eps-axis rows of a random design run at N equal to the bound's
    integer ceiling (so p_hat <= eps checks bound soundness); those of a
    non-random design run at the self-consistent N of fixed_design_bound,
    which can exceed the ceiling.  N-axis rows run at the given N and report
    the bound's outage value in the n_bound_real column.  base.N is not used.
    """
    rows = []
    for value, spec, _, bound in _sweep_rows(
        base, axis_name, axis_values, theorem, eps, beta_as_printed
    ):
        est = run_tail(spec, workers=workers)
        if axis_name == "N":
            cells = (bound, None, None, None, None, None)
        else:
            cells = (bound.n_final, bound.n_ceil, bound.binding,
                     bound.s_opt_n2, bound.s_opt_n3, bound.tau_opt)
        rows.append(
            ResultRow(axis_name, float(value), *cells, est.p_hat, est.ci_low,
                      est.ci_high, est.trials, base.base_seed)
        )
    return rows


def find_empirical_n(
    spec: ExperimentSpec, eps: float, n_lo: int, n_hi: int, workers: int = 1
) -> int:
    """Smallest N in [n_lo, n_hi] whose upper 95% CI on the exceedance
    probability is at or below eps (the Wilson interval contains p_hat, so
    p_hat <= eps too), by doubling from n_lo and then bisecting on integers.

    Each N runs once.  The returned N passes and N - 1 fails unless
    N = n_lo; under a tail that falls with N, that N is the smallest.
    """
    n_lo = max(n_lo, design_dim(spec.design) + 1)
    if n_hi < n_lo:
        raise RangeExhaustedError(f"empty range [{n_lo}, {n_hi}]")
    if eps >= 1.0:
        return n_lo

    def passes(n: int) -> bool:
        return run_tail(replace(spec, N=n), workers=workers).ci_high <= eps

    lo, hi = n_lo - 1, n_lo  # lo failed (or lies below the range); hi is next
    while not passes(hi):
        if hi == n_hi:
            raise RangeExhaustedError(f"upper CI stays above {eps} up to N = {n_hi}")
        lo, hi = hi, min(2 * hi, n_hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi
