"""Seeded Monte-Carlo estimation of estimation-error tail probabilities.

Trials are independent tasks keyed by trial index; every random draw comes
from a stream derived from (base_seed, trial, role), and aggregation is a
commutative count-merge, so results do not depend on the worker count or
execution order.  Trials run in blocks: stacked numpy calls form a block's
sums, and solve and count a chunk's statistics at once, bit-identical to one
call per trial, so results do not depend on the block or chunk size either.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import bounds
from .io import ResultRow
from .models import (DesignModel, FixedMatrix, NoiseModel, SeedSpec, _full_rank, _measure_design, _require_finite,
                     implied_problem_params)
from .params import (Accuracy, ParameterError, ProblemParams, SimulationQualityError, as_axis_values, as_count,
                     as_positive, as_seed)

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

INVALID_TRIAL_LIMIT = 1e-3
LEMMA1_TOL = 1e-9
IDENTITY_RTOL = 1e-10
BLOCK_BYTES = 1 << 19  # draws held per block of trials, and statistics per chunk
SEGMENT_ELEMS = 1 << 19  # p^2 times the rows of one segment of a random design's Gram sums


@dataclass(frozen=True)
class ExperimentSpec:
    """One tail-probability experiment: how often, over trials seeded
    trials of N samples each, the max-coordinate error exceeds r.

    N, trials and base_seed must be integers (numpy integers become ints), with
    N > p, trials >= 1, 0 <= base_seed < 2**64 and 0 < r < inf; else ParameterError.
    Random designs are redrawn every trial; pilot and fixed designs are
    materialized once per Monte-Carlo pass.
    """

    design: DesignModel
    noise: NoiseModel
    N: int
    r: float
    trials: int = 50_000
    base_seed: int = 0
    diagnostics: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", as_count("N", self.N, self.design.p + 1))
        object.__setattr__(self, "trials", as_count("trials", self.trials))
        object.__setattr__(self, "base_seed", as_seed("base_seed", self.base_seed))
        as_positive("r", self.r)


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
    """Frequencies of the concentration events behind the bounds, as shares
    of all trials; a rank-deficient trial counts toward freq_e_rand alone.

    freq_e_rand: lambda_tilde(A), the inverse of the smallest eigenvalue of
    (1/N) A^T A, exceeds 2 / sigma_min.  freq_e2[i] and freq_e3[i]: the
    diagonal sum (1/N^2) sum_n A_ni^2 v_n^2 and the off-diagonal sum of
    coordinate i exceed sigma_min^2 r^2 / 8.

    lemma1_violations counts trials where the max-coordinate error exceeds
    lambda_tilde(A) times the Euclidean norm of (1/N) A^T v (a per-trial
    theorem for symmetric Gram matrices; expected 0).  identity_violations
    counts trials where the diagonal plus the off-diagonal sum misses
    ((1/N) A^T v)_i^2 by more than IDENTITY_RTOL relative; as the off-diagonal
    sum is computed as that square minus the diagonal sum, it measures rounding
    alone.  uncovered counts the trials whose max-coordinate error exceeds r
    while none of these events fires: exceedances that the main bound's chain,
    whose step to the sup norm is unproved, leaves uncovered.  None is known.
    """

    trials: int
    freq_e_rand: float
    freq_e2: tuple[float, ...]
    freq_e3: tuple[float, ...]
    lemma1_violations: int
    identity_violations: int
    uncovered: int


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% score confidence interval for a binomial proportion."""
    z = Z_95
    if n <= 0:
        return (0.0, 1.0)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def _trials(spec: ExperimentSpec, start: int, stop: int, sizes, plan, diagnosed):
    """Yield (G, rhs, diag) for each block of up to B consecutive trials of
    start..stop-1.  Each model draws the block in one sample call on a block
    label at the largest N, each trial from its own (base_seed, trial, role)
    stream, into the block's buffers, and centres and scales it in one pass.
    Every sampler is prefix-consistent, so at each N of sizes, a and u are
    the block's N-row design and noise prefixes.  G holds a^T a per N and
    matrix, (sizes, m, p, p), or a non-random design's plan's (sizes, 1, p,
    p); rhs, each trial's a^T u, (sizes, m, p), for _solve; diag, the (m, p)
    diagonal sums ((a*a)^T (u*u))/N^2 of each N in diagnosed, in sizes order,
    squared in the spent design copy and noise buffer, never in a plan's
    shared matrix.  No record is a view of a buffer that a block refills.

    A random design's G and a^T u add, in row order, the products of the
    whole segments of S = max(1, SEGMENT_ELEMS // p^2) rows from row 0 below N,
    then that of the rows past them.  Each product is one GEMM against a copy
    of the design.

    B is max(1, BLOCK_BYTES // (8 n_max (p + 1))) for a random design and
    max(1, BLOCK_BYTES // (8 n_max)) for a non-random one: the size of the
    preallocated draw buffers.  Each stacked call is bit-identical to the
    per-trial call (numpy runs BLAS per slice) and the segments depend on p
    alone, so no G or rhs depends on B, blocks or sizes.
    """
    n_max = max(sizes)
    p, random_design = spec.design.p, spec.design.random
    block = max(1, BLOCK_BYTES // (8 * n_max * (p + 1 if random_design else 1)))
    v_buf = np.empty((block, n_max))
    if random_design:
        a_buf, c_buf = np.empty((2, block, n_max, p))
        seg = max(1, SEGMENT_ELEMS // (p * p))
        whole = n_max // seg * seg
    else:
        A, G = plan
        A, G = A[None], G[:, None]
        A_sq = A * A if diagnosed else None
    for lo in range(start, stop, block):
        trials = range(lo, min(lo + block, stop))
        V = spec.noise.sample(n_max, SeedSpec(spec.base_seed, trials, "noise"), out=v_buf[: len(trials)])
        if random_design:
            A = spec.design.sample(n_max, SeedSpec(spec.base_seed, trials, "design"), out=a_buf[: len(trials)])
            C = c_buf[: len(trials)]
            np.copyto(C, A)  # a^T C runs as GEMM; a^T a, one buffer, as SYRK, slower at these shapes
            if whole:
                segs = (len(trials), whole // seg, seg)
                aT = A[:, :whole].reshape(*segs, p).swapaxes(-1, -2)
                G_cum = np.cumsum(aT @ C[:, :whole].reshape(*segs, p), axis=1)
                rhs_cum = np.cumsum(aT @ V[:, :whole].reshape(*segs, 1), axis=1)
            G, rhs = np.empty((len(sizes), len(trials), p, p)), np.empty((len(sizes), len(trials), p, 1))
            for k, N in enumerate(sizes):
                cut = N // seg * seg  # rows below cut are whole segments
                aT = A[:, cut:N].swapaxes(-1, -2)
                G[k], rhs[k] = aT @ C[:, cut:N], aT @ V[:, cut:N, None]
                if cut:
                    G[k] += G_cum[:, cut // seg - 1]
                    rhs[k] += rhs_cum[:, cut // seg - 1]
        else:
            rhs = np.stack([A[:, :N].swapaxes(-1, -2) @ V[:, :N, None] for N in sizes])
        if diagnosed:  # G and rhs are formed, so C and V are spent
            A_sq = np.multiply(A, A, out=C) if random_design else A_sq
            V_sq = np.multiply(V, V, out=V)
        diag = [(A_sq[:, :N].swapaxes(-1, -2) @ V_sq[:, :N, None])[..., 0] / N**2 for N in sizes if N in diagnosed]
        yield G, rhs[..., 0], diag


def _solve(G: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(err, ok) for stacked Gram matrices G and rows rhs, broadcast together:
    each row's G^{-1} rhs, a G that fails _full_rank solved as I, and each G's
    verdict.  numpy runs LAPACK per matrix, so no row depends on the stacking."""
    p = G.shape[-1]
    ok = _full_rank(G.reshape(-1, p, p)).reshape(G.shape[:-2])
    return np.linalg.solve(np.where(ok[..., None, None], G, np.eye(p)), rhs[..., None])[..., 0], ok


def _sweep_chunk(spec: ExperimentSpec, start: int, stop: int, rows, plan) -> np.ndarray:
    """_count's counts of rows over trials start..stop-1: _trials' records of
    its blocks, each array joined on the trial axis, where a non-random
    design keeps its plan's one G."""
    sizes = tuple(dict.fromkeys(N for N, _, _ in rows))
    diagnosed = {N for N, _, sigma_min in rows if sigma_min is not None}
    Gs, rhs, diag = zip(*_trials(spec, start, stop, sizes, plan, diagnosed))
    G = np.concatenate(Gs, axis=1) if spec.design.random else Gs[0]
    return _count(rows, G, np.concatenate(rhs, axis=1), [np.concatenate(sums) for sums in zip(*diag)])


def _count(rows, G: np.ndarray, rhs: np.ndarray, diag_sums) -> np.ndarray:
    """Counts of each (N, r, sigma_min) row over the trials of G, (sizes, trials,
    p, p), or (sizes, 1, p, p) for a non-random design, whose G passed
    _full_rank; rhs, (sizes, trials, p); and diag_sums, the (trials, p)
    diagonal sums of each diagnosed N in sizes order.  Each row's exceedances
    of r (a non-finite error exceeds) and invalid trials, then, if any row
    sets sigma_min, its e_rand, lemma-1 violation, identity violation and
    uncovered counts and its e2 and e3 counts per coordinate (zero for a row
    without one).  Every N holds the same trials, so one _solve serves all.
    A G or rhs that is not finite raises SimulationQualityError naming its N."""
    sizes = tuple(dict.fromkeys(N for N, _, _ in rows))
    diagnosed = {N for N, _, sigma_min in rows if sigma_min is not None}
    for N, G_N, rhs_N in zip(sizes, G, rhs):
        _require_finite(N, G_N, rhs_N)
    counts = np.zeros((len(rows), 6 + 2 * G.shape[-1] if diagnosed else 2), dtype=np.int64)
    err, ok = _solve(G, rhs)
    diag_sums = iter(diag_sums)
    for N, G_N, rhs_N, err_N, ok_N in zip(sizes, G, rhs, err, ok):
        invalid = len(ok_N) - np.count_nonzero(ok_N)
        keep = ok_N if invalid else slice(None)
        err_max = np.max(np.abs(err_N[keep]), axis=1)
        if N in diagnosed:
            s_vec, gram, diag_sum = rhs_N[keep] / N, G_N[keep] / N, next(diag_sums)[keep]
            lam_min = np.linalg.eigvalsh(gram)[..., 0]
            lam_tilde = np.divide(1.0, lam_min, out=np.full_like(lam_min, np.inf), where=lam_min > 0)
            lam = np.broadcast_to(lam_tilde, len(err_max))
            total_sq = s_vec**2
            off_sum = total_sq - diag_sum
            quad_sums = np.stack([diag_sum, off_sum])
            norm = np.sqrt((s_vec[:, None, :] @ s_vec[:, :, None])[:, 0, 0])  # a dot per row, as norm
            with np.errstate(invalid="ignore"):  # inf * 0 is nan; err_max > nan is no violation
                lemma1_bad = np.count_nonzero(err_max > lam * norm + LEMMA1_TOL)
            scale = np.maximum.reduce([np.abs(total_sq), np.abs(diag_sum), np.abs(off_sum),
                                       np.full_like(total_sq, 1e-300)])
            residual = np.abs(diag_sum + off_sum - total_sq)
            identity_bad = np.count_nonzero(np.any(residual > IDENTITY_RTOL * scale, axis=1))
        for k, (row_n, r, sigma_min) in enumerate(rows):
            if row_n != N:
                continue
            exceed = ~(err_max <= r)
            counts[k, :2] = (np.count_nonzero(exceed), invalid)
            if sigma_min is not None:
                e_rand, fired = lam > 2.0 / sigma_min, quad_sums > sigma_min**2 * r**2 / 8.0
                uncovered = np.count_nonzero(exceed & ~e_rand & ~fired.any(axis=(0, 2)))
                # A singular Gram certainly exceeds the eigenvalue limit.
                counts[k, 2:6] = (invalid + np.count_nonzero(e_rand), lemma1_bad, identity_bad, uncovered)
                counts[k, 6:] = np.count_nonzero(fired, axis=1).ravel()
    return counts


def _pool_init(spec: ExperimentSpec, rows, plan) -> None:
    global _POOLED  # the pass a pool worker runs, sent to it once
    _POOLED = spec, rows, plan


def _pooled_chunk(start: int, stop: int) -> np.ndarray:
    spec, rows, plan = _POOLED
    return _sweep_chunk(spec, start, stop, rows, plan)


def _run_chunks(spec: ExperimentSpec, rows, workers: int) -> np.ndarray:
    """_sweep_chunk's counts of rows over all spec.trials trials (spec.N is
    not used), planned once before any trial: a non-random design measured,
    and chunks of at most BLOCK_BYTES of held statistics, or one trial, and at
    most ceil(trials / (4 workers)) trials if pooled.  The caller runs a
    worker's share; the pool's workers - 1 processes, or one per task if
    fewer, each sent the pass once by its initializer, run the rest as
    (start, stop) tasks."""
    workers = as_count("workers", workers)
    sizes = tuple(dict.fromkeys(N for N, _, _ in rows))
    diagnosed = {N for N, _, sigma_min in rows if sigma_min is not None}
    p, random_design = spec.design.p, spec.design.random
    plan = None if random_design else _measure_design(spec.design, sizes)
    held = 8 * p * sum(1 + p * random_design + (N in diagnosed) for N in sizes)  # a trial's rhs, G, diagonal sums
    serial = workers == 1 or spec.trials < 256
    step = min(math.ceil(spec.trials / (1 if serial else min(spec.trials, 4 * workers))), max(1, BLOCK_BYTES // held))
    chunks = [(a, min(a + step, spec.trials)) for a in range(0, spec.trials, step)]
    if serial:
        return sum(_sweep_chunk(spec, a, b, rows, plan) for a, b in chunks)
    own = len(chunks) // workers
    processes = min(workers - 1, len(chunks) - own)  # no more than its tasks
    with ProcessPoolExecutor(max_workers=processes, initializer=_pool_init, initargs=(spec, rows, plan)) as pool:
        futures = [pool.submit(_pooled_chunk, a, b) for a, b in chunks[own:]]
        counts = sum(_sweep_chunk(spec, a, b, rows, plan) for a, b in chunks[:own])
        return counts + sum(fut.result() for fut in futures)


def _tail_estimate(spec: ExperimentSpec, counts: np.ndarray) -> TailEstimate:
    """The TailEstimate of one row of _run_chunks' counts."""
    exceed, invalid = counts[:2].tolist()
    if invalid > INVALID_TRIAL_LIMIT * spec.trials:
        raise SimulationQualityError(
            f"{invalid} of {spec.trials} trials were rank-deficient "
            f"(limit {INVALID_TRIAL_LIMIT:.1%}); check the design model"
        )
    valid = spec.trials - invalid
    lo, hi = wilson_interval(exceed, valid)
    p_hat = exceed / valid if valid else 0.0
    return TailEstimate(valid, exceed, p_hat, lo, hi, spec.base_seed, invalid)


def _event_diagnostics(trials: int, counts: np.ndarray) -> EventDiagnostics:
    """The EventDiagnostics of one row of _run_chunks' counts that set sigma_min."""
    e_rand, lemma1_bad, identity_bad, uncovered = counts[2:6].tolist()
    e2, e3 = (tuple(freqs.tolist()) for freqs in np.split(counts[6:] / trials, 2))
    return EventDiagnostics(trials, e_rand / trials, e2, e3, lemma1_bad, identity_bad, uncovered)


def run_tail(spec: ExperimentSpec, workers: int = 1) -> TailEstimate:
    """Estimate P(max-coordinate error > r) over spec.trials trials."""
    return _tail_estimate(spec, _run_chunks(spec, [(spec.N, spec.r, None)], workers)[0])


def run_event_diagnostics(spec: ExperimentSpec, workers: int = 1) -> EventDiagnostics:
    """spec's EventDiagnostics, counted at the sigma_min of the design that runs:
    implied_problem_params's at spec.N rows."""
    if not spec.diagnostics:
        raise ParameterError("set diagnostics=True on the spec to run diagnostics")
    sigma_min = implied_problem_params(spec.design, spec.noise, N_hint=spec.N).sigma_min
    counts = _run_chunks(spec, [(spec.N, spec.r, sigma_min)], workers)
    return _event_diagnostics(spec.trials, counts[0])


# ---------------------------------------------------------------------------
# Sweeps and empirical sample-count search


def fixed_design_bound(
    acc: Accuracy, design: DesignModel, noise: NoiseModel
) -> tuple[int, ProblemParams, bounds.BoundBreakdown]:
    """The smallest self-consistent sample count for a measured design.

    The fixed-design bound uses the smallest Gram eigenvalue of the matrix
    actually used, which itself depends on N: return the first of
    N = p+1, p+2, ... whose bound at its own matrix is at most N.  That test
    is not monotone in N, so the scan cannot bisect.  An N whose matrix is
    rank deficient is not self-consistent, so the scan moves past it; a
    design that runs out of rows first raises from its sampler.
    """
    for N in itertools.count(design.p + 1):
        try:
            params = implied_problem_params(design, noise, N_hint=N)
        except SimulationQualityError:
            continue
        bd = bounds.bound_for("fixed_mds", acc, params)
        if bd.n_ceil <= N:
            return N, params, bd


def _sweep_rows(
    base: ExperimentSpec,
    axis_name: str,
    axis_values,
    theorem: str,
    eps: float | None,
):
    """Yield (axis value, spec, params, bound) for each row of a sweep: the
    spec the row runs, the ProblemParams of the design it runs, and the bound
    (a BoundBreakdown on the r and eps axes, the outage value on the N axis).

    A random design has one set of params for every row.  A non-random design
    is measured at the N its row runs: the axis value on the N axis, and
    fixed_design_bound's self-consistent N on the r and eps axes.  A
    FixedMatrix has only its own row count, so it runs on the N axis alone.
    """
    values = as_axis_values(axis_name, axis_values, eps)
    bounds.check_tag(theorem)
    random_design = base.design.random
    if random_design == (theorem in bounds.KNOWN_DESIGN):  # such a bound measures the matrix each row runs
        raise ParameterError(
            f"fixed_mds covers only a non-random design, got {type(base.design).__name__}" if random_design
            else f"a non-random design is covered only by the fixed_mds bound, got {theorem!r}"
        )
    if isinstance(base.design, FixedMatrix) and axis_name != "N":
        raise ParameterError(f"a fixed-matrix design runs only on the N axis, got {axis_name!r}")
    params = implied_problem_params(base.design, base.noise) if random_design else None
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
            bd = bounds.bound_for(theorem, acc, params)
            N = bd.n_ceil
        else:
            N, params, bd = fixed_design_bound(acc, base.design, base.noise)
        yield value, replace(base, N=N, r=acc.r), params, bd


def sweep(
    base: ExperimentSpec,
    axis_name: str,
    axis_values,
    theorem: str,
    eps: float | None = None,
    workers: int = 1,
) -> list[ResultRow]:
    """One tail estimate per axis value plus the matching bound evaluation.

    r-axis and eps-axis rows of a random design run at N equal to the bound's
    integer ceiling (so p_hat <= eps checks bound soundness); those of a
    non-random design run at the self-consistent N of fixed_design_bound,
    which can exceed the ceiling.  N-axis rows run at the given N and report
    the bound's outage value in the n_bound_real column.  base.N is not used.
    All rows share one Monte-Carlo pass whose trials are drawn at the largest
    row N; each row's counts equal those of run_tail at its own N.
    """
    sweep_rows = list(_sweep_rows(base, axis_name, axis_values, theorem, eps))
    return [row for row, _ in _result_rows(base, axis_name, sweep_rows, workers)]


def _result_rows(base: ExperimentSpec, axis_name: str, sweep_rows, workers: int, diagnostics: bool = False):
    """Each of _sweep_rows' rows as a ResultRow with its tail estimate, paired
    with its EventDiagnostics at its params' sigma_min if diagnostics is set
    (else None), all from one Monte-Carlo pass."""
    counts = _run_chunks(
        base,
        [(spec.N, spec.r, params.sigma_min if diagnostics else None) for _, spec, params, _ in sweep_rows],
        workers,
    )
    rows = []
    for (value, _, _, bound), row_counts in zip(sweep_rows, counts):
        est = _tail_estimate(base, row_counts)
        if axis_name == "N":
            cells = (bound, None, None, None, None, None)
        else:
            cells = (bound.n_final, bound.n_ceil, bound.binding,
                     bound.s_opt_n2, bound.s_opt_n3, bound.tau_opt)
        row = ResultRow(axis_name, float(value), *cells, est.p_hat, est.ci_low,
                        est.ci_high, est.trials, base.base_seed)
        rows.append((row, _event_diagnostics(base.trials, row_counts) if diagnostics else None))
    return rows


def find_empirical_n(
    spec: ExperimentSpec, eps: float, n_lo: int, n_hi: int, workers: int = 1
) -> int:
    """Smallest N in [n_lo, n_hi] whose upper 95% CI on the exceedance
    probability is at or below eps (the Wilson interval contains p_hat, so
    p_hat <= eps too), by doubling from n_lo and then bisecting on integers.

    Each N runs once.  The returned N passes and N - 1 fails unless
    N = n_lo; under a tail that falls with N, that N is the smallest.
    eps is read by as_positive; an eps >= 1 returns n_lo without a pass.
    """
    as_positive("eps", eps)
    n_lo, n_hi = max(as_count("n_lo", n_lo), spec.design.p + 1), as_count("n_hi", n_hi)
    if n_hi < n_lo:
        raise ParameterError(f"empty range [{n_lo}, {n_hi}]")
    if eps >= 1.0:
        return n_lo

    def passes(n: int) -> bool:
        return run_tail(replace(spec, N=n), workers=workers).ci_high <= eps

    lo, hi = n_lo - 1, n_lo  # lo failed (or lies below the range); hi is next
    while not passes(hi):
        if hi == n_hi:
            raise SimulationQualityError(f"upper CI stays above {eps} up to N = {n_hi}")
        lo, hi = hi, min(2 * hi, n_hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi
