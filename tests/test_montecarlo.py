"""Tests for the tail-estimation harness, diagnostics, sweeps, and search."""

import itertools
import math
import os
import time
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from lsqbounds import bounds, montecarlo
from lsqbounds.io import ResultRow
from lsqbounds.models import (
    FirMds,
    FixedMatrix,
    Gaussian,
    GaussianMixture,
    IidBoundedColumns,
    Rademacher,
    SeedSpec,
    ToeplitzPilot,
    Uniform,
    UniformPlusGaussian,
    _measure_design,
    implied_problem_params,
    random_pilots,
)
from lsqbounds.montecarlo import (
    EventDiagnostics,
    ExperimentSpec,
    SimulationQualityError,
    _count,
    _event_diagnostics,
    _full_rank,
    _run_chunks,
    _solve,
    _tail_estimate,
    _trials,
    find_empirical_n,
    fixed_design_bound,
    run_event_diagnostics,
    run_tail,
    sweep,
    wilson_interval,
)
from lsqbounds.params import Accuracy, ParameterError, ProblemParams
from lsqbounds.presets import FIGURES, channel_pilot_design, fig2_models, fig5_models, fir_mds_with_param

from helpers import gaussian_cdf

ALL_ONES_4x1 = FixedMatrix(np.ones((4, 1)))


def plan_of(spec: ExperimentSpec, sizes):
    """The plan _run_chunks makes for a pass at sizes: None for a random
    design, else _measure_design's."""
    return None if spec.design.random else _measure_design(spec.design, tuple(dict.fromkeys(sizes)))


def chunk_counts(spec: ExperimentSpec, start: int, stop: int, rows) -> np.ndarray:
    """_count's counts of rows over trials start..stop-1 as one chunk, with
    the plan that _run_chunks makes for them."""
    return _count(rows, *_trials(spec, start, stop, rows, plan_of(spec, [N for N, _, _ in rows])))


def undiagnosed(sizes):
    """Rows at each N of sizes that set no sigma_min, so _trials forms no diagonal sums."""
    return [(N, 1.0, None) for N in sizes]


def exact_sign_tail(N: int, r: float) -> float:
    """Exact P(|mean of N Rademacher draws| > r) by full enumeration."""
    count = 0
    for signs in itertools.product((-1.0, 1.0), repeat=N):
        if abs(sum(signs) / N) > r:
            count += 1
    return count / 2**N


class TestWilsonInterval:
    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05

    def test_brackets_p_hat(self):
        lo, hi = wilson_interval(30, 100)
        assert lo <= 0.3 <= hi

    def test_coverage_meta(self):
        """95% interval covers the exactly-known tail in >= 93% of repeats."""
        exact = exact_sign_tail(4, 0.4)
        assert exact == 0.625
        covered = 0
        repeats = 1000
        for i in range(repeats):
            spec = ExperimentSpec(
                ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, trials=200, base_seed=5000 + i
            )
            est = run_tail(spec)
            assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0
            if est.ci_low <= exact <= est.ci_high:
                covered += 1
        assert covered >= 0.93 * repeats


def ls_solve(A, x):
    """Least-squares solution through the trial kernel's rank rule and solve;
    None if _full_rank rejects A^T A."""
    G = A.T @ A
    return np.linalg.solve(G, A.T @ x) if _full_rank(G[None])[0] else None


class TestFullRankSolve:
    def test_consistent_system_exact(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        theta = ls_solve(A, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(theta, [1.0, 2.0], rtol=1e-14)

    def test_orthonormal_columns_give_projection(self):
        # tall matrix with orthonormal columns: the solution is A^T x
        A = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]]) / 2.0
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(ls_solve(A, x), A.T @ x, rtol=1e-12, atol=1e-14)

    def test_recovers_truth_with_tiny_noise(self):
        rng = np.random.default_rng(6)
        A = rng.uniform(-1.0, 1.0, (50, 3))
        theta0 = np.array([0.5, -1.5, 2.0])
        x = A @ theta0 + 1e-12 * rng.standard_normal(50)
        theta = ls_solve(A, x)
        assert np.max(np.abs(theta - theta0)) <= 1e-9

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = rng.uniform(-1.0, 1.0, (30, 4))
            x = rng.standard_normal(30)
            theta = ls_solve(A, x)
            resid = A.T @ (x - A @ theta)
            assert np.max(np.abs(resid)) <= 1e-9 * max(np.max(np.abs(A.T @ x)), 1e-30)

    @pytest.mark.parametrize(
        "A",
        [
            [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]],
            # near-collinear: LAPACK factors it, but the squared pivot L_11^2
            # = 1.4e-12 falls below 1e-12 * trace = 2.8e-11
            [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0 + 2e-6]],
        ],
        ids=["collinear", "near-collinear"],
    )
    def test_rank_deficiency(self, A):
        A = np.array(A)
        assert ls_solve(A, np.array([1.0, 2.0, 3.0])) is None

    @staticmethod
    def count_cholesky(monkeypatch):
        """Wrap np.linalg.cholesky to record the stack size of each call and
        whether it raised."""
        calls = []
        cholesky = np.linalg.cholesky

        def counted(G):
            try:
                L = cholesky(G)
            except np.linalg.LinAlgError:
                calls.append((len(G), True))
                raise
            calls.append((len(G), False))
            return L

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        return calls

    def test_stack_with_one_deficient_matrix(self, monkeypatch):
        # The collinear Gram has no Cholesky factor, so the stacked call raises
        # and each half of the stack is checked again, down to the deficient matrix.
        calls = self.count_cholesky(monkeypatch)
        rng = np.random.default_rng(9)
        mats = [rng.uniform(-1.0, 1.0, (3, 2)), np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]),
                rng.uniform(-1.0, 1.0, (3, 2)), rng.uniform(-1.0, 1.0, (5, 2))]
        G = np.stack([A.T @ A for A in mats])
        verdicts = _full_rank(G).tolist()
        assert [n for n, raised in calls if raised] == [4, 2, 1]  # the stack, its first half, the matrix
        assert verdicts == [True, False, True, True]
        assert verdicts == [_full_rank(g[None])[0] for g in G]

    def test_one_deficient_matrix_in_a_large_stack_costs_log_calls(self, monkeypatch):
        # Each level of halving costs two calls, one of which raises: 1 + 2 log2(1024) = 21.
        rng = np.random.default_rng(10)
        mats = [rng.uniform(-1.0, 1.0, (6, 3)) for _ in range(1024)]
        mats[700] = np.column_stack([mats[700][:, :2], mats[700][:, :2].sum(axis=1)])
        G = np.stack([A.T @ A for A in mats])
        oracle = [_full_rank(g[None])[0] for g in G]
        calls = self.count_cholesky(monkeypatch)
        verdicts = _full_rank(G).tolist()
        assert len(calls) <= 21
        assert verdicts == oracle and verdicts.count(False) == 1 and not verdicts[700]

    def test_error_decomposition_euclidean(self):
        # max-coordinate error <= lambda_tilde(A) * ||A^T v / N||_2 per instance
        rng = np.random.default_rng(8)
        theta0 = np.array([1.0, 1.0, 1.0])
        for _ in range(50):
            A = rng.uniform(-1.0, 1.0, (40, 3))
            v = rng.standard_normal(40)
            theta = ls_solve(A, A @ theta0 + v)
            lam_tilde = 1.0 / np.linalg.eigvalsh(A.T @ A / 40.0)[0]
            proj = A.T @ v / 40.0
            err = np.max(np.abs(theta - theta0))
            assert err <= lam_tilde * np.linalg.norm(proj) + 1e-9


def segment_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^T B as _trials forms every per-trial sum: one product per whole
    segment of SEGMENT_ELEMS // p^2 rows, added in row order, plus the product
    of the rows past the last whole segment.  B must not share A's buffer, so
    that numpy runs GEMM."""
    seg = max(1, montecarlo.SEGMENT_ELEMS // A.shape[1] ** 2)
    lo = len(A) // seg * seg
    total = A[lo:].T @ B[lo:]
    if lo:
        whole = [A[j : j + seg].T @ B[j : j + seg] for j in range(0, lo, seg)]
        total += np.cumsum(whole, axis=0)[-1]
    return total


class TestTrialGram:
    """_count's diagnostics read lambda_min off the G that _trials returns:
    one stacked G per chunk of a random design, one (1, p, p) G for every
    chunk of a fixed one.  That equals the symmetrized (1/N) A^T A only if
    each trial's G is exactly symmetric, and one eigensolve serves a fixed
    design's whole chunk only if its G holds one matrix."""

    @staticmethod
    def grams(spec):
        """The G that _trials returns for spec at spec.N alone, one chunk per
        block of B trials, all with one plan."""
        p, plan = spec.design.p, plan_of(spec, (spec.N,))
        B = max(1, montecarlo.BLOCK_BYTES // (8 * spec.N * (p + 1 if spec.design.random else 1)))
        return [_trials(spec, lo, min(lo + B, spec.trials), undiagnosed((spec.N,)), plan)[0][0]
                for lo in range(0, spec.trials, B)]

    @pytest.mark.parametrize("law", ["scaled-uniform", "scaled-rademacher"])
    @pytest.mark.parametrize("p", range(1, 9))
    def test_random_design(self, law, p):
        design = IidBoundedColumns(tuple(0.3 + 0.2 * k for k in range(p)), law)
        for N in (p + 1, 97, 6000):
            spec = ExperimentSpec(design, Gaussian(1.0), N=N, r=1.0, trials=4, base_seed=N)
            grams = np.concatenate(self.grams(spec))
            assert len(grams) == spec.trials
            for t, G in enumerate(grams):
                A = design.sample(N, SeedSpec(N, t, "design"))  # trial t's own draw
                assert np.array_equal(G, G.T)
                assert np.array_equal(G, segment_product(A, A.copy()))

    @pytest.mark.parametrize(
        "design",
        [
            channel_pilot_design(p=8),
            FixedMatrix(np.asfortranarray(np.random.default_rng(1).uniform(-1.0, 1.0, (50, 3)))),
        ],
        ids=["toeplitz", "fixed-matrix"],
    )
    def test_fixed_design_one_symmetric_gram(self, design):
        for N in ((40, 714, 3000) if isinstance(design, ToeplitzPilot) else (50,)):
            B = montecarlo.BLOCK_BYTES // (8 * N)
            spec = ExperimentSpec(design, Gaussian(1.0), N=N, r=1.0, trials=2 * B + 1, base_seed=N)
            A = design.sample(N, SeedSpec(N, 0, "design"))
            grams = self.grams(spec)
            assert len(grams) == 3
            for G in grams:
                assert G.shape == (1, design.p, design.p) and np.shares_memory(G, grams[0])
                assert np.array_equal(G[0], G[0].T)
                assert np.array_equal(G[0], A.T @ A)


class TestRunTail:
    def test_exact_enumeration_instance(self):
        spec = ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, trials=5000, base_seed=1)
        est = run_tail(spec)
        assert est.ci_low <= 0.625 <= est.ci_high
        assert est.invalid_trials == 0

    def test_radius_above_noise_bound_never_exceeds(self):
        spec = ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=1.05, trials=2000, base_seed=1)
        assert run_tail(spec).p_hat == 0.0

    def test_analytic_gaussian_oracle(self):
        # two orthogonal sign columns: normalized Gram is the identity, so the
        # max-coordinate error law is known in closed form
        h8 = np.array(
            [
                [1, 1], [1, -1], [1, 1], [1, -1],
                [1, 1], [1, -1], [1, 1], [1, -1],
            ],
            dtype=float,
        )
        spec = ExperimentSpec(FixedMatrix(h8), Gaussian(1.0), N=8, r=0.5, trials=20_000, base_seed=3)
        est = run_tail(spec)
        per_coord = 2.0 * (1.0 - gaussian_cdf(0.5 * math.sqrt(8.0)))
        exact = 1.0 - (1.0 - per_coord) ** 2
        assert est.ci_low <= exact <= est.ci_high

    def test_reproducible_across_workers(self):
        design = IidBoundedColumns((1.0, 1.0), "scaled-uniform")
        spec = ExperimentSpec(design, Uniform(1.0), N=64, r=0.25, trials=1500, base_seed=9)
        serial = run_tail(spec, workers=1)
        parallel = run_tail(spec, workers=2)
        assert serial == parallel

    def test_invalid_trials_abort(self):
        # three-row sign design: columns collide with probability 1/4
        design = IidBoundedColumns((1.0, 1.0), "scaled-rademacher")
        spec = ExperimentSpec(design, Gaussian(1.0), N=3, r=0.5, trials=400, base_seed=3)
        with pytest.raises(SimulationQualityError):
            run_tail(spec)

    def test_fixed_rank_deficient_aborts(self):
        design = FixedMatrix(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
        spec = ExperimentSpec(design, Gaussian(1.0), N=3, r=0.5, trials=10, base_seed=3)
        with pytest.raises(SimulationQualityError):
            run_tail(spec)

    def test_fixed_rank_deficient_names_the_first_failing_n_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(SeedSpec, "generators", no_trials)
        rows = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]
        spec = ExperimentSpec(FixedMatrix(np.array(rows)), Gaussian(1.0), N=3, r=0.5, trials=10, base_seed=3)
        with pytest.raises(SimulationQualityError, match="rank deficient at N = 3"):
            run_tail(spec)
        # A fourth row makes N = 4 full rank; the sweep's sizes run 4, 3, 5.
        spec = replace(spec, design=FixedMatrix(np.array(rows + [[1.0, 0.0], [0.0, 0.0]])), N=5)
        with pytest.raises(SimulationQualityError, match="rank deficient at N = 3"):
            _run_chunks(spec, [(4, 0.5, None), (3, 0.5, None), (5, 0.5, None)], 1)

    # Each trial's draws or sums overflow, so its G or A^T v is not finite.
    # The pass raises and names the row's N, where it once counted every such
    # trial as an exceedance.  No RuntimeWarning escapes: pyproject's
    # filterwarnings would turn one into an error.
    @pytest.mark.parametrize(
        "design,noise",
        [
            (IidBoundedColumns((1.0, 1.0)), Uniform(1e308)),
            (IidBoundedColumns((1.0, 1.0)), Gaussian(1e308)),
            (IidBoundedColumns((1.0, 1.0)), GaussianMixture(1.0, 1e308, 0.5)),
            (IidBoundedColumns((1e200, 1.0)), Uniform(1.0)),
        ],
        ids=["uniform-1e308", "gaussian-1e308", "mixture-1e308", "design-1e200"],
    )
    @pytest.mark.parametrize("trials,workers", [(50, 1), (256, 2)], ids=["serial", "pooled"])
    def test_normal_equations_that_overflow_raise(self, design, noise, trials, workers):
        spec = ExperimentSpec(design, noise, N=10, r=0.5, trials=trials, base_seed=1)
        with pytest.raises(SimulationQualityError, match="^the normal equations overflow at N = 10;"):
            run_tail(spec, workers=workers)

    # Scales that implied_problem_params accepts, yet each trial's G overflows
    # (gram), or its G and A^T v are finite and only the diagnostic sums of
    # a^2 v^2 overflow (diagonal-sums).  A diagnostics pass raises the
    # overflow error, with no RuntimeWarning first.
    @pytest.mark.parametrize("stddevs,sigma", [((1.0, 7e153), 1.0), ((1.0, 2e153), 3.0)],
                             ids=["gram", "diagonal-sums"])
    @pytest.mark.parametrize("trials,workers", [(50, 1), (256, 2)], ids=["serial", "pooled"])
    def test_diagnostics_that_overflow_raise(self, stddevs, sigma, trials, workers):
        spec = ExperimentSpec(IidBoundedColumns(stddevs), Gaussian(sigma), N=10, r=0.5, trials=trials, base_seed=1,
                              diagnostics=True)
        with pytest.raises(SimulationQualityError, match="^the normal equations overflow at N = 10;"):
            run_event_diagnostics(spec, workers=workers)

    # A fixed design whose Gram sums overflow fails when the run is planned
    # with the trials' overflow error, not as a rank-deficient design.
    def test_fixed_design_whose_gram_overflows_raises_the_overflow_error(self):
        design = FixedMatrix(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1e200, 1.0], [1.0, 2.0]]))
        spec = ExperimentSpec(design, Gaussian(1.0), N=5, r=0.5, trials=10, base_seed=1)
        for call in (lambda: run_tail(spec), lambda: implied_problem_params(design, Gaussian(1.0), N_hint=5)):
            with pytest.raises(SimulationQualityError, match="^the normal equations overflow at N = 5;"):
                call()

    def test_fixed_rank_deficient_fails_before_any_pool(self, monkeypatch):
        started = []

        class CountedPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountedPool)
        design = FixedMatrix(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
        spec = ExperimentSpec(design, Gaussian(1.0), N=3, r=0.5, trials=300, base_seed=3)
        with pytest.raises(SimulationQualityError, match="rank deficient at N = 3"):
            run_tail(spec, workers=2)
        assert started == []

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=1, r=0.4)
        with pytest.raises(ParameterError):
            ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, trials=0)
        # Counts that are not integers, and an infinite radius, which would
        # never be exceeded.
        for bad in ({"N": 100.5}, {"trials": 10.5}, {"N": "8"}, {"r": math.inf}, {"r": math.nan}):
            with pytest.raises(ParameterError):
                ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), **{"N": 4, "r": 0.4, **bad})
        spec = ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=np.int64(4), r=0.4, trials=np.int64(10))
        assert type(spec.N) is int and type(spec.trials) is int

    def test_specs_on_equal_fixed_matrices_are_equal(self):
        spec = ExperimentSpec(FixedMatrix(np.eye(4, 3)), Rademacher(1.0), N=4, r=0.4)
        same = replace(spec, design=FixedMatrix(np.eye(4, 3).copy()))
        assert spec == same and hash(spec) == hash(same)
        assert spec != replace(spec, design=FixedMatrix(2 * np.eye(4, 3)))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_a_seed_outside_64_bits_when_made(self, seed):
        # With as_seed's message, before a pass could start a pool and fail in its trials.
        rule = "at least 0" if seed < 0 else "a 64-bit unsigned int"
        with pytest.raises(ParameterError, match=f"base_seed must be {rule}, got {seed}"):
            ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, base_seed=seed)
        spec = ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, base_seed=np.uint64(2**64 - 1))
        assert spec.base_seed == 2**64 - 1 and type(spec.base_seed) is int

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one_before_any_trial(self, workers, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_trials", no_trials)
        spec = ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, trials=10, diagnostics=True)
        for run in (run_tail, run_event_diagnostics):
            with pytest.raises(ParameterError, match="workers must be at least 1"):
                run(spec, workers=workers)

    @pytest.mark.parametrize("trials", [10, 300])
    @pytest.mark.parametrize("workers", [1.5, 2.0, "2"])
    def test_rejects_a_worker_count_that_is_not_an_integer(self, trials, workers, monkeypatch):
        # At 300 trials such a count once reached the pool's set-up and raised
        # TypeError there; below 256 trials, 1.5 ran serially without a word.
        started = []

        class RecordedPool:
            """Records that it was made and starts no process."""

            def __init__(self, *args, **kwargs):
                started.append((args, kwargs))
                raise AssertionError("a pool was made")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordedPool)
        spec = ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, trials=trials, diagnostics=True)
        for run in (run_tail, run_event_diagnostics):
            with pytest.raises(ParameterError, match="workers must be an integer"):
                run(spec, workers=workers)
        assert started == []


class TestEventDiagnostics:
    def test_fixed_design_gram_event_is_deterministic(self):
        design = ToeplitzPilot((1.0,) * 64, p=1)
        spec = ExperimentSpec(design, Gaussian(1.0), N=32, r=1.0, trials=200, base_seed=4, diagnostics=True)
        diag = run_event_diagnostics(spec)
        assert diag.freq_e_rand in (0.0, 1.0)

    def test_two_sample_sign_instance_diagonal_event_certain(self):
        # all-ones 2x1 design, sign noise: the diagonal sum is 0.5 always,
        # above the 0.2 threshold obtained with r = sqrt(1.6)
        design = FixedMatrix(np.ones((2, 1)))
        spec = ExperimentSpec(
            design, Rademacher(1.0), N=2, r=math.sqrt(1.6), trials=500, base_seed=5, diagnostics=True
        )
        diag = run_event_diagnostics(spec)
        assert diag.freq_e2 == (1.0,)
        assert diag.lemma1_violations == 0
        assert diag.identity_violations == 0

    def test_quadratic_sum_split_against_double_loop(self):
        # production split (squared total minus diagonal) must equal the
        # explicit pairwise double sum
        rng_design = SeedSpec(6, 0, "design")
        rng_noise = SeedSpec(6, 0, "noise")
        design = IidBoundedColumns((1.0, 0.7), "scaled-uniform")
        A = design.sample(16, rng_design)
        v = Uniform(1.0).sample(16, rng_noise)
        N = 16
        for i in range(2):
            diag_sum = float(np.sum(A[:, i] ** 2 * v**2)) / N**2
            off_direct = 0.0
            for n in range(N):
                for l in range(N):
                    if l != n:
                        off_direct += A[n, i] * A[l, i] * v[n] * v[l]
            off_direct /= N**2
            total = (float(np.sum(A[:, i] * v)) / N) ** 2
            assert diag_sum + off_direct == pytest.approx(total, rel=1e-12)
            assert off_direct == pytest.approx(total - diag_sum, rel=1e-9, abs=1e-15)

    def test_gram_event_frequency_below_lemma_bound(self):
        # at the dedicated Gram sample count, the bad-eigenvalue event must be
        # rarer than the target level (plus Monte-Carlo slack)
        design = IidBoundedColumns((math.sqrt(0.2), 1.0), "scaled-uniform")
        params = implied_problem_params(design, Uniform(1.0))
        eps_prime = 0.05
        n = math.floor(bounds.n_rand(eps_prime, float(params.p), params)) + 1
        spec = ExperimentSpec(design, Uniform(1.0), N=n, r=0.5, trials=3000, base_seed=7, diagnostics=True)
        diag = run_event_diagnostics(spec)
        lo, hi = wilson_interval(round(diag.freq_e_rand * spec.trials), spec.trials)
        assert diag.freq_e_rand <= eps_prime + 3.0 * (hi - lo) / 2.0

    def test_requires_diagnostics_flag(self):
        spec = ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, trials=10, base_seed=1)
        with pytest.raises(ParameterError):
            run_event_diagnostics(spec)

    def test_reproducible_across_workers(self):
        design = IidBoundedColumns((1.0, 1.0), "scaled-uniform")
        spec = ExperimentSpec(design, Uniform(1.0), N=64, r=0.25, trials=600, base_seed=8, diagnostics=True)
        assert run_event_diagnostics(spec, workers=1) == run_event_diagnostics(spec, workers=2)


class TestUncovered:
    """uncovered counts the exceedances of r in which no event of the main
    bound fires: E_rand, and E2 and E3 at every coordinate.  The chain from
    those events to the sup norm is not proved, and no such trial is known."""

    def test_the_sup_norm_witness_is_counted_once_with_no_event(self):
        # p = 4, sigma_min = r = 1: (G/N)^-1 = 2uu^T + 0.1(I - uu^T), with
        # u = (cos t, sin t / sqrt 3 three times) at t = atan2(sqrt 3, 1) / 2,
        # and s_k = +-1/2 with the signs of its first row.  lambda_min(G/N) = 1/2
        # exactly would round to 0.4999999999999996 and fire E_rand, so the 2
        # gets a 1e-9 margin.  Each s_k^2 = 1/4 splits into a diagonal and an
        # off-diagonal sum of 1/8, the threshold sigma_min^2 r^2 / 8, which
        # neither exceeds; yet the error's first coordinate is 1.475.
        t = 0.5 * math.atan2(math.sqrt(3.0), 1.0)
        u = np.array([math.cos(t), *[math.sin(t) / math.sqrt(3.0)] * 3])
        P, I = np.outer(u, u), np.eye(4)
        s_vec = 0.5 * np.sign((2.0 - 1e-9) * P + 0.1 * (I - P))[0]
        gram = P / (2.0 - 1e-9) + (I - P) / 0.1
        err = np.linalg.solve(gram, s_vec)
        assert np.max(np.abs(err)) == pytest.approx(1.475, abs=1e-8)
        # Held at N = 128, a power of two, so G = N gram and a^T v = N s_vec
        # divide back exactly and solve to err bit for bit.
        assert _solve(128 * gram[None], 128 * s_vec[None])[0].tobytes() == err[None].tobytes()
        counts = _count([(128, 1.0, 1.0)], 128 * gram[None, None], 128 * s_vec[None, None], [np.full((1, 4), 0.125)])
        # exceedances, invalid, e_rand, lemma 1, identity, uncovered, then e2 and e3
        assert counts[0].tolist() == [1, 0, 0, 0, 0, 1] + [0] * 8

    @pytest.mark.parametrize(
        "figure,panel,N,r,exceedances",
        [("fig3", 0, 100, 2.0, 378), ("fig3", 0, 300, 2.0, 5), ("fig2", 0, 400, 0.15, 30),
         ("fig4", 2, 200, 8.0, 52)],
        ids=["fig3-N100", "fig3-N300", "fig2-N400", "fig4-cond25-N200"],
    )
    def test_no_uncovered_exceedance_at_preset_settings(self, figure, panel, N, r, exceedances):
        # E2 fires on nearly every trial at the three smaller N; at fig3 N = 300
        # it fires on none, so E3 alone must cover its exceedances.
        design, noise = FIGURES[figure].panels[panel].models(71)
        sigma_min = implied_problem_params(design, noise).sigma_min
        spec = ExperimentSpec(design, noise, N=N, r=r, trials=2000, base_seed=71)
        counts = chunk_counts(spec, 0, spec.trials, [(N, r, sigma_min)])[0]
        assert (counts[0], counts[5]) == (exceedances, 0)


class TestPinnedSeededCounts:
    """Literal results at fixed seeds, recorded on the SFC64 trial streams
    and their sign law.  A refactor of the trial path must reproduce them; a
    flipped count means a stream or the error arithmetic changed."""

    def test_random_design_tail(self):
        design, noise = fig2_models()
        est = run_tail(ExperimentSpec(design, noise, N=200, r=0.15, trials=4000, base_seed=7))
        assert (est.exceed_count, est.invalid_trials) == (400, 0)

    def test_fixed_design_fir_tail_two_workers(self):
        design = channel_pilot_design(p=8)
        spec = ExperimentSpec(design, fir_mds_with_param(1.0), N=1000, r=0.05, trials=4000, base_seed=9)
        est = run_tail(spec, workers=2)
        assert (est.exceed_count, est.trials) == (17, 4000)

    def test_event_diagnostics(self):
        design = IidBoundedColumns((1.0,) * 4, "scaled-uniform")
        spec = ExperimentSpec(design, Gaussian(10.0), N=20, r=4.0, trials=1000, base_seed=3, diagnostics=True)
        assert run_event_diagnostics(spec) == EventDiagnostics(
            trials=1000,
            freq_e_rand=0.506,
            freq_e2=(0.936, 0.931, 0.944, 0.95),
            freq_e3=(0.247, 0.234, 0.231, 0.261),
            lemma1_violations=0,
            identity_violations=0,
            uncovered=0,
        )

    def test_fixed_design_event_diagnostics_two_workers(self):
        design, noise = fig5_models()
        spec = ExperimentSpec(design, noise, N=40, r=0.05, trials=500, base_seed=5, diagnostics=True)
        assert run_event_diagnostics(spec, workers=2) == EventDiagnostics(
            trials=500,
            freq_e_rand=0.0,
            freq_e2=(0.0,) * 8,
            freq_e3=(0.056, 0.044, 0.068, 0.05, 0.04, 0.08, 0.05, 0.044),
            lemma1_violations=0,
            identity_violations=0,
            uncovered=0,
        )


class TestSweep:
    DESIGN = IidBoundedColumns((math.sqrt(0.2), 1.0), "scaled-uniform")
    NOISE = Uniform(1.0)

    def base(self, trials=400):
        return ExperimentSpec(self.DESIGN, self.NOISE, N=8, r=1.0, trials=trials, base_seed=11)

    def test_single_point_matches_direct_calls(self):
        params = implied_problem_params(self.DESIGN, self.NOISE)
        rows = sweep(self.base(), "r", [0.5], "main", eps=0.01)
        assert len(rows) == 1
        row = rows[0]
        bd = bounds.n_main(Accuracy(r=0.5, eps=0.01), params)
        est = run_tail(replace(self.base(), N=bd.n_ceil, r=0.5))
        assert row == ResultRow(
            axis_name="r",
            axis_value=0.5,
            n_bound_real=bd.n_final,
            n_bound_ceil=bd.n_ceil,
            binding_term=bd.binding,
            s_opt_n2=bd.s_opt_n2,
            s_opt_n3=bd.s_opt_n3,
            tau_opt=bd.tau_opt,
            p_hat=est.p_hat,
            ci_low=est.ci_low,
            ci_high=est.ci_high,
            trials=est.trials,
            seed=11,
        )

    def test_eps_axis(self):
        rows = sweep(self.base(), "eps", [0.05, 0.01], "main")
        assert [row.axis_value for row in rows] == [0.05, 0.01]
        assert rows[1].n_bound_real >= rows[0].n_bound_real

    def test_n_axis_carries_outage_bound(self):
        params = implied_problem_params(self.DESIGN, self.NOISE)
        rows = sweep(self.base(), "N", [400, 800], "main")
        expected = bounds.eps_of_n(1.0, 400, params).eps_final
        assert rows[0].n_bound_real == pytest.approx(expected, rel=1e-12)
        assert rows[0].n_bound_ceil is None and rows[0].binding_term is None
        assert rows[1].n_bound_real <= rows[0].n_bound_real

    def test_n_axis_at_or_below_the_variance_floor(self):
        # alpha = sqrt(3), sigma_min = R = r = 1: the floor
        # 4*alpha^2*R^2/(sigma_min^2 r^2) is 12, so these rows have no guarantee.
        design = IidBoundedColumns((1.0, 1.0))
        base = ExperimentSpec(design, self.NOISE, N=8, r=1.0, trials=50, base_seed=11)
        rows = sweep(base, "N", [3, 4], "main")
        assert [row.n_bound_real for row in rows] == [1.0, 1.0]
        assert [row.trials for row in rows] == [50, 50]

    def test_requires_axis_values(self):
        with pytest.raises(ParameterError):
            sweep(self.base(), "r", [], "main", eps=0.01)
        with pytest.raises(ParameterError):
            sweep(self.base(), "radius", [0.5], "main", eps=0.01)
        with pytest.raises(ParameterError):
            sweep(self.base(), "r", [0.5], "main")  # eps missing

    def test_fixed_matrix_runs_only_on_n_axis(self):
        design = FixedMatrix(np.random.default_rng(0).uniform(-1.0, 1.0, (400, 2)))
        base = ExperimentSpec(design, Gaussian(0.1), N=400, r=0.5, trials=40, base_seed=3)
        for axis, values in (("r", [0.5]), ("eps", [0.05])):
            with pytest.raises(ParameterError, match="only on the N axis"):
                sweep(base, axis, values, "fixed_mds", eps=0.05)
        (row,) = sweep(base, "N", [400], "fixed_mds")
        assert row.axis_value == 400 and row.trials == 40

    def test_an_unknown_bound_tag_is_rejected_before_any_design_is_measured(self, monkeypatch):
        # Such a tag once had a random design measured before bound_for rejected
        # it, and a non-random design reported as one no bound covers.
        monkeypatch.setattr(montecarlo, "implied_problem_params", lambda *args, **kw: pytest.fail("measured"))
        for base in (self.base(), ExperimentSpec(ALL_ONES_4x1, self.NOISE, N=4, r=1.0, trials=10)):
            with pytest.raises(ParameterError, match="^unknown bound tag 'bogus'"):
                sweep(base, "N", [4], "bogus")

    def test_fixed_mds_rejects_a_random_design(self):
        # Its sigma_min would be the population one, not that of the Gram
        # matrix each trial draws.
        with pytest.raises(ParameterError, match="covers only a non-random design"):
            sweep(self.base(), "r", [0.4], "fixed_mds", eps=0.01)


def own_n_err_max(spec: ExperimentSpec, N: int) -> list:
    """Oracle: the max-coordinate error of each trial drawn at N itself, by
    the models' own samplers and ls_solve; None for a rank-deficient draw."""
    out = []
    for t in range(spec.trials):
        trial = 0 if not spec.design.random else t
        A = spec.design.sample(N, SeedSpec(spec.base_seed, trial, "design"))
        v = spec.noise.sample(N, SeedSpec(spec.base_seed, t, "noise"))
        err = ls_solve(A, v)
        out.append(None if err is None else float(np.max(np.abs(err))))
    return out


class TestFixedMdsCoversFirNoise:
    """FIR interference is not a martingale difference (see test_models.py),
    yet fixed_mds covers it on a fixed design by the route in the bounds
    module docstring; each step is checked on fig5's matrix.  c_i is row i of
    G^-1 A^T and H the lower-triangular Toeplitz matrix of jammer_scale*taps."""

    PANEL = FIGURES["fig5"].panels[0]

    @pytest.mark.parametrize("r", PANEL.values)
    def test_route_holds_at_each_fig5_row(self, r):
        design, noise = fig5_models()
        N, params, bd = fixed_design_bound(Accuracy(r, self.PANEL.eps), design, noise)
        A = design.sample(N, SeedSpec(0, 0, "design"))
        C = np.linalg.solve(A.T @ A, A.T)
        H = sum(noise.jammer_scale * t * np.eye(N, k=-k) for k, t in enumerate(noise.taps))
        c_norm = np.linalg.norm(C, axis=1)
        young = noise.jammer_scale * np.sum(np.abs(noise.taps)) * c_norm
        assert np.all(np.linalg.norm(C @ H, axis=1) <= young)
        assert np.all(c_norm * math.sqrt(N * params.sigma_min) <= 1.0)
        hoeffding = 2.0 * params.R**2 * math.log(2 * params.p / self.PANEL.eps) / (params.sigma_min * r**2)
        margin = 4.0 * params.alpha**2 / params.sigma_min
        assert bd.n_final / hoeffding == pytest.approx(margin, rel=1e-12)
        # sigma_min <= (G/N)_kk <= alpha^2, so the margin is at least 4.
        assert params.sigma_min <= np.min(np.diag(A.T @ A)) / N <= params.alpha**2
        assert margin >= 4.0


def n_ceil_at(acc, design, noise, N):
    """The fixed-design bound's ceiling at the N-row matrix of design."""
    return bounds.bound_for("fixed_mds", acc, implied_problem_params(design, noise, N_hint=N)).n_ceil


class TestFixedDesignOvershoot:
    """fixed_design_bound returns the smallest self-consistent N.  The bound's
    ceiling at N can jump past it: at fig5's matrix and r = eps = 0.01, the
    ceiling at 6240 rows is 6243 > 6241, where a fixed-point iteration from
    4p rows ran past the 8192-symbol pilot budget."""

    ACC = Accuracy(0.01, 0.01)

    @pytest.fixture(scope="class")
    def scan(self):
        return fixed_design_bound(self.ACC, *fig5_models())

    def test_witness(self, scan):
        assert n_ceil_at(self.ACC, *fig5_models(), 6241) == 6237
        assert n_ceil_at(self.ACC, *fig5_models(), 6240) == 6243
        assert scan[0] == 6241

    def test_returns_a_self_consistent_n_within_the_budget(self, scan):
        N, params, bd = scan
        assert bd.n_ceil <= N == 6241
        assert params == implied_problem_params(*fig5_models(), N_hint=N)
        assert bd == bounds.bound_for("fixed_mds", self.ACC, params)


class TestFixedDesignScan:
    """The scan tries N = p+1, p+2, ... and stops at the first N whose bound
    at its own matrix is at most N."""

    PANEL = FIGURES["fig5"].panels[0]

    @pytest.mark.parametrize("r", PANEL.values)
    def test_each_fig5_row_runs_at_the_smallest_self_consistent_n(self, r):
        acc, (design, noise) = Accuracy(r, self.PANEL.eps), fig5_models()
        N, _, bd = fixed_design_bound(acc, design, noise)
        assert bd.n_ceil == n_ceil_at(acc, design, noise, N) <= N
        # N - 1 fails, and so does every smaller N.
        assert all(n_ceil_at(acc, design, noise, n) > n for n in range(design.p + 1, N))

    def test_self_consistency_is_not_monotone_in_n(self):
        # 362 and 363 pass and 364 fails, so a bisection over N could stop
        # at a later change from fail to pass than the first.
        acc, (design, noise) = Accuracy(0.05, 0.01), fig5_models()
        passes = [n_ceil_at(acc, design, noise, N) <= N for N in (361, 362, 363, 364)]
        assert passes == [False, True, True, False]
        assert fixed_design_bound(acc, design, noise)[0] == 362

    def test_moves_past_a_rank_deficient_prefix(self):
        # At p = 48 the 49-row prefix of this pilot matrix fails the trials'
        # rank rule; such an N is not self-consistent, so the scan goes on.
        acc, noise = Accuracy(0.2, 0.01), fir_mds_with_param(0.1)
        design = channel_pilot_design(p=48, length=4096, seed=20)
        A = design.sample(49, SeedSpec(0, 0, "design"))
        assert not _full_rank((A.T @ A)[None])[0]
        with pytest.raises(SimulationQualityError, match="rank deficient at N = 49"):
            implied_problem_params(design, noise, N_hint=49)
        N, params, bd = fixed_design_bound(acc, design, noise)
        assert bd.n_ceil == n_ceil_at(acc, design, noise, N) <= N
        assert params == implied_problem_params(design, noise, N_hint=N)

    @pytest.mark.parametrize("r,eps", [*zip(PANEL.values, itertools.repeat(PANEL.eps)), (0.01, 0.01)])
    def test_scan_from_its_floor_equals_a_scan_from_p_plus_one(self, r, eps, monkeypatch):
        # The scan skips only N that a scan from p + 1 rejects, so both return
        # one triple; at r = eps = 0.01 that is N = 6241.
        acc, (design, noise) = Accuracy(r, eps), fig5_models()
        for N in itertools.count(design.p + 1):  # fig5's matrix has no rank-deficient prefix
            params = implied_problem_params(design, noise, N_hint=N)
            bd = bounds.bound_for("fixed_mds", acc, params)
            if bd.n_ceil <= N:
                full = N, params, bd
                break
        measured = []

        def counted(design, noise, N_hint):
            measured.append(N_hint)
            return implied_problem_params(design, noise, N_hint=N_hint)

        monkeypatch.setattr(montecarlo, "implied_problem_params", counted)
        assert fixed_design_bound(acc, design, noise) == full
        assert measured == list(range(measured[0], full[0] + 1)) and measured[0] > design.p + 1

    def test_pilot_budget_ends_the_scan(self):
        # The scan starts at 4061, the bound's ceiling at alpha = sigma_min = 1,
        # past the 256 pilots.
        design = channel_pilot_design(p=4, length=256, seed=5)
        t0 = time.perf_counter()
        with pytest.raises(ParameterError, match="need at least N = 4061 pilot symbols, have 256"):
            fixed_design_bound(Accuracy(0.01, 0.05), design, Gaussian(0.1))
        assert time.perf_counter() - t0 < 0.1


class TestOnePassSweep:
    """A sweep draws each trial once at its largest N and reads every row off
    the prefix; each row's counts must equal a run at the row's own N."""

    # Unsorted and repeated N; a repeated N carries a different radius.
    SIZES = (40, 12, 40, 90, 12)
    QUANTILES = (0.5, 0.3, 0.2, 0.5, 0.45)
    DESIGNS = {
        "uniform": (IidBoundedColumns((1.0, 0.5), "scaled-uniform"), SIZES),
        # At N = 3 the two sign columns collide on a quarter of the trials.
        "rademacher": (IidBoundedColumns((1.0, 0.5), "scaled-rademacher"), (40, 3, 40, 90, 3)),
        "toeplitz": (channel_pilot_design(p=3, length=128, seed=4), SIZES),
        # A fixed matrix has only its own row count.
        "fixed-matrix": (FixedMatrix(np.random.default_rng(2).uniform(-1.0, 1.0, (50, 3))), (50,) * 5),
    }
    NOISES = {
        "gaussian": Gaussian(1.0),
        "mixture": GaussianMixture(0.5, 2.0, 0.2),
        "uniform": Uniform(1.0),
        "uniform-plus-gaussian": UniformPlusGaussian(1.0, 0.3),
        "rademacher": Rademacher(1.0),
        "fir": FirMds((1.0, 0.5), 0.8, Gaussian(0.2)),
    }

    @pytest.mark.parametrize("noise", NOISES)
    @pytest.mark.parametrize("design", DESIGNS)
    def test_counts_match_own_n_oracle(self, design, noise):
        design, sizes = self.DESIGNS[design]
        spec = ExperimentSpec(design, self.NOISES[noise], N=max(sizes), r=1.0, trials=60, base_seed=17)
        rows, expected = [], []
        for N, q in zip(sizes, self.QUANTILES):
            errs = own_n_err_max(spec, N)
            valid = [e for e in errs if e is not None]
            # A radius midway between two clearly distinct errors, so that a
            # rounding difference between solve routes flips no comparison.
            vals = np.sort(valid)
            gaps = [(a + b) / 2 for a, b in zip(vals, vals[1:]) if b - a > 1e-9 * b]
            r = float(min(gaps, key=lambda m: abs(m - np.quantile(vals, q))))
            rows.append((N, r))
            expected.append([sum(e > r for e in valid), len(errs) - len(valid)])
        counts = chunk_counts(spec, 0, spec.trials, tuple((N, r, None) for N, r in rows)).tolist()
        assert counts == expected
        assert all(exceed > 0 for exceed, _ in counts)
        if design.p == 2 and design.entry_law == "scaled-rademacher":
            assert all((invalid > 0) == (N == 3) for (N, _), (_, invalid) in zip(rows, counts))

    @pytest.mark.parametrize("design", ["uniform", "toeplitz"])
    def test_prefix_errors_bit_identical_to_own_n_runs(self, design):
        design, sizes = self.DESIGNS[design]
        spec = ExperimentSpec(design, Uniform(1.0), N=max(sizes), r=1.0, trials=20, base_seed=5)
        distinct = tuple(dict.fromkeys(sizes))
        G, rhs, _ = _trials(spec, 0, spec.trials, undiagnosed(distinct), plan_of(spec, distinct))
        one_pass = [(N, row) for N, errs in zip(distinct, _solve(G, rhs)[0]) for row in errs]
        for N in distinct:
            G, rhs, _ = _trials(replace(spec, N=N), 0, spec.trials, undiagnosed((N,)), plan_of(spec, (N,)))
            own = list(_solve(G, rhs)[0][0])
            prefix = [err for n, err in one_pass if n == N]
            assert len(prefix) == len(own) == spec.trials
            assert all(np.array_equal(a, b) for a, b in zip(prefix, own))

    def test_rows_equal_run_tail_at_own_n(self):
        design, noise = fig2_models()
        spec = ExperimentSpec(design, noise, N=8, r=0.15, trials=300, base_seed=7)
        rows = [(400, 0.15), (150, 0.15), (400, 0.1), (150, 0.3)]
        assert self.tail_estimates(spec, rows) == [
            run_tail(replace(spec, N=N, r=r)) for N, r in rows
        ]

    def test_invalid_limit_is_per_row(self):
        design, _ = self.DESIGNS["rademacher"]
        spec = ExperimentSpec(design, Gaussian(1.0), N=8, r=0.5, trials=400, base_seed=3)
        (est,) = self.tail_estimates(spec, [(40, 0.5)])
        assert est.invalid_trials == 0
        with pytest.raises(SimulationQualityError):
            self.tail_estimates(spec, [(40, 0.5), (3, 0.5)])

    @staticmethod
    def tail_estimates(spec, rows):
        """The TailEstimate of each (N, r) row, from one serial pass."""
        counts = _run_chunks(spec, [(N, r, None) for N, r in rows], workers=1)
        return [_tail_estimate(spec, row_counts) for row_counts in counts]

    def sweep_args(self, trials):
        design, noise = fig5_models()
        base = ExperimentSpec(design, noise, N=9, r=0.01, trials=trials, base_seed=21)
        return base, "N", [1500, 600, 1500, 900], "fixed_mds"

    def test_serial_equals_two_workers(self):
        args = self.sweep_args(trials=300)
        assert sweep(*args, workers=1) == sweep(*args, workers=2)

    def test_serial_sweep_draws_each_trial_once(self, monkeypatch):
        calls = []
        args = self.sweep_args(trials=50)
        law = type(args[0].noise)
        sample = law.sample

        def counted(model, n, seed, out=None):
            calls.append((n, seed.trial))
            return sample(model, n, seed, out)

        monkeypatch.setattr(law, "sample", counted)
        sweep(*args)
        assert [n for n, _ in calls] == [1500] * len(calls)
        assert [t for _, trials in calls for t in trials] == list(range(50))

    def test_a_pass_draws_each_block_in_one_call_per_model(self, monkeypatch):
        # fig3 at N = 1987: blocks of 524288 // (8 * 1987 * 5) = 6 trials, so
        # 400 trials make 67 blocks and 67 sample calls per model, not 400.
        roles = []
        design, noise = FIGURES["fig3"].panels[0].models(0)
        for model in (design, noise):
            def counted(self, n, seed, out=None, sample=type(model).sample):
                roles.append(seed.role)
                return sample(self, n, seed, out)

            monkeypatch.setattr(type(model), "sample", counted)
        spec = ExperimentSpec(design, noise, N=1987, r=1.0, trials=400, diagnostics=True)
        run_event_diagnostics(spec)
        assert (roles.count("design"), roles.count("noise")) == (67, 67)

    def test_sweep_starts_at_most_one_pool(self, monkeypatch):
        started = []

        class CountedPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountedPool)
        sweep(*self.sweep_args(trials=300), workers=2)
        assert len(started) == 1


class TestPooledPass:
    """A pooled pass goes to each of its pool's workers - 1 processes once,
    by the pool's initializer; its tasks carry only (start, stop), and the
    calling process runs a share of the chunks itself."""

    CASES = {
        "fig3-random": (*FIGURES["fig3"].panels[0].models(0), ((600, 1.0, None), (300, 2.0, 1.0))),
        "toeplitz": (
            channel_pilot_design(p=4, length=2048, seed=5),
            Gaussian(0.1),
            ((2000, 0.05, None), (1000, 0.1, 1.0)),
        ),
    }

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_pass_is_sent_once_and_the_caller_runs_a_share(self, case, workers, monkeypatch):
        design, noise, rows = self.CASES[case]
        spec = ExperimentSpec(design, noise, N=design.p + 1, r=1.0, trials=300, base_seed=4)
        pools, tasks, pids = [], [], []

        class RecordedPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                tasks.append(args + tuple(kwargs.values()))
                return super().submit(fn, *args, **kwargs)

        trials = montecarlo._trials

        def recorded(*args):
            pids.append(os.getpid())  # a pool process appends to its own copy
            return trials(*args)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordedPool)
        monkeypatch.setattr(montecarlo, "_trials", recorded)
        counts = _run_chunks(spec, rows, workers)
        assert pools == [workers - 1]
        assert tasks and all(len(args) == 2 and all(type(a) is int for a in args) for args in tasks)
        assert os.getpid() in pids
        assert np.array_equal(counts, chunk_counts(spec, 0, spec.trials, rows))

    def test_a_pool_starts_no_more_processes_than_tasks(self, monkeypatch):
        # 256 trials at 300 workers make 256 one-trial tasks, and none for the caller.
        design, noise, rows = self.CASES["fig3-random"]
        spec = ExperimentSpec(design, noise, N=design.p + 1, r=1.0, trials=256, base_seed=4)
        pools, tasks = [], []

        class InlinePool:
            """Runs each task when it is submitted, in this process; starts none."""

            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, /, *args):
                tasks.append(args)
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(montecarlo, "_POOLED", None, raising=False)  # the initializer's global, undone after
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
        counts = _run_chunks(spec, rows, 300)
        assert pools == [256] and len(tasks) == 256
        assert np.array_equal(counts, chunk_counts(spec, 0, spec.trials, rows))


def oracle_diagnostics(spec: ExperimentSpec) -> EventDiagnostics:
    """Oracle: run_event_diagnostics one trial at a time, by the models' own
    samplers and ls_solve and the per-trial event formulas."""
    sigma_min = implied_problem_params(spec.design, spec.noise, N_hint=spec.N).sigma_min
    N, p = spec.N, spec.design.p
    threshold = sigma_min**2 * spec.r**2 / 8.0
    tilde_limit = 2.0 / sigma_min
    e2 = np.zeros(p, dtype=np.int64)
    e3 = np.zeros(p, dtype=np.int64)
    e_rand = lemma1_bad = identity_bad = uncovered = 0
    for t in range(spec.trials):
        A = spec.design.sample(N, SeedSpec(spec.base_seed, t if spec.design.random else 0, "design"))
        v = spec.noise.sample(N, SeedSpec(spec.base_seed, t, "noise"))
        err = ls_solve(A, v)
        if err is None:
            e_rand += 1
            continue
        G = A.T @ A
        lam_min = float(np.linalg.eigvalsh(G / N)[0])
        lam_tilde = 1.0 / lam_min if lam_min > 0 else math.inf
        s_vec = (A.T @ v) / N
        total_sq = s_vec**2
        diag_sum = (A * A).T @ (v * v) / N**2
        off_sum = total_sq - diag_sum
        e2 += diag_sum > threshold
        e3 += off_sum > threshold
        e_rand += lam_tilde > tilde_limit
        err_max = float(np.max(np.abs(err)))
        lemma1_bad += err_max > lam_tilde * float(np.linalg.norm(s_vec)) + montecarlo.LEMMA1_TOL
        fired = lam_tilde > tilde_limit or np.any(diag_sum > threshold) or np.any(off_sum > threshold)
        uncovered += err_max > spec.r and not fired
        scale = np.maximum.reduce(
            [np.abs(total_sq), np.abs(diag_sum), np.abs(off_sum), np.full_like(total_sq, 1e-300)]
        )
        identity_bad += bool(
            np.any(np.abs(diag_sum + off_sum - total_sq) > montecarlo.IDENTITY_RTOL * scale)
        )
    n = spec.trials
    return EventDiagnostics(
        trials=n,
        freq_e_rand=e_rand / n,
        freq_e2=tuple(float(x) for x in e2 / n),
        freq_e3=tuple(float(x) for x in e3 / n),
        lemma1_violations=lemma1_bad,
        identity_violations=identity_bad,
        uncovered=uncovered,
    )


FIG3_DESIGN, FIG3_NOISE = IidBoundedColumns((1.0,) * 4, "scaled-uniform"), Gaussian(10.0)
# Two sign columns collide on a quarter of the trials at N = 3.
SIGNS_2 = IidBoundedColumns((1.0, 1.0), "scaled-rademacher")


class TestTrialBlocks:
    """_trials runs trials in blocks of B, with stacked solves and stacked
    event reductions; no count may depend on where the blocks start and end,
    and each must equal the per-trial computation."""

    CASES = {
        "uniform": (
            IidBoundedColumns((1.0, 0.5), "scaled-uniform"), Gaussian(1.0), ((90, 0.15), (12, 0.5), (90, 0.3))
        ),
        "toeplitz": (channel_pilot_design(p=8), fir_mds_with_param(0.1), ((900, 0.003), (300, 0.005))),
        "rademacher": (SIGNS_2, Gaussian(1.0), ((3, 1.0), (3, 2.0))),
        # One stacked factor for both sizes, with rank-deficient trials at N = 3 only.
        "rademacher-two-sizes": (SIGNS_2, Gaussian(1.0), ((3, 1.0), (40, 0.5))),
    }

    @staticmethod
    def split_spec(case):
        """A spec of the case at its largest N whose trial count T is not a
        multiple of the block size B, and the sub-ranges split at 1, B - 1 and B + 1."""
        design, noise, rows = case
        n_max = max(N for N, _ in rows)
        per_row = 8 * n_max * (design.p + 1 if design.random else 1)
        B = max(1, montecarlo.BLOCK_BYTES // per_row)
        T = B + 7
        assert B > 7 and T % B
        spec = ExperimentSpec(design, noise, N=n_max, r=rows[0][1], trials=T, base_seed=31, diagnostics=True)
        cuts = [0, 1, B - 1, B + 1, T]
        return spec, list(zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("case", CASES)
    def test_sweep_counts_do_not_depend_on_blocks(self, case, monkeypatch):
        raised = []
        cholesky = np.linalg.cholesky

        def counted(G):
            try:
                return cholesky(G)
            except np.linalg.LinAlgError:
                raised.append(len(G))
                raise

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        rows = self.CASES[case][2]
        spec, ranges = self.split_spec(self.CASES[case])
        whole = chunk_counts(spec, 0, spec.trials, [(N, r, None) for N, r in rows])
        parts = [chunk_counts(spec, a, b, [(N, r, None) for N, r in rows]) for a, b in ranges]
        assert np.array_equal(whole, sum(parts))
        assert all(0 < exceed < spec.trials for exceed, _ in whole.tolist())
        if spec.design is SIGNS_2:
            own = {N: [e is None for e in own_n_err_max(spec, N)] for N, _ in rows}
            assert [any(own[N]) for N, _ in rows] == [N == 3 for N, _ in rows]
            for (a, b), counts in zip([(0, spec.trials), *ranges], [whole, *parts]):
                assert counts[:, 1].tolist() == [sum(own[N][a:b]) for N, _ in rows]
            assert any(n > 1 for n in raised)  # a stack with a singular Gram fell back per matrix
        else:
            assert not whole[:, 1].any()

    # Diagnostics run at the largest N alone, where the two-size case has no
    # rank-deficient trial and, at r = 1, no diagonal event.
    @pytest.mark.parametrize("case", [case for case in CASES if case != "rademacher-two-sizes"])
    def test_diag_counts_do_not_depend_on_blocks(self, case):
        spec, ranges = self.split_spec(self.CASES[case])
        sigma_min = implied_problem_params(spec.design, spec.noise, N_hint=spec.N).sigma_min
        rows = [(spec.N, spec.r, sigma_min)]
        (whole,) = chunk_counts(spec, 0, spec.trials, rows)
        parts = [chunk_counts(spec, a, b, rows)[0] for a, b in ranges]
        assert np.array_equal(whole, sum(parts))
        diag = _event_diagnostics(spec.trials, whole)
        assert any(diag.freq_e2) and any(diag.freq_e3)
        assert (diag.freq_e_rand > 0) == (case == "rademacher")

    @staticmethod
    def spy_chunks(monkeypatch, random_design):
        """Wrap _count to record, per chunk, its trials and the bytes of
        statistics it is handed (a non-random design's G, its plan's, aside)."""
        calls, count = [], montecarlo._count

        def spy(rows, G, rhs, diag_sums):
            held = [rhs, *diag_sums, *[G][: bool(random_design)]]
            calls.append((rhs.shape[1], sum(x.nbytes for x in held)))
            return count(rows, G, rhs, diag_sums)

        monkeypatch.setattr(montecarlo, "_count", spy)
        return calls

    # Every row of a case diagnosed, beside an undiagnosed row at its largest
    # N; the Rademacher case's rank-deficient trials at N = 3 must be added
    # once for each row, however often its statistics are counted.
    @pytest.mark.parametrize("case", [case for case in CASES if case != "rademacher-two-sizes"])
    def test_counts_do_not_depend_on_where_held_statistics_are_counted(self, case, monkeypatch):
        spec, _ = self.split_spec(self.CASES[case])
        sigma_min = implied_problem_params(spec.design, spec.noise, N_hint=spec.N).sigma_min
        rows = [(N, r, sigma_min) for N, r in self.CASES[case][2]] + [(spec.N, spec.r, None)]
        calls = self.spy_chunks(monkeypatch, spec.design.random)
        once = _run_chunks(spec, rows, 1), repr(run_event_diagnostics(spec))
        assert len(calls) == 2  # one chunk for each run
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 1)  # one trial a block and a chunk
        calls.clear()
        every = _run_chunks(spec, rows, 1), repr(run_event_diagnostics(spec))
        assert len(calls) == 2 * spec.trials
        assert np.array_equal(once[0], every[0]) and once[1] == every[1]
        assert (once[0][:, 1] > 0).tolist() == [case == "rademacher"] * len(rows)

    def test_a_chunk_holds_at_most_block_bytes_of_statistics(self, monkeypatch):
        params = implied_problem_params(FIG3_DESIGN, FIG3_NOISE)
        spec = ExperimentSpec(FIG3_DESIGN, FIG3_NOISE, N=200, r=2.0, trials=2000, base_seed=13, diagnostics=True)
        rows = [(N, 2.0, params.sigma_min) for N in (200, 120, 60)]
        calls = self.spy_chunks(monkeypatch, spec.design.random)
        counts = _run_chunks(spec, rows, 1)
        assert len(calls) > 2 and all(nbytes <= montecarlo.BLOCK_BYTES or trials == 1 for trials, nbytes in calls)
        assert max(nbytes for _, nbytes in calls) > montecarlo.BLOCK_BYTES // 2
        assert sum(trials for trials, _ in calls) == spec.trials  # each trial counted once
        assert counts[:, 2:].any()
        assert np.array_equal(counts, chunk_counts(spec, 0, spec.trials, rows))  # as one chunk counts them

    def test_a_rank_deficient_trial_costs_log_factors(self, monkeypatch):
        # 1 of 4,000 trials draws colliding sign columns at N = 12.  The chunk's
        # one stacked factor raises, and halving finds each such trial in at most
        # 2 log2(4000) more calls; each still counts as invalid.
        spec = ExperimentSpec(SIGNS_2, Gaussian(1.0), N=12, r=1.0, trials=4000, base_seed=5)
        own = own_n_err_max(spec, 12)
        invalid = sum(e is None for e in own)
        calls = TestFullRankSolve.count_cholesky(monkeypatch)
        counts = chunk_counts(spec, 0, spec.trials, [(12, 1.0, None)])
        assert invalid == 1
        assert counts[0].tolist() == [sum(e is not None and e > 1.0 for e in own), invalid]
        assert calls[0] == (spec.trials, True)
        assert len(calls) <= 1 + 2 * invalid * math.ceil(math.log2(spec.trials))

    @pytest.mark.parametrize(
        "design,sizes",
        [
            (channel_pilot_design(p=8), (900, 37, 362)),
            (FixedMatrix(np.random.default_rng(2).uniform(-1.0, 1.0, (60, 3))), (60,)),
        ],
        ids=["toeplitz", "fixed-matrix"],
    )
    def test_fixed_design_errors_equal_one_trial_solve(self, design, sizes):
        # A fixed design runs through the random designs' stacked rank check
        # and solve, so each error is its trial's own solve(A^T A, A^T v).
        B = montecarlo.BLOCK_BYTES // (8 * max(sizes))
        spec = ExperimentSpec(design, Gaussian(1.0), N=max(sizes), r=1.0, trials=B + 7, base_seed=11)
        own = {}
        for N in sizes:
            A = design.sample(N, SeedSpec(11, 0, "design"))
            noise = (spec.noise.sample(N, SeedSpec(11, t, "noise")) for t in range(spec.trials))
            own[N] = [np.linalg.solve(A.T @ A, A.T @ v) for v in noise]
        cuts = [0, 1, B - 1, B + 1, spec.trials]
        plan = _measure_design(design, sizes)
        for a, b in [(0, spec.trials), *zip(cuts, cuts[1:])]:
            got = {N: [] for N in sizes}
            G, rhs, _ = _trials(spec, a, b, undiagnosed(sizes), plan)
            err, ok = _solve(G, rhs)
            assert ok.all()
            for N, err_N in zip(sizes, err):
                got[N].extend(err_N)
            for N in sizes:
                assert len(got[N]) == b - a
                assert all(x.tobytes() == y.tobytes() for x, y in zip(got[N], own[N][a:b]))

    def test_rows_count_their_own_events(self):
        # Rows at one N share its eigensolve and quadratic sums, yet each
        # diagnosed row counts at its own r and sigma_min, as a lone run does.
        params = implied_problem_params(FIG3_DESIGN, FIG3_NOISE)
        spec = ExperimentSpec(FIG3_DESIGN, FIG3_NOISE, N=8, r=1.0, trials=300, base_seed=13, diagnostics=True)
        rows = [(200, 2.0, params.sigma_min), (120, 3.0, None), (200, 2.0, 0.8 * params.sigma_min)]
        counts = chunk_counts(spec, 0, spec.trials, rows)
        assert counts[0, 2:].any() and counts[2, 2:].any() and not np.array_equal(counts[0], counts[2])
        for (N, r, sigma_min), row_counts in zip(rows, counts):
            own = replace(spec, N=N, r=r)
            assert _tail_estimate(own, row_counts) == run_tail(own)
            if sigma_min is None:
                assert not row_counts[2:].any()
            else:
                assert np.array_equal(row_counts, chunk_counts(own, 0, spec.trials, [(N, r, sigma_min)])[0])
                if sigma_min == params.sigma_min:
                    assert _event_diagnostics(spec.trials, row_counts) == run_event_diagnostics(own)

    @pytest.mark.parametrize(
        "design,noise,N,r",
        [
            (FIG3_DESIGN, FIG3_NOISE, 5, 12.0),
            (FIG3_DESIGN, FIG3_NOISE, 200, 2.0),
            (FIG3_DESIGN, FIG3_NOISE, 665, 1.1),
            (channel_pilot_design(p=8), fir_mds_with_param(0.1), 900, 0.005),
            (SIGNS_2, Gaussian(1.0), 3, 1.0),
        ],
        ids=["fig3-N5", "fig3-N200", "fig3-N665", "toeplitz-N900", "rademacher-N3"],
    )
    def test_diagnostics_match_per_trial_oracle(self, design, noise, N, r):
        spec = ExperimentSpec(design, noise, N=N, r=r, trials=300, base_seed=13, diagnostics=True)
        got = run_event_diagnostics(spec)
        assert repr(got) == repr(oracle_diagnostics(spec))
        assert any(got.freq_e2) and any(got.freq_e3)


class TestSegmentSums:
    """A random design's G and every design's a^T u and diagonal sums are sums
    over row segments on a grid set by p alone, so each row of a sweep equals
    a run at the row's own N bit for bit.  SEGMENT_ELEMS = 64 gives 16-row segments at p = 2; the sizes lie
    below the first boundary (9), on a boundary with an empty tail (48), and
    across boundaries (37, 70, 100)."""

    SIZES = (9, 48, 37, 100, 70)

    @pytest.fixture
    def spec(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SEGMENT_ELEMS", 64)
        B = montecarlo.BLOCK_BYTES // (8 * max(self.SIZES) * 3)
        design = IidBoundedColumns((1.0, 0.5), "scaled-uniform")
        return ExperimentSpec(design, Gaussian(1.0), N=max(self.SIZES), r=1.0, trials=B + 7, base_seed=23)

    @staticmethod
    def per_trial(spec, sizes):
        """(N, G, err) of each trial and size that _trials returns, with err
        from _solve."""
        G, rhs, _ = _trials(spec, 0, spec.trials, undiagnosed(sizes), None)
        return [
            (N, G_N[i], err_N[i])
            for N, G_N, err_N in zip(sizes, G, _solve(G, rhs)[0])
            for i in range(len(G_N))
        ]

    def test_rows_bit_identical_to_own_n_runs(self, spec):
        swept = self.per_trial(spec, self.SIZES)
        assert len(swept) == spec.trials * len(self.SIZES)
        for N in self.SIZES:
            own = self.per_trial(replace(spec, N=N), (N,))
            rows = [row for row in swept if row[0] == N]
            assert len(rows) == len(own) == spec.trials
            for t, ((_, G, err), (_, G_own, err_own)) in enumerate(zip(rows, own)):
                a = spec.design.sample(spec.N, SeedSpec(spec.base_seed, t, "design"))[:N]  # the sweep's draw
                assert np.array_equal(G, G.T)
                assert np.array_equal(G, segment_product(a, a.copy()))
                assert G.tobytes() == G_own.tobytes() and err.tobytes() == err_own.tobytes()

    @pytest.mark.parametrize("design", [IidBoundedColumns((1.0, 0.5), "scaled-uniform"),
                                        channel_pilot_design(p=2, length=128, seed=4)], ids=["uniform", "toeplitz"])
    def test_rhs_and_diagonal_sums_bit_identical_to_own_n_runs(self, spec, design):
        # Every N diagnosed: a^T u and the diagonal sums of a random and of a
        # pilot design take the same segment grid as a random design's G.
        spec = replace(spec, design=design)

        def sums(spec, sizes):
            _, rhs, diag = _trials(spec, 0, spec.trials, [(N, 1.0, 1.0) for N in sizes], plan_of(spec, sizes))
            return rhs, diag

        rhs, diag = sums(spec, self.SIZES)
        assert rhs.shape == diag.shape == (len(self.SIZES), spec.trials, 2)
        for k, N in enumerate(self.SIZES):
            own_rhs, own_diag = sums(replace(spec, N=N), (N,))
            assert rhs[k].tobytes() == own_rhs[0].tobytes() and diag[k].tobytes() == own_diag[0].tobytes()
            for t in range(spec.trials):
                a = design.sample(spec.N, SeedSpec(spec.base_seed, t, "design"))[:N]  # the sweep's draw
                v = spec.noise.sample(spec.N, SeedSpec(spec.base_seed, t, "noise"))[:N, None]
                assert np.array_equal(rhs[k, t], segment_product(a, v)[:, 0])
                assert np.array_equal(diag[k, t], segment_product(a * a, v * v)[:, 0] / N**2)

    def test_counts_do_not_depend_on_blocks(self, spec, monkeypatch):
        B = spec.trials - 7
        rows = tuple((N, 2.0 / math.sqrt(N), None) for N in self.SIZES)
        calls = []
        for name in ("cholesky", "solve"):
            def counted(*args, f=getattr(np.linalg, name), name=name):
                calls.append(name)
                return f(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        whole = chunk_counts(spec, 0, spec.trials, rows)
        assert calls == ["cholesky", "solve"]  # one factor and one solve for the chunk's two blocks and every size
        cuts = [0, 1, B - 1, B + 1, spec.trials]
        assert np.array_equal(whole, sum(chunk_counts(spec, a, b, rows) for a, b in zip(cuts, cuts[1:])))
        assert all(0 < exceed < spec.trials for exceed, _ in whole.tolist())
        assert not whole[:, 1].any()


class TestFindEmpiricalN:
    ALL_ONES = ToeplitzPilot((1.0,) * 1024, p=1)

    def test_matches_analytic_gaussian_quantile(self):
        # exact tail 2*(1 - Phi(r*sqrt(N))) crosses eps = 0.1 at N = (z/r)^2
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(1.0), N=8, r=0.2, trials=20_000, base_seed=12)
        found = find_empirical_n(spec, eps=0.1, n_lo=4, n_hi=512)
        # z with 2*(1-Phi(z)) = 0.1 is 1.6449, so the crossing sits at 67.7
        assert 60 <= found <= 80

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    def test_rejects_a_non_positive_eps_before_any_pass(self, eps, monkeypatch):
        # Such an eps once ran every doubling probe up to n_hi, then raised
        # SimulationQualityError, which exits 4 as if the simulation had failed.
        calls = []
        monkeypatch.setattr(montecarlo, "run_tail", lambda *args, **kwargs: calls.append(args))
        design = IidBoundedColumns((1.0, 1.0), "scaled-uniform")
        spec = ExperimentSpec(design, Gaussian(1.0), N=8, r=0.2, trials=200, base_seed=12)
        with pytest.raises(ParameterError, match="eps must be positive"):
            find_empirical_n(spec, eps=eps, n_lo=3, n_hi=4096)
        assert find_empirical_n(spec, eps=1.0, n_lo=3, n_hi=4096) == 3
        assert calls == []

    def test_a_range_bound_that_is_not_an_integer_is_rejected_before_any_pass(self, monkeypatch):
        # Such an n_hi once ran 7 passes, N = 10 ... 640, before ExperimentSpec
        # rejected N = 1000.5.
        calls = []
        monkeypatch.setattr(montecarlo, "run_tail", lambda *args, **kw: calls.append(args) or run_tail(*args, **kw))
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(1.0), N=8, r=0.01, trials=20, base_seed=12)
        with pytest.raises(ParameterError, match="n_hi must be an integer, got 1000.5"):
            find_empirical_n(spec, 0.05, 10, 1000.5)
        assert calls == []

    def test_empty_range_is_a_parameter_error_before_any_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "run_tail", lambda *args, **kwargs: calls.append(args))
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(1.0), N=8, r=0.2, trials=200, base_seed=12)
        with pytest.raises(ParameterError, match=r"empty range \[10, 5\]"):
            find_empirical_n(spec, 0.1, n_lo=10, n_hi=5)
        assert calls == []

    def test_trivial_eps_returns_range_minimum(self):
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(1.0), N=8, r=0.2, trials=100, base_seed=12)
        assert find_empirical_n(spec, eps=1.0, n_lo=4, n_hi=512) == 4

    def test_range_exhausted(self):
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(5.0), N=8, r=0.05, trials=2000, base_seed=12)
        with pytest.raises(SimulationQualityError, match="upper CI stays above 0.01 up to N = 64"):
            find_empirical_n(spec, eps=0.01, n_lo=4, n_hi=64)

    def test_nonincreasing_in_radius(self):
        found = []
        for r in (0.2, 0.3, 0.45):
            spec = ExperimentSpec(self.ALL_ONES, Gaussian(1.0), N=8, r=r, trials=5000, base_seed=13)
            found.append(find_empirical_n(spec, eps=0.1, n_lo=4, n_hi=512))
        assert found[0] >= found[1] >= found[2]

    def test_returned_n_passes_and_one_less_fails(self):
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(1.0), N=8, r=0.3, trials=5000, base_seed=13)
        found = find_empirical_n(spec, eps=0.1, n_lo=4, n_hi=512)
        assert run_tail(replace(spec, N=found)).ci_high <= 0.1
        assert run_tail(replace(spec, N=found - 1)).ci_high > 0.1


SMALL_SPEC = ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, trials=10)


@pytest.mark.parametrize(
    "build,name,minimum",
    [
        (lambda x: ProblemParams(p=x, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0), "p", 1),
        (lambda x: ToeplitzPilot((1.0, -1.0, 1.0, 1.0), x), "p", 1),
        (lambda x: replace(SMALL_SPEC, N=x), "N", 2),
        (lambda x: replace(SMALL_SPEC, trials=x), "trials", 1),
        (lambda x: run_tail(SMALL_SPEC, workers=x), "workers", 1),
        (lambda x: random_pilots(x, SeedSpec(0, 0, "design")), "length", 1),
        (lambda x: bounds.l2_radius(1.0, x), "p", 1),
        (lambda x: find_empirical_n(SMALL_SPEC, 1.0, x, 10), "n_lo", 1),
        (lambda x: find_empirical_n(SMALL_SPEC, 1.0, 2, x), "n_hi", 1),
        (lambda x: IidBoundedColumns((1.0,)).sample(x, SeedSpec(0, 0, "design")), "N", 2),
        (lambda x: implied_problem_params(ToeplitzPilot((1.0, -1.0, 1.0), 1), Gaussian(1.0), x), "N_hint", 1),
        (lambda x: SeedSpec(0, x), "trial", 0),
        (lambda x: SeedSpec(0, 0, "noise", (1, x)), "subkey", 0),
    ],
    ids=["ProblemParams.p", "ToeplitzPilot.p", "ExperimentSpec.N", "ExperimentSpec.trials", "workers",
         "random_pilots.length", "l2_radius.p", "find_empirical_n.n_lo", "find_empirical_n.n_hi",
         "IidBoundedColumns.sample.N", "implied_problem_params.N_hint",
         "SeedSpec.trial", "SeedSpec.subkey"],
)
def test_a_count_must_be_an_integer_of_at_least_its_minimum(build, name, minimum):
    # Each count argument is read by params.as_count; each design here has
    # p = 1, so its N must be at least 2.
    for bad, rule in ((minimum + 1.5, "an integer"), (float(minimum + 1), "an integer"),
                      (str(minimum + 1), "an integer"), (True, "an integer"), (False, "an integer"),
                      (minimum - 1, f"at least {minimum}")):
        with pytest.raises(ParameterError, match=f"^{name} must be {rule}, got "):
            build(bad)
    build(np.int64(minimum + 1))
