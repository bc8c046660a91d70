"""Tests for the tail-estimation harness, diagnostics, sweeps, and search."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from lsqbounds import bounds
from lsqbounds.io import ResultRow
from lsqbounds.models import (
    FixedMatrix,
    Gaussian,
    IidBoundedColumns,
    Rademacher,
    SeedSpec,
    ToeplitzPilot,
    Uniform,
    implied_problem_params,
    sample_design,
    sample_noise,
)
from lsqbounds.montecarlo import (
    EventDiagnostics,
    ExperimentSpec,
    RangeExhaustedError,
    SimulationQualityError,
    find_empirical_n,
    run_event_diagnostics,
    run_tail,
    sweep,
    wilson_interval,
)
from lsqbounds.params import Accuracy, ParameterError
from lsqbounds.presets import channel_pilot_design, fig2_models, fir_mds_with_param

from helpers import gaussian_cdf

ALL_ONES_4x1 = FixedMatrix(np.ones((4, 1)))


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

    def test_theta0_choice_is_immaterial(self):
        design = IidBoundedColumns((1.0, 1.0), "scaled-uniform")
        a = ExperimentSpec(design, Uniform(1.0), N=64, r=0.25, trials=1000, base_seed=9)
        b = replace(a, theta0=(5.0, -3.0))
        assert run_tail(a).exceed_count == run_tail(b).exceed_count

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

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=1, r=0.4)
        with pytest.raises(ParameterError):
            ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, trials=0)
        with pytest.raises(ParameterError):
            ExperimentSpec(ALL_ONES_4x1, Rademacher(1.0), N=4, r=0.4, theta0=(1.0, 2.0))


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
        A = sample_design(design, 16, rng_design)
        v = sample_noise(Uniform(1.0), 16, rng_noise)
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
        diag = run_event_diagnostics(spec, params=params)
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


class TestPinnedSeededCounts:
    """Literal results recorded with the earlier pure-Python Cholesky, solve
    and Jacobi kernel.  A refactor of the trial path must reproduce them; a
    flipped count means a stream or the error arithmetic changed."""

    def test_random_design_tail(self):
        design, noise = fig2_models()
        est = run_tail(ExperimentSpec(design, noise, N=200, r=0.15, trials=4000, base_seed=7))
        assert (est.exceed_count, est.invalid_trials) == (438, 0)

    def test_fixed_design_fir_tail_two_workers(self):
        design = channel_pilot_design(p=8)
        spec = ExperimentSpec(design, fir_mds_with_param(1.0), N=1000, r=0.05, trials=4000, base_seed=9)
        est = run_tail(spec, workers=2)
        assert (est.exceed_count, est.trials) == (19, 4000)

    def test_event_diagnostics(self):
        design = IidBoundedColumns((1.0,) * 4, "scaled-uniform")
        spec = ExperimentSpec(design, Gaussian(10.0), N=20, r=4.0, trials=1000, base_seed=3, diagnostics=True)
        assert run_event_diagnostics(spec) == EventDiagnostics(
            trials=1000,
            freq_e_rand=0.536,
            freq_e2=(0.934, 0.943, 0.935, 0.935),
            freq_e3=(0.263, 0.243, 0.244, 0.23),
            lemma1_violations=0,
            identity_violations=0,
            linf_decomp_violations=8,
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


class TestFindEmpiricalN:
    ALL_ONES = ToeplitzPilot((1.0,) * 1024, p=1)

    def test_matches_analytic_gaussian_quantile(self):
        # exact tail 2*(1 - Phi(r*sqrt(N))) crosses eps = 0.1 at N = (z/r)^2
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(1.0), N=8, r=0.2, trials=20_000, base_seed=12)
        found = find_empirical_n(spec, eps=0.1, n_lo=4, n_hi=512)
        # z with 2*(1-Phi(z)) = 0.1 is 1.6449, so the crossing sits at 67.7
        assert 60 <= found <= 80

    def test_trivial_eps_returns_range_minimum(self):
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(1.0), N=8, r=0.2, trials=100, base_seed=12)
        assert find_empirical_n(spec, eps=1.0, n_lo=4, n_hi=512) == 4

    def test_range_exhausted(self):
        spec = ExperimentSpec(self.ALL_ONES, Gaussian(5.0), N=8, r=0.05, trials=2000, base_seed=12)
        with pytest.raises(RangeExhaustedError):
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
