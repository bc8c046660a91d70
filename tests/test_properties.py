"""Randomized property suites: monotonicity, scaling, feasibility, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lsqbounds import bounds
from lsqbounds.io import ResultRow, write_result_csv
from lsqbounds.models import IidBoundedColumns, Uniform
from lsqbounds.montecarlo import ExperimentSpec, run_tail
from lsqbounds.params import Accuracy, NoFinitePointError, ProblemParams

from helpers import broad_problem_sets, random_problem_sets, run_property_sweep


class TestRandomizedMonotonicity:
    def test_thousand_parameter_sets(self):
        violations = run_property_sweep(total_sets=1000, main_sets=1000, tau_sets=60)
        assert violations == []


class TestFeasibility:
    def test_cross_term_slack_region_never_empty(self):
        for params, acc in random_problem_sets(200, seed=777):
            try:
                value, s_opt = bounds.n3_main(acc, params)
            except NoFinitePointError as exc:
                pytest.fail(f"cross-term optimizer found no feasible point: {exc}")
            assert math.isfinite(value) and value >= 0
            assert 0 < s_opt < 1.0 / (params.alpha**2 * params.R**2)


class TestShapeConstraints:
    def test_beta_gamma_behavior_random_params(self):
        for params, _ in random_problem_sets(50, seed=99):
            s_hi_beta = 1.0 / (2.0 * params.alpha**2 * params.R**2)
            s = np.linspace(s_hi_beta * 1e-6, s_hi_beta * (1 - 1e-9), 64)
            vals = [bounds.beta(float(x), params) for x in s]
            assert vals[0] < 1e-3 or vals[0] < vals[-1] * 1e-6  # vanishes near 0
            assert np.all(np.diff(vals) > 0)
            assert vals[-1] > 1e5 * max(vals[0], 1e-300) or vals[-1] > 1e6

            s_hi_gamma = 1.0 / (params.alpha**2 * params.R**2)
            s2 = np.linspace(s_hi_gamma * 1e-6, s_hi_gamma * (1 - 1e-9), 64)
            vals2 = [bounds.gamma(float(x), params) for x in s2]
            assert np.all(np.diff(vals2) > 0)


class TestDeterminism:
    PARAMS = ProblemParams(p=3, alpha=1.2, sigma_min=0.4, sigma_max=1.1, R=0.8, b=2.0)
    ACC = Accuracy(r=0.7, eps=0.03)

    def test_breakdowns_bit_identical(self):
        for tag in ("main", "main_tau", "bounded", "mds_subgaussian", "mds_bounded", "fixed_mds"):
            assert bounds.bound_for(tag, self.ACC, self.PARAMS) == bounds.bound_for(
                tag, self.ACC, self.PARAMS
            )

    def test_outage_bit_identical(self):
        assert bounds.eps_of_n(0.7, 500, self.PARAMS) == bounds.eps_of_n(0.7, 500, self.PARAMS)

    def test_tail_runs_identical(self):
        design = IidBoundedColumns((1.0, 1.0), "scaled-uniform")
        spec = ExperimentSpec(design, Uniform(1.0), N=64, r=0.3, trials=800, base_seed=123)
        assert run_tail(spec) == run_tail(spec)

    def test_csv_bytes_identical(self, tmp_path):
        rows = [
            ResultRow("r", 0.1, 12.345678901234567, 13, "n2", 0.25, None, None,
                      0.01, 0.005, 0.02, 1000, 42),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_result_csv(a, rows)
        write_result_csv(b, rows)
        assert a.read_bytes() == b.read_bytes()


class TestRecordedRoundTrip:
    def test_outage_at_bound_ceiling_within_target(self):
        """eps2, eps3 and eps_rand invert n2, n3 and n_rand at the same
        log(3p/eps), each maximized over s, so the outage at the main bound's
        own integer ceiling never exceeds the target eps."""
        draws = random_problem_sets(400, seed=2718) + broad_problem_sets(300, seed=2024)
        for params, acc in draws:
            bd = bounds.n_main(acc, params)
            ob = bounds.eps_of_n(acc.r, bd.n_ceil, params)
            assert ob.eps_final <= acc.eps * (1 + 1e-9), (params, acc, bd, ob)


class TestClosedFormOutageRoundTrip:
    @pytest.mark.parametrize("tag", ["bounded", "mds_subgaussian", "mds_bounded", "fixed_mds"])
    def test_outage_at_bound_ceiling_within_target(self, tag):
        # eps_for inverts the closed-form bounds exactly, so the outage at the
        # bound's own integer ceiling never exceeds the target eps
        for params, acc in random_problem_sets(1000, seed=4242):
            n_ceil = bounds.bound_for(tag, acc, params).n_ceil
            assert bounds.eps_for(tag, acc.r, n_ceil, params) <= acc.eps, (params, acc)
