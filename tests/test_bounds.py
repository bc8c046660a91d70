"""Formula-level tests for the sample-count and outage bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lsqbounds import bounds
from lsqbounds.bounds import (
    _bisect,
    _n2_infimum,
    _n3_denominator_max,
    _n3_infimum,
    _refine_weight,
    _tau_inner_max,
)
from lsqbounds.params import Accuracy, DomainError, InfimumResult, ParameterError, ProblemParams

from helpers import (
    beta_proof,
    broad_problem_sets,
    eps2_grid_oracle,
    eps3_grid_oracle,
    gamma_ref,
    n2_grid_oracle,
    n3_grid_oracle,
    random_problem_sets,
)

UNIT = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
ACC = Accuracy(r=1.0, eps=0.05)
RANDOM_SETS = random_problem_sets(30, seed=1618)
ORACLE_POINTS = 200_000


class TestBeta:
    def test_vanishes_at_zero(self):
        assert bounds.beta(1e-14, UNIT) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value(self):
        # 0.25 + 0.0625/0.5, high-precision evaluation of the closed form
        assert bounds.beta(0.25, UNIT) == pytest.approx(0.375, rel=1e-15)

    def test_divergence_at_pole(self):
        s = (1.0 - 1e-9) / 2.0
        assert bounds.beta(s, UNIT) > 1e6

    @pytest.mark.parametrize("s", [0.0, 0.5, -0.1, 1.0])
    def test_domain_error(self, s):
        with pytest.raises(DomainError):
            bounds.beta(s, UNIT)

    def test_as_printed_value(self):
        # alpha^2 R^2 p + (alpha^2 R^2 s)^2 / (1 - 2 R^2 s)
        assert bounds.beta(0.25, UNIT, as_printed=True) == pytest.approx(
            2.0 + 0.0625 / 0.5, rel=1e-15
        )

    def test_as_printed_pole_guard_small_alpha(self):
        params = ProblemParams(p=2, alpha=0.5, sigma_min=0.2, sigma_max=0.25, R=1.0)
        # domain allows s < 2 but the printed denominator's pole sits at 0.5
        assert bounds.beta(0.4, params, as_printed=True) > 0
        with pytest.raises(DomainError):
            bounds.beta(0.6, params, as_printed=True)

    def test_strictly_increasing(self):
        s = np.linspace(1e-6, 0.499, 200)
        vals = [bounds.beta(float(x), UNIT) for x in s]
        assert np.all(np.diff(vals) > 0)


class TestGamma:
    def test_vanishes_at_zero(self):
        assert bounds.gamma(1e-14, UNIT) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_values(self):
        assert bounds.gamma(0.5, UNIT) == pytest.approx(0.125 + 0.0625 / 3.0, rel=1e-15)
        assert bounds.gamma(0.123, UNIT) == pytest.approx(0.0076226007, rel=1e-7)

    def test_divergence_at_pole(self):
        assert bounds.gamma(1.0 - 1e-9, UNIT) > 1e6

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5])
    def test_domain_error(self, s):
        with pytest.raises(DomainError):
            bounds.gamma(s, UNIT)

    def test_strictly_increasing(self):
        s = np.linspace(1e-6, 0.999, 300)
        vals = [bounds.gamma(float(x), UNIT) for x in s]
        assert np.all(np.diff(vals) > 0)


class TestN1:
    def test_small_radius_value(self):
        params = ProblemParams(p=8, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=0.1)
        assert bounds.n1_main(Accuracy(r=0.01, eps=0.5), params) == pytest.approx(400.0)

    def test_quartering_under_radius_doubling(self):
        assert bounds.n1_main(Accuracy(r=2.0, eps=0.5), UNIT) == pytest.approx(1.0)
        assert bounds.n1_main(Accuracy(r=1.0, eps=0.5), UNIT) == pytest.approx(4.0)

    def test_alpha_scaling(self):
        params = ProblemParams(p=2, alpha=2.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
        assert bounds.n1_main(Accuracy(r=1.0, eps=0.5), params) == pytest.approx(16.0)

    def test_missing_R(self):
        params = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, b=1.0)
        with pytest.raises(ParameterError):
            bounds.n1_main(ACC, params)


class TestN2:
    def test_against_grid_oracle(self):
        oracle_value, oracle_s = n2_grid_oracle(1.0, 0.05, 2, 1.0, 1.0, 1.0)
        value, s_opt = bounds.n2_main(ACC, UNIT)
        assert value == pytest.approx(oracle_value, rel=1e-6)
        assert value == pytest.approx(24.31, rel=1e-3)
        assert s_opt == pytest.approx(oracle_s, rel=1e-2)
        assert s_opt == pytest.approx(0.232, rel=1e-2)

    def test_formal_limit_log_term_zero(self):
        # with a vanishing log term the infimum tends to 8*alpha^2*R^2/sigma^2/r^2
        res = _n2_infimum(1.0, 0.0, UNIT)
        assert res.value == pytest.approx(8.0, rel=1e-4)

    def test_decreasing_in_r(self):
        v1, _ = bounds.n2_main(Accuracy(r=1.0, eps=0.05), UNIT)
        v2, _ = bounds.n2_main(Accuracy(r=2.0, eps=0.05), UNIT)
        o1, _ = n2_grid_oracle(1.0, 0.05, 2, 1.0, 1.0, 1.0, points=100_000)
        o2, _ = n2_grid_oracle(2.0, 0.05, 2, 1.0, 1.0, 1.0, points=100_000)
        assert v2 < v1
        assert o2 < o1


class TestN3:
    def test_against_grid_oracle(self):
        oracle_value, oracle_s, slack = n3_grid_oracle(1.0, 0.05, 2, 1.0, 1.0, 1.0)
        value, s_opt = bounds.n3_main(ACC, UNIT)
        assert slack == pytest.approx(0.007752, rel=1e-3)
        assert value == pytest.approx(oracle_value, rel=1e-6)
        assert value == pytest.approx(24.85, rel=1e-3)
        assert s_opt == pytest.approx(oracle_s, rel=1e-2)

    def test_formal_limit_zero(self):
        assert _n3_infimum(1.0, 0.0, UNIT).value == 0.0

    def test_eps_halving_ratio(self):
        v1, _ = bounds.n3_main(Accuracy(r=1.0, eps=0.05), UNIT)
        v2, _ = bounds.n3_main(Accuracy(r=1.0, eps=0.025), UNIT)
        expected = math.sqrt(math.log(240.0) / math.log(120.0))
        assert v2 / v1 == pytest.approx(expected, rel=1e-6)

    def test_optimum_far_below_the_domain_width(self):
        # The slack is positive only for s < 1.5e-15, about 1e-16 of the
        # domain (0, 1/(alpha^2 R^2)) = (0, 15.7).
        params = ProblemParams(p=24, alpha=0.0152, sigma_min=7.68e-6, sigma_max=7.74e-6, R=16.6)
        acc = Accuracy(r=6.5e-4, eps=1.6e-7)
        for bd in (
            bounds.n_main(acc, params),
            bounds.n_main(acc, params, beta_as_printed=True),
            bounds.n_main_tau(acc, params),
            bounds.n_main_tau(acc, params, beta_as_printed=True),
        ):
            assert math.isfinite(bd.n_final), bd
        ob = bounds.eps_of_n(acc.r, bounds.n_main(acc, params).n_final, params)
        assert ob.eps3_feasible and math.isfinite(ob.eps_final)
        value, s = bounds.n3_main(acc, params)
        al, R, sm, r = params.alpha, params.R, params.sigma_min, acc.r
        assert 0.0 < s < 1.0 / (al**2 * R**2)
        slack = sm**2 * r**2 * s / 8.0 - gamma_ref(s, al, R)
        assert value == pytest.approx(math.sqrt(math.log(3.0 * params.p / acc.eps) / slack), rel=1e-12)


class TestBisect:
    def test_root_of_increasing_function(self):
        s = _bisect(lambda s: s - 0.25, 1.0)
        assert s - 0.25 < 0
        assert s == pytest.approx(0.25, rel=1e-15)

    def test_root_many_decades_below_width(self):
        s = _bisect(lambda s: s - 1e-12, 1.0)
        assert s == pytest.approx(1e-12, rel=1e-15)

    def test_negative_throughout_returns_largest_float_below_hi(self):
        assert _bisect(lambda s: -1.0, 2.0) == math.nextafter(2.0, 0.0)


class TestN3DenominatorMax:
    def test_witness_is_stationary(self):
        res = _n3_denominator_max(ACC.r, UNIT)
        slope = UNIT.sigma_min**2 * ACC.r**2 / 8.0
        s, h = res.argmin, res.argmin * 1e-5
        derivative = (gamma_ref(s + h, 1.0, 1.0) - gamma_ref(s - h, 1.0, 1.0)) / (2.0 * h)
        assert derivative == pytest.approx(slope, rel=1e-6)
        assert res.value == pytest.approx(slope * s - gamma_ref(s, 1.0, 1.0), rel=1e-12)

    def test_smaller_weight_lowers_value_and_witness(self):
        full = _n3_denominator_max(ACC.r, UNIT)
        half = _n3_denominator_max(ACC.r, UNIT, weight=0.5)
        assert 0.0 < half.value < full.value
        assert 0.0 < half.argmin < full.argmin


class TestRefineWeight:
    """The weight search's scan plus golden section, on plain objectives."""

    def test_analytic_quadratic(self):
        assert _refine_weight(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0) == pytest.approx(0.3, abs=1e-4)

    def test_minimum_many_decades_below_width(self):
        # the log-spaced probes must bracket an argmin at 1e-6 on (0, 1)
        x = _refine_weight(lambda x: (math.log(x) - math.log(1e-6)) ** 2, 0.0, 1.0)
        assert x == pytest.approx(1e-6, rel=1e-3)

    def test_minimum_inside_a_grid_bracket(self):
        # n_main_tau refines between the neighbours of its best grid weight
        assert _refine_weight(lambda t: (t - 0.57) ** 2, 0.5, 0.6) == pytest.approx(0.57, abs=1e-4)

    def test_infinite_values_shrink_toward_feasible_side(self):
        x = _refine_weight(lambda t: math.inf if t < 0.5 else (t - 0.7) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.7, abs=1e-4)

    def test_not_above_objective_at_random_points(self):
        f = lambda x: (x - 0.3) ** 2 + math.sin(5.0 * x) * 0.1 + 1.0
        x = _refine_weight(f, 0.0, 1.0)
        points = np.random.default_rng(42).uniform(1e-9, 1.0 - 1e-9, 100)
        assert all(f(x) <= f(float(q)) + 1e-12 for q in points)

    def test_increasing_objective_returns_left_inset(self):
        assert _refine_weight(lambda t: t, 0.2, 0.4) == pytest.approx(0.2, abs=1e-8)

    def test_deterministic(self):
        f = lambda x: (x - 0.25) ** 4 + 2.0
        assert _refine_weight(f, 0.0, 1.0) == _refine_weight(f, 0.0, 1.0)


class TestInnerOptimaOnRandomSets:
    """The inner solves never lose to a dense grid, and each value is
    its objective at the returned witness."""

    def test_n2(self):
        for params, acc in RANDOM_SETS:
            al, R, sm, r = params.alpha, params.R, params.sigma_min, acc.r
            value, s = bounds.n2_main(acc, params)
            oracle, _ = n2_grid_oracle(r, acc.eps, params.p, al, R, sm, points=ORACLE_POINTS)
            assert value <= oracle * (1 + 1e-12), (params, acc)
            log_term = math.log(3.0 * params.p / acc.eps)
            at_s = (8.0 * beta_proof(s, al, R) + 2.0 * sm * r * math.sqrt(2.0 * s * log_term)) / (
                sm**2 * r**2 * s
            )
            assert value == pytest.approx(at_s, rel=1e-12), (params, acc)

    def test_n3(self):
        for params, acc in RANDOM_SETS:
            al, R, sm, r = params.alpha, params.R, params.sigma_min, acc.r
            value, s = bounds.n3_main(acc, params)
            oracle, _, _ = n3_grid_oracle(r, acc.eps, params.p, al, R, sm, points=ORACLE_POINTS)
            assert value <= oracle * (1 + 1e-12), (params, acc)
            slack = sm**2 * r**2 * s / 8.0 - gamma_ref(s, al, R)
            at_s = math.sqrt(math.log(3.0 * params.p / acc.eps) / slack)
            assert value == pytest.approx(at_s, rel=1e-12), (params, acc)

    def test_eps2(self):
        for params, acc in RANDOM_SETS:
            al, R, sm, r = params.alpha, params.R, params.sigma_min, acc.r
            # at N = n2 the term sits near eps, neither clipped nor underflowed
            N, _ = bounds.n2_main(acc, params)
            ob = bounds.eps_of_n(r, N, params)
            oracle = eps2_grid_oracle(r, N, params.p, al, R, sm, points=ORACLE_POINTS)
            assert ob.eps2 <= oracle * (1 + 1e-12), (params, acc)
            s = ob.s_opt_eps2
            margin = sm**2 * r**2 * s * N - 8.0 * beta_proof(s, al, R)
            at_s = min(1.0, 3.0 * params.p * math.exp(-(margin**2) / (8.0 * s * sm**2 * r**2)))
            assert ob.eps2 == pytest.approx(at_s, rel=1e-12), (params, acc)

    def test_as_printed_n2(self):
        for params, acc in RANDOM_SETS:
            a, R, sm, r = params.alpha**2 * params.R**2, params.R, params.sigma_min, acc.r
            value, s_opt = bounds.n2_main(acc, params, as_printed=True)
            log_term = math.log(3.0 * params.p / acc.eps)

            def objective(s):
                beta_printed = a * params.p + (a * s) ** 2 / (1.0 - 2.0 * R**2 * s)
                return (8.0 * beta_printed + 2.0 * sm * r * np.sqrt(2.0 * s * log_term)) / (
                    sm**2 * r**2 * s
                )

            s_hi = min(1.0 / (2.0 * a), 1.0 / (2.0 * R**2))
            grid = np.geomspace(s_hi * 1e-9, s_hi * (1.0 - 1e-9), ORACLE_POINTS)
            assert value <= float(np.min(objective(grid))) * (1 + 1e-12), (params, acc)
            assert value == pytest.approx(objective(s_opt), rel=1e-12), (params, acc)

    def test_as_printed_n2_boundary_optimum(self):
        # alpha > 1: the as-printed objective still falls at the right end of
        # its domain 1/(2*alpha^2*R^2) = 0.5, so the witness is the largest
        # float inside it; the value is no worse than the scan-based search's
        params = ProblemParams(p=2, alpha=2.0, sigma_min=1.0, sigma_max=1.0, R=0.5)
        value, s = bounds.n2_main(Accuracy(r=1.0, eps=0.05), params, as_printed=True)
        assert 0 < s < 1.0 / (2.0 * params.alpha**2 * params.R**2)
        assert value <= 46.08546840980321


class TestNRand:
    def test_reference_values(self):
        p4 = ProblemParams(p=4, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
        expected = (4.0 / 3.0) * 35.0 * math.log(240.0)
        assert bounds.n_rand(0.05, 12.0, p4) == pytest.approx(expected, rel=1e-12)
        p8 = ProblemParams(p=8, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
        expected8 = (4.0 / 3.0) * 63.0 * math.log(2400.0)
        assert bounds.n_rand(0.01, 24.0, p8) == pytest.approx(expected8, rel=1e-12)

    def test_trivial_at_factor(self):
        assert bounds.n_rand(12.0, 12.0, UNIT) == 0.0

    def test_clamped_beyond_factor(self):
        assert bounds.n_rand(20.0, 12.0, UNIT) == 0.0


class TestNMain:
    def test_term_composition(self):
        bd = bounds.n_main(ACC, UNIT)
        assert bd.theorem == "main"
        assert bd.n1 == pytest.approx(4.0)
        assert bd.n2 == pytest.approx(24.31, rel=1e-3)
        assert bd.n3 == pytest.approx(24.85, rel=1e-3)
        assert bd.n_rand == pytest.approx((4.0 / 3.0) * 21.0 * math.log(120.0), rel=1e-12)
        assert bd.binding == "n_rand"
        assert bd.n_final == bd.n_rand
        assert bd.n_ceil == 135

    def test_huge_radius_leaves_only_gram_term(self):
        bd = bounds.n_main(Accuracy(r=1e6, eps=0.05), UNIT)
        assert bd.binding == "n_rand"
        assert bd.n1 < 1e-9 and bd.n2 < 1e-3 and bd.n3 < 1e-3

    def test_eps_halving_weakly_increases_terms(self):
        a = bounds.n_main(Accuracy(r=1.0, eps=0.05), UNIT)
        b = bounds.n_main(Accuracy(r=1.0, eps=0.025), UNIT)
        for name, value in a.terms().items():
            assert b.terms()[name] >= value * (1 - 1e-9)
        assert b.n_final > a.n_final

    def test_determinism_bit_identical(self):
        assert bounds.n_main(ACC, UNIT) == bounds.n_main(ACC, UNIT)


class TestNMainTau:
    def test_interior_terms_finite_positive(self):
        bd = bounds.n_main_tau(ACC, UNIT)
        assert bd.theorem == "main_tau"
        assert 0 < bd.tau_opt < 1
        assert bd.n2 > 0 and math.isfinite(bd.n2)
        assert bd.n3 > 0 and math.isfinite(bd.n3)

    def test_endpoint_divergence(self):
        log2eps = math.log(2.0 / ACC.eps)
        n2_base = _n2_infimum(1.0, log2eps, UNIT)  # objective shape matches up to scale
        near0, _, _ = _tau_inner_max(1e-4, 0.0, 0.0, n2_base, ACC.r, log2eps, UNIT)
        near1, _, _ = _tau_inner_max(1.0 - 1e-4, 0.0, 0.0, n2_base, ACC.r, log2eps, UNIT)
        mid, _, _ = _tau_inner_max(0.5, 0.0, 0.0, n2_base, ACC.r, log2eps, UNIT)
        assert near0 > 100 * mid
        assert near1 > 100 * mid

    def test_minimizer_dominance_at_grid_point(self):
        bd = bounds.n_main_tau(ACC, UNIT)
        log2eps = math.log(2.0 / ACC.eps)
        n1 = bounds.n1_main(ACC, UNIT)
        nr = bounds.n_rand(ACC.eps, 3.0 * UNIT.p, UNIT)
        # recompute the tau-independent inner infimum of the split diagonal term
        # on a dense log grid
        s_hi = 1.0 / (2.0 * UNIT.alpha**2 * UNIT.R**2)
        s = np.geomspace(s_hi * 1e-9, s_hi * (1.0 - 1e-9), 1_000_000)
        obj = (
            4.0 * beta_proof(s, UNIT.alpha, UNIT.R)
            + UNIT.sigma_min * ACC.r * np.sqrt(2.0 * log2eps * s)
        ) / (UNIT.sigma_min**2 * ACC.r**2 * s)
        k = int(np.argmin(obj))
        n2_base = InfimumResult(value=float(obj[k]), argmin=float(s[k]))
        at_half, _, _ = _tau_inner_max(0.5, n1, nr, n2_base, ACC.r, log2eps, UNIT)
        assert bd.n_final <= at_half * (1 + 1e-9)

    def test_balances_terms_when_inner_bind(self):
        params = ProblemParams(p=1, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
        acc = Accuracy(r=0.5, eps=0.2)
        bd = bounds.n_main_tau(acc, params)
        assert bd.binding in ("n2", "n3")
        assert bd.n2 == pytest.approx(bd.n3, rel=1e-2)
        assert bd.n_final <= bounds.n_main(acc, params).n_final

    def test_never_looser_than_main_on_broad_draws(self):
        # The weight search evaluates its whole 0.01-step grid exactly and
        # keeps the best point, so over many decades of parameters it never
        # returns more than its grid minimum; tau = 1/2 is on that grid and
        # gives terms at most n_main's, so it never returns more than n_main.
        for params, acc in broad_problem_sets(300, seed=2024):
            tau = bounds.n_main_tau(acc, params).n_final
            assert tau <= bounds.n_main(acc, params).n_final * (1 + 1e-12), (params, acc)
            log2eps = math.log(2.0 / acc.eps)
            base = _n2_infimum(acc.r, log2eps, params)
            n2_base = InfimumResult(value=base.value / 2.0, argmin=base.argmin)
            n1 = bounds.n1_main(acc, params)
            nr = bounds.n_rand(acc.eps, 3.0 * params.p, params)
            grid_min = min(
                _tau_inner_max(w, n1, nr, n2_base, acc.r, log2eps, params)[0]
                for w in np.arange(0.01, 1.0, 0.01)
            )
            assert tau <= grid_min * (1 + 1e-12), (params, acc)


class TestCeiling:
    def test_n_ceil_is_above_n_final_and_at_least_p_plus_1(self):
        # A least-squares fit needs N > p, so the ceiling a bound reports never
        # falls below p + 1, even where n_final is below p.
        broad = [(replace(params, b=params.R), acc) for params, acc in broad_problem_sets(300, seed=2024)]
        floored = 0
        for params, acc in random_problem_sets(100, seed=2025) + broad:
            for tag in bounds.BOUND_FUNCTIONS:
                bd = bounds.bound_for(tag, acc, params)
                assert bd.n_ceil >= params.p + 1 and bd.n_ceil > bd.n_final, (tag, params, acc)
                floored += bd.n_final < params.p
        assert floored > 0


class TestEpsOfN:
    PARAMS = UNIT

    def test_precondition_error_names_threshold(self):
        with pytest.raises(DomainError, match=r"4\*alpha\^2\*R\^2"):
            bounds.eps_of_n(1.0, 4, self.PARAMS)

    def test_gram_term_value(self):
        p4 = ProblemParams(p=4, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=0.1)
        ob = bounds.eps_of_n(0.5, 256, p4)
        expected = 12.0 * math.exp(-0.75 * 256.0 / 35.0)
        assert ob.eps_rand == pytest.approx(expected, rel=1e-12)

    def test_terms_vanish_for_large_N(self):
        ob = bounds.eps_of_n(1.0, 10_000, self.PARAMS)
        assert ob.eps2 < 1e-12 and ob.eps3 < 1e-12 and ob.eps_rand < 1e-12

    def test_against_grid_oracles(self):
        N = 300
        ob = bounds.eps_of_n(1.0, N, self.PARAMS)
        eps2_oracle = eps2_grid_oracle(1.0, N, 2, 1.0, 1.0, 1.0)
        eps3_oracle = eps3_grid_oracle(1.0, N, 2, 1.0, 1.0, 1.0)
        assert ob.eps2 == pytest.approx(eps2_oracle, rel=1e-3, abs=1e-250)
        assert ob.eps3 == pytest.approx(eps3_oracle, rel=1e-3, abs=1e-250)
        assert ob.eps2 < ob.eps_rand and ob.eps3 < ob.eps_rand

    def test_infeasible_diagonal_term_below_double_floor(self):
        # N between the variance floor and twice the floor leaves the diagonal
        # optimizer domain empty: term reported as 1 and flagged.
        ob = bounds.eps_of_n(1.0, 6, self.PARAMS)
        assert ob.eps2 == 1.0
        assert not ob.eps2_feasible

    def test_terms_in_unit_interval(self):
        ob = bounds.eps_of_n(1.0, 300, self.PARAMS)
        for term in (ob.eps2, ob.eps3, ob.eps_rand, ob.eps_final):
            assert 0.0 <= term <= 1.0
        assert ob.eps_final == max(ob.eps2, ob.eps3, ob.eps_rand)


class TestClosedFormBounds:
    def test_bounded_noise_value(self):
        params = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, b=1.0)
        bd = bounds.n_bounded(Accuracy(r=0.1, eps=0.01), params)
        assert bd.n1 == pytest.approx(200.0 * math.log(600.0), rel=1e-12)
        assert bd.n2 is None and bd.n3 is None
        assert bd.n_rand == pytest.approx((4.0 / 3.0) * 21.0 * math.log(600.0), rel=1e-12)

    def test_bounded_noise_b_scaling(self):
        p1 = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, b=1.0)
        p2 = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, b=2.0)
        acc = Accuracy(r=0.1, eps=0.01)
        assert bounds.n_bounded(acc, p2).n1 == pytest.approx(
            4.0 * bounds.n_bounded(acc, p1).n1, rel=1e-12
        )

    def test_bounded_missing_b(self):
        with pytest.raises(ParameterError):
            bounds.n_bounded(ACC, UNIT)

    def test_mds_subgaussian_value(self):
        params = ProblemParams(p=4, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=10.0)
        bd = bounds.n_mds_subgaussian(Accuracy(r=1.0, eps=0.05), params)
        assert bd.n1 == pytest.approx(800.0 * math.log(160.0), rel=1e-12)
        assert bd.n_rand == pytest.approx((4.0 / 3.0) * 35.0 * math.log(160.0), rel=1e-12)

    def test_mds_inverse_square_radius_scaling(self):
        params = ProblemParams(p=4, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=10.0)
        a = bounds.n_mds_subgaussian(Accuracy(r=1.0, eps=0.05), params)
        b = bounds.n_mds_subgaussian(Accuracy(r=2.0, eps=0.05), params)
        assert a.n1 == pytest.approx(4.0 * b.n1, rel=1e-12)

    def test_mds_bounded_value_and_equivalence(self):
        params_b = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, b=1.0)
        params_r = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
        acc = Accuracy(r=0.1, eps=0.01)
        bd = bounds.n_mds_bounded(acc, params_b)
        assert bd.n1 == pytest.approx(800.0 * math.log(400.0), rel=1e-12)
        assert bd.n1 == pytest.approx(bounds.n_mds_subgaussian(acc, params_r).n1, rel=1e-12)

    def test_fixed_design_single_term(self):
        params = ProblemParams(p=8, alpha=1.0, sigma_min=0.9, sigma_max=1.1, R=0.1)
        acc = Accuracy(r=0.01, eps=0.01)
        bd = bounds.n_fixed_design(acc, params)
        expected = 8.0 * 0.01 / (1e-4 * 0.81) * math.log(1600.0)
        assert bd.n1 == pytest.approx(expected, rel=1e-12)
        assert bd.n_rand is None
        assert bd.binding == "n1"

    def test_fixed_design_sigma_halving_quadruples(self):
        acc = Accuracy(r=0.01, eps=0.01)
        p1 = ProblemParams(p=8, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=0.1)
        p2 = ProblemParams(p=8, alpha=1.0, sigma_min=0.5, sigma_max=1.0, R=0.1)
        assert bounds.n_fixed_design(acc, p2).n1 == pytest.approx(
            4.0 * bounds.n_fixed_design(acc, p1).n1, rel=1e-12
        )

    def test_eps_fixed_design_inverts_bound(self):
        params = ProblemParams(p=8, alpha=1.0, sigma_min=0.9, sigma_max=1.1, R=0.1)
        acc = Accuracy(r=0.01, eps=0.01)
        n = bounds.n_fixed_design(acc, params).n_final
        assert bounds.eps_fixed_design(acc.r, n, params) == pytest.approx(acc.eps, rel=1e-10)

    def test_eps_for_has_no_main_tau_outage(self):
        with pytest.raises(ParameterError, match="main_tau"):
            bounds.eps_for("main_tau", 1.0, 500, UNIT)


class TestL2Radius:
    @pytest.mark.parametrize(
        "r2,p,expected", [(1.0, 1, 1.0), (1.0, 4, 0.5), (0.03, 9, 0.01)]
    )
    def test_values(self, r2, p, expected):
        assert bounds.l2_radius(r2, p) == pytest.approx(expected, rel=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            bounds.l2_radius(0.0, 4)
        with pytest.raises(DomainError):
            bounds.l2_radius(1.0, 0)


class TestParamValidation:
    def test_trace_bound(self):
        with pytest.raises(ParameterError):
            ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=3.0, R=1.0)

    def test_requires_R_or_b(self):
        with pytest.raises(ParameterError):
            ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0)

    def test_sigma_order(self):
        with pytest.raises(ParameterError):
            ProblemParams(p=2, alpha=1.0, sigma_min=1.5, sigma_max=1.0, R=1.0)

    def test_accuracy_range(self):
        with pytest.raises(ParameterError):
            Accuracy(r=1.0, eps=1.5)
        with pytest.raises(ParameterError):
            Accuracy(r=-1.0, eps=0.5)

    def test_accuracy_rejects_infinite_r(self):
        with pytest.raises(ParameterError, match="finite"):
            Accuracy(r=math.inf, eps=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["alpha", "sigma_min", "sigma_max", "R", "b"])
    def test_non_finite_rejected(self, name, value):
        fields = dict(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0, b=1.0)
        with pytest.raises(ParameterError, match=f"{name} must be finite"):
            ProblemParams(**{**fields, name: value})
