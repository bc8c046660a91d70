"""Tests for noise/design generators, declared parameters, and seeding."""

import math

import mpmath
import numpy as np
import pytest

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
    design_from_config,
    design_to_config,
    implied_problem_params,
    noise_bound,
    noise_from_config,
    noise_to_config,
    random_pilots,
    sample_design,
    sample_noise,
    subgaussian_param,
)
from lsqbounds.params import ParameterError

SEED = SeedSpec(base_seed=123, trial=0, role="noise")


class TestSeedSpec:
    def test_reproducible(self):
        a = sample_noise(Gaussian(1.0), 64, SEED)
        b = sample_noise(Gaussian(1.0), 64, SeedSpec(123, 0, "noise"))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_trial_and_role(self):
        a = sample_noise(Gaussian(1.0), 64, SeedSpec(123, 0, "noise"))
        b = sample_noise(Gaussian(1.0), 64, SeedSpec(123, 1, "noise"))
        c = sample_noise(Gaussian(1.0), 64, SeedSpec(124, 0, "noise"))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_labels(self):
        with pytest.raises(ParameterError):
            SeedSpec(-1)
        with pytest.raises(ParameterError):
            SeedSpec(0, 0, "other")
        with pytest.raises(ParameterError):
            SeedSpec(2**64)


class TestSampleNoise:
    def test_degenerate_gaussian_is_zero(self):
        np.testing.assert_array_equal(sample_noise(Gaussian(0.0), 100, SEED), np.zeros(100))

    def test_mixture_mean_matches_law_of_large_numbers(self):
        model = GaussianMixture(0.05, 0.3, 0.1)
        draws = sample_noise(model, 1_000_000, SEED)
        mix_std = math.sqrt(0.9 * 0.05**2 + 0.1 * 0.3**2)
        assert abs(np.mean(draws)) <= 4.0 * mix_std / 1e3

    def test_single_tap_fir_equals_jammer(self):
        model = FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.0))
        v = sample_noise(model, 512, SEED)
        assert set(np.unique(v)) <= {-1.0, 1.0}

    def test_fir_convolution_structure(self):
        # with receiver silent and taps (1, h1), v[n] - h1*j[n-1] must be +-eta
        model = FirMds(taps=(1.0, 0.5), jammer_scale=1.0, receiver=Gaussian(0.0))
        v = sample_noise(model, 256, SEED)
        jam = sample_noise(
            FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.0)), 256, SEED
        )
        np.testing.assert_allclose(v[1:], jam[1:] + 0.5 * jam[:-1], rtol=0, atol=1e-12)
        assert v[0] == jam[0]

    def test_bounded_models_respect_bound_exactly(self):
        for model in (
            Uniform(0.7),
            Rademacher(1.3),
            FirMds(taps=(1.0, 0.8), jammer_scale=0.5, receiver=Uniform(0.2)),
        ):
            draws = sample_noise(model, 100_000, SEED)
            assert np.max(np.abs(draws)) <= noise_bound(model)


class TestSubgaussianParam:
    def test_gaussian(self):
        assert subgaussian_param(Gaussian(0.1)) == 0.1

    def test_rademacher(self):
        assert subgaussian_param(Rademacher(1.0)) == 1.0

    def test_uniform(self):
        assert subgaussian_param(Uniform(0.4)) == 0.4

    def test_uniform_plus_gaussian(self):
        assert subgaussian_param(UniformPlusGaussian(0.3, 0.4)) == pytest.approx(0.5)

    def test_fir_rule(self):
        model = FirMds(taps=(1.0, 0.8, 0.64), jammer_scale=0.25, receiver=Gaussian(0.1))
        assert subgaussian_param(model) == pytest.approx(0.25 * 2.44 + 0.1, rel=1e-12)

    def test_mixture_envelope_against_analytic_mgf(self):
        model = GaussianMixture(0.05, 0.3, 0.1)
        R = subgaussian_param(model)
        # declared parameter must dominate the analytic log-MGF on a wide grid
        s = np.geomspace(1e-3 / R, 1e3 / R, 2000)
        log_mgf = np.logaddexp(
            math.log(0.9) + s**2 * 0.05**2 / 2.0, math.log(0.1) + s**2 * 0.3**2 / 2.0
        )
        assert np.all(log_mgf <= s**2 * R**2 / 2.0 + 1e-9)
        # ... and sits between the mixture stddev and the large component
        assert math.sqrt(0.9 * 0.05**2 + 0.1 * 0.3**2) <= R <= 0.3 + 1e-12

    def test_mixture_envelope_against_monte_carlo_mgf(self):
        model = GaussianMixture(0.05, 0.3, 0.1)
        R = subgaussian_param(model)
        draws = sample_noise(model, 1_000_000, SeedSpec(77))
        for scale in (0.1, 0.5, 1.0, 2.0):
            for sign in (1.0, -1.0):
                s = sign * scale / R
                samples = np.exp(s * draws)
                est = float(np.mean(samples))
                se = float(np.std(samples)) / math.sqrt(draws.size)
                assert math.log(max(est - 4.0 * se, 1e-12)) <= s**2 * R**2 / 2.0 + 1e-9

    # At the grid-searched parameter this mixture was declared 3.1e-6 below
    # sigma_large, an R that fails for large s.
    FOUND_MIXTURE = GaussianMixture(0.03212514677695308, 0.03233766279609427, 0.038772994030047865)

    def test_mixture_param_against_mpmath_oracle(self):
        """The declared R^2 bounds 2 logMGF(s) / s^2 for s over 14 decades and
        equals its large-s limit (the ratio at s*sigma_large = 1e8 is within
        2|log w| / 1e16 of it)."""
        rng = np.random.default_rng(20261018)
        models = [self.FOUND_MIXTURE]
        for _ in range(40):
            large = float(10.0 ** rng.uniform(-3.0, 3.0))
            share = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 1.0 - 10.0 ** rng.uniform(-5, -1)
            models.append(GaussianMixture(large * float(share), large, float(rng.uniform(1e-3, 0.999))))
        with mpmath.workdps(60):
            for model in models:
                ss, sl, w = (mpmath.mpf(x) for x in (model.sigma_small, model.sigma_large, model.weight_large))
                R2 = mpmath.mpf(subgaussian_param(model)) ** 2

                def ratio(s):
                    mgf = (1 - w) * mpmath.exp(s * s * ss * ss / 2) + w * mpmath.exp(s * s * sl * sl / 2)
                    return 2 * mpmath.log(mgf) / (s * s)

                for k in range(-18, 25):
                    assert ratio(mpmath.mpf(10) ** (k / 3.0) / sl) <= R2, (model, k)
                assert abs(R2 - ratio(mpmath.mpf(10) ** 8 / sl)) <= 1e-12 * R2, model

    def test_declared_param_passes_mc_mgf_for_all_laws(self):
        models = [
            Gaussian(0.5),
            Uniform(0.8),
            Rademacher(1.1),
            UniformPlusGaussian(0.4, 0.3),
            FirMds(taps=(1.0, 0.8, 0.64, 0.512), jammer_scale=0.2, receiver=Gaussian(0.1)),
        ]
        for k, model in enumerate(models):
            R = subgaussian_param(model)
            draws = sample_noise(model, 400_000, SeedSpec(1000 + k))
            for scale in (0.1, 0.5, 1.0, 2.0):
                s = scale / R
                samples = np.exp(s * draws)
                est = float(np.mean(samples))
                se = float(np.std(samples)) / math.sqrt(draws.size)
                assert math.log(max(est - 4.0 * se, 1e-12)) <= s**2 * R**2 / 2.0 + 1e-9


class TestMartingaleProperty:
    @staticmethod
    def _conditional_means_by_sign_pattern(model: FirMds, n_draws: int):
        """Empirical mean of v[n] within each sign pattern of the k past
        jammer symbols, with standard errors."""
        k = len(model.taps) - 1
        seed = SeedSpec(2024, 0, "noise")
        v = sample_noise(model, n_draws, seed)
        jam_unit = sample_noise(
            FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.0)), n_draws, seed
        )
        signs = (jam_unit > 0).astype(int)
        pattern = np.zeros(n_draws - k, dtype=int)
        for lag in range(1, k + 1):
            pattern = pattern * 2 + signs[k - lag : n_draws - lag]
        tail = v[k:]
        out = []
        for code in range(2**k):
            bucket = tail[pattern == code]
            out.append((float(np.mean(bucket)), float(np.std(bucket) / math.sqrt(bucket.size))))
        return out

    def test_single_tap_conditional_mean_zero(self):
        model = FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.05))
        v = sample_noise(model, 1_000_000, SeedSpec(2024))
        jam = sample_noise(
            FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.0)), 1_000_000, SeedSpec(2024)
        )
        # condition on the previous jammer sign: no dependence for a 1-tap model
        for sign in (-1.0, 1.0):
            bucket = v[1:][jam[:-1] == sign]
            se = np.std(bucket) / math.sqrt(bucket.size)
            assert abs(np.mean(bucket)) <= 4.0 * se

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "with fixed taps the conditional mean given past jammer signs is the "
            "tap-weighted sign sum, not zero; the martingale-difference reading "
            "holds only when the taps are themselves zero-mean random"
        ),
    )
    def test_multi_tap_conditional_mean_zero(self):
        model = FirMds(taps=(1.0, 0.8, 0.64, 0.512), jammer_scale=0.2, receiver=Gaussian(0.05))
        for mean, se in self._conditional_means_by_sign_pattern(model, 1_000_000):
            assert abs(mean) <= 4.0 * se

    def test_multi_tap_conditional_mean_matches_tap_sum(self):
        # the honest statement: E(v | past signs) = eta * sum_i taps[i] * sign_i
        eta = 0.2
        taps = (1.0, 0.8, 0.64, 0.512)
        model = FirMds(taps=taps, jammer_scale=eta, receiver=Gaussian(0.05))
        means = self._conditional_means_by_sign_pattern(model, 1_000_000)
        k = len(taps) - 1
        for code, (mean, se) in enumerate(means):
            bits = [(code >> (k - lag)) & 1 for lag in range(1, k + 1)]
            predicted = eta * sum(
                taps[lag] * (1.0 if bits[lag - 1] else -1.0) for lag in range(1, k + 1)
            )
            assert mean == pytest.approx(predicted, abs=5.0 * se)

    def test_unconditional_mean_zero(self):
        model = FirMds(taps=(1.0, 0.8, 0.64, 0.512), jammer_scale=0.2, receiver=Gaussian(0.05))
        v = sample_noise(model, 1_000_000, SeedSpec(55))
        assert abs(np.mean(v)) <= 4.0 * np.std(v) / 1e3


class TestSampleDesign:
    def test_toeplitz_layout(self):
        model = ToeplitzPilot(pilots=(1.0, -1.0, 1.0), p=2)
        A = sample_design(model, 3, SeedSpec(0, 0, "design"))
        np.testing.assert_array_equal(A, [[1.0, 0.0], [-1.0, 1.0], [1.0, -1.0]])

    def test_toeplitz_deterministic(self):
        model = ToeplitzPilot(pilots=tuple(random_pilots(64, SeedSpec(9, 0, "design"))), p=4)
        A = sample_design(model, 32, SeedSpec(111, 5, "design"))
        B = sample_design(model, 32, SeedSpec(222, 9, "design"))
        np.testing.assert_array_equal(A, B)

    def test_iid_columns_gram_concentrates(self):
        model = IidBoundedColumns((1.0, 1.0), "scaled-rademacher")
        A = sample_design(model, 100_000, SeedSpec(3, 0, "design"))
        G = A.T @ A / 100_000
        assert np.max(np.abs(G - np.eye(2))) < 0.02

    def test_iid_columns_bounded_by_alpha(self):
        for law in ("scaled-uniform", "scaled-rademacher"):
            model = IidBoundedColumns((math.sqrt(0.2), 1.0), law)
            A = sample_design(model, 50_000, SeedSpec(4, 0, "design"))
            assert np.max(np.abs(A)) <= model.alpha
            # per-column bound: column stddev scales each column's support
            for i, sd in enumerate(model.column_stddevs):
                col_cap = sd * (math.sqrt(3.0) if law == "scaled-uniform" else 1.0)
                assert np.max(np.abs(A[:, i])) <= col_cap

    def test_iid_columns_variances(self):
        model = IidBoundedColumns((math.sqrt(0.2), 1.0), "scaled-uniform")
        A = sample_design(model, 200_000, SeedSpec(5, 0, "design"))
        np.testing.assert_allclose(np.var(A, axis=0), [0.2, 1.0], rtol=0.02)

    def test_fixed_matrix_verbatim(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        model = FixedMatrix(M)
        np.testing.assert_array_equal(sample_design(model, 3, SeedSpec(0, 0, "design")), M)
        with pytest.raises(ParameterError):
            sample_design(model, 4, SeedSpec(0, 0, "design"))

    def test_requires_more_rows_than_columns(self):
        with pytest.raises(ParameterError):
            sample_design(IidBoundedColumns((1.0, 1.0)), 2, SeedSpec(0, 0, "design"))

    def test_pilots_must_be_signs(self):
        with pytest.raises(ParameterError):
            ToeplitzPilot(pilots=(1.0, 0.5), p=1)


def _plain_rademacher(rng, shape):
    return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0


def _plain_design(model, N, seed):
    """The design sampler as a one-line numpy expression per entry law."""
    rng = seed.generator()
    sd = np.asarray(model.column_stddevs)
    if model.entry_law == "scaled-uniform":
        return rng.uniform(-1.0, 1.0, (N, model.p)) * (float(np.sqrt(3.0)) * sd)
    return _plain_rademacher(rng, (N, model.p)) * sd


def _plain_noise(model, n, seed):
    """The noise samplers as one-line numpy expressions."""
    if isinstance(model, Gaussian):
        return model.sigma * seed.generator().standard_normal(n)
    if isinstance(model, Uniform):
        return model.half_width * seed.generator().uniform(-1.0, 1.0, n)
    if isinstance(model, Rademacher):
        return model.scale * _plain_rademacher(seed.generator(), n)
    jam = model.jammer_scale * _plain_rademacher(seed.child(0).generator(), n)
    v = np.convolve(jam, np.asarray(model.taps))[:n]
    return v + _plain_noise(model.receiver, n, seed.child(1))


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


BASE_SEEDS = (0, 20240601, 2**64 - 1)


class TestSamplersMatchOneLineExpressions:
    """The in-place samplers reproduce rng.uniform(-1, 1, shape) * scale and
    the other one-line expressions bit for bit, so seeded streams and counts
    do not move.  This guards the random()-for-uniform() identity too."""

    @pytest.mark.parametrize("law", ["scaled-uniform", "scaled-rademacher"])
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_design(self, law, p, mixed):
        sds = tuple(0.3 + 0.45 * k for k in range(p)) if mixed else (0.7,) * p
        model = IidBoundedColumns(sds, law)
        for base in BASE_SEEDS:
            seed = SeedSpec(base, 17, "design")
            for N in (p + 1, 257, 10_000):
                _assert_bit_identical(sample_design(model, N, seed), _plain_design(model, N, seed))

    @pytest.mark.parametrize(
        "model",
        [
            Gaussian(0.7),
            Uniform(1.3),
            Rademacher(0.4),
            FirMds(taps=(1.0, 0.8, 0.64), jammer_scale=0.2, receiver=Gaussian(0.05)),
            FirMds(taps=(1.0, -0.5), jammer_scale=0.3, receiver=Uniform(0.1)),
        ],
    )
    def test_noise(self, model):
        for base in BASE_SEEDS:
            seed = SeedSpec(base, 17, "noise")
            for n in (2, 257, 10_000):
                _assert_bit_identical(sample_noise(model, n, seed), _plain_noise(model, n, seed))


class TestPrefixConsistency:
    """The first N draws made for N' > N equal the draws made for N."""

    SEED = SeedSpec(77, 4, "noise")

    @pytest.mark.parametrize(
        "model",
        [
            Gaussian(1.0),
            Uniform(1.0),
            Rademacher(1.0),
            FirMds(taps=(1.0, 0.8, 0.64), jammer_scale=0.2, receiver=Gaussian(0.05)),
            FirMds(taps=(1.0, -0.5), jammer_scale=0.3, receiver=Uniform(0.1)),
        ],
    )
    def test_noise(self, model):
        full = sample_noise(model, 4001, self.SEED)
        for n in (1, 2, 3, 1000, 4000):
            np.testing.assert_array_equal(sample_noise(model, n, self.SEED), full[:n])

    @pytest.mark.parametrize("law", ["scaled-uniform", "scaled-rademacher"])
    def test_design(self, law):
        model = IidBoundedColumns((0.5, 1.0, 2.0), law)
        seed = SeedSpec(77, 4, "design")
        full = sample_design(model, 4001, seed)
        for N in (4, 5, 1000, 4000):
            np.testing.assert_array_equal(sample_design(model, N, seed), full[:N])

    @pytest.mark.parametrize(
        "model", [UniformPlusGaussian(1.0, 0.5), GaussianMixture(0.1, 1.0, 0.3)]
    )
    def test_two_component_noise(self, model):
        full = sample_noise(model, 4001, self.SEED)
        for n in (1000, 4000):
            np.testing.assert_array_equal(sample_noise(model, n, self.SEED), full[:n])


class TestImpliedParams:
    def test_diagonal_spectrum_rule(self):
        design = IidBoundedColumns((math.sqrt(0.2), 1.0), "scaled-uniform")
        params = implied_problem_params(design, Uniform(1.0))
        assert params.sigma_min == pytest.approx(0.2, rel=1e-12)
        assert params.sigma_max == pytest.approx(1.0, rel=1e-12)
        assert params.alpha == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert params.R == 1.0
        assert params.b == 1.0

    def test_toeplitz_measured(self):
        design = ToeplitzPilot(random_pilots(512, SeedSpec(21, 0, "design")), p=8)
        params = implied_problem_params(design, Gaussian(0.1), N_hint=512)
        assert params.alpha == 1.0
        assert params.sigma_min > 0
        assert params.sigma_max <= 8.0 * (1 + 1e-9)

    def test_fixed_identity_violates_rows(self):
        with pytest.raises(ParameterError):
            implied_problem_params(FixedMatrix(np.eye(3)), Gaussian(1.0), N_hint=3)

    def test_nonrandom_design_needs_hint(self):
        design = ToeplitzPilot(random_pilots(64, SeedSpec(2, 0, "design")), p=4)
        with pytest.raises(ParameterError):
            implied_problem_params(design, Gaussian(1.0))


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "model",
        [
            Gaussian(0.3),
            GaussianMixture(0.05, 0.31, 0.1),
            Uniform(1.0),
            UniformPlusGaussian(0.2, 0.1),
            Rademacher(2.0),
            FirMds(taps=(1.0, 0.8), jammer_scale=0.25, receiver=Uniform(0.1)),
        ],
    )
    def test_noise_round_trip(self, model):
        assert noise_from_config(noise_to_config(model)) == model

    def test_design_round_trip(self):
        designs = [
            IidBoundedColumns((0.5, 1.0), "scaled-rademacher"),
            ToeplitzPilot((1.0, -1.0, 1.0, 1.0), 2),
        ]
        for model in designs:
            assert design_from_config(design_to_config(model)) == model

    def test_fixed_matrix_round_trip(self):
        model = FixedMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        again = design_from_config(design_to_config(model))
        np.testing.assert_array_equal(again.matrix, model.matrix)

    def test_kinds_stay_in_their_union(self):
        with pytest.raises(ParameterError):
            noise_from_config(design_to_config(ToeplitzPilot((1.0, -1.0, 1.0), 2)))
        with pytest.raises(ParameterError):
            design_from_config(noise_to_config(Gaussian(1.0)))
        with pytest.raises(ParameterError):
            noise_to_config(ToeplitzPilot((1.0, -1.0, 1.0), 2))
        with pytest.raises(ParameterError):
            design_to_config(Gaussian(1.0))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError):
            noise_from_config({"kind": "gaussian", "sigma": 1.0, "bogus": 2})
        with pytest.raises(ParameterError):
            noise_from_config({"kind": "laplace", "scale": 1.0})
        with pytest.raises(ParameterError):
            design_from_config({"kind": "iid-bounded-columns", "column_stddevs": [1.0]})

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ParameterError, match="out of range"):
            noise_from_config({"kind": "gaussian", "sigma": 10**400})
