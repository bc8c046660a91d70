"""Tests for noise/design generators, declared parameters, and seeding."""

import hashlib
import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args

import mpmath
import numpy as np
import pytest

from lsqbounds.models import (
    CONFIG_FIELDS,
    ROLE_IDS,
    ROOT3,
    DesignModel,
    FirMds,
    FixedMatrix,
    Gaussian,
    GaussianMixture,
    IidBoundedColumns,
    NoiseModel,
    Rademacher,
    SeedSpec,
    ToeplitzPilot,
    Uniform,
    UniformPlusGaussian,
    _seed_words,
    implied_problem_params,
    json_value,
    random_pilots,
)
from lsqbounds.params import ParameterError
from lsqbounds.presets import DEFAULT_SEED, FIGURES, PILOT_BUDGET, channel_pilot_design

SEED = SeedSpec(base_seed=123, trial=0, role="noise")


def _state(rng):
    """A generator's bit-generator state, key by key, with its arrays as tuples so that states compare."""
    state = rng.bit_generator.state
    return {k: {n: tuple(w.tolist()) for n, w in v.items()} if isinstance(v, dict) else v for k, v in state.items()}


class TestSeedSpec:
    def test_reproducible(self):
        a = Gaussian(1.0).sample(64, SEED)
        b = Gaussian(1.0).sample(64, SeedSpec(123, 0, "noise"))
        np.testing.assert_array_equal(a, b)

    def test_streams_differ_by_trial_and_role(self):
        a = Gaussian(1.0).sample(64, SeedSpec(123, 0, "noise"))
        b = Gaussian(1.0).sample(64, SeedSpec(123, 1, "noise"))
        c = Gaussian(1.0).sample(64, SeedSpec(124, 0, "noise"))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_bad_labels(self):
        with pytest.raises(ParameterError):
            SeedSpec(-1)
        with pytest.raises(ParameterError):
            SeedSpec(0, 0, "other")
        with pytest.raises(ParameterError):
            SeedSpec(2**64)
        for bad in (
            lambda: SeedSpec(1.0),
            lambda: SeedSpec(True),
            lambda: SeedSpec(0, False),
            lambda: SeedSpec(0, 2.0),
            lambda: SeedSpec(0, -1),
            lambda: SeedSpec(0, 0, "noise", (1.0,)),
            lambda: SeedSpec(0, 0, "noise", (-1,)),
            lambda: SeedSpec(0, 0, "noise", 3),
            lambda: SEED.child(-1),
            lambda: SEED.child(0.5),
        ):
            with pytest.raises(ParameterError):
                bad()

    def test_numpy_integer_labels_become_ints(self):
        spec = SeedSpec(np.uint64(2**64 - 1), np.int64(300), "design", [np.int32(2)])
        assert spec == SeedSpec(2**64 - 1, 300, "design", (2,))
        assert type(spec.base_seed) is int and type(spec.trial) is int
        assert type(spec.subkeys) is tuple and type(spec.subkeys[0]) is int

    def test_generator_equals_numpy_seed_sequence(self):
        # Streams are defined as Generator(SFC64(SeedSequence(...))); a numpy
        # release that changes SeedSequence or SFC64's seeding fails here
        # instead of silently moving every seeded count.
        rng = np.random.default_rng(20261018)
        random_seeds = rng.integers(0, 2**64, 4, dtype=np.uint64)
        seeds = [0, 2**32 - 1, 2**32, 2**64 - 1, *(int(x) for x in random_seeds)]
        trials = [0, 255, 256, 2**32 - 1, 2**32, *(int(x) for x in rng.integers(0, 2**40, 4))]
        subkey_sets = [(), (0,), (1,), (2**32 + 5,), (3, 2**33), (int(rng.integers(0, 2**62)),)]
        for seed in seeds:
            for trial in trials:
                for subkeys in subkey_sets:
                    role = ("design", "noise")[int(rng.integers(2))]
                    (ours,) = SeedSpec(seed, trial, role, subkeys).generators()
                    ref = np.random.Generator(np.random.SFC64(
                        np.random.SeedSequence(entropy=seed, spawn_key=(trial, ROLE_IDS[role], *subkeys))
                    ))
                    assert _state(ours) == _state(ref), (seed, trial, subkeys)
                    np.testing.assert_array_equal(ours.random(3), ref.random(3))

    def test_generators_of_one_label_share_no_state(self):
        label = SeedSpec(5, 300, "noise", (1,))
        (first,), (second,), (alone,) = label.generators(), label.generators(), label.generators()
        interleaved = [(first.random(), second.random()) for _ in range(4)]
        alone = alone.random(4)
        np.testing.assert_array_equal([a for a, _ in interleaved], alone)
        np.testing.assert_array_equal([b for _, b in interleaved], alone)

    @pytest.mark.parametrize("trials", [range(5, 5), range(3, 1), range(0, 10, 2), range(5, 0, -1), range(-1, 3)],
                             ids=["empty", "reversed", "step-2", "step-minus-1", "negative-start"])
    def test_block_labels_reject_bad_ranges(self, trials):
        with pytest.raises(ParameterError, match="trial range must be nonempty, of step 1 and from 0 up"):
            SeedSpec(0, trials, "noise")

    def test_block_generators_equal_one_trial_generators(self):
        # Each block crosses a 256-trial block of seed words, the last also 2**32.
        for seed, trials, subkeys in ((3, range(250, 262), ()), (2**64 - 1, range(0, 513), (1,)),
                                      (7, range(2**32 - 3, 2**32 + 2), (2, 5))):
            block = SeedSpec(seed, trials, "design", subkeys).generators()
            alone = [g for t in trials for g in SeedSpec(seed, t, "design", subkeys).generators()]
            assert [_state(g) for g in block] == [_state(g) for g in alone]

    def test_seed_word_block_is_a_pure_function_of_its_key(self):
        key = (11, ROLE_IDS["noise"], (0,), 3)
        cached = _seed_words(*key).copy()
        _seed_words.cache_clear()
        fresh = _seed_words(*key)
        np.testing.assert_array_equal(fresh, cached)
        assert fresh.shape == (256, 3) and fresh.dtype == np.uint64 and not fresh.flags.writeable

    def test_seed_words_answer_only_what_sfc64_asks_for(self):
        (rng,) = SeedSpec(11, 300, "noise", (0,)).generators()
        words = rng.bit_generator._seed_seq  # the SeedWords that seeded it
        want = np.random.SeedSequence(11, spawn_key=(300, ROLE_IDS["noise"], 0)).generate_state(3, np.uint64)
        np.testing.assert_array_equal(words.generate_state(3, np.uint64), want)
        for request in ((4, np.uint64), (2, np.uint64), (3, np.uint32), (6, np.uint32), (3,)):
            with pytest.raises(ValueError, match="seed words come as"):
                words.generate_state(*request)

    def test_import_does_not_load_numpy_random(self):
        # numpy.random loads on the first generators() call; importing it with
        # the package would add to every command's start-up time.
        import lsqbounds

        src = str(Path(lsqbounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, lsqbounds; print('numpy.random' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "False"


class TestSampleNoise:
    def test_degenerate_gaussian_is_zero(self):
        np.testing.assert_array_equal(Gaussian(0.0).sample(100, SEED), np.zeros(100))

    def test_mixture_mean_matches_law_of_large_numbers(self):
        model = GaussianMixture(0.05, 0.3, 0.1)
        draws = model.sample(1_000_000, SEED)
        mix_std = math.sqrt(0.9 * 0.05**2 + 0.1 * 0.3**2)
        assert abs(np.mean(draws)) <= 4.0 * mix_std / 1e3

    def test_single_tap_fir_equals_jammer(self):
        model = FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.0))
        v = model.sample(512, SEED)
        assert set(np.unique(v)) <= {-1.0, 1.0}

    def test_fir_convolution_structure(self):
        # with receiver silent and taps (1, h1), v[n] - h1*j[n-1] must be +-eta
        model = FirMds(taps=(1.0, 0.5), jammer_scale=1.0, receiver=Gaussian(0.0))
        v = model.sample(256, SEED)
        jam = FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.0)).sample(256, SEED)
        np.testing.assert_allclose(v[1:], jam[1:] + 0.5 * jam[:-1], rtol=0, atol=1e-12)
        assert v[0] == jam[0]

    def test_bounded_models_respect_bound_exactly(self):
        for model in (
            Uniform(0.7),
            Rademacher(1.3),
            FirMds(taps=(1.0, 0.8), jammer_scale=0.5, receiver=Uniform(0.2)),
        ):
            draws = model.sample(100_000, SEED)
            assert np.max(np.abs(draws)) <= model.bound


class TestSubgaussianParam:
    def test_gaussian(self):
        assert Gaussian(0.1).subgaussian_param == 0.1

    def test_rademacher(self):
        assert Rademacher(1.0).subgaussian_param == 1.0

    def test_uniform(self):
        assert Uniform(0.4).subgaussian_param == 0.4

    def test_uniform_plus_gaussian(self):
        assert UniformPlusGaussian(0.3, 0.4).subgaussian_param == pytest.approx(0.5)

    def test_fir_rule(self):
        model = FirMds(taps=(1.0, 0.8, 0.64), jammer_scale=0.25, receiver=Gaussian(0.1))
        assert model.subgaussian_param == pytest.approx(0.25 * 2.44 + 0.1, rel=1e-12)

    def test_mixture_envelope_against_analytic_mgf(self):
        model = GaussianMixture(0.05, 0.3, 0.1)
        R = model.subgaussian_param
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
        R = model.subgaussian_param
        draws = model.sample(1_000_000, SeedSpec(77))
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
                R2 = mpmath.mpf(model.subgaussian_param) ** 2

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
            R = model.subgaussian_param
            draws = model.sample(400_000, SeedSpec(1000 + k))
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
        v = model.sample(n_draws, seed)
        unit = FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.0))
        jam_unit = unit.sample(n_draws, seed)
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
        v = model.sample(1_000_000, SeedSpec(2024))
        unit = FirMds(taps=(1.0,), jammer_scale=1.0, receiver=Gaussian(0.0))
        jam = unit.sample(1_000_000, SeedSpec(2024))
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
        v = model.sample(1_000_000, SeedSpec(55))
        assert abs(np.mean(v)) <= 4.0 * np.std(v) / 1e3


class TestSampleDesign:
    def test_toeplitz_layout(self):
        model = ToeplitzPilot(pilots=(1.0, -1.0, 1.0), p=2)
        A = model.sample(3, SeedSpec(0, 0, "design"))
        np.testing.assert_array_equal(A, [[1.0, 0.0], [-1.0, 1.0], [1.0, -1.0]])

    def test_toeplitz_deterministic(self):
        model = ToeplitzPilot(pilots=tuple(random_pilots(64, SeedSpec(9, 0, "design"))), p=4)
        A = model.sample(32, SeedSpec(111, 5, "design"))
        B = model.sample(32, SeedSpec(222, 9, "design"))
        np.testing.assert_array_equal(A, B)

    def test_toeplitz_reads_a_read_only_copy_of_its_pilots(self):
        model = ToeplitzPilot(pilots=tuple(random_pilots(64, SeedSpec(9, 0, "design"))), p=4)
        s = np.asarray(model.pilots)
        expected = np.zeros((40, 4))
        for k in range(4):
            expected[k:, k] = s[: 40 - k]
        A = model.sample(40, SeedSpec(0, 0, "design"))
        assert A.tobytes() == expected.tobytes()
        assert not model.symbols.flags.writeable
        with pytest.raises(ValueError):
            model.symbols[0] = 1.0

    def test_toeplitz_pickles_its_pilots_once(self):
        # A pool whose start method pickles sends each worker the design once.
        model = channel_pilot_design(p=8)
        data = pickle.dumps(model)
        assert len(data) <= 74_000
        copy = pickle.loads(data)
        assert copy == model
        assert not copy.symbols.flags.writeable
        seed = SeedSpec(0, 0, "design")
        assert copy.sample(7500, seed).tobytes() == model.sample(7500, seed).tobytes()

    def test_iid_columns_gram_concentrates(self):
        model = IidBoundedColumns((1.0, 1.0), "scaled-rademacher")
        A = model.sample(100_000, SeedSpec(3, 0, "design"))
        G = A.T @ A / 100_000
        assert np.max(np.abs(G - np.eye(2))) < 0.02

    def test_iid_columns_bounded_by_alpha(self):
        for law in ("scaled-uniform", "scaled-rademacher"):
            model = IidBoundedColumns((math.sqrt(0.2), 1.0), law)
            A = model.sample(50_000, SeedSpec(4, 0, "design"))
            assert np.max(np.abs(A)) <= model.alpha
            # per-column bound: column stddev scales each column's support
            for i, sd in enumerate(model.column_stddevs):
                col_cap = sd * (math.sqrt(3.0) if law == "scaled-uniform" else 1.0)
                assert np.max(np.abs(A[:, i])) <= col_cap

    def test_iid_columns_variances(self):
        model = IidBoundedColumns((math.sqrt(0.2), 1.0), "scaled-uniform")
        A = model.sample(200_000, SeedSpec(5, 0, "design"))
        np.testing.assert_allclose(np.var(A, axis=0), [0.2, 1.0], rtol=0.02)

    def test_fixed_matrix_verbatim(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        model = FixedMatrix(M)
        np.testing.assert_array_equal(model.sample(3, SeedSpec(0, 0, "design")), M)
        with pytest.raises(ParameterError):
            model.sample(4, SeedSpec(0, 0, "design"))

    def test_requires_more_rows_than_columns(self):
        with pytest.raises(ParameterError):
            IidBoundedColumns((1.0, 1.0)).sample(2, SeedSpec(0, 0, "design"))


class TestFixedMatrix:
    def test_stores_read_only_c_ordered_copy(self):
        M = np.asfortranarray([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        m = FixedMatrix(M).matrix
        assert m.flags.c_contiguous and m is not M
        np.testing.assert_array_equal(m, M)
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
        M[0, 0] = 5.0
        assert m[0, 0] == 1.0

    def test_compares_and_hashes_by_value(self):
        m = np.array([[1.0, -0.0], [3.0, 4.0]])
        a, b = FixedMatrix(m), FixedMatrix(m + 0.0)  # m + 0.0 holds 0.0 where m holds -0.0
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != FixedMatrix(m.T) and a != FixedMatrix(2 * m) and a != m.tolist()
        assert FixedMatrix(np.ones((2, 2))) != FixedMatrix(np.ones((1, 4)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError, match="finite"):
            FixedMatrix([[1.0, math.nan]])

    @pytest.mark.parametrize("entries", [[1.0, 2.0], [[]], [[[1.0]]]], ids=["1-d", "empty", "3-d"])
    def test_rejects_wrong_shape(self, entries):
        with pytest.raises(ParameterError, match="2-D matrix"):
            FixedMatrix(entries)

    def test_pilots_must_be_signs(self):
        with pytest.raises(ParameterError):
            ToeplitzPilot(pilots=(1.0, 0.5), p=1)

    @pytest.mark.parametrize("p", [2.5, 2.0, "2", 0])
    def test_pilot_width_must_be_an_integer_when_made(self, p):
        # Not later, in sample, where a float width raised TypeError.
        with pytest.raises(ParameterError, match="^p must be (an integer|at least 1), got "):
            ToeplitzPilot((1.0, -1.0, 1.0, 1.0), p)
        model = ToeplitzPilot((1.0, -1.0, 1.0, 1.0), np.int64(2))
        assert type(model.p) is int and model.sample(3, SeedSpec(0, 0, "design")).shape == (3, 2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, False])
@pytest.mark.parametrize(
    "build,name",
    [
        (Gaussian, "sigma"),
        (Uniform, "half_width"),
        (Rademacher, "scale"),
        (lambda x: UniformPlusGaussian(x, 0.0), "half_width"),
        (lambda x: UniformPlusGaussian(1.0, x), "sigma"),
        (lambda x: GaussianMixture(x, 1.0, 0.5), "sigma_small"),
        (lambda x: GaussianMixture(0.1, x, 0.5), "sigma_large"),
        (lambda x: FirMds(taps=(1.0,), jammer_scale=x, receiver=Gaussian(0.1)), "jammer_scale"),
        (lambda x: IidBoundedColumns((x, 1.0)), "column_stddevs"),
    ],
    ids=["gaussian", "uniform", "rademacher", "upg-half_width", "upg-sigma", "mixture-sigma_small",
         "mixture-sigma_large", "fir-jammer_scale", "iid-column_stddevs"],
)
def test_a_scale_must_be_finite_and_nonnegative(build, name, value):
    # An infinite scale once passed the check not (x >= 0), and a run then
    # counted every trial, drawn on inf or nan noise, as an exceedance.
    rule = "positive and finite" if name == "column_stddevs" else "finite and nonnegative"
    with pytest.raises(ParameterError, match=f"^{name} must be {rule}, got {value}"):
        build(value)


@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: GaussianMixture(2.0, 1.0, 0.5), "sigma_small <= sigma_large"),
        (lambda: GaussianMixture(0.5, 1.0, 0.0), r"weight_large must lie in \(0,1\)"),
        (lambda: GaussianMixture(0.5, 1.0, 1.0), r"weight_large must lie in \(0,1\)"),
        (lambda: FirMds(taps=(), jammer_scale=0.1, receiver=Gaussian(0.1)), "at least one tap"),
        (lambda: FirMds(taps=(1.0, math.nan), jammer_scale=0.1, receiver=Gaussian(0.1)), "each finite"),
        (lambda: FirMds(taps=(-math.inf,), jammer_scale=0.1, receiver=Gaussian(0.1)), "each finite"),
        (lambda: IidBoundedColumns((1.0,), "gaussian"), "entry_law must be one of"),
        (lambda: IidBoundedColumns((1.0, 0.0)), "column_stddevs must be positive and finite, got 0.0"),
        (lambda: IidBoundedColumns(()), "the number of column_stddevs must be at least 1, got 0"),
        (lambda: random_pilots(0, SeedSpec(0, 0, "design")), "length must be at least 1, got 0"),
        (lambda: random_pilots(2.5, SeedSpec(0, 0, "design")), "length must be an integer, got 2.5"),
        (lambda: random_pilots(8, SeedSpec(0, range(3), "design")), "pilots need a one-trial label"),
        (lambda: ToeplitzPilot((1.0, -1.0), 2), "the number of pilots must be at least 3, got 2"),
    ],
    ids=["mixture-sigma-order", "mixture-weight-0", "mixture-weight-1", "fir-no-taps", "fir-nan-tap",
         "fir-infinite-tap", "iid-entry-law", "iid-zero-stddev", "iid-no-stddevs", "pilots-length-0",
         "pilots-length-2.5", "pilots-block-label", "toeplitz-too-few-pilots"],
)
def test_rejects_arguments_outside_the_domain(build, match):
    with pytest.raises(ParameterError, match=match):
        build()


def _plain_rademacher(rng, shape):
    """Sign k (in C order) is bit k mod 64, from the least significant, of raw word k // 64, as +-1."""
    k = np.arange(np.prod(shape), dtype=np.uint64)
    words = rng.bit_generator.random_raw(-(-k.size // 64))
    return ((words[k // np.uint64(64)] >> k % np.uint64(64) & np.uint64(1)) * 2.0 - 1.0).reshape(shape)


def _plain_design(model, N, seed):
    """The design sampler as a one-line numpy expression per entry law."""
    (rng,) = seed.generators()
    sd = np.asarray(model.column_stddevs)
    if model.entry_law == "scaled-uniform":
        return rng.uniform(-1.0, 1.0, (N, model.p)) * (float(np.sqrt(3.0)) * sd)
    return _plain_rademacher(rng, (N, model.p)) * sd


def _plain_noise(model, n, seed):
    """The noise samplers as one-line numpy expressions on the one-trial seed's stream or its children's."""
    (rng,), (rng0,), (rng1,) = seed.generators(), seed.child(0).generators(), seed.child(1).generators()
    if isinstance(model, Gaussian):
        return model.sigma * rng.standard_normal(n)
    if isinstance(model, Uniform):
        return model.half_width * rng.uniform(-1.0, 1.0, n)
    if isinstance(model, Rademacher):
        return model.scale * _plain_rademacher(rng, n)
    if isinstance(model, GaussianMixture):
        large = rng0.uniform(0.0, 1.0, n) < model.weight_large
        return np.where(large, model.sigma_large, model.sigma_small) * rng1.standard_normal(n)
    if isinstance(model, UniformPlusGaussian):
        return model.half_width * rng0.uniform(-1.0, 1.0, n) + model.sigma * rng1.standard_normal(n)
    jam = model.jammer_scale * _plain_rademacher(rng0, n)
    v = np.convolve(jam, np.asarray(model.taps))[:n]
    return v + _plain_noise(model.receiver, n, seed.child(1))


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


BASE_SEEDS = (0, 20240601, 2**64 - 1)


def _sampled(model, n, seed, shape, into):
    """model.sample(n, seed) or, if into, the draw made into a row of a buffer
    of NaNs, as the trial blocks make it: it must return that row, bit-identical
    to the allocating call."""
    if not into:
        return model.sample(n, seed)
    out = np.full((2, *shape), np.nan)[1]
    got = model.sample(n, seed, out=out)
    assert got is out
    _assert_bit_identical(got, model.sample(n, seed))
    return got


NOISE_LAWS = [
    Gaussian(0.7),
    GaussianMixture(0.3, 2.5, 0.2),
    Uniform(1.3),
    UniformPlusGaussian(0.8, 0.25),
    Rademacher(0.4),
    FirMds(taps=(1.0, 0.8, 0.64), jammer_scale=0.2, receiver=Gaussian(0.05)),
    FirMds(taps=(1.0, -0.5), jammer_scale=0.3, receiver=Uniform(0.1)),
]


class TestSamplersMatchOneLineExpressions:
    """The in-place samplers reproduce rng.uniform(-1, 1, shape) * scale and
    the other one-line expressions bit for bit, whether they allocate or draw
    into a given buffer, so seeded streams and counts do not move.  This
    guards the random()-for-uniform() identity too."""

    @pytest.mark.parametrize("into", [False, True], ids=["alloc", "out"])
    @pytest.mark.parametrize("law", ["scaled-uniform", "scaled-rademacher"])
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_design(self, law, p, mixed, into):
        sds = tuple(0.3 + 0.45 * k for k in range(p)) if mixed else (0.7,) * p
        model = IidBoundedColumns(sds, law)
        for base in BASE_SEEDS:
            seed = SeedSpec(base, 17, "design")
            for N in (p + 1, 257, 10_000):
                _assert_bit_identical(_sampled(model, N, seed, (N, p), into), _plain_design(model, N, seed))

    # Twice the factor sqrt(3) 6e307 of a uniform column, or 1e308 of a sign
    # column or of a uniform or sign noise, overflows, but the draw is finite.
    @pytest.mark.parametrize("into", [False, True], ids=["alloc", "out"])
    @pytest.mark.parametrize(
        "law,sds",
        [("scaled-uniform", (6e307,)), ("scaled-uniform", (6e307, 0.7)), ("scaled-rademacher", (1e308, 0.7))],
        ids=["uniform", "uniform-mixed", "rademacher-mixed"],
    )
    def test_design_near_the_float_limit(self, law, sds, into):
        model, seed = IidBoundedColumns(sds, law), SeedSpec(0, 17, "design")
        _assert_bit_identical(_sampled(model, 257, seed, (257, len(sds)), into), _plain_design(model, 257, seed))

    @pytest.mark.parametrize("into", [False, True], ids=["alloc", "out"])
    @pytest.mark.parametrize(
        "model",
        [
            Gaussian(0.7),
            GaussianMixture(0.3, 2.5, 0.2),
            Uniform(1.3),
            UniformPlusGaussian(0.8, 0.25),
            Rademacher(0.4),
            FirMds(taps=(1.0, 0.8, 0.64), jammer_scale=0.2, receiver=Gaussian(0.05)),
            FirMds(taps=(1.0, -0.5), jammer_scale=0.3, receiver=Uniform(0.1)),
            Uniform(1e308),
            Rademacher(1e308),
        ],
    )
    def test_noise(self, model, into):
        for base in BASE_SEEDS:
            seed = SeedSpec(base, 17, "noise")
            for n in (2, 257, 10_000):
                _assert_bit_identical(_sampled(model, n, seed, (n,), into), _plain_noise(model, n, seed))

    # Trials 250..261 cross the 256-trial boundary of the seed-word blocks.
    BLOCK = range(250, 262)

    @pytest.mark.parametrize("into", [False, True], ids=["alloc", "out"])
    @pytest.mark.parametrize("law", ["scaled-uniform", "scaled-rademacher"])
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_design_block(self, law, p, mixed, into):
        """A block label's rows are the one-trial draws of its trials."""
        sds = tuple(0.3 + 0.45 * k for k in range(p)) if mixed else (0.7,) * p
        model = IidBoundedColumns(sds, law)
        for base in BASE_SEEDS:
            for N in (p + 1, 257):
                got = _sampled(model, N, SeedSpec(base, self.BLOCK, "design"), (len(self.BLOCK), N, p), into)
                for row, t in zip(got, self.BLOCK, strict=True):
                    _assert_bit_identical(row, model.sample(N, SeedSpec(base, t, "design")))

    @pytest.mark.parametrize("into", [False, True], ids=["alloc", "out"])
    @pytest.mark.parametrize("model", NOISE_LAWS)
    def test_noise_block(self, model, into):
        """A block label's rows are the one-trial draws of its trials."""
        for base in BASE_SEEDS:
            for n in (2, 257):
                got = _sampled(model, n, SeedSpec(base, self.BLOCK, "noise"), (len(self.BLOCK), n), into)
                for row, t in zip(got, self.BLOCK, strict=True):
                    _assert_bit_identical(row, model.sample(n, SeedSpec(base, t, "noise")))


class TestSignLaw:
    """Every +-1 draw (Rademacher noise, the FirMds jammer, scaled-rademacher
    columns) takes sign k of a trial from bit k mod 64, counted from the least
    significant bit, of its bit generator's raw word k // 64."""

    # Counts on and off a multiple of 64, for the trials 250..261 of a block
    # label, which cross the 256-trial boundary of the seed-word blocks.
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 4097])
    def test_block_rows_equal_the_reference_expression(self, n):
        block = SeedSpec(3, range(250, 262), "noise")
        got = Rademacher(1.0).sample(n, block)
        for row, rng in zip(got, block.generators(), strict=True):
            _assert_bit_identical(row, _plain_rademacher(rng, n))

    def test_signs_are_balanced_and_uncorrelated(self):
        # The share of +1, and of equal neighbours at lags 1 and 64, each
        # within 5 standard errors of 1/2.
        bits = Rademacher(1.0).sample(2**20, SeedSpec(20261022, 0, "noise")) > 0
        for x in (bits, bits[1:] == bits[:-1], bits[64:] == bits[:-64]):
            assert abs(x.mean() - 0.5) <= 5.0 * 0.5 / math.sqrt(x.size)


class TestPilots:
    """The pilots are a model constant, not a trial draw: fig5's printed N,
    fig6's bound column and the benchmark's recorded outage bound depend on
    them, so they keep their own stream when the trial streams change."""

    # sha256 of the little-endian float64 bytes of channel_pilot_design()'s symbols.
    DIGEST = "0dbd9f388f71625aaa77a02a6928f3497de979e51e81a79417b9f38c78550a89"

    def test_channel_pilots_equal_their_digest(self):
        symbols = np.asarray(channel_pilot_design(seed=DEFAULT_SEED).pilots, dtype="<f8")
        assert symbols.shape == (PILOT_BUDGET,) == (8192,)
        assert hashlib.sha256(symbols.tobytes()).hexdigest() == self.DIGEST

    @pytest.mark.parametrize(
        "seed",
        [SeedSpec(9, 0, "design"), SeedSpec(2**64 - 1, 2**32, "design", (3,)), SeedSpec(0, 5, "noise", (1, 2**40))],
        ids=["design", "large", "noise-subkeys"],
    )
    def test_random_pilots_are_default_rng_integers(self, seed):
        key = (seed.trial, ROLE_IDS[seed.role], *seed.subkeys)
        bits = np.random.default_rng(np.random.SeedSequence(seed.base_seed, spawn_key=key)).integers(0, 2, 1000)
        np.testing.assert_array_equal(random_pilots(1000, seed), np.where(bits == 1, 1.0, -1.0))


def _preset_factors() -> set:
    """The factor c of every centred draw c (2u - 1) that the presets make:
    the per-column factor of a design, the scale of a uniform or sign noise
    and of a jammer, and 1 for a pilot sequence."""
    factors = {1.0}
    for panel in (panel for fig in FIGURES.values() for panel in fig.panels):
        design, noise = panel.models(0)
        if isinstance(design, IidBoundedColumns):
            uniform = design.entry_law == "scaled-uniform"
            factors.update(ROOT3 * sd if uniform else sd for sd in design.column_stddevs)
        for model in (noise, getattr(noise, "receiver", None)):
            factors.update(getattr(model, name) for name in ("half_width", "scale", "jammer_scale")
                           if hasattr(model, name))
    return factors


class TestCentring:
    """The samplers centre a draw u as (u - 1/2) (2c), one pass fewer than
    c (2u - 1); the two agree bit for bit because u - 1/2, 2u - 1 and every
    doubling are exact for u = k 2^-53."""

    EDGES = (0.0, 2.0**-53, 0.25, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53)

    def test_factors_cover_the_presets(self):
        factors = _preset_factors()
        assert {ROOT3 * math.sqrt(0.2), ROOT3, 1.0} <= factors
        assert FIGURES["fig5"].panels[0].models(0)[1].jammer_scale in factors

    @pytest.mark.parametrize("c", sorted(_preset_factors()))
    def test_identity(self, c):
        u = np.concatenate([self.EDGES, np.random.default_rng(5).random(10**5)])
        signs = np.random.default_rng(5).integers(0, 2, size=10**5).astype(float)
        for x in (u, signs):
            assert ((x - 0.5) * (2.0 * c)).tobytes() == (c * (2.0 * x - 1.0)).tobytes()


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
        full = model.sample(4001, self.SEED)
        for n in (1, 2, 3, 1000, 4000):
            np.testing.assert_array_equal(model.sample(n, self.SEED), full[:n])

    @pytest.mark.parametrize("law", ["scaled-uniform", "scaled-rademacher"])
    def test_design(self, law):
        model = IidBoundedColumns((0.5, 1.0, 2.0), law)
        seed = SeedSpec(77, 4, "design")
        full = model.sample(4001, seed)
        for N in (4, 5, 1000, 4000):
            np.testing.assert_array_equal(model.sample(N, seed), full[:N])

    @pytest.mark.parametrize(
        "model", [UniformPlusGaussian(1.0, 0.5), GaussianMixture(0.1, 1.0, 0.3)]
    )
    def test_two_component_noise(self, model):
        full = model.sample(4001, self.SEED)
        for n in (1000, 4000):
            np.testing.assert_array_equal(model.sample(n, self.SEED), full[:n])

    BLOCK = SeedSpec(77, range(250, 262), "noise")

    @pytest.mark.parametrize("model", NOISE_LAWS)
    def test_noise_block(self, model):
        full = model.sample(4001, self.BLOCK)
        for n in (1, 2, 3, 1000, 4000):
            np.testing.assert_array_equal(model.sample(n, self.BLOCK), full[:, :n])

    @pytest.mark.parametrize("law", ["scaled-uniform", "scaled-rademacher"])
    def test_design_block(self, law):
        model = IidBoundedColumns((0.5, 1.0, 2.0), law)
        seed = SeedSpec(77, range(250, 262), "design")
        full = model.sample(4001, seed)
        for N in (4, 5, 1000, 4000):
            np.testing.assert_array_equal(model.sample(N, seed), full[:, :N])


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


class TestModelInterface:
    """Each noise law answers sample, subgaussian_param and bound; each design
    family answers sample, random and p.  None of these members is a dataclass
    field, so none of them is a config key."""

    NOISES = (
        Gaussian(0.3),
        GaussianMixture(0.05, 0.31, 0.1),
        Uniform(1.0),
        UniformPlusGaussian(0.2, 0.1),
        Rademacher(2.0),
        FirMds(taps=(1.0, 0.8), jammer_scale=0.25, receiver=Uniform(0.1)),
    )
    DESIGNS = (
        IidBoundedColumns((0.5, 1.0), "scaled-rademacher"),
        ToeplitzPilot((1.0, -1.0, 1.0, 1.0), 2),
        FixedMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])),
    )

    def test_examples_cover_every_class(self):
        assert {type(m) for m in self.NOISES} == set(get_args(NoiseModel))
        assert {type(m) for m in self.DESIGNS} == set(get_args(DesignModel))

    @pytest.mark.parametrize("model", NOISES, ids=lambda m: type(m).__name__)
    def test_noise_members(self, model):
        v = model.sample(5, SEED)
        assert v.shape == (5,) and v.dtype == np.float64
        assert isinstance(model.subgaussian_param, float) and model.subgaussian_param > 0
        assert model.bound is None or np.max(np.abs(v)) <= model.bound

    @pytest.mark.parametrize("model", DESIGNS, ids=lambda m: type(m).__name__)
    def test_design_members(self, model):
        A = model.sample(3, SeedSpec(0, 0, "design"))
        assert A.shape == (3, model.p)
        assert model.random is isinstance(model, IidBoundedColumns)

    @pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
    def test_config_keys_are_the_dataclass_fields(self, cls):
        names = [f.name for f in fields(cls)]
        assert [name for name, _ in CONFIG_FIELDS[cls].values()] == names
        assert not {"sample", "subgaussian_param", "bound", "random"} & set(names)


class TestConfigReader:
    """Each model is read from its config, spelled out as a run config holds it."""

    @pytest.mark.parametrize(
        "config,model",
        [
            ({"kind": "gaussian", "sigma": 0.3}, Gaussian(0.3)),
            ({"kind": "gaussian-mixture", "sigma_small": 0.05, "sigma_large": 0.31, "weight_large": 0.1},
             GaussianMixture(0.05, 0.31, 0.1)),
            ({"kind": "uniform", "half_width": 1}, Uniform(1.0)),
            ({"kind": "uniform-plus-gaussian", "half_width": 0.2, "sigma": 0.1}, UniformPlusGaussian(0.2, 0.1)),
            ({"kind": "rademacher", "scale": 2.0}, Rademacher(2.0)),
            ({"kind": "fir-mds", "taps": [1, 0.8], "jammer_scale": 0.25,
              "receiver": {"kind": "uniform", "half_width": 0.1}},
             FirMds(taps=(1.0, 0.8), jammer_scale=0.25, receiver=Uniform(0.1))),
        ],
    )
    def test_noise_configs(self, config, model):
        assert json_value(config, NoiseModel, "noise") == model

    @pytest.mark.parametrize(
        "config,model",
        [
            ({"kind": "iid-bounded-columns", "column_stddevs": [0.5, 1], "entry_law": "scaled-rademacher"},
             IidBoundedColumns((0.5, 1.0), "scaled-rademacher")),
            ({"kind": "toeplitz-pilot", "pilots": [1, -1, 1, 1], "p": 2}, ToeplitzPilot((1.0, -1.0, 1.0, 1.0), 2)),
            ({"kind": "fixed-matrix", "entries": [[1, 2], [3, 4], [5, 6.0]]},
             FixedMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))),
        ],
    )
    def test_design_configs(self, config, model):
        assert json_value(config, DesignModel, "design") == model

    def test_kinds_stay_in_their_union(self):
        with pytest.raises(ParameterError, match="unknown model kind 'toeplitz-pilot'"):
            json_value({"kind": "toeplitz-pilot", "pilots": [1, -1, 1], "p": 2}, NoiseModel, "noise")
        with pytest.raises(ParameterError, match="unknown model kind 'gaussian'"):
            json_value({"kind": "gaussian", "sigma": 1.0}, DesignModel, "design")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError):
            json_value({"kind": "gaussian", "sigma": 1.0, "bogus": 2}, NoiseModel, "noise")
        with pytest.raises(ParameterError):
            json_value({"kind": "laplace", "scale": 1.0}, NoiseModel, "noise")
        with pytest.raises(ParameterError):
            json_value({"kind": "iid-bounded-columns", "column_stddevs": [1.0]}, DesignModel, "design")

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ParameterError, match="out of range"):
            json_value({"kind": "gaussian", "sigma": 10**400}, NoiseModel, "noise")
