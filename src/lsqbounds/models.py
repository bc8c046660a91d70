"""Seeded generators for noise laws and design-matrix families.

Every model is a frozen dataclass whose sample(count, seed) is a pure
function of (model, count, SeedSpec), so trials can run concurrently and in
any order without sharing RNG state.  A seed whose trial is a range labels a
block: sample stacks one row per trial, each its one-trial draw bit for bit,
and centres and scales the block in one pass.  A random model's sample(count,
seed, out) fills and returns out, a C-contiguous float array, with the same
values.  A noise law also declares subgaussian_param, a valid (not necessarily
minimal) sub-Gaussian parameter, and bound, an almost-sure bound on |v| or
None when the law is unbounded.  A design family declares p and random,
whether a trial draws its own matrix.  Members that are not dataclass fields
never become config keys.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .params import (ParameterError, ProblemParams, SimulationQualityError, as_count, as_fraction, as_positive,
                     as_scale, as_seed)

ROLE_IDS = {"design": 0, "noise": 1}

ROOT3 = float(np.sqrt(3.0))
PIVOT_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Seeding

_MASK32 = 0xFFFFFFFF
_SEED_BLOCK = 256  # trials per cached block of seed words; divides 2**32


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream label: (base seed, trial index, role, subkeys).

    Its stream is default_rng(SeedSequence(base_seed, spawn_key=(trial,
    ROLE_IDS[role], *subkeys))), the same across runs, platforms, worker
    counts and call orders, built from a cached block of 256 trials' words.
    A trial range (nonempty, of step 1, from 0 up) labels one stream per trial.
    """

    base_seed: int
    trial: int | range = 0
    role: str = "noise"
    subkeys: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        ranged = type(self.trial) is range
        if ranged and not (self.trial and self.trial.step == 1 and self.trial.start >= 0):
            raise ParameterError(f"a trial range must be nonempty, of step 1 and from 0 up, got {self.trial!r}")
        if not isinstance(self.subkeys, (tuple, list)):
            raise ParameterError(f"subkeys must be a sequence of integers, got {self.subkeys!r}")
        # The readers turn numpy integers into ints.
        object.__setattr__(self, "base_seed", as_seed("base_seed", self.base_seed))
        if not ranged:
            object.__setattr__(self, "trial", as_count("trial", self.trial, 0))
        object.__setattr__(self, "subkeys", tuple(as_count("subkey", k, 0) for k in self.subkeys))
        if self.role not in ROLE_IDS:
            raise ParameterError(f"role must be one of {sorted(ROLE_IDS)}, got {self.role!r}")

    def generators(self) -> list[np.random.Generator]:
        """A fresh stream per trial of the label, in order, from one lookup per 256-trial block."""
        trials = self.trial if type(self.trial) is range else range(self.trial, self.trial + 1)
        rngs, seeded = [], _seeded_pcg64()
        for block in range(trials.start // _SEED_BLOCK, (trials.stop - 1) // _SEED_BLOCK + 1):
            words = _seed_words(self.base_seed, ROLE_IDS[self.role], self.subkeys, block)
            rows = range(_SEED_BLOCK)[max(trials.start - block * _SEED_BLOCK, 0) : trials.stop - block * _SEED_BLOCK]
            rngs += [np.random.Generator(seeded(words[i])) for i in rows]  # indexing rows beats iterating them
        return rngs

    def child(self, k: int) -> "SeedSpec":
        """Independent sub-stream k of this stream (for nested models)."""
        return SeedSpec(self.base_seed, self.trial, self.role, (*self.subkeys, k))


@functools.cache
def _seeded_pcg64():
    """The map from a row of _seed_words to a fresh PCG64, which seeds itself
    in C; built on the first generators() call, which imports numpy.random."""
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for (4, np.uint64) only

    return lambda words: PCG64(SeedWords(words))


def _words32(n: int) -> list[int]:
    """n as little-endian 32-bit words, [0] for 0, as SeedSequence splits it."""
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hasher(const: int, mult: int):
    """numpy's hashmix on an int or a uint32 array (which wraps mod 2**32)."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):  # numpy's mix, with its MIX_MULT_L and MIX_MULT_R
    out = ((0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32)) & _MASK32
    return out ^ out >> 16


@functools.lru_cache(maxsize=32)
def _seed_words(base_seed: int, role_id: int, subkeys: tuple[int, ...], block: int) -> np.ndarray:
    """Read-only (256, 4) uint64 array whose row i is SeedSequence(base_seed, spawn_key=
    (t, role_id, *subkeys)).generate_state(4, np.uint64) for t = 256 block + i: numpy's
    mix_entropy and generate_state, the trial's low word as an array, all else as ints."""
    base, trial = _words32(base_seed), _words32(block * _SEED_BLOCK)
    trial[0] = np.arange(_SEED_BLOCK, dtype=np.uint32) + trial[0]
    entropy = [*base, *[0] * (4 - len(base)), *trial, role_id, *(w for k in subkeys for w in _words32(k))]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)  # numpy's INIT_A, MULT_A
    pool = [hashmix(e) for e in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for e, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = _mix(pool[dst], hashmix(e))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)  # numpy's INIT_B, MULT_B
    half = np.array([hashmix(pool[i % 4]) for i in range(8)], dtype=np.uint64)
    words = np.ascontiguousarray((half[0::2] | half[1::2] << 32).T)
    words.flags.writeable = False
    return words


# Samplers fill one buffer and centre and scale it in place.  On a draw u of
# rng.random (a multiple of 2^-53) or rng.integers(0, 2), u - 1/2 and every
# doubling are exact, so (u - 1/2) (2c) equals c (2u - 1), which is
# c * rng.uniform(-1, 1), bit for bit, with one pass fewer.  Where 2c
# overflows (c above about 8.99e307), ((u - 1/2) 2) c rounds once too.


def _scale(x: np.ndarray, c: float) -> np.ndarray:
    x *= c
    return x


def _centre(x: np.ndarray, *scales: float) -> np.ndarray:
    """c (2x - 1) in place, for the one scale c of x or the scale c of each column of x:
    (x - 1/2) (2c), or ((x - 1/2) 2) c if some 2c overflows.  x takes one multiply if
    every column has the same factor, else one per column (an (N, p) * (p,) broadcast
    is as slow as the draw)."""
    x -= 0.5
    factors = [2.0 * c for c in scales]
    if not all(map(math.isfinite, factors)):
        x *= 2.0
        factors = scales
    if len(set(factors)) == 1:
        return _scale(x, factors[0])
    for k, factor in enumerate(factors):
        x[..., k] *= factor
    return x


def _fill(seed: SeedSpec, shape: tuple, out: np.ndarray | None, law: str) -> np.ndarray:
    """Each trial's draw of shape in its row of out (new if None), stacked if seed's trial is a range:
    rng.random or rng.standard_normal (law) into the row, or rng.integers(0, 2) (law "integers") copied in."""
    rngs, stacked = seed.generators(), type(seed.trial) is range
    out = np.empty((len(rngs), *shape) if stacked else shape) if out is None else out
    for rng, row in zip(rngs, out if stacked else out[None]):
        if law == "integers":
            row[...] = rng.integers(0, 2, size=shape)
        else:
            getattr(rng, law)(out=row)
    return out


# ---------------------------------------------------------------------------
# Noise models


@dataclass(frozen=True)
class Gaussian:
    sigma: float

    bound = None

    def __post_init__(self) -> None:
        as_scale("sigma", self.sigma)

    def sample(self, n: int, seed: SeedSpec, out: np.ndarray | None = None) -> np.ndarray:
        return _scale(_fill(seed, (n,), out, "standard_normal"), self.sigma)

    @property
    def subgaussian_param(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class GaussianMixture:
    """Two-component centered Gaussian mixture; the high-variance component
    is drawn with probability weight_large."""

    sigma_small: float
    sigma_large: float
    weight_large: float

    bound = None

    def __post_init__(self) -> None:
        as_scale("sigma_small", self.sigma_small)
        as_scale("sigma_large", self.sigma_large)
        if not (self.sigma_small <= self.sigma_large):
            raise ParameterError(f"need sigma_small <= sigma_large, got {self.sigma_small}, {self.sigma_large}")
        as_fraction("weight_large", self.weight_large)

    def sample(self, n: int, seed: SeedSpec, out: np.ndarray | None = None) -> np.ndarray:
        large = _fill(seed.child(0), (n,), None, "random") < self.weight_large
        z = _fill(seed.child(1), (n,), out, "standard_normal")
        return np.multiply(z, np.where(large, self.sigma_large, self.sigma_small), out=z)

    @property
    def subgaussian_param(self) -> float:
        # Exact: with u = s^2/2 each component's log-MGF is linear in u, so the
        # mixture's is convex in u and vanishes at 0.  Hence 2 logMGF(s) / s^2
        # rises with |s| towards sigma_large^2 and never exceeds it.
        return self.sigma_large


@dataclass(frozen=True)
class Uniform:
    half_width: float

    def __post_init__(self) -> None:
        as_scale("half_width", self.half_width)

    def sample(self, n: int, seed: SeedSpec, out: np.ndarray | None = None) -> np.ndarray:
        return _centre(_fill(seed, (n,), out, "random"), self.half_width)

    @property
    def subgaussian_param(self) -> float:
        return self.half_width

    @property
    def bound(self) -> float:
        return self.half_width


@dataclass(frozen=True)
class UniformPlusGaussian:
    half_width: float
    sigma: float

    bound = None

    def __post_init__(self) -> None:
        as_scale("half_width", self.half_width)
        as_scale("sigma", self.sigma)

    def sample(self, n: int, seed: SeedSpec, out: np.ndarray | None = None) -> np.ndarray:
        v = _centre(_fill(seed.child(0), (n,), out, "random"), self.half_width)  # Uniform's draw
        v += _scale(_fill(seed.child(1), (n,), None, "standard_normal"), self.sigma)  # Gaussian's draw
        return v

    @property
    def subgaussian_param(self) -> float:
        return float(np.hypot(self.half_width, self.sigma))


@dataclass(frozen=True)
class Rademacher:
    scale: float

    def __post_init__(self) -> None:
        as_scale("scale", self.scale)

    def sample(self, n: int, seed: SeedSpec, out: np.ndarray | None = None) -> np.ndarray:
        return _centre(_fill(seed, (n,), out, "integers"), self.scale)

    @property
    def subgaussian_param(self) -> float:
        return self.scale

    @property
    def bound(self) -> float:
        return self.scale


@dataclass(frozen=True)
class FirMds:
    """Interference through a causal FIR channel plus receiver noise.

    v[n] = sum_i taps[i] * j[n-i] + w[n], with j an i.i.d. Rademacher stream
    scaled by jammer_scale (indices below 0 contribute zero) and w drawn from
    the nested receiver model.  v[n] depends only on draws with index <= n.
    """

    taps: tuple[float, ...]
    jammer_scale: float
    receiver: NoiseModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "taps", tuple(float(t) for t in self.taps))
        if not self.taps or not all(map(math.isfinite, self.taps)):
            raise ParameterError(f"FirMds needs at least one tap, each finite, got {self.taps}")
        as_scale("jammer_scale", self.jammer_scale)

    def sample(self, n: int, seed: SeedSpec, out: np.ndarray | None = None) -> np.ndarray:
        jam = _centre(_fill(seed.child(0), (n,), None, "integers"), self.jammer_scale)
        v = self.receiver.sample(n, seed.child(1), out)
        for v_row, jam_row in zip(np.atleast_2d(v), np.atleast_2d(jam)):
            v_row += np.convolve(jam_row, self.taps)[:n]  # w + conv: IEEE addition commutes
        return v

    @property
    def subgaussian_param(self) -> float:
        jam = self.jammer_scale * float(np.sum(np.abs(self.taps)))
        return jam + self.receiver.subgaussian_param

    @property
    def bound(self) -> float | None:
        rb = self.receiver.bound
        if rb is None:
            return None
        return self.jammer_scale * float(np.sum(np.abs(self.taps))) + rb


NoiseModel = Gaussian | GaussianMixture | Uniform | UniformPlusGaussian | Rademacher | FirMds


# ---------------------------------------------------------------------------
# Design models


ENTRY_LAWS = ("scaled-rademacher", "scaled-uniform")


@dataclass(frozen=True)
class IidBoundedColumns:
    """Independent zero-mean entries; column i has variance column_stddevs[i]^2.

    scaled-uniform draws entries on [-sqrt(3)*sd, sqrt(3)*sd]; scaled-rademacher
    draws +-sd.  Either way the second-moment matrix is diagonal with the
    squared stddevs on the diagonal.
    """

    column_stddevs: tuple[float, ...]
    entry_law: str = "scaled-uniform"

    random = True

    def __post_init__(self) -> None:
        stddevs = tuple(as_positive("column_stddevs", sd) for sd in self.column_stddevs)
        object.__setattr__(self, "column_stddevs", stddevs)
        as_count("the number of column_stddevs", len(stddevs))
        if self.entry_law not in ENTRY_LAWS:
            raise ParameterError(f"entry_law must be one of {ENTRY_LAWS}, got {self.entry_law!r}")

    @property
    def p(self) -> int:
        return len(self.column_stddevs)

    @property
    def alpha(self) -> float:
        peak = max(self.column_stddevs)
        return ROOT3 * peak if self.entry_law == "scaled-uniform" else peak

    def sample(self, N: int, seed: SeedSpec, out: np.ndarray | None = None) -> np.ndarray:
        """An (N, p) draw per trial, centred and scaled in place by _centre."""
        N = as_count("N", N, self.p + 1)
        uniform = self.entry_law == "scaled-uniform"
        A = _fill(seed, (N, self.p), out, "random" if uniform else "integers")
        return _centre(A, *(ROOT3 * sd if uniform else sd for sd in self.column_stddevs))


@dataclass(frozen=True)
class ToeplitzPilot:
    """Training-sequence convolution matrix: row n is
    (s[n], s[n-1], ..., s[n-p+1]) with s[i] = 0 for i < 0."""

    pilots: tuple[float, ...]
    p: int

    random = False

    def __post_init__(self) -> None:
        symbols = np.array(self.pilots, dtype=float)
        if symbols.ndim != 1 or np.any(np.abs(symbols) != 1.0):
            raise ParameterError("pilot symbols must be a sequence of +-1")
        object.__setattr__(self, "pilots", tuple(symbols.tolist()))
        object.__setattr__(self, "p", as_count("p", self.p))
        as_count("the number of pilots", len(self.pilots), self.p + 1)
        symbols.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)

    def __reduce__(self):
        # Rebuilt by the constructor: a pickle, such as a spawned pool worker's,
        # carries the pilots once, not again as symbols, and keeps them read-only.
        return ToeplitzPilot, (self.pilots, self.p)

    def sample(self, N: int, seed: SeedSpec) -> np.ndarray:
        N = as_count("N", N, self.p + 1)
        if N > len(self.pilots):
            raise ParameterError(
                f"need at least N = {N} pilot symbols, have {len(self.pilots)}"
            )
        A = np.zeros((N, self.p))
        for k in range(self.p):
            A[k:, k] = self.symbols[: N - k]
        return A


@dataclass(frozen=True)
class FixedMatrix:
    matrix: np.ndarray = field(metadata={"key": "entries"})

    random = False

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float, order="C")
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ParameterError(f"expected a 2-D matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ParameterError("matrix entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    # By value: equal shapes and entries; -0.0 + 0.0 is 0.0, so -0.0 hashes as 0.0 does.
    def __eq__(self, other):
        return np.array_equal(self.matrix, other.matrix) if type(other) is FixedMatrix else NotImplemented

    def __hash__(self) -> int:
        return hash((self.matrix.shape, (self.matrix + 0.0).tobytes()))

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    def sample(self, N: int, seed: SeedSpec) -> np.ndarray:
        N = as_count("N", N, self.p + 1)
        if N != self.matrix.shape[0]:
            raise ParameterError(
                f"fixed matrix has {self.matrix.shape[0]} rows, requested N = {N}"
            )
        return self.matrix


DesignModel = IidBoundedColumns | ToeplitzPilot | FixedMatrix


def random_pilots(length: int, seed: SeedSpec) -> tuple[float, ...]:
    """Seeded +-1 training sequence of the given length."""
    length = as_count("length", length)
    return tuple(_centre(_fill(seed, (length,), None, "integers"), 1.0))


def _full_rank(G: np.ndarray) -> np.ndarray:
    """For each Gram matrix of the stack G, whether it has a Cholesky factor L
    whose every squared pivot L_jj^2 exceeds 1e-12 times its trace.  LAPACK factors
    each matrix on its own; if one is not positive definite, the call raises and
    each half of the stack is checked again: O(log len(G)) calls per such matrix."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        if len(G) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_full_rank(G[: len(G) // 2]), _full_rank(G[len(G) // 2 :])])
    floor = PIVOT_RTOL * G.trace(axis1=1, axis2=2)
    # libm pow, as Python's float ** 2; np.square can differ by an ulp.
    pivot = np.float_power(L.diagonal(axis1=1, axis2=2).min(axis=1), 2.0)
    return pivot > floor


def _require_finite(N: int, *arrays: np.ndarray) -> None:
    """SimulationQualityError naming N unless every entry of arrays, the normal equations at N, is finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise SimulationQualityError(f"the normal equations overflow at N = {N}; check the model scales")


def _measure_design(design: DesignModel, sizes) -> tuple[np.ndarray, np.ndarray]:
    """A non-random design's A at max(sizes) rows and A[:N]^T A[:N] for each N of sizes,
    stacked, once each is finite and passes _full_rank, the rank rule of every trial,
    else SimulationQualityError names the first N that fails.  Such a design draws nothing."""
    with np.errstate(over="ignore", invalid="ignore"):  # _require_finite reports an overflow
        A = design.sample(max(sizes), SeedSpec(0, 0, "design"))
        G = np.stack([A[:N].T @ A[:N] for N in sizes])
    for N, G_N in zip(sizes, G):
        _require_finite(N, G_N)
    for N, ok in zip(sizes, _full_rank(G)):
        if not ok:
            raise SimulationQualityError(f"design Gram matrix is rank deficient at N = {N}")
    return A, G


def implied_problem_params(
    design: DesignModel, noise: NoiseModel, N_hint: int | None = None
) -> ProblemParams:
    """ProblemParams implied by a design/noise pair.

    Random-column designs have a known diagonal second-moment matrix; pilot
    and fixed designs are materialized (N_hint rows) and measured.  A
    measured G = A^T A that fails _full_rank, the rank rule of every trial,
    raises SimulationQualityError: no trial at N_hint rows could be solved.
    """
    if isinstance(design, IidBoundedColumns):
        variances = [sd * sd for sd in design.column_stddevs]
        alpha, lam_min, lam_max = design.alpha, min(variances), max(variances)
    else:
        A, (G,) = _measure_design(design, (as_count("N_hint", N_hint),))
        eigs = np.linalg.eigvalsh(G / N_hint)
        lam_min, lam_max = float(eigs[0]), float(eigs[-1])
        alpha = float(np.max(np.abs(A)))
    R = noise.subgaussian_param
    return ProblemParams(
        p=design.p,
        alpha=alpha,
        sigma_min=lam_min,
        sigma_max=lam_max,
        R=R if R > 0 else None,
        b=noise.bound,
    )

# ---------------------------------------------------------------------------
# Model-config reader (used by io.py's run-config parser, which holds the document schema).
# A model's config is {"kind": ..., <field>: ...} over its dataclass fields; a
# field's metadata may name its key, tuples are JSON arrays, a matrix is an
# array of rows and a nested model is its own config.

CONFIG_KINDS = {
    "gaussian": Gaussian,
    "gaussian-mixture": GaussianMixture,
    "uniform": Uniform,
    "uniform-plus-gaussian": UniformPlusGaussian,
    "rademacher": Rademacher,
    "fir-mds": FirMds,
    "iid-bounded-columns": IidBoundedColumns,
    "toeplitz-pilot": ToeplitzPilot,
    "fixed-matrix": FixedMatrix,
}
_KIND_NAMES = {cls: kind for kind, cls in CONFIG_KINDS.items()}
# Per class: config key -> (field name, annotation).
CONFIG_FIELDS = {
    cls: {f.metadata.get("key", f.name): (f.name, hints[f.name]) for f in fields(cls)}
    for cls, hints in ((cls, get_type_hints(cls)) for cls in _KIND_NAMES)
}
_JSON_TYPES = {float: "number", int: "integer", str: "string", bool: "boolean"}


def json_value(value, hint, where: str):
    """value read as annotation hint, or ParameterError when its JSON type is
    not the one the run-config schema gives hint: float a number, int an
    integer, str a string, bool a boolean, tuple[T, ...] an array of T,
    np.ndarray an array of number arrays, a model union a model config.  A
    float must also be finite, which the schema cannot say."""
    if get_origin(hint) is tuple or hint is np.ndarray:
        item = tuple[float, ...] if hint is np.ndarray else get_args(hint)[0]
        if isinstance(value, list):
            return tuple(json_value(x, item, f"{where}[{k}]") for k, x in enumerate(value))
        raise ParameterError(f"{where} must be a JSON array, got {value!r:.60}")
    if hint not in _JSON_TYPES:
        return _from_config(value, hint)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    integral = number and (isinstance(value, int) or value.is_integer())
    if hint is float and number or hint is int and integral:
        try:
            out = hint(value)
        except OverflowError:  # an integer literal beyond the float range
            raise ParameterError(f"{where} is out of range, got {value!r:.60}") from None
        if hint is float and not math.isfinite(out):  # NaN, Infinity or 1e400
            raise ParameterError(f"{where} must be finite, got {value!r:.60}")
        return out
    if hint in (str, bool) and isinstance(value, hint):
        return value
    raise ParameterError(f"{where} must be a JSON {_JSON_TYPES[hint]}, got {value!r:.60}")


def check_keys(doc, allowed, required, where: str) -> None:
    """ParameterError unless doc is a JSON object whose keys are all allowed
    and include every required one."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{where} must be a JSON object, got {doc!r:.60}")
    extra = set(doc) - set(allowed)
    if extra:
        raise ParameterError(f"unknown keys {sorted(extra)} in {where}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ParameterError(f"missing keys {missing} in {where}")


def _from_config(doc, union):
    classes = get_args(union)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    cls = CONFIG_KINDS.get(kind) if isinstance(kind, str) else None
    if cls not in classes:
        expected = sorted(_KIND_NAMES[c] for c in classes)
        raise ParameterError(f"unknown model kind {kind!r}; expected one of {expected}")
    keys = CONFIG_FIELDS[cls]
    check_keys(doc, {"kind", *keys}, keys, f"{kind} config")
    args = {name: json_value(doc[k], hint, f"{kind}.{k}") for k, (name, hint) in keys.items()}
    try:
        return cls(**args)
    except ValueError as exc:  # e.g. the ragged rows of a fixed matrix
        raise ParameterError(f"{kind} config: {exc}") from None
