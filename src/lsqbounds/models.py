"""Seeded generators for noise laws and design-matrix families.

Every model is a frozen dataclass; sampling is a pure function of
(model, count, SeedSpec), so trials can run concurrently and in any order
without sharing RNG state.  Noise models expose a declared sub-Gaussian
parameter and, when the law is almost surely bounded, a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import singledispatch
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .linalg import as_matrix, gram_normalized, max_abs_entry, sym_extremal_eigs
from .params import ParameterError, ProblemParams

ROLE_IDS = {"design": 0, "noise": 1}

ROOT3 = float(np.sqrt(3.0))


# ---------------------------------------------------------------------------
# Seeding


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream label: (base seed, trial index, role).

    Streams are derived by a splittable counter construction, so the draw
    sequence for a given label is identical across runs, platforms, and
    thread schedules, and trials may be generated in any order.
    """

    base_seed: int
    trial: int = 0
    role: str = "noise"
    subkeys: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (0 <= self.base_seed < 2**64):
            raise ParameterError(f"base_seed must be a 64-bit unsigned int, got {self.base_seed}")
        if self.role not in ROLE_IDS:
            raise ParameterError(f"role must be one of {sorted(ROLE_IDS)}, got {self.role!r}")
        if self.trial < 0:
            raise ParameterError(f"trial index must be nonnegative, got {self.trial}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.base_seed,
            spawn_key=(self.trial, ROLE_IDS[self.role], *self.subkeys),
        )
        return np.random.default_rng(seq)

    def child(self, k: int) -> "SeedSpec":
        """Independent sub-stream k of this stream (for nested models)."""
        return SeedSpec(self.base_seed, self.trial, self.role, (*self.subkeys, k))

    def for_trial(self, trial: int, role: str) -> "SeedSpec":
        return SeedSpec(self.base_seed, trial, role)


# Samplers fill one buffer and scale it in place.  2u - 1 on rng.random's u is
# exactly rng.uniform(-1, 1), so the values equal scale * rng.uniform(...).


def _to_pm1(x: np.ndarray) -> np.ndarray:
    x *= 2.0
    x -= 1.0
    return x


def _scale(x: np.ndarray, c: float) -> np.ndarray:
    x *= c
    return x


def _rademacher(rng: np.random.Generator, shape) -> np.ndarray:
    return _to_pm1(rng.integers(0, 2, size=shape).astype(float))


# ---------------------------------------------------------------------------
# Noise models


@dataclass(frozen=True)
class Gaussian:
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ParameterError(f"sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class GaussianMixture:
    """Two-component centered Gaussian mixture; the high-variance component
    is drawn with probability weight_large."""

    sigma_small: float
    sigma_large: float
    weight_large: float

    def __post_init__(self) -> None:
        if not (0 <= self.sigma_small <= self.sigma_large):
            raise ParameterError(
                f"need 0 <= sigma_small <= sigma_large, got {self.sigma_small}, {self.sigma_large}"
            )
        if not (0 < self.weight_large < 1):
            raise ParameterError(f"weight_large must lie in (0,1), got {self.weight_large}")


@dataclass(frozen=True)
class Uniform:
    half_width: float

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise ParameterError(f"half_width must be nonnegative, got {self.half_width}")


@dataclass(frozen=True)
class UniformPlusGaussian:
    half_width: float
    sigma: float

    def __post_init__(self) -> None:
        if self.half_width < 0 or self.sigma < 0:
            raise ParameterError("half_width and sigma must be nonnegative")


@dataclass(frozen=True)
class Rademacher:
    scale: float

    def __post_init__(self) -> None:
        if self.scale < 0:
            raise ParameterError(f"scale must be nonnegative, got {self.scale}")


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
        if len(self.taps) < 1:
            raise ParameterError("FirMds needs at least one tap")
        object.__setattr__(self, "taps", tuple(float(t) for t in self.taps))
        if self.jammer_scale < 0:
            raise ParameterError(f"jammer_scale must be nonnegative, got {self.jammer_scale}")


NoiseModel = Gaussian | GaussianMixture | Uniform | UniformPlusGaussian | Rademacher | FirMds


@singledispatch
def sample_noise(model, n: int, seed: SeedSpec) -> np.ndarray:
    raise TypeError(f"unknown noise model {type(model).__name__}")


@sample_noise.register
def _(model: Gaussian, n: int, seed: SeedSpec) -> np.ndarray:
    return _scale(seed.generator().standard_normal(n), model.sigma)


@sample_noise.register
def _(model: GaussianMixture, n: int, seed: SeedSpec) -> np.ndarray:
    large = seed.child(0).generator().random(n) < model.weight_large
    z = seed.child(1).generator().standard_normal(n)
    return z * np.where(large, model.sigma_large, model.sigma_small)


@sample_noise.register
def _(model: Uniform, n: int, seed: SeedSpec) -> np.ndarray:
    return _scale(_to_pm1(seed.generator().random(n)), model.half_width)


@sample_noise.register
def _(model: UniformPlusGaussian, n: int, seed: SeedSpec) -> np.ndarray:
    v = sample_noise(Uniform(model.half_width), n, seed.child(0))
    v += sample_noise(Gaussian(model.sigma), n, seed.child(1))
    return v


@sample_noise.register
def _(model: Rademacher, n: int, seed: SeedSpec) -> np.ndarray:
    return _scale(_rademacher(seed.generator(), n), model.scale)


@sample_noise.register
def _(model: FirMds, n: int, seed: SeedSpec) -> np.ndarray:
    jam = _scale(_rademacher(seed.child(0).generator(), n), model.jammer_scale)
    v = np.convolve(jam, np.asarray(model.taps))[:n]
    v += sample_noise(model.receiver, n, seed.child(1))
    return v


@singledispatch
def subgaussian_param(model) -> float:
    """A valid (not necessarily minimal) sub-Gaussian parameter of the law."""
    raise TypeError(f"unknown noise model {type(model).__name__}")


@subgaussian_param.register
def _(model: Gaussian) -> float:
    return model.sigma


@subgaussian_param.register
def _(model: Uniform) -> float:
    return model.half_width


@subgaussian_param.register
def _(model: Rademacher) -> float:
    return model.scale


@subgaussian_param.register
def _(model: UniformPlusGaussian) -> float:
    return float(np.hypot(model.half_width, model.sigma))


@subgaussian_param.register
def _(model: GaussianMixture) -> float:
    # Exact: with u = s^2/2 each component's log-MGF is linear in u, so the
    # mixture's is convex in u and vanishes at 0.  Hence 2 logMGF(s) / s^2
    # rises with |s| towards sigma_large^2 and never exceeds it.
    return model.sigma_large


@subgaussian_param.register
def _(model: FirMds) -> float:
    return model.jammer_scale * float(np.sum(np.abs(model.taps))) + subgaussian_param(
        model.receiver
    )


@singledispatch
def noise_bound(model) -> float | None:
    """Almost-sure bound on |v|, or None when the law is unbounded."""
    raise TypeError(f"unknown noise model {type(model).__name__}")


@noise_bound.register
def _(model: Gaussian) -> float | None:
    return None


@noise_bound.register
def _(model: GaussianMixture) -> float | None:
    return None


@noise_bound.register
def _(model: UniformPlusGaussian) -> float | None:
    return None


@noise_bound.register
def _(model: Uniform) -> float | None:
    return model.half_width


@noise_bound.register
def _(model: Rademacher) -> float | None:
    return model.scale


@noise_bound.register
def _(model: FirMds) -> float | None:
    rb = noise_bound(model.receiver)
    if rb is None:
        return None
    return model.jammer_scale * float(np.sum(np.abs(model.taps))) + rb


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "column_stddevs", tuple(float(x) for x in self.column_stddevs))
        if len(self.column_stddevs) < 1 or any(sd <= 0 for sd in self.column_stddevs):
            raise ParameterError("column_stddevs must be a nonempty tuple of positive reals")
        if self.entry_law not in ENTRY_LAWS:
            raise ParameterError(f"entry_law must be one of {ENTRY_LAWS}, got {self.entry_law!r}")

    @property
    def p(self) -> int:
        return len(self.column_stddevs)

    @property
    def alpha(self) -> float:
        peak = max(self.column_stddevs)
        return ROOT3 * peak if self.entry_law == "scaled-uniform" else peak


@dataclass(frozen=True)
class ToeplitzPilot:
    """Training-sequence convolution matrix: row n is
    (s[n], s[n-1], ..., s[n-p+1]) with s[i] = 0 for i < 0."""

    pilots: tuple[float, ...]
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pilots", tuple(float(x) for x in self.pilots))
        if any(abs(x) != 1.0 for x in self.pilots):
            raise ParameterError("pilot symbols must be +-1")
        if self.p < 1:
            raise ParameterError(f"p must be a positive integer, got {self.p}")
        if len(self.pilots) <= self.p:
            raise ParameterError(
                f"need more than p = {self.p} pilot symbols, got {len(self.pilots)}"
            )


@dataclass(frozen=True)
class FixedMatrix:
    matrix: np.ndarray = field(metadata={"key": "entries"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", as_matrix(self.matrix))

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


DesignModel = IidBoundedColumns | ToeplitzPilot | FixedMatrix


def design_dim(model: DesignModel) -> int:
    return model.p


def design_is_random(model: DesignModel) -> bool:
    return isinstance(model, IidBoundedColumns)


def random_pilots(length: int, seed: SeedSpec) -> tuple[float, ...]:
    """Seeded +-1 training sequence of the given length."""
    if length < 1:
        raise ParameterError(f"length must be positive, got {length}")
    return tuple(_rademacher(seed.generator(), length))


@singledispatch
def sample_design(model, N: int, seed: SeedSpec) -> np.ndarray:
    raise TypeError(f"unknown design model {type(model).__name__}")


def _check_rows(N: int, p: int) -> None:
    if N <= p:
        raise ParameterError(f"need N > p, got N = {N}, p = {p}")


@sample_design.register
def _(model: IidBoundedColumns, N: int, seed: SeedSpec) -> np.ndarray:
    _check_rows(N, model.p)
    rng = seed.generator()
    uniform = model.entry_law == "scaled-uniform"
    A = _to_pm1(rng.random((N, model.p))) if uniform else _rademacher(rng, (N, model.p))
    # Column by column: numpy runs an (N, p) * (p,) broadcast with an inner
    # loop of length p, which costs as much as the draw itself.
    for k, sd in enumerate(model.column_stddevs):
        A[:, k] *= ROOT3 * sd if uniform else sd
    return A


@sample_design.register
def _(model: ToeplitzPilot, N: int, seed: SeedSpec) -> np.ndarray:
    _check_rows(N, model.p)
    if N > len(model.pilots):
        raise ParameterError(
            f"need at least N = {N} pilot symbols, have {len(model.pilots)}"
        )
    s = np.asarray(model.pilots)
    A = np.zeros((N, model.p))
    for k in range(model.p):
        A[k:, k] = s[: N - k]
    return A


@sample_design.register
def _(model: FixedMatrix, N: int, seed: SeedSpec) -> np.ndarray:
    _check_rows(N, model.p)
    if N != model.matrix.shape[0]:
        raise ParameterError(
            f"fixed matrix has {model.matrix.shape[0]} rows, requested N = {N}"
        )
    return model.matrix


def implied_problem_params(
    design: DesignModel, noise: NoiseModel, N_hint: int | None = None
) -> ProblemParams:
    """ProblemParams implied by a design/noise pair.

    Random-column designs have a known diagonal second-moment matrix; pilot
    and fixed designs are materialized (N_hint rows) and measured.
    """
    R = subgaussian_param(noise)
    b = noise_bound(noise)
    if isinstance(design, IidBoundedColumns):
        variances = [sd * sd for sd in design.column_stddevs]
        return ProblemParams(
            p=design.p,
            alpha=design.alpha,
            sigma_min=min(variances),
            sigma_max=max(variances),
            R=R if R > 0 else None,
            b=b,
        )
    if N_hint is None:
        raise ParameterError("N_hint is required to materialize a non-random design")
    A = sample_design(design, N_hint, SeedSpec(0, 0, "design"))
    spectrum = sym_extremal_eigs(gram_normalized(A))
    if not (spectrum.lambda_min > 0):
        raise ParameterError(
            f"design Gram matrix is singular (lambda_min = {spectrum.lambda_min})"
        )
    return ProblemParams(
        p=design.p,
        alpha=max_abs_entry(A),
        sigma_min=spectrum.lambda_min,
        sigma_max=spectrum.lambda_max,
        R=R if R > 0 else None,
        b=b,
    )


# ---------------------------------------------------------------------------
# Declarative config (used by the CLI; see io.py for the document schema).
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


def _to_config(model, union) -> dict:
    if type(model) not in get_args(union):
        expected = [c.__name__ for c in get_args(union)]
        raise ParameterError(f"{type(model).__name__} is not one of {expected}")
    doc = {"kind": _KIND_NAMES[type(model)]}
    for key, (name, hint) in CONFIG_FIELDS[type(model)].items():
        value = getattr(model, name)
        if is_dataclass(value):
            value = _to_config(value, hint)
        elif isinstance(value, (tuple, np.ndarray)):
            value = np.asarray(value).tolist()
        doc[key] = value
    return doc


def noise_to_config(model: NoiseModel) -> dict:
    return _to_config(model, NoiseModel)


def noise_from_config(doc: dict) -> NoiseModel:
    return _from_config(doc, NoiseModel)


def design_to_config(model: DesignModel) -> dict:
    return _to_config(model, DesignModel)


def design_from_config(doc: dict) -> DesignModel:
    return _from_config(doc, DesignModel)
