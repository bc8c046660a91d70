"""Seeded generators for noise laws and design-matrix families.

Every model is a frozen dataclass; sampling is a pure function of
(model, count, SeedSpec), so trials can run concurrently and in any order
without sharing RNG state.  Noise models expose a declared sub-Gaussian
parameter and, when the law is almost surely bounded, a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import singledispatch

import numpy as np

from .linalg import as_matrix, gram_normalized, max_abs_entry, sym_extremal_eigs
from .params import ParameterError, ProblemParams

ROLE_IDS = {"design": 0, "noise": 1}

ROOT3 = float(np.sqrt(3.0))

MIXTURE_S_GRID_POINTS = 10_000
MIXTURE_S_SPAN = 1e3  # grid spans [1/span, span] / R0
MIXTURE_R_GRID_POINTS = 4096


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
    receiver: "NoiseModel"

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
    rng = seed.generator()
    large = rng.random(n) < model.weight_large
    z = rng.standard_normal(n)
    return z * np.where(large, model.sigma_large, model.sigma_small)


@sample_noise.register
def _(model: Uniform, n: int, seed: SeedSpec) -> np.ndarray:
    return _scale(_to_pm1(seed.generator().random(n)), model.half_width)


@sample_noise.register
def _(model: UniformPlusGaussian, n: int, seed: SeedSpec) -> np.ndarray:
    rng = seed.generator()
    return model.half_width * rng.uniform(-1.0, 1.0, n) + model.sigma * rng.standard_normal(n)


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
    # Numeric envelope: smallest candidate R on a geometric grid such that the
    # analytic mixture log-MGF stays below s^2 R^2 / 2 across a wide s-grid.
    w, ss, sl = model.weight_large, model.sigma_small, model.sigma_large
    if sl == 0.0:
        return 0.0
    if ss == sl:
        return sl
    r0 = sl
    s = np.geomspace(1.0 / (MIXTURE_S_SPAN * r0), MIXTURE_S_SPAN / r0, MIXTURE_S_GRID_POINTS)
    half_s2 = 0.5 * s * s
    log_mgf = np.logaddexp(np.log1p(-w) + half_s2 * ss * ss, np.log(w) + half_s2 * sl * sl)
    required = np.sqrt(np.max(2.0 * log_mgf / (s * s)))
    variance = (1.0 - w) * ss * ss + w * sl * sl
    lo = max(float(np.sqrt(variance)), 1e-300)
    candidates = np.geomspace(lo, sl, MIXTURE_R_GRID_POINTS)
    hit = np.searchsorted(candidates, required)
    return float(candidates[min(hit, len(candidates) - 1)])


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


@dataclass(frozen=True)
class FixedMatrix:
    matrix: np.ndarray

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
# Declarative config (used by the CLI; see io.py for the document schema)


_NOISE_TAGS = {
    Gaussian: "gaussian",
    GaussianMixture: "gaussian-mixture",
    Uniform: "uniform",
    UniformPlusGaussian: "uniform-plus-gaussian",
    Rademacher: "rademacher",
    FirMds: "fir-mds",
}


def noise_to_config(model: NoiseModel) -> dict:
    kind = _NOISE_TAGS[type(model)]
    if isinstance(model, Gaussian):
        return {"kind": kind, "sigma": model.sigma}
    if isinstance(model, GaussianMixture):
        return {
            "kind": kind,
            "sigma_small": model.sigma_small,
            "sigma_large": model.sigma_large,
            "weight_large": model.weight_large,
        }
    if isinstance(model, Uniform):
        return {"kind": kind, "half_width": model.half_width}
    if isinstance(model, UniformPlusGaussian):
        return {"kind": kind, "half_width": model.half_width, "sigma": model.sigma}
    if isinstance(model, Rademacher):
        return {"kind": kind, "scale": model.scale}
    return {
        "kind": kind,
        "taps": list(model.taps),
        "jammer_scale": model.jammer_scale,
        "receiver": noise_to_config(model.receiver),
    }


def _take(doc: dict, kind: str, keys: tuple[str, ...]) -> dict:
    extra = set(doc) - {"kind", *keys}
    if extra:
        raise ParameterError(f"unknown keys {sorted(extra)} in {kind} config")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ParameterError(f"missing keys {missing} in {kind} config")
    return {k: doc[k] for k in keys}


def noise_from_config(doc: dict) -> NoiseModel:
    kind = doc.get("kind")
    if kind == "gaussian":
        return Gaussian(**_take(doc, kind, ("sigma",)))
    if kind == "gaussian-mixture":
        return GaussianMixture(**_take(doc, kind, ("sigma_small", "sigma_large", "weight_large")))
    if kind == "uniform":
        return Uniform(**_take(doc, kind, ("half_width",)))
    if kind == "uniform-plus-gaussian":
        return UniformPlusGaussian(**_take(doc, kind, ("half_width", "sigma")))
    if kind == "rademacher":
        return Rademacher(**_take(doc, kind, ("scale",)))
    if kind == "fir-mds":
        raw = _take(doc, kind, ("taps", "jammer_scale", "receiver"))
        return FirMds(
            taps=tuple(raw["taps"]),
            jammer_scale=raw["jammer_scale"],
            receiver=noise_from_config(raw["receiver"]),
        )
    raise ParameterError(f"unknown noise kind {kind!r}")


def design_to_config(model: DesignModel) -> dict:
    if isinstance(model, IidBoundedColumns):
        return {
            "kind": "iid-bounded-columns",
            "column_stddevs": list(model.column_stddevs),
            "entry_law": model.entry_law,
        }
    if isinstance(model, ToeplitzPilot):
        return {"kind": "toeplitz-pilot", "pilots": list(model.pilots), "p": model.p}
    return {"kind": "fixed-matrix", "entries": [list(row) for row in model.matrix]}


def design_from_config(doc: dict) -> DesignModel:
    kind = doc.get("kind")
    if kind == "iid-bounded-columns":
        raw = _take(doc, kind, ("column_stddevs", "entry_law"))
        return IidBoundedColumns(tuple(raw["column_stddevs"]), raw["entry_law"])
    if kind == "toeplitz-pilot":
        raw = _take(doc, kind, ("pilots", "p"))
        return ToeplitzPilot(tuple(raw["pilots"]), raw["p"])
    if kind == "fixed-matrix":
        raw = _take(doc, kind, ("entries",))
        return FixedMatrix(np.asarray(raw["entries"], dtype=float))
    raise ParameterError(f"unknown design kind {kind!r}")
