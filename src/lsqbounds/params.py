"""Problem parameters, accuracy targets, and bound-breakdown containers."""

from __future__ import annotations

import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """Invalid or missing problem parameters."""


class DomainError(ValueError):
    """Argument outside the open domain of a formula."""


class NoFinitePointError(RuntimeError):
    """An inner Chernoff problem has no feasible point: its slack is empty."""


def require_square_in_range(scales) -> None:
    """Reject a (name, value) whose square overflows or underflows to 0."""
    for name, x in scales:
        if not (0 < x * x < math.inf):
            fate = "overflows" if x * x == math.inf else "underflows to 0"
            raise ParameterError(f"{name} = {x:g} is out of range: its square {fate}")


@dataclass(frozen=True)
class ProblemParams:
    """Scalars that parameterize every bound.

    p           parameter dimension
    alpha       almost-sure bound on design-matrix entries
    R           sub-Gaussian noise parameter (optional when only the
                bounded-noise bounds are used)
    b           almost-sure noise bound (optional)
    sigma_min   minimal eigenvalue of the normalized second-moment matrix
    sigma_max   maximal eigenvalue of the same matrix
    """

    p: int
    alpha: float
    sigma_min: float
    sigma_max: float
    R: float | None = None
    b: float | None = None

    def __post_init__(self) -> None:
        if self.p < 1 or self.p != int(self.p):
            raise ParameterError(f"p must be a positive integer, got {self.p}")
        for name in ("alpha", "sigma_min", "sigma_max", "R", "b"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not (self.alpha > 0):
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not (self.sigma_min > 0):
            raise ParameterError(f"sigma_min must be positive, got {self.sigma_min}")
        if self.sigma_min > self.sigma_max:
            raise ParameterError(
                f"sigma_min ({self.sigma_min}) exceeds sigma_max ({self.sigma_max})"
            )
        if self.R is None and self.b is None:
            raise ParameterError("at least one of R, b must be present")
        if self.R is not None and not (self.R > 0):
            raise ParameterError(f"R must be positive when present, got {self.R}")
        if self.b is not None and not (self.b > 0):
            raise ParameterError(f"b must be positive when present, got {self.b}")
        # The bounds square alpha, sigma_min, each noise scale and alpha times it.
        noise = [(name, x) for name, x in (("R", self.R), ("b", self.b)) if x is not None]
        require_square_in_range([("alpha", self.alpha), ("sigma_min", self.sigma_min), *noise,
                                 *((f"alpha * {name}", self.alpha * x) for name, x in noise)])
        # Trace bound: every eigenvalue of the second-moment matrix is at most
        # p * alpha^2 when entries are bounded by alpha.  Allow float slack.
        if self.sigma_max > self.p * self.alpha**2 * (1 + 1e-9):
            raise ParameterError(
                f"sigma_max ({self.sigma_max}) exceeds the trace bound "
                f"p*alpha^2 = {self.p * self.alpha ** 2}"
            )

    def require_R(self) -> float:
        if self.R is None:
            raise ParameterError("sub-Gaussian parameter R is required but missing")
        return self.R

    def require_b(self) -> float:
        if self.b is None:
            raise ParameterError("almost-sure noise bound b is required but missing")
        return self.b


@dataclass(frozen=True)
class Accuracy:
    """Target error radius (sup-norm) and outage probability."""

    r: float
    eps: float

    def __post_init__(self) -> None:
        if not (0 < self.r < math.inf):
            raise ParameterError(f"r must be positive and finite, got {self.r}")
        if not (0 < self.eps < 1):
            raise ParameterError(f"eps must lie in (0,1), got {self.eps}")


@dataclass(frozen=True)
class InfimumResult:
    """An inner optimum: its value and the point that attains it."""

    value: float
    argmin: float


@dataclass(frozen=True)
class BoundBreakdown:
    """A computed sample-count bound with per-term values and witnesses.

    Term values are None when the selected bound has no such term.
    n_final is the max over applicable terms; n_ceil is the smallest integer
    strictly greater than n_final (the bounds hold for all N > n_final), and
    at least p + 1, the fewest rows a least-squares fit can run at.
    """

    theorem: str
    n1: float | None
    n2: float | None
    n3: float | None
    n_rand: float | None
    n_final: float
    n_ceil: int
    binding: str
    s_opt_n2: float | None = None
    s_opt_n3: float | None = None
    tau_opt: float | None = None

    def terms(self) -> dict[str, float]:
        """Applicable terms by name."""
        out = {}
        for name in ("n1", "n2", "n3", "n_rand"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@dataclass(frozen=True)
class OutageBreakdown:
    """Outage probability bound at a given (r, N), split by source term."""

    eps2: float
    eps3: float
    eps_rand: float
    eps_final: float
    eps2_feasible: bool
    eps3_feasible: bool
    eps_rand_feasible: bool
    s_opt_eps2: float | None = None
    s_opt_eps3: float | None = None


def ceil_strict(x: float) -> int:
    """Smallest integer strictly greater than x."""
    return int(math.floor(x)) + 1


def make_breakdown(
    theorem: str,
    terms: dict[str, float | None],
    p: int,
    s_opt_n2: float | None = None,
    s_opt_n3: float | None = None,
    tau_opt: float | None = None,
) -> BoundBreakdown:
    """Assemble a BoundBreakdown from named term values (None = not applicable)."""
    applicable = {k: v for k, v in terms.items() if v is not None}
    if not applicable:
        raise ParameterError("a bound needs at least one applicable term")
    for name, value in applicable.items():
        if not (math.isfinite(value) and value >= 0):
            raise ParameterError(f"term {name} is not a finite nonnegative real: {value}")
    binding = max(applicable, key=lambda k: applicable[k])
    n_final = applicable[binding]
    return BoundBreakdown(
        theorem=theorem,
        n1=terms.get("n1"),
        n2=terms.get("n2"),
        n3=terms.get("n3"),
        n_rand=terms.get("n_rand"),
        n_final=n_final,
        n_ceil=max(ceil_strict(n_final), p + 1),
        binding=binding,
        s_opt_n2=s_opt_n2,
        s_opt_n3=s_opt_n3,
        tau_opt=tau_opt,
    )
