"""Problem parameters, accuracy targets, and bound-breakdown containers."""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

DEFAULT_TRIALS = 50_000  # trials per point of a run that names no count


class ParameterError(ValueError):
    """An input no bound or run accepts: invalid or missing parameters, an
    argument outside a formula's domain, a bad range or config file.  The CLI
    exits 2."""


class SimulationQualityError(RuntimeError):
    """The simulation cannot answer: a rank-deficient design, too many
    rank-deficient trials, normal equations that overflow, or no sample count
    in the search range meets the target.  The CLI exits 4."""


def as_count(name: str, value, minimum: int = 1) -> int:
    """value as an int, if it is a Python or numpy integer, not a bool, of at least minimum."""
    try:
        count = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ParameterError(f"{name} must be at least {minimum}, got {count}")
    return count


def as_seed(name: str, value) -> int:
    """value as an int, if it is a Python or numpy integer in [0, 2**64)."""
    seed = as_count(name, value, 0)
    if seed >= 2**64:
        raise ParameterError(f"{name} must be a 64-bit unsigned int, got {seed}")
    return seed


def _real(name: str, value, inside, rule: str) -> float:
    """value as a float, if it is a real, not a bool, and inside(value); float and int skip the slow ABC check."""
    if isinstance(value, bool) or not (isinstance(value, (float, int, numbers.Real)) and inside(value)):
        raise ParameterError(f"{name} must {rule}, got {value!r}")
    return float(value)


def as_scale(name: str, value) -> float:
    """value as a float, if it is a finite nonnegative real."""
    return _real(name, value, lambda x: 0 <= x <= sys.float_info.max, "be finite and nonnegative")


def as_positive(name: str, value) -> float:
    """value as a float, if it is a finite real above 0."""
    return _real(name, value, lambda x: 0 < x <= sys.float_info.max, "be positive and finite")


def as_fraction(name: str, value) -> float:
    """value as a float, if it is a real in the open interval (0, 1)."""
    return _real(name, value, lambda x: 0 < x < 1, "lie in (0,1)")


def as_axis_values(axis_name: str, values, eps: float | None) -> list:
    """values as a list, if they make a sweep along axis_name (r, eps or N):
    nonempty, integers on the N axis, and with a target eps on the r axis."""
    values = list(values)
    if axis_name not in ("r", "eps", "N"):
        raise ParameterError(f"axis_name must be r, eps, or N, got {axis_name!r}")
    if not values:
        raise ParameterError("axis must be nonempty")
    if axis_name == "N" and not all(float(v).is_integer() for v in values):
        raise ParameterError(f"N-axis values must be integers, got {values}")
    if axis_name == "r" and eps is None:
        raise ParameterError("r-axis sweeps need a target eps")
    return values


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
        object.__setattr__(self, "p", as_count("p", self.p))
        for name in ("alpha", "sigma_min", "sigma_max", "R", "b"):
            if getattr(self, name) is not None:
                as_positive(name, getattr(self, name))
        if self.sigma_min > self.sigma_max:
            raise ParameterError(
                f"sigma_min ({self.sigma_min}) exceeds sigma_max ({self.sigma_max})"
            )
        if self.R is None and self.b is None:
            raise ParameterError("at least one of R, b must be present")
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
        as_positive("r", self.r)
        as_fraction("eps", self.eps)


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
    terms: dict[str, float],
    p: int,
    s_opt_n2: float | None = None,
    s_opt_n3: float | None = None,
    tau_opt: float | None = None,
) -> BoundBreakdown:
    """Assemble a BoundBreakdown from the named terms its family has."""
    for name, value in terms.items():
        as_scale(f"term {name}", value)
    binding = max(terms, key=lambda k: terms[k])
    n_final = terms[binding]
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
