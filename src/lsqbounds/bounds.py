"""Sample-count and outage bounds for linear least squares.

Every bound is a pure function of (accuracy target, problem parameters).
Selected bound families, by tag:

  main             i.i.d. sub-Gaussian noise, random bounded design
  main_tau         same, with the diagonal/off-diagonal split weight optimized
  bounded          i.i.d. almost-surely bounded noise, random design
  mds_subgaussian  conditionally sub-Gaussian martingale-difference noise
  mds_bounded      bounded martingale-difference noise
  fixed_mds        martingale-difference noise with a known design matrix

All logarithms are natural.  Sample counts are returned as reals; the bounds
hold for every integer N strictly greater than the returned value.

The inner Chernoff problems are one-dimensional and convex, so they are
solved exactly by bisecting the sign change of an increasing stationarity
function (``_bisect``).  With a = alpha^2*R^2, D = sigma_min^2*r^2 and
x = a*s:

  n2    inf over s of (8*beta(s) + c*sqrt(s)) / (D*s), the root of
        8*a^2/(1 - 2as)^2 = c/(2*s^(3/2))
  eps2  max over s of m(s)/sqrt(s) with m = D*N*s - 8*beta(s), feasible iff
        D*N > 8a, the root of 16a^2*s*(1.5 - as)/(1 - 2as)^2 = D*N - 8a
  n3    max over s of slope*s - gamma(s) with slope = weight*D/8 (eps3 too),
        the root of gamma'(s) = a*x*(2 - 2x^2 + x^4)/(2*(1 - x^2)^2) = slope

Each returns the pair (value, witness), the value being its objective at the
witness.  Only main_tau's split weight keeps a search: exact values on a
0.01-step grid, then a log scan plus golden section between the winner's
neighbours, whose probes fix the weight's tie-breaks.

fixed_mds also covers FIR interference v = H*j + w on a fixed design, which is
not a martingale difference (H: lower-triangular Toeplitz of jammer_scale*taps).
With c_i row i of G^-1 A^T, Young's inequality gives ||H^T c_i|| <=
jammer_scale*||taps||_1*||c_i||, so c_i^T v is sub-Gaussian with parameter
R*||c_i||, and ||c_i||^2 = (G^-1)_ii <= 1/(N*sigma_min).  Hoeffding plus a
union bound need only N >= 2R^2*log(2p/eps)/(sigma_min*r^2); fixed_mds exceeds
that by 4*alpha^2/sigma_min >= 4, as sigma_min <= (G/N)_kk <= alpha^2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .params import (
    Accuracy,
    BoundBreakdown,
    OutageBreakdown,
    ParameterError,
    ProblemParams,
    as_count,
    as_positive,
    make_breakdown,
    require_square_in_range,
)

TAU_GRID_STEP = 0.01
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _bisect(h, hi: float) -> float:
    """The point of (0, hi) next to the sign change of the increasing h.

    Midpoints are geometric while the bracket spans more than a factor of 2,
    because optima can sit many decades below the interval width, and
    arithmetic after that.  The search stops when the midpoint equals an
    endpoint and returns the last probe with h < 0: the largest float below
    hi when h is negative throughout.
    """
    lo = math.ulp(0.0)
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# Chernoff-exponent helper functions


def beta(s: float, params: ProblemParams) -> float:
    """Log-MGF bound for the squared-noise Chernoff term.

    beta(s) = a2r2*s + (a2r2*s)^2 / (1 - 2*a2r2*s) with a2r2 = alpha^2*R^2,
    valid on 0 < s < 1/(2*a2r2).  It vanishes at s -> 0 as a log-MGF bound
    must; the form the paper prints, alpha^2*R^2*p + alpha^4*R^4*s^2/(1 -
    2*R^2*s), does not, and is not used.
    """
    R = params.require_R()
    a2r2 = params.alpha**2 * R**2
    if not (0 < s < 1.0 / (2.0 * a2r2)):
        raise ParameterError(f"beta requires 0 < s < 1/(2*alpha^2*R^2) = {1.0 / (2.0 * a2r2)}")
    x = a2r2 * s
    return x + x * x / (1.0 - 2.0 * x)


def gamma(s: float, params: ProblemParams) -> float:
    """Log-MGF bound for the cross-term Chernoff exponent.

    gamma(s) = a4r4*s^2/2 + a4r4^2*s^4 / (4*(1 - s^2*a4r4)) with
    a4r4 = alpha^4*R^4, valid on 0 < s < 1/(alpha^2*R^2).
    """
    R = params.require_R()
    a2r2 = params.alpha**2 * R**2
    if not (0 < s < 1.0 / a2r2):
        raise ParameterError(f"gamma requires 0 < s < 1/(alpha^2*R^2) = {1.0 / a2r2}")
    return _gamma(s, a2r2)


def _gamma(s, a2r2: float):
    """gamma at s strictly inside (0, 1/a2r2)."""
    y = (a2r2 * s) ** 2
    return y / 2.0 + y * y / (4.0 * (1.0 - y))


# ---------------------------------------------------------------------------
# Individual sample-count terms


def _scaled_floor(const: float, scale: float, r: float, params: ProblemParams) -> float:
    """const * alpha^2 * scale^2 / (sigma_min^2 * r^2), the shape of every
    first term."""
    require_square_in_range((("r", r), ("sigma_min * r", params.sigma_min * r)))
    return const * params.alpha**2 * scale**2 / (params.sigma_min**2 * r**2)


def n1_main(acc: Accuracy, params: ProblemParams) -> float:
    """Variance floor 4*alpha^2*R^2 / (sigma_min^2 * r^2)."""
    return _scaled_floor(4.0, params.require_R(), acc.r, params)


def _n2_infimum(r: float, log_term: float, params: ProblemParams) -> tuple[float, float]:
    """inf over s of (8*beta(s) + 2*sigma_min*r*sqrt(2*s*log_term)) / (sm^2 r^2 s),
    as (value, witness)."""
    a = params.alpha**2 * params.require_R() ** 2
    D = params.sigma_min**2 * r**2
    c = 2.0 * params.sigma_min * r * math.sqrt(2.0 * max(log_term, 0.0))
    if c == 0.0:
        return 8.0 * a / D, 0.0  # the s -> 0 limit

    # 8a^2/(1 - 2as)^2 - c/(2 s^(3/2)), times s^(3/2)*(1 - 2as)^2 > 0.
    def h(s):
        return 8.0 * a * a * s**1.5 - 0.5 * c * (1.0 - 2.0 * a * s) ** 2

    s = _bisect(h, 1.0 / (2.0 * a))
    return (8.0 * beta(s, params) + c * math.sqrt(s)) / (D * s), s


def n2_main(acc: Accuracy, params: ProblemParams) -> tuple[float, float]:
    """Diagonal-sum Chernoff term; returns (value, optimizer witness)."""
    return _n2_infimum(acc.r, math.log(3.0 * params.p / acc.eps), params)


def _n3_denominator_max(
    r: float, params: ProblemParams, weight: float = 1.0
) -> tuple[float, float]:
    """max over s of slope*s - gamma(s), slope = weight*sigma_min^2*r^2/8, as
    (value, witness).

    gamma is convex with gamma'(0) = 0 and a pole at 1/(alpha^2*R^2), so the
    maximum is the root of gamma'(s) = slope.  The slack is positive in exact
    arithmetic; it reads 0 or less only where slope*s underflows.
    """
    a = params.alpha**2 * params.require_R() ** 2
    slope = weight * params.sigma_min**2 * r**2 / 8.0

    # gamma'(s) - slope, times 2*(1 - x^2)^2 > 0.
    def h(s):
        x = a * s
        y = x * x
        return a * x * (2.0 - 2.0 * y + y * y) - 2.0 * slope * (1.0 - y) ** 2

    s = _bisect(h, 1.0 / a)
    return slope * s - _gamma(s, a), s


def _n3_infimum(
    r: float, log_term: float, params: ProblemParams, weight: float = 1.0
) -> tuple[float, float]:
    slack, s = _n3_denominator_max(r, params, weight)
    if slack <= 0:  # only finite inputs at the edge of the float range get here
        raise ParameterError("cross-term exponent has no positive slack on its domain")
    return math.sqrt(max(log_term, 0.0) / slack), s


def n3_main(acc: Accuracy, params: ProblemParams) -> tuple[float, float]:
    """Cross-term Chernoff term; returns (value, optimizer witness)."""
    return _n3_infimum(acc.r, math.log(3.0 * params.p / acc.eps), params)


def _n_rand_lead(params: ProblemParams) -> float:
    """Coefficient of the log term in n_rand."""
    sm, sx = params.sigma_min, params.sigma_max
    return (4.0 / 3.0) * (6.0 * sx + sm) * (params.p * params.alpha**2 + sx) / sm**2


def n_rand(eps_arg: float, p_factor: float, params: ProblemParams) -> float:
    """Sample count ensuring the empirical Gram matrix keeps its smallest
    eigenvalue above sigma_min/2 with probability >= 1 - eps_arg.

    ``p_factor`` is the numerator of the log argument: 3p or 2p when this term
    is consumed inside a three- or two-way union bound, p when used raw.
    """
    as_positive("eps_arg", eps_arg)
    as_positive("p_factor", p_factor)
    return _n_rand_lead(params) * max(math.log(p_factor / eps_arg), 0.0)


# ---------------------------------------------------------------------------
# Assembled bounds


def n_main(acc: Accuracy, params: ProblemParams) -> BoundBreakdown:
    """Sample-count bound for i.i.d. sub-Gaussian noise on a random design."""
    n1 = n1_main(acc, params)  # first: it requires R and checks the range of sigma_min * r
    v2, s2 = n2_main(acc, params)
    v3, s3 = n3_main(acc, params)
    terms = {
        "n1": n1,
        "n2": v2,
        "n3": v3,
        "n_rand": n_rand(acc.eps, 3.0 * params.p, params),
    }
    return make_breakdown("main", terms, params.p, s_opt_n2=s2, s_opt_n3=s3)


def _tau_inner_max(
    tau: float,
    n1: float,
    nr: float,
    n2_base: tuple[float, float],
    r: float,
    log2eps: float,
    params: ProblemParams,
) -> tuple[float, tuple[float, float], tuple[float, float]]:
    # The split-weight variant scales the diagonal term by 1/tau (its inner
    # infimum does not depend on tau) and re-solves the cross term with the
    # slack weight 2*(1-tau) relative to the unsplit exponent.
    n2 = n2_base[0] / tau
    n3, s3 = _n3_infimum(r, log2eps, params, weight=2.0 * (1.0 - tau))
    return max(n1, nr, n2, n3), (n2, n2_base[1]), (n3, s3)


def _refine_weight(f, lo: float, hi: float) -> float:
    """A minimizer of f on (lo, hi): the best of 16 probes log-spaced from lo
    between insets of 1e-9 of the width, then golden section between its
    neighbours to a relative width of 1e-4."""
    a = lo + (hi - lo) * 1e-9
    b = hi - (hi - lo) * 1e-9
    probes = lo + np.geomspace(a - lo, b - lo, 16)
    values = [f(float(x)) for x in probes]
    k = int(np.argmin(values))
    best_x, best_f = float(probes[k]), values[k]
    left = float(probes[k - 1]) if k > 0 else a
    right = float(probes[k + 1]) if k < len(probes) - 1 else b
    x1 = right - _GOLDEN * (right - left)
    x2 = left + _GOLDEN * (right - left)
    f1, f2 = f(x1), f(x2)
    scale = max(abs(left), abs(right))
    while right - left > 1e-4 * scale:
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - _GOLDEN * (right - left)
            f1 = f(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + _GOLDEN * (right - left)
            f2 = f(x2)
    for x, fx in ((x1, f1), (x2, f2)):
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x


def n_main_tau(acc: Accuracy, params: ProblemParams) -> BoundBreakdown:
    """Split-weight variant of the main bound, minimized over the weight.

    The diagonal and cross terms here carry a log(2/eps) factor rather than
    the dimension-dependent factor of the main bound; the difference is
    surfaced in CLI metadata.
    """
    log2eps = math.log(2.0 / acc.eps)
    n1 = n1_main(acc, params)  # first: it requires R and checks the range of sigma_min * r
    nr = n_rand(acc.eps, 3.0 * params.p, params)

    # Inner infimum of the diagonal term at tau = 1 (scales as 1/tau): the
    # split objective (4*beta + sigma_min*r*sqrt(2*s*log2eps))/(D*s) is half
    # of n2's at the same log term.
    v2, s2 = _n2_infimum(acc.r, log2eps, params)
    n2_base = (v2 / 2.0, s2)

    def inner(tau):
        return _tau_inner_max(tau, n1, nr, n2_base, acc.r, log2eps, params)

    # Exact values on the 0.01-step weight grid; at tau = 1/2 every term is at
    # most n_main's (log(2/eps) <= log(3p/eps)), so the bound never exceeds it.
    taus = np.arange(TAU_GRID_STEP, 1.0, TAU_GRID_STEP)
    grid = [inner(float(tau)) for tau in taus]
    k = int(np.argmin([total for total, _, _ in grid]))
    lo = float(taus[k - 1]) if k > 0 else float(taus[0]) / 2.0
    hi = float(taus[k + 1]) if k < len(taus) - 1 else (1.0 + float(taus[-1])) / 2.0
    tau_opt = _refine_weight(lambda tau: inner(tau)[0], lo, hi)
    total, (n2, s2), (n3, s3) = inner(tau_opt)
    # Keep the refinement unless the grid point is strictly better.  Where n1
    # or n_rand binds, a whole interval of weights ties, and the values that
    # perfbench/reference.json pins for n2 and n3 are the refinement's.
    if grid[k][0] < total:
        tau_opt = float(taus[k])
        total, (n2, s2), (n3, s3) = grid[k]
    terms = {"n1": n1, "n2": n2, "n3": n3, "n_rand": nr}
    return make_breakdown(
        "main_tau", terms, params.p, s_opt_n2=s2, s_opt_n3=s3, tau_opt=tau_opt
    )


# Closed-form families: n1 = C * alpha^2 * scale^2 / (sigma_min^2 r^2) *
# log(f * p / eps), by tag (C, noise scale, f).
_CLOSED_FORMS = {
    "bounded": (2.0, ProblemParams.require_b, 3.0),
    "mds_subgaussian": (8.0, ProblemParams.require_R, 2.0),
    "mds_bounded": (8.0, ProblemParams.require_b, 2.0),
    "fixed_mds": (8.0, ProblemParams.require_R, 2.0),
}
# Closed forms for a known design, which have no Gram-concentration term n_rand:
# sigma_min and alpha must be measured on the matrix that runs.
KNOWN_DESIGN = frozenset({"fixed_mds"})


def _closed_form(theorem: str, r: float, params: ProblemParams) -> tuple[float, float]:
    """(C1, f) with first term C1 * log(f / eps) for a closed-form family."""
    const, scale, per_p = _CLOSED_FORMS[theorem]
    return _scaled_floor(const, scale(params), r, params), per_p * params.p


def _closed_form_bound(theorem: str, acc: Accuracy, params: ProblemParams) -> BoundBreakdown:
    c1, factor = _closed_form(theorem, acc.r, params)
    terms = {"n1": c1 * max(math.log(factor / acc.eps), 0.0)}
    if theorem not in KNOWN_DESIGN:
        terms["n_rand"] = n_rand(acc.eps, factor, params)
    return make_breakdown(theorem, terms, params.p)


# ---------------------------------------------------------------------------
# Outage as a function of N


def eps_of_n(r: float, N: float, params: ProblemParams) -> OutageBreakdown:
    """Outage bound at radius r and sample count N for the main model.

    Requires N above the variance floor 4*alpha^2*R^2/(sigma_min^2*r^2).
    Each term is clipped to at most 1; a term whose optimizer domain is empty
    is reported as 1 with its feasible flag cleared.
    """
    R = params.require_R()
    as_positive("r", r)
    n1_floor = _scaled_floor(4.0, R, r, params)
    if not (N > n1_floor):
        raise ParameterError(
            f"N must exceed 4*alpha^2*R^2/(sigma_min^2*r^2) = {n1_floor}, got {N}"
        )
    three_p = 3.0 * params.p
    a = params.alpha**2 * R**2
    D = params.sigma_min**2 * r**2

    # Diagonal term: the squared one-sided exponent m(s)^2/(8*s*D) is largest
    # where m(s)/sqrt(s) is; it is positive somewhere iff D*N > 8a.
    slope = D * N - 8.0 * a
    eps2_feasible = slope > 0
    eps2, s_opt2 = 1.0, None
    if eps2_feasible:
        s_opt2 = _bisect(
            lambda s: 16.0 * a * a * s * (1.5 - a * s) - slope * (1.0 - 2.0 * a * s) ** 2,
            1.0 / (2.0 * a),
        )
        margin = max(D * N * s_opt2 - 8.0 * beta(s_opt2, params), 0.0)
        eps2 = min(1.0, three_p * math.exp(-(margin**2) / (8.0 * s_opt2 * D)))

    # Cross term: best exponent is N^2 times the maximal positive slack.
    slack3, s3 = _n3_denominator_max(r, params)
    if slack3 > 0:
        eps3 = min(1.0, three_p * math.exp(-(N**2) * slack3))
        eps3_feasible = True
        s_opt3: float | None = s3
    else:
        eps3, eps3_feasible, s_opt3 = 1.0, False, None

    eps_rand = min(1.0, three_p * math.exp(-N / _n_rand_lead(params)))

    return OutageBreakdown(
        eps2=eps2,
        eps3=eps3,
        eps_rand=eps_rand,
        eps_final=max(eps2, eps3, eps_rand),
        eps2_feasible=eps2_feasible,
        eps3_feasible=eps3_feasible,
        eps_rand_feasible=True,
        s_opt_eps2=s_opt2,
        s_opt_eps3=s_opt3,
    )


def l2_radius(r2: float, p: int) -> float:
    """Sup-norm radius whose guarantee implies the Euclidean-norm guarantee
    at radius r2 in dimension p."""
    return as_positive("r2", r2) / math.sqrt(as_count("p", p))


BOUND_FUNCTIONS = {
    "main": n_main,
    "main_tau": n_main_tau,
    **{tag: functools.partial(_closed_form_bound, tag) for tag in _CLOSED_FORMS},
}


def check_tag(theorem: str) -> str:
    """theorem, if it is a bound tag of BOUND_FUNCTIONS."""
    if theorem not in BOUND_FUNCTIONS:
        raise ParameterError(f"unknown bound tag {theorem!r}; expected one of {sorted(BOUND_FUNCTIONS)}")
    return theorem


def bound_for(theorem: str, acc: Accuracy, params: ProblemParams) -> BoundBreakdown:
    """Dispatch a bound computation by tag."""
    return BOUND_FUNCTIONS[check_tag(theorem)](acc, params)


def eps_for(theorem: str, r: float, N: int, params: ProblemParams) -> float:
    """Outage bound at a positive r and an integer N >= 1 for the given bound
    family, clipped to 1.  main_tau has no outage expression (ParameterError)."""
    check_tag(theorem)
    as_positive("r", r)
    N = as_count("N", N)
    if theorem == "main":
        if N <= _scaled_floor(4.0, params.require_R(), r, params):
            return 1.0
        return eps_of_n(r, N, params).eps_final
    if theorem in _CLOSED_FORMS:
        # Exact inversion of lead * log(f/eps): lead is C1 on a known design
        # and max(C1, C_rand) otherwise.
        c1, factor = _closed_form(theorem, r, params)
        lead = c1 if theorem in KNOWN_DESIGN else max(c1, _n_rand_lead(params))
        return min(1.0, factor * math.exp(-N / lead))
    raise ParameterError(f"no outage expression for bound tag {theorem!r}")
