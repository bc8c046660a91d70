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
"""

from __future__ import annotations

import math

import numpy as np

from .optimize import InfimumResult, NoFinitePointError, infimum_1d
from .params import (
    Accuracy,
    BoundBreakdown,
    DomainError,
    OutageBreakdown,
    ParameterError,
    ProblemParams,
    make_breakdown,
)

TAU_GRID_STEP = 0.01


# ---------------------------------------------------------------------------
# Chernoff-exponent helper functions


def beta(s: float, params: ProblemParams, as_printed: bool = False) -> float:
    """Log-MGF bound for the squared-noise Chernoff term.

    Default form: a2r2*s + (a2r2*s)^2 / (1 - 2*a2r2*s) with a2r2 = alpha^2*R^2,
    which vanishes at s -> 0 as a log-MGF bound must.  ``as_printed`` selects
    the alternative form alpha^2*R^2*p + alpha^4*R^4*s^2/(1-2*R^2*s), kept as a
    comparison mode; it does not vanish at 0 and has its pole at 1/(2*R^2).
    """
    R = params.require_R()
    a2r2 = params.alpha**2 * R**2
    if not (0 < s < 1.0 / (2.0 * a2r2)):
        raise DomainError(f"beta requires 0 < s < 1/(2*alpha^2*R^2) = {1.0 / (2.0 * a2r2)}")
    if as_printed:
        if s >= 1.0 / (2.0 * R**2):
            raise DomainError(
                f"as-printed beta requires s < 1/(2*R^2) = {1.0 / (2.0 * R ** 2)}"
            )
        return a2r2 * params.p + (a2r2 * s) ** 2 / (1.0 - 2.0 * R**2 * s)
    x = a2r2 * s
    return x + x * x / (1.0 - 2.0 * x)


def _beta_of(params: ProblemParams, as_printed: bool):
    """Vectorized beta(s) with +inf outside its domain."""
    R = params.require_R()
    a2r2 = params.alpha**2 * R**2
    p = params.p
    if as_printed:
        pole = 1.0 / (2.0 * R**2)

        def f(s):
            s = np.asarray(s, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                x = a2r2 * s
                core = a2r2 * p + x * x / (1.0 - 2.0 * R**2 * s)
                ok = (s > 0) & (x < 0.5) & (s < pole)
            return np.where(ok, core, np.inf)

        return f, a2r2

    def f(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = a2r2 * s
            core = x + x * x / (1.0 - 2.0 * x)
            ok = (s > 0) & (x < 0.5)
        return np.where(ok, core, np.inf)

    return f, a2r2


def gamma(s: float, params: ProblemParams) -> float:
    """Log-MGF bound for the cross-term Chernoff exponent.

    gamma(s) = a4r4*s^2/2 + a4r4^2*s^4 / (4*(1 - s^2*a4r4)) with
    a4r4 = alpha^4*R^4, valid on 0 < s < 1/(alpha^2*R^2).
    """
    R = params.require_R()
    a2r2 = params.alpha**2 * R**2
    if not (0 < s < 1.0 / a2r2):
        raise DomainError(f"gamma requires 0 < s < 1/(alpha^2*R^2) = {1.0 / a2r2}")
    y = (a2r2 * s) ** 2
    return y / 2.0 + y * y / (4.0 * (1.0 - y))


def _gamma_of(params: ProblemParams):
    """Vectorized gamma(s) with +inf outside its domain."""
    R = params.require_R()
    a2r2 = params.alpha**2 * R**2

    def f(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            y = (a2r2 * s) ** 2
            core = y / 2.0 + y * y / (4.0 * (1.0 - y))
            ok = (s > 0) & (y < 1.0)
        return np.where(ok, core, np.inf)

    return f, a2r2


# ---------------------------------------------------------------------------
# Individual sample-count terms


def n1_main(acc: Accuracy, params: ProblemParams) -> float:
    """Variance floor 4*alpha^2*R^2 / (sigma_min^2 * r^2)."""
    R = params.require_R()
    return 4.0 * params.alpha**2 * R**2 / (params.sigma_min**2 * acc.r**2)


def _n2_infimum(
    r: float, log_term: float, params: ProblemParams, as_printed: bool = False
) -> InfimumResult:
    """inf over s of (8*beta(s) + 2*sigma_min*r*sqrt(2*s*log_term)) / (sm^2 r^2 s)."""
    beta_f, a2r2 = _beta_of(params, as_printed)
    sm = params.sigma_min
    denom_scale = sm**2 * r**2
    two_l = 2.0 * max(log_term, 0.0)

    def objective(s):
        s = np.asarray(s, dtype=float)
        return (8.0 * beta_f(s) + 2.0 * sm * r * np.sqrt(two_l * s)) / (denom_scale * s)

    return infimum_1d(objective, 0.0, 1.0 / (2.0 * a2r2))


def n2_main(
    acc: Accuracy, params: ProblemParams, as_printed: bool = False
) -> tuple[float, float]:
    """Diagonal-sum Chernoff term; returns (value, optimizer witness)."""
    res = _n2_infimum(acc.r, math.log(3.0 * params.p / acc.eps), params, as_printed)
    return res.value, res.argmin


def _n3_denominator_max(
    r: float, params: ProblemParams, weight: float = 1.0
) -> InfimumResult:
    """max over s of weight*sigma_min^2*r^2*s/8 - gamma(s) (returned as a max)."""
    gamma_f, a2r2 = _gamma_of(params)
    slope = weight * params.sigma_min**2 * r**2 / 8.0

    def neg(s):
        s = np.asarray(s, dtype=float)
        return gamma_f(s) - slope * s

    res = infimum_1d(neg, 0.0, 1.0 / a2r2)
    return InfimumResult(value=-res.value, argmin=res.argmin)


def _n3_infimum(
    r: float, log_term: float, params: ProblemParams, weight: float = 1.0
) -> InfimumResult:
    best = _n3_denominator_max(r, params, weight)
    if best.value <= 0:
        raise NoFinitePointError(
            "cross-term exponent has no positive slack on its domain"
        )
    return InfimumResult(
        value=math.sqrt(max(log_term, 0.0) / best.value), argmin=best.argmin
    )


def n3_main(acc: Accuracy, params: ProblemParams) -> tuple[float, float]:
    """Cross-term Chernoff term; returns (value, optimizer witness)."""
    res = _n3_infimum(acc.r, math.log(3.0 * params.p / acc.eps), params)
    return res.value, res.argmin


def n_rand(eps_arg: float, p_factor: float, params: ProblemParams) -> float:
    """Sample count ensuring the empirical Gram matrix keeps its smallest
    eigenvalue above sigma_min/2 with probability >= 1 - eps_arg.

    ``p_factor`` is the numerator of the log argument: 3p or 2p when this term
    is consumed inside a three- or two-way union bound, p when used raw.
    """
    if not (eps_arg > 0):
        raise DomainError(f"eps_arg must be positive, got {eps_arg}")
    if not (p_factor > 0):
        raise DomainError(f"p_factor must be positive, got {p_factor}")
    sm, sx = params.sigma_min, params.sigma_max
    lead = (4.0 / 3.0) * (6.0 * sx + sm) * (params.p * params.alpha**2 + sx) / sm**2
    return lead * max(math.log(p_factor / eps_arg), 0.0)


def _n_rand_coeff(params: ProblemParams) -> float:
    sm, sx = params.sigma_min, params.sigma_max
    return (6.0 * sx + sm) * (params.p * params.alpha**2 + sx) / sm**2


# ---------------------------------------------------------------------------
# Assembled bounds


def n_main(
    acc: Accuracy, params: ProblemParams, beta_as_printed: bool = False
) -> BoundBreakdown:
    """Sample-count bound for i.i.d. sub-Gaussian noise on a random design."""
    params.require_R()
    v2, s2 = n2_main(acc, params, beta_as_printed)
    v3, s3 = n3_main(acc, params)
    terms = {
        "n1": n1_main(acc, params),
        "n2": v2,
        "n3": v3,
        "n_rand": n_rand(acc.eps, 3.0 * params.p, params),
    }
    return make_breakdown("main", terms, s_opt_n2=s2, s_opt_n3=s3)


def _tau_inner_max(
    tau: float,
    n1: float,
    nr: float,
    n2_base: InfimumResult,
    r: float,
    log2eps: float,
    params: ProblemParams,
) -> tuple[float, InfimumResult, InfimumResult]:
    # The split-weight variant scales the diagonal term by 1/tau (its inner
    # infimum does not depend on tau) and re-solves the cross term with the
    # slack weight 2*(1-tau) relative to the unsplit exponent.
    n2_res = InfimumResult(value=n2_base.value / tau, argmin=n2_base.argmin)
    n3_res = _n3_infimum(r, log2eps, params, weight=2.0 * (1.0 - tau))
    return max(n1, nr, n2_res.value, n3_res.value), n2_res, n3_res


def n_main_tau(
    acc: Accuracy, params: ProblemParams, beta_as_printed: bool = False
) -> BoundBreakdown:
    """Split-weight variant of the main bound, minimized over the weight.

    The diagonal and cross terms here carry a log(2/eps) factor rather than
    the dimension-dependent factor of the main bound; the difference is
    surfaced in CLI metadata.
    """
    params.require_R()
    log2eps = math.log(2.0 / acc.eps)
    n1 = n1_main(acc, params)
    nr = n_rand(acc.eps, 3.0 * params.p, params)

    # Inner infimum of the diagonal term at tau = 1 (scales as 1/tau), with
    # the 4*beta + sigma*r*sqrt(...) coefficients of the split variant.
    beta_f, a2r2 = _beta_of(params, beta_as_printed)
    sm = params.sigma_min
    denom_scale = sm**2 * acc.r**2
    two_l = 2.0 * log2eps

    def n2_objective(s):
        s = np.asarray(s, dtype=float)
        return (4.0 * beta_f(s) + sm * acc.r * np.sqrt(two_l * s)) / (denom_scale * s)

    n2_base = infimum_1d(n2_objective, 0.0, 1.0 / (2.0 * a2r2))

    # Coarse pass over the 0.01-step weight grid on a shared s-grid (the cross
    # term's inner optimum is re-solved exactly only near the winning weight).
    taus = np.arange(TAU_GRID_STEP, 1.0, TAU_GRID_STEP)
    gamma_f, a2r2_g = _gamma_of(params)
    s_hi = 1.0 / a2r2_g
    s_grid = np.geomspace(s_hi * 1e-9, s_hi * (1.0 - 1e-9), 2048)
    gam = gamma_f(s_grid)
    slope = sm**2 * acc.r**2 / 8.0
    h_max = np.max(
        2.0 * (1.0 - taus)[:, None] * slope * s_grid[None, :] - gam[None, :], axis=1
    )
    n3_coarse = np.sqrt(log2eps / np.maximum(h_max, 1e-300))
    inner_coarse = np.maximum(np.maximum(n1, nr), np.maximum(n2_base.value / taus, n3_coarse))
    k = int(np.argmin(inner_coarse))

    lo = float(taus[k - 1]) if k > 0 else float(taus[0]) / 2.0
    hi = float(taus[k + 1]) if k < len(taus) - 1 else (1.0 + float(taus[-1])) / 2.0
    refined = infimum_1d(
        lambda t: _tau_inner_max(float(t), n1, nr, n2_base, acc.r, log2eps, params)[0],
        lo,
        hi,
        rel_tol=1e-4,
        scan_points=16,
    )
    tau_opt = refined.argmin
    total, n2_res, n3_res = _tau_inner_max(
        tau_opt, n1, nr, n2_base, acc.r, log2eps, params
    )
    grid_total, grid_n2, grid_n3 = _tau_inner_max(
        float(taus[k]), n1, nr, n2_base, acc.r, log2eps, params
    )
    if grid_total < total:  # keep the better of grid point and refinement
        tau_opt = float(taus[k])
        total, n2_res, n3_res = grid_total, grid_n2, grid_n3
    terms = {"n1": n1, "n2": n2_res.value, "n3": n3_res.value, "n_rand": nr}
    return make_breakdown(
        "main_tau",
        terms,
        s_opt_n2=n2_res.argmin,
        s_opt_n3=n3_res.argmin,
        tau_opt=tau_opt,
    )


def n_bounded(acc: Accuracy, params: ProblemParams) -> BoundBreakdown:
    """Sample-count bound for i.i.d. almost-surely bounded noise."""
    b = params.require_b()
    log_term = math.log(3.0 * params.p / acc.eps)
    n1 = 2.0 * params.alpha**2 * b**2 / (acc.r**2 * params.sigma_min**2) * max(
        log_term, 0.0
    )
    terms = {"n1": n1, "n_rand": n_rand(acc.eps, 3.0 * params.p, params)}
    return make_breakdown("bounded", terms)


def n_mds_subgaussian(acc: Accuracy, params: ProblemParams) -> BoundBreakdown:
    """Sample-count bound for conditionally sub-Gaussian martingale noise."""
    R = params.require_R()
    log_term = math.log(2.0 * params.p / acc.eps)
    n1 = 8.0 * params.alpha**2 * R**2 / (acc.r**2 * params.sigma_min**2) * max(
        log_term, 0.0
    )
    terms = {"n1": n1, "n_rand": n_rand(acc.eps, 2.0 * params.p, params)}
    return make_breakdown("mds_subgaussian", terms)


def n_mds_bounded(acc: Accuracy, params: ProblemParams) -> BoundBreakdown:
    """Sample-count bound for bounded martingale-difference noise."""
    b = params.require_b()
    log_term = math.log(2.0 * params.p / acc.eps)
    n1 = 8.0 * params.alpha**2 * b**2 / (acc.r**2 * params.sigma_min**2) * max(
        log_term, 0.0
    )
    terms = {"n1": n1, "n_rand": n_rand(acc.eps, 2.0 * params.p, params)}
    return make_breakdown("mds_bounded", terms)


def n_fixed_design(acc: Accuracy, params: ProblemParams) -> BoundBreakdown:
    """Sample-count bound for a known (non-random) design matrix.

    ``params.sigma_min`` and ``params.alpha`` must be measured from the actual
    matrix; there is no Gram-concentration term.
    """
    R = params.require_R()
    log_term = math.log(2.0 * params.p / acc.eps)
    n1 = 8.0 * params.alpha**2 * R**2 / (acc.r**2 * params.sigma_min**2) * max(
        log_term, 0.0
    )
    return make_breakdown("fixed_mds", {"n1": n1})


def eps_fixed_design(r: float, N: float, params: ProblemParams) -> float:
    """Outage level implied by the fixed-design bound at sample count N
    (exact inversion of n_fixed_design in eps), clipped to 1."""
    R = params.require_R()
    if not (r > 0 and N > 0):
        raise DomainError("r and N must be positive")
    expo = N * r**2 * params.sigma_min**2 / (8.0 * params.alpha**2 * R**2)
    return min(1.0, 2.0 * params.p * math.exp(-expo))


# ---------------------------------------------------------------------------
# Outage as a function of N


def eps_of_n(r: float, N: float, params: ProblemParams) -> OutageBreakdown:
    """Outage bound at radius r and sample count N for the main model.

    Requires N above the variance floor 4*alpha^2*R^2/(sigma_min^2*r^2).
    Each term is clipped to at most 1; a term whose optimizer domain is empty
    is reported as 1 with its feasible flag cleared.
    """
    R = params.require_R()
    if not (r > 0):
        raise DomainError(f"r must be positive, got {r}")
    n1_floor = 4.0 * params.alpha**2 * R**2 / (params.sigma_min**2 * r**2)
    if not (N > n1_floor):
        raise DomainError(
            f"N must exceed 4*alpha^2*R^2/(sigma_min^2*r^2) = {n1_floor}, got {N}"
        )
    three_p = 3.0 * params.p
    sm2r2 = params.sigma_min**2 * r**2

    # Diagonal term: maximize the squared one-sided exponent over the region
    # where the exponent argument is nonnegative.
    beta_f, a2r2 = _beta_of(params, as_printed=False)

    def neg_expo2(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            margin = sm2r2 * s * N - 8.0 * beta_f(s)
            expo = margin**2 / (8.0 * s * sm2r2)
        return np.where((s > 0) & (margin >= 0), -expo, np.inf)

    eps2_feasible = True
    s_opt2: float | None = None
    try:
        res2 = infimum_1d(neg_expo2, 0.0, 1.0 / (2.0 * a2r2))
        eps2 = min(1.0, three_p * math.exp(res2.value))
        s_opt2 = res2.argmin
    except NoFinitePointError:
        eps2, eps2_feasible = 1.0, False

    # Cross term: best exponent is N^2 times the maximal positive slack.
    best3 = _n3_denominator_max(r, params)
    if best3.value > 0:
        eps3 = min(1.0, three_p * math.exp(-(N**2) * best3.value))
        eps3_feasible = True
        s_opt3: float | None = best3.argmin
    else:
        eps3, eps3_feasible, s_opt3 = 1.0, False, None

    eps_rand = min(1.0, three_p * math.exp(-0.75 * N / _n_rand_coeff(params)))

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
    if not (r2 > 0):
        raise DomainError(f"r2 must be positive, got {r2}")
    if p < 1:
        raise DomainError(f"p must be a positive integer, got {p}")
    return r2 / math.sqrt(p)


BOUND_FUNCTIONS = {
    "main": n_main,
    "main_tau": n_main_tau,
    "bounded": n_bounded,
    "mds_subgaussian": n_mds_subgaussian,
    "mds_bounded": n_mds_bounded,
    "fixed_mds": n_fixed_design,
}


def bound_for(
    theorem: str, acc: Accuracy, params: ProblemParams, beta_as_printed: bool = False
) -> BoundBreakdown:
    """Dispatch a bound computation by tag."""
    try:
        fn = BOUND_FUNCTIONS[theorem]
    except KeyError:
        raise DomainError(
            f"unknown bound tag {theorem!r}; expected one of {sorted(BOUND_FUNCTIONS)}"
        ) from None
    if theorem in ("main", "main_tau"):
        return fn(acc, params, beta_as_printed)
    return fn(acc, params)


def eps_for(theorem: str, r: float, N: int, params: ProblemParams) -> float:
    """Outage bound at (r, N) for the given bound family, clipped to 1."""
    if theorem == "main":
        floor = 4.0 * params.require_R() ** 2 * params.alpha**2 / (
            params.sigma_min**2 * r**2
        )
        if N <= floor:
            return 1.0
        return eps_of_n(r, N, params).eps_final
    if theorem == "fixed_mds":
        return eps_fixed_design(r, N, params)
    if theorem in ("bounded", "mds_subgaussian", "mds_bounded"):
        # Exact inversion of max(C1 * log(f/eps), C_rand * log(f/eps)).
        if theorem == "bounded":
            factor = 3.0 * params.p
            c1 = 2.0 * params.alpha**2 * params.require_b() ** 2 / (
                r**2 * params.sigma_min**2
            )
        elif theorem == "mds_subgaussian":
            factor = 2.0 * params.p
            c1 = 8.0 * params.alpha**2 * params.require_R() ** 2 / (
                r**2 * params.sigma_min**2
            )
        else:
            factor = 2.0 * params.p
            c1 = 8.0 * params.alpha**2 * params.require_b() ** 2 / (
                r**2 * params.sigma_min**2
            )
        lead = max(c1, (4.0 / 3.0) * _n_rand_coeff(params))
        return min(1.0, factor * math.exp(-N / lead))
    raise ParameterError(f"no outage expression for bound tag {theorem!r}")
