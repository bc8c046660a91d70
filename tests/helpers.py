"""Shared test oracles, kept independent of the production code paths."""

from __future__ import annotations

import math

import numpy as np


def beta_proof(s, alpha, R):
    x = alpha**2 * R**2 * s
    return x + x * x / (1.0 - 2.0 * x)


def gamma_ref(s, alpha, R):
    y = (alpha**2 * R**2 * s) ** 2
    return y / 2.0 + y * y / (4.0 * (1.0 - y))


def n2_grid_oracle(r, eps, p, alpha, R, sigma_min, points=1_000_000):
    """Dense log-spaced grid minimization of the diagonal-term objective."""
    s_hi = 1.0 / (2.0 * alpha**2 * R**2)
    s = np.geomspace(s_hi * 1e-9, s_hi * (1.0 - 1e-9), points)
    log_term = math.log(3.0 * p / eps)
    vals = (
        8.0 * beta_proof(s, alpha, R)
        + 2.0 * sigma_min * r * np.sqrt(2.0 * s * log_term)
    ) / (sigma_min**2 * r**2 * s)
    k = int(np.argmin(vals))
    return float(vals[k]), float(s[k])


def n3_grid_oracle(r, eps, p, alpha, R, sigma_min, points=1_000_000):
    """Dense grid maximization of the cross-term exponent slack."""
    s_hi = 1.0 / (alpha**2 * R**2)
    s = np.geomspace(s_hi * 1e-9, s_hi * (1.0 - 1e-9), points)
    slack = sigma_min**2 * r**2 * s / 8.0 - gamma_ref(s, alpha, R)
    k = int(np.argmax(slack))
    log_term = math.log(3.0 * p / eps)
    return float(math.sqrt(log_term / slack[k])), float(s[k]), float(slack[k])


def eps2_grid_oracle(r, N, p, alpha, R, sigma_min, points=1_000_000):
    """Dense grid version of the diagonal outage term."""
    s_hi = 1.0 / (2.0 * alpha**2 * R**2)
    s = np.geomspace(s_hi * 1e-9, s_hi * (1.0 - 1e-9), points)
    margin = sigma_min**2 * r**2 * s * N - 8.0 * beta_proof(s, alpha, R)
    expo = np.where(margin >= 0, margin**2 / (8.0 * s * sigma_min**2 * r**2), -np.inf)
    best = float(np.max(expo))
    if not np.isfinite(best):
        return 1.0
    return min(1.0, 3.0 * p * math.exp(-best))


def eps3_grid_oracle(r, N, p, alpha, R, sigma_min, points=1_000_000):
    s_hi = 1.0 / (alpha**2 * R**2)
    s = np.geomspace(s_hi * 1e-9, s_hi * (1.0 - 1e-9), points)
    slack = sigma_min**2 * r**2 * s / 8.0 - gamma_ref(s, alpha, R)
    best = float(np.max(slack))
    if best <= 0:
        return 1.0
    return min(1.0, 3.0 * p * math.exp(-(N**2) * best))


def char_poly_coeffs(A: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    recursion (trace-based; no eigendecomposition involved)."""
    n = A.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def eigs_char_poly(A: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial (companion
    matrix via numpy.roots)."""
    roots = np.roots(char_poly_coeffs(A))
    return np.sort(roots.real)


def gaussian_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_quantile(q: float) -> float:
    """Inverse standard normal CDF by bisection (test-side oracle)."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_problem_sets(n_sets: int, seed: int):
    """Seeded random problem parameter draws for property suites."""
    from lsqbounds.params import Accuracy, ProblemParams

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_sets):
        p = int(rng.integers(1, 9))
        alpha = float(rng.uniform(0.3, 3.0))
        sigma_max = float(rng.uniform(0.05, 1.0) * min(p * alpha**2, 4.0))
        sigma_min = float(rng.uniform(0.1, 1.0) * sigma_max)
        params = ProblemParams(
            p=p,
            alpha=alpha,
            sigma_min=sigma_min,
            sigma_max=sigma_max,
            R=float(rng.uniform(0.05, 5.0)),
            b=float(rng.uniform(0.05, 5.0)),
        )
        acc = Accuracy(r=float(rng.uniform(0.05, 3.0)), eps=float(rng.uniform(0.001, 0.5)))
        out.append((params, acc))
    return out


def check_monotonicity(params, acc, theorems, rel_slack):
    """Nonincreasing-in-r and nonincreasing-in-eps checks for the named bound
    tags, plus outage-vs-N monotonicity; returns a list of violation strings."""
    from lsqbounds import bounds
    from lsqbounds.params import Accuracy

    bad = []
    wider = Accuracy(r=1.5 * acc.r, eps=acc.eps)
    stricter = Accuracy(r=acc.r, eps=0.6 * acc.eps)
    for tag in theorems:
        base = bounds.bound_for(tag, acc, params)
        in_r = bounds.bound_for(tag, wider, params)
        in_eps = bounds.bound_for(tag, stricter, params)
        if in_r.n_final > base.n_final * (1 + rel_slack) + 1e-12:
            bad.append(f"{tag}: bound increased when r grew ({base.n_final} -> {in_r.n_final})")
        if in_eps.n_final < base.n_final * (1 - rel_slack) - 1e-12:
            bad.append(f"{tag}: bound decreased when eps shrank ({base.n_final} -> {in_eps.n_final})")
    return bad


def check_outage_monotonicity(params, acc, rel_slack=1e-6):
    from lsqbounds import bounds

    floor = 4.0 * params.alpha**2 * params.R**2 / (params.sigma_min**2 * acc.r**2)
    n_a = 2.0 * floor + 10.0
    n_b = 2.0 * n_a
    ob_a = bounds.eps_of_n(acc.r, n_a, params)
    ob_b = bounds.eps_of_n(acc.r, n_b, params)
    if ob_b.eps_final > ob_a.eps_final * (1 + rel_slack) + 1e-15:
        return [f"eps_of_n increased in N ({ob_a.eps_final} -> {ob_b.eps_final})"]
    return []


def check_exact_scalings(params, acc):
    """Closed-form scaling identities; returns violation strings."""
    import math as _math

    from lsqbounds import bounds
    from lsqbounds.params import Accuracy

    bad = []
    acc2 = Accuracy(r=acc.r / 2.0, eps=acc.eps)
    if abs(bounds.n1_main(acc2, params) - 4.0 * bounds.n1_main(acc, params)) > 1e-9 * max(
        bounds.n1_main(acc, params), 1.0
    ):
        bad.append("n1_main violated exact 1/r^2 scaling")
    for tag, factor, scale_sq in (
        ("bounded", 3.0, params.b**2),
        ("mds_subgaussian", 2.0, params.R**2),
        ("mds_bounded", 2.0, params.b**2),
        ("fixed_mds", 2.0, params.R**2),
    ):
        n1 = bounds.bound_for(tag, acc, params).n1
        n1_half = bounds.bound_for(tag, acc2, params).n1
        if abs(n1_half - 4.0 * n1) > 1e-9 * max(n1, 1.0):
            bad.append(f"{tag}: first term violated exact 1/r^2 scaling")
        log_term = _math.log(factor * params.p / acc.eps)
        acc_eps = Accuracy(r=acc.r, eps=acc.eps / 3.0)
        log_term2 = _math.log(factor * params.p / acc_eps.eps)
        n1_eps = bounds.bound_for(tag, acc_eps, params).n1
        if abs(n1_eps / log_term2 - n1 / log_term) > 1e-9 * max(n1 / log_term, 1.0):
            bad.append(f"{tag}: first term not linear in the log term")
    return bad


def run_property_sweep(total_sets=1000, main_sets=150, tau_sets=60, seed=314159):
    """The randomized monotonicity/scaling property suite; returns violations."""
    closed = ("bounded", "mds_subgaussian", "mds_bounded", "fixed_mds")
    violations = []
    for i, (params, acc) in enumerate(random_problem_sets(total_sets, seed)):
        violations += check_monotonicity(params, acc, closed, rel_slack=1e-12)
        violations += check_exact_scalings(params, acc)
        violations += check_outage_monotonicity(params, acc)
        if i < main_sets:
            violations += check_monotonicity(params, acc, ("main",), rel_slack=1e-7)
        if i < tau_sets:
            violations += check_monotonicity(params, acc, ("main_tau",), rel_slack=1e-3)
    return violations


def broad_problem_sets(n_sets: int, seed: int):
    """Seeded log-uniform parameter draws over many decades: p in 1..32,
    sigma_min down to 1e-4*sigma_max, R in [1e-4, 1e4], r in [1e-6, 1e6] and
    eps in [1e-9, 0.3]."""
    from lsqbounds.params import Accuracy, ProblemParams

    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))

    out = []
    for _ in range(n_sets):
        p = int(rng.integers(1, 33))
        alpha = log_uniform(0.1, 10.0)
        sigma_max = log_uniform(1e-2, 1.0) * p * alpha**2
        params = ProblemParams(
            p=p,
            alpha=alpha,
            sigma_min=log_uniform(1e-4, 1.0) * sigma_max,
            sigma_max=sigma_max,
            R=log_uniform(1e-4, 1e4),
        )
        out.append((params, Accuracy(r=log_uniform(1e-6, 1e6), eps=log_uniform(1e-9, 0.3))))
    return out
