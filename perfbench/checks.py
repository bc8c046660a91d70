"""Output checks for the benchmark.

Every check raises CheckFailed with a message that names it.  The checks
compare the program's outputs with values recorded at the commit that
introduced the benchmark (reference.json, written by record_reference.py).
They import nothing from the package, so a defect in the package cannot
hide itself here.
"""

from __future__ import annotations

import math

# Relative tolerances for bound values, as the test suite pins them:
# closed-form families to 1e-12 (tests/test_bounds.py), the main bound's inner
# infima to 1e-6 against the grid oracles, the split-weight bound to the 1e-3
# slack of the property sweep, and the outage terms to 1e-3 with an absolute
# floor of 1e-250 (tests/test_bounds.py, eps_of_n oracle comparison).
BOUND_RTOL = {
    "main": 1e-6,
    "main_tau": 1e-3,
    "bounded": 1e-12,
    "mds_subgaussian": 1e-12,
    "mds_bounded": 1e-12,
    "fixed_mds": 1e-12,
    "eps_of_n": 1e-3,
}
EPS_OF_N_ATOL = 1e-250
# The fixed-design outage bound is exp(-c * sigma_min^2); the tests pin
# eigenvalues to 1e-9 relative, and the exponent (at most about 10 here)
# doubles and multiplies that error, so 1e-7 covers it.
FIXED_EPS_RTOL = 1e-7

# Width of the score intervals compared between a run and its reference.  At
# z = 5 two estimates of the same proportion fail to overlap with probability
# below 1e-6, so the check does not fire by chance over many seeds, while a
# wrong solve, which moves a control row's proportion to 0 or 1, still fails.
WILSON_Z = 5.0
CONTROL_RANGE = (0.05, 0.95)


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def wilson(k: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Score interval for k successes in n trials."""
    if n <= 0:
        return 0.0, 1.0
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z / denom * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def check_overlap(label: str, k: int, n: int, ref_k: int, ref_n: int) -> None:
    """The run's interval for k/n must overlap the reference interval."""
    lo, hi = wilson(k, n)
    ref_lo, ref_hi = wilson(ref_k, ref_n)
    if hi < ref_lo or ref_hi < lo:
        raise CheckFailed(
            f"{label}: interval [{lo:.4g}, {hi:.4g}] ({k}/{n}) misses the "
            f"reference [{ref_lo:.4g}, {ref_hi:.4g}] ({ref_k}/{ref_n})"
        )


def check_control(label: str, k: int, n: int, ref_k: int, ref_n: int) -> None:
    """A control row must land strictly inside CONTROL_RANGE and overlap its
    reference, so that a solve returning the wrong estimate shows."""
    lo, hi = CONTROL_RANGE
    if not (lo < k / n < hi):
        raise CheckFailed(f"{label}: control proportion {k}/{n} is outside ({lo}, {hi})")
    check_overlap(label, k, n, ref_k, ref_n)


def check_close(label: str, got: float, want: float, rtol: float, atol: float = 0.0) -> None:
    if not math.isclose(got, want, rel_tol=rtol, abs_tol=atol):
        raise CheckFailed(f"{label}: got {got!r}, reference {want!r} (rtol {rtol:g})")


def check_equal(label: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r}")


def check_bound_values(label: str, family: str, got: dict, want: dict) -> None:
    """Compare every recorded term of one bound evaluation."""
    check_equal(f"{label} {family} terms", sorted(got), sorted(want))
    atol = EPS_OF_N_ATOL if family == "eps_of_n" else 0.0
    for term, value in want.items():
        check_close(f"{label} {family}.{term}", got[term], value, BOUND_RTOL[family], atol)
