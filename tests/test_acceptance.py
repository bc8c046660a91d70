"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Monte-Carlo criteria use two workers and stated trial
counts; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from lsqbounds import bounds
from lsqbounds.io import ResultRow, read_result_csv, write_result_csv
from lsqbounds.models import (
    FixedMatrix,
    IidBoundedColumns,
    Rademacher,
    Uniform,
    implied_problem_params,
)
from lsqbounds.montecarlo import (
    ExperimentSpec,
    fixed_design_bound,
    run_event_diagnostics,
    run_tail,
    sweep,
    wilson_interval,
)
from lsqbounds.params import Accuracy, ProblemParams
from lsqbounds.presets import (
    FIR_RECEIVER_SHARE,
    fig2_models,
    fig5_models,
    fir_mds_with_param,
    reproduce,
)

from helpers import n2_grid_oracle, n3_grid_oracle, run_property_sweep

WORKERS = 2


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def half_width(est) -> float:
    return (est.ci_high - est.ci_low) / 2.0


def test_criterion_1_formula_exactness():
    t0 = time.perf_counter()
    mpmath.mp.dps = 50

    params_a = ProblemParams(p=8, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=0.1)
    got_a = bounds.n1_main(Accuracy(r=0.01, eps=0.5), params_a)
    ref_a = 4 * mpmath.mpf(1) ** 2 * mpmath.mpf("0.1") ** 2 / (
        mpmath.mpf(1) ** 2 * mpmath.mpf("0.01") ** 2
    )
    rel_a = abs(got_a - float(ref_a)) / float(ref_a)

    params_b = ProblemParams(p=4, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
    got_b = bounds.n_rand(0.05, 12.0, params_b)
    ref_b = (
        mpmath.mpf(4) / 3 * (6 + 1) * (4 + 1) / 1 * mpmath.log(mpmath.mpf(12) / mpmath.mpf("0.05"))
    )
    rel_b = abs(got_b - float(ref_b)) / float(ref_b)

    elapsed = time.perf_counter() - t0
    report(
        1,
        rel_a <= 1e-9 and rel_b <= 1e-9 and elapsed < 1.0,
        f"n1 = {got_a} (rel err {rel_a:.2e}), n_rand = {got_b:.6f} "
        f"(rel err {rel_b:.2e}), {elapsed:.2f}s",
    )


def test_criterion_2_optimizer_vs_grid_oracle():
    t0 = time.perf_counter()
    params = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
    acc = Accuracy(r=1.0, eps=0.05)
    v2, _ = bounds.n2_main(acc, params)
    v3, _ = bounds.n3_main(acc, params)
    o2, _ = n2_grid_oracle(1.0, 0.05, 2, 1.0, 1.0, 1.0, points=1_000_000)
    o3, _, _ = n3_grid_oracle(1.0, 0.05, 2, 1.0, 1.0, 1.0, points=1_000_000)
    rel2 = abs(v2 - o2) / o2
    rel3 = abs(v3 - o3) / o3
    elapsed = time.perf_counter() - t0
    report(
        2,
        rel2 <= 1e-4 and rel3 <= 1e-4 and elapsed < 10.0,
        f"n2 = {v2:.4f} vs oracle {o2:.4f} (rel {rel2:.2e}); "
        f"n3 = {v3:.4f} vs oracle {o3:.4f} (rel {rel3:.2e}); {elapsed:.2f}s",
    )


def test_criterion_3_exhaustive_tail_oracle():
    t0 = time.perf_counter()
    exact = sum(
        abs(sum(signs) / 4.0) > 0.4 for signs in itertools.product((-1.0, 1.0), repeat=4)
    ) / 16.0
    assert exact == 0.625
    spec = ExperimentSpec(
        FixedMatrix(np.ones((4, 1))), Rademacher(1.0), N=4, r=0.4, trials=50_000, base_seed=31
    )
    est = run_tail(spec, workers=WORKERS)
    elapsed = time.perf_counter() - t0
    report(
        3,
        est.ci_low <= exact <= est.ci_high and elapsed < 5.0,
        f"p_hat = {est.p_hat:.5f}, CI [{est.ci_low:.5f}, {est.ci_high:.5f}] "
        f"contains exact {exact}; {elapsed:.2f}s",
    )


def test_criterion_4_main_bound_soundness():
    t0 = time.perf_counter()
    design, noise = fig2_models()
    params = implied_problem_params(design, noise)
    eps = 0.01
    details = []
    ok = True
    # One pass for the three rows; each row's counts are run_tail's at its own N.
    base = ExperimentSpec(design, noise, N=design.p + 1, r=1.0, trials=20_000, base_seed=41)
    for row in sweep(base, "r", (0.2, 0.4, 0.8), "main", eps=eps, workers=WORKERS):
        bd = bounds.n_main(Accuracy(r=row.axis_value, eps=eps), params)
        score = row.p_hat + 2.0 * half_width(row)
        ok = ok and row.n_bound_ceil == bd.n_ceil and score <= eps
        details.append(f"r={row.axis_value}: N={row.n_bound_ceil} ({row.binding_term}), p_hat+2hw={score:.5f}")
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 300.0, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_5_other_bounds_soundness():
    t0 = time.perf_counter()
    details = []
    ok = True

    def check(label, est, eps):
        nonlocal ok
        score = est.p_hat + 2.0 * half_width(est)
        ok = ok and score <= eps
        details.append(f"{label}: p_hat+2hw={score:.5f} vs eps={eps}")

    # bounded i.i.d. sign noise
    design = IidBoundedColumns((1.0, 1.0), "scaled-uniform")
    noise = Rademacher(1.0)
    params = implied_problem_params(design, noise)
    acc = Accuracy(r=0.3, eps=0.05)
    bd = bounds.bound_for("bounded", acc, params)
    est = run_tail(
        ExperimentSpec(design, noise, N=bd.n_ceil, r=acc.r, trials=20_000, base_seed=51),
        workers=WORKERS,
    )
    check(f"bounded N={bd.n_ceil}", est, acc.eps)

    # FIR-interference martingale noise on a random design (conditionally
    # sub-Gaussian and bounded variants share R = b here)
    fir = replace(fir_mds_with_param(0.2), receiver=Uniform(FIR_RECEIVER_SHARE * 0.2))
    params_fir = implied_problem_params(design, fir)
    acc_fir = Accuracy(r=0.1, eps=0.05)
    for label in ("mds_subgaussian", "mds_bounded"):
        bd = bounds.bound_for(label, acc_fir, params_fir)
        est = run_tail(
            ExperimentSpec(design, fir, N=bd.n_ceil, r=acc_fir.r, trials=20_000, base_seed=52),
            workers=WORKERS,
        )
        check(f"{label} N={bd.n_ceil}", est, acc_fir.eps)

    # measured pilot matrix with FIR-interference noise
    pilot_design, pilot_noise = fig5_models()
    acc5 = Accuracy(r=0.1, eps=0.01)
    n5, _, bd5 = fixed_design_bound(acc5, pilot_design, pilot_noise)
    est = run_tail(
        ExperimentSpec(pilot_design, pilot_noise, N=n5, r=acc5.r, trials=20_000, base_seed=53),
        workers=WORKERS,
    )
    check(f"fixed_mds N={n5}", est, acc5.eps)

    elapsed = time.perf_counter() - t0
    report(5, ok and elapsed < 600.0, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_6_gram_event_frequency():
    t0 = time.perf_counter()
    design, noise = fig2_models()
    params = implied_problem_params(design, noise)
    eps_prime = 0.05
    n = math.floor(bounds.n_rand(eps_prime, float(params.p), params)) + 1
    spec = ExperimentSpec(
        design, noise, N=n, r=0.5, trials=20_000, base_seed=61, diagnostics=True
    )
    diag = run_event_diagnostics(spec, workers=WORKERS)
    lo, hi = wilson_interval(round(diag.freq_e_rand * spec.trials), spec.trials)
    limit = eps_prime + 3.0 * (hi - lo) / 2.0
    elapsed = time.perf_counter() - t0
    report(
        6,
        diag.freq_e_rand <= limit and elapsed < 120.0,
        f"N={n}, freq_e_rand={diag.freq_e_rand:.5f} <= {limit:.5f}; {elapsed:.1f}s",
    )


def test_criterion_7_per_trial_identities():
    t0 = time.perf_counter()
    design, noise = fig2_models()
    spec = ExperimentSpec(
        design, noise, N=400, r=0.5, trials=10_000, base_seed=71, diagnostics=True
    )
    diag = run_event_diagnostics(spec, workers=WORKERS)
    elapsed = time.perf_counter() - t0
    report(
        7,
        diag.lemma1_violations == 0 and diag.identity_violations == 0 and elapsed < 120.0,
        f"lemma1_violations={diag.lemma1_violations}, "
        f"identity_violations={diag.identity_violations} over {diag.trials} trials; "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_property_suites(tmp_path):
    t0 = time.perf_counter()
    violations = run_property_sweep(total_sets=1000, main_sets=1000, tau_sets=60)

    params = ProblemParams(p=2, alpha=1.0, sigma_min=1.0, sigma_max=1.0, R=1.0)
    shape_ok = True
    s_probe = np.linspace(1e-6, 0.4999, 64)
    beta_vals = [bounds.beta(float(s), params) for s in s_probe]
    shape_ok &= beta_vals[0] < 1e-5 and all(b > a for a, b in zip(beta_vals, beta_vals[1:]))
    shape_ok &= bounds.beta((1 - 1e-9) / 2.0, params) > 1e6
    gamma_vals = [bounds.gamma(float(s), params) for s in np.linspace(1e-6, 1 - 1e-9, 64)]
    shape_ok &= gamma_vals[0] < 1e-5 and all(b > a for a, b in zip(gamma_vals, gamma_vals[1:]))
    shape_ok &= bounds.gamma(1 - 1e-9, params) > 1e6

    acc = Accuracy(r=1.0, eps=0.05)
    determinism_ok = bounds.n_main(acc, params) == bounds.n_main(acc, params)
    design, noise = fig2_models()
    spec = ExperimentSpec(design, noise, N=64, r=0.3, trials=500, base_seed=81)
    determinism_ok = determinism_ok and run_tail(spec) == run_tail(spec)

    rows = [
        ResultRow("r", 0.1, 1.0 / 3.0, 14, "n2", 0.25, None, None, 0.01, 0.0, 0.02, 100, 9)
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_result_csv(a, rows)
    write_result_csv(b, rows)
    csv_ok = read_result_csv(a) == rows and a.read_bytes() == b.read_bytes()

    elapsed = time.perf_counter() - t0
    report(
        8,
        not violations and shape_ok and determinism_ok and csv_ok and elapsed < 60.0,
        f"monotonicity/scaling violations: {len(violations)}; shape checks "
        f"{'ok' if shape_ok else 'failed'}; determinism "
        f"{'ok' if determinism_ok else 'failed'}; CSV round-trip "
        f"{'ok' if csv_ok else 'failed'}; {elapsed:.1f}s",
    )


def test_criterion_9_figure_reproduction(tmp_path):
    t0 = time.perf_counter()
    out2 = reproduce("fig2", tmp_path, trials=2000, base_seed=91, workers=WORKERS)
    rows2 = read_result_csv(out2.csv_paths[0])
    sound2 = all(row.p_hat <= 0.01 for row in rows2)

    out3 = reproduce("fig3", tmp_path, trials=2000, base_seed=92, workers=WORKERS)
    rows3_main = read_result_csv(out3.csv_paths[0])
    rows3_mds = read_result_csv(out3.csv_paths[1])
    sound3 = all(row.p_hat <= 0.05 for row in rows3_main + rows3_mds)
    ordering = all(
        m.n_bound_real <= s.n_bound_real * (1 + 1e-12)
        for m, s in zip(rows3_main, rows3_mds)
    )
    svg_ok = out2.svg_path.exists() and out3.svg_path.exists()
    elapsed = time.perf_counter() - t0
    report(
        9,
        sound2 and sound3 and ordering and svg_ok,
        f"fig2 bound>=empirical on {len(rows2)} radii: {sound2}; fig3 soundness: {sound3}; "
        f"main bound <= mds bound at every radius: {ordering}; {elapsed:.1f}s",
    )
