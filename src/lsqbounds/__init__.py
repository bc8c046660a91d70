"""Finite-sample guarantees for linear least squares.

Computes required sample counts N(r, eps) and outage bounds eps(r, N) for
the least-squares estimator under sub-Gaussian, bounded, and
martingale-difference noise, and verifies them with a seeded Monte-Carlo
harness.
"""

from .bounds import (
    beta,
    bound_for,
    eps_for,
    eps_of_n,
    gamma,
    l2_radius,
    n1_main,
    n2_main,
    n3_main,
    n_main,
    n_main_tau,
    n_rand,
)
from .models import (
    FirMds,
    FixedMatrix,
    Gaussian,
    GaussianMixture,
    IidBoundedColumns,
    Rademacher,
    SeedSpec,
    ToeplitzPilot,
    Uniform,
    UniformPlusGaussian,
    implied_problem_params,
    random_pilots,
)
from .montecarlo import (
    EventDiagnostics,
    ExperimentSpec,
    TailEstimate,
    find_empirical_n,
    run_event_diagnostics,
    run_tail,
    sweep,
    wilson_interval,
)
from .params import (
    Accuracy,
    BoundBreakdown,
    OutageBreakdown,
    ParameterError,
    ProblemParams,
    SimulationQualityError,
)

__version__ = "0.1.0"
