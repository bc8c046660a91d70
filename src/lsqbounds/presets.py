"""One-command simulation presets (fig1..fig6).

Each preset is one entry of the FIGURES table: a list of panels, each
pinning a design model, a noise model, an accuracy target and an axis grid.
run_figure sweeps every panel, so its rows pair the computed bound with a
seeded tail estimate at the N that the sweep chooses, and writes one CSV per
panel plus one diagnostic SVG per figure; a simulate run is a one-panel figure.

The mixture component variances and the FIR tap profile are preset choices;
they are tuned so the declared noise parameters (R, b) hit their targets
exactly, which is all the bounds consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .io import write_result_csv
from .models import (
    DesignModel,
    FirMds,
    Gaussian,
    GaussianMixture,
    IidBoundedColumns,
    NoiseModel,
    SeedSpec,
    ToeplitzPilot,
    Uniform,
    random_pilots,
)
from .montecarlo import ExperimentSpec, _result_rows, _sweep_rows
from .params import ParameterError
from .svg import write_line_plot

DEFAULT_TRIALS = 50_000
DEFAULT_SEED = 20_240_601

DEFAULT_FIR_TAPS = (1.0, 0.8, 0.64, 0.512)
FIR_RECEIVER_SHARE = 0.2
PILOT_BUDGET = 8192


def fir_mds_with_param(target_R: float) -> FirMds:
    """FIR-interference noise on DEFAULT_FIR_TAPS whose declared sub-Gaussian
    parameter equals target_R; FIR_RECEIVER_SHARE of it goes to Gaussian
    receiver noise."""
    jammer_scale = (1.0 - FIR_RECEIVER_SHARE) * target_R / sum(abs(t) for t in DEFAULT_FIR_TAPS)
    receiver = Gaussian(FIR_RECEIVER_SHARE * target_R)
    return FirMds(taps=DEFAULT_FIR_TAPS, jammer_scale=jammer_scale, receiver=receiver)


def channel_pilot_design(p: int = 8, length: int = PILOT_BUDGET, seed: int = DEFAULT_SEED) -> ToeplitzPilot:
    """Training-sequence design with seeded +-1 pilots."""
    return ToeplitzPilot(random_pilots(length, SeedSpec(seed, 0, "design")), p)


# ---------------------------------------------------------------------------
# Figure presets


def _fig1_models(seed: int):
    return IidBoundedColumns((1.0,) * 8, "scaled-uniform"), GaussianMixture(0.05, 0.1, 0.1)


def fig2_models() -> tuple[IidBoundedColumns, Uniform]:
    return IidBoundedColumns((math.sqrt(0.2), 1.0), "scaled-uniform"), Uniform(1.0)


def _fig3_models(seed: int):
    return IidBoundedColumns((1.0,) * 4, "scaled-uniform"), Gaussian(10.0)


def _fig4_models(cond: float):
    """The fig3 setting with one column's variance cut to 1/cond."""
    stddevs = (math.sqrt(1.0 / cond), 1.0, 1.0, 1.0)
    return lambda seed: (IidBoundedColumns(stddevs, "scaled-uniform"), Gaussian(10.0))


def fig5_models(seed: int = DEFAULT_SEED) -> tuple[ToeplitzPilot, FirMds]:
    return channel_pilot_design(p=8, seed=seed), fir_mds_with_param(0.1)


@dataclass(frozen=True)
class Panel:
    """One sweep of a figure, written to <csv>.csv.  models maps the base seed
    to (design, noise); r is the radius of eps- and N-axis rows."""

    csv: str
    models: Callable[[int], tuple[DesignModel, NoiseModel]]
    r: float
    axis: str
    values: tuple[float, ...]
    theorem: str
    eps: float | None = None


@dataclass(frozen=True)
class Figure:
    title: str
    panels: tuple[Panel, ...]


FIGURES = {
    "fig1": Figure(
        "required N vs outage target",
        (Panel("fig1", _fig1_models, r=0.01, axis="eps", values=(0.1, 0.05, 0.02, 0.01), theorem="main"),),
    ),
    "fig2": Figure(
        "required N vs radius (uniform noise)",
        (Panel("fig2", lambda seed: fig2_models(), r=1.0, axis="r", values=(0.2, 0.4, 0.8, 1.6),
               theorem="main", eps=0.01),),
    ),
    "fig3": Figure(
        "joint vs martingale bound (Gaussian noise, R=10)",
        (
            Panel("fig3_main", _fig3_models, r=1.0, axis="r", values=(1.0, 2.0, 4.0),
                  theorem="main", eps=0.05),
            Panel("fig3_mds", _fig3_models, r=1.0, axis="r", values=(1.0, 2.0, 4.0),
                  theorem="mds_subgaussian", eps=0.05),
        ),
    ),
    "fig4": Figure(
        "required N vs radius for several condition numbers",
        tuple(
            Panel(f"fig4_cond{cond}", _fig4_models(cond), r=1.0, axis="r", values=r_grid,
                  theorem="main", eps=0.05)
            for cond, r_grid in ((1, (1.0, 2.0, 4.0)), (5, (2.0, 4.0, 8.0)), (25, (8.0, 16.0, 32.0)))
        ),
    ),
    "fig5": Figure(
        "channel estimation: required N vs radius",
        (Panel("fig5", fig5_models, r=0.05, axis="r", values=(0.05, 0.1, 0.2),
               theorem="fixed_mds", eps=0.01),),
    ),
    "fig6": Figure(
        "channel estimation: outage vs sample count",
        (Panel("fig6", fig5_models, r=0.01, axis="N", values=(3000, 4500, 6000, 7500), theorem="fixed_mds"),),
    ),
}
FIGURE_IDS = tuple(FIGURES)


@dataclass(frozen=True)
class PresetOutput:
    csv_paths: tuple[Path, ...]
    svg_path: Path


def run_figure(
    fig: Figure,
    csv_paths: tuple[str | Path, ...],
    svg_path: str | Path | None,
    trials: int,
    base_seed: int,
    workers: int,
    diagnostics: bool = False,
) -> list[list]:
    """Run every panel of fig, write panel i's rows to csv_paths[i] and, when
    svg_path is set, plot each panel's "<csv> bound" series to svg_path, and
    on the N axis, where the bound is an outage probability, its "<csv> p_hat"
    too.  Returns each panel's ResultRows, each paired with its
    EventDiagnostics if diagnostics is set (else None).

    Every panel and the count of csv_paths are checked before any trial
    runs, and nothing is written until every panel has run, so a run that is
    rejected or fails in its trials leaves nothing behind.
    """
    (axis,) = {panel.axis for panel in fig.panels}  # one shared axis labels the plot
    if len(csv_paths) != len(fig.panels):
        raise ParameterError(f"{len(fig.panels)} panels need as many CSV paths, got {len(csv_paths)}")
    planned = []
    for panel in fig.panels:
        design, noise = panel.models(base_seed)
        # Every row sets its own N; the base only needs a valid one.
        base = ExperimentSpec(
            design, noise, N=design.p + 1, r=panel.r, trials=trials, base_seed=base_seed
        )
        planned.append((base, list(_sweep_rows(base, axis, panel.values, panel.theorem, panel.eps))))
    results = [_result_rows(base, axis, sweep_rows, workers, diagnostics) for base, sweep_rows in planned]
    for path in (*csv_paths, svg_path):
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    bound_series, p_hat_series = [], []
    for panel, panel_rows, csv_path in zip(fig.panels, results, csv_paths, strict=True):
        rows = [row for row, _ in panel_rows]
        write_result_csv(csv_path, rows)
        xs = [row.axis_value for row in rows]
        bound_series.append((f"{panel.csv} bound", xs, [row.n_bound_real for row in rows]))
        if axis == "N":
            p_hat_series.append((f"{panel.csv} p_hat", xs, [row.p_hat for row in rows]))
    if svg_path is not None:
        write_line_plot(
            svg_path,
            bound_series + p_hat_series,
            title=fig.title,
            x_label=axis,
            y_label="eps / p_hat" if axis == "N" else "N",
        )
    return results


def reproduce(
    figure: str,
    outdir: str | Path,
    trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> PresetOutput:
    """Run one figure preset through run_figure: one <panel>.csv per panel
    and one <figure>.svg, in outdir."""
    if figure not in FIGURES:
        raise ParameterError(f"unknown figure {figure!r}; expected one of {FIGURE_IDS}")
    fig = FIGURES[figure]
    out = Path(outdir)
    csv_paths = tuple(out / f"{panel.csv}.csv" for panel in fig.panels)
    svg_path = out / f"{figure}.svg"
    run_figure(fig, csv_paths, svg_path, trials, base_seed, workers)
    return PresetOutput(csv_paths, svg_path)
