"""Result rows, bit-stable CSV/JSON serialization, and run configs.

Numeric cells are written with 17 significant digits so that parsing a file
written by this module reproduces the original doubles exactly.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .models import (
    DesignModel,
    NoiseModel,
    design_from_config,
    design_to_config,
    noise_from_config,
    noise_to_config,
)
from .params import BoundBreakdown, OutageBreakdown, ParameterError

SCHEMA_VERSION = "1"
SEED_ENV_VAR = "LSQBOUNDS_SEED"

RESULT_COLUMNS = (
    "axis_name",
    "axis_value",
    "n_bound_real",
    "n_bound_ceil",
    "binding_term",
    "s_opt_n2",
    "s_opt_n3",
    "tau_opt",
    "p_hat",
    "ci_low",
    "ci_high",
    "trials",
    "seed",
)


@dataclass(frozen=True)
class ResultRow:
    """One sweep row; None fields serialize as empty cells."""

    axis_name: str
    axis_value: float
    n_bound_real: float
    n_bound_ceil: int | None
    binding_term: str | None
    s_opt_n2: float | None
    s_opt_n3: float | None
    tau_opt: float | None
    p_hat: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return f"{x:.17g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


_FLOAT_FIELDS = {
    "axis_value",
    "n_bound_real",
    "s_opt_n2",
    "s_opt_n3",
    "tau_opt",
    "p_hat",
    "ci_low",
    "ci_high",
}
_INT_FIELDS = {"n_bound_ceil", "trials", "seed"}
_OPTIONAL_FIELDS = {"n_bound_ceil", "binding_term", "s_opt_n2", "s_opt_n3", "tau_opt"}


def _parse_cell(name: str, text: str):
    if text == "":
        if name in _OPTIONAL_FIELDS:
            return None
        raise ParameterError(f"column {name} must not be empty")
    if name in _FLOAT_FIELDS:
        return float(text)
    if name in _INT_FIELDS:
        return int(text)
    return text


def write_result_csv(path: str | Path, rows: list[ResultRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_cell(getattr(row, c)) for c in RESULT_COLUMNS])


def read_result_csv(path: str | Path) -> list[ResultRow]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RESULT_COLUMNS:
            raise ParameterError(f"unexpected CSV header {header}")
        rows = []
        for record in reader:
            if len(record) != len(RESULT_COLUMNS):
                raise ParameterError(f"row has {len(record)} cells, expected {len(RESULT_COLUMNS)}")
            rows.append(
                ResultRow(**{c: _parse_cell(c, v) for c, v in zip(RESULT_COLUMNS, record)})
            )
    return rows


# ---------------------------------------------------------------------------
# JSON envelopes for the CLI


def breakdown_to_json(bd: BoundBreakdown, meta: dict | None = None) -> dict:
    doc = {
        "theorem": bd.theorem,
        "n1": bd.n1,
        "n2": bd.n2,
        "n3": bd.n3,
        "n_rand": bd.n_rand,
        "n_final": bd.n_final,
        "n_ceil": bd.n_ceil,
        "binding": bd.binding,
        "s_opt_n2": bd.s_opt_n2,
        "s_opt_n3": bd.s_opt_n3,
        "tau_opt": bd.tau_opt,
        "meta": meta or {},
    }
    return doc


def outage_to_json(ob: OutageBreakdown, meta: dict | None = None) -> dict:
    return {
        "eps2": ob.eps2,
        "eps3": ob.eps3,
        "eps_rand": ob.eps_rand,
        "eps_final": ob.eps_final,
        "eps2_feasible": ob.eps2_feasible,
        "eps3_feasible": ob.eps3_feasible,
        "eps_rand_feasible": ob.eps_rand_feasible,
        "s_opt_eps2": ob.s_opt_eps2,
        "s_opt_eps3": ob.s_opt_eps3,
        "meta": meta or {},
    }


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Declarative run config


@dataclass(frozen=True)
class RunConfig:
    """Parsed experiment description for the simulate command."""

    design: DesignModel
    noise: NoiseModel
    theorem: str
    axis_name: str
    axis_values: tuple[float, ...]
    r: float | None
    eps: float | None
    trials: int
    base_seed: int
    diagnostics: bool
    beta_as_printed: bool
    n_hint: int | None
    theta0: tuple[float, ...] | None
    csv_path: str
    svg_path: str | None


_TOP_KEYS = {
    "schema_version",
    "theorem",
    "beta_as_printed",
    "design",
    "noise",
    "theta0",
    "r",
    "eps",
    "axis",
    "n_hint",
    "trials",
    "base_seed",
    "diagnostics",
    "output",
}


def default_seed() -> int | None:
    """Base seed from the LSQBOUNDS_SEED env variable; None when it is unset."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if not (0 <= seed < 2**64):
        raise ParameterError(f"{SEED_ENV_VAR} must be a 64-bit unsigned int")
    return seed


def parse_run_config(doc: dict) -> RunConfig:
    """Strict parse; unknown keys anywhere are rejected."""
    if not isinstance(doc, dict):
        raise ParameterError("run config must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise ParameterError(f"unknown config keys {sorted(extra)}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParameterError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION!r}"
        )
    for key in ("design", "noise", "axis", "output", "theorem"):
        if key not in doc:
            raise ParameterError(f"missing config key {key!r}")

    axis = doc["axis"]
    if not isinstance(axis, dict) or set(axis) != {"name", "values"}:
        raise ParameterError('axis must be {"name": ..., "values": [...]}')
    axis_name = axis["name"]
    if axis_name not in ("r", "eps", "N"):
        raise ParameterError(f"axis name must be r, eps, or N, got {axis_name!r}")
    values = tuple(float(v) for v in axis["values"])
    if not values:
        raise ParameterError("axis values must be nonempty")

    output = doc["output"]
    if not isinstance(output, dict) or not set(output) <= {"csv", "svg"}:
        raise ParameterError('output must be {"csv": path, "svg": optional path}')
    if "csv" not in output:
        raise ParameterError("output.csv path is required")

    r = doc.get("r")
    eps = doc.get("eps")
    if axis_name in ("eps", "N") and r is None:
        raise ParameterError(f"{axis_name}-axis runs need a base r")
    if axis_name == "r" and eps is None:
        raise ParameterError("r-axis runs need a target eps")

    theta0 = doc.get("theta0")
    return RunConfig(
        design=design_from_config(doc["design"]),
        noise=noise_from_config(doc["noise"]),
        theorem=doc["theorem"],
        axis_name=axis_name,
        axis_values=values,
        r=float(r) if r is not None else None,
        eps=float(eps) if eps is not None else None,
        trials=int(doc.get("trials", 50_000)),
        base_seed=int(doc.get("base_seed", default_seed() or 0)),
        diagnostics=bool(doc.get("diagnostics", False)),
        beta_as_printed=bool(doc.get("beta_as_printed", False)),
        n_hint=int(doc["n_hint"]) if "n_hint" in doc else None,
        theta0=tuple(float(x) for x in theta0) if theta0 is not None else None,
        csv_path=str(output["csv"]),
        svg_path=str(output["svg"]) if "svg" in output else None,
    )


def load_run_config(path: str | Path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(json.load(fh))


def run_config_to_dict(cfg: RunConfig) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "theorem": cfg.theorem,
        "design": design_to_config(cfg.design),
        "noise": noise_to_config(cfg.noise),
        "axis": {"name": cfg.axis_name, "values": list(cfg.axis_values)},
        "trials": cfg.trials,
        "base_seed": cfg.base_seed,
        "diagnostics": cfg.diagnostics,
        "beta_as_printed": cfg.beta_as_printed,
        "output": {"csv": cfg.csv_path},
    }
    if cfg.r is not None:
        doc["r"] = cfg.r
    if cfg.eps is not None:
        doc["eps"] = cfg.eps
    if cfg.n_hint is not None:
        doc["n_hint"] = cfg.n_hint
    if cfg.theta0 is not None:
        doc["theta0"] = list(cfg.theta0)
    if cfg.svg_path is not None:
        doc["output"]["svg"] = cfg.svg_path
    return doc
