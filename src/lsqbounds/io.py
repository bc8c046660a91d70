"""Result rows, bit-stable CSV/JSON serialization, and run configs.

Numeric cells are written with 17 significant digits so that parsing a file
written by this module reproduces the original doubles exactly.  Each record
is one dataclass: CSV columns, cell types, JSON envelopes and run-config keys
are read from its fields.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from .bounds import check_tag
from .models import DesignModel, NoiseModel, check_keys, json_value
from .params import (DEFAULT_TRIALS, BoundBreakdown, OutageBreakdown, ParameterError, as_axis_values, as_count,
                     as_fraction, as_positive, as_seed)

SCHEMA_VERSION = "1"
SEED_ENV_VAR = "LSQBOUNDS_SEED"


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


def _strip_none(hint):
    """(T, True) for an annotation T | None, else (hint, False)."""
    args = get_args(hint)
    if type(None) not in args:
        return hint, False
    (base,) = (a for a in args if a is not type(None))
    return base, True


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
# Column -> (type of a nonempty cell, whether the cell may be empty).
_CELL_TYPES = {name: _strip_none(hint) for name, hint in get_type_hints(ResultRow).items()}


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return f"{x:.17g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _parse_cell(name: str, text: str):
    kind, optional = _CELL_TYPES[name]
    if text == "":
        if optional:
            return None
        raise ParameterError(f"column {name} must not be empty")
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"column {name} must be of type {kind.__name__}, got {text!r}") from None


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
    return {**asdict(bd), "meta": meta or {}}


def outage_to_json(ob: OutageBreakdown) -> dict:
    return {**asdict(ob), "meta": {}}


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Declarative run config


@dataclass(frozen=True)
class RunConfig:
    """Parsed experiment description for the simulate command.

    A run config's keys are these fields, except that the axis and output
    fields sit in the nested objects of _NESTED.  Each value is read by its
    field's annotation; an absent key takes the field's default, and the
    base seed's default is LSQBOUNDS_SEED when it is set.
    """

    design: DesignModel
    noise: NoiseModel
    theorem: str
    axis_name: str
    axis_values: tuple[float, ...]
    csv_path: str
    svg_path: str | None = None
    r: float | None = None
    eps: float | None = None
    trials: int = DEFAULT_TRIALS
    base_seed: int = 0
    diagnostics: bool = False


_TYPES = {name: _strip_none(hint)[0] for name, hint in get_type_hints(RunConfig).items()}
_REQUIRED = {f.name for f in fields(RunConfig) if f.default is MISSING}
_NESTED = {
    "axis": {"name": "axis_name", "values": "axis_values"},
    "output": {"csv": "csv_path", "svg": "svg_path"},
}
# Config key -> RunConfig field, or -> the key map of a nested object.
_LAYOUT = {
    **{name: name for name in _TYPES if all(name not in o.values() for o in _NESTED.values())},
    **_NESTED,
}
# Field -> the reader of the range run_config.schema.json gives it; the axis is read by as_axis_values.
_RANGES = {
    "theorem": lambda name, tag: check_tag(tag),
    "r": as_positive,
    "eps": as_fraction,
    "trials": as_count,
    "base_seed": as_seed,
}


def default_seed() -> int | None:
    """Base seed from the LSQBOUNDS_SEED env variable; None when it is unset."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    with contextlib.suppress(ValueError):  # as_seed rejects what is left a string
        raw = int(raw)
    return as_seed(SEED_ENV_VAR, raw)


def _read(doc, layout: dict, prefix: str = "") -> dict:
    """RunConfig field values from a config object laid out as layout, each
    of its field's JSON type and in the schema's range."""
    required = [k for k, name in layout.items() if isinstance(name, dict) or name in _REQUIRED]
    check_keys(doc, layout, required, prefix.rstrip(".") or "run config")
    out = {}
    for key, name in layout.items():
        if isinstance(name, dict):
            out.update(_read(doc[key], name, f"{prefix}{key}."))
        elif key in doc:
            value = json_value(doc[key], _TYPES[name], prefix + key)
            out[name] = _RANGES[name](prefix + key, value) if name in _RANGES else value
    return out


def parse_run_config(doc: dict) -> RunConfig:
    """Strict parse: a document that run_config.schema.json rejects raises
    ParameterError."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise ParameterError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION!r}"
        )
    got = _read({k: v for k, v in doc.items() if k != "schema_version"}, _LAYOUT)
    as_axis_values(got["axis_name"], got["axis_values"], got.get("eps"))
    if got["axis_name"] != "r" and "r" not in got:
        raise ParameterError(f"{got['axis_name']}-axis runs need a base r")
    if "base_seed" not in got:  # read the variable only when the config has no seed
        got["base_seed"] = default_seed() or 0
    return RunConfig(**got)


def load_run_config(path: str | Path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParameterError(f"{path}: not a JSON run config: {exc}") from exc
    return parse_run_config(doc)
