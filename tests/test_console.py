"""The console script end to end: each row of ROWS is one command and what it must do.

A row with worker counts runs its argv once per count, each in its own
`python -m lsqbounds.cli` process, all started together, so each process
has its own cache of seed-word blocks; the files the row names ("-" is
stdout) must hold the same bytes in every run.  A row without worker counts
runs once in-process through cli.main.  Every run must exit with the row's
code and print a stderr that the row's pattern matches whole, and a run
that fails must leave no output directory.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import lsqbounds
from lsqbounds import cli
from lsqbounds.presets import channel_pilot_design

SRC = str(Path(lsqbounds.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
PARAMS = "--p 2 --alpha 1 --R 1 --sigma-min 1 --sigma-max 1"
ERROR = "error: .+\n"


@dataclass(frozen=True)
class Row:
    id: str
    argv: str  # split on spaces; {d} is the run's output directory, {w} its worker count, {cfg} its config
    workers: tuple[int, ...] = ()  # one process per count; () runs once in-process
    code: int = 0
    stderr: str = ""  # a pattern that stderr matches whole
    same: tuple[str, ...] = ()  # files in {d}, or "-" for stdout, byte-equal in every run
    grep: tuple[tuple[str, str, bool], ...] = ()  # (file or "-", text, whether every run's holds it)
    config: dict | None = None  # written to {cfg}, with {d} formatted in its output paths


def _reproduce(figure: str, trials: int, *files: str, workers=(1, 2), grep=()) -> Row:
    """Worker-count invariance of a preset: its CSVs and SVG, byte for byte."""
    argv = f"reproduce {figure} --trials {trials} --workers {{w}} --outdir {{d}}"
    return Row(f"{figure}-{trials}", argv, workers, same=(*files, f"{figure}.svg"), grep=grep)


def _simulate(name: str, config: dict, workers=(1, 2)) -> Row:
    """A run config through simulate, its stdout, CSV and SVG the same in every run."""
    config = {**config, "output": {"csv": f"{{d}}/{name}.csv", "svg": f"{{d}}/{name}.svg"}}
    same = ("-", f"{name}.csv", f"{name}.svg")
    return Row(name, "simulate --config {cfg} --workers {w}", workers, same=same, config=config)


def _rank_deficient(seed: int) -> dict:
    """A fixed design with columns [a, b, a + b]; the rounded sign of its
    smallest Gram eigenvalue differs between seeds 0 and 5."""
    ab = np.random.default_rng(seed).standard_normal((40, 2))
    return {"schema_version": "1", "theorem": "fixed_mds",
            "design": {"kind": "fixed-matrix", "entries": np.column_stack([ab, ab.sum(axis=1)]).tolist()},
            "noise": {"kind": "gaussian", "sigma": 1.0}, "r": 0.5, "axis": {"name": "N", "values": [40]},
            "trials": 100, "base_seed": 1, "output": {"csv": "{d}/rank.csv", "svg": "{d}/rank.svg"}}


PILOTS = channel_pilot_design(p=4, length=2048, seed=5)
ROWS = [
    # Bound commands exit 0, and r-axis figures plot only their bounds: p_hat
    # is a probability and has no place on an axis of sample counts.
    Row("bound-n-main", f"bound-n --model main --r 1 --eps 0.05 {PARAMS}"),
    Row("bound-n-main-tau", f"bound-n --model main-tau --r 1 --eps 0.05 {PARAMS}"),
    *(Row(f"bound-n-{model}", f"bound-n --model {model} --r 1 --eps 0.05 {PARAMS} --b 1")
      for model in ("bounded", "mds-subgaussian", "mds-bounded", "fixed-mds")),
    Row("bound-eps", "bound-eps --r 0.5 --n 256 --p 4 --alpha 1 --R 0.1 --sigma-min 1 --sigma-max 1"),
    Row("fig2-smoke", "reproduce fig2 --trials 20 --outdir {d}", grep=(("fig2.svg", "p_hat", False),)),
    Row("fig5-smoke", "reproduce fig5 --trials 20 --outdir {d}", grep=(("fig5.svg", "p_hat", False),)),
    # Rejected inputs exit 2: an N below the variance floor, a radius of 0 or
    # below, an eps of 1, inputs at the edge of the float range that leave the
    # cross term no positive slack.  tests/test_io_cli.py holds the rest: a
    # removed flag, a malformed seed variable, a worker count below 1, a seed
    # outside 64 bits and a run config that is not UTF-8.
    Row("n-below-floor", "bound-eps --r 1 --n 1 --p 2 --alpha 1 --R 1 --sigma-min 1 --sigma-max 1",
        code=2, stderr=ERROR),
    Row("r-zero", f"bound-n --model main --r 0 --eps 0.05 {PARAMS}", code=2, stderr=ERROR),
    Row("eps-one", f"bound-n --model main --r 1 --eps 1 {PARAMS}", code=2, stderr=ERROR),
    Row("r-negative", "bound-eps --r -1 --n 256 --p 4 --alpha 1 --R 0.1 --sigma-min 1 --sigma-max 1",
        code=2, stderr=ERROR),
    Row("float-edge", "bound-n --model main --r 1e-5 --eps 0.05 --p 2 --alpha 1e-50 --R 1e-20 --sigma-min 1e-150 "
        "--sigma-max 1e-150", code=2, stderr=ERROR),
    # The pooled path: one fig6 sweep starts its pool once for all of its
    # rows; fig6 is on the N axis, where the bound is an outage probability,
    # so p_hat is plotted.  --workers 3 runs a pool of two beside the caller.
    _reproduce("fig6", 300, "fig6.csv", workers=(2, 1, 3), grep=(("fig6.svg", "fig6 p_hat", True),)),
    # A random design that every trial redraws: segment sums and stacked solves.
    _reproduce("fig3", 300, "fig3_main.csv", "fig3_mds.csv"),
    # fig1's rows at p = 8 (8192-row segments) run at N = 7946..9470, so
    # three add a whole segment's sum before the rows past it.
    _reproduce("fig1", 300, "fig1.csv"),
    # fig4's cond25 panel runs at p = 4 and N = 358617: ten whole 32768-row
    # segments; 256 trials are the fewest that start a pool.
    _reproduce("fig4", 256, "fig4_cond1.csv", "fig4_cond5.csv", "fig4_cond25.csv"),
    # fig2's top row runs at N = 53653 in blocks of one trial, its two columns
    # scaled one by one; at 4,000 trials one process runs 2 chunks of at most
    # 3640 trials (144 bytes of statistics each within BLOCK_BYTES), a pool 8.
    _reproduce("fig2", 300, "fig2.csv"),
    _reproduce("fig2", 4000, "fig2.csv"),
    # A fixed design off the N axis, each row at its pilot matrix's smallest
    # self-consistent N, found before any pool.
    _reproduce("fig5", 300, "fig5.csv"),
    # Run configs with event diagnostics on stdout, counted in the sweep's own
    # pass, in a directory that simulate creates: a nested fir-mds receiver;
    # a fixed design, solved and counted as the random designs' trials are;
    # fig3's setting, every column of one scale; and a two-component noise
    # on a sign design, drawn from child streams, no preset's laws.
    _simulate("simulate", {
        "schema_version": "1", "theorem": "mds_subgaussian",
        "design": {"kind": "iid-bounded-columns", "column_stddevs": [0.5, 1.0], "entry_law": "scaled-uniform"},
        "noise": {"kind": "fir-mds", "taps": [1.0, 0.5], "jammer_scale": 0.2,
                  "receiver": {"kind": "gaussian", "sigma": 0.1}},
        "r": 0.2, "axis": {"name": "N", "values": [64, 128, 256]}, "trials": 300, "base_seed": 7,
        "diagnostics": True}, workers=(2, 1)),
    _simulate("fixed", {
        "schema_version": "1", "theorem": "fixed_mds",
        "design": {"kind": "toeplitz-pilot", "pilots": list(PILOTS.pilots), "p": PILOTS.p},
        "noise": {"kind": "fir-mds", "taps": [1, 0.8, 0.64, 0.512], "jammer_scale": 0.02,
                  "receiver": {"kind": "gaussian", "sigma": 0.02}},
        "eps": 0.01, "axis": {"name": "r", "values": [0.05, 0.1, 0.2]}, "trials": 300, "diagnostics": True}),
    _simulate("equal", {
        "schema_version": "1", "theorem": "main",
        "design": {"kind": "iid-bounded-columns", "column_stddevs": [1, 1, 1, 1], "entry_law": "scaled-uniform"},
        "noise": {"kind": "gaussian", "sigma": 10}, "eps": 0.05, "axis": {"name": "r", "values": [2, 4]},
        "trials": 300, "diagnostics": True}),
    _simulate("two-component", {
        "schema_version": "1", "theorem": "mds_subgaussian",
        "design": {"kind": "iid-bounded-columns", "column_stddevs": [0.5, 1.0, 2.0],
                   "entry_law": "scaled-rademacher"},
        "noise": {"kind": "uniform-plus-gaussian", "half_width": 0.3, "sigma": 0.2},
        "r": 0.1, "axis": {"name": "N", "values": [64, 128, 256]}, "trials": 300, "base_seed": 11,
        "diagnostics": True}),
    # An exceedance of r with no event of the main bound firing would be a
    # trial its chain leaves uncovered: at fig3's setting, N = 100 and r = 2,
    # 378 of 2,000 trials exceed r and none is uncovered.
    Row("uncovered", "simulate --config {cfg} --workers {w}", (2,),
        grep=(("-", '"uncovered": 0', True), ("uncovered.csv", ",0.189,", True)), config={
            "schema_version": "1", "theorem": "main",
            "design": {"kind": "iid-bounded-columns", "column_stddevs": [1, 1, 1, 1], "entry_law": "scaled-uniform"},
            "noise": {"kind": "gaussian", "sigma": 10}, "r": 2, "axis": {"name": "N", "values": [100]},
            "trials": 2000, "base_seed": 71, "diagnostics": True, "output": {"csv": "{d}/uncovered.csv"}}),
    # A fixed design that is rank deficient, or whose Gram sums overflow,
    # exits 4 when the run is planned, before any output directory is made;
    # the overflow with its own one-line error, in a process of its own so
    # that nothing else on its stderr goes unseen.
    *(Row(f"rank-deficient-{seed}", "simulate --config {cfg}", code=4, config=_rank_deficient(seed),
          stderr="simulation-quality error: design Gram matrix is rank deficient at N = 40\n") for seed in (0, 5)),
    Row("overflow", "simulate --config {cfg}", (1,), code=4, config={
        "schema_version": "1", "theorem": "fixed_mds",
        "design": {"kind": "fixed-matrix", "entries": [[1, 0], [0, 1], [1, 1], [1e200, 1], [1, 2]]},
        "noise": {"kind": "gaussian", "sigma": 1.0}, "r": 0.5, "axis": {"name": "N", "values": [5]},
        "trials": 100, "output": {"csv": "{d}/overflow.csv", "svg": "{d}/overflow.svg"}},
        stderr=re.escape("simulation-quality error: the normal equations overflow at N = 5; check the model scales\n")),
]


def _read(d: Path, out: str, name: str) -> bytes:
    return out.encode() if name == "-" else (d / name).read_bytes()


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_console(row, tmp_path, capsys):
    runs, procs = {}, {}  # output directory -> (exit code, stdout, stderr), or its process
    for w in row.workers or (None,):
        d, cfg = tmp_path / f"w{w}", tmp_path / f"w{w}.json"
        if row.config:
            output = {k: path.format(d=d) for k, path in row.config["output"].items()}
            cfg.write_text(json.dumps({**row.config, "output": output}), encoding="utf-8")
        argv = [arg.format(d=d, w=w, cfg=cfg) for arg in row.argv.split()]
        if w:
            procs[d] = subprocess.Popen([sys.executable, "-m", "lsqbounds.cli", *argv], env=ENV,
                                        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            continue
        runs[d] = (cli.main(argv), *capsys.readouterr())
    try:
        for d, proc in procs.items():
            out, err = proc.communicate(timeout=600)
            runs[d] = (proc.returncode, out, err)
    finally:
        for proc in procs.values():
            proc.kill()
    (d0, (_, out0, _)), *_ = runs.items()
    for d, (code, out, err) in runs.items():
        assert code == row.code and re.fullmatch(row.stderr, err), (code, err)
        assert not (row.code and d.exists())
        for name in row.same:
            assert _read(d, out, name) == _read(d0, out0, name), f"{name} differs between {d0.name} and {d.name}"
        for name, text, present in row.grep:
            assert (text.encode() in _read(d, out, name)) == present, (name, text)
