"""Outside-in tracing of the package's layers.

For the length of one round the tracer wraps the names that montecarlo,
presets, bounds and models import from models, linalg and optimize, plus the
Monte-Carlo entry points and pool, so the package itself is not changed.
Each wrapped call is a span.  The tracer keeps per-name totals in memory:
calls, busy time, and self time (busy time minus the time of the spans
called from inside it).  Pool workers forked by montecarlo inherit the
wrappers; each worker writes its totals to a spill file after every chunk,
and the parent adds them in after the round.  A name that a later refactor
removes is recorded as absent, and the metrics built on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import uuid
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name): plain wrappers.  One span name may cover the
# same function imported into several modules.
PLAIN_SPANS = (
    ("lsqbounds.montecarlo", "sample_design", "models.sample_design"),
    ("lsqbounds.montecarlo", "sample_noise", "models.sample_noise"),
    ("lsqbounds.montecarlo", "implied_problem_params", "models.implied_problem_params"),
    ("lsqbounds.presets", "implied_problem_params", "models.implied_problem_params"),
    ("lsqbounds.montecarlo", "_solve_spd", "linalg.solve"),
    ("lsqbounds.montecarlo", "gram_normalized", "linalg.gram_normalized"),
    ("lsqbounds.models", "gram_normalized", "linalg.gram_normalized"),
    ("lsqbounds.montecarlo", "sym_extremal_eigs", "linalg.sym_extremal_eigs"),
    ("lsqbounds.models", "sym_extremal_eigs", "linalg.sym_extremal_eigs"),
    ("lsqbounds.montecarlo", "run_tail", "montecarlo.run_tail"),
    ("lsqbounds.presets", "run_tail", "montecarlo.run_tail"),
    ("lsqbounds.presets", "write_result_csv", "io.write_result_csv"),
    ("lsqbounds.presets", "write_line_plot", "svg.write_line_plot"),
)
# Bound functions, wrapped in bounds itself and in its dispatch table.
BOUND_SPANS = (
    "n_main",
    "n_main_tau",
    "eps_of_n",
    "n_bounded",
    "n_mds_subgaussian",
    "n_mds_bounded",
    "n_fixed_design",
    "eps_fixed_design",
)
CLOSED_FORMS = BOUND_SPANS[3:]

# The traced run's metrics, in print order.  Counts are per round; times are
# per call unless the name says otherwise.
PER_LAYER = (
    ("models.generator.calls", "count"),
    ("models.generator.us", "us"),
    ("models.sample_design.calls", "count"),
    ("models.sample_design.self_us", "us"),
    ("models.sample_noise.calls", "count"),
    ("models.sample_noise.self_us", "us"),
    ("models.implied_problem_params.calls", "count"),
    ("models.implied_problem_params.ms", "ms"),
    ("models.rng_floor_us", "us"),
    ("linalg.cholesky.calls", "count"),
    ("linalg.cholesky.us", "us"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.us", "us"),
    ("linalg.sym_extremal_eigs.calls", "count"),
    ("linalg.sym_extremal_eigs.us", "us"),
    ("linalg.gram_normalized.us", "us"),
    ("linalg.rank_deficient", "count"),
    ("optimize.infimum_1d.calls", "count"),
    ("optimize.infimum_1d.us", "us"),
    ("optimize.objective_points", "count"),
    ("optimize.no_finite_point", "count"),
    ("bounds.n_main.ms", "ms"),
    ("bounds.n_main_tau.ms", "ms"),
    ("bounds.eps_of_n.ms", "ms"),
    ("bounds.closed_form.us", "us"),
    ("bounds.share_of_wall", "frac"),
    ("montecarlo.run_tail.calls", "count"),
    ("montecarlo.trial_self_us", "us"),
    ("montecarlo.diag_trial_self_us", "us"),
    ("montecarlo.pools_started", "count"),
    ("montecarlo.chunks", "count"),
    ("montecarlo.pool_start_ms", "ms"),
    ("montecarlo.parent_wait_ms", "ms"),
    ("montecarlo.invalid_trials", "count"),
    ("montecarlo.exceed_count", "count"),
    ("io.write_result_csv.ms", "ms"),
    ("svg.write_line_plot.ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Span totals for the package's layers, installed one round at a time."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        spill_dir.mkdir(parents=True, exist_ok=True)
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy_s, self_s
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []
        self._undo: list = []
        self._owner = os.getpid()

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn):
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = stats[name]
                s[0] += 1
                s[1] += dt
                s[2] += dt - children[0]

        return span

    def _cholesky(self, fn):
        span = self._span("linalg.cholesky", fn)

        @functools.wraps(fn)
        def cholesky(*args, **kwargs):
            try:
                return span(*args, **kwargs)
            except ArithmeticError:  # RankDeficiencyError
                self.counts["linalg.rank_deficient"] += 1
                raise

        return cholesky

    def _infimum(self, fn):
        span = self._span("optimize.infimum_1d", fn)
        counts = self.counts

        @functools.wraps(fn)
        def infimum_1d(objective, *args, **kwargs):
            def counted(s):
                value = objective(s)
                counts["optimize.objective_points"] += int(np.size(s))
                return value

            try:
                return span(counted, *args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "NoFinitePointError":
                    counts["optimize.no_finite_point"] += 1
                raise

        return infimum_1d

    def _chunk(self, name: str, trials_key: str, fn):
        """A Monte-Carlo chunk; in a pool worker it also spills the totals."""
        span = self._span(name, fn)

        @functools.wraps(fn)
        def chunk(spec, start, stop, *rest):
            in_worker = os.getpid() != self._owner
            if in_worker:
                self._reset()
            out = span(spec, start, stop, *rest)
            self.counts[trials_key] += stop - start
            if trials_key == "montecarlo.tail_trials":
                self.counts["montecarlo.exceed_count"] += int(out[0])
                self.counts["montecarlo.invalid_trials"] += int(out[1])
            if in_worker:
                self._spill()
            return out

        return chunk

    def _pool(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                t0 = time.perf_counter()
                super().__init__(*args, **kwargs)
                self._last_submit = time.perf_counter()
                tracer.times["montecarlo.pool_start"] += self._last_submit - t0
                tracer.counts["montecarlo.pools_started"] += 1

            def submit(self, fn, /, *args, **kwargs):
                # The first submit forks the workers, so it is start-up time.
                t0 = time.perf_counter()
                future = super().submit(fn, *args, **kwargs)
                self._last_submit = time.perf_counter()
                tracer.times["montecarlo.pool_start"] += self._last_submit - t0
                tracer.counts["montecarlo.chunks"] += 1
                return future

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.times["montecarlo.parent_wait"] += time.perf_counter() - self._last_submit

        return TracedPool

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr: str, make, label: str) -> None:
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.add(label)
            return
        wrapper = make(original)
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))
        table = getattr(owner, "BOUND_FUNCTIONS", None)
        for key, fn in (table or {}).items():
            if fn is original:
                table[key] = wrapper
                self._undo.append(lambda key=key: table.__setitem__(key, original))

    def install(self) -> None:
        for modname, attr, name in PLAIN_SPANS:
            self._patch(
                _module(modname), attr, lambda fn, name=name: self._span(name, fn), f"{modname}.{attr}"
            )
        models = _module("lsqbounds.models")
        self._patch(
            getattr(models, "SeedSpec", None),
            "generator",
            lambda fn: self._span("models.generator", fn),
            "lsqbounds.models.SeedSpec.generator",
        )
        mc = _module("lsqbounds.montecarlo")
        self._patch(mc, "_cholesky_lower", self._cholesky, "lsqbounds.montecarlo._cholesky_lower")
        self._patch(
            mc,
            "_tail_chunk",
            lambda fn: self._chunk("montecarlo.tail_chunk", "montecarlo.tail_trials", fn),
            "lsqbounds.montecarlo._tail_chunk",
        )
        self._patch(
            mc,
            "_diag_chunk",
            lambda fn: self._chunk("montecarlo.diag_chunk", "montecarlo.diag_trials", fn),
            "lsqbounds.montecarlo._diag_chunk",
        )
        self._patch(mc, "ProcessPoolExecutor", self._pool, "lsqbounds.montecarlo.ProcessPoolExecutor")
        bounds = _module("lsqbounds.bounds")
        self._patch(bounds, "infimum_1d", self._infimum, "lsqbounds.bounds.infimum_1d")
        for name in BOUND_SPANS:
            self._patch(
                bounds,
                name,
                lambda fn, name=name: self._span(f"bounds.{name}", fn),
                f"lsqbounds.bounds.{name}",
            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- worker totals -------------------------------------------------------

    def _reset(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self.times.clear()
        self._stack.clear()

    def _spill(self) -> None:
        doc = {"stats": self.stats, "counts": self.counts, "times": self.times}
        path = self.spill_dir / f"{os.getpid()}-{uuid.uuid4().hex}.json"
        path.write_text(json.dumps(doc))

    def absorb(self) -> None:
        """Add the totals that pool workers spilled during the last round."""
        for path in sorted(self.spill_dir.glob("*.json")):
            doc = json.loads(path.read_text())
            for name, (calls, busy, own) in doc["stats"].items():
                s = self.stats[name]
                s[0] += calls
                s[1] += busy
                s[2] += own
            for name, value in doc["counts"].items():
                self.counts[name] += value
            for name, value in doc["times"].items():
                self.times[name] += value
            path.unlink()

    # -- metrics -------------------------------------------------------------

    def layer_metrics(
        self,
        rounds: int,
        traced_walls: list[float],
        overhead_frac: float,
        floor_s: float | None,
    ) -> dict[str, float]:
        """The PER_LAYER metrics from the totals of `rounds` traced rounds;
        overhead_frac is the traced rounds' time over the untraced rounds'."""
        stats, counts, times = self.stats, self.counts, self.times

        def calls(name):
            return stats[name][0] if name in stats else 0

        def per_call(name, field, scale):
            n = calls(name)
            return stats[name][field] * scale / n if n else 0.0

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        bound_busy = sum(stats[f"bounds.{n}"][1] for n in BOUND_SPANS if f"bounds.{n}" in stats)
        closed_calls = sum(calls(f"bounds.{n}") for n in CLOSED_FORMS)
        closed_busy = sum(stats[f"bounds.{n}"][1] for n in CLOSED_FORMS if f"bounds.{n}" in stats)
        pools = counts.get("montecarlo.pools_started", 0)
        values = {
            "models.generator.calls": calls("models.generator") / rounds,
            "models.generator.us": per_call("models.generator", 1, 1e6),
            "models.sample_design.calls": calls("models.sample_design") / rounds,
            "models.sample_design.self_us": per_call("models.sample_design", 2, 1e6),
            "models.sample_noise.calls": calls("models.sample_noise") / rounds,
            "models.sample_noise.self_us": per_call("models.sample_noise", 2, 1e6),
            "models.implied_problem_params.calls": calls("models.implied_problem_params") / rounds,
            "models.implied_problem_params.ms": per_call("models.implied_problem_params", 1, 1e3),
            "models.rng_floor_us": (floor_s or 0.0) * 1e6,
            "linalg.cholesky.calls": calls("linalg.cholesky") / rounds,
            "linalg.cholesky.us": per_call("linalg.cholesky", 1, 1e6),
            "linalg.solve.calls": calls("linalg.solve") / rounds,
            "linalg.solve.us": per_call("linalg.solve", 1, 1e6),
            "linalg.sym_extremal_eigs.calls": calls("linalg.sym_extremal_eigs") / rounds,
            "linalg.sym_extremal_eigs.us": per_call("linalg.sym_extremal_eigs", 1, 1e6),
            "linalg.gram_normalized.us": per_call("linalg.gram_normalized", 1, 1e6),
            "linalg.rank_deficient": counts.get("linalg.rank_deficient", 0) / rounds,
            "optimize.infimum_1d.calls": calls("optimize.infimum_1d") / rounds,
            "optimize.infimum_1d.us": per_call("optimize.infimum_1d", 1, 1e6),
            "optimize.objective_points": counts.get("optimize.objective_points", 0) / rounds,
            "optimize.no_finite_point": counts.get("optimize.no_finite_point", 0) / rounds,
            "bounds.n_main.ms": per_call("bounds.n_main", 1, 1e3),
            "bounds.n_main_tau.ms": per_call("bounds.n_main_tau", 1, 1e3),
            "bounds.eps_of_n.ms": per_call("bounds.eps_of_n", 1, 1e3),
            "bounds.closed_form.us": ratio(closed_busy, closed_calls, 1e6),
            "bounds.share_of_wall": ratio(bound_busy, sum(traced_walls)),
            "montecarlo.run_tail.calls": calls("montecarlo.run_tail") / rounds,
            "montecarlo.trial_self_us": ratio(
                stats["montecarlo.tail_chunk"][2] if "montecarlo.tail_chunk" in stats else 0.0,
                counts.get("montecarlo.tail_trials", 0),
                1e6,
            ),
            "montecarlo.diag_trial_self_us": ratio(
                stats["montecarlo.diag_chunk"][2] if "montecarlo.diag_chunk" in stats else 0.0,
                counts.get("montecarlo.diag_trials", 0),
                1e6,
            ),
            "montecarlo.pools_started": pools / rounds,
            "montecarlo.chunks": counts.get("montecarlo.chunks", 0) / rounds,
            "montecarlo.pool_start_ms": ratio(times.get("montecarlo.pool_start", 0.0), pools, 1e3),
            "montecarlo.parent_wait_ms": ratio(times.get("montecarlo.parent_wait", 0.0), pools, 1e3),
            "montecarlo.invalid_trials": counts.get("montecarlo.invalid_trials", 0) / rounds,
            "montecarlo.exceed_count": counts.get("montecarlo.exceed_count", 0) / rounds,
            "io.write_result_csv.ms": per_call("io.write_result_csv", 1, 1e3),
            "svg.write_line_plot.ms": per_call("svg.write_line_plot", 1, 1e3),
            "trace.overhead_frac": overhead_frac,
        }
        return {name: values[name] for name, _ in PER_LAYER}

    def span_table(self) -> dict:
        """Raw totals, for the run record."""
        return {
            "spans": {
                name: {"calls": c, "busy_s": b, "self_s": s} for name, (c, b, s) in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "times_s": dict(sorted(self.times.items())),
            "absent": sorted(self.absent),
        }
