"""Benchmark of the lsqbounds package: four workloads, end-to-end metrics,
and a traced run that times each layer from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload random_tail            # one workload
    python3 perfbench/run.py --workload all                    # all four, one after another
    python3 perfbench/run.py --workload bounds_grid --trace 1  # per-layer metrics
    python3 -m pytest perfbench -q                             # the benchmark's self-tests

A run builds its workload (set-up), then repeats identical rounds until
--seconds have passed, and checks the outputs against reference.json.  It
prints a table of every metric with its unit, writes a run record to
.bench_out/, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

On a shared host the machine's speed can drift by up to 2x over tens of
seconds (the 2-vCPU host the benchmark was written on did), and the time of
the same round moves with it.  So a fixed probe of
plain Python and numpy work, which calls nothing in the package, is timed
between rounds and between the set-ups, and the gated times (setup_s,
wall_s) are given in reference seconds: each measured stretch is scaled by
PROBE_REF_S over the mean of the probes just before and after it, that is,
to the speed at which the probe takes PROBE_REF_S.  A change to the package
moves them in full; a change of machine speed mostly cancels.  The raw
seconds and the probe times are in the run record.  With --trace 0 the metrics
are END_TO_END below; with --trace 1 they are the per-layer metrics of
layers.PER_LAYER, from rounds that alternate untraced and traced.  The exit
code is 0 when every check passed, 1 when a check failed (the failed check is
named on stderr), and 2 when the package is not found under src/.

The package is imported from src/ of the checkout, so nothing needs to be
installed.  Load comes from this one process; fixed_nsweep adds the 2 pool
workers the package forks.
"""

import os

# One BLAS thread in this process and in the pool workers it forks, so the
# thread count stays at or below the 2 cores.  Must run before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("random_tail", "fixed_nsweep", "bounds_grid", "diagnostics")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170
# Seconds the speed probe takes at the reference speed; about its median on
# the 2-vCPU Xeon the benchmark was written on.
PROBE_REF_S = 0.05

# The end-to-end metrics of the JSON line: the ones every workload has and
# that are never 0.  The others are printed in the table and the run record.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: presets.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_s(rng) -> float:
    """Seconds taken by a fixed mix of the three kinds of work the workloads
    do: a Python scalar loop, small numpy operations, and large draws with
    matrix products.  It calls no package code, so it measures the machine."""
    import numpy

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(90_000):
        acc += math.exp(-i * 1e-6)
    a, b = numpy.ones((2, 2)), numpy.ones(2)
    for _ in range(2_700):
        acc += float(numpy.max(numpy.abs(a @ b)))
    for _ in range(50):
        A = rng.uniform(-1.0, 1.0, (9255, 2))
        v = rng.standard_normal(9255)
        A @ (A.T @ A)[0] + v
    return time.perf_counter() - t0


def reference_seconds(stretches: list, probes: list) -> list:
    """Each stretch in reference seconds, where probes[i] and probes[i + 1]
    were taken just before and after stretches[i]."""
    return [t * 2.0 * PROBE_REF_S / (a + b) for t, a, b in zip(stretches, probes, probes[1:])]


def percentile_ms(values: list, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) * 1e3


def end_to_end_metrics(wl, plain, ref_segments, floors, setup_ref, peak_rss_mb) -> dict:
    """Every end-to-end metric this workload has: name -> (value, unit, note).
    wall_s sums, over the stretches of a round, each stretch's median over
    the rounds; a round of a Monte-Carlo workload is one stretch."""
    walls = [r.wall_s for r in plain]
    attempted = sum(r.ops for r in plain)
    failed = sum(r.failed for r in plain)
    out = {
        "setup_s": (statistics.median(setup_ref), "s", f"median of {len(setup_ref)} set-ups, reference seconds"),
        "wall_s": (
            sum(map(statistics.median, zip(*ref_segments))),
            "s",
            f"medians of {len(walls)} rounds, reference seconds",
        ),
        "raw_wall_s": (statistics.median(walls), "s", f"median of {len(walls)} rounds, as measured"),
    }
    rates = statistics.median(r.ops / r.wall_s for r in plain)
    if wl.monte_carlo:
        trials = plain[0].ops
        out["trials_per_s"] = (rates, "1/s", f"median of {len(walls)} rounds of {trials} trials")
        ratios = [r.wall_s * wl.workers / r.ops / floor for r, floor in zip(plain, floors)]
        out["trial_over_rng_floor"] = (
            statistics.median(ratios),
            "x",
            f"floor {statistics.median(floors) * 1e6:.1f} us/trial, {wl.workers} worker(s)",
        )
    out["peak_rss_mb"] = (peak_rss_mb, "MB", f"this process + {wl.workers} x largest worker" if wl.workers > 1 else "")
    out["failed_ops_frac"] = (failed / attempted, "frac", f"{failed} of {attempted}")
    if not wl.monte_carlo:
        out["bound_evals_per_s"] = (rates, "1/s", f"median of {len(walls)} rounds of {plain[0].ops} calls")
        for call, key in (("main", "n_main"), ("main_tau", "n_main_tau"), ("eps_of_n", "eps_of_n")):
            lat = [x for r in plain for x in r.latencies[call]]
            out[f"{key}_ms_p50"] = (percentile_ms(lat, 50), "ms", f"n={len(lat)}")
            out[f"{key}_ms_p95"] = (percentile_ms(lat, 95), "ms", f"n={len(lat)}")
    return out


def measure_setup(args, seed: int, probe_rng) -> tuple:
    """Set-up time of fresh processes, import plus building the inputs: the
    measured seconds of each, and each in reference seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed)]
    cmd += ["--size", args.size, "--setup-only"]
    samples, probes = [], [probe_s(probe_rng)]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
        probes.append(probe_s(probe_rng))
    return samples, reference_seconds(samples, probes)


def run_workload(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    outdir = OUT / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](seed, args.size, outdir)
    if args.setup_only:
        print(repr(time.perf_counter() - t0))
        return 0

    import numpy

    import layers
    from checks import CheckFailed, check_equal

    tracer = layers.Tracer(outdir / "spill") if args.trace else None
    rng = numpy.random.default_rng(seed)
    probe_rng = numpy.random.default_rng(0)
    plain, traced, floors, traced_floors, iteration_s = [], [], [], [], []
    ref_segments, traced_ref_segments = [], []
    try:
        probes = [probe_s(probe_rng)]

        def between():
            probes.append(probe_s(probe_rng))

        start = time.perf_counter()
        while True:
            it0 = time.perf_counter()
            use_trace = tracer is not None and len(plain) > len(traced)
            if use_trace:
                tracer.install()
                try:
                    rnd = wl.run_round(between)
                finally:
                    tracer.uninstall()
                tracer.absorb()
            else:
                rnd = wl.run_round(between)
            between()
            segments = reference_seconds(rnd.segments, probes[-len(rnd.segments) - 1 :])
            floor = workloads.rng_floor_s(rnd.draws, rng) if wl.monte_carlo else None
            (traced if use_trace else plain).append(rnd)
            (traced_ref_segments if use_trace else ref_segments).append(segments)
            (traced_floors if use_trace else floors).append(floor)
            iteration_s.append(time.perf_counter() - it0)
            done = plain and (tracer is None or traced)
            if done and time.perf_counter() - start + statistics.median(iteration_s) > args.seconds:
                break

        failure = control = None
        ref = json.loads((HERE / "reference.json").read_text())[wl.name]
        try:
            for rnd in plain[1:] + traced:
                check_equal(f"{wl.name} rounds agree", rnd.observed, plain[0].observed)
            wl.check(plain[0], ref)
            control = wl.control_row()
            wl.check_control(control, ref.get("control"))
        except CheckFailed as exc:
            failure = str(exc)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    # Read peak RSS before the set-up processes start: until then the only
    # child processes are the pool workers.
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    peak_rss_mb = self_mb + wl.workers * child_mb
    setup_samples, setup_ref = measure_setup(args, seed, probe_rng)

    e2e = end_to_end_metrics(wl, plain, ref_segments, floors, setup_ref, peak_rss_mb)
    record = {
        "workload": wl.name,
        "seed": seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "machine": machine_info(),
        "rounds": len(plain),
        "ops_per_round": plain[0].ops,
        "round_wall_s": [r.wall_s for r in plain],
        "round_ref_s": ref_segments,
        "probe_s": probes,
        "probe_ref_s": PROBE_REF_S,
        "rng_floor_s": floors,
        "setup_s": setup_samples,
        "setup_ref_s": setup_ref,
        "control_row": control,
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()},
        "check_failed": failure,
    }
    print(f"# {wl.name}: seed {seed}, {len(plain)} untraced rounds of {plain[0].ops} ops, "
          f"{record['machine']['nproc']} cpus ({record['machine']['cpu']}), python {record['machine']['python']}, "
          f"numpy {record['machine']['numpy']}, {record['machine']['blas']}, commit {record['machine']['commit'][:12]}")
    for name, (value, unit, note) in e2e.items():
        print(f"{wl.name:13s} {name:22s} {value:14.6g} {unit:5s} {note}")

    if tracer is not None:
        floor = statistics.median(traced_floors) if wl.monte_carlo else None
        overhead = statistics.median(map(sum, traced_ref_segments)) / statistics.median(map(sum, ref_segments))
        per_layer = tracer.layer_metrics(len(traced), [r.wall_s for r in traced], overhead, floor)
        record["traced_rounds"] = len(traced)
        record["per_layer"] = per_layer
        record["spans"] = tracer.span_table()
        units = dict(layers.PER_LAYER)
        for name, value in per_layer.items():
            print(f"{wl.name:13s} {name:38s} {value:14.6g} {units[name]}")
        if tracer.absent:
            print(f"# absent names (their metrics read 0): {', '.join(sorted(tracer.absent))}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}

    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    rounds = plain + traced
    result = {
        "correct": failure is None,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    if failure is not None:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failure is None else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace), "--size", args.size]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=args.seconds + 3 * CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        try:
            doc = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= doc["correct"]
        summary["attempted"] += doc["attempted"]
        summary["failed"] += doc["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lsqbounds" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'lsqbounds'}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
