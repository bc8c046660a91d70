"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workload_names_match():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_declared_metrics(workload, trace, section):
    proc = run_bench("--workload", workload, "--size", "tiny", "--seconds", "1", "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == declared
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "random_tail", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_check_rejects_a_perturbed_bound_value(tmp_path):
    grid = workloads.BoundsGrid(workloads.DEFAULT_SEED, "tiny", tmp_path)
    ref = {"sets": REFERENCE["bounds_grid"]["sets"][:2]}
    grid.check(None, ref)  # the recorded values pass
    perturbed = json.loads(json.dumps(ref))
    perturbed["sets"][1]["values"]["main"]["n_final"] *= 1 + 1e-5
    with pytest.raises(checks.CheckFailed, match="main.n_final"):
        grid.check(None, perturbed)


def test_check_rejects_an_all_zero_control_row(tmp_path):
    tail = workloads.RandomTail(workloads.DEFAULT_SEED, "tiny", tmp_path)
    ref = REFERENCE["random_tail"]["control"]
    tail.check_control(ref, ref)
    with pytest.raises(checks.CheckFailed, match="control"):
        tail.check_control({"exceed": 0, "trials": 4000}, ref)

    diag = workloads.Diagnostics(workloads.DEFAULT_SEED, "tiny", tmp_path)
    ref = REFERENCE["diagnostics"]["control"]
    zero = dict(ref, e_rand=0, e2=[0] * 4, e3=[0] * 4)
    with pytest.raises(checks.CheckFailed, match="control"):
        diag.check_control(zero, ref)


def test_overlap_check_is_interval_based():
    checks.check_overlap("same rate", 230, 1000, 9119, 40000)
    with pytest.raises(checks.CheckFailed):
        checks.check_overlap("far apart", 500, 1000, 9119, 40000)


def test_a_removed_name_reads_zero(monkeypatch, tmp_path):
    from lsqbounds import montecarlo

    monkeypatch.delattr(montecarlo, "_solve_spd")
    tracer = layers.Tracer(tmp_path)
    tracer.install()
    tracer.uninstall()
    assert "lsqbounds.montecarlo._solve_spd" in tracer.absent
    values = tracer.layer_metrics(1, [1.0], 1.0, None)
    assert values["linalg.solve.us"] == 0.0
    assert not hasattr(montecarlo, "_solve_spd")
