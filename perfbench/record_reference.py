"""Record reference.json, the outputs the benchmark's checks compare against.

Run from the root of a checkout, at the commit whose outputs are the
reference (the one that introduced the benchmark):

    python3 perfbench/record_reference.py

Each workload runs one round at reference size with the default seed, plus
its control row; bounds_grid records every term of every bound on its
reference parameter sets.  Monte-Carlo rows are recorded as counts, from
which the checks build score intervals.  It takes about two minutes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import git_commit  # noqa: E402


def main() -> int:
    outdir = HERE.parent / ".bench_out" / "reference"
    doc = {"commit": git_commit(), "seed": workloads.DEFAULT_SEED}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workloads.DEFAULT_SEED, "reference", outdir)
            entry = wl.reference(wl.run_round())
            control = wl.control_row()
            if control is not None:
                entry["control"] = control
            doc[name] = entry
            print(f"recorded {name}", file=sys.stderr)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
