"""Rewrite `reference.json` from one run of every workload.

    python3 perfbench/capture_reference.py

Run once, at the commit the benchmark's reference values come from; the
checks in `checks.py` then compare every later run with it. Simulation
outputs are seed-dependent, so only their configuration and the bounds in
`checks.SIMULATE_BOUNDS` are stored for them.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from checks import check_rep, reference_of
from run import HERE, TMP_ROOT, run_child
from workloads import WORKLOADS

SEED = 0


def main() -> int:
    reference = {}
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        for workload, ops in WORKLOADS.items():
            result, rep_dir = run_child(workload, SEED, tmp)
            contexts, x_plus = {}, {}
            for op, record in zip(ops, result["ops"]):
                if record["exit"] != 0:
                    raise SystemExit(f"{op.label} exited {record['exit']!r}")
                ctx = contexts.setdefault(op.preset, {"seed": SEED})
                reference[op.label] = reference_of(op, Path(record["out_dir"]), ctx, x_plus)
            failures = check_rep(ops, result["ops"], reference, SEED)
            if failures:
                raise SystemExit("captured outputs fail their own checks: " + "; ".join(failures))
            shutil.rmtree(rep_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
