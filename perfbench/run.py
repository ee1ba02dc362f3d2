"""Benchmark of the `alleechain` CLI on three workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. Load is a closed loop with one client: repetitions of the workload
run one after another, each in a fresh interpreter (`child.py`) with
single-threaded BLAS, and inside a repetition every op (one
`alleechain.cli.main` call) starts when the previous one has returned.
Repetitions continue until --seconds would be exceeded (at least one).
Times are converted to a reference host speed (see REF_KERNEL_S); a
workload time is the sum over ops of each op's median across repetitions,
and the other metrics are medians too. Every op is checked after timing
(`checks.py`); an op that exits non-zero or fails its check counts as
failed.

With --trace 0 the end-to-end metrics are printed; with --trace 1 each
repetition is run once untraced and once traced (`tracing.py`), and the
per-layer metrics of the traced runs are printed together with the tracing
overhead. The last line of output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Outputs go to a temporary directory
under the checkout, which is removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_rep
from tracing import LAYER_METRICS
from workloads import WEIGHTY_SUBCOMMANDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Fresh-process imports per run behind `setup_s`.
SETUP_SAMPLES = 5

#: Speed kernel time (`child.speed_kernel`) that defines the reference host
#: speed. Every time reported is converted to it: seconds measured in a
#: process times REF_KERNEL_S over the median kernel time measured in that
#: process while it ran. A shared host can run at half speed for minutes at
#: a time; the conversion takes most of that out, raw seconds keep it.
REF_KERNEL_S = 0.001

#: Longest a single repetition may take before the run is abandoned.
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"wall_cal_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPATH": str(SRC),
}


class HarnessError(Exception):
    """A worker process crashed, timed out or wrote no result."""


def run_child(workload: str, seed: int, tmp: Path, *, trace=False, import_only=False) -> tuple[dict, Path]:
    rep_dir = Path(tempfile.mkdtemp(dir=tmp))
    result_path = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--src", str(SRC), "--out", str(rep_dir), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    if import_only:
        cmd.append("--import-only")
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, cwd=rep_dir, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} repetition exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise HarnessError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text()), rep_dir


def run_rep(workload: str, seed: int, tmp: Path, reference: dict, *, trace=False) -> dict:
    """One checked repetition; its outputs are deleted once checked."""
    result, rep_dir = run_child(workload, seed, tmp, trace=trace)
    try:
        result["failures"] = check_rep(WORKLOADS[workload], result["ops"], reference, seed)
    finally:
        shutil.rmtree(rep_dir)
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, versions: dict) -> dict:
    return {"workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), **versions, "commit": _commit(), "blas_threads": 1}


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path, reference: dict) -> dict:
    """Run repetitions until --seconds would be exceeded; return the result object."""
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(run_rep(workload, seed, tmp, reference))
        if trace:
            traced.append(run_rep(workload, seed, tmp, reference, trace=True))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(plain) > seconds:
            break
    reps = plain + traced
    median = statistics.median

    def op_seconds(runs, calibrated=True):
        # Each op's median across repetitions, in reference-speed seconds.
        def value(rep, op):
            return op["seconds"] * REF_KERNEL_S / rep["speed_kernel_s"] if calibrated else op["seconds"]
        return [median(value(r, r["ops"][k]) for r in runs) for k in range(len(runs[0]["ops"]))]

    attempted = sum(len(rep["ops"]) for rep in reps)
    failures = [msg for rep in reps for msg in rep["failures"]]

    lines = [f"workload {workload}: {len(plain)} repetition(s), {attempted} ops attempted, "
             f"{len(failures)} failed (failed_ops_frac {len(failures) / attempted})"]
    lines += [f"  FAILED {msg}" for msg in failures]
    if trace:
        metrics = {name: statistics.median_low(rep["layers"][name] for rep in traced)
                   for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = sum(op_seconds(traced)) - sum(op_seconds(plain))
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        imports = list(reps)
        while len(imports) < SETUP_SAMPLES:
            result, rep_dir = run_child(workload, seed, tmp, import_only=True)
            shutil.rmtree(rep_dir)
            imports.append(result)
        calibrated = op_seconds(plain)
        metrics = {
            "wall_cal_s": sum(calibrated),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "setup_s": median(r["import_s"] * REF_KERNEL_S / r["speed_kernel_s"] for r in imports),
        }
        units = E2E_UNITS
        lines.append(f"  {'wall_s (raw, not converted)':<44} {sum(op_seconds(plain, calibrated=False))} s")
        for command in WEIGHTY_SUBCOMMANDS[workload]:
            value = sum(s for op, s in zip(WORKLOADS[workload], calibrated) if op.command == command)
            lines.append(f"  {command + '_cal_s':<44} {value} s")
    lines += [f"  {name:<44} {value} {units[name]}" for name, value in metrics.items()]
    lines.append("  env " + json.dumps(environment(workload, seed, plain[0]["versions"])))
    print("\n".join(lines))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="passed only to `simulate --seed`")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "alleechain" / "cli.py").is_file():
        print(f"error: no alleechain sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            result = measure(workload, args.seed, args.seconds, bool(args.trace), tmp, reference)
            print(json.dumps(result), flush=True)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
