"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --src DIR --out DIR
        --result FILE [--trace] [--import-only]

Times `import alleechain.cli` from --src, then runs the workload's ops back
to back through `alleechain.cli.main`, each writing into its own directory
under --out, and writes a JSON record of the run to --result, with the
median time of the speed kernel that ran interleaved with the ops. The
parent checks the outputs after this process has exited, so checking
counts neither in op times nor in peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from tracing import OP_SPAN, Tracer, install, layer_metrics
from workloads import WORKLOADS


def _bytes_in(directory: Path) -> int:
    if not directory.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


#: Seconds between two runs of the speed kernel while ops execute.
PROBE_INTERVAL_S = 0.2


def speed_kernel() -> float:
    """Seconds for one run of a fixed kernel that does not touch `alleechain`.

    It mixes what the workloads spend time on: numpy calls on short vectors,
    scalar Python with RNG draws, and a pass over a larger array.
    """
    import numpy as np

    start = time.perf_counter()
    v = np.linspace(0.0, 1.0, 101)
    for _ in range(40):
        v = v + 0.5 * (v[::-1] - v)
    rng = np.random.default_rng(0)
    x = 0.0
    for _ in range(400):
        x += rng.random() * 0.5
    np.cumsum(np.log(np.arange(1.0, 50_001.0)))
    return time.perf_counter() - start


class SpeedProbe:
    """Runs `speed_kernel` every PROBE_INTERVAL_S from a timer signal.

    The kernel runs interleaved with the ops, so its median duration
    measures how fast the host ran while they did; on a shared host that
    speed can halve for minutes at a time.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _on_timer(self, signum, frame):
        self.samples.append(speed_kernel())

    def __enter__(self):
        speed_kernel()  # the first run pays numpy's lazy set-up
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < 40:  # too short a run for the timer to sample
            self.samples.append(speed_kernel())


def run_ops(main, ops, out_root: Path, seed: int, tracer: Tracer | None = None) -> list[dict]:
    """Run each op through `main(argv)`; an op fails if it exits non-zero or raises."""
    call = tracer.wrap(OP_SPAN, main) if tracer else main
    records = []
    for k, op in enumerate(ops):
        out_dir = out_root / f"{k:02d}_{op.label}"
        config_path = None
        if op.config:
            config_path = out_root / f"{k:02d}_{op.label}.cfg"
            config_path.write_text(op.config)
        argv = op.argv(str(out_dir), str(config_path), seed)
        if tracer:
            tracer.op = k
        start = time.perf_counter()
        try:
            status = call(argv)
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            status = exc.code
        except Exception as exc:
            status = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        records.append({
            "label": op.label,
            "command": op.command,
            "seconds": seconds,
            "exit": status,
            "out_dir": str(out_dir),
            "bytes": _bytes_in(out_dir),
        })
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import alleechain.cli as cli
    import_s = time.perf_counter() - start
    src = args.src.resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with SpeedProbe() as probe:
        if not args.import_only:
            tracer = None
            if args.trace:
                import alleechain

                tracer = Tracer()
                install(tracer, alleechain)
            ops = run_ops(cli.main, WORKLOADS[args.workload], args.out, args.seed, tracer)
    result["speed_kernel_s"] = statistics.median(probe.samples)
    if not args.import_only:
        result["ops"] = ops
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            result["spans"] = [span[:5] for span in tracer.spans]
            result["layers"] = layer_metrics(tracer.spans, sum(op["bytes"] for op in ops))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
