"""Fold saved benchmark runs into per-workload medians and quartiles.

    python3 perfbench/summarize.py RUN_OUTPUT... > summary.json

Each argument is the saved standard output of one `run.py` call for one
workload. For every workload and metric the summary gives the number of
runs, the median, the quartiles (`statistics.quantiles(values, n=4)`), the
spread (interquartile distance over the median) and the seeds, together
with the environment line of the first run.
"""

from __future__ import annotations

import json
import statistics
import sys


def _parse(path: str) -> tuple[dict, dict]:
    lines = open(path).read().splitlines()
    env = next(json.loads(line.split("env ", 1)[1]) for line in lines if line.strip().startswith("env "))
    return env, json.loads(lines[-1])


def summarize(paths) -> dict:
    runs: dict[str, list] = {}
    for path in paths:
        env, result = _parse(path)
        runs.setdefault(env["workload"], []).append((env, result))
    summary = {}
    for workload, items in sorted(runs.items()):
        metrics = {}
        for name in items[0][1]["metrics"]:
            values = [result["metrics"][name]["value"] for _, result in items]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {
                "unit": items[0][1]["metrics"][name]["unit"], "n": len(values), "median": median,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            }
        summary[workload] = {
            "seeds": [env["seed"] for env, _ in items],
            "attempted": sum(result["attempted"] for _, result in items),
            "failed": sum(result["failed"] for _, result in items),
            "env": {k: v for k, v in items[0][0].items() if k != "seed"},
            "metrics": metrics,
        }
    return summary


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1, sort_keys=True)
    print()
