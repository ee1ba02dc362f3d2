"""Output checks run on every op after it has been timed.

Each subcommand's outputs are parsed into a summary, validated for shape on
the way, and compared with the reference summary in `reference.json`
(captured at commit 8219e5e by `capture_reference.py`). Floats
are compared with tolerances, never byte for byte, so a valid change of
algorithm or RNG stream layout still passes; invariants (simplex sums,
total-variation distances to the exact law, trajectory structure) are
checked on every run. `simulate` outputs depend on the seed and are checked
only against invariants and seed-independent bounds.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

#: Pooled-occupation bounds for `simulate`, set well outside the spread seen
#: at commit 8219e5e. For fig1a/fig1b the pooled occupation is compared with
#: the exact law in total variation (seeds 100-123: fig1a 0.02-0.09, fig1b
#: 0.01-0.04; fig1a seeds 0-32: 0.03-0.07). The shortened fig2a ensemble
#: does not mix, so its occupation must instead stay in the persistence
#: cluster (seeds 100-115: mean density within 0.008 of x+*, persistence
#: mass 0.96-1.0).
SIMULATE_BOUNDS = {
    "fig1a": {"max_tv": 0.2},
    "fig1b": {"max_tv": 0.12},
    "fig2a": {"max_mean_density_gap": 0.03, "min_persistence_mass": 0.8},
}

SIMPLEX_TOL = 1e-9


class CheckError(Exception):
    """An op's outputs are missing, malformed or wrong."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _read_table(path: Path, header: str) -> np.ndarray:
    with path.open() as stream:
        first = stream.readline().rstrip("\n")
    _require(first == header, f"{path.name}: header {first!r}, expected {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[1] == header.count(",") + 1, f"{path.name}: wrong column count")
    _require(np.all(np.isfinite(data)), f"{path.name}: non-finite values")
    return data


def _read_json(path: Path):
    def reject(token):
        raise CheckError(f"{path.name}: {token} is not strict JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def _read_config(out: Path) -> dict[str, str]:
    lines = (out / "effective_config.cfg").read_text().splitlines()
    _require(lines, "effective_config.cfg is empty")
    return {key.strip(): value.strip() for key, _, value in (line.partition("=") for line in lines)}


def _states(data: np.ndarray, n: int, what: str) -> None:
    _require(data.shape[0] == n + 1, f"{what}: {data.shape[0]} rows for {n + 1} states")
    _require(np.array_equal(data[:, 0], np.arange(n + 1)), f"{what}: state column is not 0..N")


def _simplex(probs: np.ndarray, what: str) -> None:
    _require(np.all(probs >= 0.0), f"{what}: negative probability")
    _require(abs(probs.sum() - 1.0) <= SIMPLEX_TOL, f"{what}: sums to {probs.sum()!r}")


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def _match(actual, expected, tol, where: str) -> None:
    """Compare summaries; floats within tol * max(1, |expected|), the rest exactly."""
    if isinstance(expected, dict):
        _require(isinstance(actual, dict) and actual.keys() == expected.keys(),
                 f"{where}: keys {sorted(actual)} vs {sorted(expected)}")
        for key in expected:
            sub = tol.get(key, 0.0) if isinstance(tol, dict) else tol
            _match(actual[key], expected[key], sub, f"{where}.{key}")
    elif isinstance(expected, list):
        _require(isinstance(actual, list) and len(actual) == len(expected),
                 f"{where}: {len(actual)} entries, expected {len(expected)}")
        for k, (a, e) in enumerate(zip(actual, expected)):
            _match(a, e, tol, f"{where}[{k}]")
    elif isinstance(expected, float):
        _require(isinstance(actual, (int, float)) and abs(actual - expected) <= tol * max(1.0, abs(expected)),
                 f"{where}: {actual!r}, expected {expected!r}")
    else:
        _require(actual == expected, f"{where}: {actual!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# Summaries: parse one op's outputs, checking their shape
# ---------------------------------------------------------------------------

MODE_KEYS = ("bimodal", "major_mode", "minor_mode", "i_minus", "i_plus")


def summarize_psd(out: Path, ctx: dict) -> dict:
    data = _read_table(out / "psd.csv", "state,density,prob,log_weight")
    n = data.shape[0] - 1
    _states(data, n, "psd.csv")
    _require(np.allclose(data[:, 1], data[:, 0] / n, rtol=0.0, atol=1e-12), "psd.csv: density column")
    _simplex(data[:, 2], "psd.csv")
    _require(data[0, 3] == 0.0, "psd.csv: log_weight[0] is not 0")
    modes = _read_json(out / "modes.json")
    modes = {key: modes[key] for key in MODE_KEYS}
    ctx["exact"] = data[:, 2]
    anchors = [s for s in (modes["i_minus"], modes["i_plus"], n) if s is not None]
    return {
        "states": n + 1,
        "mean_density": float(data[:, 2] @ data[:, 1]),
        "log_weights": {str(s): float(data[s, 3]) for s in anchors},
        "modes": modes,
    }


def summarize_threshold(out: Path, ctx: dict) -> dict:
    report = _read_json(out / "threshold.json")
    data = _read_table(out / "diagnostic.csv", "N,tail_mass,discrete_exponent")
    _require(np.all((data[:, 1] >= 0.0) & (data[:, 1] <= 1.0 + SIMPLEX_TOL)), "diagnostic.csv: tail mass")
    return {
        "classification": report["classification"],
        "integral_value": float(report["integral_value"]),
        "x_plus": float(report["x_plus"]),
        "N": [int(v) for v in data[:, 0]],
        "tail_mass": [float(v) for v in data[:, 1]],
        "discrete_exponent": [float(v) for v in data[:, 2]],
    }


def summarize_evolve(out: Path, ctx: dict) -> dict:
    summary = _read_json(out / "evolve_summary.json")
    config = _read_config(out)
    n = int(config["N"])
    if summary["mode"] == "converge":
        data = _read_table(out / "final.csv", "state,prob")
        _states(data, n, "final.csv")
        _simplex(data[:, 1], "final.csv")
        tol = float(config["tol"])
        _require(summary["achieved_tv"] <= tol, f"achieved_tv {summary['achieved_tv']!r} above tol {tol!r}")
        _require("exact" in ctx, "no psd.csv from this preset to compare final.csv with")
        tv = total_variation(data[:, 1], ctx["exact"])
        _require(tv <= tol, f"final.csv is {tv!r} in TV from psd.csv, above tol {tol!r}")
        return {"mode": "converge", "start": summary["start"], "tol": tol}
    data = _read_table(out / "evolve.csv", "t,state,prob")
    times = [float(t) for t in summary["checkpoints"]]
    _require(data.shape[0] == len(times) * (n + 1), "evolve.csv: row count")
    probs = []
    for k, t in enumerate(times):
        block = data[k * (n + 1):(k + 1) * (n + 1)]
        _require(np.all(block[:, 0] == t), f"evolve.csv: checkpoint {t} time column")
        _states(block[:, 1:], n, f"evolve.csv checkpoint {t}")
        _simplex(block[:, 2], f"evolve.csv checkpoint {t}")
        probs.append([float(v) for v in block[:, 2]])
    return {"mode": summary["mode"], "start": summary["start"], "times": times, "probs": probs}


def summarize_simulate(out: Path, ctx: dict) -> dict:
    config = _read_config(out)
    n = int(config["N"])
    x0 = int(config["x0"])
    runs = int(config["runs"])
    t_end = float(config["t_end"])
    occupation = _read_table(out / "occupation.csv", "state,density,mean_frequency")
    _states(occupation, n, "occupation.csv")
    density, freq = occupation[:, 1], occupation[:, 2]
    _simplex(freq, "occupation.csv")

    ensemble = _read_json(out / "ensemble.json")
    _require(ensemble["seeds"] == list(range(ctx["seed"], ctx["seed"] + runs)),
             f"ensemble.json: seeds {ensemble['seeds']} for seed {ctx['seed']} and {runs} runs")
    epsilon = float(ensemble["epsilon"])
    extinction = float(freq[density <= epsilon].sum())
    _require(abs(ensemble["extinction_mass"] - extinction) <= SIMPLEX_TOL,
             f"ensemble.json: extinction_mass {ensemble['extinction_mass']!r} vs occupation {extinction!r}")

    path = _read_table(out / "trajectory.csv", "t,state")
    t, states = path[:, 0], path[:, 1]
    _require(t[0] == 0.0 and states[0] == x0, "trajectory.csv: does not start at (0, x0)")
    _require(np.all(np.diff(t) > 0.0) and t[-1] < t_end, "trajectory.csv: times not increasing within t_end")
    _require(np.all(np.abs(np.diff(states)) == 1.0), "trajectory.csv: a jump is not +-1")
    _require(np.all((states >= 0) & (states <= n)), "trajectory.csv: state outside 0..N")
    return {
        "runs": runs, "x0": x0, "t_end": t_end, "burn_in": float(ensemble["burn_in"]),
        "epsilon": epsilon, "ensemble_t_end": float(ensemble["t_end"]),
        "occupation": freq, "density": density, "persistence_mass": ensemble["persistence_mass"],
    }


def summarize_ode(out: Path, ctx: dict) -> dict:
    with (out / "basin.csv").open(newline="") as stream:
        rows = list(csv.reader(stream))
    _require(rows and rows[0] == ["x0", "classification", "t_final"], "basin.csv: header")
    rows = rows[1:]
    x0 = np.array([float(r[0]) for r in rows])
    t_final = np.array([float(r[2]) for r in rows])
    _require(np.array_equal(x0, np.linspace(0.0, 1.0, len(rows))), "basin.csv: x0 is not the grid")
    _require(np.all(np.isfinite(t_final) & (t_final >= 0.0)), "basin.csv: t_final")
    return {"classification": [r[1] for r in rows]}


def summarize_sweep(out: Path, ctx: dict) -> dict:
    data = _read_table(out / "sweep.csv", "N,i_plus,mode_density,scaled_gap,discrete_exponent")
    _require(np.array_equal(data[:, 2], data[:, 1] / data[:, 0]), "sweep.csv: mode_density is not i_plus/N")
    return {
        "N": [int(v) for v in data[:, 0]],
        "i_plus": [int(v) for v in data[:, 1]],
        "scaled_gap": [float(v) for v in data[:, 3]],
        "discrete_exponent": [float(v) for v in data[:, 4]],
    }


SUMMARIZE = {
    "psd": summarize_psd,
    "threshold": summarize_threshold,
    "evolve": summarize_evolve,
    "simulate": summarize_simulate,
    "ode": summarize_ode,
    "sweep": summarize_sweep,
}

#: Comparison tolerances, relative above 1 and absolute below it.
TOLERANCES = {
    "psd": {"mean_density": 1e-9, "log_weights": 1e-9},
    "threshold": {"integral_value": 1e-8, "x_plus": 1e-12, "tail_mass": 1e-9, "discrete_exponent": 1e-9},
    "sweep": {"scaled_gap": 1e-6, "discrete_exponent": 1e-9},
}

#: Seed-independent `simulate` settings stored in and checked against the reference.
SIMULATE_KEYS = ("runs", "x0", "t_end", "burn_in", "epsilon")

#: Largest TV of an evolve checkpoint from its reference vector.
CHECKPOINT_TV = 1e-8


def reference_of(op, out: Path, ctx: dict, x_plus: dict[str, float]) -> dict:
    """The reference entry for one op's outputs (used when capturing)."""
    summary = SUMMARIZE[op.command](out, ctx)
    if op.command == "threshold":
        x_plus[op.preset] = summary["x_plus"]
    if op.command == "simulate":
        return {**{key: summary[key] for key in SIMULATE_KEYS}, "x_plus": x_plus[op.preset],
                **SIMULATE_BOUNDS[op.preset]}
    return summary


def _check_simulate(summary: dict, ref: dict, ctx: dict) -> None:
    for key in SIMULATE_KEYS:
        _match(summary[key], ref[key], 0.0, key)
    _match(summary["ensemble_t_end"], ref["t_end"], 0.0, "ensemble.json t_end")
    freq, density = summary["occupation"], summary["density"]
    near_plus = float(freq[np.abs(density - ref["x_plus"]) <= ref["epsilon"]].sum())
    persistence = summary["persistence_mass"]
    _require(abs(persistence - near_plus) <= SIMPLEX_TOL,
             f"ensemble.json: persistence_mass {persistence!r} vs occupation {near_plus!r}")
    if "max_tv" in ref:
        _require("exact" in ctx, "no psd.csv from this preset to compare the occupation with")
        tv = total_variation(freq, ctx["exact"])
        _require(tv <= ref["max_tv"], f"pooled occupation is {tv:.4f} in TV from the exact law")
    if "max_mean_density_gap" in ref:
        gap = abs(float(freq @ density) - ref["x_plus"])
        _require(gap <= ref["max_mean_density_gap"], f"mean occupied density is {gap:.4f} from x+*")
        _require(persistence >= ref["min_persistence_mass"], f"persistence mass {persistence!r}")


def check_op(op, out: Path, ref: dict, ctx: dict) -> None:
    """Raise CheckError (or a parse error) if the op's outputs are wrong."""
    _read_config(out)
    summary = SUMMARIZE[op.command](out, ctx)
    if op.command == "simulate":
        _check_simulate(summary, ref, ctx)
    elif op.command == "evolve" and ref["mode"] == "checkpoints":
        _match({k: summary[k] for k in ("mode", "start", "times")},
               {k: ref[k] for k in ("mode", "start", "times")}, 0.0, op.label)
        for t, got, want in zip(ref["times"], summary["probs"], ref["probs"]):
            tv = total_variation(np.array(got), np.array(want))
            _require(tv <= CHECKPOINT_TV, f"checkpoint {t}: {tv!r} in TV from the reference")
    else:
        _match(summary, ref, TOLERANCES.get(op.command, 0.0), op.label)


def check_rep(ops, records: list[dict], reference: dict, seed: int) -> list[str]:
    """One failure message per op that exited non-zero or failed its check.

    Ops run in order within a workload, and a preset's `psd` op comes before
    the ops that compare with its exact law, so checking in order works.
    """
    failures = []
    contexts: dict[str, dict] = {}
    for op, record in zip(ops, records):
        if record["exit"] != 0:
            failures.append(f"{op.label}: exit status {record['exit']!r}")
            continue
        ctx = contexts.setdefault(op.preset, {"seed": seed})
        try:
            check_op(op, Path(record["out_dir"]), reference[op.label], ctx)
        except Exception as exc:  # any parse or comparison error fails the op
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    failures.extend(f"{op.label}: did not run" for op in ops[len(records):])
    return failures
