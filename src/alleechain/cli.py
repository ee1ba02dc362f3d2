"""Command-line experiment runner.

Subcommands, listed once in the command table _COMMANDS, which also holds
each one's function and the keys it accepts beyond the model's:
  psd        stationary distribution CSV plus mode summary JSON
  threshold  rate-ratio integral classification plus capacity-sweep tails
  evolve     master-equation evolution to the stationary law
  simulate   Gillespie ensemble with occupation statistics
  ode        deterministic trajectory or basin-classification grid
  sweep      mode-location scaling and discrete exponents over capacities

Parameters come from a named preset, a flat key = value config file, or
both (the config overrides the preset, command-line flags override both).
Every run writes the fully resolved configuration next to its outputs, so
any result can be reproduced byte for byte from the emitted file alone.
Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure (a RuntimeError or an ArithmeticError, such as a float overflow),
memory failure (a MemoryError, such as an array too large to allocate) or
I/O failure (an OSError, such as a full disk, an output path under a
regular file or a CSV formatting helper that failed). A failed run
publishes no file: files go to a private directory in --out first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import _csv, asymptotics, deterministic, master_eq, ssa, stationary
from .model import (
    CONFIG_KEYS,
    ModelParams,
    config_float,
    config_int,
    config_list,
    parse_config,
    params_from_config,
    params_to_config,
)

#: The two regimes of the figure captions: their six rate constants.
_REGIMES = {
    "a": {"lambda": "1.4", "mu": "1.0", "delta1": "0.45", "delta2": "0.1",
          "delta3": "1.45", "theta": "0.03"},
    "b": {"lambda": "1.7", "mu": "1.0", "delta1": "0.9", "delta2": "0.0",
          "delta3": "1.7", "theta": "0.03"},
}

#: Figure-caption parameter sets, the canonical reference configurations:
#: each regime at N = 100 (Fig. 1) and at N = 5000 (Fig. 2).
PRESETS = {
    f"fig{fig}{regime}": {**constants, "N": n, "r1": "0.99"}
    for fig, n in (("1", "100"), ("2", "5000"))
    for regime, constants in _REGIMES.items()
}

_MODEL_KEYS = set(CONFIG_KEYS)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _resolve_config(args, command: str) -> dict[str, str]:
    """Merge preset, config file and flags; validate keys; fill defaults."""
    cfg: dict[str, str] = {}
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ValueError(
                f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"
            )
        cfg.update(PRESETS[args.preset])
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ValueError(f"config file not found: {path}")
        cfg.update(parse_config(path.read_text()))
    if not cfg:
        raise ValueError("no parameters: pass --preset, --config or both")

    defaults = _COMMANDS[command][1]
    allowed = _MODEL_KEYS | set(defaults)
    for key in ("seed", "n_list", "epsilon"):
        value = getattr(args, key)
        if value is None:
            continue
        if key not in allowed:
            raise ValueError(f"--{key.replace('_', '-')} does not apply to the {command} command")
        cfg[key] = value  # as text, read by the same config_* call as the config key

    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {', '.join(unknown)}")
    for key, default in defaults.items():
        cfg.setdefault(key, default)
    return cfg


def cmd_psd(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    dist = stationary.psd_product(params)
    profile = stationary.mode_profile(dist)
    with open(out_dir / "psd.csv", "w") as f:
        dist.to_csv(f)
    _write_json(out_dir / "modes.json", profile.to_summary())


def cmd_threshold(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    n_list = config_list(cfg, "n_list", int, "a comma list of integers", "integers")
    epsilon = config_float(cfg, "epsilon")
    diagnostic = asymptotics.limit_distribution_diagnostic(params, n_list, epsilon)
    _write_json(out_dir / "threshold.json", diagnostic.report.to_summary())
    with open(out_dir / "diagnostic.csv", "w") as f:
        diagnostic.to_csv(f)


def _start_vector(label: str, dimension: int) -> np.ndarray:
    unknown = f"unknown start {label!r}; use delta0, deltaN, uniform or state:<i>"
    if label == "uniform":
        return np.full(dimension, 1.0 / dimension)
    if label == "delta0":
        state = 0
    elif label == "deltaN":
        state = dimension - 1
    elif label.startswith("state:"):
        try:
            state = int(label.removeprefix("state:"))
        except ValueError:
            raise ValueError(unknown) from None
    else:
        raise ValueError(unknown)
    if not 0 <= state < dimension:
        raise ValueError(f"state {state} outside 0..{dimension - 1}")
    p = np.zeros(dimension)
    p[state] = 1.0
    return p


def cmd_evolve(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    gen = master_eq.build_generator(params)
    p = _start_vector(cfg["start"], gen.dimension)
    times = config_list(cfg, "times", float, "a comma list of numbers")
    tol, max_horizon = config_float(cfg, "tol"), config_float(cfg, "max_horizon")
    master_eq._check_converge_settings(tol, max_horizon)  # checkpoint mode too
    if times:
        states = np.arange(gen.dimension)
        with open(out_dir / "evolve.csv", "w") as f:
            _csv.write_rows(f, "t,state,prob")
            for t, probs in zip(times, master_eq._checkpoints(gen, p, times)):
                _csv.write_rows(f, None, np.full(gen.dimension, t), states, probs)
        summary = {"start": cfg["start"], "checkpoints": times, "mode": "checkpoints"}
    else:
        final, horizon, achieved_tv = master_eq.converge_to_stationary(
            gen, p, tol, max_horizon=max_horizon
        )
        with open(out_dir / "final.csv", "w") as f:
            _csv.write_rows(f, "state,prob", np.arange(gen.dimension), final)
        summary = {
            "start": cfg["start"],
            "mode": "converge",
            "horizon": horizon,
            "achieved_tv": achieved_tv,
        }
    _write_json(out_dir / "evolve_summary.json", summary)


def cmd_simulate(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    x0 = config_int(cfg, "x0") if cfg["x0"] else params.capacity_n // 2
    cfg["x0"] = str(x0)
    t_end = config_float(cfg, "t_end")
    burn_in = config_float(cfg, "burn_in")
    seed = config_int(cfg, "seed")
    runs = config_int(cfg, "runs")
    epsilon = config_float(cfg, "epsilon")
    summary = ssa.ensemble(params, runs, x0, t_end, seed, burn_in=burn_in, epsilon=epsilon)
    with open(out_dir / "trajectory.csv", "w") as f:
        summary.first_trajectory.to_csv(f)

    states = np.arange(params.capacity_n + 1)
    with open(out_dir / "occupation.csv", "w") as f:
        _csv.write_rows(
            f, "state,density,mean_frequency",
            states, states / params.capacity_n, summary.mean_occupation,
        )
    _write_json(out_dir / "ensemble.json", {
        "extinction_mass": summary.extinction_mass,
        "persistence_mass": summary.persistence_mass,
        "epsilon": epsilon,
        "seeds": list(range(seed, seed + runs)),
        "t_end": t_end,
        "burn_in": burn_in,
    })


def cmd_ode(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    t_end = config_float(cfg, "t_end")
    grid = config_int(cfg, "grid")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if cfg["x0"]:
        x0 = config_float(cfg, "x0")
        traj = deterministic.integrate(params, x0, t_end)
        with open(out_dir / "ode.csv", "w") as f:
            traj.to_csv(f)
        _write_json(out_dir / "ode_summary.json", {
            "x0": x0,
            "classification": traj.classification,
            "x_plus": traj.x_plus,
        })
    else:
        x0s = np.linspace(0.0, 1.0, grid).tolist()
        points = [deterministic._basin_point(params, x0, t_end) for x0 in x0s]
        with open(out_dir / "basin.csv", "w") as f:
            _csv.write_rows(f, "x0,classification,t_final", x0s, *zip(*points))


def cmd_sweep(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    n_list = config_list(cfg, "n_list", int, "a comma list of integers", "integers")
    rows = stationary.mode_scaling_check(params, n_list)
    with open(out_dir / "sweep.csv", "w") as f:
        _csv.write_rows(f, "N,i_plus,mode_density,scaled_gap,discrete_exponent", *zip(*rows))


#: The one list of subcommands: each name's function and the non-model keys
#: it accepts, with defaults injected when the run starts so the emitted
#: effective config is complete.
_COMMANDS = {
    "psd": (cmd_psd, {}),
    "threshold": (cmd_threshold, {"n_list": "500,1000,2000,5000", "epsilon": "0.05"}),
    "evolve": (cmd_evolve, {"start": "delta0", "tol": "1e-8", "max_horizon": "1e6", "times": ""}),
    "simulate": (cmd_simulate, {
        "runs": "8", "x0": "", "t_end": "1000.0", "burn_in": "100.0",
        "seed": "0", "epsilon": "0.05",
    }),
    "ode": (cmd_ode, {"x0": "", "t_end": "1000.0", "grid": "100"}),
    "sweep": (cmd_sweep, {"n_list": "100,200,400,800"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alleechain",
        description="Birth-death chain numerics for the logistic model "
        "with mate limitation and immigration.",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the experiment to run")
    parser.add_argument("--config", help="flat key = value parameter file")
    parser.add_argument("--preset", help=f"named parameter set: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", help="base RNG seed (simulate)")
    parser.add_argument("--n-list", help="comma-separated capacities (threshold, sweep)")
    parser.add_argument("--epsilon", help="tail threshold (threshold, simulate)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args, args.command)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        params = params_from_config(cfg)
        with tempfile.TemporaryDirectory(dir=out_dir) as stage:
            stage = Path(stage)
            _COMMANDS[args.command][0](cfg, params, stage)
            # Re-emit the model keys canonically so the round-trip is exact even
            # if the input config spelled numbers differently.
            cfg.update(params_to_config(params))
            with open(stage / "effective_config.cfg", "w") as f:
                f.write("".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg)))
            # Publish the effective config last, so that it marks a complete
            # set. os.replace would refuse a directory target only midway.
            names = sorted(os.listdir(stage), key="effective_config.cfg".__eq__)
            for target in (out_dir / name for name in names):
                if target.is_dir():
                    raise IsADirectoryError(f"output path is a directory: {target}")
            for name in names:
                os.replace(stage / name, out_dir / name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
