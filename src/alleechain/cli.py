"""Command-line experiment runner.

Subcommands:
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
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import _csv, asymptotics, deterministic, master_eq, ssa, stationary
from .model import (
    CONFIG_KEYS,
    ModelParams,
    _config_value,
    config_float,
    config_int,
    config_int_list,
    parse_config,
    params_from_config,
    params_to_config,
)

#: Figure-caption parameter sets; the canonical reference configurations.
PRESETS = {
    "fig1a": {
        "lambda": "1.4", "mu": "1.0", "delta1": "0.45", "delta2": "0.1",
        "delta3": "1.45", "theta": "0.03", "N": "100", "r1": "0.99",
    },
    "fig1b": {
        "lambda": "1.7", "mu": "1.0", "delta1": "0.9", "delta2": "0.0",
        "delta3": "1.7", "theta": "0.03", "N": "100", "r1": "0.99",
    },
    "fig2a": {
        "lambda": "1.4", "mu": "1.0", "delta1": "0.45", "delta2": "0.1",
        "delta3": "1.45", "theta": "0.03", "N": "5000", "r1": "0.99",
    },
    "fig2b": {
        "lambda": "1.7", "mu": "1.0", "delta1": "0.9", "delta2": "0.0",
        "delta3": "1.7", "theta": "0.03", "N": "5000", "r1": "0.99",
    },
}

_MODEL_KEYS = set(CONFIG_KEYS)

#: Non-model keys each subcommand accepts, with defaults injected when the
#: run starts so the emitted effective config is complete.
_COMMAND_KEYS = {
    "psd": {},
    "threshold": {"n_list": "500,1000,2000,5000", "epsilon": "0.05"},
    "evolve": {"start": "delta0", "tol": "1e-8", "max_horizon": "1e6", "times": ""},
    "simulate": {
        "runs": "8", "x0": "", "t_end": "1000.0", "burn_in": "100.0",
        "seed": "0", "epsilon": "0.05",
    },
    "ode": {"x0": "", "t_end": "1000.0", "grid": "100"},
    "sweep": {"n_list": "100,200,400,800"},
}


@contextlib.contextmanager
def _write_atomic(path: Path):
    """Yield a temp file beside path; rename it into place on success and
    delete it on an exception, so partial output never lands under the name."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # no-op once renamed


def _write_json(path: Path, obj) -> None:
    with _write_atomic(path) as f:
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

    allowed = _MODEL_KEYS | set(_COMMAND_KEYS[command])
    for key in ("seed", "n_list", "epsilon"):
        value = getattr(args, key)
        if value is None:
            continue
        if key not in allowed:
            raise ValueError(f"--{key.replace('_', '-')} does not apply to the {command} command")
        cfg[key] = str(value)  # argparse parsed it; str of an int or float is its repr

    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys for {command}: {', '.join(unknown)}")
    for key, default in _COMMAND_KEYS[command].items():
        cfg.setdefault(key, default)
    return cfg


def cmd_psd(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    dist = stationary.psd_product(params)
    profile = stationary.mode_profile(dist)
    with _write_atomic(out_dir / "psd.csv") as f:
        dist.to_csv(f)
    _write_json(out_dir / "modes.json", profile.to_summary())


def cmd_threshold(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    diagnostic = asymptotics.limit_distribution_diagnostic(
        params, config_int_list(cfg, "n_list"), config_float(cfg, "epsilon")
    )
    _write_json(out_dir / "threshold.json", diagnostic.report.to_summary())
    with _write_atomic(out_dir / "diagnostic.csv") as f:
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
    times = _config_value(
        cfg, "times", lambda raw: [float(v) for v in raw.split(",") if v.strip()],
        "a comma list of numbers",
    )
    tol, max_horizon = config_float(cfg, "tol"), config_float(cfg, "max_horizon")
    if times:
        if sorted(times) != times or times[0] < 0:
            raise ValueError("times must be nonnegative and ascending")
        states = np.arange(gen.dimension)
        with _write_atomic(out_dir / "evolve.csv") as f:
            header, previous = "t,state,prob", 0.0
            for t in times:
                p = master_eq.evolve(gen, p, t - previous)
                _csv.write_rows(f, header, np.full(gen.dimension, t), states, p)
                header, previous = None, t
        summary = {"start": cfg["start"], "checkpoints": times, "mode": "checkpoints"}
    else:
        final, horizon, achieved_tv = master_eq.converge_to_stationary(
            gen, p, tol, max_horizon=max_horizon
        )
        with _write_atomic(out_dir / "final.csv") as f:
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
    with _write_atomic(out_dir / "trajectory.csv") as f:
        summary.first_trajectory.to_csv(f)

    states = np.arange(params.capacity_n + 1)
    with _write_atomic(out_dir / "occupation.csv") as f:
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
        with _write_atomic(out_dir / "ode.csv") as f:
            traj.to_csv(f)
        _write_json(out_dir / "ode_summary.json", {
            "x0": x0,
            "classification": traj.classification,
            "x_plus": traj.x_plus,
        })
    else:
        x0s = np.linspace(0.0, 1.0, grid).tolist()
        trajs = [deterministic.integrate(params, x0, t_end) for x0 in x0s]
        with _write_atomic(out_dir / "basin.csv") as f:
            _csv.write_rows(
                f, "x0,classification,t_final",
                x0s, [tr.classification for tr in trajs], [float(tr.times[-1]) for tr in trajs],
            )


def cmd_sweep(cfg: dict[str, str], params: ModelParams, out_dir: Path) -> None:
    rows = stationary.mode_scaling_check(params, config_int_list(cfg, "n_list"))
    with _write_atomic(out_dir / "sweep.csv") as f:
        _csv.write_rows(f, "N,i_plus,mode_density,scaled_gap,discrete_exponent", *zip(*rows))


_COMMANDS = {
    "psd": cmd_psd,
    "threshold": cmd_threshold,
    "evolve": cmd_evolve,
    "simulate": cmd_simulate,
    "ode": cmd_ode,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alleechain",
        description="Birth-death chain numerics for the logistic model "
        "with mate limitation and immigration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat key = value parameter file")
        p.add_argument("--preset", help=f"named parameter set: {', '.join(sorted(PRESETS))}")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, help="base RNG seed (simulate)")
        p.add_argument("--n-list", help="comma-separated capacities (threshold, sweep)")
        p.add_argument("--epsilon", type=float, help="tail threshold (threshold, simulate)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args, args.command)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        params = params_from_config(cfg)
        _COMMANDS[args.command](cfg, params, out_dir)
        # Re-emit the model keys canonically so the round-trip is exact even if
        # the input config spelled numbers differently.
        cfg.update(params_to_config(params))
        with _write_atomic(out_dir / "effective_config.cfg") as f:
            f.write("".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
