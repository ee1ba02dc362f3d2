"""The benchmark's workloads: fixed sequences of `alleechain` CLI calls.

Each call is one op. An op runs `alleechain.cli.main(argv)` with its own
output directory; the op's label names its reference entry in
`reference.json` and, for ops that need a sibling's output (the exact law
in `psd.csv`), the preset whose `psd` op ran earlier in the same workload.
Only `simulate` receives the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

LARGE_N_LIST = "100000,200000,500000,1000000"


@dataclass(frozen=True)
class Op:
    """One CLI call: `alleechain <command> <args> [--config <file>] --out <dir>`."""

    label: str
    command: str
    args: tuple[str, ...]
    config: str = ""

    @property
    def preset(self) -> str:
        return self.label.split(".", 1)[0]

    def argv(self, out_dir: str, config_path: str | None, seed: int) -> list[str]:
        argv = [self.command, *self.args]
        if self.config:
            argv += ["--config", config_path]
        argv += ["--out", out_dir]
        if self.command == "simulate":
            argv += ["--seed", str(seed)]
        return argv


def _pipeline(preset: str, simulate_config: str = "") -> list[Op]:
    ops = []
    for command in ("psd", "threshold", "evolve", "simulate", "ode", "sweep"):
        config = simulate_config if command == "simulate" else ""
        ops.append(Op(f"{preset}.{command}", command, ("--preset", preset), config))
    return ops


WORKLOADS: dict[str, list[Op]] = {
    # N = 100: every layer is bound by Python-level overhead. Covers the
    # extinction (fig1a) and persistence (fig1b) regimes and both evolve
    # modes (converge and checkpoints).
    "fig1_pipeline": [
        *_pipeline("fig1a"),
        *_pipeline("fig1b"),
        Op("fig1b.evolve_checkpoints", "evolve", ("--preset", "fig1b"),
           "start = deltaN\ntimes = 1,10,100,500\n"),
    ],
    # N = 5000: array work dominates; uniformization on 5001-long vectors
    # and long Gillespie paths. The preset's simulate default takes ~90 s,
    # so the ensemble is shortened.
    "fig2a_pipeline": _pipeline("fig2a", "runs = 4\nt_end = 60\nburn_in = 10\n"),
    # N up to 1e6 on the fig2a constants: stationary, asymptotics and CSV
    # writers only. master_eq, ssa and deterministic never run here.
    "large_n_stationary": [
        Op("fig2a_1e6.psd", "psd", ("--preset", "fig2a"), "N = 1000000\n"),
        Op("fig2a_large.threshold", "threshold", ("--preset", "fig2a", "--n-list", LARGE_N_LIST)),
        Op("fig2a_large.sweep", "sweep", ("--preset", "fig2a", "--n-list", LARGE_N_LIST)),
    ],
}

#: Subcommands whose summed time carries weight in each workload; the others
#: still run and are checked but take only milliseconds.
WEIGHTY_SUBCOMMANDS: dict[str, tuple[str, ...]] = {
    "fig1_pipeline": ("evolve", "simulate", "ode"),
    "fig2a_pipeline": ("evolve", "simulate", "ode"),
    "large_n_stationary": ("psd", "threshold", "sweep"),
}
