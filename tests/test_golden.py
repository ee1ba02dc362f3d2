"""Byte identity of the CLI artifacts on the reference presets.

Every file a run writes is hashed with SHA-256 and compared with
`golden_manifest.json`. Byte identity is promised only for one build of
Python, numpy and scipy, so the tests skip when the running versions differ
from the ones the manifest was captured with.

After a deliberate artifact change, re-pin the manifest with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy
import pytest
import scipy

from alleechain.cli import main

MANIFEST = Path(__file__).with_name("golden_manifest.json")

_ALL = ("psd", "threshold", "evolve", "simulate", "ode", "sweep")

#: (preset, subcommand) pairs; fig2a skips the two slow subcommands.
RUNS = (
    *(("fig1a", c) for c in _ALL),
    *(("fig1b", c) for c in _ALL),
    *(("fig2a", c) for c in ("psd", "threshold", "ode", "sweep")),
)


def _versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _artifact_hashes(preset: str, command: str, out_dir: Path) -> dict[str, str]:
    argv = [command, "--preset", preset, "--out", str(out_dir)]
    if command == "simulate":
        argv += ["--seed", "0"]
    assert main(argv) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.fixture(scope="module")
def manifest() -> dict:
    data = json.loads(MANIFEST.read_text())
    if data["versions"] != _versions():
        pytest.skip(
            f"golden hashes were captured with {data['versions']}, running {_versions()}; "
            "byte identity is only promised per library build"
        )
    return data


@pytest.mark.parametrize("preset,command", RUNS, ids=[f"{p}-{c}" for p, c in RUNS])
def test_cli_artifacts_byte_identical(manifest, preset, command, tmp_path):
    assert _artifact_hashes(preset, command, tmp_path) == manifest["artifacts"][f"{preset}/{command}"]


def _capture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = {
            f"{p}/{c}": _artifact_hashes(p, c, Path(tmp) / p / c) for p, c in RUNS
        }
    MANIFEST.write_text(
        json.dumps({"versions": _versions(), "artifacts": artifacts}, indent=2, sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":
    _capture()
