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
import math
import platform
import tempfile
from pathlib import Path
from unittest import mock

import numpy
import pytest
import scipy
from scipy.integrate import quad

from alleechain import build_generator, integrate, master_eq, ode_rhs, params_from_config, rate_ratio
from alleechain.cli import PRESETS, main
from alleechain.deterministic import _flow_target
from alleechain.master_eq import _DENSE_MAX_STATES
from alleechain.model import _armed_x_plus

from conftest import log_space_weights

MANIFEST = Path(__file__).with_name("golden_manifest.json")

_ALL = ("psd", "threshold", "evolve", "simulate", "ode", "sweep")

#: Manifest key -> (preset, subcommand, config text). The default modes of
#: every subcommand on fig1a/fig1b and all but the long simulate on fig2a,
#: plus the evolve checkpoint mode, the single-trajectory ode mode and a
#: short fig2a simulate whose paths span several draw blocks.
RUNS = {
    **{f"{p}/{c}": (p, c, "") for p in ("fig1a", "fig1b") for c in _ALL},
    **{f"fig2a/{c}": ("fig2a", c, "") for c in ("psd", "threshold", "evolve", "ode", "sweep")},
    "fig2a/simulate": ("fig2a", "simulate", "runs = 2\nt_end = 5\nburn_in = 1\n"),
    "fig1b/evolve-checkpoints": ("fig1b", "evolve", "start = deltaN\ntimes = 1,10,100,500\n"),
    "fig1a/ode-x0": ("fig1a", "ode", "x0 = 0.5\n"),
}


def _versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _artifact_hashes(preset: str, command: str, out_dir: Path, config: str = "") -> dict[str, str]:
    argv = [command, "--preset", preset, "--out", str(out_dir)]
    if command == "simulate":
        argv += ["--seed", "0"]
    if config:
        config_path = out_dir.with_name(out_dir.name + ".cfg")
        config_path.parent.mkdir(parents=True, exist_ok=True)
        config_path.write_text(config)
        argv += ["--config", str(config_path)]
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


@pytest.mark.parametrize("key", RUNS, ids=[key.replace("/", "-") for key in RUNS])
def test_cli_artifacts_byte_identical(manifest, key, tmp_path):
    preset, command, config = RUNS[key]
    assert _artifact_hashes(preset, command, tmp_path / "out", config) == manifest["artifacts"][key]


@pytest.mark.parametrize("key", ["fig1a/ode", "fig1b/ode", "fig2a/ode"])
def test_basin_grid_stays_within_rk45_bound(key, tmp_path):
    """The basin grids come from the hitting-time quadrature; each row keeps
    the RK45 classification and its event time within 1e-5 (relative)."""
    preset, command, config = RUNS[key]
    assert config == ""
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--out", str(out)]) == 0
    params = params_from_config(PRESETS[preset])
    rows = [line.split(",") for line in (out / "basin.csv").read_text().splitlines()[1:]]
    assert len(rows) == 100
    for x0, classification, t_final in rows:
        traj = integrate(params, float(x0), 1000.0)
        assert classification == traj.classification
        assert float(t_final) == pytest.approx(float(traj.times[-1]), rel=1e-5)


@pytest.mark.parametrize("key", ["fig1a/ode", "fig1b/ode", "fig2a/ode"])
def test_basin_grid_stays_within_quadrature_bound(key, tmp_path):
    """The closed-form hitting times keep every classification of the
    QUADPACK path they replaced, and its times within 1e-9 (relative)."""
    preset, command, _ = RUNS[key]
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--out", str(out)]) == 0
    params = params_from_config(PRESETS[preset])
    x_plus = _armed_x_plus(params)
    rows = [line.split(",") for line in (out / "basin.csv").read_text().splitlines()[1:]]
    assert len(rows) == 100
    for x0, classification, t_final in rows[1:]:  # x0 = 0 is settled at time 0
        target, boundary = _flow_target(params, float(x0), x_plus)
        old = quad(lambda x: 1.0 / ode_rhs(params, x), float(x0), boundary,
                   epsabs=1e-13, epsrel=1e-12)[0]
        assert classification == target
        assert abs(float(t_final) - old) <= 1e-9 * old


@pytest.mark.parametrize("key", ["fig1a/threshold", "fig1b/threshold", "fig2a/threshold"])
def test_threshold_integral_stays_within_quadrature_bound(key, tmp_path):
    """The closed-form integral of log f stays within 1e-12 of the QUADPACK
    value it replaced, with the same classification."""
    preset, command, _ = RUNS[key]
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--out", str(out)]) == 0
    report = json.loads((out / "threshold.json").read_text())
    params = params_from_config(PRESETS[preset])
    old = quad(lambda x: math.log(rate_ratio(params, x)), 0.0, report["x_plus"],
               epsabs=1e-9, epsrel=1e-10, limit=200)[0]
    assert abs(report["integral_value"] - old) <= 1e-12
    assert report["classification"] == ("extinction" if old < 0.0 else "persistence")


def _assert_evolve_within(key, tmp_path, patch, bound):
    """Run key as it is and under patch: each probability stays within bound
    of the patched run's, and converge mode reaches the same horizon."""
    preset, command, config = RUNS[key]
    new, old = tmp_path / "new", tmp_path / "old"
    _artifact_hashes(preset, command, new, config)
    with patch:
        _artifact_hashes(preset, command, old, config)
    name = "evolve.csv" if "times" in config else "final.csv"
    # final.csv is (state, prob); evolve.csv stacks one (t, state, prob)
    # block per checkpoint, so the bound holds per block
    got, ref = (numpy.loadtxt(d / name, delimiter=",", skiprows=1) for d in (new, old))
    assert numpy.array_equal(got[:, :-1], ref[:, :-1])
    assert numpy.abs(got[:, -1] - ref[:, -1]).max() <= bound
    summaries = [json.loads((d / "evolve_summary.json").read_text()) for d in (new, old)]
    assert summaries[0].get("horizon") == summaries[1].get("horizon")


@pytest.mark.parametrize("key", ["fig1a/evolve", "fig1b/evolve", "fig1b/evolve-checkpoints"])
def test_dense_evolve_stays_within_uniformization_bound(key, tmp_path):
    """On these 101-state chains the converge legs and checkpoints take the
    dense propagator; each probability stays within 1e-12 of the
    uniformization route (every chain above the cutoff), and converge mode
    reaches the same horizon."""
    preset, _, _ = RUNS[key]
    assert build_generator(params_from_config(PRESETS[preset])).dimension <= _DENSE_MAX_STATES
    patch = mock.patch.object(master_eq, "_DENSE_MAX_STATES", 0)
    _assert_evolve_within(key, tmp_path, patch, 1e-12)


#: fig2a/evolve as pinned before each window leg's start was trimmed to its
#: mass; with _TRIM_TOL = 0 the run writes these bytes still.
_UNTRIMMED_FIG2A_EVOLVE = {
    "effective_config.cfg": "16d12200a1238f62f50904d897d02dffd9190dfaf18b3a99ce7a8aef0492c079",
    "evolve_summary.json": "fde7885908cabd2343af10ed697afa875fcf31f46271c5b0355a125d4a3fe83b",
    "final.csv": "38f8f6008936843cbdc5437078587c574e5467e2788fcfc1d91a5af3e164b791",
}


def test_trimmed_windows_stay_within_untrimmed_bound(manifest, tmp_path):
    """Each window leg runs from its start trimmed to all but _TRIM_TOL of
    its mass; each probability stays within 1e-13 of the untrimmed run
    (_TRIM_TOL = 0, the former bytes), and converge mode reaches the same
    horizon."""
    patch = mock.patch.object(master_eq, "_TRIM_TOL", 0.0)
    _assert_evolve_within("fig2a/evolve", tmp_path, patch, 1e-13)
    untrimmed = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "old").iterdir())
    }
    assert untrimmed == _UNTRIMMED_FIG2A_EVOLVE


def _log_space_weights(
    lt, t, truncation_tol=master_eq._TRUNCATION_TOL, *, cut=master_eq._series_weights
):
    """Log-space weights of every term 0..last at the module's own cut
    (cut is bound here, before any patch)."""
    lo, weights = cut(lt, t, truncation_tol)
    return 0, log_space_weights(lt, lo + weights.size - 1)


@pytest.mark.parametrize(
    "key", ["fig1a/evolve", "fig1b/evolve", "fig2a/evolve", "fig1b/evolve-checkpoints"]
)
def test_evolve_stays_within_log_space_weights_bound(key, tmp_path):
    """The Poisson weights are the truncation window's ratio products; each
    probability stays within 1e-13 of a run on log-space weights (scipy's
    gammaln and logsumexp, the independent witness) at the same cut, and
    converge mode reaches the same horizon."""
    patch = mock.patch.object(master_eq, "_series_weights", _log_space_weights)
    _assert_evolve_within(key, tmp_path, patch, 1e-13)


def _capture() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = {
            key: _artifact_hashes(p, c, Path(tmp) / key, config)
            for key, (p, c, config) in RUNS.items()
        }
    MANIFEST.write_text(
        json.dumps({"versions": _versions(), "artifacts": artifacts}, indent=2, sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":
    _capture()
