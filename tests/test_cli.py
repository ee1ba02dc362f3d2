"""End-to-end runner behaviour: files, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import alleechain
from alleechain import ThresholdReport, errors, mode_profile, mode_scaling_check, psd_product
from alleechain import deterministic, params_from_config, params_to_config, ssa
from alleechain.cli import _COMMANDS, PRESETS, main

from conftest import FIG_A, FIG_B, bistable_domain, boundary_params, make_params


def run(*argv) -> int:
    return main(list(argv))


def read(path) -> str:
    return path.read_text()


def test_psd_outputs(tmp_path):
    assert run("psd", "--preset", "fig1a", "--out", str(tmp_path)) == 0
    modes = json.loads(read(tmp_path / "modes.json"))
    expected = mode_profile(psd_product(make_params(FIG_A, 100))).to_summary()
    # JSON round-trips tuples as lists
    assert modes == json.loads(json.dumps(expected))
    lines = read(tmp_path / "psd.csv").splitlines()
    assert lines[0] == "state,density,prob,log_weight"
    assert len(lines) == 102
    cfg = read(tmp_path / "effective_config.cfg")
    assert "lambda = 1.4\n" in cfg


def test_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["--help"])
    assert usage.value.code == 0
    out = capsys.readouterr().out
    for name in ("psd", "threshold", "evolve", "simulate", "ode", "sweep"):
        assert name in out


@pytest.mark.parametrize("argv", [
    [], ["--preset", "fig1a"], ["bogus", "--preset", "fig1a"], ["psd", "--preset", "fig1a", "--bogus"],
], ids=["nothing", "no command", "unknown command", "unknown flag"])
def test_usage_errors_exit_2_before_out_is_made(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as usage:
        main([*argv, "--out", str(out)] if argv else argv)
    assert usage.value.code == 2
    assert capsys.readouterr().err.startswith("usage: alleechain")
    assert not out.exists()


@pytest.mark.parametrize("argv, config, line", [
    (["simulate", "--seed", "5"], "runs = 1\nt_end = 5\nburn_in = 1\n", "seed = 5\n"),
    (["sweep", "--n-list", "50,60"], "", "n_list = 50,60\n"),
    (["threshold", "--epsilon", "0.0625", "--n-list", "100"], "", "epsilon = 0.0625\n"),
], ids=["seed", "n-list", "epsilon"])
def test_each_flag_reaches_its_config_key(tmp_path, argv, config, line):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    assert run(*argv, "--preset", "fig1a", "--config", str(path), "--out", str(out)) == 0
    assert line in read(out / "effective_config.cfg")


@pytest.mark.parametrize("command, key, value, what", [
    ("simulate", "seed", "1.5", "an integer"),
    ("simulate", "epsilon", "abc", "a number"),
    ("threshold", "epsilon", "abc", "a number"),
    ("sweep", "n_list", "50,x", "a comma list of integers"),
])
def test_a_bad_flag_value_reads_as_the_bad_config_key(tmp_path, capsys, command, key, value, what):
    """A flag is text, read by the reader of the config key it sets, so a
    bad value gives that key's message, exit 2 and no output."""
    line = f"error: config key {key!r} is not {what}: {value!r}\n"
    out = tmp_path / "flag"
    flag = f"--{key.replace('_', '-')}"
    assert run(command, "--preset", "fig1a", flag, value, "--out", str(out)) == 2
    assert capsys.readouterr().err == line
    code, config_out = _run_with_config(tmp_path, command, f"{key} = {value}\n")
    assert (code, capsys.readouterr().err) == (2, line)
    assert list(out.iterdir()) == list(config_out.iterdir()) == []


@pytest.mark.parametrize("capacity", [0, -5])
@pytest.mark.parametrize("command", ["psd", "threshold", "sweep"])
def test_a_capacity_below_two_is_config_error(tmp_path, capsys, command, capacity):
    """A config N (psd) or an --n-list entry (threshold, sweep) of 0 or -5
    reports the capacity rule, not the empty or negative schedule."""
    config = tmp_path / "n.cfg"
    config.write_text(f"N = {capacity}\n" if command == "psd" else "")
    out = tmp_path / "out"
    argv = [command, "--preset", "fig1a", "--config", str(config), "--out", str(out)]
    if command != "psd":
        argv.append(f"--n-list={capacity}")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: capacity_n must be an integer >= 2, got {capacity}\n"
    assert list(out.iterdir()) == []


def test_missing_parameters_is_config_error(tmp_path, capsys):
    assert run("psd", "--out", str(tmp_path)) == 2
    assert "preset" in capsys.readouterr().err


def test_unknown_preset_is_config_error(tmp_path):
    assert run("psd", "--preset", "bogus", "--out", str(tmp_path)) == 2


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("lambda = 1.4\nwibble = 3\n")
    assert run("psd", "--preset", "fig1a", "--config", str(cfg), "--out", str(tmp_path)) == 2


def test_flag_on_wrong_command_is_config_error(tmp_path):
    assert run("psd", "--preset", "fig1a", "--seed", "3", "--out", str(tmp_path)) == 2


def test_assumption_failure_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "lambda = 0.9\nmu = 1.0\ndelta1 = 0.2\ndelta2 = 0.0\n"
        "delta3 = 1.5\ntheta = 0.03\nN = 50\nr1 = 0.5\n"
    )
    assert run("threshold", "--config", str(cfg), "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("command", ["threshold", "sweep"])
def test_empty_n_list_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(command, "--preset", "fig1a", "--n-list", "", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: config key 'n_list' lists no integers: ''\n"
    assert list(out.iterdir()) == []


def test_non_numeric_value_message(tmp_path, capsys):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol = tight\n")
    out = tmp_path / "out"
    assert run("evolve", "--preset", "fig1a", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: config key 'tol' is not a number: 'tight'\n"
    assert list(out.iterdir()) == []


def test_ensemble_json_is_strict_without_persistence_equilibrium(tmp_path):
    cfg = tmp_path / "no_x_plus.cfg"
    cfg.write_text(
        "lambda = 0.9\nmu = 1.0\ndelta1 = 0.2\ndelta2 = 0.0\n"
        "delta3 = 1.5\ntheta = 0.03\nN = 20\nr1 = 0.5\n"
        "runs = 2\nt_end = 20\nburn_in = 2\n"
    )
    assert run("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 0

    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    summary = json.loads(read(tmp_path / "ensemble.json"), parse_constant=reject)
    assert summary["persistence_mass"] is None
    assert 0.0 <= summary["extinction_mass"] <= 1.0


def test_numerical_budget_exits_3(tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("tol = 1e-13\nmax_horizon = 2\n")
    code = run(
        "evolve", "--preset", "fig1a", "--config", str(cfg), "--out", str(tmp_path)
    )
    assert code == 3


def test_threshold_outputs(tmp_path):
    assert run(
        "threshold", "--preset", "fig2a", "--n-list", "500,1000", "--out", str(tmp_path)
    ) == 0
    report = json.loads(read(tmp_path / "threshold.json"))
    assert report["classification"] == "extinction"
    assert report["integral_value"] == pytest.approx(-0.00611319, abs=1e-6)
    lines = read(tmp_path / "diagnostic.csv").splitlines()
    assert lines[0] == "N,tail_mass,discrete_exponent"
    assert len(lines) == 3


def test_evolve_converge_outputs(tmp_path):
    assert run("evolve", "--preset", "fig1a", "--out", str(tmp_path)) == 0
    summary = json.loads(read(tmp_path / "evolve_summary.json"))
    assert summary["mode"] == "converge"
    assert summary["achieved_tv"] <= 1e-8
    final = read(tmp_path / "final.csv").splitlines()
    assert final[0] == "state,prob"
    probs = np.array([float(line.split(",")[1]) for line in final[1:]])
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_evolve_checkpoint_outputs(tmp_path):
    cfg = tmp_path / "times.cfg"
    cfg.write_text("times = 1,5\n")
    assert run(
        "evolve", "--preset", "fig1a", "--config", str(cfg), "--out", str(tmp_path)
    ) == 0
    lines = read(tmp_path / "evolve.csv").splitlines()
    assert lines[0] == "t,state,prob"
    assert len(lines) == 1 + 2 * 101
    block = np.array([float(line.split(",")[2]) for line in lines[1:102]])
    assert block.sum() == pytest.approx(1.0, abs=1e-9)


def test_evolve_rejects_unsorted_times(tmp_path):
    cfg = tmp_path / "times.cfg"
    cfg.write_text("times = 5,1\n")
    assert run(
        "evolve", "--preset", "fig1a", "--config", str(cfg), "--out", str(tmp_path)
    ) == 2


def test_failed_run_leaves_no_partial_output(tmp_path):
    # The first checkpoint's rows are already written when the second
    # exceeds the uniformization term budget; the partial file must go too.
    cfg = tmp_path / "times.cfg"
    cfg.write_text("times = 1,1e7\n")
    out = tmp_path / "out"
    assert run("evolve", "--preset", "fig1a", "--config", str(cfg), "--out", str(out)) == 3
    assert not (out / "evolve.csv").exists()
    assert list(out.iterdir()) == []


#: Settings for a short successful run of each subcommand.
_SHORT_RUNS = {
    "psd": "",
    "threshold": "n_list = 100,200\n",
    "evolve": "",
    "simulate": "runs = 1\nt_end = 20\nburn_in = 2\n",
    "ode": "x0 = 0.5\nt_end = 50\n",
    "sweep": "n_list = 100,200\n",
}


def _short_run(tmp_path, command, preset, out) -> int:
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(_SHORT_RUNS[command])
    return run(command, "--preset", preset, "--config", str(cfg), "--out", str(out))


@contextlib.contextmanager
def _disk_full_on_write(number: int):
    """Make the number-th file the CLI opens, counting from 1 (0: none),
    fail its first write with ENOSPC. Yields the names of the files opened."""
    opened = []

    def open_(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        opened.append(Path(path).name)
        if len(opened) == number:
            def write(data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            f.write = write
        return f

    with mock.patch("alleechain.cli.open", open_, create=True):
        yield opened


def _files(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.iterdir()}


def _writes(tmp_path, command) -> list[str]:
    """The files a successful run of command opens, in order."""
    with _disk_full_on_write(0) as opened:
        assert _short_run(tmp_path, command, "fig1a", tmp_path / "counted") == 0
    assert len(opened) >= 2
    return opened


@pytest.mark.parametrize("command", _SHORT_RUNS)
def test_a_full_disk_on_any_write_publishes_nothing(tmp_path, capsys, command):
    for number, name in enumerate(_writes(tmp_path, command), start=1):
        out = tmp_path / f"out{number}"
        with _disk_full_on_write(number):
            assert _short_run(tmp_path, command, "fig1a", out) == 3, name
        assert capsys.readouterr().err == "I/O failure: [Errno 28] No space left on device\n"
        assert list(out.iterdir()) == [], name


@pytest.mark.parametrize("command", _SHORT_RUNS)
def test_a_failed_rerun_leaves_the_earlier_files_as_they_were(tmp_path, command):
    # the rerun has other constants, so each file it published would differ
    out = tmp_path / "out"
    assert _short_run(tmp_path, command, "fig1a", out) == 0
    earlier = _files(out)
    for number, name in enumerate(_writes(tmp_path, command), start=1):
        with _disk_full_on_write(number):
            assert _short_run(tmp_path, command, "fig1b", out) == 3, name
        assert _files(out) == earlier, name


@pytest.mark.parametrize("name", ["psd.csv", "modes.json", "effective_config.cfg"])
def test_an_output_name_taken_by_a_directory_publishes_nothing(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run("psd", "--preset", "fig1a", "--out", str(out)) == 3
    assert capsys.readouterr().err == f"I/O failure: output path is a directory: {out / name}\n"
    assert list(out.iterdir()) == [out / name]
    assert list((out / name).iterdir()) == []


def _run_with_config(tmp_path, command, text) -> tuple[int, Path]:
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    return run(command, "--preset", "fig1a", "--config", str(cfg), "--out", str(out)), out


@pytest.mark.parametrize("text", [
    "tol = nan\n",
    "tol = inf\n",
    "tol = -1\n",
    "max_horizon = nan\n",
    "max_horizon = 0\n",
    "tol = -1\nmax_horizon = inf\n",
])
def test_evolve_rejects_non_finite_settings(tmp_path, text):
    code, out = _run_with_config(tmp_path, "evolve", text)
    assert code == 2
    assert list(out.iterdir()) == []


def test_evolve_rejects_infinite_checkpoint(tmp_path, capsys):
    code, out = _run_with_config(tmp_path, "evolve", "times = 1,inf\n")
    assert code == 2
    assert capsys.readouterr().err == (
        "error: evolution time must be finite and >= 0, got inf\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, text, message", [
    ("evolve", "times = 1,abc\n", "config key 'times' is not a comma list of numbers: '1,abc'"),
    ("evolve", "start = state:abc\n",
     "unknown start 'state:abc'; use delta0, deltaN, uniform or state:<i>"),
    # checkpoint mode never uses tol or max_horizon, but still parses them
    ("evolve", "times = 1\ntol = abc\n", "config key 'tol' is not a number: 'abc'"),
    ("evolve", "times = 1\nmax_horizon = abc\n",
     "config key 'max_horizon' is not a number: 'abc'"),
    ("evolve", "times = 1\ntol = nan\n", "tol must be finite and >= 0, got nan"),
    ("evolve", "times = 1\nmax_horizon = -3\n", "max_horizon must be finite and > 0, got -3.0"),
    # a single trajectory never uses the grid, but still checks it
    ("ode", "x0 = 0.5\ngrid = 1\n", "grid must be >= 2"),
    ("evolve", "start = bogus\n",
     "unknown start 'bogus'; use delta0, deltaN, uniform or state:<i>"),
    ("simulate", "runs = 0\n", "n_runs must be >= 1"),
])
def test_command_keys_are_checked_in_every_mode(tmp_path, capsys, command, text, message):
    code, out = _run_with_config(tmp_path, command, text)
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert list(out.iterdir()) == []


def test_a_missing_config_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    missing = tmp_path / "missing.cfg"
    assert run("psd", "--config", str(missing), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: config file not found: {missing}\n"
    assert list(out.iterdir()) == []


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("simulate", "--preset", "fig1a", "--seed", "-2", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -2\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("text", ["t_end = inf\n", "t_end = nan\n", "burn_in = nan\n"])
def test_simulate_rejects_non_finite_times(tmp_path, text):
    code, out = _run_with_config(tmp_path, "simulate", "runs = 1\n" + text)
    assert code == 2
    assert list(out.iterdir()) == []


def test_simulate_checks_burn_in_before_any_run(tmp_path, capsys):
    with mock.patch.object(ssa, "simulate", side_effect=AssertionError("a run started")):
        code, out = _run_with_config(tmp_path, "simulate", "burn_in = 5000\n")
    assert (code, capsys.readouterr().err) == (
        2, "error: burn-in 5000.0 leaves no observation window before 1000.0\n"
    )
    assert list(out.iterdir()) == []


def _loaded_by_cli_import(module: str) -> str:
    """Whether a fresh `import alleechain.cli` loads module, as printed: "True" or "False"."""
    src = str(Path(alleechain.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = f"import sys, alleechain.cli; print({module!r} in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_cli_import_leaves_out_scipy():
    # log-sum-exp, the log-factorials and the Poisson truncation point are
    # the package's own; only the oracle and the ode mode import scipy
    assert _loaded_by_cli_import("scipy") == "False"


def test_cli_import_leaves_out_scipy_stats():
    assert _loaded_by_cli_import("scipy.stats") == "False"


def test_cli_import_leaves_out_scipy_integrate():
    # the basin grid and the threshold integral are closed forms; only the
    # single-trajectory ode mode imports solve_ivp, when it runs
    assert _loaded_by_cli_import("scipy.integrate") == "False"


def test_cli_import_leaves_out_multiprocessing():
    # the CSV writer forks its helper with os.fork, never through a pool
    assert _loaded_by_cli_import("multiprocessing") == "False"


@pytest.mark.parametrize("t_end", ["nan", "inf", "0", "-5"])
def test_ode_rejects_bad_horizon(tmp_path, capsys, t_end):
    code, out = _run_with_config(tmp_path, "ode", f"t_end = {t_end}\n")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: t_end must be finite and > 0, got {float(t_end)!r}\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("r1, message", [
    ("-0.5", "immigration entries must be finite and >= 0"),
    ("abc", "config key 'r1' is not a number or a comma list of numbers: 'abc'"),
    ("0.5,0.5,0.5", "immigration schedule has length 3, expected capacity_n = 100"),
])
def test_r1_messages(tmp_path, capsys, r1, message):
    code, out = _run_with_config(tmp_path, "psd", f"r1 = {r1}\n")
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("r1", ["", ","])
def test_r1_that_lists_no_number_is_config_error(tmp_path, capsys, r1):
    code, out = _run_with_config(tmp_path, "psd", f"r1 = {r1}\n")
    assert code == 2
    assert capsys.readouterr().err == f"error: config key 'r1' lists no numbers: {r1!r}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, listed", [
    ("psd", "r1 = 0.99"),
    ("sweep", "n_list = 100,200"),
    ("evolve", "times = 1,5"),
])
def test_lists_skip_blank_entries(tmp_path, command, listed):
    # one list syntax for r1, n_list and times: a blank entry lists nothing,
    # so the run writes the same results as without it (the effective config
    # echoes the list as given)
    outputs = []
    for text in (listed, f"{listed},", f"{listed}, ,"):
        (tmp_path / text).mkdir()
        code, out = _run_with_config(tmp_path / text, command, f"{text}\n")
        assert code == 0
        outputs.append({
            path.name: path.read_bytes() for path in out.iterdir()
            if path.name != "effective_config.cfg"
        })
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_are_the_two_regimes_at_both_capacities(preset):
    base = {"a": FIG_A, "b": FIG_B}[preset[-1]]
    capacity_n = {"fig1": 100, "fig2": 5000}[preset[:-1]]
    assert params_from_config(PRESETS[preset]) == make_params(base, capacity_n)


_TYPED_ERRORS = [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
]


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(error=st.sampled_from(_TYPED_ERRORS), message=st.text(max_size=30))
def test_typed_errors_map_to_exit_codes(tmp_path, error, message):
    """ValueError subclasses exit 2 and RuntimeError subclasses exit 3."""
    assert len(_TYPED_ERRORS) == 8  # every exception class in errors.py
    assert issubclass(error, ValueError) != issubclass(error, RuntimeError)

    def fail(cfg, params, out_dir):
        raise error(message)

    out = Path(tempfile.mkdtemp(dir=tmp_path))
    stderr = io.StringIO()
    with mock.patch.dict(_COMMANDS, psd=(fail, {})), contextlib.redirect_stderr(stderr):
        code = main(["psd", "--preset", "fig1a", "--out", str(out)])
    assert list(out.iterdir()) == []
    if issubclass(error, ValueError):
        assert (code, stderr.getvalue()) == (2, f"error: {message}\n")
    else:
        assert (code, stderr.getvalue()) == (3, f"numerical failure: {message}\n")


@pytest.mark.parametrize("error, prefix", [
    # numpy's error for psd at N = 100000000000
    (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000001,)"),
     "out of memory"),
    (OverflowError(34, "Numerical result out of range"), "numerical failure"),
], ids=["memory", "overflow"])
def test_memory_and_arithmetic_errors_exit_3(tmp_path, capsys, error, prefix):
    def fail(cfg, params, out_dir):
        raise error

    out = tmp_path / "out"
    with mock.patch.dict(_COMMANDS, psd=(fail, {})):
        assert run("psd", "--preset", "fig1a", "--out", str(out)) == 3
    assert capsys.readouterr().err == f"{prefix}: {error}\n"
    assert list(out.iterdir()) == []


#: Wall time one CLI call of the contract test may take. hypothesis'
#: deadline reports a slow example only after it ends, so an alarm stops it.
_CALL_SECONDS = 10.0

#: What a failed run's one line starts with, by exit code.
_FAILURE_PREFIXES = {2: ("error: ",), 3: ("numerical failure: ", "out of memory: ", "I/O failure: ")}


class _CallTimedOut(Exception):
    """A CLI call outlived _CALL_SECONDS. Not TimeoutError: that is an
    OSError, which main would report as an I/O failure with exit 3."""


def _time_out(signum, frame):
    raise _CallTimedOut(f"the call took more than {_CALL_SECONDS} s")


def _refuse_constant(name):
    raise ValueError(f"JSON holds {name}")


@settings(max_examples=25, deadline=None)
@given(
    command=st.sampled_from(sorted(_COMMANDS)),
    params=bistable_domain().map(lambda case: case[0]) | boundary_params(max_capacity=40),
    capacity=st.integers(2, 40),
    r1=st.floats(0.0, 1.0),
    n_list=st.lists(st.integers(2, 400), min_size=1, max_size=3),
)
def test_every_run_keeps_the_cli_contract(command, params, capacity, r1, n_list):
    """Each call exits 0, 2 or 3 within _CALL_SECONDS. Exit 0 writes only
    finite numbers and strict JSON; exit 2 or 3 publishes nothing and prints
    one line with the prefix of its exit code."""
    config = {**params_to_config(params), "N": str(capacity), "r1": repr(r1)}
    if command == "simulate":
        config.update(runs="2", t_end="5", burn_in="1")
    elif command in ("threshold", "sweep"):
        config["n_list"] = ",".join(map(str, n_list))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        stderr = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _time_out)
        signal.setitimer(signal.ITIMER_REAL, _CALL_SECONDS)
        try:
            with contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(path), "--out", str(out)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2, 3)
        if code == 0:
            for csv_path in out.glob("*.csv"):
                for row in csv_path.read_text().splitlines()[1:]:
                    for field in row.split(","):
                        with contextlib.suppress(ValueError):  # a label, not a number
                            assert math.isfinite(float(field)), (csv_path.name, row)
            for json_path in out.glob("*.json"):
                json.loads(json_path.read_text(), parse_constant=_refuse_constant)
        else:
            err = stderr.getvalue()
            assert err.startswith(_FAILURE_PREFIXES[code]) and err.count("\n") == 1, err
            assert err.endswith("\n") and list(out.iterdir()) == []


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.5"])
def test_simulate_rejects_bad_epsilon(tmp_path, epsilon):
    out = tmp_path / "out"
    argv = ["simulate", "--preset", "fig1a", "--epsilon", epsilon, "--out", str(out)]
    assert run(*argv) == 2
    assert list(out.iterdir()) == []


def test_json_artifacts_reject_non_finite_values(tmp_path, monkeypatch, capsys):
    # A summary carrying infinity must fail the run, not write a bare Infinity.
    monkeypatch.setattr(ThresholdReport, "to_summary", lambda self: {"integral_value": math.inf})
    out = tmp_path / "out"
    assert run("threshold", "--preset", "fig1a", "--n-list", "100", "--out", str(out)) == 2
    assert "JSON" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_simulate_outputs_and_reruns_identically(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("simulate", "--preset", "fig1a", "--seed", "7", "--out", str(out1)) == 0
    assert run("simulate", "--preset", "fig1a", "--seed", "7", "--out", str(out2)) == 0
    for name in ("trajectory.csv", "occupation.csv", "ensemble.json", "effective_config.cfg"):
        assert read(out1 / name) == read(out2 / name)


def test_simulate_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("simulate", "--preset", "fig1a", "--seed", "1", "--out", str(out1)) == 0
    assert run("simulate", "--preset", "fig1a", "--seed", "2", "--out", str(out2)) == 0
    assert read(out1 / "trajectory.csv") != read(out2 / "trajectory.csv")


def test_effective_config_roundtrip(tmp_path):
    """Re-running from the emitted config reproduces outputs byte for byte."""
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("simulate", "--preset", "fig1b", "--seed", "5", "--out", str(out1)) == 0
    assert run(
        "simulate", "--config", str(out1 / "effective_config.cfg"), "--out", str(out2)
    ) == 0
    for name in ("trajectory.csv", "occupation.csv", "ensemble.json", "effective_config.cfg"):
        assert read(out1 / name) == read(out2 / name)


def test_ode_single_trajectory(tmp_path):
    cfg = tmp_path / "x0.cfg"
    cfg.write_text("x0 = 0.3\n")
    assert run(
        "ode", "--preset", "fig2a", "--config", str(cfg), "--out", str(tmp_path)
    ) == 0
    summary = json.loads(read(tmp_path / "ode_summary.json"))
    assert summary["classification"] == "to_x_plus"
    assert read(tmp_path / "ode.csv").splitlines()[0] == "t,density"


def test_ode_single_trajectory_stops_an_unbounded_flow(tmp_path):
    # no density dependence and R0 = 4: the density grows without bound
    code, out = _run_with_config(
        tmp_path, "ode", "x0 = 0.5\nlambda = 4\ndelta1 = 0\ndelta2 = 0\n"
    )
    assert code == 0
    assert json.loads(read(out / "ode_summary.json"))["classification"] == "undecided"
    assert float(read(out / "ode.csv").splitlines()[-1].split(",")[1]) > 1.0


def test_ode_grid_leaves_rk45_to_single_trajectory(tmp_path):
    with mock.patch.object(deterministic, "integrate", side_effect=AssertionError("RK45 ran")):
        assert run("ode", "--preset", "fig1a", "--out", str(tmp_path / "grid")) == 0
    with mock.patch.object(deterministic, "integrate", wraps=deterministic.integrate) as rk45:
        code, out = _run_with_config(tmp_path, "ode", "x0 = 0.5\n")
    assert (code, rk45.call_count) == (0, 1)
    assert sorted(path.name for path in out.iterdir()) == [
        "effective_config.cfg", "ode.csv", "ode_summary.json"
    ]


def test_ode_grid_rounding_failure_exits_3(tmp_path, capsys):
    # Next to an x+* of 4.3e4 rounding in f moves the hitting time by more
    # than 1e-6 of it; the grid points below x-* = 0.25 reach 0 first, and
    # the first one above it fails the run before any file is written
    code, out = _run_with_config(
        tmp_path, "ode", "lambda = 1.5\ndelta1 = 7.8125e-06\ndelta2 = 0\ndelta3 = 1\ntheta = 0.25\n"
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "numerical failure: hitting time from x0 = 0.25252525252525254 to 42666.16666273693 is "
    )
    assert err.endswith(", above 1e-06 of it\n")
    assert list(out.iterdir()) == []


def test_ode_basin_brackets_threshold(tmp_path):
    assert run("ode", "--preset", "fig2a", "--out", str(tmp_path)) == 0
    lines = read(tmp_path / "basin.csv").splitlines()
    assert lines[0] == "x0,classification,t_final"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 100
    last_zero = max(float(r[0]) for r in rows if r[1] == "to_zero")
    first_plus = min(float(r[0]) for r in rows if r[1] == "to_x_plus")
    assert last_zero < 0.104324 < first_plus


def test_sweep_outputs(tmp_path):
    assert run(
        "sweep", "--preset", "fig1a", "--n-list", "100,200", "--out", str(tmp_path)
    ) == 0
    lines = read(tmp_path / "sweep.csv").splitlines()
    assert lines[0] == "N,i_plus,mode_density,scaled_gap,discrete_exponent"
    rows = [line.split(",") for line in lines[1:]]
    expected = mode_scaling_check(make_params(FIG_A, 100), [100, 200])
    assert [int(r[0]) for r in rows] == [100, 200]
    assert [int(r[1]) for r in rows] == [e[1] for e in expected]
    assert float(rows[0][3]) == pytest.approx(expected[0][3], rel=1e-12)
