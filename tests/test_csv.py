"""The CSV row writer: legacy repr rows, exact float round trips, chunking,
and the forked helper that formats every other chunk of a large table."""

from __future__ import annotations

import contextlib
import io
import math
import os
import signal
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alleechain import _csv
from alleechain._csv import _CHUNK, _FORK_MIN_ROWS, write_rows
from alleechain.cli import main

#: Every finite float64 and both infinities, with the edge cases hypothesis
#: reaches for (subnormals, +-0.0, the extreme exponents) drawn often.
finite_or_inf = st.floats(allow_nan=False, width=64)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def legacy_rows(header: str, ints, floats_a, floats_b) -> str:
    lines = [header + "\n"]
    for i, a, b in zip(ints, floats_a, floats_b):
        lines.append(f"{int(i)},{float(a)!r},{float(b)!r}\n")
    return "".join(lines)


def written(header, *columns) -> str:
    buf = io.StringIO()
    write_rows(buf, header, *columns)
    return buf.getvalue()


@given(st.lists(st.tuples(int64s, finite_or_inf, finite_or_inf), max_size=60))
def test_rows_match_legacy_repr_and_round_trip(rows):
    ints = np.array([r[0] for r in rows], dtype=np.int64)
    a = np.array([r[1] for r in rows], dtype=float)
    b = np.array([r[2] for r in rows], dtype=float)
    text = written("i,a,b", ints, a, b)
    assert text == legacy_rows("i,a,b", ints, a, b)

    lines = text.splitlines()
    assert lines[0] == "i,a,b" and len(lines) == len(rows) + 1
    fields = [line.split(",") for line in lines[1:]]
    assert [int(f[0]) for f in fields] == ints.tolist()
    for k, column in ((1, a), (2, b)):
        parsed = np.array([float(f[k]) for f in fields], dtype=float)
        assert parsed.view(np.int64).tolist() == column.view(np.int64).tolist()


@given(st.lists(st.tuples(st.sampled_from(["to_zero", "to_x_plus"]), finite_or_inf), max_size=20))
def test_lists_and_labels_pass_through(rows):
    labels = [r[0] for r in rows]
    values = [r[1] for r in rows]
    expected = "x,label\n" + "".join(f"{v!r},{s}\n" for s, v in rows)
    assert written("x,label", values, labels) == expected
    assert written("x,label", tuple(values), tuple(labels)) == expected


def test_rows_cross_chunk_boundaries():
    n = 2 * _CHUNK + 3
    rng = np.random.default_rng(7)
    states = np.arange(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    text = written("state,value", states, values)
    expected = "state,value\n" + "".join(
        f"{int(i)},{float(v)!r}\n" for i, v in zip(states, values)
    )
    assert text == expected


def test_empty_columns_and_appended_rows():
    assert written("a,b") == "a,b\n"
    assert written("a,b", np.array([]), np.array([])) == "a,b\n"
    buf = io.StringIO()
    write_rows(buf, "t,p", [0.5], [1.0])
    write_rows(buf, None, [1.5], [2.0])
    assert buf.getvalue() == "t,p\n0.5,1.0\n1.5,2.0\n"


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that blocks (on a pipe or a wait) instead of hanging it,
    and one that leaves a child behind, reaped or running."""
    def expire(signum, frame):
        raise TimeoutError("still blocked after 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def two_processes(chunk: int = _CHUNK, min_rows: int = 0):
    """Take the forked-helper path on a two-CPU affinity, whatever the host has.

    Yields the pids forked, so a test can tell that the helper really ran.
    """
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(_csv, "_CHUNK", chunk), \
            mock.patch.object(_csv, "_FORK_MIN_ROWS", min_rows), \
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
            mock.patch.object(os, "fork", fork):
        yield forks


def never_forks():
    def fork():
        pytest.fail("write_rows forked a helper")

    return mock.patch.object(os, "fork", fork)


def serial_text(header, *columns) -> str:
    with mock.patch.object(_csv, "_FORK_MIN_ROWS", math.inf):
        return written(header, *columns)


#: Values the float formatting must keep exact across the pipe.
edge_floats = st.sampled_from([
    5e-324, -5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308,
    0.0, -0.0, math.inf, -math.inf, 1e16, -1e16, 1e-5, 1.7976931348623157e308,
])
#: Labels: any text without a separator, lone surrogates included; str()
#: writes them as they are.
labels = st.text(st.characters(blacklist_characters=",\r\n"), max_size=5)


@st.composite
def tables(draw):
    """A chunk size and rows of k*chunk - 1, k*chunk or k*chunk + 1 rows of
    (int64, float, edge-heavy float, label)."""
    chunk = draw(st.sampled_from([1, 2, 3, 8]))
    rows = max(0, draw(st.integers(1, 5)) * chunk + draw(st.sampled_from([-1, 0, 1])))
    row = st.tuples(int64s, finite_or_inf, st.one_of(edge_floats, finite_or_inf), labels)
    return chunk, draw(st.lists(row, min_size=rows, max_size=rows))


def table_columns(rows):
    return (
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=float),
        [r[2] for r in rows],
        [r[3] for r in rows],
    )


@settings(max_examples=80, deadline=None)
@given(table=tables(), append=st.booleans())
@example(table=(2, [(k, -0.0, 5e-324, "x") for k in range(5)]), append=False)  # 3 chunks
@example(table=(3, [(k, 1e16, 1e-5, "\udc80") for k in range(9)]), append=True)
def test_two_processes_write_the_serial_bytes(table, append):
    chunk, rows = table
    columns = table_columns(rows)
    expected = serial_text("i,a,b,label", *columns)
    assert expected == "i,a,b,label\n" + "".join(f"{i},{a!r},{b!r},{s}\n" for i, a, b, s in rows)
    with two_processes(chunk) as forks:
        if append:
            buf = io.StringIO()
            write_rows(buf, "i,a,b,label")
            half = len(rows) // 2
            write_rows(buf, None, *(c[:half] for c in columns))
            write_rows(buf, None, *(c[half:] for c in columns))
            text = buf.getvalue()
        else:
            text = written("i,a,b,label", *columns)
    assert forks
    assert text == expected


@pytest.mark.parametrize("rows", [
    2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK, 4 * _CHUNK + 1,
])
def test_chunk_boundaries_through_a_file(tmp_path, rows):
    rng = np.random.default_rng(rows)
    states = np.arange(rows)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    expected = serial_text("state,value", states, values)
    path = tmp_path / "out.csv"
    with two_processes(min_rows=_FORK_MIN_ROWS) as forks:
        with open(path, "w") as f:
            write_rows(f, "state,value", states, values)
    assert len(forks) == (rows >= _FORK_MIN_ROWS)
    assert path.read_bytes() == expected.encode()


# A failed write leaves a partial file behind; main's staged publish keeps
# it out of --out (the two psd tests below).
def test_a_failing_helper_raises_and_is_reaped(tmp_path):
    parent = os.getpid()
    real_format = _csv._format

    def format_in_parent_only(line, columns, start):
        if os.getpid() != parent:
            raise MemoryError("helper out of memory")
        return real_format(line, columns, start)

    path = tmp_path / "out.csv"
    with two_processes(chunk=4) as forks, \
            mock.patch.object(_csv, "_format", format_in_parent_only):
        with pytest.raises(ChildProcessError, match="ended before chunk 1"):
            with open(path, "w") as f:
                write_rows(f, "state", np.arange(40))
    assert len(forks) == 1


def test_a_helper_exit_status_is_checked(tmp_path):
    real_exit = os._exit
    path = tmp_path / "out.csv"
    # the helper sends every frame, then exits non-zero
    with two_processes(chunk=4) as forks, \
            mock.patch.object(os, "_exit", lambda status: real_exit(7)):
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            with open(path, "w") as f:
                write_rows(f, "state", np.arange(40))
    assert len(forks) == 1


def test_a_failing_helper_in_psd_exits_3_and_leaves_no_file(tmp_path, capsys):
    # N = 32768: psd.csv has 32769 rows, enough for the helper
    config = tmp_path / "large.cfg"
    config.write_text("N = 32768\n")
    out = tmp_path / "out"
    parent = os.getpid()
    real_format = _csv._format

    def format_in_parent_only(line, columns, start):
        if os.getpid() != parent:
            raise MemoryError("helper out of memory")
        return real_format(line, columns, start)

    with two_processes(min_rows=_FORK_MIN_ROWS) as forks, \
            mock.patch.object(_csv, "_format", format_in_parent_only):
        code = main(["psd", "--preset", "fig1a", "--config", str(config), "--out", str(out)])
    assert code == 3 and len(forks) == 1
    assert capsys.readouterr().err == (
        "I/O failure: CSV formatting helper ended before chunk 1\n"
    )
    assert list(out.iterdir()) == []


def test_a_helper_exit_status_in_psd_exits_3_and_leaves_no_file(tmp_path, capsys):
    config = tmp_path / "large.cfg"
    config.write_text("N = 32768\n")
    out = tmp_path / "out"
    real_exit = os._exit
    with two_processes(min_rows=_FORK_MIN_ROWS) as forks, \
            mock.patch.object(os, "_exit", lambda status: real_exit(7)):
        code = main(["psd", "--preset", "fig1a", "--config", str(config), "--out", str(out)])
    assert code == 3 and len(forks) == 1
    assert capsys.readouterr().err == (
        "I/O failure: CSV formatting helper exited with code 7\n"
    )
    assert list(out.iterdir()) == []


def test_an_out_path_under_a_regular_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["psd", "--preset", "fig1a", "--out", str(blocker / "sub")]) == 3
    assert capsys.readouterr().err.startswith("I/O failure: [Errno 20] Not a directory")
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


@pytest.mark.parametrize("constant, command, message", [
    # the rates overflow to inf: psd wrote nan probabilities and evolve
    # failed on a NaN horizon
    *(
        pytest.param("lambda = 1e308", command, "rates must be finite and >= 0", id=f"{command}-2")
        for command in ("psd", "evolve")
    ),
    # the balance discriminant overflows in float arithmetic, which exited 3
    # with "(34, 'Numerical result out of range')"; simulate, which never
    # ended on infinite rates and reached the discriminant only after its
    # last run on finite ones, now checks x+* before its first run
    *(
        pytest.param(
            constant, command, f"the balance discriminant is not finite at R0 = {r0}",
            id=f"{command}-2{suffix}",
        )
        for constant, r0, suffix in (
            ("lambda = 1e308", "1e+308", ""), ("mu = 1e-300", "1.4e+300", "-tiny-mu"),
        )
        for command in ("simulate", "ode", "threshold", "sweep")
    ),
])
def test_overflowing_rates_fail_fast_and_write_nothing(tmp_path, capsys, constant, command, message):
    config = tmp_path / "huge.cfg"
    config.write_text(constant + "\n")
    out = tmp_path / "out"
    assert main([command, "--preset", "fig1a", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("preset, start, bound", [
    ("fig2b", "delta0", "1.17e+19"), ("fig2a", "deltaN", "2.01e+24"),
    ("fig2a", "uniform", "1.69e+24"),
])
def test_unreachable_point_mass_starts_exit_3_at_once(tmp_path, capsys, preset, start, bound):
    # the legs ran for 78 s (fig2b), about 225 s (fig2a from deltaN) and
    # about 4.5 min (fig2a from the spread uniform start) before a leg
    # exceeded the term budget
    config = tmp_path / "start.cfg"
    config.write_text(f"start = {start}\n")
    out = tmp_path / "out"
    began = time.monotonic()
    assert main(["evolve", "--preset", preset, "--config", str(config), "--out", str(out)]) == 3
    assert time.monotonic() - began < 30.0
    assert capsys.readouterr().err.startswith(
        f"numerical failure: total variation 1.0e-08 needs horizon >= {bound} from this start"
    )
    assert list(out.iterdir()) == []


class FullDisk(io.StringIO):
    def write(self, text):
        if self.tell() > 0:  # the header goes through, the first chunk does not
            raise OSError(28, "No space left on device")
        return super().write(text)


def test_a_parent_write_error_still_reaps_a_blocked_helper():
    # four full chunks: each frame overfills the pipe, so the helper is
    # blocked on it when the parent gives up
    states = np.arange(4 * _CHUNK)
    with two_processes() as forks:
        with pytest.raises(OSError, match="No space left"):
            write_rows(FullDisk(), "state,value", states, states / 7.0)
    assert len(forks) == 1


@pytest.fixture
def idle_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    yield
    stop.set()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_one_cpu_never_forks():
    states = np.arange(3 * _CHUNK)
    with mock.patch.object(os, "sched_getaffinity", return_value={0}), never_forks():
        assert written("s", states) == "s\n" + "".join(f"{i}\n" for i in range(3 * _CHUNK))


def test_a_live_thread_never_forks(idle_thread):
    states = np.arange(3 * _CHUNK)
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), never_forks():
        assert written("s", states) == "s\n" + "".join(f"{i}\n" for i in range(3 * _CHUNK))


def test_a_short_table_never_forks():
    states = np.arange(_FORK_MIN_ROWS - 1)
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), never_forks():
        assert written("s", states) == "s\n" + "".join(f"{i}\n" for i in states.tolist())


def test_no_fork_means_serial(monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    states = np.arange(3 * _CHUNK)
    assert written("s", states) == "s\n" + "".join(f"{i}\n" for i in range(3 * _CHUNK))


def reference_rows(header: str, *columns) -> str:
    """The writer's former loop: one str.format of a "{},{}\\n" line per row."""
    line = ",".join(["{}"] * len(columns)) + "\n"
    values = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
    return header + "\n" + "".join(map(line.format, *values))


#: Floats on both sides of repr's switches to exponent form (>= 1e16 and
#: < 1e-4), the subnormals and the extremes.
repr_switch_floats = st.sampled_from([
    9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16, 1e-4, 9.999999999999999e-05,
    1.0000000000000002e-4, -1e-4, 5e-324, -5e-324, 2.2250738585072014e-308,
    0.0, -0.0, math.inf, -math.inf, 1.7976931348623157e308, -1.7976931348623157e308,
])
any_float = st.one_of(repr_switch_floats, finite_or_inf)
#: Labels that would be format directives if they were read as a template.
tricky_labels = st.one_of(
    st.sampled_from(["%", "%s", "%%", "%(x)s", "{}", "{0}", "}{", "\udc80", "a%sb{}"]),
    st.text(max_size=4),
)
column_kinds = {
    "float64": lambda v: np.array(v, dtype=float),
    "int64": lambda v: np.array(v, dtype=np.int64),
    "numpy scalars": tuple,
    "bool or None": list,
    "label": list,
}
kind_values = {
    "float64": any_float,
    "int64": st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 0, -1]), int64s),
    "numpy scalars": st.one_of(any_float.map(np.float64), int64s.map(np.int64)),
    "bool or None": st.sampled_from([True, False, None]),
    "label": tricky_labels,
}


@st.composite
def mixed_tables(draw):
    """A chunk size and 1 to 4 columns of any kind a caller passes, with row
    counts around multiples of the chunk."""
    chunk = draw(st.sampled_from([1, 2, 3, 8]))
    rows = max(0, draw(st.integers(0, 4)) * chunk + draw(st.sampled_from([-1, 0, 1])))
    kinds = draw(st.lists(st.sampled_from(sorted(column_kinds)), min_size=1, max_size=4))
    columns = [
        column_kinds[kind](draw(st.lists(kind_values[kind], min_size=rows, max_size=rows)))
        for kind in kinds
    ]
    return chunk, columns


@settings(max_examples=120, deadline=None)
@given(table=mixed_tables())
@example(table=(2, [np.array([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, -0.0])]))
@example(table=(1, [(np.float64(5e-324), np.int64(-(2**63))), [True, None], ["%s", "\udc80"]]))
def test_chunk_format_matches_the_reference_loop(table):
    chunk, columns = table
    expected = reference_rows("h", *columns)
    with mock.patch.object(_csv, "_CHUNK", chunk):
        assert serial_text("h", *columns) == expected
    with two_processes(chunk):
        assert written("h", *columns) == expected


@pytest.mark.parametrize("path", ["serial", "helper"])
def test_unequal_columns_raise_before_writing(path):
    columns = (np.arange(40), np.arange(39) / 7.0)
    buf = io.StringIO()
    with two_processes(chunk=4, min_rows=0 if path == "helper" else math.inf) as forks:
        with pytest.raises(ValueError, match=r"equal lengths, got \[40, 39\]"):
            write_rows(buf, "state,value", *columns)
    assert forks == [] and buf.getvalue() == ""
    # the helper path is taken once the lengths agree
    with two_processes(chunk=4, min_rows=0 if path == "helper" else math.inf) as forks:
        write_rows(buf, "state,value", columns[0][:39], columns[1])
    assert len(forks) == (path == "helper")
    assert buf.getvalue() == reference_rows("state,value", columns[0][:39], columns[1])
