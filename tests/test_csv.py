"""The CSV row writer: legacy repr rows, exact float round trips, chunking."""

from __future__ import annotations

import io

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from alleechain._csv import _CHUNK, write_rows

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
