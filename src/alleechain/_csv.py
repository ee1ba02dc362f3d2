"""The one CSV row writer behind every tabular artifact."""

import os
import threading

#: Rows turned into Python scalars at a time: bounds the memory a million-row
#: column takes as Python objects while amortizing the per-chunk cost.
_CHUNK = 1 << 14

#: Fewest rows for which a forked helper that formats every other chunk pays
#: for its fork and pipe.
_FORK_MIN_ROWS = 2 * _CHUNK


def write_rows(stream, header: str | None, *columns) -> None:
    """Write header, then one line per row of the equal-length columns.

    Values are written with str(): floats in shortest round-trip form
    (str(float) == repr(float)), ints and labels as they are. A None header
    appends rows to a file whose header is already written. Columns of
    unequal length raise ValueError before anything is written.

    Each chunk of rows is formatted by one % operation. On a host with two
    or more CPUs, a large table is formatted by this process and a forked
    helper, chunk by chunk in turn; the chunks are written here in order,
    so the bytes are those of the serial loop.
    """
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns must have equal lengths, got {lengths}")
    if header is not None:
        stream.write(header + "\n")
    line = ",".join(["%s"] * len(columns)) + "\n"
    rows = lengths[0] if columns else 0
    starts = range(0, rows, _CHUNK)
    if _helper_pays(rows):
        _write_with_helper(stream, line, columns, starts)
    else:
        for start in starts:
            stream.write(_format(line, columns, start))


def _format(line: str, columns, start: int) -> str:
    """The rows of the chunk at start: line, a row of %s fields, repeated
    once per row and applied to the chunk's values interleaved row by row."""
    chunk = [column[start : start + _CHUNK] for column in columns]
    values = [c.tolist() if hasattr(c, "tolist") else c for c in chunk]
    width, rows = len(values), len(values[0])
    flat = [None] * (width * rows)
    for k, column in enumerate(values):
        flat[k::width] = column
    return line * rows % tuple(flat)


def _helper_pays(rows: int) -> bool:
    # fork is only safe while no other Python thread can hold a lock.
    if rows < _FORK_MIN_ROWS or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def _write_with_helper(stream, line: str, columns, starts: range) -> None:
    """Write every chunk in order; a forked helper formats the odd ones.

    The helper sends each chunk as an 8-byte length and its UTF-8 bytes (lone
    surrogates passed through, so every str arrives as it left). The
    pipe holds far less than a chunk, so the helper runs at most about one
    chunk ahead. The helper is reaped before this returns or raises; closing
    the read end first stops a helper blocked on a full pipe.
    """
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as source, open(write_fd, "wb") as sink:
        pid = os.fork()
        if pid == 0:
            _helper(source, sink, line, columns, starts[1::2])
        sink.close()
        try:
            for k, start in enumerate(starts):
                if k % 2 == 0:
                    stream.write(_format(line, columns, start))
                else:
                    stream.write(_frame(source, k))
        finally:
            source.close()
            status = os.waitpid(pid, 0)[1]
    if status != 0:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"CSV formatting helper exited with code {code}")


def _frame(source, k: int) -> str:
    head = source.read(8)
    size = int.from_bytes(head, "little")
    data = source.read(size)
    if len(head) != 8 or len(data) != size:
        raise ChildProcessError(f"CSV formatting helper ended before chunk {k}")
    return data.decode("utf-8", "surrogatepass")


def _helper(source, sink, line: str, columns, starts: range) -> None:
    """Body of the forked helper. It never returns: os._exit skips the
    parent's exit path, so no inherited buffer (the output stream's among
    them) is flushed twice."""
    status = 1
    try:
        source.close()  # else the helper would keep its own pipe readable
        for start in starts:
            data = _format(line, columns, start).encode("utf-8", "surrogatepass")
            sink.write(len(data).to_bytes(8, "little"))
            sink.write(data)
        sink.flush()
        status = 0
    finally:
        os._exit(status)
