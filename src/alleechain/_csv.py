"""The one CSV row writer behind every tabular artifact."""

#: Rows turned into Python scalars at a time: bounds the memory a million-row
#: column takes as Python objects while amortizing the per-chunk cost.
_CHUNK = 1 << 14


def write_rows(stream, header: str | None, *columns) -> None:
    """Write header, then one line per row of the equal-length columns.

    Values are written with str(): floats in shortest round-trip form
    (str(float) == repr(float)), ints and labels as they are. A None header
    appends rows to a file whose header is already written.
    """
    if header is not None:
        stream.write(header + "\n")
    line = ",".join(["{}"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]) if columns else 0, _CHUNK):
        chunk = [column[start : start + _CHUNK] for column in columns]
        values = [c.tolist() if hasattr(c, "tolist") else c for c in chunk]
        stream.write("".join(map(line.format, *values)))
