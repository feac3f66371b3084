"""CSV formats for trajectories and filter output.

Measurement format: header k,y1..yl[,u1..um], one row per time step.
Trajectory files append the truth columns x1..xn,e1..ep to the same
prefix, so a trajectory file is always readable wherever measurements
are expected. Estimate files carry k,xhat1..xhatn,ehat1..ehatp,
innov1..innovl with every estimate field left empty during warm-up.

Floats are written as %.17g, which round-trips every double exactly
(0.0 is written 0, 0.1 as 0.10000000000000001). The reader parses the
k,y,u prefix in one numpy pass; only a file that pass rejects is
scanned line by line, to skip its blank rows or name the line at fault.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np

from .errors import DimensionMismatch, MeasurementFileError
from .linalg import as_float_array
from .sim import Trajectory

_CHUNK = 4096       # rows per formatted block written to the file


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _write_table(path, header: list[str], rows: np.ndarray, blank=None) -> None:
    """Write the header and one k,row line per row, every float as %.17g.

    Row k is written with empty fields where blank[k] is true. Rows are
    formatted a chunk at a time, with one % of a line template per chunk.
    """
    width = rows.shape[1]
    full = "%d," + ",".join(["%.17g"] * width) + "\r\n"
    empty = "%d" + ",%.0s" * width + "\r\n"      # %.0s prints a value as nothing
    skip = [False] * len(rows) if blank is None else blank.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(rows), _CHUNK):
            chunk = rows[lo:lo + _CHUNK]
            template = "".join([empty if b else full for b in skip[lo:lo + _CHUNK]])
            ks = np.arange(lo, lo + len(chunk))
            fh.write(template % tuple(np.column_stack([ks, chunk]).ravel().tolist()))


def write_trajectory(path, traj: Trajectory) -> None:
    """Write a simulated trajectory (measurements plus truth columns). Its y, u, x and e
    are read by as_float_array and must be 2-d with one row count (DimensionMismatch)."""
    blocks = [as_float_array(getattr(traj, name), name) for name in "yuxe"]
    for name, a in zip("yuxe", blocks):
        if a.ndim != 2 or len(a) != len(blocks[0]):
            raise DimensionMismatch(f"{name} must be 2-d, with as many rows as y, got {a.shape}")
    header = ["k"] + [c for name, a in zip("yuxe", blocks) for c in _names(name, a.shape[1])]
    _write_table(path, header, np.hstack(blocks))


def _is_blank(row: list[str]) -> bool:
    return not "".join(row).strip()


def _numeric(cells: list[str]) -> list[float]:
    """float() of each cell, restricted to what the bulk parser reads: ASCII, no '_'."""
    text = "".join(cells)
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return list(map(float, cells))


def _scan(path, body: str, width: int, header_lines: int) -> np.ndarray:
    """The first `width` fields of body's rows as the csv module reads them.

    Skips blank rows and raises on the first short row, non-numeric field
    or fractional k, in file order, or on a body with no data rows. The
    body starts after the header's header_lines physical lines.
    """
    rows, reader, end = [], csv.reader(io.StringIO(body)), header_lines
    for row in reader:      # a quoted field may span lines; name the line the row starts on
        line_no, end = end + 1, header_lines + reader.line_num
        if _is_blank(row):
            continue
        if len(row) < width:
            raise DimensionMismatch(f"{path}:{line_no}: short row")
        try:
            values = _numeric(row[:width])
        except ValueError:
            raise DimensionMismatch(f"{path}:{line_no}: non-numeric field") from None
        if not values[0].is_integer():
            raise DimensionMismatch(f"{path}:{line_no}: k = {row[0]!r} is not an integer")
        rows.append(values)
    if not rows:
        raise DimensionMismatch(f"{path}: no data rows")
    return np.array(rows)


def read_measurements(path, l: int, m: int):
    """Read k,y1..yl[,u1..um] rows; trailing x<i>/e<i> truth columns are ignored.

    Returns (ks, y, u) with u = None when m = 0. Steps must be the
    contiguous range 0..T in order, and every sample must be finite.
    Blank rows are skipped; LF, CRLF and CR line ends read alike.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise MeasurementFileError(f"cannot read measurement file {path}: {exc}") from None
    with fh:
        try:
            head = csv.reader(fh)
            header = next(head)
            body = fh.read()
        except StopIteration:
            raise DimensionMismatch(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise MeasurementFileError(f"cannot read measurement file {path}: {exc}") from None
    expected = ["k"] + _names("y", l) + _names("u", m)
    if [h.strip() for h in header[: len(expected)]] != expected:
        raise DimensionMismatch(
            f"{path}: header starts with {header[:len(expected)]}, "
            f"expected {expected}")
    # trailing columns must look like truth columns (x3, e1, ...);
    # a stray y2 or u1 there is almost surely a dimension mistake
    for name in header[len(expected):]:
        if not re.fullmatch(r"[xe]\d+", name.strip()):
            raise DimensionMismatch(
                f"{path}: unexpected column {name.strip()!r} after the "
                f"y/u block (truth columns are x<i>/e<i>)")
    width = len(expected)
    try:
        if body.isspace() or not body:      # numpy warns on a body without rows
            raise ValueError("no data rows")
        data = np.loadtxt(io.StringIO(body), delimiter=",", usecols=range(width),
                          quotechar='"', comments=None, ndmin=2)
    except ValueError:
        data = _scan(path, body, width, head.line_num)
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        _scan(path, body, width, head.line_num)     # names a fractional k before the gap
        raise DimensionMismatch(f"{path}: k column must run 0..T without gaps")
    samples = data[:, 1:]
    bad = np.argwhere(~np.isfinite(samples))
    if bad.size:
        k, col = bad[0]
        raise MeasurementFileError(
            f"{path}: non-finite {expected[1 + col]} at row k={k}")
    y = samples[:, :l]
    u = samples[:, l:] if m > 0 else None
    return list(range(len(data))), y, u


def write_estimates(path, rows, n: int, p: int, l: int) -> None:
    """Write a (T+1, n+p+l) array [xhat | ehat | innov], one line per k.

    Rows that are all NaN are the warm-up window and get empty fields.
    """
    rows = as_float_array(rows, "estimates")
    if rows.ndim != 2 or rows.shape[1] != n + p + l:
        raise DimensionMismatch(f"estimates must be (T+1, {n + p + l}), got {rows.shape}")
    header = ["k"] + _names("xhat", n) + _names("ehat", p) + _names("innov", l)
    _write_table(path, header, rows, np.isnan(rows).all(axis=1))
