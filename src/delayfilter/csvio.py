"""CSV formats for trajectories and filter output.

Measurement format: header k,y1..yl[,u1..um], one row per time step.
Trajectory files append the truth columns x1..xn,e1..ep to the same
prefix, so a trajectory file is always readable wherever measurements
are expected. Estimate files carry k,xhat1..xhatn,ehat1..ehatp,
innov1..innovl with every estimate field left empty during warm-up.

Floats are written as %.17g, which round-trips every double exactly
(0.0 is written 0, 0.1 as 0.10000000000000001). The reader parses the
k,y,u prefix in one numpy pass; only a file that pass rejects is
scanned line by line, to name the line at fault.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np

from .errors import DimensionMismatch, MeasurementFileError
from .sim import Trajectory

_CHUNK = 4096       # rows per formatted block written to the file
# a line that may hold only empty cells: whitespace, commas and quotes
_MAYBE_BLANK = r'\n(?:[^\S\n]|[,"])*(?=\n|\Z)'


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
    """Write a simulated trajectory (measurements plus truth columns)."""
    l, m, n, p = traj.y.shape[1], traj.u.shape[1], traj.x.shape[1], traj.e.shape[1]
    header = ["k"] + _names("y", l) + _names("u", m) + _names("x", n) + _names("e", p)
    _write_table(path, header, np.hstack([traj.y, traj.u, traj.x, traj.e]))


def _is_blank(row: list[str]) -> bool:
    return not row or all(not c.strip() for c in row)


def _drop_blank_rows(body: str) -> str:
    """body without its rows of empty cells, as the csv module finds them."""
    def keep(match):
        line = match.group()
        return "" if _is_blank(next(csv.reader([line[1:]]), [])) else line
    return re.sub(_MAYBE_BLANK, keep, "\n" + body.rstrip("\n"))[1:]


def _numeric(cell: str) -> float:
    """float(cell) restricted to what the bulk parser reads: ASCII, no '_'."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return float(cell)


def _diagnose(path, body: str, width: int, fault: str) -> None:
    """Name the first line the bulk parse or the k check rejected; always raises.

    Scans the data rows as the csv module reads them, in file order, and
    raises on the first short row, non-numeric field or fractional k.
    With none found the k column has a gap, or `fault` says what failed.
    """
    for line_no, row in enumerate(csv.reader(io.StringIO(body)), start=2):
        if _is_blank(row):
            continue
        if len(row) < width:
            raise DimensionMismatch(f"{path}:{line_no}: short row")
        try:
            k = _numeric(row[0])
            for c in row[1:width]:
                _numeric(c)
        except ValueError:
            raise DimensionMismatch(f"{path}:{line_no}: non-numeric field") from None
        if not k.is_integer():
            raise DimensionMismatch(f"{path}:{line_no}: k = {row[0]!r} is not an integer")
    raise DimensionMismatch(f"{path}: {fault}")


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
            header = next(csv.reader(fh))
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
    rows = _drop_blank_rows(body)
    if not rows:
        raise DimensionMismatch(f"{path}: no data rows")
    try:
        data = np.loadtxt(io.StringIO(rows), delimiter=",", usecols=range(width),
                          quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:
        _diagnose(path, body, width, str(exc))
    if not np.array_equal(data[:, 0], np.arange(len(data))):
        _diagnose(path, body, width, "k column must run 0..T without gaps")
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
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != n + p + l:
        raise DimensionMismatch(f"estimates must be (T+1, {n + p + l}), got {rows.shape}")
    header = ["k"] + _names("xhat", n) + _names("ehat", p) + _names("innov", l)
    _write_table(path, header, rows, np.isnan(rows).all(axis=1))
