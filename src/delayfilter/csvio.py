"""CSV formats for trajectories and filter output.

Measurement format: header k,y1..yl[,u1..um], one row per time step.
Trajectory files append the truth columns x1..xn,e1..ep to the same
prefix, so a trajectory file is always readable wherever measurements
are expected. Estimate files carry k,xhat1..xhatn,ehat1..ehatp,
innov1..innovl with every estimate field left empty during warm-up.
Numbers are written with full round-trip precision.
"""

from __future__ import annotations

import csv
import re

import numpy as np

from .errors import DimensionMismatch, MeasurementFileError
from .sim import Trajectory


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def _write_table(path, header: list[str], rows: np.ndarray, blank=None) -> None:
    """Write the header and one k,row line per row, every float as its repr.

    Row k is written with empty fields where blank[k] is true.
    """
    if blank is None:
        blank = np.zeros(len(rows), dtype=bool)
    empty = "," * rows.shape[1]
    lines = [",".join(header)]
    for k, (row, skip) in enumerate(zip(rows.tolist(), blank.tolist())):
        lines.append(f"{k}{empty}" if skip else f"{k}," + ",".join(map(repr, row)))
    lines.append("")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines))


def write_trajectory(path, traj: Trajectory) -> None:
    """Write a simulated trajectory (measurements plus truth columns)."""
    l, m, n, p = traj.y.shape[1], traj.u.shape[1], traj.x.shape[1], traj.e.shape[1]
    header = ["k"] + _names("y", l) + _names("u", m) + _names("x", n) + _names("e", p)
    _write_table(path, header, np.hstack([traj.y, traj.u, traj.x, traj.e]))


def read_measurements(path, l: int, m: int):
    """Read k,y1..yl[,u1..um] rows; trailing x<i>/e<i> truth columns are ignored.

    Returns (ks, y, u) with u = None when m = 0. Steps must be the
    contiguous range 0..T in order, and every sample must be finite.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise MeasurementFileError(f"cannot read measurement file {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DimensionMismatch(f"{path}: empty file") from None
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
        ks, samples = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < len(expected):
                raise DimensionMismatch(f"{path}:{line_no}: short row")
            try:
                k = float(row[0])
                samples.append([float(c) for c in row[1:len(expected)]])
            except ValueError:
                raise DimensionMismatch(f"{path}:{line_no}: non-numeric field") from None
            if not k.is_integer():
                raise DimensionMismatch(f"{path}:{line_no}: k = {row[0]!r} is not an integer")
            ks.append(int(k))
    if not ks:
        raise DimensionMismatch(f"{path}: no data rows")
    if ks != list(range(len(ks))):
        raise DimensionMismatch(f"{path}: k column must run 0..T without gaps")
    data = np.asarray(samples)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        k, col = bad[0]
        raise MeasurementFileError(
            f"{path}: non-finite {expected[1 + col]} at row k={k}")
    y = data[:, :l]
    u = data[:, l:] if m > 0 else None
    return ks, y, u


def write_estimates(path, rows, n: int, p: int, l: int) -> None:
    """Write a (T+1, n+p+l) array [xhat | ehat | innov], one line per k.

    Rows that are all NaN are the warm-up window and get empty fields.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != n + p + l:
        raise DimensionMismatch(f"estimates must be (T+1, {n + p + l}), got {rows.shape}")
    header = ["k"] + _names("xhat", n) + _names("ehat", p) + _names("innov", l)
    _write_table(path, header, rows, np.isnan(rows).all(axis=1))
