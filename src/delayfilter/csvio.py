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


def _fmt(value) -> str:
    return repr(float(value))


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


def write_trajectory(path, traj: Trajectory, include_truth: bool = True) -> None:
    """Write a simulated trajectory (measurements plus truth columns)."""
    l = traj.y.shape[1]
    m = traj.u.shape[1]
    n = traj.x.shape[1]
    p = traj.e.shape[1]
    header = ["k"] + _names("y", l) + _names("u", m)
    if include_truth:
        header += _names("x", n) + _names("e", p)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.T + 1):
            row = [str(k)] + [_fmt(v) for v in traj.y[k]] + [_fmt(v) for v in traj.u[k]]
            if include_truth:
                row += [_fmt(v) for v in traj.x[k]] + [_fmt(v) for v in traj.e[k]]
            writer.writerow(row)


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
                ks.append(int(float(row[0])))
                samples.append([float(c) for c in row[1:len(expected)]])
            except (ValueError, OverflowError):
                raise DimensionMismatch(f"{path}:{line_no}: non-numeric field") from None
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
    """Write (k, StepOutput or None) rows; warm-up rows get empty fields."""
    header = ["k"] + _names("xhat", n) + _names("ehat", p) + _names("innov", l)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, out in rows:
            if out is None:
                writer.writerow([str(k)] + [""] * (n + p + l))
            else:
                writer.writerow(
                    [str(k)]
                    + [_fmt(v) for v in out.state_estimate]
                    + [_fmt(v) for v in out.input_estimate]
                    + [_fmt(v) for v in out.innovation]
                )
