"""Seeded inputs and reference answers for the benchmark.

Everything here is plain numpy and the standard library: trajectories
come from the benchmark's own recursion x[k+1] = A x + B u + H e,
y = C x + D u, and files are written by the benchmark itself, so a
change to the package's simulator or CSV writer can change neither the
inputs nor the truth the outputs are checked against.
"""

from __future__ import annotations

import json

import numpy as np


def trajectory(A, H, C, e, B=None, D=None, u=None):
    """Noiseless states and outputs for k = 0..T from x[0] = 0.

    e is (T+1) x p and u is (T+1) x m; returns (x, y) of shapes
    (T+1) x n and (T+1) x l.
    """
    steps, n = e.shape[0], A.shape[0]
    x = np.zeros((steps, n))
    y = np.zeros((steps, C.shape[0]))
    for k in range(steps):
        y[k] = C @ x[k] + (D @ u[k] if u is not None else 0.0)
        if k + 1 < steps:
            drive = H @ e[k] + (B @ u[k] if u is not None else 0.0)
            x[k + 1] = A @ x[k] + drive
    return x, y


def write_model(path, A, H, C, B=None, D=None) -> None:
    """A strict-JSON model file with the optional known-input maps."""
    doc = {"A": np.asarray(A).tolist(), "H": np.asarray(H).tolist(),
           "C": np.asarray(C).tolist()}
    if B is not None:
        doc["B"] = np.asarray(B).tolist()
        doc["D"] = np.asarray(D).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_measurements(path, y, u=None) -> None:
    """Header k,y1..yl[,u1..um]; floats in repr form, which round-trips."""
    cols = [f"y{i + 1}" for i in range(y.shape[1])]
    data = y
    if u is not None:
        cols += [f"u{i + 1}" for i in range(u.shape[1])]
        data = np.hstack([y, u])
    lines = [",".join(["k"] + cols)]
    lines += [",".join([str(k)] + [repr(float(v)) for v in row])
              for k, row in enumerate(data)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_estimates(path):
    """(header, rows) of an estimates CSV; warm-up rows hold None."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            fields = line.rstrip("\n").split(",")
            if fields[1] == "":
                rows.append((int(fields[0]), None))
            else:
                rows.append((int(fields[0]), np.array([float(f) for f in fields[1:]])))
    return header, rows


def random_model(rng, n: int, square: bool):
    """(A, H, C) with sparse structure and spectral radius 0.3 to 0.8.

    H drives single states and C reads one or two states, so the lower
    Markov blocks C A^d H are often exact zeros: the rank sweep then
    finds minimal delays above zero, or none at all, without rounding
    dust blurring the decision. Radii up to 0.95 let a few models per
    seed run the Riccati iteration for most of a second each, and those
    few then set a run's throughput.
    """
    while True:
        A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.35)
        A[np.arange(n - 1), np.arange(1, n)] = rng.standard_normal(n - 1)
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho < 1e-6:
            continue
        A = A * (rng.uniform(0.3, 0.8) / rho)
        p = int(rng.integers(1, max(1, n // 3) + 1))
        l = p if square else int(rng.integers(p + 1, min(n, p + 2) + 1))
        H = np.zeros((n, p))
        H[rng.choice(n, size=p, replace=False), np.arange(p)] = rng.uniform(0.5, 2.0, p)
        C = np.zeros((l, n))
        for i in range(l):
            cols = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
            C[i, cols] = rng.uniform(0.5, 2.0, len(cols))
        if np.linalg.matrix_rank(C) == l:
            return A, H, C


def minimal_delay(A, H, C):
    """Smallest r in 0..n-1 with rank S_r - rank S_(r-1) = p, else None.

    S_r = [CA^rH ... CH]. An independent numpy statement of the
    feasibility test, used to check what `analyze` reports.
    """
    n, p = H.shape
    blocks, X = [], H
    prev = 0
    for r in range(n):
        blocks.append(C @ X)
        X = A @ X
        rank = int(np.linalg.matrix_rank(np.hstack(blocks[::-1])))
        if rank - prev == p:
            return r
        prev = rank
    return None
