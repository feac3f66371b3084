"""Invariant zeros of (A, H, C) from the output-nulling subspace.

A zero is a complex z at which the pencil

    Z(z) = [[zI - A, H], [C, 0]]

loses column rank relative to its normal rank. They are read off the
largest subspace V* of ker C that A maps into V* + im H (Wonham, *Linear
Multivariable Control: A Geometric Approach*, 1979). When the pencil has
normal rank n + p, the columns of [V*, H] are independent, so
A V* = V* X + H Y fixes X, and the zeros are the eigenvalues of X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PencilDegenerate
from .linalg import rank_above
from .model import SystemModel

NO_ZEROS = "NoZeros"
ALL_INSIDE = "AllInsideUnitCircle"
ON_CIRCLE = "OnUnitCircle"
OUTSIDE = "OutsideUnitCircle"

UNIT_CIRCLE_TOL = 1e-9
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class ZeroReport:
    zeros: tuple            # complex, repeated per multiplicity
    normal_rank: int
    classification: str

    def to_json_dict(self) -> dict:
        groups = []
        for z, mult in _cluster(list(self.zeros)):
            groups.append({"value": [float(z.real), float(z.imag)], "multiplicity": mult})
        return {
            "zeros": groups,
            "normal_rank": self.normal_rank,
            "classification": self.classification,
        }


def rosenbrock_pencil(model: SystemModel):
    """(E, F) with Z(s) = s E - F, E = [[I, 0], [0, 0]], F = [[A, -H], [-C, 0]].

    Rank drops of Z(s) are generalized eigenvalues of the pair (F, E).
    """
    n, l, p = model.n, model.l, model.p
    E = np.zeros((n + l, n + p))
    E[:n, :n] = np.eye(n)
    F = np.zeros((n + l, n + p))
    F[:n, :n] = model.A
    F[:n, n:] = -model.H
    F[n:, :n] = -model.C
    return E, F


def _svd_rank(matrix: np.ndarray, scale: float | None = None):
    """(rank, U, Vt) of the full SVD, the rank linalg's rank_above at scale,
    which defaults to the largest singular value, the 2-norm."""
    U, s, Vt = np.linalg.svd(matrix)
    return rank_above(s, matrix.shape, s[0] if scale is None else scale), U, Vt


def _cluster(values: list[complex]) -> list[tuple[complex, int]]:
    """Greedy clustering within CLUSTER_TOL; returns (center, count) pairs."""
    groups: list[list[complex]] = []
    for z in sorted(values, key=lambda c: (c.real, c.imag)):
        for g in groups:
            center = sum(g) / len(g)
            if abs(z - center) <= CLUSTER_TOL:
                g.append(z)
                break
        else:
            groups.append([z])
    out = []
    for g in groups:
        center = sum(g) / len(g)
        if abs(center.imag) <= 1e-10 * max(1.0, abs(center.real)):
            center = complex(center.real, 0.0)
        out.append((center, len(g)))
    return out


def invariant_zeros(model: SystemModel) -> ZeroReport:
    """The eigenvalues of the map A induces on V*, with multiplicities.

    V_0 = ker C and V_(k+1) = V_k ∩ A^-1(V_k + im H), until the dimension
    stops falling: V_k a stays when A V_k a lies in the range of [V_k, H].
    Every basis comes from one SVD ranked by linalg.rank_above, judged at the
    size of what it factors: ||C|| for ker C, ||A|| for each step and 1
    for [V, H/||H||]. A dependent [V*, H] means V* meets im H, so the
    pencil's normal rank is below n + p and PencilDegenerate is raised.
    """
    A, n, p = model.A, model.n, model.p
    a_norm = float(np.linalg.svd(A, compute_uv=False)[0])      # ||A||_2, as np.linalg.norm gives it
    rank, _, Vt = _svd_rank(model.C)
    V, H = Vt[rank:].T, model.H / np.linalg.svd(model.H, compute_uv=False)[0]
    while True:
        rank, U, _ = _svd_rank(np.hstack([V, H]), 1.0)
        AV = A @ V
        drop, _, Wt = _svd_rank(AV - U[:, :rank] @ (U[:, :rank].T @ AV), a_norm)
        if drop == 0:
            break
        V = V @ Wt[drop:].T
    k = V.shape[1]
    if rank < k + p:
        raise PencilDegenerate(f"rank [V*, H] = {rank} < dim V* + p = {k + p}: pencil normal "
                               f"rank below n+p = {n + p}; no unbiased-gain theory applies")
    X = np.linalg.lstsq(np.hstack([V, model.H]), AV, rcond=None)[0][:k]
    zeros = []
    for center, mult in _cluster([complex(z) for z in np.linalg.eigvals(X)]):
        zeros.extend([center] * mult)
    zeros = tuple(sorted(zeros, key=lambda c: (c.real, c.imag)))
    return ZeroReport(zeros=zeros, normal_rank=n + p, classification=classify_zeros(zeros))


def _circle_band(rho: float, inside, on, outside):
    """inside, on or outside as rho lies below, within or above the band of
    half-width UNIT_CIRCLE_TOL about the unit circle; the one band of the package."""
    if rho > 1.0 + UNIT_CIRCLE_TOL:
        return outside
    return on if rho >= 1.0 - UNIT_CIRCLE_TOL else inside


def classify_zeros(report) -> str:
    """The band of the largest zero modulus, NoZeros without zeros."""
    zeros = report.zeros if isinstance(report, ZeroReport) else tuple(report)
    if len(zeros) == 0:
        return NO_ZEROS
    return _circle_band(max(abs(z) for z in zeros), ALL_INSIDE, ON_CIRCLE, OUTSIDE)
