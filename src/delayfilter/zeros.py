"""Invariant zeros of (A, H, C) from the system pencil.

A zero is a complex z at which the pencil

    Z(z) = [[zI - A, H], [C, 0]]

loses column rank relative to its normal rank. Zeros are computed as
generalized eigenvalues of the pencil pair and then confirmed by a
rank-drop test, which filters out the spurious finite eigenvalues the
structurally singular leading matrix introduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PencilDegenerate
from .linalg import numerical_rank
from .model import SystemModel

NO_ZEROS = "NoZeros"
ALL_INSIDE = "AllInsideUnitCircle"
ON_CIRCLE = "OnUnitCircle"
OUTSIDE = "OutsideUnitCircle"

UNIT_CIRCLE_TOL = 1e-9
CLUSTER_TOL = 1e-6
# Confirmation: smallest structural singular value must drop by this factor
# relative to its typical value at non-zero sample points.
CONFIRM_RATIO = 1e-6

_SAMPLE_ANGLES = (0.7, 2.3, 3.9, 5.5)      # radians, see _rank_profile
_COMPRESS_SEED = 1729


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


def _rank_profile(E, F, radius: float):
    """(normal rank, reference smallest structural singular value).

    Z(s) = s E - F is sampled at four fixed points on the circle
    |s| = radius + 1.5, radius being the spectral radius of A, so each
    point lies at least 1.5 from every eigenvalue of A. The normal rank
    is the largest rank seen, and below n+p it raises PencilDegenerate.
    The reference is the median sigma_(n+p) over the points; a candidate
    zero must push that value down by CONFIRM_RATIO.
    """
    s = (radius + 1.5) * np.exp(1j * np.array(_SAMPLE_ANGLES))
    sv = np.linalg.svd(s[:, None, None] * E - F, compute_uv=False)
    tol = sv[:, :1] * max(E.shape) * 1e-12
    nrank = int(np.max(np.count_nonzero(sv > tol, axis=1)))
    cols = E.shape[1]
    if nrank < cols:
        raise PencilDegenerate(
            f"pencil normal rank {nrank} < n+p = {cols}; no unbiased-gain "
            "theory applies to this system"
        )
    return nrank, float(np.median(sv[:, cols - 1]))


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
    """Confirmed finite rank-drop points of the pencil, with multiplicities.

    Non-square pencils are first compressed to square by one fixed
    random row mixing; any true zero survives the compression, and the
    rank-drop confirmation removes everything the compression invents.
    Candidates of modulus beyond 1e6 * max(1, spectral radius of A) are
    treated as artifacts of the eigenvalue at infinity and dropped.
    """
    import scipy.linalg                   # slow to import; only the QZ step needs it

    E, F = rosenbrock_pencil(model)
    radius = float(np.max(np.abs(np.linalg.eigvals(model.A))))
    nrank, sigma_ref = _rank_profile(E, F, radius)
    n, l, p = model.n, model.l, model.p
    if l == p:
        Fs, Es = F, E
    else:
        rng = np.random.default_rng(_COMPRESS_SEED)
        W = rng.standard_normal((n + p, n + l))
        Fs, Es = W @ F, W @ E

    alpha, beta = scipy.linalg.eig(Fs, Es, right=False, homogeneous_eigvals=True)

    modulus_cap = 1e6 * max(1.0, radius)
    confirmed = []
    for a, b in zip(alpha, beta):
        if abs(b) <= 1e-10 * max(1.0, abs(a)):
            continue                      # eigenvalue at infinity
        z = a / b
        if abs(z) > modulus_cap:
            continue                      # infinity leaking through roundoff
        sv = np.linalg.svd(z * E - F, compute_uv=False)
        if sv[n + p - 1] <= CONFIRM_RATIO * sigma_ref:
            confirmed.append(complex(z))

    zeros = []
    for center, mult in _cluster(confirmed):
        zeros.extend([center] * mult)
    zeros = tuple(sorted(zeros, key=lambda c: (c.real, c.imag)))
    return ZeroReport(zeros=zeros, normal_rank=nrank, classification=classify_zeros(zeros))


def classify_zeros(report) -> str:
    """Classification from max modulus with a 1e-9 band at the unit circle."""
    zeros = report.zeros if isinstance(report, ZeroReport) else tuple(report)
    if len(zeros) == 0:
        return NO_ZEROS
    moduli = [abs(z) for z in zeros]
    if any(m > 1.0 + UNIT_CIRCLE_TOL for m in moduli):
        return OUTSIDE
    if any(1.0 - UNIT_CIRCLE_TOL <= m <= 1.0 + UNIT_CIRCLE_TOL for m in moduli):
        return ON_CIRCLE
    return ALL_INSIDE
