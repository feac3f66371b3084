"""Dense linear-algebra helpers with the package's tolerance conventions.

Rank decisions and pseudoinverses share one relative cutoff so that the
two never disagree about what counts as numerically zero.
"""

from __future__ import annotations

import math

import numpy as np

# Relative singular-value cutoff, scaled by max(shape) at the call site.
RANK_RCOND = 1e-12


def as_float_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce nested sequences to a 2-d float array.

    Raises DimensionMismatch (not ValueError) so callers can surface a
    structured error for malformed input.
    """
    from .errors import DimensionMismatch

    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name}: not a numeric matrix ({exc})") from None
    if a.ndim != 2:
        raise DimensionMismatch(f"{name}: expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{name}: contains non-finite entries")
    return a


def numerical_rank(matrix, tol: float | None = None) -> int:
    """Number of singular values above tol of a nonempty 2-d matrix.

    Default tol is sigma_max * max(rows, cols) * 1e-12, matching the
    pseudoinverse cutoff used everywhere else in the package.
    """
    a = np.asarray(matrix, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    if tol is None:
        tol = float(s[0]) * max(a.shape) * RANK_RCOND
    return int(np.count_nonzero(s > tol))


def pinv_cut(matrix) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank cutoff."""
    a = np.asarray(matrix, dtype=float)
    return np.linalg.pinv(a, rcond=max(a.shape) * RANK_RCOND)


def is_symmetric(m, rel: float = 1e-10) -> bool:
    """Symmetry test of a nonempty square matrix, to rel * (1 + max |entry|)."""
    a = np.asarray(m, dtype=float)
    scale = 1.0 + float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - a.T))) <= rel * scale


def sym_eig_bounds(m) -> tuple[float, float]:
    """(min, max) eigenvalue of the symmetric part of m."""
    a = np.asarray(m, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    return float(w[0]), float(w[-1])


def psd_factor(m) -> np.ndarray:
    """Factor G with G @ G.T = m for symmetric PSD m.

    Eigenvalue based so that singular covariances are accepted; Cholesky
    would reject them. Tiny negative eigenvalues are clipped to zero.
    """
    a = np.asarray(m, dtype=float)
    w, u = np.linalg.eigh(0.5 * (a + a.T))
    return u * np.sqrt(np.clip(w, 0.0, None))


def spectral_radius(m) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=float)))))


def frob(m) -> float:
    """np.linalg.norm(m, "fro") of a 2-d m, bit for bit, without its dispatch."""
    v = np.asarray(m, dtype=float).ravel("K")
    return math.sqrt(v.dot(v))


def rms(a: np.ndarray) -> float:
    """Root mean square of a's entries, 0 if a is empty. The hypot of the scaled
    entries does not overflow where their squares would, so it warns on no run."""
    return float(np.hypot.reduce(a / np.sqrt(a.size), axis=None)) if a.size else 0.0


def readonly(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous copy with the write flag cleared."""
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out
