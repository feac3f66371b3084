"""Dense linear-algebra helpers with the package's tolerance conventions.

Every rank decision in the package is rank_above: the singular values above
scale * max(shape) * RANK_RCOND, none at a zero scale. markov ranks the
Markov blocks, every S_r and the Toeplitz sweep by it, zeros each basis of
V*, model the input map H and registry a Markov-rank fact. pinv_cut cuts at
the same relative size.
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
        raise DimensionMismatch(f"{name} must be finite")
    return a


def rank_above(s: np.ndarray, shape: tuple, scale: float) -> int:
    """Number of the singular values s of a matrix of this shape above
    scale * max(shape) * RANK_RCOND; 0 at a zero scale, a zero matrix."""
    return int(np.count_nonzero(s > scale * max(shape) * RANK_RCOND)) if scale else 0


def numerical_rank(matrix, scale: float | None = None) -> int:
    """rank_above of a nonempty 2-d matrix, judged at scale, by default sigma_max."""
    a = np.asarray(matrix, dtype=float)
    s = np.linalg.svd(a, compute_uv=False)
    return rank_above(s, a.shape, s[0] if scale is None else scale)


def pinv_cut(matrix) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank cutoff."""
    a = np.asarray(matrix, dtype=float)
    return np.linalg.pinv(a, rcond=max(a.shape) * RANK_RCOND)


def is_symmetric(m) -> bool:
    """Symmetry test of a nonempty square matrix, to 1e-10 (1 + max |entry|)."""
    a = np.asarray(m, dtype=float)
    scale = 1.0 + float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - a.T))) <= 1e-10 * scale


def psd_factor(m) -> np.ndarray:
    """Factor G with G @ G.T = m for symmetric PSD m.

    Eigenvalue based so that singular covariances are accepted; Cholesky
    would reject them. Negative eigenvalues are clipped to zero: m is a
    NoiseSpec's Q or R, which passed the covariance rule (model._covariance),
    so the clip removes rounding only, unless the spec's arrays were changed
    in place after it was built.
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
