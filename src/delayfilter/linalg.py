"""Dense linear-algebra helpers with the package's tolerance conventions.

The package's one array policy is here, in three parts. as_float_array is the one
reader of every array a caller passes (as_float_vector, as_finite_vector and
as_float_matrix call it): it decides what such an array may be. readonly keeps a
caller's array: a read-only C-order copy, so no later change by the caller reaches
it. sealed keeps an array the package built: its write flag is cleared in place, and
it is not copied. The other helpers take arrays the package built.

Every rank decision in the package is rank_above: the singular values above
scale * max(shape) * RANK_RCOND, none at a zero scale. markov ranks the
Markov blocks, every S_r and the Toeplitz sweep by it, zeros each basis of
V*, model the input map H and registry a Markov-rank fact. pinv_cut cuts at
the same relative size.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionMismatch

# Relative singular-value cutoff, scaled by max(shape) at the call site.
RANK_RCOND = 1e-12
_FLOAT = np.dtype(float)


def as_float_array(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """x as a float64 array, of the given shape if one is given; a float64 ndarray is returned
    as it is, not copied. Entries are bools, integers, floats or numbers.Real objects; for a
    complex dtype, another entry, ragged nesting or another shape, DimensionMismatch names the
    argument, so no numpy error or ComplexWarning, nor a dropped imaginary part, leaves here."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT:
        try:
            a = np.asarray(x)               # ValueError on ragged nesting
            if a.dtype.kind not in "biuf" and not (     # complex, str, bytes, datetime, ...
                    a.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat)):
                raise TypeError(a.dtype)
            x = a.astype(float, copy=False)
        except (TypeError, ValueError, OverflowError):  # an int past the float range
            raise DimensionMismatch(f"{name}: not a real numeric array") from None
    if shape is not None and x.shape != shape:
        raise DimensionMismatch(f"{name} must be {shape}, got {x.shape}")
    return x


def as_float_vector(x, size: int, name: str) -> np.ndarray:
    """x, size values in any shape, as a (size,) array; a float64 vector costs one type test."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.ndim != 1:
        x = as_float_array(x, name).reshape(-1)
    if x.shape != (size,):
        raise DimensionMismatch(f"{name} must have length {size}, got {x.shape}")
    return x


def as_finite_vector(x, size: int, name: str) -> np.ndarray:
    """as_float_vector's x, which must also be finite (DimensionMismatch)."""
    x = as_float_vector(x, size, name)
    if not np.isfinite(x).all():
        raise DimensionMismatch(f"{name} must be finite")
    return x


def as_float_matrix(x, name: str, shape: tuple | None = None) -> np.ndarray:
    """as_float_array's x, which must also be 2-d and finite (DimensionMismatch)."""
    a = as_float_array(x, name, shape)
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
    s = np.linalg.svd(matrix, compute_uv=False)
    return rank_above(s, matrix.shape, s[0] if scale is None else scale)


def pinv_cut(matrix) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the package rank cutoff."""
    return np.linalg.pinv(matrix, rcond=max(matrix.shape) * RANK_RCOND)


def is_symmetric(m) -> bool:
    """Symmetry test of a nonempty square matrix, to 1e-10 (1 + max |entry|)."""
    scale = 1.0 + float(np.max(np.abs(m)))
    return float(np.max(np.abs(m - m.T))) <= 1e-10 * scale


def psd_factor(m) -> np.ndarray:
    """Factor G with G @ G.T = m for symmetric PSD m.

    Eigenvalue based so that singular covariances are accepted; Cholesky
    would reject them. Negative eigenvalues are clipped to zero: m is a
    NoiseSpec's Q or R, which passed the covariance rule (model._covariance),
    so the clip removes rounding only, unless the spec's arrays were changed
    in place after it was built.
    """
    w, u = np.linalg.eigh(0.5 * (m + m.T))
    return u * np.sqrt(np.clip(w, 0.0, None))


def spectral_radius(m) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def frob(m) -> float:
    """np.linalg.norm(m, "fro") of a 2-d m, bit for bit, without its dispatch."""
    v = np.asarray(m, dtype=float).ravel("K")
    return math.sqrt(v.dot(v))


def rms(a: np.ndarray) -> float:
    """Root mean square of a's entries, 0 if a is empty. The hypot of the scaled
    entries does not overflow where their squares would, so it warns on no run."""
    return float(np.hypot.reduce(a / np.sqrt(a.size), axis=None)) if a.size else 0.0


def readonly(a: np.ndarray) -> np.ndarray:
    """A caller's float array kept: a new C-contiguous copy with the write flag cleared."""
    return sealed(np.array(a, dtype=float, order="C"))


def sealed(a: np.ndarray) -> np.ndarray:
    """An array the package built, with its write flag cleared in place: a, not a copy."""
    a.setflags(write=False)
    return a
