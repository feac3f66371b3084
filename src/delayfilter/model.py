"""State-space system definition, noise specification, model files.

The package works with discrete-time systems

    x[k+1] = A x[k] + B u[k] + H e[k] + w[k]
    y[k]   = C x[k] + D u[k] + v[k]

where u is a known input, e an unknown input to be reconstructed and
w, v are process and measurement noise. A validated SystemModel pins
the dimensions (n, m, l, p) = (states, known inputs, outputs, unknown
inputs) and guarantees rank(H) = p, p < n and l <= n. Absent B and D
are stored as explicit n x 0 and l x 0 zero maps so a single code path
covers systems with and without known inputs.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ModelFileError,
    NotPositiveSemidefinite,
    NotSymmetric,
    PreconditionViolated,
    QIndefinite,
    RankDeficientH,
    RNotPositiveDefinite,
    TooManyInputs,
    TooManyOutputs,
)
from .linalg import as_float_matrix, is_symmetric, numerical_rank, readonly

PSD_RTOL = 1e-10


def _covariance(a, name: str, error: type = NotPositiveSemidefinite,
                shape: tuple | None = None) -> np.ndarray:
    """a if it is a covariance by the package's one rule, else DimensionMismatch,
    NotSymmetric or error: a finite, nonempty, square matrix (of the given shape, if one
    is), symmetric to is_symmetric's tolerance, whose smallest eigenvalue is at least
    -PSD_RTOL (1 + its largest). A float64 array is returned as it is, anything else as a
    new one. NoiseSpec applies it to Q and R, init_filter and steady_state_gain to P0."""
    a = as_float_matrix(a, name, shape)
    if a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatch(f"{name} must be a nonempty square matrix, got {a.shape}")
    if not is_symmetric(a):
        raise NotSymmetric(f"{name} is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    if w[0] < -PSD_RTOL * (1.0 + w[-1]):
        raise error(f"{name} has eigenvalue {w[0]:.3e} below tolerance")
    return a


def _integer(name: str, value) -> int:
    """value as an int if it is an integral number (20, 20.0, np.int64(20)) and no bool."""
    if not isinstance(value, bool) and (isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer())):
        return int(value)
    raise DimensionMismatch(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Validated system matrices. Construct through validate_model."""

    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    C: np.ndarray
    D: np.ndarray
    n: int
    m: int
    l: int
    p: int


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Stationary noise covariances, Q of the process and R of the sensors.

    Both must pass the covariance rule (_covariance; QIndefinite, RNotPositiveDefinite),
    which R = 0 does, and are kept as read-only copies, as a SystemModel's matrices are:
    a spec cannot change after it is checked, so the memos that read it key on the spec
    object. The sizes are checked against a model where the spec meets one (_sized).
    """

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", readonly(_covariance(self.Q, "Q", QIndefinite)))
        object.__setattr__(self, "R", readonly(_covariance(self.R, "R", RNotPositiveDefinite)))


def validate_model(A, H, C, B=None, D=None) -> SystemModel:
    """Check shapes, dimension bounds and rank(H) = p; return a SystemModel.

    B and D may be None when there is no known input.
    """
    A, H, C = as_float_matrix(A, "A"), as_float_matrix(H, "H"), as_float_matrix(C, "C")

    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if H.shape[0] != n:
        raise DimensionMismatch(f"H has {H.shape[0]} rows, expected n={n}")
    if C.shape[1] != n:
        raise DimensionMismatch(f"C has {C.shape[1]} columns, expected n={n}")
    p = H.shape[1]
    l = C.shape[0]
    if p < 1:
        raise DimensionMismatch("H must have at least one column")
    if l < 1:
        raise DimensionMismatch("C must have at least one row")
    if l > n:
        raise TooManyOutputs(f"l={l} outputs exceed n={n} states")
    if p >= n:
        raise TooManyInputs(f"p={p} unknown inputs require p < n={n}")

    B = as_float_matrix(np.zeros((n, 0)) if B is None else B, "B")
    if B.shape[0] != n:
        raise DimensionMismatch(f"B has {B.shape[0]} rows, expected n={n}")
    m = B.shape[1]
    D = as_float_matrix(np.zeros((l, m)) if D is None else D, "D", (l, m))

    rank = numerical_rank(H)
    if rank < p:
        raise RankDeficientH(f"rank(H)={rank} < p={p}")

    return SystemModel(
        A=readonly(A), B=readonly(B), H=readonly(H), C=readonly(C), D=readonly(D),
        n=n, m=m, l=l, p=p,
    )


def _sized(noise: NoiseSpec | None, model: SystemModel) -> NoiseSpec:
    """noise, if Q is n x n and R is l x l for the model; else DimensionMismatch. Every
    call that reads Q or R asks here, so None, the noiseless run, is PreconditionViolated."""
    if noise is None:
        raise PreconditionViolated("this call needs a noise specification, got noise=None")
    if noise.Q.shape != (model.n, model.n):
        raise DimensionMismatch(f"Q must be {(model.n, model.n)}, got {noise.Q.shape}")
    if noise.R.shape != (model.l, model.l):
        raise DimensionMismatch(f"R must be {(model.l, model.l)}, got {noise.R.shape}")
    return noise


def validate_noise(Q, R, model: SystemModel) -> NoiseSpec:
    """The NoiseSpec of Q and R, sized for the model and with R strictly positive definite,
    as a model file's must be: the one test the spec's covariance rule leaves, on the R it
    has already checked."""
    noise = _sized(NoiseSpec(Q=Q, R=R), model)
    rmin = np.linalg.eigvalsh(0.5 * (noise.R + noise.R.T))[0]
    if rmin <= 0.0:
        raise RNotPositiveDefinite(f"R minimum eigenvalue {rmin:.3e} is not positive")
    return noise


# Model files are strict JSON: required A, H, C; optional B, D, Q, R, delay.
_REQUIRED_KEYS = ("A", "H", "C")
_OPTIONAL_KEYS = ("B", "D", "Q", "R", "delay")


def parse_model_document(doc: dict):
    """Validate a parsed model document.

    Returns (SystemModel, NoiseSpec or None, delay or None) where delay
    is an integer or the string "auto". Q and R must be given together.
    """
    if not isinstance(doc, dict):
        raise ModelFileError("model document must be a JSON object")
    unknown = set(doc) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ModelFileError(f"unknown keys in model file: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ModelFileError(f"model file missing required keys: {missing}")

    model = validate_model(doc["A"], doc["H"], doc["C"], doc.get("B"), doc.get("D"))

    noise = None
    if ("Q" in doc) != ("R" in doc):
        raise ModelFileError("Q and R must be given together")
    if "Q" in doc:
        noise = validate_noise(doc["Q"], doc["R"], model)

    delay = doc.get("delay")
    if delay not in (None, "auto") and (type(delay) is not int or delay < 0):  # not a bool
        raise ModelFileError("delay must be a nonnegative integer or \"auto\"")
    return model, noise, delay


def load_model_file(path):
    """Read and validate a JSON model file. See parse_model_document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"model file {path} is not valid JSON: {exc}") from None
    return parse_model_document(doc)
