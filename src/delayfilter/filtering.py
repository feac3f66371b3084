"""The delayed recursive filter.

Measurements arrive at times k = 0, 1, 2, ... and are fed to step() in
order. The filter estimates the state r steps in the past: the call
carrying y_k (for k >= r+1) emits the smoothed estimate of x_{k-r}
together with a reconstruction of the unknown input at k-r-1. Calls
during the warm-up window k <= r only buffer known inputs and emit
nothing, because the recursion has no estimate to update yet.

run_filter() drives the same update over a whole record at once, for
one trajectory or a batch of trials. The gain schedule depends only on
(model, noise, r, P0), never on the measurements, so every trial of a
batch shares it and the estimates advance together as (trials, n) arrays.

What no measurement changes is one filter plan (_FilterOps): the
transposed model constants, the input decoder, the initial gain and, in
TimeVaryingMinVar mode, the schedule of refreshed gains. Plans are
memoised, the 16 most recent, keyed on the model object, r, the gain
mode and, for the time-varying gain, the values of Q, R and P0; a
user-supplied gain is never memoised. A schedule grows as sessions reach
steps no session reached before and keeps at most SCHEDULE_CAP entries
of n^2 + nl + (n+l)(n+l+p) floats each (the covariance, the gain and its
update map); past the cap a session refreshes its own gain. So a later
session reads the gains the first one computed, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DelayOutOfRange,
    DimensionMismatch,
    InfeasibleDelay,
    InnovationCovarianceSingular,
    NotSymmetric,
    PreconditionViolated,
)
from .gain import (
    CovarianceState,
    covariance_state,
    covariance_update,
    minvar_gain,
    square_gain,
    _checked_residual,
    _overflowed,
)
from .linalg import frob, is_symmetric, pinv_cut, readonly, spectral_radius
from .markov import _delay
from .model import NoiseSpec, SystemModel

FIXED_SQUARE = "FixedSquare"
TIME_VARYING_MINVAR = "TimeVaryingMinVar"
FIXED_USER_SUPPLIED = "FixedUserSupplied"

DEADBEAT = "DeadbeatUnbiased"
ASYMPTOTIC = "AsymptoticallyUnbiased"
PERSISTENT = "PersistentError"
DIVERGENT = "Divergent"

# Eigenvalues this small are treated as exact zeros of the error dynamics.
DEADBEAT_TOL = 1e-8
SPECTRAL_TOL = 1e-9
# Gain refresh stops once the covariance fixed point is this tight.
FREEZE_RTOL = 1e-12
# Time-varying gain steps a plan keeps; a gain that never freezes would
# otherwise grow its schedule with every step of the longest record.
SCHEDULE_CAP = 500
_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class FilterConfig:
    r: int
    gain_mode: str
    initial_estimate: np.ndarray
    initial_covariance: np.ndarray
    gain: np.ndarray | None = None      # FixedUserSupplied mode only; the others build their own


@dataclass(frozen=True, eq=False, repr=False)
class _FilterOps:
    """The filter plan: the constants every update reuses.

    Matrices are stored transposed: the update right-multiplies, so one
    code path serves (n,), a batch (trials, n) and a leading time axis.
    schedule[i] is the _Gain after the refresh of the i-th emitted step,
    filled by _gain_at; it stays empty in the fixed modes.
    """

    model: SystemModel
    noise: NoiseSpec | None             # the plan's own copy; None in the fixed modes
    r: int
    At: np.ndarray                      # A^T
    CA_rp1t: np.ndarray                 # (C A^(r+1))^T
    Bt: np.ndarray                      # B^T
    Dt: np.ndarray                      # D^T
    CAjBt: tuple                        # (C A^j B)^T for j = 0..r, () if m=0
    Gd: np.ndarray                      # the columns every update map shares
    L0: np.ndarray                      # the initial gain
    G0: np.ndarray                      # its update map
    schedule: list = field(default_factory=list, repr=False)


class _Gain(NamedTuple):
    """A gain, its update map, the covariance it leads to and whether it is final."""

    L: np.ndarray
    G: np.ndarray                       # the read-only update map under L, see _update_map
    P: CovarianceState
    frozen: bool


class FilterState(NamedTuple):
    k: int
    xhat_delayed: np.ndarray            # estimate of x at k-r-1 given k-1
    u_buffer: tuple                     # r+1 most recent known inputs, () if m=0
    gain: _Gain
    ops: _FilterOps
    noise: NoiseSpec | None             # as given to init_filter

    L = property(lambda self: self.gain.L)
    P = property(lambda self: self.gain.P)
    gain_frozen = property(lambda self: self.gain.frozen)


class StepOutput(NamedTuple):
    """One emission of step(). Its arrays are read-only views of one array."""

    k: int                              # measurement time consumed
    state_estimate: np.ndarray          # estimate of x at k-r
    input_estimate: np.ndarray          # reconstruction of e at k-r-1
    innovation: np.ndarray


def _as_vector(x, size: int, name: str) -> np.ndarray:
    """x as a float (size,) array; a float 1-d array is returned as it is."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT or x.ndim != 1:
        x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (size,):
        raise DimensionMismatch(f"{name} must have length {size}, got {x.shape}")
    return x


def init_filter(model: SystemModel, noise: NoiseSpec | None, config: FilterConfig) -> FilterState:
    """Build the initial state; the first estimate appears at k = r + 1.

    The initial_estimate seeds the delayed state chain and measurements
    y_0 .. y_r are never consumed by the update (there is nothing to
    correct against them), so a wrong seed decays per the error
    dynamics instead of being fixed during warm-up.
    """
    r = config.r
    try:
        if not _delay(model, r).feasible:
            raise InfeasibleDelay(f"no unbiased gain exists at delay {r}")
    except DelayOutOfRange as exc:
        raise InfeasibleDelay(str(exc)) from None
    r = int(r)

    x0 = _as_vector(config.initial_estimate, model.n, "initial_estimate")
    P0 = np.asarray(config.initial_covariance, dtype=float)
    if P0.shape != (model.n, model.n):
        raise DimensionMismatch(f"initial_covariance must be {(model.n, model.n)}")
    for name, a in (("initial_estimate", x0), ("initial_covariance", P0)):
        if not np.isfinite(a).all():
            raise DimensionMismatch(f"{name} must be finite")
    if not is_symmetric(P0):
        raise NotSymmetric("initial_covariance is not symmetric")

    mode = config.gain_mode
    if config.gain is not None and mode in (FIXED_SQUARE, TIME_VARYING_MINVAR):
        raise PreconditionViolated(f"{mode} builds its own gain; config.gain must be None")
    if mode == FIXED_SQUARE:
        ops = _plan(model, r, mode, None)
    elif mode == TIME_VARYING_MINVAR:
        if noise is None:
            raise PreconditionViolated("TimeVaryingMinVar needs a noise specification")
        ops = _plan(model, r, mode, tuple(map(_frozen, (noise.Q, noise.R, P0))))
    elif mode == FIXED_USER_SUPPLIED:
        if config.gain is None:
            raise PreconditionViolated("FixedUserSupplied needs config.gain")
        L = np.asarray(config.gain, dtype=float)
        # a biased gain would silently invalidate every emitted estimate
        _checked_residual(model, r, L, "supplied gain violates the unbiasedness constraint")
        ops = _new_plan(model, r, L)
    else:
        raise PreconditionViolated(f"unknown gain mode {mode!r}")
    gain = _Gain(ops.L0, ops.G0, covariance_state(P0), mode != TIME_VARYING_MINVAR)
    return FilterState(0, readonly(x0), (), gain, ops, noise)


def _frozen(a) -> tuple:
    """(shape, bytes): a hashable copy of an array's values."""
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


@lru_cache(maxsize=16)
def _plan(model: SystemModel, r: int, gain_mode: str, noise_key) -> _FilterOps:
    """The plan of a FixedSquare or TimeVaryingMinVar session, built once.

    noise_key is None, or _frozen (Q, R, P0) for the time-varying gain:
    keyed on values, a plan never outlives a change to a NoiseSpec's arrays.
    """
    if gain_mode == FIXED_SQUARE:
        return _new_plan(model, r, square_gain(model, r).L)
    Q, R, P0 = (np.frombuffer(data).reshape(shape) for shape, data in noise_key)
    noise = NoiseSpec(Q=Q, R=R)
    return _new_plan(model, r, minvar_gain(model, noise, r, P0).L, noise)


def _new_plan(model: SystemModel, r: int, L, noise: NoiseSpec | None = None) -> _FilterOps:
    """The plan of a session whose initial gain is L."""
    d = _delay(model, r)
    M_pinv = pinv_cut(d.blocks[r])      # left inverse; full column rank p at a feasible r
    At, CA_rp1t = readonly(model.A.T), readonly(d.CA[r + 1].T)
    # [innovation | ehat] = innovation [I | M^T] with innovation = z - xhat C A^(r+1)^T
    Gd = readonly(np.vstack([-CA_rp1t, np.eye(model.l)]) @ np.hstack([np.eye(model.l),
                                                                      M_pinv.T]))
    return _FilterOps(model=model, noise=noise, r=r, At=At, CA_rp1t=CA_rp1t,
                      Bt=readonly(model.B.T), Dt=readonly(model.D.T),
                      CAjBt=tuple(readonly((CA @ model.B).T) for CA in d.CA[:r + 1])
                      if model.m > 0 else (),
                      Gd=Gd, L0=readonly(L), G0=_update_map(At, CA_rp1t, Gd, L))


def _update_map(At, CA_rp1t, Gd, L) -> np.ndarray:
    """The read-only G with [xhat | z] G = [xhat' - B u[k-r-1] | innovation | ehat].

    Its first n columns stack F^T = (A - L C A^(r+1))^T on L^T; the rest are Gd.
    """
    G = np.hstack([np.vstack([At - CA_rp1t @ L.T, L.T]), Gd])
    G.setflags(write=False)
    return G


def _gain_at(ops: _FilterOps, i: int, gain: _Gain) -> _Gain:
    """The gain of the i-th emitted step, refreshed from the gain before it.

    Read from the plan's schedule when a session has been there before;
    else refreshed and, below SCHEDULE_CAP, kept for the sessions to come.
    """
    schedule = ops.schedule
    if i < len(schedule):
        return schedule[i]
    entry = _refresh_gain(ops, gain)
    if i < SCHEDULE_CAP:
        # one store, an append unless a session in another thread stored
        # an equal entry i first; below the cap no session skips an index
        schedule[i:i + 1] = [entry]
    return entry


def _refresh_gain(ops: _FilterOps, gain: _Gain) -> _Gain:
    """One time-varying gain step: the next gain, its update map and covariance.

    The gain freezes once the covariance recursion reaches its fixed point
    to FREEZE_RTOL or overflows (gain.COVARIANCE_CAP), and keeps the last
    gain once the innovation covariance turns singular, as under a divergent
    gain: divergence is information.
    """
    model, noise, P = ops.model, ops.noise, gain.P
    try:
        L = minvar_gain(model, noise, ops.r, P).L
    except InnovationCovarianceSingular:
        return gain._replace(frozen=True)
    P_next = covariance_update(model, noise, ops.r, L, P)
    P_next.P.setflags(write=False)      # shared by every session of the plan
    frozen = (_overflowed(P_next)
              or frob(P_next.P - P.P) <= FREEZE_RTOL * (1.0 + frob(P_next.P)))
    return _Gain(readonly(L), _update_map(ops.At, ops.CA_rp1t, ops.Gd, L), P_next, frozen)


# The update, shared by step() and run_filter(), is one product [xhat | z] G
# with the gain's map G (_update_map). With xhat estimating x[k-r-1],
#     xhat' = F xhat + L z[k] + B u[k-r-1],   innovation = z[k] - C A^(r+1) xhat,
# where z[k] = y[k] - D u[k] - sum_j C A^j B u[k-1-j] and ehat = (CA^rH)^+ innovation.
# run_filter() recurses on G's first n columns and applies the gain-free rest,
# Gd, to the whole record after its loop; _input_terms takes any leading axes.

def _input_terms(ops: _FilterOps, y, u, u_lags):
    """(z[k], B u[k-r-1]) with u_lags[j] = u[k-1-j]; (y, None) without known inputs."""
    if not ops.CAjBt:
        return y, None
    z = y - u @ ops.Dt
    for CAjBt, u_j in zip(ops.CAjBt, u_lags):
        z = z - u_j @ CAjBt
    return z, u_lags[ops.r] @ ops.Bt


def step(state: FilterState, model: SystemModel, noise: NoiseSpec | None,
         y_k, u_k=None):
    """Consume the measurement at the state's current time index.

    Returns (next_state, StepOutput) after warm-up and (next_state,
    None) during it. u_k is required exactly when the model has known
    inputs. model, and in TimeVaryingMinVar mode noise, must be the
    objects given to init_filter: the state's gain belongs to them.
    """
    ops, k = state.ops, state.k
    if model is not ops.model:
        raise PreconditionViolated("step got a model other than the one given to init_filter")
    if ops.noise is not None and noise is not state.noise:
        raise PreconditionViolated("step got a noise other than the one given to init_filter")
    y, u = _as_vector(y_k, model.l, "y_k"), None
    if model.m > 0:
        if u_k is None:
            raise DimensionMismatch("u_k required: the model has known inputs")
        u = _as_vector(u_k, model.m, "u_k").copy()     # kept r+1 steps: not the caller's

    if k <= ops.r:
        buf = state.u_buffer + (u,) if model.m > 0 else ()
        return state._replace(k=k + 1, u_buffer=buf), None

    gain = state.gain
    if not gain.frozen:
        gain = _gain_at(ops, k - ops.r - 1, gain)
    z, b = _input_terms(ops, y, u, state.u_buffer[::-1])
    out = np.concatenate((state.xhat_delayed, z)) @ gain.G
    n, l = model.n, model.l
    if b is not None:
        out[:n] += b
    out.setflags(write=False)           # the state and the output share it
    xhat = out[:n]
    buf = state.u_buffer[1:] + (u,) if model.m > 0 else ()
    return (FilterState(k + 1, xhat, buf, gain, ops, state.noise),
            StepOutput(k, xhat, out[n + l:], out[n:n + l]))


@dataclass(frozen=True, eq=False)
class FilterRun:
    """Estimates of a whole record, indexed by measurement time k.

    Row k >= r+1 of state_estimates estimates x[k-r], the same row of
    input_estimates reconstructs e[k-r-1], and innovations holds the
    innovation of y[k]. The warm-up rows k <= r are NaN. A batched run
    keeps the leading trial axis: (trials, T+1, n) and so on. L is the
    gain of the last step, and frozen_at the k at which a time-varying
    gain froze (None in the fixed modes or if it never froze).
    nonfinite_at is the first k whose row, in any trial, is not finite, as
    once a divergent gain's estimates overflow; None if there is none.
    """

    state_estimates: np.ndarray
    input_estimates: np.ndarray
    innovations: np.ndarray
    L: np.ndarray
    frozen_at: int | None
    nonfinite_at: int | None


def run_filter(model: SystemModel, noise: NoiseSpec | None, config: FilterConfig,
               y, u=None) -> FilterRun:
    """Drive the filter over a record y of shape (T+1, l) or (trials, T+1, l).

    Gives the same estimates as feeding step() one measurement at a
    time. u has y's leading shape with m columns; it is required when
    the model has known inputs and ignored otherwise. A batch shares one
    gain schedule, refreshed once per time step until it freezes, and
    needs O(trials (T+1) (n+l+p+m)) floats of memory. Estimates that
    overflow raise no numpy warning; nonfinite_at reports them.
    """
    state = init_filter(model, noise, config)
    y = np.asarray(y, dtype=float)
    if y.ndim not in (2, 3) or y.shape[-1] != model.l:
        raise DimensionMismatch(
            f"y must be (T+1, {model.l}) or (trials, T+1, {model.l}), got {y.shape}")
    if model.m > 0:
        if u is None:
            raise DimensionMismatch("u required: the model has known inputs")
        u = np.asarray(u, dtype=float)
        if u.shape != y.shape[:-1] + (model.m,):
            raise DimensionMismatch(
                f"u must be {y.shape[:-1] + (model.m,)}, got {u.shape}")
    else:
        u = np.zeros(y.shape[:-1] + (0,))
    # time-major views: yt[k] is (l,) for one trajectory, (trials, l) for a batch
    yt, ut = np.moveaxis(y, -2, 0), np.moveaxis(u, -2, 0)

    ops, r, n = state.ops, state.ops.r, model.n
    emitted = max(len(yt) - r - 1, 0)           # rows k = r+1 .. T
    z, b = _input_terms(ops, yt[r + 1:], ut[r + 1:],
                        [ut[r - j:r - j + emitted] for j in range(r + 1)])
    # W[i] = [xhat | z]: the estimate made at k = r+i (i = 0: the initial one) and z[k+1]
    W = np.zeros((emitted + 1,) + yt.shape[1:-1] + (n + model.l,))
    W[0, ..., :n] = state.xhat_delayed
    W[:-1, ..., n:] = z
    gain, frozen_at, i = state.gain, None, 0
    with np.errstate(over="ignore", invalid="ignore"):      # reported as nonfinite_at
        while i < emitted:
            if not gain.frozen:
                gain = _gain_at(ops, i, gain)
                frozen_at = r + 1 + i if gain.frozen else None
            stop = emitted if gain.frozen else i + 1
            Gx = np.ascontiguousarray(gain.G[:, :n])
            for j in range(i, stop):
                W[j + 1, ..., :n] = W[j] @ Gx if b is None else W[j] @ Gx + b[j]
            i = stop
        decoded = W[:-1] @ ops.Gd                           # [innovation | ehat]
    xs = W[1:, ..., :n]
    axes = tuple(range(1, xs.ndim))
    bad = np.flatnonzero(~(np.isfinite(xs).all(axis=axes) & np.isfinite(decoded).all(axis=axes)))

    def record(rows):
        out = np.full((len(yt),) + rows.shape[1:], np.nan)
        out[len(yt) - emitted:] = rows
        return np.moveaxis(out, 0, -2)

    return FilterRun(state_estimates=record(xs), input_estimates=record(decoded[..., model.l:]),
                     innovations=record(decoded[..., :model.l]), L=gain.L, frozen_at=frozen_at,
                     nonfinite_at=r + 1 + int(bad[0]) if bad.size else None)


def error_dynamics_matrix(model: SystemModel, r: int, L) -> np.ndarray:
    """A - L C A^(r+1), the autonomous map of the delayed estimation error."""
    return model.A - np.asarray(L, dtype=float) @ _delay(model, r).CA[r + 1]


def classify_convergence(model: SystemModel, r: int, L) -> str:
    """Verdict from the spectrum of the error dynamics.

    All eigenvalues at numerical zero means the noiseless error dies in
    finitely many steps; spectral radius below one means it decays; a
    radius pinned to one leaves a persistent error; beyond one the
    error grows without bound.

    A square system with n = (r+1)p at a feasible r is deadbeat by an
    integer test: the n rows of [C; CA; ...; CA^r] are independent, F is
    nilpotent on the quotient by their kernel, and that kernel is {0}.
    Its computed eigenvalues would scatter like eps^(1/n) ||F||.
    """
    _checked_residual(model, r, L, "verdict is only defined for unbiased gains")
    if model.l == model.p and model.n == (r + 1) * model.p and _delay(model, r).feasible:
        return DEADBEAT
    eigs = np.linalg.eigvals(error_dynamics_matrix(model, r, L))
    moduli = np.abs(eigs)
    if np.all(moduli <= DEADBEAT_TOL):
        return DEADBEAT
    rho = float(np.max(moduli))
    if rho < 1.0 - SPECTRAL_TOL:
        return ASYMPTOTIC
    if rho <= 1.0 + SPECTRAL_TOL:
        return PERSISTENT
    return DIVERGENT


def predicted_error_sequence(model: SystemModel, r: int, L, eps0, T: int) -> np.ndarray:
    """eps_j = (A - L C A^(r+1))^j eps0 for j = 0..T, one row per j.

    In the noiseless case this is exactly the estimation error of the
    running filter, which makes overlay comparisons against simulated
    errors meaningful.
    """
    if not isinstance(T, (int, np.integer)) or isinstance(T, bool) or T < 0:
        raise DimensionMismatch(f"T must be an integer >= 0, got {T!r}")
    eps = _as_vector(eps0, model.n, "eps0")
    M = error_dynamics_matrix(model, r, L)
    out = np.empty((T + 1, model.n))
    out[0] = eps
    for j in range(1, T + 1):
        eps = M @ eps
        out[j] = eps
    return out


def gain_spectral_radius(model: SystemModel, r: int, L) -> float:
    """Spectral radius of the error dynamics under L."""
    return spectral_radius(error_dynamics_matrix(model, r, L))
