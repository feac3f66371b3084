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
The schedule freezes by steady_state_gain's rules, and the update, the
scan gate and the verdict read gain's one error map F = A - L C A^(r+1).
The update is one product of the raw row [xhat | y[k] | u[k] ... u[k-r-1]]
with an update map whose last (r+2)m rows carry the known inputs.
Once the gain is frozen and its error map stable, the rest of the record
advances by a two-level block scan in about 2 sqrt(N) array steps instead
of N; run_filter() says how its rounding differs from step()'s.

What no measurement changes is one filter plan (_FilterOps): the initial
gain, its update map, whether its error map is stable and, in
TimeVaryingMinVar mode, the schedule of refreshed gains; the gain-free
constants stay in the model's profile (markov's _Delay). FixedSquare and
TimeVaryingMinVar plans are memoised together by _plan, the 16 most recent,
keyed on the model object and r, and for TimeVaryingMinVar on the NoiseSpec
object and the values of P0; a FixedUserSupplied plan is built per session.
A schedule grows as sessions reach steps no session reached before and
keeps at most SCHEDULE_CAP entries of n^2 + nl + (n+l+(r+2)m)(n+l+p) floats
each (the covariance, the gain and its update map); past the cap a session
refreshes its own gain. So a later session reads the gains the first one
computed, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InnovationCovarianceSingular,
    NonFiniteSample,
    PreconditionViolated,
)
from .gain import (
    CovarianceState,
    covariance_state,
    covariance_update,
    minvar_gain,
    square_gain,
    _checked_gain,
    _checked_residual,
    _error_map,
    _overflowed,
    _settled,
)
from .linalg import (as_finite_vector, as_float_array, as_float_vector, readonly, sealed,
                     spectral_radius)
from .markov import _Delay, _delay, _feasible
from .model import NoiseSpec, SystemModel, _covariance, _integer, _sized
from .zeros import _circle_band

FIXED_SQUARE = "FixedSquare"
TIME_VARYING_MINVAR = "TimeVaryingMinVar"
FIXED_USER_SUPPLIED = "FixedUserSupplied"

DEADBEAT = "DeadbeatUnbiased"
ASYMPTOTIC = "AsymptoticallyUnbiased"
PERSISTENT = "PersistentError"
DIVERGENT = "Divergent"

# Eigenvalues this small are treated as exact zeros of the error dynamics.
DEADBEAT_TOL = 1e-8
# Time-varying gain steps a plan keeps; a gain that never freezes would
# otherwise grow its schedule with every step of the longest record.
SCHEDULE_CAP = 500
# step() builds its NamedTuples by tuple.__new__, skipping the generated
# constructor's argument binding: it passes every field, in order
_tuple = tuple.__new__


@dataclass(frozen=True)
class FilterConfig:
    r: int
    gain_mode: str
    initial_estimate: np.ndarray
    initial_covariance: np.ndarray
    gain: np.ndarray | None = None      # FixedUserSupplied mode only; the others build their own


@dataclass(frozen=True, eq=False, repr=False)
class _FilterOps:
    """The filter plan: the gains every update uses, beside the constants in d.

    Update maps are stored transposed: the update right-multiplies, so one
    code path serves (n,), a batch (trials, n) and a leading time axis.
    schedule[i] is the _Gain after the refresh of the i-th emitted step,
    filled by _gain_at; it stays empty in the fixed modes.
    """

    model: SystemModel
    noise: NoiseSpec | None             # the spec init_filter was given; None in the fixed modes
    r: int
    d: _Delay                           # the model's constants at r
    L0: np.ndarray                      # the initial gain
    G0: np.ndarray                      # its update map
    stable0: bool                       # _Gain.stable of the initial gain
    schedule: list = field(default_factory=list, repr=False)


class _Gain(NamedTuple):
    """A gain, its update map, the covariance it leads to, whether it is final and
    whether run_filter scans under it (_recurse)."""

    L: np.ndarray
    G: np.ndarray                       # the read-only update map under L, see _update_map
    P: CovarianceState
    frozen: bool
    stable: bool                        # frozen, with rho(F) < 1 (_stable); False while unfrozen


class FilterState(NamedTuple):
    k: int
    xhat_delayed: np.ndarray            # estimate of x at k-r-1 given k-1
    u_buffer: tuple                     # r+1 most recent known inputs, () if m=0
    gain: _Gain
    ops: _FilterOps

    L = property(lambda self: self.gain.L)
    P = property(lambda self: self.gain.P)
    gain_frozen = property(lambda self: self.gain.frozen)


class StepOutput(NamedTuple):
    """One emission of step(). Its arrays are read-only views of one array."""

    k: int                              # measurement time consumed
    state_estimate: np.ndarray          # estimate of x at k-r
    input_estimate: np.ndarray          # reconstruction of e at k-r-1
    innovation: np.ndarray


def init_filter(model: SystemModel, noise: NoiseSpec | None, config: FilterConfig) -> FilterState:
    """Build the initial state; the first estimate appears at k = r + 1.

    The initial_estimate seeds the delayed state chain and measurements
    y_0 .. y_r are never consumed by the update (there is nothing to
    correct against them), so a wrong seed decays per the error
    dynamics instead of being fixed during warm-up. The initial_covariance
    must pass the covariance rule (model._covariance) and be n x n, in
    every gain mode.
    """
    d = _feasible(model, config.r)
    r = d.r

    x0 = as_finite_vector(config.initial_estimate, model.n, "initial_estimate")
    P0 = _covariance(config.initial_covariance, "initial_covariance", shape=(model.n, model.n))

    mode = config.gain_mode
    if config.gain is not None and mode in (FIXED_SQUARE, TIME_VARYING_MINVAR):
        raise PreconditionViolated(f"{mode} builds its own gain; config.gain must be None")
    if mode == FIXED_SQUARE:
        ops = _plan(model, r, None, None)
    elif mode == TIME_VARYING_MINVAR:
        ops = _plan(model, r, _sized(noise, model), P0.tobytes())
    elif mode == FIXED_USER_SUPPLIED:
        if config.gain is None:
            raise PreconditionViolated("FixedUserSupplied needs config.gain")
        L = as_float_array(config.gain, "gain")
        # a biased gain would silently invalidate every emitted estimate
        _checked_residual(model, d, L, "supplied gain violates the unbiasedness constraint")
        ops = _new_plan(model, d, L)
    else:
        raise PreconditionViolated(f"unknown gain mode {mode!r}")
    gain = _Gain(ops.L0, ops.G0, covariance_state(P0), mode != TIME_VARYING_MINVAR, ops.stable0)
    sealed(gain.P.P)                    # the first refresh reads it into the plan's schedule
    return FilterState(0, readonly(x0), (), gain, ops)


@lru_cache(maxsize=16)
def _plan(model: SystemModel, r: int, noise: NoiseSpec | None, P0: bytes | None) -> _FilterOps:
    """The plan of a FixedSquare (noise None) or TimeVaryingMinVar session, built once.

    A FixedSquare plan is the square gain, gated by square_gain's residual
    check, its update map and its scan verdict, shared by every session of
    (model, r). A TimeVaryingMinVar plan is keyed, like the model, on the
    NoiseSpec object, which cannot change after it is checked, and on the
    bytes of the n x n P0, which each session's FilterConfig holds anew.
    Threads that miss the memo at once each build an equal plan, and the
    memo keeps one of them.
    """
    d = _feasible(model, r)
    if noise is None:
        return _new_plan(model, d, square_gain(model, r).L)
    P_prev = np.frombuffer(P0).reshape(model.n, model.n)
    return _new_plan(model, d, minvar_gain(model, noise, r, P_prev).L, noise)


def _new_plan(model: SystemModel, d: _Delay, L, noise: NoiseSpec | None = None) -> _FilterOps:
    """The plan at d of a session whose initial gain is L; frozen, and so given its
    scan verdict, in the fixed modes (noise None)."""
    G = _update_map(model, d, L)
    return _FilterOps(model=model, noise=noise, r=d.r, d=d, L0=readonly(L), G0=G,
                      stable0=noise is None and _stable(G, model.n))


def _update_map(model: SystemModel, d: _Delay, L) -> np.ndarray:
    """The read-only G with [xhat | y[k] | u[k] ... u[k-r-1]] G = [xhat' | innovation | ehat].

    Its first n columns stack F^T (gain._error_map), L^T and u's rows
    d.Zu L^T, with B^T added on the rows of u[k-r-1]; the rest are d.Gd.
    """
    Gu = d.Zu @ L.T
    Gu[len(Gu) - model.m:] += model.B.T
    return sealed(np.hstack([np.vstack([_error_map(model, d, L).T, L.T, Gu]), d.Gd]))


def _stable(G: np.ndarray, n: int) -> bool:
    """Whether the error map F under update map G (whose G[:n, :n] is F^T) has spectral
    radius below 1: the scan verdict of a frozen gain, taken once where the gain freezes."""
    return spectral_radius(G[:n, :n]) < 1.0


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

    The gain freezes by the rules that stop steady_state_gain: once the
    covariance step settles (gain._settled) or overflows (gain.COVARIANCE_CAP),
    and, keeping the last gain, once the innovation covariance turns singular,
    as under a divergent gain: divergence is information. A gain that freezes
    takes its scan verdict (_stable) here, once for every session of the plan.
    """
    model, noise, P = ops.model, ops.noise, gain.P
    try:
        L = minvar_gain(model, noise, ops.r, P).L
    except InnovationCovarianceSingular:
        return gain._replace(frozen=True, stable=_stable(gain.G, model.n))
    P_next = covariance_update(model, noise, ops.r, L, P)
    sealed(P_next.P)                    # shared by every session of the plan
    frozen = _overflowed(P_next) or _settled(P, P_next)
    G = _update_map(model, ops.d, L)
    return _Gain(sealed(L), G, P_next, frozen, frozen and _stable(G, model.n))


# The update, shared by step() and run_filter(), is one product of the raw row
# [xhat | y[k] | u[k] ... u[k-r-1]] with the gain's map G (_update_map). With xhat
# estimating x[k-r-1],
#     xhat' = F xhat + L z[k] + B u[k-r-1],   innovation = z[k] - C A^(r+1) xhat,
# ehat = (CA^rH)^+ innovation and z[k] = y[k] - D u[k] - sum_j C A^j B u[k-1-j],
# which is y[k] + [u[k] ... u[k-r-1]] Zu. run_filter() recurses on G's first n
# columns, by steps or by _scan, and applies the gain-free rest, Gd, after.


def step(state: FilterState, model: SystemModel, noise: NoiseSpec | None,
         y_k, u_k=None):
    """Consume the measurement at the state's current time index.

    Returns (next_state, StepOutput) after warm-up and (next_state,
    None) during it. u_k is required exactly when the model has known
    inputs. model, and in TimeVaryingMinVar mode noise, must be the
    objects given to init_filter: the state's gain belongs to them.
    """
    k, xhat, buffer, gain, ops = state
    if model is not ops.model:
        raise PreconditionViolated("step got a model other than the one given to init_filter")
    if ops.noise is not None and noise is not ops.noise:
        raise PreconditionViolated("step got a noise other than the one given to init_filter")
    y, u = as_float_vector(y_k, model.l, "y_k"), ()   # u: (u_k,) if the model has known inputs
    if model.m > 0:
        if u_k is None:
            raise DimensionMismatch("u_k required: the model has known inputs")
        u = (as_float_vector(u_k, model.m, "u_k").copy(),)  # kept r+1 steps: not the caller's

    if k <= ops.r:
        return state._replace(k=k + 1, u_buffer=buffer + u), None

    if not gain.frozen:
        gain = _gain_at(ops, k - ops.r - 1, gain)
    # ndarray.dot makes the same BLAS call as @ with less dispatch around it
    out = np.concatenate((xhat, y) + u + buffer[::-1]).dot(gain.G)
    n, l = model.n, model.l
    out.setflags(write=False)           # the state and the output share it
    xhat = out[:n]
    return (_tuple(FilterState, (k + 1, xhat, buffer[1:] + u, gain, ops)),
            _tuple(StepOutput, (k, xhat, out[n + l:], out[n:n + l])))


@dataclass(frozen=True, eq=False)
class FilterRun:
    """Estimates of a whole record, indexed by measurement time k.

    Row k >= r+1 of state_estimates estimates x[k-r], the same row of
    input_estimates reconstructs e[k-r-1], and innovations holds the
    innovation of y[k]. The warm-up rows k <= r are NaN. A batched run
    keeps the leading trial axis: (trials, T+1, n) and so on. L is the
    gain of the last step, and frozen_at the k at which a time-varying
    gain froze (None in the fixed modes or if it never froze).
    nonfinite_at is the first k whose row, in any trial, is not finite; None
    if there is none. run_filter rejects non-finite samples first, so a row
    is not finite only once a divergent gain's estimates overflow.
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

    Runs the update of step(). u has y's leading shape with m columns; it
    is required when the model has known inputs and ignored otherwise. A
    batch shares one gain schedule, refreshed once per time step until it
    freezes. Its memory is the record, the recursion's W of n + l + (r+2)m
    columns (each estimate beside the raw row it is updated with; no z or
    B u array is formed) and the outputs: O(trials (T+1) (n+l+p+(r+2)m)) floats.

    Every sample the filter reads must be finite, y from k = r+1 on and u
    from k = 0 on, or NonFiniteSample names the first bad (trial, k,
    column); y's unread warm-up rows may hold anything. So a non-finite
    estimate is an overflow: it raises no numpy warning, and nonfinite_at
    reports it.

    It is the recursion (_recurse), which fills the state estimates, plus
    the outputs: the decode of every row into its innovation and input
    reconstruction, the nonfinite_at sweep and the NaN-padded records.
    monte_carlo_bias runs the recursion alone, on samples it drew itself.

    Rows are stepped one product each while the gain is refreshed. The
    frozen tail is scanned (_scan) when its error map F has spectral radius
    below 1; otherwise it is stepped too, so a divergent map overflows where
    stepping says. The scan's rounding grows with the square of F's largest
    transient max_t ||F^t||, stepping's only with the transient itself: on
    the bundled examples and the drawn test models the two agree within
    1e-12 of the largest value, but a stable map with a large transient can
    lose more accuracy scanned than stepped.
    """
    state, y, u = _validated(model, noise, config, y, u)
    _reject_nonfinite(y, u, state.ops.r)
    W, gain, frozen_at = _recurse(state, y, u)
    rows, emitted, n = y.shape[-2], len(W) - 1, model.n
    with np.errstate(over="ignore", invalid="ignore"):      # reported as nonfinite_at
        decoded = W[:-1] @ state.ops.d.Gd                   # [innovation | ehat]
    xs = W[1:, ..., :n]
    axes = tuple(range(1, xs.ndim))
    bad = np.flatnonzero(~(np.isfinite(xs).all(axis=axes) & np.isfinite(decoded).all(axis=axes)))

    def record(a):
        out = np.empty((rows,) + a.shape[1:])
        out[:rows - emitted] = np.nan                       # the warm-up rows
        out[rows - emitted:] = a
        return np.moveaxis(out, 0, -2)

    return FilterRun(state_estimates=record(xs), input_estimates=record(decoded[..., model.l:]),
                     innovations=record(decoded[..., :model.l]), L=gain.L, frozen_at=frozen_at,
                     nonfinite_at=state.ops.r + 1 + int(bad[0]) if bad.size else None)


def _validated(model: SystemModel, noise: NoiseSpec | None, config: FilterConfig, y, u):
    """(initial state, y, u) of a record, validated; u is zero-width without known inputs."""
    state = init_filter(model, noise, config)
    y = as_float_array(y, "y")
    if y.ndim not in (2, 3) or y.shape[-1] != model.l:
        raise DimensionMismatch(
            f"y must be (T+1, {model.l}) or (trials, T+1, {model.l}), got {y.shape}")
    if model.m > 0:
        if u is None:
            raise DimensionMismatch("u required: the model has known inputs")
        u = as_float_array(u, "u", y.shape[:-1] + (model.m,))
    else:
        u = np.zeros(y.shape[:-1] + (0,))
    return state, y, u


def _reject_nonfinite(y, u, r: int) -> None:
    """Raise NonFiniteSample at the first non-finite sample the recursion reads.

    It reads y from row r+1 on and u from row 0 on. Checked in run_filter,
    not in _recurse, so that monte_carlo_bias does not pay for it.
    """
    for name, a, first in (("y", y, r + 1), ("u", u, 0)):
        bad = ~np.isfinite(a[..., first:, :])
        if bad.any():
            *trial, k, column = np.argwhere(bad)[0]
            at = f"trial {trial[0]}, " if trial else ""
            raise NonFiniteSample(f"{name} is not finite at {at}k={first + k}, column {column}; "
                                  f"the filter reads y from k={r + 1} on and u from k=0 on")


def _recurse(state: FilterState, y, u):
    """run_filter's recursion from _validated's (state, y, u): (W, last gain, frozen_at).

    W is time-major: W[i, ..., :n] is the state estimate made at k = r+i
    (i = 0: the initial one), the estimate of x[k-r], and the rest of W[i]
    is the raw row it is updated with, [y[k+1] | u[k+1] | u[k] ... u[k-r]].
    Whether the frozen tail is scanned is the gain's own verdict (_Gain.stable),
    taken when it froze, so a run computes no spectrum.
    """
    # time-major views: yt[k] is (l,) for one trajectory, (trials, l) for a batch
    yt, ut = np.moveaxis(y, -2, 0), np.moveaxis(u, -2, 0)
    ops, r = state.ops, state.ops.r
    n, l, m = ops.model.n, ops.model.l, ops.model.m
    emitted = max(len(yt) - r - 1, 0)           # rows k = r+1 .. T
    W = np.zeros((emitted + 1,) + yt.shape[1:-1] + (n + l + (r + 2) * m,))
    W[0, ..., :n] = state.xhat_delayed
    W[:-1, ..., n:n + l] = yt[r + 1:]
    for j in range(r + 2):                      # block j holds u[k+1-j]
        W[:-1, ..., n + l + j * m:n + l + (j + 1) * m] = ut[r + 1 - j:r + 1 - j + emitted]
    gain, frozen_at, i = state.gain, None, 0
    with np.errstate(over="ignore", invalid="ignore"):      # reported as nonfinite_at
        while i < emitted:
            if not gain.frozen:
                gain = _gain_at(ops, i, gain)
                frozen_at = r + 1 + i if gain.frozen else None
            Gx = np.ascontiguousarray(gain.G[:, :n])
            if gain.stable:
                _scan(W[i:], Gx)
                break
            stop = emitted if gain.frozen else i + 1
            _step(W, Gx, range(i, stop))
            i = stop
    return W, gain, frozen_at


def _step(W, Gx, rows) -> None:
    """W[j+1, ..., :n] = W[j] Gx for each j in rows, one product per row."""
    n = Gx.shape[1]
    for j in rows:
        W[j + 1, ..., :n] = W[j].dot(Gx)


def _scan(W, Gx) -> None:
    """Fill W[1:, ..., :n] from W[0] under a frozen gain, in about 2 sqrt(N) steps.

    The N = len(W) - 1 rows follow x[j+1] = x[j] F^T + c[j], where the drive
    c[j] = W[j, ..., n:] Gx[n:] is the raw row's share of the product. The
    N mod s rows that fill no block are stepped; the rest are cut into K
    blocks of s = isqrt(N) rows. Inside every block at once the recursion
    runs from zero (s steps), the powers of F^T riding along as n more rows;
    the block starts x[ks] are carried by (F^T)^s (K steps); and row t of
    block k adds x[ks] (F^T)^(t+1). Y holds the blocks by row in block, so
    that each step is one product. Only Y and the lift are allocated at the
    tail's size: on 20 trials at T = 200, one more such array cost about
    what the scan saves.
    """
    n, N = Gx.shape[1], len(W) - 1
    s = math.isqrt(N)
    _step(W, Gx, range(N % s))
    W, K = W[N % s:], N // s

    def by_row_in_block(a):                             # (K s, ...) in record order -> (s, K, ...)
        return a.reshape((K, s) + a.shape[1:]).swapaxes(0, 1)

    rows = K * math.prod(W.shape[1:-1])                 # one per block and trial
    Y = np.empty((s, rows + n, n))                      # Y[t] = [row t of each block | (F^T)^(t+1)]
    x, P = Y[:, :rows].reshape((s, K) + W.shape[1:-1] + (n,)), Y[:, rows:]
    np.matmul(by_row_in_block(W[:-1, ..., n:]), Gx[n:], out=x)
    P[0], P[1:] = Gx[:n], 0.0
    for t in range(1, s):
        Y[t] += Y[t - 1].dot(Gx[:n])
    starts = np.empty(x.shape[1:])                      # x[ks]
    starts[0], starts[1:] = W[0, ..., :n], x[s - 1, :-1]
    for k in range(1, K):
        starts[k] += starts[k - 1].dot(P[s - 1])
    lift = (starts.reshape(rows, n) @ P).reshape(x.shape)
    np.add(x, lift, out=by_row_in_block(W[1:, ..., :n]))


def error_dynamics_matrix(model: SystemModel, r: int, L) -> np.ndarray:
    """A - L C A^(r+1), the autonomous map of the delayed estimation error."""
    return _error_map(model, _delay(model, r), _checked_gain(model, L, "error dynamics"))


def classify_convergence(model: SystemModel, r: int, L) -> str:
    """Verdict from the spectrum of the error dynamics.

    All eigenvalues at numerical zero means the noiseless error dies in
    finitely many steps; spectral radius below one means it decays; a
    radius pinned to one leaves a persistent error; beyond one the
    error grows without bound. The band about one is zeros' _circle_band,
    the one classify_zeros reads off the largest zero modulus.

    A square system with n = (r+1)p at a feasible r is deadbeat by an
    integer test: the n rows of [C; CA; ...; CA^r] are independent, F is
    nilpotent on the quotient by their kernel, and that kernel is {0}.
    Its computed eigenvalues would scatter like eps^(1/n) ||F||.
    """
    d, L = _feasible(model, r), as_float_array(L, "gain")
    _checked_residual(model, d, L, "verdict is only defined for unbiased gains")
    if model.l == model.p and model.n == (r + 1) * model.p:
        return DEADBEAT
    rho = spectral_radius(_error_map(model, d, L))
    return DEADBEAT if rho <= DEADBEAT_TOL else _circle_band(rho, ASYMPTOTIC, PERSISTENT, DIVERGENT)


def predicted_error_sequence(model: SystemModel, r: int, L, eps0, T: int) -> np.ndarray:
    """eps_j = (A - L C A^(r+1))^j eps0 for j = 0..T, one row per j.

    eps0 is n finite values. In the noiseless case this is exactly the
    estimation error of the running filter, which makes overlay comparisons
    against simulated errors meaningful.
    """
    T = _integer("T", T)
    if T < 0:
        raise DimensionMismatch(f"T must be an integer >= 0, got {T}")
    eps = as_finite_vector(eps0, model.n, "eps0")
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
