"""Ground-truth simulation and experiment drivers.

simulate() realizes the system recursion exactly, so trajectory
residuals are zero by construction and every run is reproducible from
its seed. It is two stages: _draw() takes a seed and a trial count and
returns the trials' noise and signal samples on a leading trial axis, and
_propagate() runs the state recursion over the batch, time-major. A seed
is an int >= 0, a list of them or a SeedSequence, read by _sequence before
anything is drawn; child i of a seed is the child seed.spawn would hand out
i-th, built without advancing the seed, so one seed always gives one trajectory.

run_experiment() drives the filter over a trajectory with run_filter()
and scores it against the truth. monte_carlo_bias() repeats that over
many seeded noise realizations to estimate the error bias, drawn,
propagated and filtered together in one pass. Its seed's children are
one stream each for the whole batch (w, v, then each random signal
channel), cut into trials in order: trial 0 draws what simulate() draws
from the same seed, and trial t is the same in a batch of any size
above t. The draws are dropped once the states are propagated. The
filter pass is run_filter()'s recursion alone (filtering._recurse): the
state estimates at the sample times are read from it, bitwise
run_filter()'s, and no input is decoded and no record padded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadCoefficient, BadIndices, DimensionMismatch
from .filtering import FilterConfig, _recurse, _validated, run_filter
from .linalg import as_finite_vector, as_float_array, psd_factor, rms, sealed
from .markov import _feasible
from .model import NoiseSpec, SystemModel, _integer, _sized, validate_model
from .signals import RANDOM_KINDS, SignalSpec, signal_values


@dataclass(frozen=True, eq=False)
class Trajectory:
    T: int
    x: np.ndarray          # (T+1) x n true states
    y: np.ndarray          # (T+1) x l outputs
    e: np.ndarray          # (T+1) x p unknown inputs
    u: np.ndarray          # (T+1) x m known inputs
    w: np.ndarray          # (T+1) x n process noise (row T unused)
    v: np.ndarray          # (T+1) x l measurement noise
    seed: object


@dataclass(frozen=True, eq=False)
class ErrorStats:
    """Post-warm-up error summary of one filter run.

    ks holds the measurement times that produced estimates; row i of
    state_errors is x[ks[i]-r] minus its estimate, row i of
    input_errors is e[ks[i]-r-1] minus its reconstruction. state_bias
    averages the state error over the window (single-run proxy for the
    multi-trial bias report).
    """

    ks: np.ndarray
    state_errors: np.ndarray
    input_errors: np.ndarray
    state_rms: float
    input_rms: float
    state_max_abs: float
    input_max_abs: float
    state_bias: np.ndarray


def _noise_factors(noise: NoiseSpec | None):
    """(Gw, Gv) with Gw Gw^T = Q and Gv Gv^T = R; None for noise=None, the noiseless run."""
    return None if noise is None else (psd_factor(noise.Q), psd_factor(noise.R))


def _check_signals(model: SystemModel, e_signals, u_signals, T: int):
    """Validated (T, e_signals, u_signals): one SignalSpec per channel, e1.. then u1..;
    omitted u_signals mean zero."""
    T = _integer("T", T)
    if T < 1:
        raise DimensionMismatch(f"T must be >= 1, got {T}")
    e_signals = tuple(e_signals)
    if len(e_signals) != model.p:
        raise DimensionMismatch(
            f"need {model.p} unknown-input signals, got {len(e_signals)}")
    if u_signals is None:
        u_signals = tuple(SignalSpec(kind="constant", amplitude=0.0) for _ in range(model.m))
    u_signals = tuple(u_signals)
    if len(u_signals) != model.m:
        raise DimensionMismatch(
            f"need {model.m} known-input signals, got {len(u_signals)}")
    for name, specs in (("e", e_signals), ("u", u_signals)):
        for c, spec in enumerate(specs):
            if not isinstance(spec, SignalSpec):
                raise DimensionMismatch(f"{name}{c + 1} must be a SignalSpec, got {spec!r}")
    return T, e_signals, u_signals


def _sequence(seed) -> np.random.SeedSequence:
    """seed as a SeedSequence; DimensionMismatch for None, which would draw OS entropy,
    and for a seed numpy's SeedSequence rejects."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is not None:
        try:
            return np.random.SeedSequence(seed)
        except (TypeError, ValueError):     # -1, 1.5, "a", ...
            pass
    raise DimensionMismatch(f"seed must be an integer >= 0, a sequence of them or a "
                            f"SeedSequence, got {seed!r}")


def _child(seed, i: int) -> np.random.SeedSequence:
    """Child i of the seed: what seed.spawn would hand out i-th, built without advancing it."""
    ss = _sequence(seed)
    return np.random.SeedSequence(ss.entropy, pool_size=ss.pool_size,
                                  spawn_key=ss.spawn_key + (ss.n_children_spawned + i,))


def _draw(model: SystemModel, factors, e_signals, u_signals, T: int, seed, trials: int):
    """The inputs (w, v, e, u) of trials 0..trials-1, stacked on a leading trial axis.

    Child 0 of the seed feeds w, child 1 v, and child 2+c signal channel c
    (the e channels, then the u channels). Each child is one generator for
    the whole batch, cut into trials in order: the noise is one
    (trials, T+1, .) draw, and a prbs or gaussian channel draws trial after
    trial. So trial 0 is what one trial draws, and trial t does not depend
    on the batch size. Only the children a batch reads are built: w and v
    given noise factors, and the prbs and gaussian channels. Any other
    channel is evaluated once for all trials.
    """
    shape = (trials, T + 1)
    if factors is None:
        w, v = np.zeros(shape + (model.n,)), np.zeros(shape + (model.l,))
    else:
        w = np.random.default_rng(_child(seed, 0)).standard_normal(shape + (model.n,))
        v = np.random.default_rng(_child(seed, 1)).standard_normal(shape + (model.l,))
        w, v = w @ factors[0].T, v @ factors[1].T

    def channels(specs, first: int):          # channel c of specs draws from child first + c
        out = np.empty(shape + (len(specs),))
        for c, spec in enumerate(specs):
            if spec.kind in RANDOM_KINDS:
                rng = np.random.default_rng(_child(seed, first + c))
                for t in range(trials):
                    out[t, :, c] = signal_values(spec, T, rng)
            else:
                out[..., c] = signal_values(spec, T)
        return out

    return w, v, channels(e_signals, 2), channels(u_signals, 2 + model.p)


def _propagate(model: SystemModel, x0, w, v, e, u):
    """(x, y) from x[k+1] = A x + B u + H e + w and y = C x + D u + v.

    The inputs have T+1 rows, optionally behind a leading trial axis;
    x0 is (n,) or one row per trial. Row T of u, e and w is unused. The
    states are one time-major array, and beside the inputs nothing else of
    the record's size is kept but one product: row k+1 first holds the
    drive B u[k] + H e[k] + w[k], summed in place in that order, and step k
    adds A x[k] to it, over one contiguous (trials, n) slice.
    """
    wt, et, ut = (np.moveaxis(a, -2, 0)[:-1] for a in (w, e, u))
    xt = np.empty((w.shape[-2],) + wt.shape[1:])
    xt[0] = x0
    drive = xt[1:]
    np.matmul(ut, model.B.T, out=drive)
    drive += et @ model.H.T
    drive += wt
    At, buf = model.A.T, np.empty_like(xt[0])
    for prev, nxt in zip(xt[:-1], drive):
        prev.dot(At, out=buf)           # cheaper per step than np.matmul with out=
        np.add(buf, nxt, out=nxt)       # A x + drive: IEEE addition commutes
    x = np.moveaxis(xt, 0, -2)
    return x, x @ model.C.T + u @ model.D.T + v


def simulate(model: SystemModel, noise: NoiseSpec | None, e_signals, T: int,
             seed=0, x0=None, u_signals=None) -> Trajectory:
    """Simulate k = 0..T, with seeded Gaussian noise drawn from a NoiseSpec.

    noise=None is the noiseless run, w = v = 0. e_signals must give one
    SignalSpec per unknown-input channel, and u_signals one per
    known-input channel (omitted means zero known input). x0 (zero when
    omitted) is n finite values, in any shape. Noise and stochastic signal
    channels draw from independent children of the seed, which is not
    advanced, so runs are byte-reproducible.
    """
    T, e_signals, u_signals = _check_signals(model, e_signals, u_signals, T)
    start = np.zeros(model.n) if x0 is None else as_finite_vector(x0, model.n, "x0")
    factors = _noise_factors(None if noise is None else _sized(noise, model))
    sequence = _sequence(seed)
    w, v, e, u = (a[0] for a in _draw(model, factors, e_signals, u_signals, T, sequence, 1))
    x, y = _propagate(model, start, w, v, e, u)
    return Trajectory(T, *map(sealed, (x, y, e, u, w, v)), seed=seed)


def compartmental_model(n: int, alpha: float, beta: float,
                        input_compartments, output_compartments) -> SystemModel:
    """Chain of n compartments exchanging mass with flow alpha, loss beta.

    The state map is tridiagonal with every diagonal entry 1-beta-alpha
    and off-diagonal entries alpha. Unknown inputs enter the listed
    compartments (1-based) and outputs read the listed compartments;
    the two lists must be disjoint. n and each compartment are read by model._integer.
    """
    if not (0.0 < alpha < 1.0):
        raise BadCoefficient(f"flow coefficient must lie in (0, 1), got {alpha}")
    if not (0.0 < beta < 1.0):
        raise BadCoefficient(f"loss coefficient must lie in (0, 1), got {beta}")
    n = _integer("n", n)
    if n < 2:
        raise BadIndices(f"need at least two compartments, got n={n}")
    inp = [_integer("input compartment", i) for i in input_compartments]
    out = [_integer("output compartment", i) for i in output_compartments]
    for name, idx in (("input", inp), ("output", out)):
        if not idx:
            raise BadIndices(f"{name} compartment list is empty")
        if len(set(idx)) != len(idx):
            raise BadIndices(f"duplicate {name} compartments: {idx}")
        if any(not (1 <= i <= n) for i in idx):
            raise BadIndices(f"{name} compartments out of range 1..{n}: {idx}")
    if set(inp) & set(out):
        raise BadIndices("input and output compartments must be disjoint")

    A = (1.0 - beta - alpha) * np.eye(n) + alpha * (np.eye(n, k=1) + np.eye(n, k=-1))
    eye = np.eye(n)
    return validate_model(A, eye[:, np.subtract(inp, 1)], eye[np.subtract(out, 1)])


def run_experiment(model: SystemModel, noise: NoiseSpec | None,
                   config: FilterConfig, trajectory: Trajectory):
    """Drive the filter over a trajectory; score against the truth.

    The trajectory's y, x and e are read by as_float_array as (T+1, l), (T+1, n)
    and (T+1, p) arrays (DimensionMismatch), and u by run_filter.

    Returns (ErrorStats, FilterRun): the scores and the run_filter
    result they were computed from, warm-up rows included.
    """
    T = _integer("T", trajectory.T)
    y, x, e = (as_float_array(getattr(trajectory, name), name, (T + 1, width))
               for name, width in (("y", model.l), ("x", model.n), ("e", model.p)))
    run = run_filter(model, noise, config, y, trajectory.u)
    r = int(config.r)
    ks = np.arange(r + 1, T + 1)
    serr = x[ks - r] - run.state_estimates[ks]
    ierr = e[ks - r - 1] - run.input_estimates[ks]
    stats = ErrorStats(
        ks=ks,
        state_errors=serr,
        input_errors=ierr,
        state_rms=rms(serr),
        input_rms=rms(ierr),
        state_max_abs=float(np.max(np.abs(serr))) if serr.size else 0.0,
        input_max_abs=float(np.max(np.abs(ierr))) if ierr.size else 0.0,
        state_bias=serr.mean(axis=0) if serr.size else np.zeros(model.n),
    )
    return stats, run


@dataclass(frozen=True, eq=False)
class BiasReport:
    """Componentwise mean state error and its standard error across trials.

    Row i of mean/stderr/flagged corresponds to measurement time ks[i];
    flagged marks components whose |mean| exceeds 4 standard errors.
    """

    ks: tuple
    mean: np.ndarray
    stderr: np.ndarray
    flagged: np.ndarray
    trials: int


def monte_carlo_bias(model: SystemModel, noise: NoiseSpec, config: FilterConfig,
                     signals, trials: int, T: int, seed=0, ks=None) -> BiasReport:
    """Estimate the state-error bias over independent noise realizations.

    The trials are slices of one stream per child of the seed (see _draw):
    trial 0 draws simulate(seed)'s noise and signals, and trial t does not
    depend on the trial count. The truth starts at zero and the filter is
    seeded exactly, so any systematic offset in the mean error indicts the
    gain, not the setup. Use at least a few hundred trials for the 4-sigma
    flag to mean anything.
    """
    T, signals, u_signals = _check_signals(model, signals, None, T)
    trials, seed = _integer("trials", trials), _sequence(seed)
    if ks is None:
        ks = (max(1, T // 4), max(1, T // 2), T)
    ks = tuple(_integer("bias sample time", k) for k in ks)
    if not ks:
        raise DimensionMismatch("need at least one bias sample time")
    r = _feasible(model, config.r).r
    if trials < 2:
        raise DimensionMismatch(f"need at least 2 trials for a standard error, got {trials}")
    if min(ks) < r + 1:
        raise DimensionMismatch(f"bias sample times must be >= r+1 = {r + 1}")
    if max(ks) > T:
        raise DimensionMismatch(f"bias sample times must be <= T = {T}")

    w, v, e, u = _draw(model, _noise_factors(_sized(noise, model)), signals, u_signals,
                       T, seed, trials)
    x, y = _propagate(model, np.zeros(model.n), w, v, e, u)
    idx = np.asarray(ks) - r
    truth = x[:, idx]
    del w, v, e, x          # never read again: the recursion's arrays may take their memory
    # the recursion alone: the state estimates, with no input decoded
    W, _, _ = _recurse(*_validated(model, noise, config, y, u))
    errs = truth - np.moveaxis(W[idx, ..., :model.n], 0, 1)

    mean = errs.mean(axis=0)
    stderr = errs.std(axis=0, ddof=1) / np.sqrt(trials)
    flagged = np.abs(mean) > 4.0 * stderr
    return BiasReport(ks=ks, mean=mean, stderr=stderr, flagged=flagged, trials=trials)
