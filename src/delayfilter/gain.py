"""Gain synthesis for the delayed filter.

Square systems (l = p) have exactly one gain satisfying the
unbiasedness constraint, the block inverse H (CA^rH)^-1. Non-square
systems have infinitely many, L_min + Y N^T with N the constraint's left
null space; minvar_gain picks the one minimizing the trace of the delayed
error covariance, a least-squares problem in Y. covariance_update
propagates the covariance for any constrained gain, and
steady_state_gain finds the pair's fixed point by policy iteration
(Hewer, IEEE TAC 16(4), 1971) when one exists. Each reads the constants
of a delay from markov._feasible, which raises InfeasibleDelay where no
unbiased gain exists. The noise structure is one map per
delay, Eb = [CA^r ... CA C | I]: the innovation covariance,
its cross term and the covariance step all read it (_noise_covariance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    InnovationCovarianceSingular,
    NotSquare,
    PreconditionViolated,
)
from .linalg import as_float_array, frob, spectral_radius
from .markov import _Delay, _delay, _feasible
from .model import NoiseSpec, SystemModel, _covariance, _integer, _sized

COND_LIMIT = 1e12             # of the innovation covariance V
COVARIANCE_CAP = 1e30         # of a covariance's trace: past it the recursion has overflowed
DOUBLING_ROUNDS = 64          # _lyapunov settles rho(F) = 1 - 2^-53, the largest double below 1, in 59

SQUARE_INVERSE = "SquareInverse"
MINVAR_LAGRANGIAN = "MinVarLagrangian"
SIMPLIFIED_MINVAR = "SimplifiedMinVar"
NO_DELAY_CLASSICAL = "NoDelayClassical"


@dataclass(frozen=True)
class GainResult:
    L: np.ndarray
    residual: float
    method: str


@dataclass(frozen=True)
class CovarianceState:
    P: np.ndarray
    trace: float


def covariance_state(P: np.ndarray) -> CovarianceState:
    P = 0.5 * (P + P.T)
    return CovarianceState(P=P, trace=float(np.trace(P)))


def _overflowed(P: CovarianceState) -> bool:
    """True once P is not finite or its trace passes COVARIANCE_CAP."""
    return P.trace > COVARIANCE_CAP or not np.isfinite(P.P).all()


def _p_matrix(P_prev, n: int, name: str = "P_prev") -> np.ndarray:
    """P_prev, a matrix or CovarianceState, as a finite (n, n) matrix, the identity if omitted.
    Not the covariance rule: the schedule and the policy iteration pass their own here."""
    if P_prev is None:
        return np.eye(n)
    P = as_float_array(P_prev.P if isinstance(P_prev, CovarianceState) else P_prev, name, (n, n))
    if not np.isfinite(P).all():
        raise DimensionMismatch(f"{name} must be finite")
    return P


def constraint_target(model: SystemModel, r: int) -> np.ndarray:
    """[H 0 ... 0], the right-hand side of the unbiasedness constraint."""
    return _delay(model, r).H0.copy()


def unbiasedness_residual(model: SystemModel, r: int, L) -> float:
    """Frobenius norm of L S_r - [H 0 ... 0]."""
    return _delay(model, r).residual(_checked_gain(model, L, "residual"))


def _checked_gain(model: SystemModel, L, what: str) -> np.ndarray:
    """L read by as_float_array as an n x l gain (DimensionMismatch), ConstraintViolated
    unless it is finite. Every public function that takes a gain checks it here."""
    L = as_float_array(L, f"{what}: gain", (model.n, model.l))
    if not np.isfinite(L).all():        # a NaN residual would pass the gate's comparison
        raise ConstraintViolated(f"{what}: gain is not finite")
    return L


def _checked_residual(model: SystemModel, d: _Delay, L, what: str) -> float:
    """The residual of an n x l gain L at d; ConstraintViolated if L is not finite or biased."""
    residual = d.residual(_checked_gain(model, L, what))
    if residual > d.tol:
        raise ConstraintViolated(f"{what}: residual {residual:.3e} exceeds tolerance {d.tol:.3e}")
    return residual


def square_gain(model: SystemModel, r: int) -> GainResult:
    """The unique unbiased gain H (CA^rH)^-1 for square systems.

    It exists exactly where the rank profile calls r feasible, so not above
    a nonzero CA^dH, d < r; elsewhere InfeasibleDelay. A solve whose
    residual exceeds the tolerance raises ConstraintViolated.
    """
    if model.l != model.p:
        raise NotSquare(f"square gain needs l = p, got l={model.l}, p={model.p}")
    d = _feasible(model, r)
    L = np.linalg.solve(d.blocks[r].T, model.H.T).T
    residual = _checked_residual(model, d, L, "square gain")
    method = NO_DELAY_CLASSICAL if r == 0 else SQUARE_INVERSE
    return GainResult(L=L, residual=residual, method=method)


def _noise_covariance(E: np.ndarray, Caa: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """E blkdiag(Caa, Q, ..., Q, R) E^T for E with n + jn + l columns, j >= 0."""
    n, l = Caa.shape[0], noise.R.shape[0]
    parts = [E[:, :n] @ Caa]
    if E.shape[1] > n + l:              # r >= 1: the Q blocks, one row of n columns per lag
        mid = E[:, n:-l]
        parts.append((mid.reshape(-1, n) @ noise.Q).reshape(mid.shape))
    parts.append(E[:, -l:] @ noise.R)
    return np.concatenate(parts, axis=1) @ E.T


def _innovation_terms(model: SystemModel, noise: NoiseSpec, d: _Delay, P_prev):
    """(V, G): the nonsingular innovation covariance and G = Caa (CA^r)^T, its cross
    covariance with a = A eps_(k-1) + w_(k-r-1). Eb maps [a, w_(k-r), ..., w_(k-1), v_k],
    taken as uncorrelated, to the input-free innovation; Caa = Q + A P A^T."""
    P = _p_matrix(P_prev, model.n)
    Caa = _sized(noise, model).Q + model.A @ P @ model.A.T
    V = _noise_covariance(d.Eb, Caa, noise)
    V = 0.5 * (V + V.T)
    if np.linalg.cond(V) > COND_LIMIT:
        raise InnovationCovarianceSingular("innovation covariance is numerically singular")
    return V, Caa @ d.CA[d.r].T


def minvar_gain(model: SystemModel, noise: NoiseSpec, r: int, P_prev=None) -> GainResult:
    """Trace-optimal gain among all gains satisfying the constraint.

    P_prev is the delayed error covariance from the previous step
    (CovarianceState or plain matrix; identity when omitted). Every
    unbiased gain is L_min + Y N^T (see markov._Delay), and the trace is
    least at Y = (G - L_min V) N (N^T V N)^-1. Without a null space N
    the gain is L_min whatever P_prev is.
    """
    d = _feasible(model, r)
    V, G = _innovation_terms(model, noise, d, P_prev)
    VN = V @ d.N
    Y = np.linalg.solve(d.N.T @ VN, (G @ d.N - d.L_min @ VN).T).T
    L = d.L_min + Y @ d.N.T
    return GainResult(L=L, residual=_checked_residual(model, d, L, "gain"),
                      method=MINVAR_LAGRANGIAN)


def simplified_minvar_gain(model: SystemModel, noise: NoiseSpec, r: int, P_prev=None) -> GainResult:
    """Cheaper closed form valid when CA^dH = 0 for every d < r.

    With the lower blocks zero the constraint couples L only to CA^rH,
    and the multiplier solve reduces to one p x p inverse. Must agree
    with minvar_gain on this domain; PreconditionViolated outside it.
    """
    d = _feasible(model, r)
    if d.lower_nonzero is not None:
        raise PreconditionViolated(
            f"CA^{d.lower_nonzero}H is nonzero; the simplified gain requires zero "
            f"Markov parameters below delay {r}"
        )
    M = d.blocks[r]

    V, G = _innovation_terms(model, noise, d, P_prev)
    Vinv_M = np.linalg.solve(V, M)
    Phi = np.linalg.solve((M.T @ Vinv_M).T, (model.H - G @ Vinv_M).T).T
    L = np.linalg.solve(V, (G + Phi @ M.T).T).T
    return GainResult(L=L, residual=_checked_residual(model, d, L, "gain"),
                      method=SIMPLIFIED_MINVAR)


def _error_map(model: SystemModel, d: _Delay, L: np.ndarray) -> np.ndarray:
    """F = A - L C A^(r+1), the autonomous map of the delayed estimation error."""
    return model.A - L @ d.CA[d.r + 1]


def _settled(P: CovarianceState, P_next: CovarianceState) -> bool:
    """True once one covariance step moved P by at most 1e-10 ||P||: its fixed point."""
    return frob(P_next.P - P.P) <= 1e-10 * frob(P.P)


def _error_terms(model: SystemModel, noise: NoiseSpec, d: _Delay, L: np.ndarray):
    """(F, W) of a gain L that passed the residual gate, whose covariance step is
    P+ = F P F^T + W: the next error is K [a, w_(k-r), ..., w_(k-1), v_k] with
    K = [I 0 ... 0] - L Eb, so F = K_a A (_error_map) and W = K blkdiag(Q, ..., Q, R) K^T."""
    K = -L @ d.Eb
    K[:, :model.n] += np.eye(model.n)
    return _error_map(model, d, L), _noise_covariance(K, _sized(noise, model).Q, noise)


def covariance_update(model: SystemModel, noise: NoiseSpec, r: int, L, P_prev) -> CovarianceState:
    """One covariance step F P F^T + W for an unbiased gain (see _error_terms), symmetrized."""
    d, L = _feasible(model, r), as_float_array(L, "gain")
    _checked_residual(model, d, L, "covariance update requires an unbiased gain")
    F, W = _error_terms(model, noise, d, L)
    return covariance_state(F @ _p_matrix(P_prev, model.n) @ F.T + W)


def _lyapunov(F: np.ndarray, W: np.ndarray) -> CovarianceState | None:
    """P = F P F^T + W for a stable F by Smith's doubling: k rounds of P += F P F^T, F = F^2
    from P = W sum F^t W (F^t)^T over t < 2^k. None if the increment is still above
    1e-17 ||P|| after DOUBLING_ROUNDS, or once rounding has taken the powers F^(2^k) outside
    the unit circle, so that P stops being finite or its trace leaves [0, COVARIANCE_CAP]."""
    P = W
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DOUBLING_ROUNDS):
            increment = F @ P @ F.T
            P = P + increment
            if not (np.isfinite(P).all() and 0.0 <= P.trace() <= COVARIANCE_CAP):
                return None             # a finite P has had finite increments
            if frob(increment) <= 1e-17 * frob(P):
                return covariance_state(P)
            F = F @ F
    return None


def steady_state_gain(model: SystemModel, noise: NoiseSpec, r: int,
                      P0=None, max_iter: int = 10000):
    """Gain and covariance at their fixed point, by policy iteration.

    Returns (GainResult, CovarianceState, converged); non-convergence is
    information, not an error. A round returns (minvar_gain(P), P), converged,
    once one covariance step under that gain moves P by at most 1e-10 ||P||.
    Otherwise a gain whose error map F is stable jumps to its exact
    covariance, the solution of P = F P F^T + W by Smith's doubling
    (_lyapunov), and any other takes the step. Stability is tested only until
    the first stable F: by Hewer's theorem every later gain of the iteration
    is stabilizing too. The doubling needs about log2(log eps / log rho(F))
    rounds, fewer than DOUBLING_ROUNDS for every double rho(F) < 1; a solve
    that has not settled by then, or whose F rounding has left unstable, takes
    the step too. An unstable unique gain (N empty: rank S_r = l) returns at once
    with P0; an overflow or a singular innovation covariance ends the run
    with the last gain. max_iter, an integer, caps the rounds. A given P0, a
    matrix or the CovarianceState this returns, must be n x n and pass the
    covariance rule (model._covariance).
    """
    max_iter = _integer("max_iter", max_iter)
    P = _p_matrix(P0, model.n, "P0")
    if P0 is not None:
        _covariance(P, "P0")
    P = covariance_state(P)
    gain, d = minvar_gain(model, noise, r, P), _feasible(model, r)
    stable = False
    for _ in range(max_iter):
        F, W = _error_terms(model, noise, d, gain.L)     # minvar_gain gated every gain
        stable = stable or spectral_radius(F) < 1.0
        if not stable and not d.N.size:
            return gain, P, False
        P_next = covariance_state(F @ P.P @ F.T + W)
        if _overflowed(P_next):
            return gain, P_next, False
        if _settled(P, P_next):
            return gain, P, True
        P = (_lyapunov(F, W) if stable else None) or P_next
        try:
            gain = minvar_gain(model, noise, r, P)
        except InnovationCovarianceSingular:
            return gain, P, False
    return gain, P, False
