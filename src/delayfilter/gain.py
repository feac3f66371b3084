"""Gain synthesis for the delayed filter.

Square systems (l = p) have exactly one gain satisfying the
unbiasedness constraint, the block inverse H (CA^rH)^-1. Non-square
systems have infinitely many; minvar_gain picks the one minimizing the
trace of the delayed error covariance via a Lagrangian with a
pseudoinverse multiplier. covariance_update propagates the covariance
for any constrained gain, and steady_state_gain iterates the pair to a
fixed point when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolated,
    InnovationCovarianceSingular,
    LowerMarkovNonzero,
    NotSquare,
    NoUnbiasedGainExists,
    PreconditionViolated,
    SingularMarkovParameter,
)
from .linalg import frob, numerical_rank, pinv_cut
from .markov import exists_unbiased_gain, markov_blocks, markov_row_stack
from .model import NoiseSpec, SystemModel

RESIDUAL_RTOL = 1e-9          # residual <= RESIDUAL_RTOL * (1 + ||H||_F)
COND_LIMIT = 1e12

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


def covariance_state(P) -> CovarianceState:
    P = np.asarray(P, dtype=float)
    P = 0.5 * (P + P.T)
    return CovarianceState(P=P, trace=float(np.trace(P)))


def _p_matrix(P_prev, n: int) -> np.ndarray:
    if P_prev is None:
        return np.eye(n)
    if isinstance(P_prev, CovarianceState):
        return P_prev.P
    return np.asarray(P_prev, dtype=float)


def constraint_target(model: SystemModel, r: int) -> np.ndarray:
    """[H 0 ... 0], the right-hand side of the unbiasedness constraint."""
    return np.hstack([model.H] + [np.zeros((model.n, model.p))] * r)


def unbiasedness_residual(model: SystemModel, r: int, L) -> float:
    """Frobenius norm of L S_r - [H 0 ... 0]."""
    S = markov_row_stack(model, r, check_range=False)
    return frob(np.asarray(L, dtype=float) @ S - constraint_target(model, r))


def _residual_tol(model: SystemModel) -> float:
    return RESIDUAL_RTOL * (1.0 + frob(model.H))


def square_gain(model: SystemModel, r: int) -> GainResult:
    """The unique unbiased gain H (CA^rH)^-1 for square systems.

    Below-delay Markov parameters must vanish: a square system with
    CA^dH != 0 for some d < r admits no unbiased gain at delay r at
    all, so using the inverse formula there would be silently wrong.
    """
    if model.l != model.p:
        raise NotSquare(f"square gain needs l = p, got l={model.l}, p={model.p}")
    blocks = markov_blocks(model, r)
    scale = 1.0 + max(float(np.max(np.abs(b))) for b in blocks)
    for d in range(r):
        if float(np.max(np.abs(blocks[d]))) > 1e-8 * scale:
            raise LowerMarkovNonzero(
                f"CA^{d}H is nonzero; no unbiased gain exists at delay {r}"
            )
    M = blocks[r]
    if np.linalg.cond(M) > COND_LIMIT:
        raise SingularMarkovParameter(f"CA^{r}H condition number exceeds {COND_LIMIT:.0e}")
    L = np.linalg.solve(M.T, model.H.T).T
    residual = unbiasedness_residual(model, r, L)
    method = NO_DELAY_CLASSICAL if r == 0 else SQUARE_INVERSE
    return GainResult(L=L, residual=residual, method=method)


def _innovation_covariance(model: SystemModel, noise: NoiseSpec, r: int, T: np.ndarray):
    """V = CA^r T A^rT C^T + sum_j CA^(r-j) Q A^(r-j)T C^T + R, j = 1..r."""
    CA = [model.C]
    X = model.C
    for _ in range(r):
        X = X @ model.A
        CA.append(X)                      # CA[j] = C A^j
    V = CA[r] @ T @ CA[r].T + noise.R
    for j in range(1, r + 1):
        W = CA[r - j]
        V = V + W @ noise.Q @ W.T
    return 0.5 * (V + V.T), CA


def minvar_gain(model: SystemModel, noise: NoiseSpec, r: int, P_prev=None) -> GainResult:
    """Trace-optimal gain among all gains satisfying the constraint.

    P_prev is the delayed error covariance from the previous step
    (CovarianceState or plain matrix; identity when omitted). The
    Lagrange multiplier block is non-unique; the minimum-norm choice
    via pseudoinverse is taken, which does not affect L. The closed
    form is evaluated and then polished by one or two projection steps
    L <- L - (L S_r - [H 0..0]) S_r^+, removing the rounding error the
    multiplier solve leaves in the constraint row space (this changes
    the cost only at second order).
    """
    if not exists_unbiased_gain(model, r):
        raise NoUnbiasedGainExists(f"no unbiased gain exists at delay {r}")
    P = _p_matrix(P_prev, model.n)

    T = noise.Q + model.A @ P @ model.A.T
    V, CA = _innovation_covariance(model, noise, r, T)
    if np.linalg.cond(V) > COND_LIMIT:
        raise InnovationCovarianceSingular("innovation covariance is numerically singular")

    S = markov_row_stack(model, r)
    H0 = constraint_target(model, r)
    Vinv_S = np.linalg.solve(V, S)
    Z = S.T @ Vinv_S
    Z = 0.5 * (Z + Z.T)
    G = T @ CA[r].T
    N = H0 - G @ Vinv_S
    L = np.linalg.solve(V, (G + N @ pinv_cut(Z) @ S.T).T).T

    tol = _residual_tol(model)
    S_pinv = None
    for _ in range(2):
        gap = L @ S - H0
        if frob(gap) <= 1e-3 * tol:
            break
        if S_pinv is None:
            S_pinv = pinv_cut(S)
        L = L - gap @ S_pinv

    residual = unbiasedness_residual(model, r, L)
    if residual > tol:
        raise ConstraintViolated(
            f"gain residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return GainResult(L=L, residual=residual, method=MINVAR_LAGRANGIAN)


def simplified_minvar_gain(model: SystemModel, noise: NoiseSpec, r: int, P_prev=None) -> GainResult:
    """Cheaper closed form valid when CA^dH = 0 for every d < r.

    With the lower blocks zero the constraint couples L only to CA^rH,
    and the multiplier solve reduces to one p x p inverse. Must agree
    with minvar_gain on this domain.
    """
    blocks = markov_blocks(model, r)
    scale = 1.0 + max(float(np.max(np.abs(b))) for b in blocks)
    for d in range(r):
        if float(np.max(np.abs(blocks[d]))) > 1e-8 * scale:
            raise PreconditionViolated(
                f"CA^{d}H is nonzero; the simplified gain requires zero "
                f"Markov parameters below delay {r}"
            )
    M = blocks[r]
    if numerical_rank(M) < model.p:
        raise PreconditionViolated(f"rank(CA^{r}H) < p, gain constraint unsolvable")

    P = _p_matrix(P_prev, model.n)
    T = noise.Q + model.A @ P @ model.A.T
    V, CA = _innovation_covariance(model, noise, r, T)
    if np.linalg.cond(V) > COND_LIMIT:
        raise InnovationCovarianceSingular("innovation covariance is numerically singular")

    G = T @ CA[r].T
    Vinv_M = np.linalg.solve(V, M)
    Phi = np.linalg.solve((M.T @ Vinv_M).T, (model.H - G @ Vinv_M).T).T
    L = np.linalg.solve(V, (G + Phi @ M.T).T).T

    S = markov_row_stack(model, r)
    H0 = constraint_target(model, r)
    tol = _residual_tol(model)
    gap = L @ S - H0
    if frob(gap) > 1e-3 * tol:
        L = L - gap @ pinv_cut(S)
    residual = unbiasedness_residual(model, r, L)
    if residual > tol:
        raise ConstraintViolated(
            f"gain residual {residual:.3e} exceeds tolerance {tol:.3e}"
        )
    return GainResult(L=L, residual=residual, method=SIMPLIFIED_MINVAR)


def covariance_update(model: SystemModel, noise: NoiseSpec, r: int, L, P_prev) -> CovarianceState:
    """One covariance step for an unbiased gain.

    P+ = (A - L C A^(r+1)) P (A - L C A^(r+1))^T
         + (I - L C A^r) Q (I - L C A^r)^T
         + sum_{j=1..r} (L C A^(r-j)) Q (L C A^(r-j))^T
         + L R L^T,
    symmetrized. Only valid when L satisfies the constraint, hence the
    residual gate.
    """
    L = np.asarray(L, dtype=float)
    if unbiasedness_residual(model, r, L) > _residual_tol(model):
        raise ConstraintViolated("covariance update requires an unbiased gain")
    P = _p_matrix(P_prev, model.n)

    CA = [model.C]
    X = model.C
    for _ in range(r + 1):
        X = X @ model.A
        CA.append(X)

    A_err = model.A - L @ CA[r + 1]
    out = A_err @ P @ A_err.T
    I_LCAr = np.eye(model.n) - L @ CA[r]
    out = out + I_LCAr @ noise.Q @ I_LCAr.T
    for j in range(1, r + 1):
        W = L @ CA[r - j]
        out = out + W @ noise.Q @ W.T
    out = out + L @ noise.R @ L.T
    return covariance_state(out)


def steady_state_gain(model: SystemModel, noise: NoiseSpec, r: int,
                      P0=None, max_iter: int = 10000):
    """Iterate gain and covariance to a fixed point.

    Returns (GainResult, CovarianceState, converged). Non-convergence
    is information, not an error: systems with zeros on or outside the
    unit circle legitimately diverge. The iteration stops early, with
    the last gain, once the covariance overflows or the innovation
    covariance turns singular, since nothing new is learned after that.
    """
    if not exists_unbiased_gain(model, r):
        raise NoUnbiasedGainExists(f"no unbiased gain exists at delay {r}")
    P = covariance_state(_p_matrix(P0, model.n))
    gain = minvar_gain(model, noise, r, P)
    for _ in range(max_iter):
        P_next = covariance_update(model, noise, r, gain.L, P)
        if not np.all(np.isfinite(P_next.P)) or P_next.trace > 1e30:
            return gain, P_next, False
        gap = frob(P_next.P - P.P)
        P = P_next
        try:
            gain = minvar_gain(model, noise, r, P)
        except InnovationCovarianceSingular:
            return gain, P, False
        if gap <= 1e-10 * (1.0 + frob(P.P)):
            return gain, P, True
    return gain, P, False
