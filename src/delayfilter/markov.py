"""Markov-parameter rank analysis and the constants of the unbiasedness constraint.

Decides which reconstruction delays r admit an unbiased gain, reports
the smallest one, and separately reports the delays from which the
input sequence is recoverable at all (a strictly weaker property; see
the bundled 4-state counterexample in the registry). Every verdict on a
delay, every constant the constraint L S_r = [H 0 ... 0] fixes at it and
every gain-free constant of the filter's update is read from one profile
per model, here, in the gain functions and in the filter; a delay's
constants are built the first time that delay is asked for. The known inputs
enter the update through one of them, Zu, u's rows of z. Whatever builds,
checks or runs a gain asks _feasible, which raises InfeasibleDelay at any r
without a gain, r >= n included; DelayOutOfRange means a malformed delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DelayOutOfRange, InfeasibleDelay
from .linalg import frob, numerical_rank, pinv_cut, rank_above, readonly, sealed
from .model import SystemModel

RESIDUAL_RTOL = 1e-9          # residual <= RESIDUAL_RTOL * (1 + ||H||_F)


def markov_parameter(model: SystemModel, d: int) -> np.ndarray:
    """C A^d H for 0 <= d <= n, read-only."""
    return markov_blocks(model, d)[-1]


def markov_blocks(model: SystemModel, dmax: int) -> list[np.ndarray]:
    """[CH, CAH, ..., CA^dmax H] for 0 <= dmax <= n, read-only.

    By Cayley-Hamilton a block beyond n is a combination of the ones before it.
    """
    _check_delay(dmax, model.n, "Markov parameter index")
    return list(_profile(model).blocks[:dmax + 1])


def _check_delay(r: int, top: int | None, what: str = "delay") -> None:
    """DelayOutOfRange unless r is an integer (a numpy one will do, a bool will not)
    in 0..top, or any r >= 0 if top is None."""
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise DelayOutOfRange(f"{what} must be an integer, got {r!r}")
    if r < 0 or (top is not None and r > top):
        raise DelayOutOfRange(f"{what} {r} outside 0..{'inf' if top is None else top}")


def _rank_steps(ranks, p: int) -> tuple:
    """Every r with ranks[r] - ranks[r-1] = p, reading ranks[-1] as 0."""
    return tuple(r for r, (prev, rank) in enumerate(zip((0,) + ranks, ranks))
                 if rank - prev == p)


def markov_row_stack(model: SystemModel, r: int) -> np.ndarray:
    """The l x (r+1)p block row [CA^rH  CA^(r-1)H  ...  CH]."""
    _check_delay(r, model.n - 1)
    return _profile(model).S[r].copy()


def markov_toeplitz(model: SystemModel, r: int) -> np.ndarray:
    """Block lower-triangular (r+1)l x (r+1)p map from inputs to outputs.

    Block (i, j) is CA^(i-j)H for i >= j and zero above the diagonal,
    so row block i collects the output contribution of inputs 0..i.
    """
    _check_delay(r, model.n - 1)
    S, l, p = _profile(model).S, model.l, model.p
    T = np.zeros(((r + 1) * l, (r + 1) * p))
    for i in range(r + 1):          # row block i is [S_i 0]
        T[i * l:(i + 1) * l, :(i + 1) * p] = S[i]
    return T


@dataclass(frozen=True, eq=False)
class _Delay:
    """What the constraint L S_r = [H 0 ... 0] and the update fix at one (model, r), read-only.

    The update's gain-free constants are C A^(r+1) (in CA), Zu and Gd, built on first use.
    """

    r: int
    CA: tuple                           # C A^j for j = 0..r+1
    Zu: np.ndarray                      # -[D^T; (CB)^T; ...; (CA^rB)^T]: u's rows of z, (r+2)m x l
    blocks: tuple                       # C A^j H for j = 0..r
    lower_nonzero: int | None           # first d < r with rank CA^dH > 0, else None
    S: np.ndarray                       # [CA^rH ... CH], contiguous
    Eb: np.ndarray                      # [CA^r ... CA C | I]: the innovation's noise map
    L_min: np.ndarray | None            # [H 0 ... 0] S^+ where r is feasible, else None
    N: np.ndarray | None                # orthonormal left null space of S: gains are L_min + Y N^T
    H0: np.ndarray                      # [H 0 ... 0]
    tol: float                          # residual tolerance of the constraint

    def residual(self, L) -> float:        # ||L S - [H 0 ... 0]||_F
        return frob(L @ self.S - self.H0)

    @cached_property
    def Gd(self) -> np.ndarray:
        """[xhat | y[k] | u[k] ... u[k-r-1]] Gd = [innovation | ehat = innovation ((CA^rH)^+)^T]."""
        I = np.eye(self.S.shape[0])         # innovation = z - xhat (C A^(r+1))^T, z = y + u Zu
        return sealed(np.vstack([-self.CA[self.r + 1].T, I, self.Zu])
                      @ np.hstack([I, pinv_cut(self.blocks[self.r]).T]))


class _Profile(NamedTuple):
    """The rank profile every delay question of one model is answered from, and the
    full-width arrays each delay's constants are slices of."""

    blocks: tuple                       # C A^d H for d = 0..n, read-only
    scales: tuple                       # ||C|| ||A^d H||, the size each rank is judged at
    markov_ranks: tuple                 # rank C A^d H for d = 0..n
    s_ranks: tuple                      # rank S_r for r = 0..n-1
    feasible: tuple                     # every r with rank S_r - rank S_(r-1) = p
    CA: tuple                           # C A^j for j = 0..n
    Zu: np.ndarray                      # -[D^T; (CB)^T; ...; (CA^(n-1)B)^T]
    S: tuple                            # S_r for r = 0..n-1
    Eb: np.ndarray                      # [CA^(n-1) ... C | I]
    H0: np.ndarray                      # [H 0 ... 0], n blocks wide
    delays: dict                        # the _Delay of r, built the first time r is asked for


@lru_cache(maxsize=16)
def _profile(model: SystemModel) -> _Profile:
    """The rank profile and constraint constants of a model, built once per model object.

    S_r = [CA^rH ... CH] is ranked at the largest analytic size ||C|| ||A^d H||
    among its blocks: a block that is zero in exact arithmetic comes out as
    rounding dust of that size, with a perfectly good largest singular value
    of its own. Models hash by identity and their arrays are read-only, so an
    entry never goes stale; the bound keeps runs over many models from holding
    them all. S_r holds every column of S_(r-1), so its rank never falls and
    never exceeds l: S_r is ranked only until a rank reaches l, and every
    later entry of s_ranks is l. S_0 is CH at the scale of CH, so its rank
    is the Markov rank of CH and takes no SVD of its own. A delay's
    constants, with the SVD behind L_min and N, wait for _delay or _feasible
    to ask for that delay.
    """
    n, l, p = model.n, model.l, model.p
    powers, CA = [model.H], [model.C]   # A^d H and C A^d, by repeated multiplication
    for _ in range(n):
        powers.append(model.A @ powers[-1])
        CA.append(sealed(CA[-1] @ model.A))
    c_norm = frob(model.C)
    scales = tuple(c_norm * frob(X) for X in powers)
    blocks = tuple(sealed(model.C @ X) for X in powers)
    # one batched SVD ranks the n+1 equal-shaped blocks, each at its own scale
    singular = np.linalg.svd(np.stack(blocks), compute_uv=False)
    markov_ranks = tuple(rank_above(s, (l, p), scale) for s, scale in zip(singular, scales))
    S = tuple(sealed(np.concatenate(blocks[r::-1], axis=1)) for r in range(n))
    s_ranks = markov_ranks[:1]          # S_0 is CH, ranked at scales[0] above
    for r in range(1, n):               # S_r holds S_(r-1)'s columns: from rank l on, all are l
        s_ranks += (l if l in s_ranks else numerical_rank(S[r], max(scales[:r + 1])),)
    return _Profile(
        blocks=blocks, scales=scales, markov_ranks=markov_ranks, s_ranks=s_ranks,
        feasible=_rank_steps(s_ranks, p), CA=tuple(CA), S=S,
        Zu=sealed(-np.vstack([model.D.T] + [(X @ model.B).T for X in CA[:n]])),
        Eb=sealed(np.concatenate(CA[n - 1::-1] + [np.eye(l)], axis=1)),
        H0=sealed(np.concatenate([model.H, np.zeros((n, (n - 1) * p))], axis=1)), delays={})


def _constants(model: SystemModel, profile: _Profile, r: int) -> _Delay:
    """The _Delay of r in 0..n-1, built on first use and shared from then on."""
    d = profile.delays.get(r)
    if d is not None:
        return d
    n, p = model.n, model.p
    H0, L_min, N = profile.H0[:, :(r + 1) * p], None, None
    if r in profile.feasible:           # one SVD of S_r, cut at the rank the profile gave it
        U, s, Vt = np.linalg.svd(profile.S[r])
        k = profile.s_ranks[r]          # N is copied: BLAS rounds a strided view differently
        L_min, N = sealed((H0 @ Vt[:k].T / s[:k]) @ U[:, :k].T), readonly(U[:, k:])
    d = _Delay(
        r=r, CA=profile.CA[:r + 2], Zu=profile.Zu[:(r + 2) * model.m],
        blocks=profile.blocks[:r + 1], S=profile.S[r], Eb=profile.Eb[:, (n - 1 - r) * n:],
        lower_nonzero=next((j for j in range(r) if profile.markov_ranks[j]), None),
        L_min=L_min, N=N, H0=H0, tol=RESIDUAL_RTOL * (1.0 + frob(model.H)))
    return profile.delays.setdefault(r, d)  # a racing thread's _Delay, if it stored one first


def _delay(model: SystemModel, r: int) -> _Delay:
    """The constraint constants at (model, r), from the model's profile."""
    _check_delay(r, model.n - 1)
    return _constants(model, _profile(model), r)


def _feasible(model: SystemModel, r: int) -> _Delay:
    """The constants at r if an unbiased gain exists there, else InfeasibleDelay naming the gap."""
    _check_delay(r, None)
    profile = _profile(model)
    if r in profile.feasible:
        return _constants(model, profile, r)
    ranks = (0,) + profile.s_ranks
    gap = ranks[r + 1] - ranks[r] if r < model.n else 0
    raise InfeasibleDelay(f"no unbiased gain exists at delay {r}: the rank gap "
                          f"rank S_r - rank S_(r-1) is {gap}, not p = {model.p}")


def exists_unbiased_gain(model: SystemModel, r: int) -> bool:
    """True iff rank(S_r) - rank(S_(r-1)) = p, with rank(S_(-1)) = 0.

    At r = 0 this collapses to the classical full-rank test on CH. At r >= n
    it is False: by Cayley-Hamilton CA^rH adds no columns to S_(r-1).
    """
    _check_delay(r, None)
    return r in _profile(model).feasible


def minimal_delay(model: SystemModel):
    """Smallest feasible delay in 0..n-1, or None.

    The search range is exhaustive: no delay >= n can ever work, since
    A^n is a combination of lower powers and the new stack block adds
    no row space.
    """
    feasible = _profile(model).feasible
    return feasible[0] if feasible else None


@dataclass(frozen=True)
class DelayAnalysis:
    """Rank profile of the Markov parameters and the verdicts derived from it.

    feasible_delays lists every r where an unbiased gain exists;
    invertible_delays lists every r where the block-Toeplitz rank gap
    reaches p (input recoverability, necessary but not sufficient).
    conjecture_violated flags more than one feasible delay.
    """

    markov_ranks: tuple
    s_ranks: tuple
    feasible_delays: tuple
    minimal_delay: int | None
    invertible_delays: tuple
    conjecture_violated: bool

    def to_json_dict(self) -> dict:
        return {
            "markov_ranks": [[d, rk] for d, rk in self.markov_ranks],
            "s_ranks": [[r, rk] for r, rk in self.s_ranks],
            "feasible_delays": list(self.feasible_delays),
            "minimal_delay": self.minimal_delay,
            "invertible_delays": list(self.invertible_delays),
            "conjecture_violated": self.conjecture_violated,
        }


def analyze_delays(model: SystemModel) -> DelayAnalysis:
    """The rank profile plus the invertibility sweep over r = 0..n-1.

    T_r is the leading (r+1)l x (r+1)p corner of T_(n-1), ranked at the
    scale of S_r. The gap rank T_r - rank T_(r-1) never shrinks as r
    grows, so the sweep stops at the first r whose gap is p and reports
    every delay from there to n-1. T_0 is CH at the scale of CH: its rank
    is the Markov rank of CH, and T_(n-1) is built only past r = 0.
    """
    profile, n, l, p = _profile(model), model.n, model.l, model.p
    prev = profile.markov_ranks[0]      # rank T_0
    invertible = tuple(range(n)) if prev == p else ()
    if not invertible:
        T = markov_toeplitz(model, n - 1)
        for r in range(1, n):
            rank = numerical_rank(T[:(r + 1) * l, :(r + 1) * p], max(profile.scales[:r + 1]))
            if rank - prev == p:
                invertible = tuple(range(r, n))
                break
            prev = rank
    return DelayAnalysis(
        markov_ranks=tuple(enumerate(profile.markov_ranks)),
        s_ranks=tuple(enumerate(profile.s_ranks)),
        feasible_delays=profile.feasible,
        minimal_delay=minimal_delay(model),
        invertible_delays=invertible,
        conjecture_violated=len(profile.feasible) > 1,
    )
