"""Markov-parameter rank analysis and the constants of the unbiasedness constraint.

Decides which reconstruction delays r admit an unbiased gain, reports
the smallest one, and separately reports the delays from which the
input sequence is recoverable at all (a strictly weaker property; see
the bundled 4-state counterexample in the registry). Every verdict on a
delay and every constant the constraint L S_r = [H 0 ... 0] fixes at it,
here and in the gain functions, is read from one profile per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DelayOutOfRange
from .linalg import RANK_RCOND, frob, numerical_rank, pinv_cut
from .model import SystemModel

RESIDUAL_RTOL = 1e-9          # residual <= RESIDUAL_RTOL * (1 + ||H||_F)


def markov_parameter(model: SystemModel, d: int) -> np.ndarray:
    """C A^d H for 0 <= d <= n, read-only."""
    return markov_blocks(model, d)[-1]


def markov_blocks(model: SystemModel, dmax: int) -> list[np.ndarray]:
    """[CH, CAH, ..., CA^dmax H] for 0 <= dmax <= n, read-only.

    By Cayley-Hamilton a block beyond n is a combination of the ones before it.
    """
    if not 0 <= dmax <= model.n:
        raise DelayOutOfRange(f"Markov parameter index {dmax} outside 0..{model.n}")
    return list(_profile(model).blocks[:dmax + 1])


def _check_delay(model: SystemModel, r: int, bounded: bool = True) -> None:
    """DelayOutOfRange unless r is an integer in 0..n-1 (any r >= 0 if not bounded)."""
    if not isinstance(r, (int, np.integer)) or isinstance(r, bool):
        raise DelayOutOfRange(f"delay must be an integer, got {r!r}")
    if r < 0 or (bounded and r >= model.n):
        raise DelayOutOfRange(f"delay {r} outside 0..{model.n - 1}")


def _sealed(a: np.ndarray) -> np.ndarray:
    """A freshly computed array, with its write flag cleared in place."""
    a.setflags(write=False)
    return a


def _anchored_rank(matrix: np.ndarray, scale: float) -> int:
    if matrix.size == 0 or scale == 0.0:
        return 0
    return numerical_rank(matrix, tol=scale * max(matrix.shape) * RANK_RCOND)


def _rank_steps(ranks, p: int) -> tuple:
    """Every r with ranks[r] - ranks[r-1] = p, reading ranks[-1] as 0."""
    return tuple(r for r, (prev, rank) in enumerate(zip((0,) + ranks, ranks))
                 if rank - prev == p)


def markov_row_stack(model: SystemModel, r: int) -> np.ndarray:
    """The l x (r+1)p block row [CA^rH  CA^(r-1)H  ...  CH]."""
    return _delay(model, r).S.copy()


def markov_toeplitz(model: SystemModel, r: int) -> np.ndarray:
    """Block lower-triangular (r+1)l x (r+1)p map from inputs to outputs.

    Block (i, j) is CA^(i-j)H for i >= j and zero above the diagonal,
    so row block i collects the output contribution of inputs 0..i.
    """
    blocks, zero = _delay(model, r).blocks, np.zeros((model.l, model.p))
    return np.block([[blocks[i - j] if i >= j else zero for j in range(r + 1)]
                     for i in range(r + 1)])


@dataclass(frozen=True, eq=False)
class _Delay:
    """Everything the constraint L S_r = [H 0 ... 0] fixes at one (model, r), read-only."""

    r: int
    feasible: bool                      # an unbiased gain exists at r
    CA: tuple                           # C A^j for j = 0..r+1
    blocks: tuple                       # C A^j H for j = 0..r
    lower_nonzero: int | None           # first d < r with rank CA^dH > 0, else None
    S: np.ndarray                       # [CA^rH ... CH], contiguous
    Eb: np.ndarray                      # [CA^r ... CA C | I]: the innovation's noise map
    S_pinv: np.ndarray | None           # S^+ where r is feasible, else None
    H0: np.ndarray                      # [H 0 ... 0]
    tol: float                          # residual tolerance of the constraint


class _Profile(NamedTuple):
    """The rank profile every delay question of one model is answered from."""

    blocks: tuple                       # C A^d H for d = 0..n, read-only
    scales: tuple                       # ||C|| ||A^d H||, the size each rank is judged at
    markov_ranks: tuple                 # rank C A^d H for d = 0..n
    s_ranks: tuple                      # rank S_r for r = 0..n-1
    feasible: tuple                     # every r with rank S_r - rank S_(r-1) = p
    delays: tuple                       # the _Delay of r for r = 0..n-1


@lru_cache(maxsize=16)
def _profile(model: SystemModel) -> _Profile:
    """The rank profile and constraint constants of a model, built once per model object.

    S_r = [CA^rH ... CH] is ranked at the largest analytic size ||C|| ||A^d H||
    among its blocks: a block that is zero in exact arithmetic comes out as
    rounding dust of that size, with a perfectly good largest singular value
    of its own. Models hash by identity and their arrays are read-only, so an
    entry never goes stale; the bound keeps runs over many models from holding
    them all.
    """
    n, p = model.n, model.p
    powers, CA = [model.H], [model.C]   # A^d H and C A^d, by repeated multiplication
    for _ in range(n):
        powers.append(model.A @ powers[-1])
        CA.append(_sealed(CA[-1] @ model.A))
    c_norm = float(np.linalg.norm(model.C))
    scales = tuple(c_norm * float(np.linalg.norm(X)) for X in powers)
    blocks = tuple(_sealed(model.C @ X) for X in powers)
    markov_ranks = tuple(map(_anchored_rank, blocks, scales))
    S = [_sealed(np.hstack(blocks[r::-1])) for r in range(n)]
    s_ranks = tuple(_anchored_rank(S[r], max(scales[:r + 1])) for r in range(n))
    feasible = _rank_steps(s_ranks, p)
    H0 = _sealed(np.hstack([model.H, np.zeros((n, (n - 1) * p))]))
    Eb = _sealed(np.hstack(CA[n - 1::-1] + [np.eye(model.l)]))     # [CA^(n-1) ... C | I]
    delays = tuple(
        _Delay(r=r, feasible=r in feasible, CA=tuple(CA[:r + 2]), blocks=blocks[:r + 1],
               lower_nonzero=next((d for d in range(r) if markov_ranks[d]), None),
               S=S[r], Eb=Eb[:, (n - 1 - r) * n:],
               S_pinv=_sealed(pinv_cut(S[r])) if r in feasible else None,
               H0=H0[:, :(r + 1) * p], tol=RESIDUAL_RTOL * (1.0 + frob(model.H)))
        for r in range(n))
    return _Profile(blocks=blocks, scales=scales, markov_ranks=markov_ranks,
                    s_ranks=s_ranks, feasible=feasible, delays=delays)


def _delay(model: SystemModel, r: int) -> _Delay:
    """The constraint constants at (model, r), from the model's profile."""
    _check_delay(model, r)
    return _profile(model).delays[r]


def exists_unbiased_gain(model: SystemModel, r: int, check_range: bool = True) -> bool:
    """True iff rank(S_r) - rank(S_(r-1)) = p, with rank(S_(-1)) = 0.

    At r = 0 this collapses to the classical full-rank test on CH.
    check_range=False answers False at r >= n instead of raising: by
    Cayley-Hamilton CA^rH adds no columns to the span of S_(r-1) there.
    """
    _check_delay(model, r, bounded=check_range)
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
    every delay from there to n-1.
    """
    profile, n, l, p = _profile(model), model.n, model.l, model.p
    T = markov_toeplitz(model, n - 1)
    invertible, prev = (), 0
    for r in range(n):
        rank = _anchored_rank(T[:(r + 1) * l, :(r + 1) * p], max(profile.scales[:r + 1]))
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
