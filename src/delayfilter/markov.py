"""Markov-parameter rank analysis.

Decides which reconstruction delays r admit an unbiased gain, reports
the smallest one, and separately reports the delays from which the
input sequence is recoverable at all (a strictly weaker property; see
the bundled 4-state counterexample in the registry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DelayOutOfRange
from .linalg import RANK_RCOND, numerical_rank
from .model import SystemModel


def markov_parameter(model: SystemModel, d: int) -> np.ndarray:
    """C A^d H."""
    return markov_blocks(model, d)[-1]


def markov_blocks(model: SystemModel, dmax: int) -> list[np.ndarray]:
    """[CH, CAH, ..., CA^dmax H] sharing the intermediate products."""
    return _blocks_and_scales(model, dmax)[0]


def _check_delay(model: SystemModel, r: int, check_range: bool) -> None:
    """r < 0 is left to _blocks_and_scales, which every caller runs next."""
    if check_range and r > model.n - 1:
        raise DelayOutOfRange(f"delay {r} outside 0..{model.n - 1}")


def _blocks_and_scales(model: SystemModel, dmax: int):
    """Markov blocks plus the analytic size ||C||*||A^d H|| of each.

    Rank decisions on these blocks cannot use a tolerance relative to the
    computed matrix itself: a block that is zero in exact arithmetic comes
    out as O(eps)*||C||*||A^d H|| rounding dust, and dust has a perfectly
    good largest singular value of its own. The analytic size is what the
    dust is small relative to.
    """
    if dmax < 0:
        raise DelayOutOfRange(f"Markov parameter index must be >= 0, got {dmax}")
    powers = [model.H]                  # A^d H, by repeated multiplication of A onto H
    for _ in range(dmax):
        powers.append(model.A @ powers[-1])
    c_norm = float(np.linalg.norm(model.C))
    return [model.C @ X for X in powers], [c_norm * float(np.linalg.norm(X)) for X in powers]


def _anchored_rank(matrix: np.ndarray, scale: float) -> int:
    if matrix.size == 0 or scale == 0.0:
        return 0
    return numerical_rank(matrix, tol=scale * max(matrix.shape) * RANK_RCOND)


def markov_row_stack(model: SystemModel, r: int, check_range: bool = True) -> np.ndarray:
    """The l x (r+1)p block row [CA^rH  CA^(r-1)H  ...  CH].

    check_range=False evaluates the stack beyond r = n-1; useful only
    as a diagnostic (the gain constraint is provably unsolvable there).
    """
    _check_delay(model, r, check_range)
    blocks = markov_blocks(model, r)
    return np.hstack(blocks[::-1])


def markov_toeplitz(model: SystemModel, r: int, check_range: bool = True) -> np.ndarray:
    """Block lower-triangular (r+1)l x (r+1)p map from inputs to outputs.

    Block (i, j) is CA^(i-j)H for i >= j and zero above the diagonal,
    so row block i collects the output contribution of inputs 0..i.
    """
    _check_delay(model, r, check_range)
    blocks = markov_blocks(model, r)
    l, p = model.l, model.p
    out = np.zeros(((r + 1) * l, (r + 1) * p))
    for i in range(r + 1):
        for j in range(i + 1):
            out[i * l:(i + 1) * l, j * p:(j + 1) * p] = blocks[i - j]
    return out


def _rank_gap_is_p(blocks, scales, p: int) -> bool:
    """The feasibility test below on the blocks and scales of d = 0..r."""
    r, scale = len(blocks) - 1, max(scales)
    rank_r = _anchored_rank(np.hstack(blocks[::-1]), scale)
    rank_prev = 0
    if r > 0:
        rank_prev = _anchored_rank(np.hstack(blocks[r - 1::-1]), scale)
    return rank_r - rank_prev == p


def exists_unbiased_gain(model: SystemModel, r: int, check_range: bool = True) -> bool:
    """True iff rank(S_r) - rank(S_(r-1)) = p, with rank(S_(-1)) = 0.

    At r = 0 this collapses to the classical full-rank test on CH.
    """
    _check_delay(model, r, check_range)
    return _rank_gap_is_p(*_blocks_and_scales(model, r), model.p)


def minimal_delay(model: SystemModel):
    """Smallest feasible delay in 0..n-1, or None.

    The search range is exhaustive: no delay >= n can ever work, since
    A^n is a combination of lower powers and the new stack block adds
    no row space.
    """
    for r in range(model.n):
        if exists_unbiased_gain(model, r):
            return r
    return None


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
    """Full rank sweep over d = 0..n and r = 0..n-1."""
    n, l, p = model.n, model.l, model.p
    blocks, scales = _blocks_and_scales(model, n)
    markov_ranks = tuple((d, _anchored_rank(blocks[d], scales[d]))
                         for d in range(n + 1))

    s_ranks = []
    prev_rank = 0
    feasible = []
    for r in range(n):
        rank_r = _anchored_rank(np.hstack(blocks[r::-1]), max(scales[:r + 1]))
        s_ranks.append((r, rank_r))
        if rank_r - prev_rank == p:
            feasible.append(r)
        prev_rank = rank_r

    invertible = []
    prev_rank = 0
    for r in range(n):
        rank_r = _anchored_rank(markov_toeplitz(model, r), max(scales[:r + 1]))
        if rank_r - prev_rank == p:
            invertible.append(r)
        prev_rank = rank_r

    return DelayAnalysis(
        markov_ranks=markov_ranks,
        s_ranks=tuple(s_ranks),
        feasible_delays=tuple(feasible),
        minimal_delay=feasible[0] if feasible else None,
        invertible_delays=tuple(invertible),
        conjecture_violated=len(feasible) > 1,
    )
