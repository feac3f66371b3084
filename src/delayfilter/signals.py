"""Deterministic test signals for driving simulations.

The CLI grammar is kind:amplitude:period[:phase], e.g. sine:1:40 or
sawtooth:0.5:50:0.25. Amplitude defaults to 1, period to 1, phase to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolated

SINE = "sine"
SAWTOOTH = "sawtooth"
STEP = "step"
CONSTANT = "constant"
PRBS = "prbs"
GAUSSIAN = "gaussian"
KINDS = (SINE, SAWTOOTH, STEP, CONSTANT, PRBS, GAUSSIAN)

RANDOM_KINDS = (PRBS, GAUSSIAN)


@dataclass(frozen=True)
class SignalSpec:
    kind: str
    amplitude: float = 1.0
    period: float = 1.0      # step: onset time; prbs: hold length per draw
    phase: float = 0.0       # fraction of a period, used by sine and sawtooth

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}; pick one of {KINDS}")
        if not np.all(np.isfinite([self.amplitude, self.period, self.phase])):
            raise ValueError(f"{self.kind} needs a finite amplitude, period and phase, got "
                             f"{self.amplitude}, {self.period}, {self.phase}")
        if self.kind in (SINE, SAWTOOTH, PRBS) and self.period <= 0:
            raise ValueError(f"{self.kind} needs period > 0, got {self.period}")


# kinds whose shape does not depend on a period
_APERIODIC = (CONSTANT, GAUSSIAN)


def parse_signal_spec(text: str) -> SignalSpec:
    """Parse the kind:amplitude:period[:phase] grammar.

    Period is required for the periodic kinds; constant and gaussian may
    drop it (kind:amplitude), since it has no effect on them.
    """
    parts = text.split(":")
    kind = parts[0].strip().lower()
    if len(parts) > 4:
        raise ValueError(f"too many fields in signal spec {text!r}")
    try:
        numbers = [float(s) for s in parts[1:]]
    except ValueError:
        raise ValueError(f"non-numeric field in signal spec {text!r}") from None
    minimum = 1 if kind in _APERIODIC else 2
    if len(numbers) < minimum:
        raise ValueError(
            f"signal spec {text!r} is incomplete: expected "
            f"kind:amplitude:period[:phase]")
    amplitude = numbers[0]
    period = numbers[1] if len(numbers) >= 2 else 1.0
    phase = numbers[2] if len(numbers) >= 3 else 0.0
    return SignalSpec(kind=kind, amplitude=amplitude, period=period, phase=phase)


def signal_values(spec: SignalSpec, T: int, rng=None) -> np.ndarray:
    """Evaluate the signal at k = 0..T.

    prbs and gaussian (RANDOM_KINDS) draw from the rng and raise
    PreconditionViolated without one; sine and friends ignore it, so the
    deterministic kinds are reproducible without any seed bookkeeping.
    """
    k = np.arange(T + 1, dtype=float)
    a = spec.amplitude
    if spec.kind == SINE:
        return a * np.sin(2.0 * np.pi * (k / spec.period + spec.phase))
    if spec.kind == SAWTOOTH:
        frac = np.mod(k / spec.period + spec.phase, 1.0)
        return a * (2.0 * frac - 1.0)
    if spec.kind == STEP:
        return np.where(k >= spec.period, a, 0.0)
    if spec.kind == CONSTANT:
        return np.full(T + 1, a)
    if rng is None:
        raise PreconditionViolated(f"a {spec.kind} signal needs an rng to draw from")
    if spec.kind == PRBS:
        hold = max(1, int(round(spec.period)))
        ndraws = (T + 1 + hold - 1) // hold + 1
        signs = rng.integers(0, 2, size=ndraws) * 2 - 1
        return a * np.repeat(signs, hold)[: T + 1].astype(float)
    return a * rng.standard_normal(T + 1)       # GAUSSIAN, the last kind SignalSpec admits
