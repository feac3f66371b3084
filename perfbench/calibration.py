"""Correction for the machine's speed at the moment of measurement.

On a shared 2-core virtual machine (Xeon, 2.1 GHz) the same code ran up
to 1.7x slower for stretches of seconds to minutes while other tenants
loaded the host, and the guest saw no steal time. A fixed reference
kernel, run right before and right after every timed operation,
measures that slowdown: its time divided by NOMINAL_S. Reported times
are divided by the slowdown, which leaves them in seconds as the host
runs when the kernel takes exactly NOMINAL_S. On that machine this cut
the spread between 20-second runs from 8-30% to 1-7%.

The kernel mixes the kinds of work the package does per step: small
numpy solves and products, frozen-dataclass copies and an interpreted
integer loop. It depends on numpy and the interpreter only, so no
change to the package can move it.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

NOMINAL_S = 1e-3

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((3, 3)) + 3.0 * np.eye(3)
_V = _RNG.standard_normal(3)


@dataclasses.dataclass(frozen=True)
class _Record:
    vector: np.ndarray
    k: int


def kernel() -> float:
    x = _V
    for _ in range(50):
        x = np.linalg.solve(_M, x) + _M @ x
        x = np.hstack([x / np.linalg.norm(x), x])[:3]
    rec = _Record(x, 0)
    for _ in range(150):
        rec = dataclasses.replace(rec, k=rec.k + 1)
    total = 0
    for i in range(1500):
        total += i * i
    return float(x[0]) + rec.k + total


def slowdown() -> float:
    """The faster of two kernel runs over NOMINAL_S.

    Taking the faster run drops the first call's lazy set-up in a fresh
    process and the odd interrupt.
    """
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return min(times) / NOMINAL_S


def timed(fn):
    """(fn(), slowdown) with the slowdown averaged over both sides of the call."""
    before = slowdown()
    result = fn()
    return result, 0.5 * (before + slowdown())
