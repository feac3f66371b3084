"""Bundled reference systems and their verified expected facts.

Each entry pairs a small benchmark system with structural facts (delay
profile, invariant zeros, convergence class, reconstruction accuracy)
that the reproduce pipeline recomputes and checks. The recorded facts
are what the mathematics actually gives for these systems; they were
cross-checked against independent oracles (exact determinant fits,
hand rank computations, brute-force simulation) before being frozen
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnknownExample
from .filtering import (
    ASYMPTOTIC,
    DEADBEAT,
    DIVERGENT,
    FIXED_SQUARE,
    FilterConfig,
    classify_convergence,
    error_dynamics_matrix,
    gain_spectral_radius,
    predicted_error_sequence,
)
from .gain import minvar_gain, simplified_minvar_gain, square_gain, steady_state_gain
from .linalg import frob, numerical_rank, sealed
from .markov import analyze_delays, markov_parameter
from .model import NoiseSpec, SystemModel, validate_model
from .sim import compartmental_model, run_experiment, simulate
from .signals import SignalSpec
from .zeros import NO_ZEROS, invariant_zeros

_MINPHASE3_A = [[1.1, -0.6, 1.0], [0.5, 0.0, 1.0], [0.0, 0.2, 0.3]]
_MINPHASE3_H = [[2.0], [0.0], [0.0]]
_MINPHASE3_C = [[0.0, 0.4, 1.0]]

_NONMIN3_A = [[0.0725, 1.0, 0.2072], [-0.6158, 0.0725, 0.2339], [0.0, 0.0, -0.1449]]
_NONMIN3_H = [[0.0], [0.0], [4.0]]
_NONMIN3_C = [[5.005, 0.0, 0.0]]
_NONSQ3_C = [[5.005, 0.0, 0.0], [0.0, 0.1, 0.0]]

_INV4_A = [[0.5, -0.6, 0.0, 0.0],
           [0.5, 0.0, 0.0, 0.0],
           [0.0, 0.0, -0.5, -0.6],
           [0.0, 0.0, 0.5, 0.0]]
_INV4_H = [[4.0, 0.0], [0.0, 0.0], [0.0, 4.0], [0.0, 0.0]]
_INV4_C = [[0.25, 1.05, 0.25, 1.1],
           [0.25, 1.15, 0.25, 1.0],
           [0.25, 1.05, 0.25, 1.1]]

# Twelve states as six decoupled 2x2 blocks.
_NS12_BLOCKS = (
    ((-0.95, -0.04), (0.025, 1.0)),
    ((0.97, -0.06), (0.05, 1.0)),
    ((0.95, -0.05), (0.1, 1.0)),
    ((0.98, -0.04), (0.05, 1.0)),
    ((0.95, -0.08), (0.05, 1.0)),
    ((0.95, -0.06), (0.1, 1.0)),
)
_NS12_C = [
    [0.25, 2, 0, 0, 0, 0, 0.5, 2, 0, 0, 0, 0],
    [0, 0, 0.5, 2, 0, 0, 0, 0, 0.5, 2, 0, 0],
    [0, 0, 0, 0, 0.5, 1, 0, 0, 0, 0, 0.5, 1],
]


def _nonsquare12_model() -> SystemModel:
    A = np.zeros((12, 12))
    for i, blk in enumerate(_NS12_BLOCKS):
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
    H = np.zeros((12, 2))
    H[[0, 2, 4, 6, 8, 10], [0, 0, 0, 1, 1, 1]] = [0.4, 0.2, 0.2, 0.2, 0.2, 0.2]
    return validate_model(A, H, _NS12_C)


def default_noise(model: SystemModel) -> NoiseSpec:
    """The registry's default covariance pair, 1e-4 on both diagonals, sized for the model.

    Every model of one (n, l) gets one shared NoiseSpec of read-only arrays,
    built and put through the covariance rule the first time that size asks.
    """
    return _default_noise(model.n, model.l)


@lru_cache(maxsize=128)
def _default_noise(n: int, l: int) -> NoiseSpec:
    return NoiseSpec(Q=sealed(1e-4 * np.eye(n)), R=sealed(1e-4 * np.eye(l)))


def example_signals(model: SystemModel):
    """Canonical drive signals: a sawtooth and a sinusoid, or one sinusoid."""
    if model.p >= 2:
        sigs = [SignalSpec("sawtooth", 1.0, 50.0), SignalSpec("sine", 1.0, 40.0)]
        sigs += [SignalSpec("sine", 1.0, 25.0 + 5.0 * i) for i in range(model.p - 2)]
        return tuple(sigs)
    return (SignalSpec("sine", 1.0, 40.0),)


@dataclass(frozen=True)
class Fact:
    name: str
    check: object          # callable(model, noise) -> (bool, detail)


@dataclass(frozen=True)
class FactResult:
    name: str
    passed: bool
    detail: str


def _match_multiset(values, expected, tol: float):
    """Greedy one-to-one matching of two complex multisets within tol."""
    remaining = list(values)
    if len(remaining) != len(expected):
        return False, f"got {len(remaining)} values, expected {len(expected)}"
    worst = 0.0
    for target in expected:
        dists = [abs(v - target) for v in remaining]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        if dists[i] > tol:
            return False, f"no value within {tol:.1e} of {target} (closest {dists[i]:.2e})"
        remaining.pop(i)
    return True, f"matched, worst distance {worst:.2e}"


def _zeros_fact(expected, tol):
    def check(model, noise):
        report = invariant_zeros(model)
        if not expected:
            ok = report.classification == NO_ZEROS
            return ok, f"classification {report.classification}, zeros {report.zeros}"
        return _match_multiset(report.zeros, expected, tol)
    return check


def _delay_profile_fact(minimal, feasible):
    def check(model, noise):
        analysis = analyze_delays(model)
        ok = analysis.minimal_delay == minimal and analysis.feasible_delays == feasible
        return ok, (f"minimal_delay {analysis.minimal_delay}, "
                    f"feasible {analysis.feasible_delays}")
    return check


def _markov_rank_fact(zero_upto, full_rank_at, full_rank):
    def check(model, noise):
        for d in range(zero_upto + 1):
            peak = float(np.max(np.abs(markov_parameter(model, d))))
            if peak > 1e-12:
                return False, f"CA^{d}H has entries up to {peak:.2e}, expected zero"
        rk = numerical_rank(markov_parameter(model, full_rank_at))
        ok = rk == full_rank
        return ok, f"rank(CA^{full_rank_at}H) = {rk}"
    return check


def _square_spectrum_fact(r, expected_eigs, verdict):
    def check(model, noise):
        L = square_gain(model, r).L
        eigs = np.linalg.eigvals(error_dynamics_matrix(model, r, L))
        ok, detail = _match_multiset(eigs, expected_eigs, 1e-6)
        got_verdict = classify_convergence(model, r, L)
        if got_verdict != verdict:
            return False, f"verdict {got_verdict}, expected {verdict} ({detail})"
        return ok, f"verdict {got_verdict}; {detail}"
    return check


def _square_run(model, r, x0, T, seed):
    """Error stats of the square gain at r from x0 over a noiseless T-step record."""
    config = FilterConfig(r=r, gain_mode=FIXED_SQUARE, initial_estimate=x0,
                          initial_covariance=np.eye(model.n))
    traj = simulate(model, None, example_signals(model), T, seed=seed)
    return run_experiment(model, None, config, traj)[0]


def _noiseless_rms_fact(r, T=500, tol=1e-8):
    def check(model, noise):
        stats = _square_run(model, r, np.zeros(model.n), T, seed=11)
        ok = stats.input_rms <= tol
        return ok, f"input rms {stats.input_rms:.3e} over {len(stats.ks)} steps"
    return check


def _steady_state_fact(r, expect_converged, rho=None, rho_tol=1e-4):
    def check(model, noise):
        gain, cov, converged = steady_state_gain(model, noise, r)
        if converged != expect_converged:
            return False, f"converged={converged}, expected {expect_converged}"
        got = gain_spectral_radius(model, r, gain.L)
        if rho is not None and abs(got - rho) > rho_tol:
            return False, f"steady spectral radius {got:.6f}, expected {rho:.6f}"
        if converged and rho is None:
            return True, f"converged=True, trace {cov.trace:.3e}"
        return True, f"converged={converged}, spectral radius {got:.6f}"
    return check


def _overlay_fact(r, T=100, tol=1e-8):
    """Noiseless actual error versus the autonomous prediction."""
    def check(model, noise):
        offset = 0.1 * np.arange(1, model.n + 1)
        stats = _square_run(model, r, offset, T, seed=3)
        L = square_gain(model, r).L
        predicted = predicted_error_sequence(model, r, L, -offset, T)
        worst = 0.0
        for i, k in enumerate(stats.ks):
            worst = max(worst, float(np.max(np.abs(stats.state_errors[i] - predicted[k - r]))))
        ok = worst <= tol
        return ok, f"max |actual - predicted| = {worst:.3e}"
    return check


def _growth_rate_fact(r, rate, j_lo=20, j_hi=60, rel_tol=0.05):
    """Divergence slope of log ||error|| against the dominant eigenvalue."""
    def check(model, noise):
        offset = 0.1 * np.arange(1, model.n + 1)
        stats = _square_run(model, r, offset, j_hi + r + 5, seed=3)
        js = stats.ks - r
        mask = (js >= j_lo) & (js <= j_hi)
        norms = np.linalg.norm(stats.state_errors[mask], axis=1)
        slope = float(np.polyfit(js[mask], np.log(norms), 1)[0])
        target = float(np.log(rate))
        ok = abs(slope - target) <= rel_tol * abs(target)
        return ok, f"log-slope {slope:.5f}, expected ln({rate}) = {target:.5f}"
    return check


def _verdict_fact(r, expected):
    def check(model, noise):
        L = square_gain(model, r).L
        verdict = classify_convergence(model, r, L)
        return verdict == expected, f"verdict {verdict}"
    return check


def _nonsquare12_gain_spectrum(model, noise):
    res = minvar_gain(model, noise, 1, np.eye(model.n))   # raises above the tolerance
    eigs = np.linalg.eigvals(error_dynamics_matrix(model, 1, res.L))
    closest = sorted(eigs, key=lambda z: abs(z - 0.8))[:2]
    ok, detail = _match_multiset(closest, [0.8, 0.8], 1e-6)
    if not ok:
        return False, detail
    extra = any(abs(z - 0.8) > 1e-3 for z in eigs)
    if not extra:
        return False, "every eigenvalue sits at the zero, expected extras"
    return True, f"residual {res.residual:.2e}; zeros inside spectrum plus extras"


def _gain_equivalence_fact(r):
    def check(model, noise):
        full = minvar_gain(model, noise, r, np.eye(model.n))
        simplified = simplified_minvar_gain(model, noise, r, np.eye(model.n))
        gap = frob(full.L - simplified.L)
        return gap <= 1e-8, f"gain difference {gap:.3e}"
    return check


def _invertibility_gap(model, noise):
    analysis = analyze_delays(model)
    if analysis.feasible_delays != () or analysis.minimal_delay is not None:
        return False, f"feasible delays {analysis.feasible_delays}, expected none"
    if analysis.invertible_delays != (1, 2, 3):
        return False, f"invertible delays {analysis.invertible_delays}, expected (1, 2, 3)"
    ranks = [rank for _, rank in analysis.s_ranks]
    gaps = [rank - prev for prev, rank in zip([0] + ranks, ranks)]
    return True, f"invertible at (1, 2, 3) while stack gaps are {gaps}"


# One entry per bundled example, in EXAMPLE_IDS order: the builder of its model
# and the facts checked on that model. Every lookup builds a new model; the plan
# and profile caches key on the model's identity, so a caller never finds a gain
# schedule that another caller computed.
_EXAMPLES = {
    "compartmental-25": (lambda: compartmental_model(6, 0.1, 0.1, (1, 6), (2, 5)), (
        Fact("delay-profile", _delay_profile_fact(1, (1,))),
        Fact("markov-ranks", _markov_rank_fact(0, 1, 2)),
        Fact("invariant-zeros", _zeros_fact((0.7, 0.9), 1e-6)),
        Fact("error-spectrum", _square_spectrum_fact(
            1, (0.0, 0.0, 0.0, 0.0, 0.7, 0.9), ASYMPTOTIC)),
        Fact("noiseless-input-rms", _noiseless_rms_fact(1)),
    )),
    "compartmental-34": (lambda: compartmental_model(6, 0.1, 0.1, (1, 6), (3, 4)), (
        Fact("delay-profile", _delay_profile_fact(2, (2,))),
        Fact("markov-ranks", _markov_rank_fact(1, 2, 2)),
        Fact("invariant-zeros", _zeros_fact((), 0.0)),
        # square at r = 2 with p = 2: n = (r+1)p = 6, so [C; CA; CA^2] is
        # invertible and F = A - L CA^3 is nilpotent
        Fact("verdict", _verdict_fact(2, DEADBEAT)),
        Fact("noiseless-input-rms", _noiseless_rms_fact(2)),
    )),
    "minphase3": (lambda: validate_model(_MINPHASE3_A, _MINPHASE3_H, _MINPHASE3_C), (
        Fact("delay-profile", _delay_profile_fact(1, (1,))),
        Fact("invariant-zeros", _zeros_fact((-0.2,), 1e-6)),
        Fact("error-spectrum", _square_spectrum_fact(1, (0.0, 0.0, -0.2), ASYMPTOTIC)),
        Fact("steady-state", _steady_state_fact(1, True)),
        Fact("error-overlay", _overlay_fact(1)),
    )),
    "nonminphase3": (lambda: validate_model(_NONMIN3_A, _NONMIN3_H, _NONMIN3_C), (
        Fact("invariant-zeros", _zeros_fact((-1.0564,), 1e-3)),
        Fact("verdict", _verdict_fact(1, DIVERGENT)),
        Fact("steady-state", _steady_state_fact(1, False)),
        Fact("growth-rate", _growth_rate_fact(1, 1.0564)),
    )),
    "nonsquare3": (lambda: validate_model(_NONMIN3_A, _NONMIN3_H, _NONSQ3_C), (
        Fact("delay-profile", _delay_profile_fact(1, (1, 2))),
        Fact("invariant-zeros", _zeros_fact((), 0.0)),
        Fact("steady-state", _steady_state_fact(1, True, rho=0.798346228)),
        Fact("gain-equivalence", _gain_equivalence_fact(1)),
    )),
    "nonsquare12": (_nonsquare12_model, (
        Fact("delay-profile", _delay_profile_fact(1, (1,))),
        Fact("invariant-zeros", _zeros_fact((0.8, 0.8), 1e-6)),
        Fact("minvar-gain-spectrum", _nonsquare12_gain_spectrum),
    )),
    "invertibility4": (lambda: validate_model(_INV4_A, _INV4_H, _INV4_C), (
        Fact("invertible-but-infeasible", _invertibility_gap),
        Fact("invariant-zeros", _zeros_fact((-2.15,), 1e-6)),
    )),
}

EXAMPLE_IDS = tuple(_EXAMPLES)


def reference_example(example_id: str):
    """(SystemModel, NoiseSpec, facts) for a bundled example id, with a new model per call
    and default_noise's shared spec."""
    if not isinstance(example_id, str) or example_id not in _EXAMPLES:
        raise UnknownExample(
            f"unknown example {example_id!r}; known ids: {', '.join(EXAMPLE_IDS)}")
    build, facts = _EXAMPLES[example_id]
    model = build()
    return model, default_noise(model), facts


def check_example_facts(example_id: str) -> list[FactResult]:
    """Recompute every recorded fact for the example."""
    model, noise, facts = reference_example(example_id)
    results = []
    for fact in facts:
        try:
            passed, detail = fact.check(model, noise)
        except Exception as exc:                      # a crash is a failed fact
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(FactResult(name=fact.name, passed=bool(passed), detail=detail))
    return results
