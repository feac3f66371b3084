"""Gain construction: square inversion, minimum variance, covariance."""

import warnings

import numpy as np
import pytest

import delayfilter as df
from delayfilter.gain import (DOUBLING_ROUNDS, _error_terms, _innovation_terms, _lyapunov,
                             _noise_covariance, constraint_target, covariance_state)
from delayfilter.linalg import frob
from delayfilter.markov import _delay
from conftest import (ill_conditioned_square_model, make_feasible_system, make_square_system,
                      random_noise)

E1 = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])


def test_square_gain_value_and_method():
    res = df.square_gain(E1, 1)
    assert np.allclose(res.L, [[1.0], [0.0]])  # H (CAH)^-1 with CAH = 1
    assert res.method == df.SQUARE_INVERSE
    assert res.residual <= 1e-12


def test_square_gain_r0_method_name():
    model = df.validate_model([[0.9, 0.1], [0.0, 0.8]], [[1.0], [0.0]], [[1.0, 0.0]])
    res = df.square_gain(model, 0)
    assert res.method == df.NO_DELAY_CLASSICAL
    assert np.allclose(res.L, model.H @ np.linalg.inv(model.C @ model.H))


def test_square_gain_rejects_nonsquare():
    model, _, _ = df.reference_example("nonsquare3")
    with pytest.raises(df.NotSquare):
        df.square_gain(model, 1)


def test_square_gain_singular_markov():
    with pytest.raises(df.InfeasibleDelay, match="delay 0: the rank gap .* is 0, not p = 1"):
        df.square_gain(E1, 0)  # CH = 0


def test_square_gain_lower_markov_gate():
    # CH invertible, so asking for r=1 hides a nonzero lower parameter
    model = df.validate_model([[0.9, 0.1], [0.0, 0.8]], [[1.0], [0.0]], [[1.0, 0.0]])
    with pytest.raises(df.InfeasibleDelay, match="delay 1: the rank gap .* is 0, not p = 1"):
        df.square_gain(model, 1)


def test_square_gain_reads_feasibility_from_the_rank_profile():
    # CH = diag(1, 1.5e-12) has condition number 6.7e11 and solves without
    # complaint, but 1.5e-12 is below the rank tolerance 2 ||C|| ||H|| 1e-12
    model = df.validate_model(np.diag([0.5, 0.4, 0.3]), [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                              [[1.0, 0.0, 0.0], [0.0, 1.5e-12, 0.0]])
    assert df.analyze_delays(model).feasible_delays == ()
    with pytest.raises(df.InfeasibleDelay, match="delay 0: the rank gap .* is 1, not p = 2"):
        df.square_gain(model, 0)
    for r in range(model.n):
        try:
            df.square_gain(model, r)
            built = True
        except df.InfeasibleDelay:
            built = False
        assert built == df.exists_unbiased_gain(model, r)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_square_gain_gates_its_residual(seed):
    model = ill_conditioned_square_model(seed)
    assert df.exists_unbiased_gain(model, 0)
    with pytest.raises(df.ConstraintViolated, match="square gain: residual"):
        df.square_gain(model, 0)
    config = df.FilterConfig(r=0, gain_mode=df.FIXED_SQUARE, initial_estimate=np.zeros(3),
                             initial_covariance=np.eye(3))
    with pytest.raises(df.ConstraintViolated, match="square gain: residual"):
        df.init_filter(model, None, config)


def test_unbiasedness_residual_measures_violation():
    L = df.square_gain(E1, 1).L
    assert df.unbiasedness_residual(E1, 1, L) <= 1e-12
    assert df.unbiasedness_residual(E1, 1, L + 0.1) > 1e-3


def test_minvar_requires_feasible_delay():
    noise = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    with pytest.raises(df.InfeasibleDelay, match="delay 0: the rank gap .* is 0, not p = 1"):
        df.minvar_gain(E1, noise, 0, np.eye(2))


def test_minvar_matches_square_when_unique():
    noise = df.NoiseSpec(Q=1e-3 * np.eye(2), R=1e-3 * np.eye(1))
    L_mv = df.minvar_gain(E1, noise, 1, np.eye(2)).L
    L_sq = df.square_gain(E1, 1).L
    assert np.allclose(L_mv, L_sq, atol=1e-10)


def test_minvar_residual_bound_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        drawn = make_feasible_system(rng)
        if drawn is None:
            continue
        model, r = drawn
        noise = random_noise(rng, model)
        res = df.minvar_gain(model, noise, r, np.eye(model.n))
        assert res.method == df.MINVAR_LAGRANGIAN
        assert res.residual <= 1e-9 * (1.0 + np.linalg.norm(model.H))


def _lagrangian_gain(V, G, S, H0):
    """(L, x, kappa): the trace-optimal gain from the Lagrangian's KKT system
    K x = [G^T; H0^T], K = [[V, S], [S^T, 0]], x = [L^T; M^T], solved by least
    squares because the multiplier block M is not unique when S lacks full
    column rank; x is the least-norm solution, kappa = sigma_1 / sigma_rank of K."""
    l, q = S.shape
    K = np.block([[V, S], [S.T, np.zeros((q, q))]])
    x, _, rank, sv = np.linalg.lstsq(K, np.vstack([G.T, H0.T]), rcond=None)
    return x[:l].T, x, sv[0] / sv[rank - 1]


def test_minvar_gain_matches_the_lagrangian_oracle():
    # Tolerance: lstsq returns the least-norm solution x of a KKT matrix
    # perturbed by about m eps ||K||, m = l + (r+1)p its order, and for a
    # consistent system that moves x by at most about 2 kappa m eps ||x||
    # (Wedin's bound), kappa = sigma_1 / sigma_rank of K. minvar_gain solves
    # the same system, in the coordinates L_min + Y N^T, with a backward error
    # of the same order; so the two gains differ by at most 4 kappa m eps ||x||.
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    cases = 0
    while cases < 60:
        drawn = make_feasible_system(rng)
        if drawn is None or drawn[0].l == drawn[0].p:
            continue
        model, noise = drawn[0], random_noise(rng, drawn[0])
        X = rng.standard_normal((model.n, model.n))
        for r in df.analyze_delays(model).feasible_delays:
            d = _delay(model, r)
            for P in (np.eye(model.n), X @ X.T + 1e-3 * np.eye(model.n)):
                V, G = _innovation_terms(model, noise, d, P)
                L_ref, x, kappa = _lagrangian_gain(V, G, d.S, d.H0)
                L = df.minvar_gain(model, noise, r, P).L
                bound = 4 * kappa * sum(d.S.shape) * eps * np.linalg.norm(x)
                assert np.linalg.norm(L - L_ref) <= bound
                cases += 1


@pytest.mark.parametrize("example, r", [("nonsquare3", 2), ("nonsquare12", 1)])
def test_a_unique_minvar_gain_does_not_depend_on_the_covariance(example, r):
    # rank S_r = l: the constraint leaves no null space, so the gain is L_min
    model, noise, _ = df.reference_example(example)
    d, rng = _delay(model, r), np.random.default_rng(25)
    assert d.N.shape == (model.l, 0)
    X = rng.standard_normal((model.n, model.n))
    for P in (None, 1e-3 * np.eye(model.n), X @ X.T):
        assert np.array_equal(df.minvar_gain(model, noise, r, P).L, d.L_min)


def test_simplified_minvar_agrees_on_its_domain():
    model, noise, _ = df.reference_example("nonsquare3")
    full = df.minvar_gain(model, noise, 1, np.eye(model.n))
    simp = df.simplified_minvar_gain(model, noise, 1, np.eye(model.n))
    assert simp.method == df.SIMPLIFIED_MINVAR
    assert np.max(np.abs(full.L - simp.L)) <= 1e-8


def test_simplified_minvar_guards_rank():
    # CH != 0 below the delay: the simplified closed form does not apply
    model, noise, _ = df.reference_example("nonsquare12")
    with pytest.raises(df.PreconditionViolated):
        df.simplified_minvar_gain(model, noise, 1, np.eye(model.n))
    # rank(CA^rH) < p: no unbiased gain exists, the verdict every gain path reads
    model = df.validate_model(0.5 * np.eye(3), [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                              [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    noise = df.NoiseSpec(Q=np.eye(3), R=np.eye(2))
    with pytest.raises(df.InfeasibleDelay, match="delay 0: the rank gap .* is 1, not p = 2"):
        df.simplified_minvar_gain(model, noise, 0, np.eye(3))


def test_covariance_update_shapes_and_symmetry():
    noise = df.NoiseSpec(Q=1e-3 * np.eye(2), R=1e-3 * np.eye(1))
    L = df.square_gain(E1, 1).L
    state = df.covariance_update(E1, noise, 1, L, np.eye(2))
    assert state.P.shape == (2, 2)
    assert np.allclose(state.P, state.P.T)
    assert state.trace == pytest.approx(float(np.trace(state.P)))
    assert state.trace > 0.0


def test_covariance_update_rejects_biased_gain():
    noise = df.NoiseSpec(Q=1e-3 * np.eye(2), R=1e-3 * np.eye(1))
    L = df.square_gain(E1, 1).L + 0.05
    with pytest.raises(df.ConstraintViolated):
        df.covariance_update(E1, noise, 1, L, np.eye(2))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_residual_gate_rejects_a_nonfinite_gain(value):
    # L S_r - [H 0 ... 0] of a NaN gain has a NaN norm, which no "residual > tol" catches
    model, noise, _ = df.reference_example("nonsquare3")
    L = np.full((model.n, model.l), value)
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_USER_SUPPLIED,
                             initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n), gain=L)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(df.ConstraintViolated, match="gain is not finite"):
            df.init_filter(model, noise, config)
        with pytest.raises(df.ConstraintViolated, match="gain is not finite"):
            df.covariance_update(model, noise, 1, L, np.eye(model.n))
        with pytest.raises(df.ConstraintViolated, match="gain is not finite"):
            df.classify_convergence(model, 1, L)


def test_covariance_monotone_in_noise():
    L = df.square_gain(E1, 1).L
    small = df.NoiseSpec(Q=1e-4 * np.eye(2), R=1e-4 * np.eye(1))
    large = df.NoiseSpec(Q=1e-2 * np.eye(2), R=1e-2 * np.eye(1))
    P_small = df.covariance_update(E1, small, 1, L, np.eye(2))
    P_large = df.covariance_update(E1, large, 1, L, np.eye(2))
    gap = np.linalg.eigvalsh(P_large.P - P_small.P)
    assert gap.min() >= -1e-12


def test_steady_state_converges_stable():
    model, noise, _ = df.reference_example("minphase3")
    res, cov, converged = df.steady_state_gain(model, noise, 1)
    assert converged is True
    assert cov.trace > 0.0
    # converged covariance is a fixed point of the update
    again = df.covariance_update(model, noise, 1, res.L, cov.P)
    assert np.max(np.abs(again.P - cov.P)) <= 1e-8 * (1.0 + cov.trace)


def test_steady_state_flags_divergence():
    model, _, _ = df.reference_example("nonminphase3")
    noise = df.NoiseSpec(Q=1e-4 * np.eye(model.n), R=1e-4 * np.eye(model.l))
    _, _, converged = df.steady_state_gain(model, noise, 1, max_iter=3000)
    assert converged is False


def test_steady_state_iteration_cap_is_an_integer():
    model, noise, _ = df.reference_example("nonsquare3")
    for bad in (2.5, "5", True, None):
        with pytest.raises(df.DimensionMismatch, match="max_iter must be an integer"):
            df.steady_state_gain(model, noise, 1, max_iter=bad)
    # integral values of any numeric type cap the rounds as the int does
    want = df.steady_state_gain(model, noise, 1, max_iter=3)
    for cap in (3.0, np.int64(3)):
        got = df.steady_state_gain(model, noise, 1, max_iter=cap)
        assert np.array_equal(got[0].L, want[0].L) and np.array_equal(got[1].P, want[1].P)
        assert got[2] is want[2]


def test_steady_state_warm_starts_from_the_covariance_it_returns():
    model, noise, _ = df.reference_example("nonsquare3")
    _, cov, _ = df.steady_state_gain(model, noise, 1, max_iter=3)
    want = df.steady_state_gain(model, noise, 1, P0=cov.P)
    got = df.steady_state_gain(model, noise, 1, P0=cov)
    assert np.array_equal(got[0].L, want[0].L) and np.array_equal(got[1].P, want[1].P)
    assert got[2] is want[2]
    with pytest.raises(df.NotPositiveSemidefinite):
        df.steady_state_gain(model, noise, 1, P0=df.CovarianceState(P=-cov.P, trace=-cov.trace))


def test_steady_state_stops_at_the_iteration_cap():
    model, noise, _ = df.reference_example("nonsquare3")
    res, _, converged = df.steady_state_gain(model, noise, 1, max_iter=1)
    assert converged is False
    assert res.residual <= 1e-9 * (1.0 + np.linalg.norm(model.H))


def test_steady_state_singular_innovation_is_not_converged():
    # nonsquare12's gain is unique (rank S_1 = l) and violently unstable, so
    # the run ends at once as a non-convergence, not an error, with the finite
    # initial covariance; the singular-innovation exit itself is reached by
    # test_steady_state_stops_when_the_innovation_covariance_turns_singular
    model, noise, _ = df.reference_example("nonsquare12")
    res, cov, converged = df.steady_state_gain(model, noise, 1, max_iter=2000)
    assert converged is False
    assert res.residual <= 1e-9 * (1.0 + np.linalg.norm(model.H))
    assert np.all(np.isfinite(cov.P))


def _stepped_fixed_point(model, noise, r, P0=None, max_iter=10000):
    """(L, converged) of the plain gain/covariance recursion from P0 (default I), one
    step a round, settled once a step moves P by at most 1e-10 of the P it started from."""
    P = np.eye(model.n) if P0 is None else P0
    L = df.minvar_gain(model, noise, r, P).L
    for _ in range(max_iter):
        P_next = df.covariance_update(model, noise, r, L, P).P
        if not np.isfinite(P_next).all() or np.trace(P_next) > 1e30:
            return L, False
        gap, size, P = np.linalg.norm(P_next - P), np.linalg.norm(P), P_next
        try:
            L = df.minvar_gain(model, noise, r, P).L
        except df.InnovationCovarianceSingular:
            return L, False
        if gap <= 1e-10 * size:
            return L, True
    return L, False


def _check_steady_state_against_the_stepped_recursion(scale):
    # Q, R and P0 scaled together leave every gain unchanged, and so must the
    # verdict: the recursion settles by a rule relative to P
    rng = np.random.default_rng(13)
    cases = converged_cases = 0
    while cases < 40:
        drawn = make_feasible_system(rng)
        if drawn is None or drawn[0].l == drawn[0].p:
            continue
        model, noise = drawn[0], random_noise(rng, drawn[0])
        noise = df.NoiseSpec(Q=scale * noise.Q, R=scale * noise.R)
        P0 = scale * np.eye(model.n)
        for r in df.analyze_delays(model).feasible_delays:
            cases += 1
            L_ref, converged_ref = _stepped_fixed_point(model, noise, r, P0)
            res, cov, converged = df.steady_state_gain(model, noise, r, P0=P0)
            assert converged is converged_ref
            if converged:
                converged_cases += 1
                np.testing.assert_allclose(res.L, L_ref, rtol=0, atol=1e-6)
                again = df.covariance_update(model, noise, r, res.L, cov.P).P
                assert np.linalg.norm(again - cov.P) <= 1e-10 * np.linalg.norm(cov.P)
    assert converged_cases >= 30


def test_steady_state_matches_the_stepped_recursion():
    _check_steady_state_against_the_stepped_recursion(1.0)


def test_steady_state_matches_the_stepped_recursion_at_a_small_noise_scale():
    _check_steady_state_against_the_stepped_recursion(1e-6)


def _count_minvar_calls(monkeypatch):
    calls = []
    minvar_gain = df.gain.minvar_gain

    def counted(*args, **kwargs):
        calls.append(1)
        return minvar_gain(*args, **kwargs)

    monkeypatch.setattr(df.gain, "minvar_gain", counted)
    return calls


@pytest.mark.parametrize("example", ["nonminphase3", "nonsquare12"])
def test_steady_state_stops_at_once_on_an_unstable_unique_gain(monkeypatch, example):
    model, noise, _ = df.reference_example(example)
    calls = _count_minvar_calls(monkeypatch)
    _, cov, converged = df.steady_state_gain(model, noise, 1)
    assert converged is False and len(calls) == 1
    assert np.array_equal(cov.P, np.eye(model.n))


def test_steady_state_on_a_stable_unique_gain_takes_at_most_three_gains(monkeypatch):
    model, noise, _ = df.reference_example("minphase3")
    calls = _count_minvar_calls(monkeypatch)
    _, _, converged = df.steady_state_gain(model, noise, 1)
    assert converged is True and len(calls) <= 3


def test_steady_state_stops_when_the_innovation_covariance_turns_singular():
    # a copy of nonsquare12's first output leaves the gain free (rank S_1 < l)
    # but gives it no hold on the unstable modes, and the two copies' common
    # part of the innovation covariance outgrows their independent noise
    base, _, _ = df.reference_example("nonsquare12")
    model = df.validate_model(base.A, base.H, np.vstack([base.C, base.C[:1]]))
    noise = df.NoiseSpec(Q=1e-4 * np.eye(model.n), R=1e-4 * np.eye(model.l))
    res, cov, converged = df.steady_state_gain(model, noise, 1)
    assert converged is False and np.all(np.isfinite(cov.P))
    assert res.residual <= 1e-9 * (1.0 + np.linalg.norm(model.H))
    with pytest.raises(df.InnovationCovarianceSingular):
        df.minvar_gain(model, noise, 1, cov)


def test_steady_state_stops_when_the_covariance_overflows():
    # x2 is unstable and unobserved, so no gain reaches it, while the
    # innovation covariance, which does not see x2, stays well conditioned
    model = df.validate_model([[0.5, 0.0], [0.0, 2.0]], [[1.0], [1.0]], [[1.0, 0.0], [1.0, 0.0]])
    noise = df.NoiseSpec(Q=1e-2 * np.eye(2), R=1e-2 * np.eye(2))
    res, cov, converged = df.steady_state_gain(model, noise, 0)
    assert converged is False and cov.trace > 1e30
    assert df.gain_spectral_radius(model, 0, res.L) == pytest.approx(2.0)


def _policy_iteration_every_round_tested(model, noise, r):
    """steady_state_gain's loop with a spectral test on every round and np.linalg.norm
    and np.trace in its stop tests, the doubling included: (GainResult, CovarianceState,
    converged)."""
    def doubled(F, W):
        P = W
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(DOUBLING_ROUNDS):
                increment = F @ P @ F.T
                P = P + increment
                if not (np.isfinite(P).all() and 0.0 <= np.trace(P) <= 1e30):
                    return None
                if np.linalg.norm(increment, "fro") <= 1e-17 * np.linalg.norm(P, "fro"):
                    return covariance_state(P)
                F = F @ F
        return None

    P, d = covariance_state(np.eye(model.n)), _delay(model, r)
    gain = df.minvar_gain(model, noise, r, P)
    for _ in range(10000):
        F, W = _error_terms(model, noise, d, gain.L)
        stable = float(np.max(np.abs(np.linalg.eigvals(F)))) < 1.0
        if not stable and not d.N.size:
            return gain, P, False
        P_next = covariance_state(F @ P.P @ F.T + W)
        if P_next.trace > 1e30 or not np.isfinite(P_next.P).all():
            return gain, P_next, False
        if np.linalg.norm(P_next.P - P.P, "fro") <= 1e-10 * np.linalg.norm(P.P, "fro"):
            return gain, P, True
        P = (doubled(F, W) if stable else None) or P_next
        try:
            gain = df.minvar_gain(model, noise, r, P)
        except df.InnovationCovarianceSingular:
            return gain, P, False
    return gain, P, False


def _policy_iteration_cases():
    """(name, model, noise, r): a drawn pool with one output more than inputs, half of it
    with unstable A, so that some iterations start from a destabilizing gain, at every
    feasible r; then minphase3, nonminphase3, nonsquare12 and the model whose
    innovation covariance turns singular."""
    rng = np.random.default_rng(29)
    drawn = 0
    while drawn < 40:
        p = int(rng.integers(1, 3))
        case = make_feasible_system(rng, n=int(rng.integers(p + 2, 9)), p=p, l=p + 1,
                                    radius=(0.95, 3.0)[drawn % 2])
        if case is None:
            continue
        model = case[0]
        noise = random_noise(rng, model) if drawn % 3 == 0 else df.default_noise(model)
        for r in df.analyze_delays(model).feasible_delays:
            yield f"draw {drawn} r={r}", model, noise, r
        drawn += 1
    for example in ("minphase3", "nonminphase3", "nonsquare12"):
        model, noise, _ = df.reference_example(example)
        yield example, model, noise, 1
    base, _, _ = df.reference_example("nonsquare12")
    model = df.validate_model(base.A, base.H, np.vstack([base.C, base.C[:1]]))
    yield "singular innovation", model, df.default_noise(model), 1


def test_steady_state_matches_the_policy_iteration_that_tests_every_round_bit_for_bit():
    outcomes = set()
    for name, model, noise, r in _policy_iteration_cases():
        res, cov, converged = df.steady_state_gain(model, noise, r)
        want, want_cov, want_converged = _policy_iteration_every_round_tested(model, noise, r)
        assert converged is want_converged, name
        assert res.L.tobytes() == want.L.tobytes() and res.residual == want.residual, name
        assert cov.P.tobytes() == want_cov.P.tobytes() and cov.trace == want_cov.trace, name
        outcomes.add(converged)
    assert outcomes == {True, False}


def test_steady_state_tests_stability_only_until_the_first_stable_gain(monkeypatch):
    # by Hewer's theorem every gain after a stabilizing one stabilizes too, so the
    # spectral radius is taken on the unstable rounds and the first stable one only
    radii, rounds = [], _count_minvar_calls(monkeypatch)
    spectral_radius = df.gain.spectral_radius
    monkeypatch.setattr(df.gain, "spectral_radius",
                        lambda F: radii.append(spectral_radius(F)) or radii[-1])
    unstable_first = tested = taken = 0
    for name, model, noise, r in _policy_iteration_cases():
        radii.clear(), rounds.clear()
        df.steady_state_gain(model, noise, r)
        assert radii and all(rho >= 1.0 for rho in radii[:-1]), name
        unstable_first += len(radii) > 1 and radii[-1] < 1.0
        tested, taken = tested + len(radii), taken + len(rounds)
    assert unstable_first >= 10 and 2 * tested < taken


def test_frob_is_numpys_frobenius_norm_bit_for_bit():
    rng = np.random.default_rng(29)
    for _ in range(200):
        a = rng.standard_normal(tuple(rng.integers(1, 9, size=2))) * 10.0 ** rng.integers(-8, 9)
        for view in (a, a.T, a[::2], a[:, ::-2], a.T[1:, ::3], np.asfortranarray(a), a[:0]):
            assert frob(view) == np.linalg.norm(view, "fro")
    assert type(frob([[3.0, 4.0]])) is float and frob([[3.0, 4.0]]) == 5.0


def test_the_noise_covariance_is_one_product_of_its_blocks_at_every_delay():
    # at r = 0 E has no lag blocks, and skipping them leaves the bits of the
    # three-block product E blkdiag(Caa, Q, ..., Q, R) E^T
    rng = np.random.default_rng(29)
    delays = set()
    while len(delays) < 3:
        drawn = make_feasible_system(rng)
        if drawn is None:
            continue
        model, noise = drawn[0], random_noise(rng, drawn[0])
        X = rng.standard_normal((model.n, model.n))
        Caa = X @ X.T
        for r in df.analyze_delays(model).feasible_delays:
            E, n, l = _delay(model, r).Eb, model.n, model.l
            mid = E[:, n:-l]
            EC = np.concatenate((E[:, :n] @ Caa, (mid.reshape(-1, n) @ noise.Q).reshape(mid.shape),
                                 E[:, -l:] @ noise.R), axis=1)
            assert _noise_covariance(E, Caa, noise).tobytes() == (EC @ E.T).tobytes()
            delays.add(min(r, 2))


def _stable_maps():
    """(name, F): stable maps from n = 1 to 12 for the Lyapunov solve."""
    rng = np.random.default_rng(21)
    for n in range(1, 13):
        M = rng.standard_normal((n, n))
        radius = np.max(np.abs(np.linalg.eigvals(M)))
        for rho in (rng.uniform(0.05, 0.99), 0.999, 1.0 - 1e-12):
            yield f"random n={n} rho={rho}", M * (rho / radius)
    yield "zero", np.zeros((3, 3))
    yield "largest double below 1", np.array([[1.0 - 2.0 ** -53]])
    # a large transient: max_t ||F^t|| is 2.4e5 for spectral radius 0.9
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    yield "rotated Jordan block", Q @ (0.9 * np.eye(4) + 10.0 * np.eye(4, k=1)) @ Q.T


def test_lyapunov_solves_the_covariance_equation():
    # Residual bound, a first-order estimate. Round j of the doubling forms
    # F_j P F_j^T and F_j F_j, where F_j is the computed F^(2^j), of 2-norm at
    # most M = max(1, max_t ||F^t||_2). An n x n product is off by at most
    # n eps times the product of its factors' norms (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., section 3.5), so each round
    # adds at most about 2 n eps M^2 ||P|| of error, as a share of a partial sum
    # that the later rounds carry forward like the sum itself. Over k <=
    # DOUBLING_ROUNDS rounds, and with the evaluation of the residual itself
    # (n eps (1 + M^2) ||P||), ||P - F P F^T - W||_F <= 4 n k eps M^2 ||P||_F.
    # The same bound limits how far rounding can take P below 0, and
    # covariance_state makes P exactly symmetric. M is taken over t <= 200; a
    # lower M only tightens the check.
    rng = np.random.default_rng(22)
    eps = np.finfo(float).eps
    for name, F in _stable_maps():
        n = F.shape[0]
        G = rng.standard_normal((n, n))
        W = G @ G.T
        P = _lyapunov(F, W).P
        power, M = np.eye(n), 1.0
        for _ in range(200):
            power = power @ F
            M = max(M, np.linalg.norm(power, 2))
        bound = 4 * n * DOUBLING_ROUNDS * eps * M ** 2 * np.linalg.norm(P)
        assert np.linalg.norm(P - F @ P @ F.T - W) <= bound, name
        assert np.array_equal(P, P.T), name
        assert np.linalg.eigvalsh(P)[0] >= -bound, name


def test_steady_state_steps_when_the_doubling_does_not_settle(monkeypatch):
    # with no doubling rounds every solve gives up, so each round takes the
    # covariance step, and the fixed point is the stepped recursion's
    model, noise, _ = df.reference_example("nonsquare3")
    monkeypatch.setattr(df.gain, "DOUBLING_ROUNDS", 0)
    res, _, converged = df.steady_state_gain(model, noise, 1)
    L_ref, converged_ref = _stepped_fixed_point(model, noise, 1)
    assert converged is converged_ref is True
    np.testing.assert_allclose(res.L, L_ref, rtol=0, atol=1e-6)


def test_lyapunov_gives_up_on_an_overflowing_doubling():
    # A rotated Jordan block with eigenvalue 0.99 and off-diagonal 3 is stable,
    # spectral radius 0.990, but rounding takes its powers F^(2^k) outside the
    # unit circle, and the doubled sum overflows: None, and no numpy warning,
    # so that steady_state_gain takes the covariance step instead
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    F = Q @ (0.99 * np.eye(4) + 3.0 * np.eye(4, k=1)) @ Q.T
    assert np.max(np.abs(np.linalg.eigvals(F))) < 1.0
    G = rng.standard_normal((4, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for W in (np.eye(4), G @ G.T):
            assert _lyapunov(F, W) is None


def test_minvar_singular_innovation_covariance_raises():
    # with Q, R and P all zero the innovation covariance V is zero
    model, _, _ = df.reference_example("nonsquare3")
    silent = df.NoiseSpec(Q=np.zeros((model.n, model.n)), R=np.zeros((model.l, model.l)))
    with pytest.raises(df.InnovationCovarianceSingular):
        df.minvar_gain(model, silent, 1, np.zeros((model.n, model.n)))


def _covariance_by_hand(model, noise, r, L, P):
    """covariance_update's formula with every power of A formed afresh."""
    CA = [model.C @ np.linalg.matrix_power(model.A, j) for j in range(r + 2)]
    A_err = model.A - L @ CA[r + 1]
    I_LCAr = np.eye(model.n) - L @ CA[r]
    out = A_err @ P @ A_err.T + I_LCAr @ noise.Q @ I_LCAr.T + L @ noise.R @ L.T
    for j in range(1, r + 1):
        out = out + (L @ CA[r - j]) @ noise.Q @ (L @ CA[r - j]).T
    return 0.5 * (out + out.T)


def _innovation_by_hand(model, noise, r, P):
    """(V, G) of the delayed innovation, every power of A formed afresh and
    every noise term summed on its own: eps_(k-1) through C A^(r+1),
    w_(k-1-j) through C A^j for j = 0..r, and v_k."""
    CA = [model.C @ np.linalg.matrix_power(model.A, j) for j in range(r + 2)]
    V = CA[r + 1] @ P @ CA[r + 1].T + noise.R
    for j in range(r + 1):
        V = V + CA[j] @ noise.Q @ CA[j].T
    G = model.A @ P @ CA[r + 1].T + noise.Q @ CA[r].T
    return V, G


def test_innovation_terms_match_the_noise_terms_one_by_one():
    rng = np.random.default_rng(16)
    cases = 0
    while cases < 40:
        drawn = make_feasible_system(rng)
        if drawn is None:
            continue
        model, noise = drawn[0], random_noise(rng, drawn[0])
        X = rng.standard_normal((model.n, model.n))
        P = X @ X.T
        for r in df.analyze_delays(model).feasible_delays:
            V, G = _innovation_terms(model, noise, _delay(model, r), P)
            assert np.array_equal(V, V.T)
            for got, want in zip((V, G), _innovation_by_hand(model, noise, r, P)):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-10 * (1.0 + np.max(np.abs(want))))
            cases += 1


def test_gain_constants_belong_to_their_model():
    # more models than the per-(model, r) constants are kept for, visited
    # in turn so that each call follows calls on other models
    rng = np.random.default_rng(8)
    cases = []
    while len(cases) < 24:
        drawn = make_feasible_system(rng)
        if drawn is not None:
            cases.append(drawn + (random_noise(rng, drawn[0]),))
    first = df.minvar_gain(cases[0][0], cases[0][2], cases[0][1])
    for _ in range(2):
        gains = [df.minvar_gain(model, noise, r) for model, r, noise in cases]
        covs = [df.covariance_update(model, noise, r, g.L, np.eye(model.n))
                for (model, r, noise), g in zip(cases, gains)]
        for (model, r, noise), g, cov in zip(cases, gains, covs):
            tol = 1e-9 * (1.0 + np.linalg.norm(model.H))
            S, H0 = df.markov_row_stack(model, r), constraint_target(model, r)
            own = np.linalg.norm(g.L @ S - H0)
            assert own <= tol and g.residual == pytest.approx(own, rel=1e-6, abs=1e-15)
            assert df.unbiasedness_residual(model, r, g.L) == pytest.approx(own, rel=1e-6,
                                                                           abs=1e-15)
            want = _covariance_by_hand(model, noise, r, g.L, np.eye(model.n))
            np.testing.assert_allclose(cov.P, want, rtol=0,
                                       atol=1e-9 * (1.0 + np.max(np.abs(want))))
    again = df.minvar_gain(cases[0][0], cases[0][2], cases[0][1])
    assert np.array_equal(again.L, first.L) and again.residual == first.residual


def test_the_covariance_step_reads_the_verdicts_error_map():
    # F = A - L C A^(r+1) has one formula: the covariance step's F is the
    # array error_dynamics_matrix returns, bit for bit, at every feasible r
    rng = np.random.default_rng(31)
    cases = {True: 0, False: 0}                     # keyed on l == p
    while min(cases.values()) < 15:
        drawn = make_square_system(rng) if cases[True] < 15 else make_feasible_system(rng)
        if drawn is None:
            continue
        model, noise = drawn[0], random_noise(rng, drawn[0])
        for r in df.analyze_delays(model).feasible_delays:
            L = df.minvar_gain(model, noise, r).L
            F, _ = _error_terms(model, noise, _delay(model, r), L)
            assert np.array_equal(F, df.error_dynamics_matrix(model, r, L))
            cases[model.l == model.p] += 1


def test_minvar_and_steady_state_error_contract():
    rng = np.random.default_rng(9)
    infeasible = 0
    for model, _ in filter(None, (make_feasible_system(rng) for _ in range(6))):
        noise = random_noise(rng, model)
        ranks = (0,) + tuple(rank for _, rank in df.analyze_delays(model).s_ranks)
        for fn in (df.minvar_gain, df.steady_state_gain):
            with pytest.raises(df.InfeasibleDelay, match=f"delay {model.n}: the rank gap .* is 0,"):
                fn(model, noise, model.n)
            for r in range(model.n):
                if not df.exists_unbiased_gain(model, r):
                    infeasible += 1
                    gap = f"delay {r}: the rank gap .* is {ranks[r + 1] - ranks[r]},"
                    with pytest.raises(df.InfeasibleDelay, match=gap):
                        fn(model, noise, r)
    assert infeasible >= 5


def test_every_gain_path_reads_one_verdict():
    # at every r in 0..n+1 of drawn models, each function that builds, checks
    # or runs a gain raises InfeasibleDelay, naming the delay and the rank gap,
    # exactly where exists_unbiased_gain is False, and succeeds elsewhere;
    # simplified_minvar_gain's closed form needs zero blocks below r
    rng = np.random.default_rng(27)
    drawn = [make_feasible_system(rng) for _ in range(12)]
    drawn += [make_square_system(rng, cond_limit=1e6) for _ in range(12)]
    cases = {"feasible": 0, "zero blocks below r": 0, "a nonzero block below r": 0, "r >= n": 0}
    for model, _ in filter(None, drawn):
        n, l, noise = model.n, model.l, random_noise(rng, model)
        analysis = df.analyze_delays(model)
        ranks = (0,) + tuple(rank for _, rank in analysis.s_ranks)
        modes = [df.TIME_VARYING_MINVAR, df.FIXED_USER_SUPPLIED]
        modes += [df.FIXED_SQUARE] if l == model.p else []
        for r in range(n + 2):
            feasible = df.exists_unbiased_gain(model, r)
            lower_zero = all(rank == 0 for _, rank in analysis.markov_ranks[:r])
            L = df.minvar_gain(model, noise, r).L if feasible else np.zeros((n, l))
            calls = [lambda: df.steady_state_gain(model, noise, r, max_iter=20),
                     lambda: df.covariance_update(model, noise, r, L, np.eye(n)),
                     lambda: df.classify_convergence(model, r, L)]
            calls += [lambda mode=mode: df.init_filter(model, noise, df.FilterConfig(
                          r=r, gain_mode=mode, initial_estimate=np.zeros(n),
                          initial_covariance=np.eye(n),
                          gain=L if mode == df.FIXED_USER_SUPPLIED else None))
                      for mode in modes]
            if l == model.p:
                calls.append(lambda: df.square_gain(model, r))
            if lower_zero or not feasible:
                calls.append(lambda: df.simplified_minvar_gain(model, noise, r))
            if feasible:
                for call in calls:
                    call()
                cases["feasible"] += 1
                continue
            gap = ranks[r + 1] - ranks[r] if r < n else 0
            for call in calls:
                with pytest.raises(df.InfeasibleDelay,
                                   match=f"delay {r}: the rank gap .* is {gap}, not p"):
                    call()
            cases["r >= n" if r >= n else
                  "zero blocks below r" if lower_zero else "a nonzero block below r"] += 1
    assert min(cases.values()) >= 10, cases


@pytest.mark.parametrize("call", [
    lambda m, noise, L: df.minvar_gain(m, noise, 1, P_prev=np.eye(2)),
    lambda m, noise, L: df.minvar_gain(m, noise, 1, P_prev=np.full((m.n, m.n), np.nan)),
    lambda m, noise, L: df.steady_state_gain(m, noise, 1, P0=np.eye(m.n + 1)),
    lambda m, noise, L: df.covariance_update(m, noise, 1, L, np.eye(m.n - 1)),
    lambda m, noise, L: df.covariance_update(m, noise, 1, L, np.full((m.n, m.n), np.inf)),
    lambda m, noise, L: df.covariance_update(m, noise, 1, L[:, :1], np.eye(m.n)),
    lambda m, noise, L: df.classify_convergence(m, 1, L.T),
], ids=["minvar-P-shape", "minvar-P-nan", "steady-state-P0-shape", "update-P-shape",
        "update-P-inf", "update-L-shape", "verdict-L-shape"])
def test_a_malformed_covariance_or_gain_is_a_structured_error(call):
    model, noise, _ = df.reference_example("nonsquare3")
    L = df.minvar_gain(model, noise, 1).L
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(df.DimensionMismatch):
            call(model, noise, L)
