"""Acceptance suite: ten end-to-end criteria, one test each.

Each test pins the documented numbers at their stated tolerances and
asserts its runtime budget. The summary hook in conftest.py prints one
PASS/FAIL line per criterion at the end of the run.
"""

import json
import time

import numpy as np
import pytest

import delayfilter as df
from delayfilter import cli
from delayfilter.linalg import numerical_rank
from conftest import make_feasible_system, make_square_system, random_noise


def _spectrum(model, r, L):
    return np.linalg.eigvals(df.error_dynamics_matrix(model, r, L))


def _multiset_close(values, expected, tol):
    values = sorted(np.asarray(values, dtype=complex), key=lambda z: (z.real, z.imag))
    expected = sorted(np.asarray(expected, dtype=complex), key=lambda z: (z.real, z.imag))
    if len(values) != len(expected):
        return False
    return all(abs(a - b) <= tol for a, b in zip(values, expected))


def _subset_close(subset, values, tol):
    pool = list(np.asarray(values, dtype=complex))
    for z in np.asarray(subset, dtype=complex):
        dists = [abs(z - w) for w in pool]
        if not dists or min(dists) > tol:
            return False
        pool.pop(int(np.argmin(dists)))
    return True


def test_criterion_01_compartmental_outputs_2_5():
    t0 = time.perf_counter()
    model, _, _ = df.reference_example("compartmental-25")
    analysis = df.analyze_delays(model)
    assert analysis.minimal_delay == 1
    assert np.max(np.abs(df.markov_parameter(model, 0))) < 1e-12
    assert numerical_rank(df.markov_parameter(model, 1)) == 2

    # noiseless sawtooth + sine unknown inputs over T=500
    traj = df.simulate(model, None, df.example_signals(model), 500,
                       seed=11, noise_on=False)
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    stats, _ = df.run_experiment(model, None, config, traj)
    assert stats.input_rms <= 1e-8

    report = df.invariant_zeros(model)
    assert time.perf_counter() - t0 < 1.0

    # Final clause: the invariant zeros. The clauses above make the system
    # square with CH = 0 and CAH invertible, so each output has relative
    # degree 2 and the zero dynamics have dimension n - 2p = 2: the pencil
    # cannot be zero-free. The zeros are the eigenvalues of the block for
    # compartments 3-4, which lies off every input-to-output path:
    # 1 - beta - 2 alpha = 0.7 and 1 - beta = 0.9. Each has a state
    # direction x and input direction e with (zI - A)x = He and Cx = 0:
    #   z = 0.7: x = (1,0,-1,1,0,-1),  e = (-0.1, 0.1)
    #   z = 0.9: x = (1,0,-1,-1,0,1),  e = (0.1, 0.1)
    # Both lie inside the unit circle, so the delayed filter converges
    # asymptotically, not deadbeat.
    alpha, beta = 0.1, 0.1  # the registry's flow and loss coefficients
    expected = (1.0 - beta - 2.0 * alpha, 1.0 - beta)
    assert len(report.zeros) == model.n - 2 * model.p
    assert _multiset_close(report.zeros, expected, 1e-9)
    directions = (((1, 0, -1, 1, 0, -1), (-0.1, 0.1)),
                  ((1, 0, -1, -1, 0, 1), (0.1, 0.1)))
    for z, (x, e) in zip(expected, directions):
        x, e = np.array(x, dtype=float), np.array(e)
        assert np.max(np.abs((z * np.eye(model.n) - model.A) @ x - model.H @ e)) <= 1e-12
        assert np.max(np.abs(model.C @ x)) <= 1e-12
    assert report.classification == df.ALL_INSIDE
    assert df.classify_convergence(model, 1, df.square_gain(model, 1).L) == df.ASYMPTOTIC


def test_criterion_02_compartmental_outputs_3_4():
    t0 = time.perf_counter()
    model, _, _ = df.reference_example("compartmental-34")
    analysis = df.analyze_delays(model)
    assert analysis.minimal_delay == 2
    assert np.max(np.abs(df.markov_parameter(model, 0))) < 1e-12
    assert np.max(np.abs(df.markov_parameter(model, 1))) < 1e-12
    assert numerical_rank(df.markov_parameter(model, 2)) == 2
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_minphase_three_state():
    t0 = time.perf_counter()
    model, _, _ = df.reference_example("minphase3")
    report = df.invariant_zeros(model)
    assert _multiset_close(report.zeros, [-0.2], 1e-6)

    r = 1
    L = df.square_gain(model, r).L
    assert _multiset_close(_spectrum(model, r, L), [0.0, 0.0, -0.2], 1e-6)
    assert df.classify_convergence(model, r, L) == df.ASYMPTOTIC

    # noiseless run started from a wrong initial estimate: the actual
    # delayed-estimate errors must ride the autonomous recursion exactly
    offset = 0.1 * np.arange(1, model.n + 1)
    config = df.FilterConfig(r=r, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=offset,
                             initial_covariance=np.eye(model.n))
    traj = df.simulate(model, None, df.example_signals(model), 100,
                       seed=3, noise_on=False)
    stats, _ = df.run_experiment(model, None, config, traj)
    predicted = df.predicted_error_sequence(model, r, L, -offset, 100)
    worst = max(
        float(np.max(np.abs(stats.state_errors[i] - predicted[k - r])))
        for i, k in enumerate(stats.ks)
    )
    assert worst <= 1e-8
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_nonminphase_three_state():
    t0 = time.perf_counter()
    model, _, _ = df.reference_example("nonminphase3")
    report = df.invariant_zeros(model)
    assert _multiset_close(report.zeros, [-1.0564], 1e-3)

    r = 1
    L = df.square_gain(model, r).L
    assert df.classify_convergence(model, r, L) == df.DIVERGENT

    offset = 0.1 * np.arange(1, model.n + 1)
    config = df.FilterConfig(r=r, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=offset,
                             initial_covariance=np.eye(model.n))
    traj = df.simulate(model, None, df.example_signals(model), 66,
                       seed=3, noise_on=False)
    stats, _ = df.run_experiment(model, None, config, traj)
    js = stats.ks - r
    mask = (js >= 20) & (js <= 60)
    norms = np.linalg.norm(stats.state_errors[mask], axis=1)
    slope = float(np.polyfit(js[mask], np.log(norms), 1)[0])
    target = float(np.log(1.0564))
    assert abs(slope - target) <= 0.05 * abs(target)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_05_nonsquare_twelve_state():
    t0 = time.perf_counter()
    model, noise, _ = df.reference_example("nonsquare12")
    report = df.invariant_zeros(model)
    assert _multiset_close(report.zeros, [0.8, 0.8], 1e-6)

    rng = np.random.default_rng(20260819)
    pairs = [noise] + [random_noise(rng, model, scale=0.05) for _ in range(5)]
    for pair in pairs:
        res = df.minvar_gain(model, pair, 1, np.eye(model.n))
        eigs = _spectrum(model, 1, res.L)
        assert _subset_close([0.8, 0.8], eigs, 1e-6)
        assert any(abs(z - 0.8) > 1e-3 for z in eigs)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_06_invertible_but_infeasible(tmp_path):
    t0 = time.perf_counter()
    model, _, _ = df.reference_example("invertibility4")
    analysis = df.analyze_delays(model)

    # output-side stack gains rank p at some delay ...
    assert len(analysis.invertible_delays) > 0
    # ... yet no single-delay rank step ever reaches p
    assert analysis.feasible_delays == ()
    assert analysis.minimal_delay is None
    s_ranks = dict(analysis.s_ranks)
    gaps = [s_ranks[r] - (s_ranks[r - 1] if r > 0 else 0) for r in range(model.n)]
    assert all(g < model.p for g in gaps)

    path = tmp_path / "counterexample.json"
    path.write_text(json.dumps({
        "A": model.A.tolist(), "H": model.H.tolist(), "C": model.C.tolist(),
    }))
    rc = cli.main(["analyze", str(path)])
    assert rc == 2
    assert time.perf_counter() - t0 < 1.0


def test_criterion_07_random_system_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    systems = 0

    # residual bound whenever a gain exists (square and non-square mix)
    for _ in range(80):
        drawn = make_feasible_system(rng)
        if drawn is None:
            continue
        model, r = drawn
        systems += 1
        noise = random_noise(rng, model)
        res = df.minvar_gain(model, noise, r, np.eye(model.n))
        assert res.residual <= 1e-9 * (1.0 + float(np.linalg.norm(model.H)))

    # trace optimality against 100 unbiasedness-preserving perturbations
    checked = 0
    while checked < 30:
        drawn = make_feasible_system(rng, p=1, l=3)
        if drawn is None:
            continue
        model, r = drawn
        systems += 1
        checked += 1
        noise = random_noise(rng, model)
        P_prev = np.eye(model.n)
        res = df.minvar_gain(model, noise, r, P_prev)
        best = df.covariance_update(model, noise, r, res.L, P_prev).trace
        S = df.markov_row_stack(model, r)
        null_proj = np.eye(model.l) - S @ np.linalg.pinv(S)
        for _ in range(100):
            delta = rng.standard_normal((model.n, model.l)) @ null_proj
            delta *= 0.05 * (1.0 + np.linalg.norm(res.L)) / (1.0 + np.linalg.norm(delta))
            other = df.covariance_update(model, noise, r, res.L + delta, P_prev).trace
            assert other >= best - 1e-9 * (1.0 + best)

    # square systems: the constrained problem has a unique solution
    checked = 0
    while checked < 60:
        drawn = make_square_system(rng, cond_limit=1e4)
        if drawn is None:
            continue
        model, r = drawn
        systems += 1
        checked += 1
        noise = random_noise(rng, model)
        L_sq = df.square_gain(model, r).L
        L_mv = df.minvar_gain(model, noise, r, np.eye(model.n)).L
        assert np.max(np.abs(L_sq - L_mv)) <= 1e-9 * (1.0 + np.max(np.abs(L_sq)))

    # invariant zeros are shared by every unbiased closed loop, at every
    # delay the generator draws. The O(eps) dust its projection leaves in
    # the leading Markov blocks does not enlarge the output-nulling
    # subspace the zeros are read from, so no near-infinite zero appears.
    checked = 0
    while checked < 50:
        drawn = make_feasible_system(rng, n=int(rng.integers(2, 7)))
        if drawn is None:
            continue
        model, r = drawn
        systems += 1
        checked += 1
        try:
            report = df.invariant_zeros(model)
        except df.PencilDegenerate:
            continue
        if not report.zeros:
            continue
        noise = random_noise(rng, model)
        L = df.minvar_gain(model, noise, r, np.eye(model.n)).L
        eigs = _spectrum(model, r, L)
        assert _subset_close(report.zeros, eigs, 1e-6)

    assert systems >= 200
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_monte_carlo_unbiasedness():
    t0 = time.perf_counter()
    model, _, _ = df.reference_example("compartmental-25")
    noise = df.NoiseSpec(Q=1e-4 * np.eye(model.n), R=1e-4 * np.eye(model.l))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    report = df.monte_carlo_bias(model, noise, config, df.example_signals(model),
                                 trials=1000, T=200, seed=0, ks=(50, 100, 200))
    assert report.trials == 1000
    assert not report.flagged.any(), (
        f"biased components at ks {report.ks}: |mean| > 4*stderr\n"
        f"mean:\n{report.mean}\nstderr:\n{report.stderr}"
    )
    assert time.perf_counter() - t0 < 60.0


def test_criterion_09_no_delay_square_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 50:
        drawn = make_square_system(rng, delay=0, cond_limit=50)
        if drawn is None:
            continue
        model, _ = drawn
        checked += 1
        classical = model.H @ np.linalg.inv(model.C @ model.H)
        res = df.square_gain(model, 0)
        assert res.method == df.NO_DELAY_CLASSICAL
        assert np.max(np.abs(res.L - classical)) <= 1e-10
        noise = random_noise(rng, model)
        L_mv = df.minvar_gain(model, noise, 0, np.eye(model.n)).L
        assert np.max(np.abs(L_mv - classical)) <= 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_criterion_10_no_gain_at_or_beyond_system_order():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        l = int(rng.integers(p, n + 1))
        A = rng.standard_normal((n, n))
        H = rng.standard_normal((n, p))
        C = rng.standard_normal((l, n))
        try:
            model = df.validate_model(A, H, C)
        except df.DelayFilterError:
            continue
        checked += 1
        with pytest.raises(df.DelayOutOfRange):
            df.exists_unbiased_gain(model, n)
        assert df.exists_unbiased_gain(model, n, check_range=False) is False
        assert df.exists_unbiased_gain(model, n + 1, check_range=False) is False
    assert time.perf_counter() - t0 < 10.0
