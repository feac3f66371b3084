"""Markov parameters, rank profiles, and delay feasibility."""

import sys
import threading

import numpy as np
import pytest

import delayfilter as df
from conftest import make_feasible_system
from delayfilter.gain import constraint_target
from delayfilter.linalg import RANK_RCOND, numerical_rank, pinv_cut, rank_above
from delayfilter.markov import _delay, _profile

# 2-state system with CH = 0 and CAH = 1: feasible exactly at delay 1
E1 = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])


def test_markov_parameter_values():
    assert np.allclose(df.markov_parameter(E1, 0), [[0.0]])
    assert np.allclose(df.markov_parameter(E1, 1), [[1.0]])
    assert np.allclose(df.markov_parameter(E1, 2), [[1.0]])


@pytest.mark.parametrize("index", [1.5, 1.0, np.float64(1.0), True, "1"])
def test_a_non_integer_markov_index_is_out_of_range(index):
    # the delay's integer rule: a float, even 1.0, or a bool is no block index
    for call in (df.markov_blocks, df.markov_parameter):
        with pytest.raises(df.DelayOutOfRange, match="Markov parameter index must be an integer"):
            call(E1, index)
    assert np.array_equal(df.markov_parameter(E1, np.int64(1)), df.markov_parameter(E1, 1))


def test_markov_blocks_prefix():
    blocks = df.markov_blocks(E1, E1.n)
    assert len(blocks) == E1.n + 1
    for d, blk in enumerate(blocks):
        assert np.allclose(blk, df.markov_parameter(E1, d))
        assert not blk.flags.writeable and not df.markov_parameter(E1, d).flags.writeable
    for index in (-1, E1.n + 1):
        with pytest.raises(df.DelayOutOfRange):
            df.markov_blocks(E1, index)
        with pytest.raises(df.DelayOutOfRange):
            df.markov_parameter(E1, index)
    # more models than the profile cache keeps, each visited twice in turn,
    # against the matrix powers written out
    rng = np.random.default_rng(15)
    models = []
    while len(models) < 20:
        drawn = make_feasible_system(rng)
        if drawn is not None:
            models.append(drawn[0])
    for _ in range(2):
        for model in models:
            n, p = model.n, model.p
            want = [model.C @ np.linalg.matrix_power(model.A, d) @ model.H for d in range(n + 1)]
            np.testing.assert_allclose(df.markov_blocks(model, n), want, rtol=1e-9, atol=1e-12)
            for r in range(n):
                S, H0 = df.markov_row_stack(model, r), constraint_target(model, r)
                np.testing.assert_allclose(S, np.hstack(want[r::-1]), rtol=1e-9, atol=1e-12)
                assert np.array_equal(H0, np.hstack([model.H, np.zeros((n, r * p))]))
                assert S.flags.writeable and H0.flags.writeable
                T = np.block([[want[i - j] if i >= j else np.zeros((model.l, p))
                               for j in range(r + 1)] for i in range(r + 1)])
                np.testing.assert_allclose(df.markov_toeplitz(model, r), T,
                                           rtol=1e-9, atol=1e-12)


def test_row_stack_orders_highest_power_first():
    S = df.markov_row_stack(E1, 1)
    assert S.shape == (1, 2)
    assert np.allclose(S, [[1.0, 0.0]])  # [CAH, CH]


def test_toeplitz_is_the_block_matrix_of_the_markov_blocks_bit_for_bit():
    rng = np.random.default_rng(19)
    drawn = [make_feasible_system(rng, n=6, p=2, l=2), make_feasible_system(rng, n=6, p=1, l=3),
             make_feasible_system(rng, n=7, p=2, l=4)]
    models = [d[0] for d in drawn] + [df.reference_example("nonsquare12")[0]]
    assert {m.l == m.p for m in models} == {True, False}
    for model in models:
        blocks, zero = df.markov_blocks(model, model.n), np.zeros((model.l, model.p))
        for r in range(model.n):
            want = np.block([[blocks[i - j] if i >= j else zero for j in range(r + 1)]
                             for i in range(r + 1)])
            T = df.markov_toeplitz(model, r)
            assert np.array_equal(T, want)
            assert T.flags.writeable
            T[...] = np.nan
            assert np.array_equal(df.markov_toeplitz(model, r), want)


def test_the_profile_holds_the_constraints_null_space():
    # at every feasible r: N is an orthonormal basis of S_r's left null space
    # at the profile's rank, empty exactly when rank S_r = l, and L_min solves
    # the constraint. An SVD's U is orthonormal to a small multiple of l eps
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 19.3),
    # and N^T S_r holds the l - rank singular values the rank cut off
    rng = np.random.default_rng(26)
    eps = np.finfo(float).eps
    models = [df.reference_example(name)[0] for name in df.EXAMPLE_IDS]
    while len(models) < 60:
        drawn = make_feasible_system(rng)
        if drawn is not None:
            models.append(drawn[0])
    unique = 0
    for model in models:
        profile, l = _profile(model), model.l
        for r in profile.feasible:
            d = _delay(model, r)
            assert d.N.shape == (l, l - profile.s_ranks[r]) and d.L_min.shape == (model.n, l)
            assert not d.N.flags.writeable and not d.L_min.flags.writeable
            assert np.linalg.norm(d.N.T @ d.N - np.eye(d.N.shape[1])) <= 10 * l * eps
            cutoff = max(profile.scales[:r + 1]) * max(d.S.shape) * RANK_RCOND
            assert np.linalg.norm(d.N.T @ d.S) <= np.sqrt(d.N.shape[1]) * cutoff
            assert df.unbiasedness_residual(model, r, d.L_min) <= d.tol
            unique += profile.s_ranks[r] == l
        for r in set(range(model.n)) - set(profile.feasible):
            assert _delay(model, r).N is None and _delay(model, r).L_min is None
    assert unique >= 5


def test_the_profile_holds_the_updates_gain_free_constants_bit_for_bit():
    # at every feasible r, u's rows of z, Zu = -[D^T; (CB)^T; ...; (CA^rB)^T],
    # and the decoder Gd = [-(C A^(r+1))^T; I; Zu] [I, ((CA^rH)^+)^T], with the
    # powers taken by repeated multiplication as the profile takes them
    rng = np.random.default_rng(20)
    models = []
    while len(models) < 9:
        drawn = make_feasible_system(rng)
        if drawn is None:
            continue
        base, m = drawn[0], len(models) % 3             # 0, 1 or 2 known inputs
        models.append(df.validate_model(base.A, base.H, base.C,
                                        rng.standard_normal((base.n, m)),
                                        rng.standard_normal((base.l, m))) if m else base)
    models += [df.reference_example(name)[0] for name in df.EXAMPLE_IDS]
    checked = set()
    for model in models:
        CA, AH = [model.C], [model.H]
        for _ in range(model.n):
            CA.append(CA[-1] @ model.A)
            AH.append(model.A @ AH[-1])
        for r in df.analyze_delays(model).feasible_delays:
            d, I, n, l = _delay(model, r), np.eye(model.l), model.n, model.l
            M = model.C @ AH[r]
            Zu = -np.vstack([model.D.T] + [(X @ model.B).T for X in CA[:r + 1]])
            assert d.Zu.shape == ((r + 2) * model.m, l) and not d.Zu.flags.writeable
            assert np.array_equal(d.Zu, Zu)
            want = np.vstack([-CA[r + 1].T, I, Zu]) @ np.hstack([I, pinv_cut(M).T])
            assert np.array_equal(d.Gd, want) and not d.Gd.flags.writeable
            assert d.Gd is d.Gd and d.Gd is _delay(model, r).Gd
            assert np.allclose(d.Gd[n:n + l, l:].T @ M, np.eye(model.p))
            checked.add(model.m)
    assert checked == {0, 1, 2}


def _same_bits(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _eager_constants(model):
    """{r: the constants of r} for r = 0..n-1, each built up front from one model's
    powers, every S_r ranked and every feasible one split by its own SVD."""
    n, l, p = model.n, model.l, model.p
    powers, CA = [model.H], [model.C]
    for _ in range(n):
        powers.append(model.A @ powers[-1])
        CA.append(CA[-1] @ model.A)
    c_norm = np.linalg.norm(model.C)
    scales = [c_norm * np.linalg.norm(X) for X in powers]
    blocks = [model.C @ X for X in powers]

    def rank(M, scale):             # one SVD per matrix, cut at its analytic size
        if scale == 0.0:
            return 0
        cut = scale * max(M.shape) * RANK_RCOND
        return int(np.count_nonzero(np.linalg.svd(M, compute_uv=False) > cut))

    markov_ranks = [rank(X, scale) for X, scale in zip(blocks, scales)]
    S = [np.hstack(blocks[r::-1]) for r in range(n)]
    s_ranks = [rank(S[r], max(scales[:r + 1])) for r in range(n)]
    Zu = -np.vstack([model.D.T] + [(X @ model.B).T for X in CA[:n]])
    Eb = np.hstack(CA[n - 1::-1] + [np.eye(l)])
    H0 = np.hstack([model.H, np.zeros((n, (n - 1) * p))])
    constants = {}
    for r in range(n):
        H0_r, L_min, N = H0[:, :(r + 1) * p], None, None
        if s_ranks[r] - (s_ranks[r - 1] if r else 0) == p:
            U, s, Vt = np.linalg.svd(S[r])
            k = s_ranks[r]
            L_min, N = (H0_r @ Vt[:k].T / s[:k]) @ U[:, :k].T, U[:, k:]
        constants[r] = dict(
            CA=CA[:r + 2], Zu=Zu[:(r + 2) * model.m], Eb=Eb[:, (n - 1 - r) * n:], H0=H0_r,
            S=S[r], blocks=blocks[:r + 1], L_min=L_min, N=N,
            lower_nonzero=next((j for j in range(r) if markov_ranks[j]), None),
            tol=1e-9 * (1.0 + np.linalg.norm(model.H)))
    return markov_ranks, s_ranks, constants


def _lazy_profile_models():
    """Drawn feasible models with 0, 1 or 2 known inputs, nonsquare12 and invertibility4."""
    rng = np.random.default_rng(29)
    models = []
    while len(models) < 12:
        drawn = make_feasible_system(rng)
        if drawn is None:
            continue
        base, m = drawn[0], len(models) % 3
        models.append(df.validate_model(base.A, base.H, base.C,
                                        rng.standard_normal((base.n, m)),
                                        rng.standard_normal((base.l, m))) if m else base)
    return models + [df.reference_example(name)[0] for name in ("nonsquare12", "invertibility4")]


def _fresh(model):
    """A new model object of the same matrices: its profile is built anew."""
    return df.validate_model(model.A, model.H, model.C, model.B, model.D)


def test_a_delays_constants_are_built_on_first_use_bit_for_bit():
    # every r's constants, asked for lazily, are the eager construction's bits,
    # the ranks of the batched SVD are those of one SVD per block, and the
    # rank queries, the Toeplitz map and the row stacks build no delay's constants
    for model in _lazy_profile_models():
        markov_ranks, s_ranks, constants = _eager_constants(model)
        model = _fresh(model)
        profile = _profile(model)
        df.analyze_delays(model)
        df.minimal_delay(model)
        for r in range(model.n + 1):
            df.exists_unbiased_gain(model, r)
        for r in range(model.n):
            df.markov_toeplitz(model, r)
            df.markov_row_stack(model, r)
        assert profile.delays == {}
        assert profile.markov_ranks == tuple(markov_ranks)
        assert profile.s_ranks == tuple(s_ranks)
        for r, want in constants.items():
            d = _delay(model, r)
            assert d is _delay(model, r) and set(profile.delays) == set(range(r + 1))
            for name in ("Zu", "Eb", "H0", "S", "L_min", "N"):
                assert _same_bits(getattr(d, name), want[name]), (r, name)
            for name in ("CA", "blocks"):
                got = getattr(d, name)
                assert len(got) == len(want[name]), (r, name)
                assert all(map(_same_bits, got, want[name])), (r, name)
            assert d.lower_nonzero == want["lower_nonzero"] and d.tol == want["tol"]


def test_init_filter_builds_the_constants_of_its_delay_only():
    checked = 0
    for model in _lazy_profile_models():
        for r in df.analyze_delays(model).feasible_delays:
            fresh, square = _fresh(model), model.l == model.p
            config = df.FilterConfig(r=r, gain_mode=df.FIXED_SQUARE if square else
                                     df.TIME_VARYING_MINVAR, initial_estimate=np.zeros(model.n),
                                     initial_covariance=np.eye(model.n))
            df.init_filter(fresh, df.default_noise(fresh), config)
            assert set(_profile(fresh).delays) == {r}
            checked += 1
    assert checked >= 12


def test_threads_racing_on_one_delay_share_its_constants():
    # more threads than cores, switching often, each asking for every delay
    # of the same fresh models: one _Delay per (model, r) whoever stored it
    # first. The profiles are built beforehand: the race is on their memos
    models = [_fresh(model) for model in _lazy_profile_models()]
    assert all(_profile(model).delays == {} for model in models)
    threads, barrier, seen = 8, threading.Barrier(8), []

    def ask():
        barrier.wait(timeout=10)
        seen.append([[_delay(model, r) for r in range(model.n)] for model in models])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers) and len(seen) == threads
    for got in seen[1:]:
        assert all(a is b for x, y in zip(got, seen[0]) for a, b in zip(x, y))


def test_toeplitz_structure():
    model, r = make_feasible_system(np.random.default_rng(3), n=5, p=1, l=2, delay=1)
    M = df.markov_toeplitz(model, 2)
    l, p = model.l, model.p
    assert M.shape == (3 * l, 3 * p)
    for i in range(3):
        for j in range(3):
            blk = M[i * l:(i + 1) * l, j * p:(j + 1) * p]
            if i >= j:
                assert np.allclose(blk, df.markov_parameter(model, i - j))
            else:
                assert np.max(np.abs(blk)) == 0.0


def test_exists_unbiased_gain_profile():
    assert df.exists_unbiased_gain(E1, 0) is False
    assert df.exists_unbiased_gain(E1, 1) is True


def test_delay_range_guard():
    # r = n is a well-formed delay: the rank condition answers it
    assert df.exists_unbiased_gain(E1, 2) is False
    with pytest.raises(df.DelayOutOfRange):
        df.exists_unbiased_gain(E1, -1)
    # the stack has no block past n-1
    with pytest.raises(df.DelayOutOfRange):
        df.markov_row_stack(E1, 2)


@pytest.mark.parametrize("r", [1.0, 1.5, np.float64(1.0), True])
def test_a_non_integer_delay_is_out_of_range(r):
    model, noise, _ = df.reference_example("nonsquare3")
    square, _, _ = df.reference_example("minphase3")
    L = df.minvar_gain(model, noise, 1).L
    config = df.FilterConfig(r=r, gain_mode=df.TIME_VARYING_MINVAR,
                             initial_estimate=np.zeros(model.n), initial_covariance=np.eye(model.n))
    calls = (lambda: df.minvar_gain(model, noise, r), lambda: df.markov_row_stack(model, r),
             lambda: df.square_gain(square, r), lambda: df.classify_convergence(model, r, L),
             lambda: df.exists_unbiased_gain(model, r),
             lambda: df.init_filter(model, noise, config))
    for call in calls:
        with pytest.raises(df.DelayOutOfRange, match="integer"):
            call()
    # a numpy integer is a delay
    assert df.exists_unbiased_gain(model, np.int64(1)) is True
    assert np.array_equal(df.minvar_gain(model, noise, np.int64(1)).L, L)


def test_minimal_delay():
    assert df.minimal_delay(E1) == 1
    model, _, _ = df.reference_example("invertibility4")
    assert df.minimal_delay(model) is None


def test_analyze_delays_fields():
    analysis = df.analyze_delays(E1)
    assert analysis.markov_ranks == ((0, 0), (1, 1), (2, 1))
    assert analysis.s_ranks == ((0, 0), (1, 1))
    assert analysis.feasible_delays == (1,)
    assert analysis.minimal_delay == 1
    assert 1 in analysis.invertible_delays
    assert analysis.conjecture_violated is False


def test_analyze_delays_json_dict():
    d = df.analyze_delays(E1).to_json_dict()
    assert d["minimal_delay"] == 1
    assert d["feasible_delays"] == [1]
    assert all(isinstance(x, list) for x in d["markov_ranks"])


def test_multiple_feasible_delays_flagged():
    model, _, _ = df.reference_example("nonsquare3")
    analysis = df.analyze_delays(model)
    assert analysis.feasible_delays == (1, 2)
    assert analysis.minimal_delay == 1
    assert analysis.conjecture_violated is True


def test_invertible_without_feasible():
    model, _, _ = df.reference_example("invertibility4")
    analysis = df.analyze_delays(model)
    assert analysis.feasible_delays == ()
    assert analysis.invertible_delays == (1, 2, 3)


def test_constructed_systems_feasible_exactly_from_delay():
    rng = np.random.default_rng(14)
    for _ in range(10):
        model, d = make_feasible_system(rng, delay=None)
        assert df.exists_unbiased_gain(model, d)
        for r in range(d):
            assert df.exists_unbiased_gain(model, r) is False
        feasible = df.analyze_delays(model).feasible_delays
        for r in range(model.n):
            assert df.exists_unbiased_gain(model, r) == (r in feasible)


def test_the_rank_rule_counts_singular_values_above_scale_times_size_times_rcond():
    # a 4 x 3 matrix with singular values 2, and 1e-3 above and below the cutoff
    # 2 * 4 * 1e-12 it has at its own largest singular value
    assert RANK_RCOND == 1e-12
    cut = 2.0 * 4 * RANK_RCOND
    M = np.zeros((4, 3))
    M[0, 0], M[1, 1], M[2, 2] = 2.0, cut * (1 + 1e-3), cut * (1 - 1e-3)
    assert numerical_rank(M) == numerical_rank(M, 2.0) == 2
    assert numerical_rank(M, 2.0 * (1 + 2e-3)) == 1
    assert numerical_rank(M, 2.0 * (1 - 2e-3)) == 3
    assert numerical_rank(M, 0.0) == 0 and numerical_rank(np.zeros((4, 3))) == 0
    s = np.linalg.svd(M, compute_uv=False)
    assert rank_above(s, M.shape, 2.0) == 2 and rank_above(s, M.shape, 0.0) == 0
    assert rank_above(s, (3, 3), 2.0) == 3        # the cutoff grows with max(shape)


def test_one_rank_rule_on_widely_scaled_blocks():
    # CH = 1e-9 is small beside CAH ~ 1e6 but has rank 1 at its own scale,
    # so rank S_1 = rank S_0 = 1 and delay 1 admits no unbiased gain
    model = df.validate_model([[0.5, 0.0, 0.0], [1e6, 0.5, 0.0], [0.0, 1.0, 0.5]],
                              [[1.0], [0.0], [0.0]], [[1e-9, 1.0, 0.0]])
    feasible = df.analyze_delays(model).feasible_delays
    assert feasible == (0,)
    for r in range(model.n):
        assert df.exists_unbiased_gain(model, r) == (r in feasible)
    assert df.minimal_delay(model) == 0
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(3), initial_covariance=np.eye(3))
    for call in (lambda: df.init_filter(model, None, config), lambda: df.square_gain(model, 1)):
        with pytest.raises(df.InfeasibleDelay, match="delay 1: the rank gap .* is 0, not p = 1"):
            call()


def test_invertible_delays_are_the_suffix_from_the_first_full_gap():
    # every T_r is lower triangular with diagonal blocks CH = 1e-9 != 0, so
    # its rank gap is p = 1 at r = 0, and a gap never shrinks as r grows
    model = df.validate_model([[0.5, 0.0, 0.0], [1e6, 0.5, 0.0], [0.0, 1.0, 0.5]],
                              [[1.0], [0.0], [0.0]], [[1e-9, 1.0, 0.0]])
    assert df.analyze_delays(model).invertible_delays == (0, 1, 2)
