"""Markov parameters, rank profiles, and delay feasibility."""

import numpy as np
import pytest

import delayfilter as df
from conftest import make_feasible_system
from delayfilter.gain import constraint_target

# 2-state system with CH = 0 and CAH = 1: feasible exactly at delay 1
E1 = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])


def test_markov_parameter_values():
    assert np.allclose(df.markov_parameter(E1, 0), [[0.0]])
    assert np.allclose(df.markov_parameter(E1, 1), [[1.0]])
    assert np.allclose(df.markov_parameter(E1, 2), [[1.0]])


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
    with pytest.raises(df.DelayOutOfRange):
        df.exists_unbiased_gain(E1, 2)
    with pytest.raises(df.DelayOutOfRange):
        df.exists_unbiased_gain(E1, -1)
    # diagnostic override evaluates the rank condition honestly
    assert df.exists_unbiased_gain(E1, 2, check_range=False) is False


@pytest.mark.parametrize("r", [1.0, 1.5, np.float64(1.0), True])
def test_a_non_integer_delay_is_out_of_range(r):
    model, noise, _ = df.reference_example("nonsquare3")
    square, _, _ = df.reference_example("minphase3")
    L = df.minvar_gain(model, noise, 1).L
    calls = (lambda: df.minvar_gain(model, noise, r), lambda: df.markov_row_stack(model, r),
             lambda: df.square_gain(square, r), lambda: df.classify_convergence(model, r, L),
             lambda: df.exists_unbiased_gain(model, r),
             lambda: df.exists_unbiased_gain(model, r, check_range=False))
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
    with pytest.raises(df.InfeasibleDelay):
        df.init_filter(model, None, config)
    with pytest.raises(df.LowerMarkovNonzero):
        df.square_gain(model, 1)


def test_invertible_delays_are_the_suffix_from_the_first_full_gap():
    # every T_r is lower triangular with diagonal blocks CH = 1e-9 != 0, so
    # its rank gap is p = 1 at r = 0, and a gap never shrinks as r grows
    model = df.validate_model([[0.5, 0.0, 0.0], [1e6, 0.5, 0.0], [0.0, 1.0, 0.5]],
                              [[1.0], [0.0], [0.0]], [[1e-9, 1.0, 0.0]])
    assert df.analyze_delays(model).invertible_delays == (0, 1, 2)
