"""Invariant zero computation and classification."""

import numpy as np
import pytest

import delayfilter as df

E1 = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])

# CH = CAH = 0 exactly. ker C = span(e1, e2) and im H = span(e1); A e2
# leaves ker C, and A e1 leaves span(e1), so V* = {0} and there are no zeros.
RING4 = df.validate_model(
    [[0.35475360631463665, -0.006314802899311882, 0.0, 0.0],
     [0.1657425226345183, -0.10732511792838983, 0.05769606127216702, -0.09714798829567907],
     [0.0, 0.0, 0.0, -0.012606498857338893],
     [0.0, 0.046057070874967646, 0.24598443074124995, 0.0]],
    [[0.746076347876844], [0.0], [0.0], [0.0]],
    [[0.0, 0.0, 1.9947492214724942, 1.9002600079367276],
     [0.0, 0.0, 1.3548312934831954, 0.0]])


def _sparse_models(seed, count):
    """Models whose lower Markov blocks C A^d H are often exact zeros.

    H drives single states and each output reads one or two states, so
    some draws have no invertible delay and a degenerate pencil.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 9))
        p = int(rng.integers(1, n // 3 + 1))
        l = p if rng.random() < 0.5 else int(rng.integers(p + 1, min(n, p + 2) + 1))
        A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.35)
        A[np.arange(n - 1), np.arange(1, n)] = rng.standard_normal(n - 1)
        H = np.zeros((n, p))
        H[rng.choice(n, size=p, replace=False), np.arange(p)] = rng.uniform(0.5, 2.0, p)
        C = np.zeros((l, n))
        for i in range(l):
            cols = rng.choice(n, size=int(rng.integers(1, 3)), replace=False)
            C[i, cols] = rng.uniform(0.5, 2.0, len(cols))
        yield df.validate_model(A, H, C)


def _examples():
    return [df.reference_example(example)[0] for example in df.EXAMPLE_IDS]


def test_pencil_shapes():
    E, F = df.rosenbrock_pencil(E1)
    assert E.shape == (3, 3) and F.shape == (3, 3)
    assert np.allclose(E, np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(F[:2, :2], E1.A)
    assert np.allclose(F[:2, 2:], -E1.H)
    assert np.allclose(F[2:, :2], -E1.C)


def test_deadbeat_chain_has_no_zeros():
    report = df.invariant_zeros(E1)
    assert report.zeros == ()
    assert report.classification == df.NO_ZEROS


def test_known_simple_zero():
    model, _, _ = df.reference_example("minphase3")
    report = df.invariant_zeros(model)
    assert len(report.zeros) == 1
    assert report.zeros[0] == pytest.approx(-0.2, abs=1e-9)
    assert report.classification == df.ALL_INSIDE


def test_known_double_zero_multiplicity():
    model, _, _ = df.reference_example("nonsquare12")
    report = df.invariant_zeros(model)
    assert len(report.zeros) == 2
    assert all(z == pytest.approx(0.8, abs=1e-6) for z in report.zeros)
    groups = report.to_json_dict()["zeros"]
    assert len(groups) == 1
    assert groups[0]["multiplicity"] == 2
    assert groups[0]["value"][0] == pytest.approx(0.8, abs=1e-6)


def test_outside_zero_detected():
    model, _, _ = df.reference_example("nonminphase3")
    report = df.invariant_zeros(model)
    assert report.classification == df.OUTSIDE
    assert report.zeros[0].real < -1.0


def test_nonsquare_compression_clean():
    model, _, _ = df.reference_example("nonsquare3")
    report = df.invariant_zeros(model)
    assert report.zeros == ()
    assert report.classification == df.NO_ZEROS


def test_real_axis_snap():
    # real systems must not report stray imaginary dust on real zeros
    model, _, _ = df.reference_example("compartmental-25")
    report = df.invariant_zeros(model)
    assert all(z.imag == 0.0 for z in report.zeros)
    assert sorted(z.real for z in report.zeros) == pytest.approx([0.7, 0.9], abs=1e-9)


def test_degenerate_pencil_raises():
    # an unknown input that never reaches the output: C(zI-A)^-1 H == 0
    model = df.validate_model(np.diag([0.5, 0.25, 0.125]),
                              [[0.0], [0.0], [1.0]],
                              [[1.0, 0.0, 0.0]])
    with pytest.raises(df.PencilDegenerate):
        df.invariant_zeros(model)


def test_classification_precedence():
    assert df.classify_zeros([]) == df.NO_ZEROS
    assert df.classify_zeros([0.5, -0.3]) == df.ALL_INSIDE
    assert df.classify_zeros([0.5, 1.0]) == df.ON_CIRCLE
    # outside wins over on-circle when both are present
    assert df.classify_zeros([1.0, 1.5]) == df.OUTSIDE
    assert df.classify_zeros([complex(0.0, 1.0)]) == df.ON_CIRCLE
    assert df.classify_zeros([1.0 + 5e-10]) == df.ON_CIRCLE


def test_classify_accepts_report():
    report = df.invariant_zeros(E1)
    assert df.classify_zeros(report) == df.NO_ZEROS


def test_zero_invariance_under_state_transform():
    # invariant zeros survive a similarity transform of the realization
    model, _, _ = df.reference_example("minphase3")
    rng = np.random.default_rng(5)
    T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    Ti = np.linalg.inv(T)
    moved = df.validate_model(T @ model.A @ Ti, T @ model.H, model.C @ Ti)
    report = df.invariant_zeros(moved)
    assert len(report.zeros) == 1
    assert report.zeros[0] == pytest.approx(-0.2, abs=1e-7)


def test_zeros_are_rank_drops_of_the_pencil():
    checked = 0
    for model in _examples() + list(_sparse_models(3, 300)):
        try:
            report = df.invariant_zeros(model)
        except df.PencilDegenerate:
            continue
        E, F = df.rosenbrock_pencil(model)
        for z in report.zeros:
            sv = np.linalg.svd(z * E - F, compute_uv=False)
            assert sv[-1] <= 1e-9 * sv[0], (z, sv[-1] / sv[0])
            checked += 1
    assert checked >= 100


def test_exact_zero_markov_blocks_leave_no_spurious_zeros():
    assert np.all(df.markov_parameter(RING4, 0) == 0.0)
    assert np.all(df.markov_parameter(RING4, 1) == 0.0)
    report = df.invariant_zeros(RING4)
    assert report.zeros == ()
    assert report.classification == df.NO_ZEROS


def test_square_zero_count_at_the_minimal_delay():
    # at a feasible r the (r+1)p rows of [C; CA; ...; CA^r] are independent
    # and V* is their kernel, so a square system has n - (r+1)p zeros
    checked = 0
    for model in _examples() + list(_sparse_models(4, 300)):
        r = df.minimal_delay(model)
        if model.l != model.p or r is None:
            continue
        assert len(df.invariant_zeros(model).zeros) == model.n - (r + 1) * model.p
        checked += 1
    assert checked >= 50


def test_pencil_degenerate_exactly_when_no_delay_is_invertible():
    # both say the input cannot be recovered: V* meets im H exactly when
    # no Toeplitz rank gap reaches p
    degenerate = 0
    for model in _examples() + list(_sparse_models(5, 300)):
        try:
            df.invariant_zeros(model)
            raised = False
        except df.PencilDegenerate:
            raised = True
        assert raised == (df.analyze_delays(model).invertible_delays == ())
        degenerate += raised
    assert degenerate >= 3
