"""Model construction, validation, and JSON parsing."""

import json

import numpy as np
import pytest

import delayfilter as df
from delayfilter.model import PSD_RTOL


A2 = [[0.5, 0.0], [1.0, 0.5]]
H2 = [[1.0], [0.0]]
C2 = [[0.0, 1.0]]


def test_validate_model_basic_shapes():
    model = df.validate_model(A2, H2, C2)
    assert (model.n, model.m, model.l, model.p) == (2, 0, 1, 1)
    assert model.B.shape == (2, 0)
    assert model.D.shape == (1, 0)


def test_known_input_maps_are_kept():
    model = df.validate_model(A2, H2, C2, B=[[0.3], [0.1]], D=[[0.2]])
    assert model.m == 1
    assert model.B[0, 0] == 0.3
    assert model.D[0, 0] == 0.2


def test_nonsquare_a_rejected():
    with pytest.raises(df.DimensionMismatch):
        df.validate_model([[1.0, 0.0]], H2, C2)


def test_mismatched_c_rejected():
    with pytest.raises(df.DimensionMismatch):
        df.validate_model(A2, H2, [[1.0, 0.0, 0.0]])


def test_a_model_without_outputs_rejected():
    with pytest.raises(df.DimensionMismatch, match="C must have at least one row"):
        df.validate_model(A2, H2, np.zeros((0, 2)))


def test_more_outputs_than_states_rejected():
    with pytest.raises(df.TooManyOutputs):
        df.validate_model(A2, H2, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_as_many_unknown_inputs_as_states_rejected():
    # p must stay strictly below n for any delayed reconstruction to work
    with pytest.raises(df.TooManyInputs):
        df.validate_model(A2, [[1.0, 0.0], [0.0, 1.0]], C2)


def test_rank_deficient_h_rejected():
    with pytest.raises(df.RankDeficientH):
        df.validate_model(np.eye(3), [[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]],
                          [[1.0, 0.0, 0.0]])


def test_nonfinite_entries_rejected():
    bad = [[np.nan, 0.0], [1.0, 0.5]]
    with pytest.raises(df.DimensionMismatch):
        df.validate_model(bad, H2, C2)


def test_noise_validation():
    model = df.validate_model(A2, H2, C2)
    ok = df.validate_noise(np.eye(2), np.eye(1), model)
    assert isinstance(ok, df.NoiseSpec)
    with pytest.raises(df.NotSymmetric):
        df.validate_noise([[1.0, 0.5], [0.0, 1.0]], np.eye(1), model)
    with pytest.raises(df.QIndefinite):
        df.validate_noise([[-1.0, 0.0], [0.0, 1.0]], np.eye(1), model)
    with pytest.raises(df.RNotPositiveDefinite):
        df.validate_noise(np.eye(2), [[0.0]], model)
    with pytest.raises(df.DimensionMismatch):
        df.validate_noise(np.eye(3), np.eye(1), model)


def test_q_may_be_singular_psd():
    model = df.validate_model(A2, H2, C2)
    spec = df.validate_noise([[1.0, 0.0], [0.0, 0.0]], [[2.0]], model)
    assert spec.Q[1, 1] == 0.0


def test_noise_spec_applies_the_one_covariance_rule():
    # finite, square, symmetric, smallest eigenvalue >= -PSD_RTOL (1 + largest)
    Q = np.diag([2.0, 0.0])
    spec = df.NoiseSpec(Q=Q, R=np.zeros((1, 1)))       # R = 0 is a covariance
    assert spec.Q is Q                                  # a float64 array stays the object
    listed = df.NoiseSpec(Q=[[2.0, 0.0], [0.0, 0.0]], R=[[1.0]])
    assert isinstance(listed.Q, np.ndarray) and np.array_equal(listed.Q, Q)
    tol = PSD_RTOL * (1.0 + 2.0)
    df.NoiseSpec(Q=np.diag([2.0, -0.5 * tol]), R=[[1.0]])
    for bad, error in (
            (dict(Q=np.diag([2.0, -2.0 * tol]), R=[[1.0]]), df.QIndefinite),
            (dict(Q=Q, R=[[-1e-4]]), df.RNotPositiveDefinite),
            (dict(Q=[[1.0, 1e-3], [0.0, 1.0]], R=[[1.0]]), df.NotSymmetric),
            (dict(Q=[[np.nan, 0.0], [0.0, 1.0]], R=[[1.0]]), df.DimensionMismatch),
            (dict(Q=np.ones((2, 3)), R=[[1.0]]), df.DimensionMismatch),
            (dict(Q=np.zeros((0, 0)), R=[[1.0]]), df.DimensionMismatch),
            (dict(Q=[1.0, 2.0], R=[[1.0]]), df.DimensionMismatch)):
        with pytest.raises(error):
            df.NoiseSpec(**bad)
    # one base class for a covariance that fails the rule, Q's and R's included
    assert issubclass(df.QIndefinite, df.NotPositiveSemidefinite)
    assert issubclass(df.RNotPositiveDefinite, df.NotPositiveSemidefinite)
    with pytest.raises(df.NotPositiveSemidefinite):
        df.NoiseSpec(Q=-np.eye(2), R=[[1.0]])


# A 3-state, 2-output model with H = e1 at which r = 0 is feasible: there the
# noise map Eb = [C | I] has no Q block, so a 1 x 1 Q used to broadcast into Q + A P A^T
_BROADCAST = df.validate_model([[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]],
                               [[1.0], [0.0], [0.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _nonsquare3():
    return df.reference_example("nonsquare3")[0]


_HAND_BUILT = {
    # (model, r, Q, R, error): Q and R as given to NoiseSpec
    "q-1x1": (_nonsquare3, 1, lambda n: [[1e-4]], lambda l: 1e-4 * np.eye(l),
              df.DimensionMismatch),
    "r-1x1": (_nonsquare3, 1, lambda n: 1e-4 * np.eye(n), lambda l: [[1e-4]],
              df.DimensionMismatch),
    "q-nan": (_nonsquare3, 1, lambda n: np.where(np.eye(n) > 0, 1e-4, np.nan),
              lambda l: 1e-4 * np.eye(l), df.DimensionMismatch),
    "q-negative": (_nonsquare3, 1, lambda n: -1e-4 * np.eye(n), lambda l: 1e-4 * np.eye(l),
                   df.QIndefinite),
    "r-negative": (_nonsquare3, 1, lambda n: 1e-4 * np.eye(n), lambda l: -1e-4 * np.eye(l),
                   df.RNotPositiveDefinite),
    "q-asymmetric": (_nonsquare3, 1, lambda n: 1e-4 * (np.eye(n) + np.eye(n, k=1)),
                     lambda l: 1e-4 * np.eye(l), df.NotSymmetric),
    "r0-broadcast": (lambda: _BROADCAST, 0, lambda n: [[1e-4]], lambda l: 1e-4 * np.eye(l),
                     df.DimensionMismatch),
}


def _tv_config(model, r):
    return df.FilterConfig(r=r, gain_mode=df.TIME_VARYING_MINVAR,
                           initial_estimate=np.zeros(model.n), initial_covariance=np.eye(model.n))


# every entry point that reads a NoiseSpec, as (model, noise, r) -> result
_NOISE_ENTRY_POINTS = {
    "minvar_gain": lambda m, noise, r: df.minvar_gain(m, noise, r),
    "steady_state_gain": lambda m, noise, r: df.steady_state_gain(m, noise, r, max_iter=50),
    "run_filter": lambda m, noise, r: df.run_filter(
        m, noise, _tv_config(m, r), np.linspace(-1.0, 1.0, 40 * m.l).reshape(40, m.l)),
    "monte_carlo_bias": lambda m, noise, r: df.monte_carlo_bias(
        m, noise, _tv_config(m, r), df.example_signals(m), trials=3, T=20, seed=2),
    "simulate": lambda m, noise, r: df.simulate(m, noise, df.example_signals(m), 20, seed=2),
}


@pytest.mark.parametrize("entry", list(_NOISE_ENTRY_POINTS))
@pytest.mark.parametrize("case", list(_HAND_BUILT))
def test_a_hand_built_noise_spec_that_is_no_covariance_or_misfits_the_model_raises(case, entry):
    build, r, Q, R, error = _HAND_BUILT[case]
    model = build()
    with pytest.raises(error) as raised:
        _NOISE_ENTRY_POINTS[entry](model, df.NoiseSpec(Q=Q(model.n), R=R(model.l)), r)
    assert isinstance(raised.value, df.DelayFilterError)


@pytest.mark.parametrize("entry", list(_NOISE_ENTRY_POINTS))
def test_a_listed_covariance_gives_the_arrays_results(entry):
    model = _nonsquare3()
    Q = np.array([[2e-4, 5e-5, 0.0], [5e-5, 1e-4, 0.0], [0.0, 0.0, 1e-4]])
    array = _NOISE_ENTRY_POINTS[entry](model, df.NoiseSpec(Q=Q, R=1e-4 * np.eye(2)), 1)
    listed = _NOISE_ENTRY_POINTS[entry](model, df.NoiseSpec(Q=Q.tolist(), R=1e-4 * np.eye(2)), 1)

    def values(result):
        if isinstance(result, tuple):
            return [v for part in result for v in values(part)]
        if hasattr(result, "__dataclass_fields__"):
            return [v for name in result.__dataclass_fields__
                    for v in values(getattr(result, name))]
        return [result]

    for a, b in zip(values(array), values(listed), strict=True):
        assert np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b


def _user_gain_config(model, r):
    L = df.minvar_gain(model, df.default_noise(model), r).L
    return df.FilterConfig(r=r, gain_mode=df.FIXED_USER_SUPPLIED, initial_estimate=np.zeros(model.n),
                           initial_covariance=np.eye(model.n), gain=L)


# every public function that reads Q or R, as (model, noise) -> result, on nonsquare3 at r = 1
_SPEC_NEEDED = {
    "minvar_gain": lambda m, noise: df.minvar_gain(m, noise, 1),
    "simplified_minvar_gain": lambda m, noise: df.simplified_minvar_gain(m, noise, 1),
    "covariance_update": lambda m, noise: df.covariance_update(
        m, noise, 1, _user_gain_config(m, 1).gain, np.eye(m.n)),
    "steady_state_gain": lambda m, noise: df.steady_state_gain(m, noise, 1, max_iter=50),
    "monte_carlo_bias": lambda m, noise: df.monte_carlo_bias(      # a fixed gain: the draws need it
        m, noise, _user_gain_config(m, 1), df.example_signals(m), trials=3, T=20, seed=2),
    "run_filter-tv": lambda m, noise: df.run_filter(
        m, noise, _tv_config(m, 1), np.linspace(-1.0, 1.0, 40 * m.l).reshape(40, m.l)),
}


@pytest.mark.parametrize("entry", list(_SPEC_NEEDED))
def test_every_call_that_reads_q_or_r_needs_a_noise_spec(entry):
    # noise=None is the noiseless run; a call that weighs or draws noise asks for a spec
    model = _nonsquare3()
    _SPEC_NEEDED[entry](model, df.default_noise(model))
    with pytest.raises(df.PreconditionViolated, match="needs a noise specification"):
        _SPEC_NEEDED[entry](model, None)


def _doc(**extra):
    doc = {"A": A2, "H": H2, "C": C2}
    doc.update(extra)
    return doc


def test_parse_document_minimal():
    model, noise, delay = df.parse_model_document(_doc())
    assert noise is None and delay is None
    assert model.n == 2


def test_parse_document_full():
    model, noise, delay = df.parse_model_document(
        _doc(B=[[0.3], [0.1]], D=[[0.2]],
             Q=[[1e-4, 0.0], [0.0, 1e-4]], R=[[1e-4]], delay=1))
    assert noise is not None
    assert delay == 1


def test_parse_document_auto_delay():
    _, _, delay = df.parse_model_document(_doc(delay="auto"))
    assert delay == "auto"


def test_parse_document_rejects_unknown_keys():
    with pytest.raises(df.ModelFileError):
        df.parse_model_document(_doc(G=[[1.0]]))


def test_parse_document_rejects_lone_q():
    with pytest.raises(df.ModelFileError):
        df.parse_model_document(_doc(Q=[[1.0, 0.0], [0.0, 1.0]]))


def test_parse_document_rejects_negative_delay():
    with pytest.raises(df.ModelFileError):
        df.parse_model_document(_doc(delay=-1))


def test_parse_document_requires_core_matrices():
    with pytest.raises(df.ModelFileError):
        df.parse_model_document({"A": A2, "H": H2})


def test_load_model_file_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_doc(Q=[[1e-4, 0.0], [0.0, 1e-4]],
                                    R=[[1e-4]], delay=1)))
    model, noise, delay = df.load_model_file(str(path))
    assert model.p == 1 and noise is not None and delay == 1


def test_load_model_file_bad_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(df.ModelFileError):
        df.load_model_file(str(path))
