"""Model construction, validation, and JSON parsing."""

import json
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

import delayfilter as df
from delayfilter import filtering, linalg, model as model_module
from delayfilter.linalg import as_float_array, as_float_matrix, as_float_vector
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


# nonsquare3 with one known input, so that B, D, u and u_k are read too; r = 1 is feasible
_NS3 = df.reference_example("nonsquare3")[0]
_READ = df.validate_model(_NS3.A, _NS3.H, _NS3.C, [[0.3], [0.1], [0.0]], [[0.2], [0.0]])
_NOISE = df.default_noise(_READ)
_READ_GAIN = df.minvar_gain(_READ, _NOISE, 1).L


def _read_config(**fields):
    config = dict(r=1, gain_mode=df.FIXED_USER_SUPPLIED, initial_estimate=np.zeros(3),
                  initial_covariance=np.eye(3), gain=_READ_GAIN)
    return df.FilterConfig(**{**config, **fields})


def _read_step(y_k, u_k):
    return df.step(df.init_filter(_READ, _NOISE, _read_config()), _READ, _NOISE, y_k, u_k)


_Y, _U = np.linspace(-1.0, 1.0, 20).reshape(10, 2), np.zeros((10, 1))
# every array argument a public function takes, as (name in the error, a valid value, call)
_ARRAY_ARGUMENTS = {
    **{f"validate_model-{key}": (key, getattr(_READ, key), lambda a, key=key:
                                 df.validate_model(**{"A": _READ.A, "H": _READ.H, "C": _READ.C,
                                                      "B": _READ.B, "D": _READ.D, key: a}))
       for key in "AHCBD"},
    "NoiseSpec-Q": ("Q", _NOISE.Q, lambda a: df.NoiseSpec(Q=a, R=_NOISE.R)),
    "NoiseSpec-R": ("R", _NOISE.R, lambda a: df.NoiseSpec(Q=_NOISE.Q, R=a)),
    "init_filter-initial_estimate": ("initial_estimate", np.zeros(3), lambda a: df.init_filter(
        _READ, _NOISE, _read_config(initial_estimate=a))),
    "init_filter-initial_covariance": ("initial_covariance", np.eye(3), lambda a: df.init_filter(
        _READ, _NOISE, _read_config(initial_covariance=a))),
    "init_filter-gain": ("gain", _READ_GAIN, lambda a: df.init_filter(
        _READ, _NOISE, _read_config(gain=a))),
    "step-y_k": ("y_k", np.zeros(2), lambda a: _read_step(a, np.zeros(1))),
    "step-u_k": ("u_k", np.zeros(1), lambda a: _read_step(np.zeros(2), a)),
    "run_filter-y": ("y", _Y, lambda a: df.run_filter(_READ, _NOISE, _read_config(), a, _U)),
    "run_filter-u": ("u", _U, lambda a: df.run_filter(_READ, _NOISE, _read_config(), _Y, a)),
    "simulate-x0": ("x0", np.zeros(3), lambda a: df.simulate(
        _READ, _NOISE, df.example_signals(_READ), 5, seed=1, x0=a)),
    "predicted_error_sequence-eps0": ("eps0", np.ones(3), lambda a: df.predicted_error_sequence(
        _READ, 1, _READ_GAIN, a, 3)),
    "predicted_error_sequence-L": ("gain", _READ_GAIN, lambda a: df.predicted_error_sequence(
        _READ, 1, a, np.ones(3), 3)),
    "minvar_gain-P_prev": ("P_prev", np.eye(3), lambda a: df.minvar_gain(_READ, _NOISE, 1, a)),
    "simplified_minvar_gain-P_prev": ("P_prev", np.eye(3), lambda a: df.simplified_minvar_gain(
        _READ, _NOISE, 1, a)),
    "covariance_update-L": ("gain", _READ_GAIN, lambda a: df.covariance_update(
        _READ, _NOISE, 1, a, np.eye(3))),
    "covariance_update-P_prev": ("P_prev", np.eye(3), lambda a: df.covariance_update(
        _READ, _NOISE, 1, _READ_GAIN, a)),
    "steady_state_gain-P0": ("P0", np.eye(3), lambda a: df.steady_state_gain(
        _READ, _NOISE, 1, a, max_iter=5)),
    **{f"{call.__name__}-L": ("gain", _READ_GAIN, lambda a, call=call: call(_READ, 1, a))
       for call in (df.unbiasedness_residual, df.error_dynamics_matrix, df.gain_spectral_radius,
                    df.classify_convergence)},
    "write_estimates-rows": ("estimates", np.zeros((3, 6)), lambda a: df.write_estimates(
        os.devnull, a, 3, 1, 2)),
}


def _bad_values(good):
    """A string entry, a complex dtype and ragged nesting, each in place of the valid good."""
    string = good.tolist()
    complex_ = good.astype(complex)
    complex_.flat[0] += 0.5j                # an imaginary part that a float cast would drop
    ragged = good.tolist()
    if good.ndim == 1:                      # ragged however short good is
        string[0], ragged = "x", [[ragged[0]]] + ragged
    else:
        string[0][0], ragged[0] = "x", ragged[0][:-1] + [[ragged[0][-1]]]
    return {"string": string, "complex": complex_, "ragged": ragged}


@pytest.mark.parametrize("bad", ["string", "complex", "ragged"])
@pytest.mark.parametrize("entry", list(_ARRAY_ARGUMENTS))
def test_every_array_argument_is_read_by_the_one_reader(entry, bad):
    # no numpy ValueError or TypeError, and no ComplexWarning or a silently dropped imaginary part
    name, good, call = _ARRAY_ARGUMENTS[entry]
    call(good)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(df.DimensionMismatch, match=rf"(^|: ){name}: not a real numeric array$"):
            call(_bad_values(good)[bad])


def test_the_reader_takes_an_object_array_of_real_numbers_only():
    assert as_float_array([Fraction(1, 2), 2**70, True], "a").tolist() == [0.5, 2.0**70, 1.0]
    for bad in ([Fraction(1, 2), "1.5"], [1.0, None], [10**400, 1]):     # the last overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(df.DimensionMismatch, match="^a: not a real numeric array$"):
                as_float_array(bad, "a")


def test_a_float64_argument_is_read_without_a_copy(monkeypatch):
    a, v = np.arange(6.0).reshape(2, 3), np.ones(3)
    view = a.T                              # not contiguous: still float64, still not copied
    assert as_float_array(a, "a") is a and as_float_array(a, "a", (2, 3)) is a
    assert as_float_array(view, "a") is view
    assert as_float_matrix(a, "a") is a and as_float_vector(v, 3, "v") is v
    assert as_float_array([[1, 2]], "a").dtype == np.float64
    # step reads each y_k by as_float_vector: a float64 sample is not copied
    reads = []

    def spy(x, size, name):
        reads.append((name, x, as_float_vector(x, size, name)))
        return reads[-1][2]

    monkeypatch.setattr(filtering, "as_float_vector", spy)
    samples = [np.full(2, 0.1 * k) for k in range(4)]
    state = df.init_filter(_READ, _NOISE, _read_config())
    for y_k in samples:
        state, _ = df.step(state, _READ, _NOISE, y_k, np.zeros(1))
    y_reads = [(x, out) for name, x, out in reads if name == "y_k"]
    assert len(y_reads) == len(samples)
    assert all(x is y and out is y for (x, out), y in zip(y_reads, samples))


def test_readonly_keeps_a_c_order_copy_and_sealed_keeps_the_array():
    a = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    kept = linalg.readonly(a)
    assert kept.flags.c_contiguous and not kept.flags.writeable
    assert kept is not a and not np.shares_memory(kept, a) and np.array_equal(kept, a)
    assert a.flags.writeable                # the caller's array is left as it was
    built = np.ones(3)
    assert linalg.sealed(built) is built and not built.flags.writeable


def test_validate_noise_reads_q_and_r_once(monkeypatch):
    # the reader's shape and finiteness test runs once per covariance, in NoiseSpec's rule
    calls = []

    def counted(x, name, shape=None):
        calls.append(name)
        return as_float_matrix(x, name, shape)

    model = df.validate_model(A2, H2, C2)
    monkeypatch.setattr(model_module, "as_float_matrix", counted)
    noise = df.validate_noise([[1e-4, 0.0], [0.0, 1e-4]], [[1e-4]], model)
    assert calls == ["Q", "R"]
    assert not noise.Q.flags.writeable and not noise.R.flags.writeable


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
