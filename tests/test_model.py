"""Model construction, validation, and JSON parsing."""

import json

import numpy as np
import pytest

import delayfilter as df


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
