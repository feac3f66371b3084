"""Trajectory/estimate CSV round-trips and malformed-input rejection."""

import numpy as np
import pytest

import delayfilter as df

E1 = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])
E1U = df.validate_model(E1.A, E1.H, E1.C, B=[[0.3], [0.1]], D=[[0.2]])


def _traj(model, T=20, seed=0):
    sigs = [df.parse_signal_spec("sine:1:10")]
    u = [df.parse_signal_spec("constant:0.5")] if model.m else None
    return df.simulate(model, None, sigs, T, seed=seed, u_signals=u,
                       noise_on=False)


def test_trajectory_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    traj = _traj(E1)
    df.write_trajectory(str(path), traj)
    header = path.read_text().splitlines()[0]
    assert header == "k,y1,x1,x2,e1"
    ks, y, u = df.read_measurements(str(path), E1.l, E1.m)
    assert list(ks) == list(range(21))
    assert u is None
    assert np.array_equal(y, traj.y)  # repr round-trip is exact


def test_trajectory_roundtrip_with_known_inputs(tmp_path):
    path = tmp_path / "t.csv"
    traj = _traj(E1U)
    df.write_trajectory(str(path), traj)
    header = path.read_text().splitlines()[0]
    assert header == "k,y1,u1,x1,x2,e1"
    ks, y, u = df.read_measurements(str(path), E1U.l, E1U.m)
    assert np.array_equal(u, traj.u)


def test_measurements_only_header_accepted(tmp_path):
    # a bare measurement file, no truth columns
    path = tmp_path / "m.csv"
    rows = ["k,y1"] + [f"{k},{0.1 * k}" for k in range(5)]
    path.write_text("\n".join(rows) + "\n")
    ks, y, u = df.read_measurements(str(path), 1, 0)
    assert y.shape == (5, 1)


def test_measurements_reject_wrong_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,z1\n0,1.0\n")
    with pytest.raises(df.DimensionMismatch):
        df.read_measurements(str(path), 1, 0)


def test_measurements_reject_gap_in_k(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,y1\n0,1.0\n2,1.0\n")
    with pytest.raises(df.DimensionMismatch):
        df.read_measurements(str(path), 1, 0)


def test_measurements_reject_fractional_k(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,y1\n0,1.0\n1.0,1.0\n2,1.0\n")
    ks, _, _ = df.read_measurements(str(path), 1, 0)    # integral values pass
    assert ks == [0, 1, 2]
    path.write_text("k,y1\n0,1.0\n1.7,1.0\n2,1.0\n")
    with pytest.raises(df.DimensionMismatch, match=r"m\.csv:3: k = '1\.7'"):
        df.read_measurements(str(path), 1, 0)


def test_measurements_reject_short_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,y1,u1\n0,1.0\n")
    with pytest.raises(df.DimensionMismatch):
        df.read_measurements(str(path), 1, 1)


def test_estimates_warmup_rows_empty(tmp_path):
    path = tmp_path / "e.csv"
    traj = _traj(E1)
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(2),
                             initial_covariance=np.eye(2))
    run = df.run_filter(E1, None, config, traj.y)
    rows = np.hstack([run.state_estimates, run.input_estimates, run.innovations])
    df.write_estimates(str(path), rows, E1.n, E1.p, E1.l)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,xhat1,xhat2,ehat1,innov1"
    assert lines[1] == "0,,,,"
    assert lines[2] == "1,,,,"
    assert lines[3].startswith("2,") and ",," not in lines[3]
    assert len(lines) == traj.T + 2
