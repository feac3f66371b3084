"""Trajectory/estimate CSV round-trips and malformed-input rejection."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import delayfilter as df

E1 = df.validate_model([[0.5, 0.0], [1.0, 0.5]], [[1.0], [0.0]], [[0.0, 1.0]])
E1U = df.validate_model(E1.A, E1.H, E1.C, B=[[0.3], [0.1]], D=[[0.2]])


def _traj(model, T=20, seed=0):
    sigs = [df.parse_signal_spec("sine:1:10")]
    u = [df.parse_signal_spec("constant:0.5")] if model.m else None
    return df.simulate(model, None, sigs, T, seed=seed, u_signals=u)


def test_trajectory_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    traj = _traj(E1)
    df.write_trajectory(str(path), traj)
    header = path.read_text().splitlines()[0]
    assert header == "k,y1,x1,x2,e1"
    ks, y, u = df.read_measurements(str(path), E1.l, E1.m)
    assert list(ks) == list(range(21))
    assert u is None
    assert np.array_equal(y, traj.y)  # %.17g round-trip is exact


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


def test_estimates_reject_a_wrong_column_count(tmp_path):
    path = tmp_path / "e.csv"
    with pytest.raises(df.DimensionMismatch, match=r"estimates must be \(T\+1, 4\)"):
        df.write_estimates(str(path), np.zeros((3, 5)), E1.n, E1.p, E1.l)
    assert not path.exists()


def _long_file(path, bad_line, bad_row):
    """k,y1,u1 file with blank and ,,, rows; physical line bad_line holds bad_row."""
    lines, k = ["k,y1,u1"], 0
    while len(lines) < 6000:
        if len(lines) + 1 == bad_line:
            lines.append(bad_row)
        elif len(lines) % 7 == 0:
            lines.append("")
        elif len(lines) % 11 == 0:
            lines.append(",,,")
        else:
            lines.append(f"{k},{0.5 * k},{-k}")
            k += 1
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("bad_row, message", [("4200,abc,1", "non-numeric field"),
                                              ("4200,1.5", "short row")])
def test_measurements_fault_named_by_physical_line(tmp_path, bad_row, message):
    path = tmp_path / "m.csv"
    _long_file(path, 5000, bad_row)
    with pytest.raises(df.DimensionMismatch, match=rf"m\.csv:5000: {message}$"):
        df.read_measurements(str(path), 1, 1)


@pytest.mark.parametrize("body, line", [('"0\n",1\n1,abc\n', 4), ('0,1\n"1\n\n",abc\n', 3)])
def test_measurements_fault_named_by_the_line_its_row_starts_on(tmp_path, body, line):
    # a quoted field spanning lines counts every line it spans
    path = tmp_path / "m.csv"
    path.write_text("k,y1\n" + body)
    with pytest.raises(df.DimensionMismatch, match=rf"m\.csv:{line}: non-numeric field$"):
        df.read_measurements(str(path), 1, 0)


def test_measurements_lines_counted_from_a_multiline_header(tmp_path):
    # a quoted header field spanning lines shifts every body line by one
    path = tmp_path / "m.csv"
    path.write_text('k,y1,"x1\n"\n0,1,2\n1,abc,3\n')
    with pytest.raises(df.DimensionMismatch, match=r"m\.csv:4: non-numeric field$"):
        df.read_measurements(str(path), 1, 0)


def test_measurements_blank_rows_skipped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("k,y1,u1\n\n0,1.5,2\n,,,\n , ,\n\n1,3,4\n,,\n\n")
    ks, y, u = df.read_measurements(str(path), 1, 1)
    assert ks == [0, 1]
    assert y.tolist() == [[1.5], [3.0]] and u.tolist() == [[2.0], [4.0]]


def test_measurements_lf_and_crlf_read_alike(tmp_path):
    rows = ["k,y1,u1"] + [f"{k},{float(np.sin(k))!r},{-0.1 * k!r}" for k in range(50)]
    read = []
    for name, end in (("lf.csv", "\n"), ("crlf.csv", "\r\n")):
        path = tmp_path / name
        path.write_bytes(end.join(rows).encode() + end.encode())
        read.append(df.read_measurements(str(path), 1, 1))
    (ks1, y1, u1), (ks2, y2, u2) = read
    assert ks1 == ks2 == list(range(50))
    assert y1.tobytes() == y2.tobytes() and u1.tobytes() == u2.tobytes()


def test_measurements_quoted_cell_accepted(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('k,y1,u1\n"0","1.5",2\n1,3,"-4e-3"\n')
    ks, y, u = df.read_measurements(str(path), 1, 1)
    assert ks == [0, 1]
    assert y.tolist() == [[1.5], [3.0]] and u.tolist() == [[2.0], [-4e-3]]


def test_measurements_truth_columns_ignored(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('k,y1,x1,x2,e1\n0,1.5,abc,,"q,r"\n1,3\n2,4.5,1,2,3\n')
    ks, y, u = df.read_measurements(str(path), 1, 0)
    assert ks == [0, 1, 2] and u is None
    assert y.tolist() == [[1.5], [3.0], [4.5]]


@pytest.mark.parametrize("cell", ["1_0", "\uff11"])
def test_measurements_reject_number_float_alone_reads(tmp_path, cell):
    # float() reads "1_0" and a fullwidth digit; the bulk parser, and so the reader, does not
    path = tmp_path / "m.csv"
    path.write_text(f"k,y1\n0,1\n1,{cell}\n", encoding="utf-8")
    with pytest.raises(df.DimensionMismatch, match=r"m\.csv:3: non-numeric field$"):
        df.read_measurements(str(path), 1, 0)


@pytest.mark.parametrize("body", ["", "\n", "\n\n", " \n,,\n\"\"\n\t\n"],
                         ids=["header-only", "newline", "newlines", "blank-cells"])
def test_measurements_without_data_rows(tmp_path, body):
    path = tmp_path / "m.csv"
    path.write_text("k,y1\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(df.DimensionMismatch, match=r"m\.csv: no data rows$"):
            df.read_measurements(str(path), 1, 0)


def test_measurements_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(df.DimensionMismatch, match=r"m\.csv: empty file$"):
        df.read_measurements(str(path), 1, 0)


def test_measurements_undecodable_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"k,y1\n0,1\xe9\n")
    with pytest.raises(df.MeasurementFileError, match="cannot read measurement file"):
        df.read_measurements(str(path), 1, 0)


EDGE_DOUBLES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16]
doubles = st.floats(allow_nan=False, allow_infinity=False)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@given(values=st.lists(st.tuples(doubles, doubles), min_size=1, max_size=30))
@example(values=[(v, -v) for v in EDGE_DOUBLES])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_written_floats_read_back_bit_for_bit(values, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    arr = np.array(values, dtype=float)
    T = len(arr) - 1
    traj = df.Trajectory(T=T, x=arr[:, ::-1], y=arr[:, :1], e=arr[:, 1:],
                         u=arr[:, 1:], w=np.zeros((T + 1, 2)),
                         v=np.zeros((T + 1, 1)), seed=0)
    df.write_trajectory(str(path), traj)
    ks, y, u = df.read_measurements(str(path), 1, 1)
    assert ks == list(range(T + 1))
    assert _bits(y) == _bits(arr[:, :1]) and _bits(u) == _bits(arr[:, 1:])

    # the same rows among blank ones: the line scan reads what the bulk parse read
    header, *data = path.read_text().splitlines()
    blanks = ["", " \t", ",,", '""']
    padded = [header, ",,"] + [line for i, row in enumerate(data)
                              for line in (row, blanks[i % len(blanks)])] + blanks
    path.write_text("\n".join(padded) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ks2, y2, u2 = df.read_measurements(str(path), 1, 1)
    assert ks2 == ks and _bits(y2) == _bits(y) and _bits(u2) == _bits(u)

    # estimates: two warm-up rows of NaN, then the values in every column
    rows = np.vstack([np.full((2, 3), np.nan), np.hstack([arr, arr[:, :1]])])
    df.write_estimates(str(path), rows, 1, 1, 1)
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["k", "xhat1", "ehat1", "innov1"]
    assert table[1:3] == [["0", "", "", ""], ["1", "", "", ""]]
    assert [int(row[0]) for row in table[1:]] == list(range(len(rows)))
    assert _bits([[float(c) for c in row[1:]] for row in table[3:]]) == _bits(rows[2:])
