"""End-to-end command line behavior: reports, artifacts, exit codes."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import delayfilter as df
from delayfilter import cli, registry
from delayfilter.cli import main
from conftest import ill_conditioned_square_model


@pytest.fixture()
def model_file(tmp_path):
    def write(example_id, name="model.json", with_noise=False, delay=None):
        model, noise, _ = df.reference_example(example_id)
        doc = {"A": model.A.tolist(), "H": model.H.tolist(), "C": model.C.tolist()}
        if with_noise:
            doc["Q"] = noise.Q.tolist()
            doc["R"] = noise.R.tolist()
        if delay is not None:
            doc["delay"] = delay
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def _report(capsys):
    return json.loads(capsys.readouterr().out)


def test_analyze_report(model_file, capsys):
    rc = main(["analyze", model_file("minphase3", with_noise=True)])
    report = _report(capsys)
    assert rc == 0
    assert report["schema_version"] == 1
    assert report["delay_analysis"]["minimal_delay"] == 1
    assert report["zeros"]["classification"] == "AllInsideUnitCircle"
    assert report["verdict"] == "AsymptoticallyUnbiased"
    assert report["gain"]["method"] == "SquareInverse"
    assert report["noise_defaulted"] is False


def test_analyze_infeasible_exits_2(model_file, capsys):
    rc = main(["analyze", model_file("invertibility4")])
    report = _report(capsys)
    assert rc == 2
    assert report["delay_analysis"]["minimal_delay"] is None
    assert report["verdict"] is None


def test_analyze_nonsquare_defaults_noise(model_file, capsys):
    rc = main(["analyze", model_file("nonsquare3")])
    report = _report(capsys)
    assert rc == 0
    assert report["noise_defaulted"] is True
    assert report["gain"]["method"] == "MinVarLagrangian"
    assert report["gain"]["steady_state_converged"] is True


def test_analyze_nonconverging_riccati_is_reported(model_file, capsys):
    rc = main(["analyze", model_file("nonsquare12")])
    report = _report(capsys)
    assert rc == 0
    assert report["gain"]["steady_state_converged"] is False
    # its unique unbiased gain has a closed-loop eigenvalue at 7.46
    assert report["verdict"] == df.DIVERGENT


def test_simulate_then_filter_roundtrip(model_file, tmp_path, capsys):
    mf = model_file("minphase3", with_noise=True)
    traj_csv = str(tmp_path / "traj.csv")
    est_csv = str(tmp_path / "est.csv")

    rc = main(["simulate", mf, "--e1", "sine:1:40", "--T", "80",
               "--seed", "3", "--out", traj_csv])
    sim_report = _report(capsys)
    assert rc == 0
    assert sim_report["rows"] == 81
    assert sim_report["noise"] == "off"

    rc = main(["filter", mf, traj_csv, "--out", est_csv])
    report = _report(capsys)
    assert rc == 0
    assert report["delay"] == 1
    assert report["gain"]["mode"] == "FixedSquare"
    assert report["verdict"] == "AsymptoticallyUnbiased"
    assert report["emitted"] == 79
    # The innovation is not zero on clean data: it is exactly the
    # signal the unknown input injects, and the filter decodes ehat
    # from it. What must vanish is the estimation error.
    assert report["innovation_rms"] > 1e-3

    lines = Path(est_csv).read_text().splitlines()
    assert lines[0] == "k,xhat1,xhat2,xhat3,ehat1,innov1"
    assert len(lines) == 82

    truth = {}
    for row in Path(traj_csv).read_text().splitlines()[1:]:
        cells = row.split(",")
        truth[int(cells[0])] = [float(c) for c in cells[2:]]  # x1,x2,x3,e1
    worst = 0.0
    for row in lines[1:]:
        cells = row.split(",")
        if cells[1] == "":
            continue  # warm-up row
        k = int(cells[0])
        # delay 1: row k estimates the state at k-1 and the input at k-2
        xhat = [float(c) for c in cells[1:4]]
        ehat = float(cells[4])
        worst = max(worst, max(abs(a - b) for a, b in zip(xhat, truth[k - 1][:3])))
        worst = max(worst, abs(ehat - truth[k - 2][3]))
    assert worst <= 1e-8


def test_simulate_deterministic(model_file, tmp_path, capsys):
    mf = model_file("minphase3")
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["simulate", mf, "--e1", "prbs:1:9", "--seed", "7", "--out", a]) == 0
    capsys.readouterr()
    assert main(["simulate", mf, "--e1", "prbs:1:9", "--seed", "7", "--out", b]) == 0
    capsys.readouterr()
    assert Path(a).read_text() == Path(b).read_text()


def test_simulate_missing_channel_exits_1(model_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", model_file("compartmental-25"), "--e1", "sine:1:40"])
    assert exc.value.code == 1


def test_simulate_rejects_bad_spec(model_file):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", model_file("minphase3"), "--e1", "ramp:1:5"])
    assert exc.value.code == 1


@pytest.mark.parametrize("flags", [
    ["--e1", "sine:1:40", "--e2", "sine:1:30"],     # minphase3 has one unknown input
    ["--e1", "sine:1:40", "--u1", "constant:1"],    # and no known input
    ["--e", "sine:1:40"],                           # no abbreviations
    ["--e1"],                                       # a flag without its value
    ["--e1", "sine:1:40", "extra"],
    ["--e1", "sine:nan:40"],                        # non-finite amplitude, period, phase
    ["--e1", "sine:1:nan"],
    ["--e1", "sine:inf:40"],
    ["--e1", "gaussian:nan"],
    ["--e1", "sine:1:40:inf"],
])
def test_simulate_rejects_bad_channel_flags(model_file, tmp_path, capsys, flags):
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", model_file("minphase3"), *flags, "--out", str(out)])
    assert exc.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "abc"])
def test_simulate_rejects_bad_seed(model_file, tmp_path, capsys, seed):
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", model_file("minphase3"), "--e1", "sine:1:40",
              "--seed", seed, "--out", str(out)])
    assert exc.value.code == 1
    assert "--seed: must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_an_empty_horizon(model_file, tmp_path, capsys):
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", model_file("minphase3"), "--e1", "sine:1:40", "--T", "0",
              "--out", str(out)])
    assert exc.value.code == 1
    assert "--T must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_flag_value_after_equals_sign(model_file, tmp_path, capsys):
    mf = model_file("minphase3")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["simulate", mf, "--e1=sine:1:40", "--out", a]) == 0
    assert main(["simulate", mf, "--e1", "sine:1:40", "--out", b]) == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_simulate_noise_needs_q_r_or_defaults(model_file, tmp_path, capsys):
    # no Q/R in the file: simulate --noise on falls back to the default pair
    mf = model_file("minphase3")
    out = str(tmp_path / "noisy.csv")
    rc = main(["simulate", mf, "--e1", "sine:1:40", "--noise", "on", "--out", out])
    report = _report(capsys)
    assert rc == 0
    assert report["noise_defaulted"] is True


def test_filter_delay_flag_overrides_file(model_file, tmp_path, capsys):
    mf = model_file("nonsquare3", with_noise=True, delay=2)
    traj_csv = str(tmp_path / "t.csv")
    main(["simulate", mf, "--e1", "sine:1:40", "--out", traj_csv])
    capsys.readouterr()

    rc = main(["filter", mf, traj_csv, "--out", str(tmp_path / "e2.csv")])
    report = _report(capsys)
    assert rc == 0
    assert report["delay"] == 2  # file value honored
    assert report["gain"]["mode"] == "TimeVaryingMinVar"
    assert report["verdict"] == "AsymptoticallyUnbiased"

    rc = main(["filter", mf, traj_csv, "--delay", "1",
               "--out", str(tmp_path / "e1.csv")])
    assert rc == 0
    assert _report(capsys)["delay"] == 1  # flag wins


def test_filter_infeasible_delay_exits_2(model_file, tmp_path, capsys):
    mf = model_file("compartmental-25")
    traj_csv = str(tmp_path / "t.csv")
    main(["simulate", mf, "--e1", "sine:1:40", "--e2", "sine:1:30",
          "--out", traj_csv])
    capsys.readouterr()
    rc = main(["filter", mf, traj_csv, "--delay", "0",
               "--out", str(tmp_path / "e.csv")])
    assert rc == 2


@pytest.mark.parametrize("delay", ["abc", "1.5", "-1"])
def test_filter_bad_delay_flag_exits_1(model_file, tmp_path, capsys, delay):
    mf = model_file("minphase3")
    traj_csv, est_csv = tmp_path / "t.csv", tmp_path / "e.csv"
    assert main(["simulate", mf, "--e1", "sine:1:40", "--out", str(traj_csv)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["filter", mf, str(traj_csv), "--delay", delay, "--out", str(est_csv)])
    assert exc.value.code == 1
    assert "--delay" in capsys.readouterr().err
    assert not est_csv.exists()
    # a well-formed delay at or beyond the system order is infeasible, not a usage error
    assert main(["filter", mf, str(traj_csv), "--delay", "7", "--out", str(est_csv)]) == 2


def test_filter_square_gain_over_tolerance_exits_1_and_writes_nothing(tmp_path, capsys):
    model = ill_conditioned_square_model(1)
    mf = tmp_path / "model.json"
    mf.write_text(json.dumps({name: getattr(model, name).tolist() for name in "AHC"}))
    meas, out = tmp_path / "meas.csv", tmp_path / "est.csv"
    traj = df.simulate(model, None, df.example_signals(model), 50, noise_on=False)
    df.write_trajectory(str(meas), traj)
    rc = main(["filter", str(mf), str(meas), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "ConstraintViolated: square gain: residual" in captured.err
    assert not out.exists()


def test_filter_auto_delay_without_a_feasible_delay_exits_2(model_file, tmp_path, capsys):
    model, noise, _ = df.reference_example("invertibility4")
    meas, out = tmp_path / "meas.csv", tmp_path / "est.csv"
    df.write_trajectory(str(meas), df.simulate(model, noise, df.example_signals(model), 50))
    rc = main(["filter", model_file("invertibility4"), str(meas), "--delay", "auto",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "no feasible delay" in captured.err
    assert not out.exists()


def test_filter_nonsquare_defaults_noise(model_file, tmp_path, capsys):
    mf = model_file("nonsquare3")
    meas = str(tmp_path / "t.csv")
    assert main(["simulate", mf, "--e1", "sine:1:40", "--out", meas]) == 0
    capsys.readouterr()
    rc = main(["filter", mf, meas, "--out", str(tmp_path / "e.csv")])
    report = _report(capsys)
    assert rc == 0
    assert report["noise_defaulted"] is True
    assert report["gain"]["mode"] == "TimeVaryingMinVar"


def test_simulate_known_input_then_filter(tmp_path, capsys):
    model, _, _ = df.reference_example("nonsquare3")
    doc = {"A": model.A.tolist(), "H": model.H.tolist(), "C": model.C.tolist(),
           "B": [[0.3], [0.1], [0.2]], "D": [[0.5], [0.0]]}
    mf, traj_csv = tmp_path / "model.json", str(tmp_path / "t.csv")
    mf.write_text(json.dumps(doc))
    assert main(["simulate", str(mf), "--e1", "sine:1:40", "--u1", "step:2:10",
                 "--out", traj_csv]) == 0
    capsys.readouterr()
    with open(traj_csv) as fh:
        assert fh.readline().rstrip("\r\n") == "k,y1,y2,u1,x1,x2,x3,e1"
    rc = main(["filter", str(mf), traj_csv, "--out", str(tmp_path / "e.csv")])
    assert rc == 0
    assert _report(capsys)["emitted"] == 199


def test_main_shares_one_parser_that_keeps_no_state(tmp_path, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    model, _, _ = df.reference_example("nonsquare3")
    doc = {"A": model.A.tolist(), "H": model.H.tolist(), "C": model.C.tolist(),
           "B": [[0.3], [0.1], [0.2]], "D": [[0.5], [0.0]]}
    mf, traj_csv = tmp_path / "model.json", str(tmp_path / "t.csv")
    mf.write_text(json.dumps(doc))
    mf = str(mf)

    assert main(["analyze", mf]) == 0
    first = capsys.readouterr().out
    built.clear()           # whether that call built the shared parser depends on test order

    with pytest.raises(SystemExit) as exc:
        main(["analyze", mf, "--bogus"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--help"])
    assert exc.value.code == 0
    assert "usage: delayfilter filter" in capsys.readouterr().out
    assert main(["simulate", mf, "--e1", "sine:1:40", "--u1", "step:2:10",
                 "--out", traj_csv]) == 0
    assert built == ["delayfilter simulate"]        # the per-model channel parser only
    assert main(["filter", mf, traj_csv, "--out", str(tmp_path / "e.csv")]) == 0
    capsys.readouterr()
    assert main(["analyze", mf]) == 0
    assert capsys.readouterr().out == first
    assert built == ["delayfilter simulate"]


def test_analyze_degenerate_pencil_exits_2(tmp_path, capsys):
    mf = tmp_path / "model.json"
    mf.write_text(json.dumps({"A": np.diag([0.5, 0.4, 0.3]).tolist(), "H": [[0], [0], [1]],
                              "C": [[1, 0, 0], [0, 1, 0]]}))
    rc = main(["analyze", str(mf)])
    report = _report(capsys)
    assert rc == 2
    assert report["zeros"]["error"].startswith("PencilDegenerate")
    assert report["verdict"] is None


def test_filter_mismatched_measurements_exit_1(model_file, tmp_path, capsys):
    mf = model_file("minphase3")
    bad = tmp_path / "bad.csv"
    bad.write_text("k,y1,y2\n0,1.0,2.0\n")
    rc = main(["filter", mf, str(bad)])
    assert rc == 1


def test_filter_missing_measurements_exit_1(model_file, tmp_path, capsys):
    rc = main(["filter", model_file("minphase3"), str(tmp_path / "absent.csv")])
    assert rc == 1
    assert "MeasurementFileError" in capsys.readouterr().err


def _one_line_error(capsys, name):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"delayfilter: {name}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_simulate_unwritable_out_exits_1(model_file, tmp_path, capsys):
    out = tmp_path / "absent" / "t.csv"
    rc = main(["simulate", model_file("minphase3"), "--e1", "sine:1:10", "--out", str(out)])
    assert rc == 1
    _one_line_error(capsys, "FileNotFoundError")


@pytest.mark.parametrize("out, error", [(".", "IsADirectoryError"),
                                        ("afile/e.csv", "NotADirectoryError")])
def test_filter_unwritable_out_exits_1_and_writes_nothing(model_file, tmp_path, capsys,
                                                          out, error):
    mf = model_file("minphase3")
    meas = tmp_path / "meas.csv"
    meas.write_text("k,y1\n" + "".join(f"{k},{0.1 * k}\n" for k in range(6)))
    (tmp_path / "afile").write_text("kept\n")
    before = sorted(tmp_path.iterdir())
    rc = main(["filter", mf, str(meas), "--out", str(tmp_path / out)])
    assert rc == 1
    _one_line_error(capsys, error)
    assert sorted(tmp_path.iterdir()) == before
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_reproduce_outdir_that_is_a_file_exits_1(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    rc = main(["reproduce", "minphase3", "--outdir", str(afile)])
    assert rc == 1
    _one_line_error(capsys, "FileExistsError")
    assert afile.read_text() == "kept\n"


def test_analyze_model_file_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"A": [[0.5\xe9]]}')
    rc = main(["analyze", str(path)])
    assert rc == 1
    _one_line_error(capsys, "ModelFileError")


_DOC3 = {"A": [[0.5, 0.1, 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]], "H": [[1.0], [0.0], [0.0]],
        "C": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}


@pytest.mark.parametrize("doc, error", [
    ([_DOC3["A"]], "ModelFileError"),                                # not a JSON object
    ({**_DOC3, "A": [[0.5, "x", 0.0], [0.0, 0.4, 0.1], [0.1, 0.0, 0.3]]}, "DimensionMismatch"),
    ({**_DOC3, "A": [0.5, 0.4, 0.3]}, "DimensionMismatch"),         # a 1-d matrix
    ({**_DOC3, "H": [[1.0], [0.0]]}, "DimensionMismatch"),          # H with n - 1 rows
    ({**_DOC3, "H": [[], [], []]}, "DimensionMismatch"),            # H with no columns
    ({**_DOC3, "B": [[1.0], [0.0]]}, "DimensionMismatch"),          # B with n - 1 rows
    ({**_DOC3, "B": [[1.0], [0.0], [0.0]], "D": [[0.0, 0.0], [0.0, 0.0]]}, "DimensionMismatch"),
    ({**_DOC3, "Q": np.eye(3).tolist(), "R": [[1.0]]}, "DimensionMismatch"),
    ({**_DOC3, "Q": np.eye(3).tolist(), "R": [[1.0, 0.5], [0.0, 1.0]]}, "NotSymmetric"),
    ({**_DOC3, "Q": (-1e-4 * np.eye(3)).tolist(), "R": np.eye(2).tolist()}, "QIndefinite"),
    ({**_DOC3, "Q": np.eye(3).tolist(), "R": np.zeros((2, 2)).tolist()}, "RNotPositiveDefinite"),
], ids=["not-an-object", "non-numeric", "one-d", "h-rows", "h-no-columns", "b-rows",
        "d-shape", "r-shape", "r-asymmetric", "q-indefinite", "r-singular"])
def test_analyze_rejects_a_malformed_model_document(tmp_path, capsys, doc, error):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1
    _one_line_error(capsys, error)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_filter_nonfinite_sample_exits_1(model_file, tmp_path, capsys, value):
    meas = tmp_path / "meas.csv"
    rows = ["k,y1"] + [f"{k},{0.1 * k}" for k in range(6)]
    rows[4] = f"3,{value}"
    meas.write_text("\n".join(rows) + "\n")
    out = tmp_path / "est.csv"
    rc = main(["filter", model_file("minphase3"), str(meas), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "MeasurementFileError" in err and "y1 at row k=3" in err
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(df.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "delayfilter", "reproduce", "minphase3",
                           "--outdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_passed"] is True
    proc = subprocess.run([sys.executable, "-m", "delayfilter", "reproduce", "nope"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1


def test_filter_divergent_gain_is_reported(model_file, tmp_path, capsys):
    # the time-varying gain of nonsquare12 cannot be refreshed after k = 4;
    # it freezes there and the run reports divergence instead of exiting 1
    mf = model_file("nonsquare12", with_noise=True)
    traj_csv, est_csv = str(tmp_path / "traj.csv"), str(tmp_path / "est.csv")
    assert main(["simulate", mf, "--e1", "sine:1:40", "--e2", "prbs:1:5",
                 "--out", traj_csv]) == 0
    _report(capsys)
    rc = main(["filter", mf, traj_csv, "--out", est_csv])
    report = _report(capsys)
    assert rc == 0
    assert report["verdict"] == "Divergent"
    assert report["gain"]["frozen_at"] == 4
    assert report["gain"]["spectral_radius"] == pytest.approx(7.46, abs=0.01)
    assert np.isfinite(report["innovation_rms"])
    assert len(Path(est_csv).read_text().splitlines()) == 202


def test_filter_overflowing_estimates_exit_1(model_file, tmp_path, capsys):
    # on a long record the divergent mode (7.46^k) overflows the estimates;
    # they would read as empty warm-up rows, so nothing is written
    mf = model_file("nonsquare12", with_noise=True)
    traj_csv, est_csv = str(tmp_path / "traj.csv"), str(tmp_path / "est.csv")
    assert main(["simulate", mf, "--e1", "sine:1:40", "--e2", "prbs:1:5",
                 "--T", "600", "--out", traj_csv]) == 0
    _report(capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # the overflow is reported, not warned
        rc = main(["filter", mf, traj_csv, "--out", est_csv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    k = int(re.search(r"EstimatesNotFinite: estimates are not finite from k=(\d+)",
                      captured.err).group(1))
    assert 200 < k <= 600
    assert "spectral radius 7.46" in captured.err
    assert not os.path.exists(est_csv)


def test_reproduce_writes_divergent_estimates(tmp_path, capsys):
    rc = main(["reproduce", "nonsquare12", "--outdir", str(tmp_path)])
    report = _report(capsys)
    assert rc == 0
    assert report["estimates_skipped"] is None
    assert (tmp_path / "nonsquare12-estimates.csv").exists()


@pytest.mark.parametrize("example", [e for e in df.EXAMPLE_IDS if e != "invertibility4"])
def test_reproduce_known_example(tmp_path, capsys, example):
    rc = main(["reproduce", example, "--outdir", str(tmp_path)])
    report = _report(capsys)
    assert rc == 0
    assert report["all_passed"] is True
    assert (tmp_path / f"{example}-trajectory.csv").exists()
    assert (tmp_path / f"{example}-estimates.csv").exists()
    assert all(f["passed"] for f in report["facts"])


def test_reproduce_unknown_example_exits_1(tmp_path, capsys):
    with pytest.raises(df.UnknownExample, match="'nope'"):
        df.reference_example("nope")
    rc = main(["reproduce", "nope", "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("delayfilter: UnknownExample: unknown example 'nope'")
    assert "nonsquare3" in captured.err
    assert not list(tmp_path.iterdir())


def test_reproduce_infeasible_example_skips_estimates(tmp_path, capsys):
    rc = main(["reproduce", "invertibility4", "--outdir", str(tmp_path)])
    report = _report(capsys)
    assert rc == 0
    assert report["estimates_skipped"] == "no feasible delay"
    assert (tmp_path / "invertibility4-trajectory.csv").exists()
    assert not (tmp_path / "invertibility4-estimates.csv").exists()


def test_reproduce_without_finite_estimates_still_reports_the_facts(tmp_path, capsys,
                                                                    monkeypatch):
    def overflowing(*args):
        raise df.EstimatesNotFinite("estimates overflowed at row 17")

    monkeypatch.setattr(cli, "_filter_rows", overflowing)
    rc = main(["reproduce", "compartmental-25", "--outdir", str(tmp_path)])
    report = _report(capsys)
    assert rc == 0 and report["all_passed"] is True
    assert report["estimates_skipped"] == "EstimatesNotFinite: estimates overflowed at row 17"
    assert report["files"] == [str(tmp_path / "compartmental-25-trajectory.csv")]
    assert sorted(os.listdir(tmp_path)) == ["compartmental-25-trajectory.csv"]


def test_example_ids_come_from_the_registry_table():
    assert df.EXAMPLE_IDS == ("compartmental-25", "compartmental-34", "minphase3",
                              "nonminphase3", "nonsquare3", "nonsquare12", "invertibility4")
    assert df.EXAMPLE_IDS == tuple(registry._EXAMPLES)
    for example in df.EXAMPLE_IDS:
        first, second = df.reference_example(example), df.reference_example(example)
        assert first[0] is not second[0]
        assert np.array_equal(first[0].A, second[0].A) and first[2] == second[2]
    known = ", ".join(df.EXAMPLE_IDS)
    for bad in ("nope", 3, None, ["minphase3"]):
        with pytest.raises(df.UnknownExample) as exc:
            df.reference_example(bad)
        assert str(exc.value) == f"unknown example {bad!r}; known ids: {known}"


def test_reproduce_exits_3_when_a_fact_fails(tmp_path, capsys, monkeypatch):
    build, facts = registry._EXAMPLES["compartmental-25"]
    forced = (registry.Fact("forced", lambda model, noise: (False, "forced failure")),
              registry.Fact("crashing", lambda model, noise: (1 / 0, "")))
    monkeypatch.setitem(registry._EXAMPLES, "compartmental-25", (build, facts + forced))
    rc = main(["reproduce", "compartmental-25", "--outdir", str(tmp_path)])
    report = _report(capsys)
    assert rc == cli.EXIT_FACT_FAILED == 3
    assert report["all_passed"] is False
    assert [f["name"] for f in report["facts"]] == [f.name for f in facts + forced]
    assert all(f["passed"] for f in report["facts"][:5])
    assert [(f["passed"], f["detail"]) for f in report["facts"][5:]] == [
        (False, "forced failure"), (False, "raised ZeroDivisionError: division by zero")]
    assert report["files"] == [str(tmp_path / f"compartmental-25-{kind}.csv")
                               for kind in ("trajectory", "estimates")]
    assert all(os.path.exists(path) for path in report["files"])


def test_each_fact_fails_with_its_own_detail_on_another_model(monkeypatch):
    # two failure returns that no neighbouring model reaches, on nonsquare3
    model, noise, _ = df.reference_example("nonsquare3")
    assert registry._steady_state_fact(1, True, rho=0.5)(model, noise) == (
        False, "steady spectral radius 0.798346, expected 0.500000")
    passed, detail = registry._nonsquare12_gain_spectrum(model, noise)
    assert passed is False and detail.startswith("no value within 1.0e-06 of 0.8")
    # every example's facts checked on the next example's model, round the list:
    # a fact that does not hold says why, and one that crashes names the error
    ids = df.EXAMPLE_IDS
    builders = [registry._EXAMPLES[example][0] for example in ids]
    for i, example in enumerate(ids):
        facts = registry._EXAMPLES[example][1]
        monkeypatch.setitem(registry._EXAMPLES, example,
                            (builders[(i + 1) % len(ids)], facts))
    results = {(example, f.name): f for example in ids
               for f in df.check_example_facts(example)}
    held = sorted(key for key, f in results.items() if f.passed)
    raised = [f for f in results.values() if f.detail.startswith("raised ")]
    assert len(results) == 28
    assert held == [("minphase3", "delay-profile"), ("minphase3", "error-overlay")]
    assert len(raised) == 8
    assert all(re.fullmatch(r"raised [A-Z]\w+: .+", f.detail) for f in raised)


def test_unknown_flag_exits_1(model_file):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", model_file("minphase3"), "--bogus"])
    assert exc.value.code == 1


def test_import_skips_scipy_linalg():
    # numpy is the package's only runtime dependency, and importing
    # scipy.linalg costs more than the rest of the package
    src = os.path.dirname(os.path.dirname(df.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, delayfilter.cli; "
                           "print('scipy.linalg' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_analyze_and_reproduce_run_with_scipy_blocked(model_file, tmp_path):
    # nonsquare3's analyze and minphase3's steady-state fact both solve for a
    # steady-state covariance; with scipy unimportable they must still exit 0
    runs = [["analyze", model_file("nonsquare3", name="nonsquare3.json")],
            ["analyze", model_file("minphase3", name="minphase3.json")],
            ["reproduce", "minphase3", "--outdir", str(tmp_path / "out")]]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from delayfilter.cli import main\n"
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n")
    src = os.path.dirname(os.path.dirname(df.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0]


def _read_estimates(path):
    """(header, (T+1, n+p+l) array) with NaN for the empty warm-up fields."""
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [int(cells[0]) for cells in rows] == list(range(len(rows)))
    return lines[0], np.array([[float(c) if c else np.nan for c in cells[1:]]
                               for cells in rows])


def test_filter_known_inputs_matches_run_filter_and_step(tmp_path, capsys):
    base, _, _ = df.reference_example("compartmental-34")
    rng = np.random.default_rng(11)
    model = df.validate_model(base.A, base.H, base.C, B=rng.standard_normal((base.n, 1)),
                              D=rng.standard_normal((base.l, 1)))
    doc = {name: getattr(model, name).tolist() for name in "AHCBD"}
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    T = 300
    y = rng.standard_normal((T + 1, model.l))
    u = rng.standard_normal((T + 1, model.m))
    meas = tmp_path / "meas.csv"
    meas.write_text("k,y1,y2,u1\n" + "".join(
        f"{k}," + ",".join(map(repr, row)) + "\n"
        for k, row in enumerate(np.hstack([y, u]).tolist())))
    out = tmp_path / "est.csv"

    rc = main(["filter", str(model_path), str(meas), "--out", str(out)])
    report = _report(capsys)
    assert rc == 0
    assert report["delay"] == 2
    assert report["gain"]["frozen_at"] is None
    header, got = _read_estimates(out)
    assert header == ("k,xhat1,xhat2,xhat3,xhat4,xhat5,xhat6,ehat1,ehat2,"
                      "innov1,innov2")

    config = df.FilterConfig(r=2, gain_mode=df.FIXED_SQUARE,
                             initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    run = df.run_filter(model, None, config, y, u)
    want = np.hstack([run.state_estimates, run.input_estimates, run.innovations])
    assert np.array_equal(got, want, equal_nan=True)

    state = df.init_filter(model, None, config)
    for k in range(T + 1):
        state, step_out = df.step(state, model, None, y[k], u[k])
        if step_out is None:
            assert np.all(np.isnan(got[k]))
            continue
        stepped = np.concatenate([step_out.state_estimate, step_out.input_estimate,
                                  step_out.innovation])
        np.testing.assert_allclose(got[k], stepped, rtol=0, atol=1e-12)


def test_filter_reports_freeze_step(model_file, tmp_path, capsys):
    model, noise, _ = df.reference_example("nonsquare3")
    traj = df.simulate(model, noise, df.example_signals(model), 150, seed=5)
    meas = tmp_path / "meas.csv"
    df.write_trajectory(str(meas), traj)
    rc = main(["filter", model_file("nonsquare3", with_noise=True), str(meas),
               "--out", str(tmp_path / "est.csv")])
    report = _report(capsys)
    assert rc == 0
    assert report["gain"]["mode"] == "TimeVaryingMinVar"
    config = df.FilterConfig(r=report["delay"], gain_mode=df.TIME_VARYING_MINVAR,
                             initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    assert report["gain"]["frozen_at"] == df.run_filter(model, noise, config,
                                                        traj.y).frozen_at
    assert isinstance(report["gain"]["frozen_at"], int)
