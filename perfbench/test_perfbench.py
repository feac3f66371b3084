"""Tests of the benchmark itself: metric coverage and failure counting.

Run with `python -m pytest perfbench`. The smoke runs use small inputs
and a short loop, so they check shape and accounting, not speed.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
from workloads import Analyze, CliFilter, McSquare, StreamMinvar, Tally, child_env  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small(workdir: Path, seed: int = 5):
    return [CliFilter(workdir, seed, run.SRC, rows=400),
            McSquare(workdir, seed, run.SRC, trials=25),
            StreamMinvar(workdir, seed, run.SRC, pool=2),
            Analyze(workdir, seed, run.SRC, pool=12, per_op=2)]


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


def test_workload_names_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} == \
        {"cli-filter", "mc-square", "stream-minvar", "analyze"}


def test_smoke_end_to_end_metrics_present(tmp_path, quick):
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for work in small(tmp_path):
        tally = Tally()
        metrics, details = run.end_to_end(work, tally, 0.01, child_env(run.SRC))
        assert {k: u for k, (v, u) in metrics.items()} == want, work.name
        assert all(v > 0 for v, u in metrics.values()), work.name
        assert details and tally.attempted >= 1 and not tally.unexpected(), work.name


def test_counts_depend_on_the_seed_not_the_run_length(tmp_path, quick):
    counts = []
    for seconds in (0.01, 0.5):
        (tmp_path / str(seconds)).mkdir()
        for work in small(tmp_path / str(seconds)):
            tally = Tally()
            run.end_to_end(work, tally, seconds, child_env(run.SRC))
            counts.append((work.name, tally.attempted, tally.failed))
    assert counts[:4] == counts[4:]
    assert dict((n, (a, f)) for n, a, f in counts[:4])["stream-minvar"] == (4, 2)


def test_smoke_traced_metrics_present(tmp_path, quick):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    everyone = small(tmp_path)
    tally = Tally()
    metrics, _ = run.traced(everyone[2], everyone, tally, 0.01, child_env(run.SRC))
    assert {k: u for k, (v, u) in metrics.items()} == want
    assert not tally.unexpected()


def test_perturbed_estimates_count_as_failed(tmp_path):
    work = CliFilter(tmp_path, 7, run.SRC, rows=300)
    tally = Tally()
    work.op(tally, in_process=True)
    assert (tally.attempted, tally.failed) == (1, 0)

    lines = work.est_path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    work.est_path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    tally.record(work.key, *work.check(0, ""))
    assert (tally.attempted, tally.failed, tally.executions) == (1, 1, 2)
    assert tally.unexpected() == ["cli state error"]

    work.est_path.write_text("\n".join(lines[:-1]) + "\n")    # a row missing
    tally.record(work.key, *work.check(0, ""))
    assert tally.reasons["cli estimates shape"] == 1


def test_perturbed_session_output_counts_as_failed(tmp_path):
    work = StreamMinvar(tmp_path, 7, run.SRC, pool=1)
    x, y, e = work.trajs[0]
    r = 1
    rows = [(k, np.concatenate([x[k - r], e[k - r - 1]])) for k in range(r + 1, work.STEPS)]
    tally = Tally()
    tally.record("good", *work.check(rows, x, e, r))
    bad = list(rows)
    k, f = bad[-1]
    bad[-1] = (k, f + np.r_[np.zeros(work.model.n), 1e-6 * np.ones(work.model.p)])
    tally.record("perturbed", *work.check(bad, x, e, r))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.unexpected() == ["stream r=1 input error"]


def test_unexpected_failure_makes_the_run_incorrect():
    tally = Tally()
    tally.record((2, 0), "stream r=2 input error", "known")
    assert run.report("x", {}, {}, {}, tally)["correct"] is True
    tally.record("filter", "cli exit 1", "new")
    assert run.report("x", {}, {}, {}, tally)["correct"] is False


def test_reference_minimal_delay_matches_known_models():
    import delayfilter as df
    want = {"compartmental-25": 1, "compartmental-34": 2, "nonsquare3": 1,
            "nonsquare12": 1, "invertibility4": None}
    for example, delay in want.items():
        model, _, _ = df.reference_example(example)
        assert inputs.minimal_delay(model.A, model.H, model.C) == delay, example


def test_crashing_operation_counts_as_failed():
    class Crashing:
        name = "crashing"

        def op(self, tally, in_process=False):
            raise ValueError("boom")

    tally = Tally()
    assert run.attempt(Crashing(), tally) is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.unexpected() == ["crashing raised ValueError"]
