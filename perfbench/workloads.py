"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop in one process: `op()` runs one unit of
work, checks its output against the benchmark's own reference, records
the outcome in a Tally and returns an OpTime. Nothing here starts a
thread; `cli-filter` starts one child process per operation and waits
for it. `op(in_process=True)` makes `cli-filter` call the CLI in this
process instead, for traced runs; the other workloads always run here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import delayfilter as df
from delayfilter import cli

import inputs

HERE = Path(__file__).resolve().parent
TOL = 1e-8                       # noiseless reconstruction error allowed

# Failures known at the commit that introduced the benchmark. They are
# counted in `failed` like any other, but do not make a run incorrect.
KNOWN_FAILURES = {
    "stream r=2 input error":
        "step decodes the input with (CA^rH)^+ although lower Markov blocks "
        "are nonzero at r=2 (ROADMAP open item 1)",
    "analyze exit 1: InnovationCovarianceSingular":
        "steady_state_gain raises instead of reporting non-convergence "
        "(ROADMAP open item 1)",
}

# The child measures the machine's slowdown itself, right before and after
# the command, because the parent's measurement does not track the core
# the child runs on.
CLI_SNIPPET = """
import sys
sys.path.insert(0, sys.argv.pop(1))
import calibration
before = calibration.slowdown()
from delayfilter.cli import main
code = main()
print("slowdown", before, calibration.slowdown(), file=sys.stderr)
sys.exit(code)
"""


@dataclass
class Tally:
    """Outcome of every distinct operation, with a count and an example per reason.

    An operation is one checked input: the estimates of the filter run,
    a model file given to `analyze`, an example given to `reproduce`, a
    session's delay and trajectory. `attempted` and `failed` count these,
    and an operation has failed when any of its executions failed. Every
    run first executes its whole seeded set once, so both counts depend
    on the seed alone and not on how many times the timed loop repeats
    an operation. `executions` and `reasons` count every execution.
    """

    outcomes: dict = field(default_factory=dict)    # key -> first failure reason, or None
    executions: int = 0
    reasons: Counter = field(default_factory=Counter)
    examples: dict = field(default_factory=dict)

    def record(self, key, reason: str | None, detail: str = "") -> None:
        self.executions += 1
        if reason is None:
            self.outcomes.setdefault(key, None)
            return
        self.reasons[reason] += 1
        self.examples.setdefault(reason, detail)
        if self.outcomes.get(key) is None:
            self.outcomes[key] = reason

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(reason is not None for reason in self.outcomes.values())

    def unexpected(self) -> list[str]:
        return sorted(r for r in self.reasons if r not in KNOWN_FAILURES)


@dataclass
class OpTime:
    elapsed: float               # seconds of measured work in the operation
    units: int                   # work units it completed (rows, trials, steps, calls)
    latencies: np.ndarray        # per-unit or per-call latencies in seconds
    parts: dict = field(default_factory=dict)   # named sub-timings in seconds
    slowdown: float | None = None               # measured inside the operation

    def __post_init__(self):
        # an array, not a list of floats: a long run keeps every latency,
        # and that must not show in the peak RSS of the workload
        self.latencies = np.asarray(self.latencies, dtype=float)

    def scaled(self, slowdown: float) -> "OpTime":
        """The same timings divided by the machine slowdown at the time."""
        return OpTime(self.elapsed / slowdown, self.units, self.latencies / slowdown,
                      {k: [v / slowdown for v in vs] for k, vs in self.parts.items()})


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def call_cli(argv):
    """In-process `delayfilter.cli.main(argv)`: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def max_errors(rows, x, e, r: int, n: int, p: int):
    """(state, input) max |error| over emitted rows; rows are (k, fields).

    Row k estimates x[k-r] and reconstructs e[k-r-1].
    """
    ks = np.array([k for k, f in rows])
    est = np.array([f for k, f in rows])
    state = float(np.max(np.abs(x[ks - r] - est[:, :n])))
    inp = float(np.max(np.abs(e[ks - r - 1] - est[:, n:n + p])))
    return state, inp


def throughput(ops) -> float:
    """Units of work per second of measured time."""
    return sum(o.units for o in ops) / sum(o.elapsed for o in ops)


def all_latencies(ops) -> np.ndarray:
    return np.concatenate([o.latencies for o in ops])


class CliFilter:
    """`delayfilter filter` over a 20,000-row noiseless trajectory.

    compartmental-34 (n=6, p=l=2, minimal delay 2, square gain) plus one
    known-input channel, so the u paths of `step` and the CSV reader run.
    """

    name = "cli-filter"
    unit = "rows"
    cycle = 1
    cover = 1                    # operations that execute the whole seeded set
    key = "filter"

    def __init__(self, workdir: Path, seed: int, src: Path, rows: int = 20000):
        rng = np.random.default_rng([seed, 1])
        model, _, _ = df.reference_example("compartmental-34")
        A, H, C = np.array(model.A), np.array(model.H), np.array(model.C)
        B = rng.standard_normal((model.n, 1))
        D = rng.standard_normal((model.l, 1))
        self.e = rng.standard_normal((rows, model.p))
        u = rng.standard_normal((rows, 1))
        self.x, y = inputs.trajectory(A, H, C, self.e, B, D, u)
        self.n, self.p, self.rows = model.n, model.p, rows
        self.delay = inputs.minimal_delay(A, H, C)
        self.model_path = workdir / "cli-model.json"
        self.meas_path = workdir / "cli-meas.csv"
        self.est_path = workdir / "cli-est.csv"
        inputs.write_model(self.model_path, A, H, C, B, D)
        inputs.write_measurements(self.meas_path, y, u)
        self.model_files = [self.model_path]
        self.env = child_env(src)
        self.argv = ["filter", str(self.model_path), str(self.meas_path),
                     "--out", str(self.est_path)]

    def op(self, tally: Tally, in_process: bool = False) -> OpTime:
        self.est_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        if in_process:
            code, stdout, stderr = call_cli(self.argv)
        else:
            proc = subprocess.run([sys.executable, "-c", CLI_SNIPPET, str(HERE)] + self.argv,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=150)
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        dt = time.perf_counter() - t0
        slowdown, lines = None, stderr.splitlines()
        if lines and lines[-1].startswith("slowdown "):
            slowdown = statistics.mean(float(v) for v in lines.pop().split()[1:])
            stderr = "\n".join(lines)
        tally.record(self.key, *self.check(code, stderr))
        return OpTime(dt, self.rows, [dt], slowdown=slowdown)

    def check(self, code: int, stderr: str):
        if code != 0:
            return f"cli exit {code}", stderr.strip()[-200:]
        if not self.est_path.exists():
            return "cli wrote no estimates", ""
        return self.check_estimates(self.est_path)

    def check_estimates(self, path: Path):
        header, rows = inputs.read_estimates(path)
        if len(header) != 1 + self.n + self.p + 2 or len(rows) != self.rows:
            return "cli estimates shape", f"{len(header)} columns, {len(rows)} rows"
        r = self.delay
        if [k for k, f in rows] != list(range(self.rows)) or \
                any((f is None) != (k <= r) for k, f in rows):
            return "cli estimates rows", "k column or warm-up window wrong"
        state, inp = max_errors([row for row in rows if row[1] is not None],
                                self.x, self.e, r, self.n, self.p)
        if state > TOL:
            return "cli state error", f"max |x - xhat| = {state:.3e}"
        if inp > TOL:
            return "cli input error", f"max |e - ehat| = {inp:.3e}"
        return None, ""

    def details(self, ops: list[OpTime]) -> dict:
        return {"cli_rows_per_s": (throughput(ops), "1/s"),
                "invocations": (len(ops), "count")}


class McSquare:
    """`monte_carlo_bias` on acceptance criterion 8's configuration.

    compartmental-25, FixedSquare, r=1, Q=R=1e-4 I, T=200,
    ks=(50, 100, 200), called in batches of `trials` trials.
    """

    name = "mc-square"
    unit = "trials"
    cycle = 1
    cover = 1
    key = "batch"

    def __init__(self, workdir: Path, seed: int, src: Path, trials: int = 20):
        self.model, _, _ = df.reference_example("compartmental-25")
        n, l = self.model.n, self.model.l
        self.noise = df.NoiseSpec(Q=1e-4 * np.eye(n), R=1e-4 * np.eye(l))
        self.config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE,
                                      initial_estimate=np.zeros(n),
                                      initial_covariance=np.eye(n))
        self.signals = df.example_signals(self.model)
        self.seed, self.trials, self.calls, self.batches = seed, trials, 0, []
        model_path = workdir / "mc-model.json"
        inputs.write_model(model_path, self.model.A, self.model.H, self.model.C)
        self.model_files = [model_path]

    def op(self, tally: Tally, in_process: bool = True) -> OpTime:
        t0 = time.perf_counter()
        report = df.monte_carlo_bias(self.model, self.noise, self.config, self.signals,
                                     trials=self.trials, T=200,
                                     seed=[self.seed, self.calls],
                                     ks=(50, 100, 200))
        dt = time.perf_counter() - t0
        self.calls += 1
        if report.trials != self.trials or not np.all(np.isfinite(report.mean)):
            tally.record(self.key, "mc report malformed", f"trials {report.trials}")
        else:
            tally.record(self.key, None)
            self.batches.append(report)
        return OpTime(dt, self.trials, [dt])

    def finish(self, tally: Tally) -> None:
        """Pool every batch and apply the library's 4-sigma flag once.

        Flagging each small batch would raise false alarms at a rate
        that grows with the run length; the pooled test sees every trial.
        """
        if len(self.batches) < 2:
            tally.record("pooled flag", "mc too few batches", f"{len(self.batches)} batches")
            return
        means = np.array([b.mean for b in self.batches])
        var = np.array([(b.stderr ** 2) * b.trials for b in self.batches])
        t = self.trials
        total = t * len(self.batches)
        mean = means.mean(axis=0)
        pooled = ((t - 1) * var.sum(axis=0) + t * ((means - mean) ** 2).sum(axis=0)) / (total - 1)
        flagged = np.abs(mean) > 4.0 * np.sqrt(pooled / total)
        tally.record("pooled flag", "mc component flagged" if flagged.any() else None,
                     f"{int(flagged.sum())} of {flagged.size} over {total} trials")

    def details(self, ops: list[OpTime]) -> dict:
        return {"mc_trials_per_s": (throughput(ops), "1/s"),
                "batches": (len(ops), "count")}


class StreamMinvar:
    """Streaming sessions on nonsquare3 in TimeVaryingMinVar mode.

    Sessions alternate r=1 and r=2; each is init_filter plus 201
    individually timed step calls on a noiseless trajectory. A cycle
    runs every trajectory of the pool at both delays.
    """

    name = "stream-minvar"
    unit = "steps"
    STEPS = 201

    def __init__(self, workdir: Path, seed: int, src: Path, pool: int = 8):
        self.model, self.noise, _ = df.reference_example("nonsquare3")
        rng = np.random.default_rng([seed, 3])
        A, H, C = np.array(self.model.A), np.array(self.model.H), np.array(self.model.C)
        self.trajs = []
        for _ in range(pool):
            e = rng.standard_normal((self.STEPS, self.model.p))
            x, y = inputs.trajectory(A, H, C, e)
            self.trajs.append((x, y, e))
        self.sessions = 0
        self.cycle = self.cover = 2 * pool
        model_path = workdir / "stream-model.json"
        inputs.write_model(model_path, A, H, C)
        self.model_files = [model_path]

    def op(self, tally: Tally, in_process: bool = True) -> OpTime:
        r, i = 1 + self.sessions % 2, (self.sessions // 2) % len(self.trajs)
        x, y, e = self.trajs[i]
        self.key = (r, i)
        self.sessions += 1
        n = self.model.n
        config = df.FilterConfig(r=r, gain_mode=df.TIME_VARYING_MINVAR,
                                 initial_estimate=np.zeros(n),
                                 initial_covariance=np.eye(n))
        perf = time.perf_counter
        t0 = perf()
        state = df.init_filter(self.model, self.noise, config)
        init = perf() - t0
        lat, rows = [], []
        for k in range(self.STEPS):
            t0 = perf()
            state, out = df.step(state, self.model, self.noise, y[k])
            lat.append(perf() - t0)
            if out is not None:
                rows.append((out.k, np.concatenate([out.state_estimate, out.input_estimate])))
        tally.record(self.key, *self.check(rows, x, e, r))
        return OpTime(init + sum(lat), self.STEPS, lat, {"init": [init]})

    def check(self, rows, x, e, r):
        if [k for k, f in rows] != list(range(r + 1, self.STEPS)):
            return f"stream r={r} emitted rows", f"{len(rows)} estimates"
        state, inp = max_errors(rows, x, e, r, self.model.n, self.model.p)
        if state > TOL:
            return f"stream r={r} state error", f"max |x - xhat| = {state:.3e}"
        if inp > TOL:
            return f"stream r={r} input error", f"max |e - ehat| = {inp:.3e}"
        return None, ""

    def details(self, ops: list[OpTime]) -> dict:
        lat = all_latencies(ops)
        return {"step_p50_us": (1e6 * float(np.percentile(lat, 50)), "us"),
                "step_p99_us": (1e6 * float(np.percentile(lat, 99)), "us"),
                "step_samples": (len(lat), "count"),
                "session_init_p50_ms": (1e3 * statistics.median(
                    o.parts["init"][0] for o in ops), "ms"),
                "sessions": (len(ops), "count")}


class Analyze:
    """In-process `analyze` and `reproduce` through `delayfilter.cli.main`.

    The first `cover` operations analyze every model file of the seeded
    set, ten at a time, then reproduce each example once. After that,
    operations alternate: `analyze` on the next `per_op` random models
    and on one reference model, then `reproduce` on one example. A cycle
    of 14 operations covers each of the seven reference models and
    examples once. Random models are drawn with n = 3..12, alternating
    square and non-square, so both the Riccati-heavy and the
    rank/zeros-heavy paths carry weight in every cycle.
    """

    name = "analyze"
    unit = "calls"
    cycle = 2 * len(df.EXAMPLE_IDS)
    PASS_CHUNK = 10

    def __init__(self, workdir: Path, seed: int, src: Path,
                 pool: int = 800, per_op: int = 4):
        rng = np.random.default_rng([seed, 4])
        self.outdir = workdir / "reproduce"
        self.random, self.reference, self.expected = [], [], {}
        for i in range(pool):
            A, H, C = inputs.random_model(rng, 3 + i % 10, square=(i // 10) % 2 == 0)
            self.random.append(self._write(workdir / f"random-{i:04d}.json", A, H, C))
        for example in df.EXAMPLE_IDS:
            model, _, _ = df.reference_example(example)
            self.reference.append(self._write(workdir / f"{example}.json",
                                              model.A, model.H, model.C))
        self.model_files = self.random + self.reference
        files = self.model_files
        self.first_pass = [("analyze", files[i:i + self.PASS_CHUNK])
                           for i in range(0, len(files), self.PASS_CHUNK)]
        self.first_pass += [("reproduce", example) for example in df.EXAMPLE_IDS]
        self.cover = len(self.first_pass)
        self.per_op, self.ops = per_op, 0

    def _write(self, path: Path, A, H, C) -> str:
        inputs.write_model(path, A, H, C)
        self.expected[str(path)] = inputs.minimal_delay(np.asarray(A), np.asarray(H),
                                                        np.asarray(C))
        return str(path)

    def next_op(self):
        """(command, argument) of the next operation."""
        turn, self.ops = self.ops, self.ops + 1
        if turn < self.cover:
            return self.first_pass[turn]
        turn -= self.cover
        example = df.EXAMPLE_IDS[(turn // 2) % len(df.EXAMPLE_IDS)]
        if turn % 2:
            return "reproduce", example
        first = (turn // 2) * self.per_op
        paths = [self.random[(first + i) % len(self.random)] for i in range(self.per_op)]
        return "analyze", paths + [self.reference[df.EXAMPLE_IDS.index(example)]]

    def op(self, tally: Tally, in_process: bool = True) -> OpTime:
        command, arg = self.next_op()
        if command == "reproduce":
            self.key = ("reproduce", arg)
            t0 = time.perf_counter()
            code, stdout, stderr = call_cli(["reproduce", arg, "--outdir", str(self.outdir)])
            dt = time.perf_counter() - t0
            ok = code == 0 and json.loads(stdout)["all_passed"]
            tally.record(self.key, None if ok else f"reproduce {arg} exit {code}",
                         stderr.strip()[-200:])
            return OpTime(dt, 1, [dt], {"reproduce": [dt]})
        lat = []
        for path in arg:
            self.key = ("analyze", Path(path).name)
            t0 = time.perf_counter()
            code, stdout, stderr = call_cli(["analyze", path])
            lat.append(time.perf_counter() - t0)
            tally.record(self.key, *self.check_analyze(path, code, stdout, stderr))
        return OpTime(sum(lat), len(lat), lat, {"analyze": lat})

    def check_analyze(self, path: str, code: int, stdout: str, stderr: str):
        expected = self.expected[path]
        if code == 1:
            kind = stderr.replace("delayfilter: ", "").split(":")[0].strip()
            return f"analyze exit 1: {kind}", f"{Path(path).name}: {stderr.strip()[-200:]}"
        want = 2 if expected is None else 0
        if code != want:
            return f"analyze exit {code}, expected {want}", Path(path).name
        got = json.loads(stdout)["delay_analysis"]["minimal_delay"]
        if got != expected:
            return "analyze minimal delay", f"{Path(path).name}: {got}, expected {expected}"
        return None, ""

    def details(self, ops: list[OpTime]) -> dict:
        analyze = [v for o in ops for v in o.parts.get("analyze", ())]
        reproduce = [v for o in ops for v in o.parts.get("reproduce", ())]
        per_cycle = len(df.EXAMPLE_IDS)
        totals = [sum(reproduce[i:i + per_cycle])
                  for i in range(0, len(reproduce) - per_cycle + 1, per_cycle)]
        return {"analyze_per_s": (len(analyze) / sum(analyze), "1/s"),
                "reproduce_all_s": (statistics.median(totals) if totals else float("nan"), "s"),
                "cycles": (len(totals), "count")}


WORKLOADS = {w.name: w for w in (CliFilter, McSquare, StreamMinvar, Analyze)}
