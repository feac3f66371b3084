#!/usr/bin/env python3
"""numpy.linalg calls by function, per `analyze` call and per warm Monte Carlo batch.

    python3 scripts/lapack_calls.py [--seed 5]

Builds the benchmark's `analyze` pool of the seed (perfbench's Analyze
workload: 800 random models and the seven examples), then wraps every
numpy.linalg function that src/delayfilter calls with a counter and runs
`analyze` on each file of the pool, one `cli.main` call each, in this one
process, so the memos fill as they do in a long run. Then it runs
acceptance criterion 8's `monte_carlo_bias` batch once, to fill the plan
and noise-factor memos, and counts a second batch. It prints one markdown
table: the calls per `analyze` call and per warm batch, by function.
"""

import argparse
import collections
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np                      # noqa: E402

import delayfilter as df                # noqa: E402
from delayfilter import cli             # noqa: E402
import workloads                        # noqa: E402


def called_functions() -> list[str]:
    """The numpy.linalg functions the package's modules call, by name."""
    found = set()
    for path in (ROOT / "src" / "delayfilter").glob("*.py"):
        found.update(re.findall(r"np\.linalg\.(\w+)\(", path.read_text(encoding="utf-8")))
    return sorted(found)


def counting(names: list[str]) -> collections.Counter:
    """Wrap each numpy.linalg function of names so that its calls count in the returned Counter."""
    calls = collections.Counter()
    for name in names:
        def counted(*args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        setattr(np.linalg, name, counted)
    return calls


def criterion_8():
    """A function that runs acceptance criterion 8's batch on one (model, noise, config)."""
    model, _, _ = df.reference_example("compartmental-25")
    noise = df.NoiseSpec(Q=1e-4 * np.eye(model.n), R=1e-4 * np.eye(model.l))
    config = df.FilterConfig(r=1, gain_mode=df.FIXED_SQUARE, initial_estimate=np.zeros(model.n),
                             initial_covariance=np.eye(model.n))
    signals = df.example_signals(model)
    return lambda: df.monte_carlo_bias(model, noise, config, signals, trials=1000, T=200,
                                       seed=0, ks=(50, 100, 200))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5, help="the analyze pool's seed")
    seed = parser.parse_args(argv).seed
    names = called_functions()
    with tempfile.TemporaryDirectory() as workdir:
        files = workloads.Analyze(Path(workdir), seed, ROOT / "src").model_files
        calls = counting(names)
        for path in files:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(["analyze", path])
    analyze = dict(calls)
    batch = criterion_8()
    batch()
    calls.clear()
    batch()
    columns = [(f"per analyze call (seed-{seed} pool, {len(files)} calls)",
                {name: count / len(files) for name, count in analyze.items()}),
               ("per warm criterion-8 batch", dict(calls))]
    print("| numpy.linalg | " + " | ".join(title for title, _ in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for name in names + ["total"]:
        cells = [sum(counts.values()) if name == "total" else counts.get(name, 0)
                 for _, counts in columns]
        print(f"| {name} | " + " | ".join(f"{c:.2f}" for c in cells) + " |")


if __name__ == "__main__":
    main()
