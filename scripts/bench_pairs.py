#!/usr/bin/env python3
"""Paired perfbench runs of a parent commit and a change commit.

    python3 scripts/bench_pairs.py PARENT CHANGE --seeds 3641-3680 --seconds 20 \
        --workloads stream-minvar analyze cli-filter mc-square --out BENCH_<n>.json

Each commit is exported by `git archive` into its own temporary directory,
and `perfbench/run.py` runs there, so each side measures its own sources
with its own copy of the benchmark. The seeds are split into equal
consecutive blocks, one per workload in the order given. For each seed the
two sides run back to back, the parent first on even offsets from the
workload's first seed and the change first on odd ones. Children get the
caller's environment plus PYTHONDONTWRITEBYTECODE=1 and nothing else.

The output holds every run's JSON report and, per workload, each side's
median and quartiles (numpy's linear percentiles 25 and 75) of every
end-to-end metric in BENCHMARK.json, the number of pairs the change won
(ties count for neither side) and the attempted/failed counts. It also
holds both commits' line and code-line counts of src/delayfilter, as CI's
"Source size" step counts them. It is rewritten after every pair, so an
interrupted session keeps what it ran. --claim WORKLOAD:METRIC adds the
gain rule's verdict: the change better in at least nine tenths of the
pairs, and the medians further apart than the parent's quartiles.
--trace-seed adds one `--trace 1` run per side of the first workload, of
the same length.
Only the standard library is used.
"""

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {"PYTHONDONTWRITEBYTECODE": "1"}
SIDES = ("parent", "change")

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help="A-B or a comma list, split over the workloads")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="", help="what the change is, for the record")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--trace-seed", type=int)
    return parser.parse_args(argv)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(commit: str, into: Path) -> None:
    """The tree of commit, as `git archive` writes it, unpacked into `into`."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def sizes(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one module: code lines are neither blank, comment nor docstring."""
    source = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(source, str(path))):
        first = node.body[0] if isinstance(node, DOCUMENTED) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


def source_size(tree: Path) -> tuple[int, int]:
    rows = [sizes(p) for p in sorted((tree / "src" / "delayfilter").glob("*.py"))]
    return sum(r[0] for r in rows), sum(r[1] for r in rows)


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last line of one perfbench run in tree, as JSON."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, env={**os.environ, **ENV}, capture_output=True, text=True,
                          timeout=30 * seconds + 900)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed} exit {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    """Linear percentiles 25 and 75, as numpy's default computes them."""
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: list[dict], workload: str, seeds: list[int], better: dict) -> dict:
    by = {(r["side"], r["seed"]): r["report"] for r in runs if r["workload"] == workload}
    done = [s for s in seeds if all((side, s) in by for side in SIDES)]
    summary = {"pairs": len(done), "seeds": done,
               "correct": all(by[side, s]["correct"] for side in SIDES for s in done),
               "attempted_failed": {side: sorted({(by[side, s]["attempted"], by[side, s]["failed"])
                                                  for s in done}) for side in SIDES}}
    if len(done) < 2:
        return summary
    for metric, direction in better.items():
        values = {side: [by[side, s]["metrics"][metric]["value"] for s in done] for side in SIDES}
        sign = 1 if direction == "higher" else -1
        med = {side: statistics.median(values[side]) for side in SIDES}
        summary[metric] = {
            "parent_median": med["parent"], "parent_quartiles": quartiles(values["parent"]),
            "change_median": med["change"], "change_quartiles": quartiles(values["change"]),
            "change_pct": 100.0 * (med["change"] / med["parent"] - 1.0),
            "change_better_pairs": sum(sign * (c - p) > 0
                                       for p, c in zip(values["parent"], values["change"]))}
    return summary


def verdict(summary: dict, metric: str, direction: str) -> dict:
    """The gain rule on one workload's metric: 9 of 10 pairs, and a gain above the parent's IQR."""
    m, sign = summary[metric], 1 if direction == "higher" else -1
    gap = sign * (m["change_median"] - m["parent_median"])
    iqr = m["parent_quartiles"][1] - m["parent_quartiles"][0]
    return {"metric": metric, "better_pairs": m["change_better_pairs"], "pairs": summary["pairs"],
            "median_gap": gap, "parent_iqr": iqr,
            "met": 10 * m["change_better_pairs"] >= 9 * summary["pairs"] and gap > iqr}


def main(argv=None) -> int:
    args = parse_args(argv)
    seeds = seed_list(args.seeds)
    if len(seeds) % len(args.workloads):
        raise SystemExit("the seeds must split evenly over the workloads")
    per = len(seeds) // len(args.workloads)
    plan = {w: seeds[i * per:(i + 1) * per] for i, w in enumerate(args.workloads)}
    commits = {"parent": git("rev-parse", "--short", args.parent),
               "change": git("rev-parse", "--short", args.change)}
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        config = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in config["end_to_end"]}
        size = {side: source_size(trees[side]) for side in SIDES}
        record = {
            "what": args.what,
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} "
                       "--trace 0",
            "machine": f"{platform.platform()}, {os.cpu_count()} CPUs, Python "
                       f"{platform.python_version()}, numpy {numpy}",
            "pairing": "each pair runs parent and change back to back on one seed, each from its own "
                       "directory (a git archive of each commit); which side runs first alternates, "
                       "the parent first on even offsets from a workload's first seed. Quartiles are "
                       "numpy's linear percentiles 25 and 75.",
            "env": ENV,
            "commits": commits,
            "seeds": plan,
            "src_delayfilter_lines": {side: size[side][0] for side in SIDES},
            "src_delayfilter_code_lines": {side: size[side][1] for side in SIDES},
            "summary": {}, "runs": []}

        def save():
            for w in plan:
                record["summary"][w] = summarize(record["runs"], w, plan[w], better)
            if args.claim:
                w, metric = args.claim.split(":")
                summary = record["summary"][w]
                record["claim"] = {"workload": w, **(verdict(summary, metric, better[metric])
                                                     if metric in summary else {})}
            args.out.write_text(json.dumps(record, indent=1) + "\n")

        for w, ws in plan.items():
            for offset, seed in enumerate(ws):
                order = SIDES if offset % 2 == 0 else SIDES[::-1]
                for i, side in enumerate(order):
                    report = bench(trees[side], w, seed, args.seconds, 0)
                    record["runs"].append({"side": side, "workload": w, "seed": seed,
                                           "ran_first": i == 0, "env": ENV, "report": report})
                    print(f"{w} seed {seed} {side}: "
                          f"{json.dumps({k: v['value'] for k, v in report['metrics'].items()})}",
                          flush=True)
                save()
        if args.trace_seed is not None:
            w = args.workloads[0]
            record["traced_runs"] = {"workload": w, "seed": args.trace_seed,
                                     "seconds": args.seconds}
            for side in SIDES:
                record["traced_runs"][side] = bench(trees[side], w, args.trace_seed,
                                                    args.seconds, 1)
                save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
