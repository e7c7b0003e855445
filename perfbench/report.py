"""Steadiness report: repeated runs of every workload, median and quartiles.

    python3 perfbench/report.py --repeat-seeds 0,1 --repeats 10 \
        --seed-range 100:110 --markdown perfbench/STEADINESS.md

Each group is ten or more untraced runs: one group per repeated seed (the
same inputs every run, so only the machine varies) and one group over
distinct seeds (what the acceptance check sees).  Workloads are interleaved
run by run so slow phases of a shared machine spread over all of them.
For each end-to-end metric it prints the median, the quartiles and the
quartile spread as a share of the median, against a third of the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs, bounds):
    """Rows of (metric, unit, median, q1, q3, spread, limit) for one group."""
    rows = []
    units = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
    units["fail_frac"] = "frac"
    fail = [r["failed"] / r["attempted"] for r in runs]
    for name, unit in units.items():
        vals = fail if name == "fail_frac" else \
            [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        rows.append((name, unit, med, q1, q3, spread,
                     None if bound is None else bound / 3.0))
    return rows


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeat-seeds", default="0,1",
                   help="comma-separated seeds, each run --repeats times")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed-range", default="",
                   help="lo:hi, one run per seed in [lo, hi)")
    p.add_argument("--markdown", help="write the tables here")
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    groups = {f"seed {s} x{args.repeats}": [int(s)] * args.repeats
              for s in filter(None, args.repeat_seeds.split(","))}
    if args.seed_range:
        lo, hi = map(int, args.seed_range.split(":"))
        groups[f"seeds {lo}..{hi - 1}"] = list(range(lo, hi))

    raw = {g: {w: [] for w in workloads} for g in groups}
    for group, seeds in groups.items():
        for i, seed in enumerate(seeds):
            for w in workloads:
                res = run_once(w, seed, seconds)
                raw[group][w].append(res)
                print(f"{group} run {i} {w}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                    + f", failed={res['failed']}/{res['attempted']}",
                    file=sys.stderr, flush=True)

    lines = [f"run_seconds {seconds}; spread = (q3 - q1) / median; "
             "limit = bound / 3", ""]
    for group in groups:
        for w in workloads:
            lines += [f"### {w}, {group}", "",
                      "| metric | unit | median | q1 | q3 | spread | limit |",
                      "|---|---|---|---|---|---|---|"]
            for name, unit, med, q1, q3, spread, limit in summarize(
                    raw[group][w], bounds):
                lim = "" if limit is None else f"{limit:.3f}"
                lines.append(f"| {name} | {unit} | {med:.4g} | {q1:.4g} "
                             f"| {q3:.4g} | {spread:.3f} | {lim} |")
            lines.append("")
    text = "\n".join(lines)
    print(text)
    if args.markdown:
        Path(args.markdown).write_text(text)


if __name__ == "__main__":
    main()
