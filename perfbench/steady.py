"""Steadiness mode: repeat workloads over seeds and summarise each metric.

Run from the root of a checkout::

    python3 perfbench/steady.py --workloads anbn-sweep,oracle --seeds 0-9

Each (workload, seed) pair is one ``run.py`` process, run one after another.
For every end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to a third of
the metric's bound in ``BENCHMARK.json``.  ``--against`` compares the
medians with an earlier summary file and flags any that worsened by more
than the bound.  ``--write-digests`` stores each seed's verdict digest and
tick count in ``perfbench/digests.json``, which later runs check against.
Summaries go to ``perfbench/out/steady_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"BENCH_{workload}_{seed}_{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return {"line": line, "record": record}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", help="earlier summary file to compare medians with")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    worst = 0

    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        bad = [seed for seed, r in zip(seeds, runs) if not r["line"]["correct"]]
        metrics = runs[0]["line"]["metrics"]
        summary = {
            "workload": workload,
            "seeds": seeds,
            "seconds": args.seconds,
            "trace": args.trace,
            "incorrect_seeds": bad,
            "attempted": [r["line"]["attempted"] for r in runs],
            "environment": runs[0]["record"]["environment"],
            "metrics": {
                name: {"unit": metrics[name]["unit"], **summarise([r["line"]["metrics"][name]["value"] for r in runs])}
                for name in metrics
            },
        }
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"steady_{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
        earlier = None
        if args.against:
            with open(args.against.replace("{workload}", workload), encoding="utf-8") as fh:
                earlier = json.load(fh)["metrics"]

        print(f"== {workload}: seeds {args.seeds}, {args.seconds} s, incorrect seeds {bad or 'none'}")
        print(f"   attempted per run: {summary['attempted']}")
        for name, s in summary["metrics"].items():
            line = f"   {name:28s} median {s['median']:>14.6g} {s['unit']:6s} q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} spread {s['spread']:7.2%}"
            if name in bounds:
                bound, better = bounds[name]
                steady = s["spread"] <= bound / 3
                line += f"  bound/3 {bound / 3:6.2%} {'ok' if steady or name == 'setup_s' else 'TOO WIDE'}"
                worst |= not steady and name != "setup_s"
                if earlier is not None:
                    before = earlier[name]["median"]
                    change = (s["median"] - before) / before
                    worse = change > bound if better == "lower" else -change > bound
                    line += f"  vs earlier {change:+7.2%} {'WORSE' if worse else 'ok'}"
                    worst |= worse
            print(line)
        if bad:
            worst = 1
        if args.write_digests and not bad:
            path = os.path.join(HERE, "digests.json")
            try:
                with open(path, encoding="utf-8") as fh:
                    digests = json.load(fh)
            except FileNotFoundError:
                digests = {}
            entry = digests.setdefault(workload, {})
            for seed, r in zip(seeds, runs):
                entry[str(seed)] = {"digest": r["record"]["digest"], "ticks": r["record"]["check_ticks"]}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
