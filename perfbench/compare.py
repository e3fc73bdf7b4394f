#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and report, per workload
and end-to-end metric, each set's median and quartile spread, and whether
the second median is within the metric's bound of the first.

    python3 perfbench/compare.py --runs 10                 # every workload
    python3 perfbench/compare.py --runs 5 --workload queries

Each run is `run.py --workload W --seed S --seconds <run_seconds> --trace 0`,
as BENCHMARK.json's command is run. Both sets use seeds 1..runs, and their
runs alternate: set one seed 1, set two seed 1, set one seed 2, and so on.
A metric passes when each set's spread (third minus first quartile, over
the median) is within its bound (setup_s excepted) and the second median
is not worse than the first by more than the bound. The share of failed
operations must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    args = parser.parse_args(argv)

    ok = True
    summary = {}
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        sets = [[], []]
        for seed in range(1, args.runs + 1):
            for s, results in enumerate(sets):
                results.append(one_run(workload, seed))
                values = " ".join(f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items())
                print(f"[{workload}] set {s + 1} seed {seed}: {values}", flush=True)
        runs = sets[0] + sets[1]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        print(f"[{workload}] correct={correct} failed shares={sorted(map(str, shares))}")
        summary[workload] = {}
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            (m1, s1), (m2, s2) = [summarize([r["metrics"][name]["value"] for r in results])
                                  for results in sets]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            passed = worse <= bound and (name == "setup_s" or max(s1, s2) <= bound)
            ok &= passed
            print(f"[{workload}]   {name:<12} bound {bound:.0%}  median {m1:.6g} spread {s1:.2%}  "
                  f"median {m2:.6g} spread {s2:.2%}  second worse by {worse:+.2%}  "
                  f"{'ok' if passed else 'OUT OF BOUND'}")
            summary[workload][name] = {"sets": [[m1, s1], [m2, s2]], "passed": passed}
    print(json.dumps({"passed": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
