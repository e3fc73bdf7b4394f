#!/usr/bin/env python3
"""One-command benchmark of divmono: the cold five tables, and a closed
loop of single CLI verdicts and curve scans, each checked against the
published tables and an independent reference.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload queries --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout. Each workload runs in a fresh
interpreter, one process and one thread, with DIVMONO_THREADS unset. The
last line of standard output is one JSON object; with --workload it holds
correct, attempted, failed and metrics (the end-to-end metrics untraced,
the per-layer ones with --trace 1), as BENCHMARK.json names them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None
WORKLOADS = ("tables", "queries")
SETUP_RUNS = 21
# A run must end within 180 s. The worker interrupts the running call at
# its deadline and counts the calls of the first round that did not finish
# as failed; the timeout only stops a worker stuck in C code.
WORKER_DEADLINE_S = 140
WORKER_TIMEOUT_S = 165
# per-layer metric suffix -> the tracer's field
FIELD_ALIASES = {"supply_bits": "bits"}
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import divmono.cli\n"
    "divmono.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def child_env() -> dict:
    """The environment of a fresh divmono process: the source tree on the
    path, no thread knob, and CPython's default int-to-str limit."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("DIVMONO_THREADS", "PYTHONINTMAXSTRDIGITS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(), "git_sha": sha}


def setup_times(runs: int) -> list[float]:
    """Import divmono and build the CLI parser in fresh interpreters. One
    more runs first and is dropped: it may have to write bytecode caches."""
    times = []
    for _ in range(runs + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout))
    return times[1:]


def run_worker(wl: workloads.Workload, seconds: float, trace: bool) -> dict:
    # a workload whose round is one request makes one request per run
    job = {"ops": [op.argv for op in wl.ops], "cold": [op.cold for op in wl.ops],
           "after": [op.argv for op in wl.after], "seconds": 0 if wl.one_request else seconds,
           "deadline": WORKER_DEADLINE_S, "trace": trace}
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker did not end within {WORKER_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def check(wl: workloads.Workload, report: dict) -> tuple[list[str], int]:
    """Errors in the outputs, and how many operations of one round failed:
    with the named fault (an int too long to print), or by not finishing
    before the deadline."""
    errors, failed = [], report["unfinished"]
    for op, res in zip(wl.ops, report["first"]):
        if res["exc"] and op.fault and workloads.INT_STR_FAULT in res["exc"]:
            failed += 1
            continue
        error = f"raised {res['exc'][:200]}" if res["exc"] else op.check(res)
        if error:
            errors.append(f"{' '.join(op.argv)}: {error}")
    for op, res in zip(wl.after, report["after"]):
        error = f"raised {res['exc'][:200]}" if res["exc"] else op.check(res)
        if error:
            errors.append(f"{' '.join(op.argv)}: {error}")
    errors += [f"{' '.join(wl.ops[i].argv)}: output changed between rounds"
               for i in report["mismatched"]]
    return errors, failed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(report: dict, setup: list[float], wl: workloads.Workload,
               failed_per_round: int) -> dict:
    """Every round repeats the same requests, so each request's latency is
    taken from its fastest repetition, the one least slowed by other load
    on the machine, and the round time is the sum of these."""
    size = len(wl.ops) if wl.one_request else 1
    count = len(wl.ops) // size
    latency = report["latency_s"]  # per op, round after round
    requests = [sum(latency[i:i + size]) for i in range(0, len(latency), size)]
    fastest_ms = [min(requests[i::count]) * 1000 for i in range(min(count, len(requests)))]
    round_s = sum(fastest_ms) / 1000
    completed = int(not failed_per_round) if wl.one_request else count - failed_per_round
    return {
        "setup_s": statistics.median(setup),
        "round_s": round_s,
        "call_ms_p50": statistics.median(fastest_ms),
        "call_ms_p99": percentile(fastest_ms, 99),
        "calls_per_s": completed / round_s,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }


def per_layer(layers: dict) -> dict:
    """Every per-layer metric BENCHMARK.json names; a function or cache
    that no longer exists reads as zero."""
    out = {}
    for metric in SPEC["per_layer"]:
        function, _, suffix = metric["name"].rpartition(".")
        out[metric["name"]] = layers.get(f"{function}.{FIELD_ALIASES.get(suffix, suffix)}", 0.0)
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.build(name, seed)
    setup = [] if trace else setup_times(SETUP_RUNS // 2)
    report = run_worker(wl, seconds, trace)
    if not trace:  # the other half at a later moment of the machine
        setup += setup_times(SETUP_RUNS - SETUP_RUNS // 2)
    errors, failed_per_round = check(wl, report)
    rounds = report["rounds"]
    attempted, failed = len(wl.ops) * rounds, failed_per_round * rounds
    for error in errors[:20]:
        print(f"WRONG [{name}] {error}", file=sys.stderr)
    if report["unfinished"]:
        print(f"DEADLINE [{name}] {report['unfinished']} operations of the first round did not "
              f"finish within {WORKER_DEADLINE_S} s and count as failed", file=sys.stderr)
    if trace:
        values = per_layer(report["layers"])
        specs = SPEC["per_layer"]
    else:
        values = end_to_end(report, setup, wl, failed_per_round)
        specs = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics,
            "rounds": rounds, "round_s": min(report["round_s"])}


def show(name: str, result: dict):
    print(f"[{name}] correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} rounds={result['rounds']}")
    for metric, value in result["metrics"].items():
        print(f"[{name}]   {metric} = {value['value']:.6g} {value['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure whole rounds for this long (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "divmono" / "cli.py").is_file():
        print(f"error: {ROOT} is not a divmono source checkout with BENCHMARK.json",
              file=sys.stderr)
        return 2
    seconds = SPEC["run_seconds"] if args.seconds is None else args.seconds
    env = machine()
    print(f"machine: {json.dumps(env)}")

    if args.workload:
        result = run(args.workload, args.seed, seconds, bool(args.trace))
        show(args.workload, result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    summary = {"machine": env, "seed": args.seed, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        plain, traced = run(name, args.seed, seconds, False), run(name, args.seed, seconds, True)
        show(name, plain)
        show(name, traced)
        overhead = traced["round_s"] - plain["round_s"]
        print(f"[{name}]   tracing overhead = {overhead:.3f} s per round "
              f"({overhead / plain['round_s']:+.1%})")
        summary["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "metrics": plain["metrics"], "per_layer": traced["metrics"],
            "round_s_traced": traced["round_s"], "tracing_overhead_s": overhead,
        }
    print(json.dumps(summary))
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
