"""Runs one workload's operations in this fresh interpreter and reports
timings, outputs and, when traced, per-layer counters as one JSON line.

Reads a JSON job from stdin:
  ops      argv lists for divmono.cli.main, one round in order
  after    argv lists run once after the timed rounds (checks only)
  cold     per op: clear every divmono cache before it
  seconds  whole rounds are repeated until this much wall time has passed
  deadline seconds after which the running call is interrupted and the
           timed rounds end; the calls of the first round that did not
           finish are reported as unfinished
  trace    install the per-layer tracer first
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time

import tracer


class Deadline(BaseException):
    """Raised inside the running call when the deadline passes; a
    BaseException, so that no `except Exception` in the program holds it."""


def _expire(signum, frame):
    raise Deadline


def call(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    result = {"code": None, "exc": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result["code"] = main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        result["code"] = exc.code
    except Exception as exc:  # a failed operation is recorded, not fatal
        result["exc"] = f"{type(exc).__name__}: {exc}"
    result["out"] = out.getvalue()
    result["err"] = err.getvalue()
    return result


def main() -> int:
    job = json.load(sys.stdin)
    import divmono.cli as cli

    caches = tracer.find_caches()
    layers = tracer.Tracer(caches) if job["trace"] else None
    if layers:
        layers.install()

    def clear():
        if layers:
            layers.end_epoch()
        for cache in caches.values():
            cache.cache_clear()

    clock = time.perf_counter
    ops, cold = job["ops"], job["cold"]
    first, mismatched, latency, round_s = [], set(), [], []
    signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, job["deadline"])
    begin = clock()
    try:
        while True:
            start = clock()
            for i, argv in enumerate(ops):
                if cold[i]:
                    clear()
                t0 = clock()
                try:
                    result = call(cli.main, argv)
                finally:
                    latency.append(clock() - t0)
                if not round_s:
                    first.append(result)
                elif result != first[i]:
                    mismatched.add(i)
            round_s.append(clock() - start)
            if clock() - begin >= job["seconds"]:
                break
        signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        if round_s:  # drop the later round that did not finish
            del latency[len(round_s) * len(ops):]
        else:
            round_s.append(clock() - start)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "rounds": len(round_s),
        "round_s": round_s,
        "latency_s": latency,
        "first": first,
        "unfinished": len(ops) - len(first),
        "mismatched": sorted(mismatched),
        "peak_rss_kb": peak_kb,
    }
    if layers:
        layers.end_epoch()
        report["layers"] = layers.report(len(round_s))
    clear()
    report["after"] = [call(cli.main, argv) for argv in job["after"]]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
