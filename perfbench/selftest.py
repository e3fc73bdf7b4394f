#!/usr/bin/env python3
"""Mutation check of the benchmark's own checks.

Runs a sample of every kind of operation through the program once, then
alters one verdict field at a time in each output (an integer moved by
one, a classification or status swapped) and requires every check to
report the altered output as wrong, and every unaltered one as right.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import re
import sys

import run
import workloads

SWAP = {
    "no_obstruction": "obstruction", "obstruction": "red", "red": "no_obstruction",
    "CONFIRMED": "CONDITIONAL", "CONDITIONAL": "NONE", "NONE": "CONFIRMED",
    "not obstructed": "obstructed", "obstructed": "not obstructed",
    "divides n": "bad reduction", "bad reduction": "divides n",
}
TOKEN = re.compile(
    r"\b(?:no_obstruction|obstruction|red|CONFIRMED|CONDITIONAL|NONE|not obstructed|obstructed"
    r"|divides n|bad reduction)\b|(?<![\w.])-?\d+"
)
JSON_ECHO = {"schema_version", "command", "inputs"}
MUTATIONS_PER_OUTPUT = 40


def _altered(token: str) -> str:
    return SWAP.get(token) or str(int(token) + 1)


def text_mutations(out: str, skip_header: bool):
    start = out.index("\n") + 1 if skip_header else 0
    for m in TOKEN.finditer(out, start):
        yield f"{m.group()!r} at {m.start()}", out[:m.start()] + _altered(m.group()) + out[m.end():]


def json_mutations(out: str):
    record = json.loads(out)

    def leaves(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if path == () and key in JSON_ECHO:
                continue
            if isinstance(value, (dict, list)):
                yield from leaves(value, path + (key,))
            elif isinstance(value, bool) or isinstance(value, int) or value in SWAP:
                yield path + (key,), value

    for path, value in list(leaves(record, ())):
        copy = json.loads(out)
        node = copy
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = (not value) if isinstance(value, bool) else \
            value + 1 if isinstance(value, int) else SWAP[value]
        yield "/".join(map(str, path)), json.dumps(copy)


def sample_ops() -> list[workloads.Op]:
    """One or more of every query kind in every format, a curve scan and
    the p = 2 table with its row listing."""
    queries = workloads.queries(1).ops
    picked, seen = [], set()
    for op in queries:
        kind = (op.argv[0], op.argv[-1], op.fault, "--image" in op.argv and op.argv[op.argv.index("--image") + 1])
        if kind not in seen:
            seen.add(kind)
            picked.append(op)
    table = workloads.tables(1)
    return picked + table.ops[:1] + table.after[:1]


def main() -> int:
    ops = sample_ops()
    report = run.run_worker(workloads.Workload(ops), 0, False)
    rng = random.Random(0)
    checked = undetected = 0
    for op, res in zip(ops, report["first"]):
        label = " ".join(op.argv)
        if res["exc"]:
            if not op.fault:
                print(f"FAIL {label}: raised {res['exc'][:100]}")
                undetected += 1
            continue
        if op.check(res):
            print(f"FAIL {label}: genuine output reported wrong: {op.check(res)}")
            undetected += 1
            continue
        if res["code"] != 0:
            altered = [("exit code 0", dict(res, code=0, err=""))]
        elif op.argv[-1] == "json":
            altered = [(where, dict(res, out=out)) for where, out in json_mutations(res["out"])]
        else:
            skip_header = op.argv[0] in ("table", "curve") and "csv" not in op.argv
            altered = [(where, dict(res, out=out))
                       for where, out in text_mutations(res["out"], skip_header)]
        if len(altered) > MUTATIONS_PER_OUTPUT:
            altered = rng.sample(altered, MUTATIONS_PER_OUTPUT)
        for where, bad in altered:
            checked += 1
            if not op.check(bad):
                undetected += 1
                print(f"FAIL {label}: altered {where} passed the check")
    print(f"{len(ops)} operations, {checked} altered outputs, {undetected} not reported wrong")
    return 1 if undetected or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
