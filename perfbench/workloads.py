"""The two workloads: their operations, made from a seed, and the checks
of every output against the published tables and the reference module.

An operation is one in-process `divmono.cli.main(argv)` call. Each check
takes the operation's result (exit code, stdout, stderr) and returns an
error message, or None when the output is right.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

ROOT = Path(__file__).resolve().parent.parent

TABLE_PRIMES = (2, 3, 5, 7, 11)
TABLE_N_MAX = 999
FORMATS = ("text", "csv", "json")
INT_STR_FAULT = "integer string conversion"


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], str | None]
    # the reference predicts the named fault: a supply too long to print
    fault: bool = False
    # every divmono cache is cleared before the op; a warm op shares the
    # caches of the ops before it, as calls within one process do
    cold: bool = True


@dataclass
class Workload:
    ops: list[Op]  # one round, timed
    after: list[Op] = field(default_factory=list)  # run once, untimed
    # the whole round is one request of the client, as the five tables are
    # one reproduction of the paper; otherwise each op is one request
    one_request: bool = False


def build(name: str, seed: int) -> Workload:
    return {"tables": tables, "queries": queries}[name](seed)


# ---------------------------------------------------------------- verdicts

_TEXT_VERDICT = re.compile(
    r"p=(?P<p>-?\d+) a_p=(?P<a_p>-?\d+) b_p=(?P<b_p>-?\d+) n=(?P<n>-?\d+): "
    r"(?P<classification>\S+) \(residue_degree=(?P<residue_degree>-?\d+) "
    r"num_primes=(?P<num_primes>-?\d+) irred_supply=(?P<irred_supply>[^)\s]+)\)"
)
_INT = re.compile(r"-?\d+")
_VERDICT_FIELDS = ("p", "a_p", "b_p", "n", "residue_degree", "num_primes",
                   "irred_supply", "classification")


def parse_verdicts(out: str, fmt: str) -> list[dict]:
    """Verdict records from a test/table output, every value as a string."""
    if fmt == "text":
        lines = out.splitlines()
        matches = [_TEXT_VERDICT.fullmatch(line) for line in lines]
        if len(lines) != 1 or not matches[0]:
            raise ValueError(f"not one verdict line: {out!r}")
        return [matches[0].groupdict()]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        if not out.startswith(",".join(_VERDICT_FIELDS) + "\n"):
            raise ValueError("csv header differs from the fixed columns")
        return [{k: row[k] for k in _VERDICT_FIELDS} for row in rows]
    record = json.loads(out)
    return [{k: str(v[k]) for k in _VERDICT_FIELDS} for v in record["verdicts"]]


def check_verdict(v: dict, p: int, a: int, b: int, n: int, image: str = "full") -> str | None:
    """One verdict against the reference: the echoed datum, the residue
    degree as the exact order of the Frobenius matrix mod n, the prime
    count, the supply where it is printed as an integer, and the class."""
    if (v["p"], v["a_p"], v["b_p"], v["n"]) != (str(p), str(a), str(b), str(n)):
        return f"verdict is for {v['p']},{v['a_p']},{v['b_p']},{v['n']}"
    if not _INT.fullmatch(v["residue_degree"]) or not _INT.fullmatch(v["num_primes"]):
        return "residue_degree or num_primes is not an integer"
    d = int(v["residue_degree"])
    if not ref.is_order(ref.frobenius_matrix(p, a, b), n, d):
        return f"residue_degree {d} is not the order of the Frobenius matrix mod {n}"
    group = ref.gl2_order(n)
    degree = group if image == "full" else group // 2
    if int(v["num_primes"]) != degree // d:
        return f"num_primes {v['num_primes']} != {degree // d}"
    if _INT.fullmatch(v["irred_supply"]) and int(v["irred_supply"]) != ref.irred_count(d, p):
        return f"irred_supply {v['irred_supply']} != I_{d}({p})"
    expected = ref.classify(p, d, group)
    if image != "full" and expected == "red":
        expected = "no_obstruction"
    if v["classification"] != expected:
        return f"classification {v['classification']} != {expected}"
    return None


def _ok(res: dict) -> str | None:
    if res["code"] != 0 or res["err"]:
        return f"exit {res['code']}, stderr {res['err'][:200]!r}"
    return None


def _guard(check):
    """Turn a parse error inside a check into a reported wrong output."""
    def guarded(res):
        try:
            return _ok(res) or check(res)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparseable output ({type(exc).__name__}: {exc})"
    return guarded


# ----------------------------------------------------------------- tables

def published_tables() -> dict:
    """{p: {(a, b): [(n, is_red), ...]}} in the published row order, from
    the paper's tables as the test suite holds them."""
    path = ROOT / "tests" / "golden_tables.py"
    spec = importlib.util.spec_from_file_location("golden_tables", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return {p: {key: golden.normalize(row) for key, row in rows.items()}
            for p, rows in golden.GOLDEN.items()}


def _table_check(p: int, published: dict):
    def check(res):
        rows: dict = {}
        for v in parse_verdicts(res["out"], "csv"):
            if v["p"] != str(p):
                return f"row for p={v['p']} in the p={p} table"
            key = (int(v["a_p"]), int(v["b_p"]))
            if v["classification"] not in ("obstruction", "red"):
                return f"{key} n={v['n']}: listed as {v['classification']}"
            rows.setdefault(key, []).append((int(v["n"]), v["classification"] == "red"))
            error = check_verdict(v, p, *key, int(v["n"]))
            if error:
                return f"{key} n={v['n']}: {error}"
        expected = {k: cells for k, cells in published.items() if cells}
        if list(rows.items()) != list(expected.items()):
            diff = [k for k in expected.keys() | rows.keys() if rows.get(k) != expected.get(k)]
            return f"rows differ from the published table: {sorted(diff)}"
        return None
    return _guard(check)


_ROW = re.compile(r"a_p=(-?\d+) b_p=(-?\d+): ?(.*)")


def _rows_check(p: int, n_max: int, published: dict):
    """The text table lists every row, so its keys are the program's set of
    admissible (a_p, b_p); they must be the reference's, in published order."""
    def check(res):
        lines = res["out"].splitlines()
        if not lines or not lines[0].startswith(f"p={p} n<={n_max} "):
            return "missing table header"
        keys, entries = [], []
        for line in lines[1:]:
            m = _ROW.fullmatch(line)
            if not m:
                return f"unparseable row {line!r}"
            keys.append((int(m[1]), int(m[2])))
            entries.append(m[3].split(", ") if m[3] else [])
        if keys != ref.admissible_data(p) or keys != list(published):
            return f"row keys {keys} differ from the admissible (a_p, b_p)"
        for key, got in zip(keys, entries):
            want = [("*" if red else "") + str(n) for n, red in published[key] if n <= n_max]
            if got != want:
                return f"row {key} lists {got}, published {want}"
        return None
    return _guard(check)


def tables(seed: int) -> Workload:
    """The five published tables through `table --format csv`, cold. The
    tables are fixed, so the seed changes nothing here."""
    published = published_tables()
    ops = [Op(["table", "--p", str(p), "--n-max", str(TABLE_N_MAX), "--format", "csv"],
              _table_check(p, published[p]), cold=p == TABLE_PRIMES[0]) for p in TABLE_PRIMES]
    after = [Op(["table", "--p", str(p), "--n-max", "2"], _rows_check(p, 2, published[p]))
             for p in TABLE_PRIMES]
    return Workload(ops, after, one_request=True)


# ---------------------------------------------------------------- queries

QUERY_MIX = {"test": 170, "sigma": 10, "supersingular": 10, "corollary": 10}
FAULT_QUERIES = 30


def _random_query_datum(rng: random.Random):
    p = rng.choice(TABLE_PRIMES)
    a, b = rng.choice(ref.admissible_data(p))
    n = rng.randrange(2, 1000)
    while math.gcd(n, p) != 1:
        n = rng.randrange(2, 1000)
    return p, a, b, n


def _test_op(p, a, b, n, image, fmt) -> Op:
    argv = ["test", "--p", str(p), "--a", str(a), "--b", str(b), "--n", str(n),
            "--image", image, "--format", fmt]
    d = ref.frobenius_order(p, a, b, n)
    if image == "index2" and (ref.gl2_order(n) // 2) % d:
        # no index-2 subgroup holds this Frobenius class: invalid input
        def rejected(res):
            if res["code"] != 2 or res["out"] or not res["err"].startswith("error:"):
                return f"expected exit 2 with an error, got exit {res['code']}"
            return None
        return Op(argv, rejected)

    def check(res):
        verdicts = parse_verdicts(res["out"], fmt)
        if len(verdicts) != 1:
            return f"{len(verdicts)} verdicts"
        return check_verdict(verdicts[0], p, a, b, n, image)
    return Op(argv, _guard(check), fault=ref.supply_too_long_to_print(d, p))


_SIGMA_TEXT = re.compile(
    r"sigma = \[\[(-?\d+), (-?\d+)\], \[(-?\d+), (-?\d+)\]\]\n"
    r"p=(-?\d+) a_p=(-?\d+) b_p=(-?\d+) delta_pi=(-?\d+) delta_end=(-?\d+) delta=(-?\d+)\n"
)


def _sigma_op(p, a, b, fmt) -> Op:
    def check(res):
        if fmt == "json":
            rec = json.loads(res["out"])
            mat = [int(x) for row in rec["sigma"] for x in row]
            rest = [p, a, b, rec["delta_pi"], rec["delta_end"], rec["delta_parity"]]
        else:
            m = _SIGMA_TEXT.fullmatch(res["out"])
            if not m:
                return "unparseable sigma output"
            mat, rest = [int(x) for x in m.groups()[:4]], [int(x) for x in m.groups()[4:]]
        s11, s12, s21, s22 = mat
        if s11 + s22 != a or s11 * s22 - s12 * s21 != p:
            return f"sigma {mat} does not have trace {a} and determinant {p}"
        if tuple(mat) != ref.frobenius_matrix(p, a, b):
            return f"sigma {mat} is not the Frobenius matrix"
        disc = a * a - 4 * p
        end = disc // (b * b)
        if rest != [p, a, b, disc, end, end % 4]:
            return f"datum or discriminants {rest} are wrong"
        return None
    return Op(["sigma", "--p", str(p), "--a", str(a), "--b", str(b), "--format", fmt],
              _guard(check))


_SUPERSINGULAR_TEXT = re.compile(
    r"p=(\d+) n=(\d+): orders \(([\d, ]*)\); (\d+) primes vs (\d+) irreducible "
    r"quadratics; (obstructed|not obstructed)\n"
)


def _supersingular_op(p, fmt) -> Op:
    def check(res):
        if fmt == "json":
            rec = json.loads(res["out"])
            got = (p, p + 1, [int(o) for o in rec["orders"]], rec["num_primes_full"],
                   rec["irred_supply"], rec["obstructed"])
        else:
            m = _SUPERSINGULAR_TEXT.fullmatch(res["out"])
            if not m:
                return "unparseable supersingular output"
            got = (int(m[1]), int(m[2]), [int(o) for o in m[3].split(", ")],
                   int(m[4]), int(m[5]), m[6] == "obstructed")
        bs = ref.admissible_b(p, 0)
        orders = [ref.frobenius_order(p, 0, b, p + 1) for b in bs]
        num = ref.gl2_order(p + 1) // 2
        supply = (p * p - p) // 2
        want = (p, p + 1, orders, num, supply, num > supply)
        if got != want or orders != [2] * len(bs):
            return f"supersingular check {got} != {want}"
        return None
    return Op(["supersingular", "--p", str(p), "--format", fmt], _guard(check))


_COROLLARY_TEXT = re.compile(
    r"index=(\d+): first prime p=(\d+) \((\d+) primes vs (\d+) irreducible "
    r"quadratics\); closed-form bound first holds at p=(\d+)\n"
)


def _corollary_op(index, fmt) -> Op:
    def check(res):
        if fmt == "json":
            rec = json.loads(res["out"])
            got = (index, rec["prime"], rec["exact_lhs"], rec["irred_supply"], rec["bound_prime"])
        else:
            m = _COROLLARY_TEXT.fullmatch(res["out"])
            if not m:
                return "unparseable corollary output"
            got = tuple(int(x) for x in m.groups())
        prime, bound = ref.corollary_primes(index)
        want = (index, prime, ref.gl2_order(prime + 1) // (4 * index),
                (prime * prime - prime) // 2, bound)
        if got != want:
            return f"corollary {got} != {want}"
        return None
    return Op(["corollary", "--index", str(index), "--format", fmt], _guard(check))


def fault_queries() -> list[Op]:
    """A fixed set of `test` queries on the paper's grid whose exact supply
    has more than 4300 digits, drawn without the seed, so every run holds
    the same ones: the first is the example the fault was reported with."""
    ops = [_test_op(11, 6, 1, 997, "full", "text")]
    rng = random.Random("int-to-str fault")
    while len(ops) < FAULT_QUERIES:
        image = ("full", "index2")[len(ops) % 2]
        op = _test_op(*_random_query_datum(rng), image, FORMATS[len(ops) % 3])
        if op.fault:
            ops.append(op)
    return ops


def queries(seed: int) -> Workload:
    """A closed loop from one client: seeded `test` queries on the paper's
    grid in every image and format, a few sigma, supersingular and
    corollary queries, and the fixed fault queries, shuffled, each on cold
    caches; then the curve scans. Queries that would hit the fault are
    drawn again, as whether one does depends on the seed; the fixed set
    carries the fault in every run instead."""
    rng = random.Random(seed)
    ops = fault_queries()
    while len(ops) < FAULT_QUERIES + QUERY_MIX["test"]:
        op = _test_op(*_random_query_datum(rng), rng.choice(("full", "index2")),
                      rng.choice(FORMATS))
        if not op.fault:
            ops.append(op)
    for _ in range(QUERY_MIX["sigma"]):
        p = rng.choice(ref.primes_up_to(100))
        ops.append(_sigma_op(p, *rng.choice(ref.admissible_data(p)), rng.choice(("text", "json"))))
    supersingular_primes = [q for q in ref.primes_up_to(1000) if q > 3]
    for _ in range(QUERY_MIX["supersingular"]):
        ops.append(_supersingular_op(rng.choice(supersingular_primes), rng.choice(("text", "json"))))
    for _ in range(QUERY_MIX["corollary"]):
        ops.append(_corollary_op(rng.randint(1, 100), rng.choice(("text", "json"))))
    rng.shuffle(ops)
    return Workload(ops + curve_scans(rng))


# ----------------------------------------------------------------- curves

CURVE_P_MAX = 250
# every curve is scanned at both; fixed, because the cost of the verdicts
# grows with n and would otherwise vary with the seed
CURVE_NS = (11, 15)
_CURVE_HEADER = re.compile(r"curve a1\.\.a6=\[(.*)\] disc=(-?\d+) n=(\d+) p_max=(\d+)")
_CURVE_PRIME = re.compile(r"p=(\d+) a_p=(-?\d+): (\w+)((?: \[b=\d+: \w+\])*)")
_CURVE_SKIP = re.compile(r"p=(\d+): skipped \((divides n|bad reduction)\)")
_PER_B = re.compile(r" \[b=(\d+): (\w+)\]")
_STATUS = {"obstruction": "CONFIRMED", "no_obstruction": "NONE"}


def _a2_claim(family: str, param: int) -> int | None:
    """The trace at p = 2 that the families are built to have."""
    if family == "E_t":
        return -1 if param % 2 else None  # even t: bad reduction at 2
    if family == "E_s":
        return 2 if param % 2 else -2
    if family == "E_uv":
        return 0
    return None


def _curve_check(coeffs, family, param, n, p_max):
    disc = ref.discriminant(coeffs)

    def check(res):
        lines = res["out"].splitlines()
        head = _CURVE_HEADER.fullmatch(lines[0]) if lines else None
        if not head or [int(c) for c in head[1].split(", ")] != list(coeffs) \
                or (int(head[2]), int(head[3]), int(head[4])) != (disc, n, p_max):
            return "wrong or missing curve header"
        primes = ref.primes_up_to(p_max)
        if len(lines) != 1 + len(primes):
            return f"{len(lines) - 1} prime lines for {len(primes)} primes"
        for p, line in zip(primes, lines[1:]):
            skip = _CURVE_SKIP.fullmatch(line)
            want_skip = "divides n" if n % p == 0 else "bad reduction" if disc % p == 0 else None
            if skip or want_skip:
                if not skip or (int(skip[1]), skip[2]) != (p, want_skip):
                    return f"p={p}: {line!r}, expected skipped ({want_skip})"
                continue
            m = _CURVE_PRIME.fullmatch(line)
            if not m or int(m[1]) != p:
                return f"p={p}: unparseable {line!r}"
            a = int(m[2])
            if a != ref.trace_of_frobenius(coeffs, p):
                return f"p={p}: a_p={a} != reference count"
            if a * a > 4 * p:
                return f"p={p}: a_p={a} breaks the Hasse bound"
            if p == 2 and _a2_claim(family, param) not in (None, a):
                return f"{family}({param}): a_2={a}, the family has {_a2_claim(family, param)}"
            per_b = [(int(b), cls) for b, cls in _PER_B.findall(m[4])]
            if [b for b, _ in per_b] != ref.admissible_b(p, a):
                return f"p={p}: b values {[b for b, _ in per_b]} are not the admissible ones"
            group = ref.gl2_order(n)
            for b, cls in per_b:
                want = ref.classify(p, ref.frobenius_order(p, a, b, n), group)
                if cls != want:
                    return f"p={p} b={b}: {cls} != {want}"
            classes = {cls for _, cls in per_b}
            status = _STATUS.get(classes.pop(), "CONDITIONAL") if len(classes) == 1 else "CONDITIONAL"
            if m[3] != status:
                return f"p={p}: status {m[3]} != {status} for its per-b verdicts"
        return None
    return _guard(check)


def _family_members(rng: random.Random):
    """Two members of each named family and two random curves, nonsingular."""
    t_values = [t for t in range(-99, 100) if t]
    uv_pairs = [(u, v) for u in range(-9, 10, 2) for v in range(-10, 11, 2)
                if math.gcd(3 * u, v) == 1 and ref.discriminant((0, v, u, 0, 0))]
    members = []
    for _ in range(2):
        t = rng.choice(t_values)
        members.append(((1, 0, 0, 0, t), "E_t", t))
    for _ in range(2):
        s = rng.randint(-99, 99)
        members.append(((0, 1, 1, 0, s), "E_s", s))
    for _ in range(2):
        u, v = rng.choice(uv_pairs)
        members.append(((0, v, u, 0, 0), "E_uv", u))
    while len(members) < 8:
        coeffs = tuple(rng.randint(-9, 9) for _ in range(5))
        if ref.discriminant(coeffs):
            members.append((coeffs, "random", 0))
    return members


def curve_scans(rng: random.Random) -> list[Op]:
    """`curve` essential-divisor scans up to p = 250, by explicit
    coefficients so that the family flags of the CLI may change freely.
    They share caches, as scans of several n in one process would, so that
    counting a curve again at every n shows."""
    ops = []
    for coeffs, family, param in _family_members(rng):
        for n in CURVE_NS:
            argv = ["curve", *(f"--{k}={c}" for k, c in zip(("a1", "a2", "a3", "a4", "a6"), coeffs)),
                    "--n", str(n), "--p-max", str(CURVE_P_MAX)]
            ops.append(Op(argv, _curve_check(coeffs, family, param, n, CURVE_P_MAX),
                          cold=not ops))
    return ops
