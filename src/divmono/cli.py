"""Command-line front end.

Subcommands: sigma, test, table, curve, supersingular, corollary.
Output formats: text (default), csv, json. Exit codes: 0 success,
2 invalid input, 3 internal arithmetic assertion failure. D is CPython's
int-to-str digit limit (sys.get_int_max_str_digits()), or its default 4300
when the limit is off. A supply of more than D digits is printed as the
token >=10^D in every format, and a curve whose discriminant has more than
D digits is rejected as invalid input.

All configuration is via flags; no environment variable is read.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Iterable

from . import curves, frobenius, obstruction
from .arith import irred_count_capped
from .errors import ArithmeticBug, InputError
from .obstruction import Classification, ImageAssumption, Verdict

SCHEMA_VERSION = "1"
CSV_COLUMNS = [
    "p", "a_p", "b_p", "n",
    "residue_degree", "num_primes", "irred_supply", "classification",
]


def _max_digits() -> int:
    """D: CPython's int-to-str digit limit, or its default 4300 when the
    limit is off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _printed_supply(v: Verdict) -> int | str:
    """The verdict's supply as every format prints it: the exact integer,
    or the token >=10^D when it has more than D digits. The supply is at
    most p^m < 2^(m * bitlen(p)), which is below 8^D <= 10^D unless
    m * bitlen(p) > 3D; past that it is capped at 10^D, so a supply far
    past the limit is never computed."""
    digits = _max_digits()
    m, p = v.residue_degree, v.p
    if m * p.bit_length() <= 3 * digits:
        return v.irred_supply
    limit = 10**digits
    supply = irred_count_capped(m, p, limit)
    return f">=10^{digits}" if supply == limit else supply


def _verdict_row(v: Verdict) -> dict:
    """One Verdict as a CSV/JSON row, keyed by CSV_COLUMNS in order."""
    printed = {"irred_supply": _printed_supply(v),
               "classification": v.classification.value}
    return {name: printed[name] if name in printed else getattr(v, name)
            for name in CSV_COLUMNS}


def _emit(out, fmt: str, command: str, inputs: dict, fields: dict,
          text_lines: Iterable[str]):
    """Write one command's (inputs, fields, text_lines) result, the only
    place where a Verdict becomes a row: CSV writes the rows of
    fields["verdicts"], which only the verdict commands accept, and JSON is
    {schema_version, command, inputs, **fields} with those rows in place."""
    if fmt == "text":
        out.write("\n".join(text_lines) + "\n")
        return
    if "verdicts" in fields:
        fields = {**fields, "verdicts": [_verdict_row(v) for v in fields["verdicts"]]}
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(fields["verdicts"])
    elif fmt == "json":
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            **fields,
        }
        json.dump(record, out, indent=2)
        out.write("\n")


def _mark(v: Verdict) -> str:
    """Text rendering of one table entry; red entries carry a * prefix."""
    star = "*" if v.classification is Classification.OBSTRUCTION_ONLY_FULL_IMAGE else ""
    return f"{star}{v.n}"


def cmd_sigma(args):
    datum = frobenius.FrobeniusDatum(args.p, args.a, args.b)
    mat = frobenius.sigma(datum)
    inputs = {"p": args.p, "a": args.a, "b": args.b}
    fields = {
        "sigma": [list(mat[0]), list(mat[1])],
        "delta_pi": datum.delta_pi,
        "delta_end": datum.delta_end,
        "delta_parity": datum.delta_parity,
    }
    lines = [f"sigma = [[{mat[0][0]}, {mat[0][1]}], [{mat[1][0]}, {mat[1][1]}]]",
             f"p={datum.p} a_p={datum.a_p} b_p={datum.b_p} "
             f"delta_pi={datum.delta_pi} delta_end={datum.delta_end} "
             f"delta={datum.delta_parity}"]
    return inputs, fields, lines


def cmd_test(args):
    datum = frobenius.FrobeniusDatum(args.p, args.a, args.b)
    v = obstruction.test(datum, args.n, ImageAssumption(args.image))
    inputs = {"p": args.p, "a": args.a, "b": args.b, "n": args.n,
              "image": args.image}
    line = ("p={p} a_p={a_p} b_p={b_p} n={n}: {classification} "
            "(residue_degree={residue_degree} num_primes={num_primes} "
            "irred_supply={irred_supply})")
    # lazy: _emit reads it only for text, so CSV and JSON build the row once
    return inputs, {"verdicts": [v]}, (line.format_map(_verdict_row(v)) for v in [v])


def cmd_table(args):
    reports = obstruction.full_table(args.p, args.n_max)
    inputs = {"p": args.p, "n_max": args.n_max}
    lines = [f"p={args.p} n<={args.n_max} (* marks entries that vanish under an index-2 image)"]
    for r in reports:
        entries = ", ".join(_mark(v) for v in r.obstructed)
        lines.append(f"a_p={r.datum.a_p} b_p={r.datum.b_p}: {entries}")
    return inputs, {"verdicts": [v for r in reports for v in r.obstructed]}, lines


COEFFICIENTS = curves.WeierstrassCurve._fields
# every family's parameter names, each once, in registry order
PARAMETERS = tuple(dict.fromkeys(n for _, names in curves.FAMILIES.values() for n in names))


def _build_curve(args) -> curves.WeierstrassCurve:
    """The curve of --family and its parameters, or of --a1..--a6; a flag
    that the chosen way does not use is invalid input, not ignored."""
    if args.family is None:
        ctor, names = curves.WeierstrassCurve, COEFFICIENTS
        stray = "is used only with --family"
        missing = "supply either --family or all of --a1..--a6"
    else:
        ctor, names = curves.FAMILIES[args.family]
        stray = f"is not used with --family {args.family}"
        flags = " and ".join(f"--{name}" for name in names)
        missing = f"family {args.family} requires {flags}"
    for name in COEFFICIENTS + PARAMETERS:
        if name not in names and getattr(args, name) is not None:
            raise InputError(f"--{name} {stray}")
    values = [getattr(args, name) for name in names]
    if None in values:
        raise InputError(missing)
    return ctor(*values)


def cmd_curve(args):
    curve = _build_curve(args)
    digits, disc = _max_digits(), curve.disc
    if abs(disc) >= 10**digits:
        raise InputError(f"the curve's discriminant has more than {digits} digits")
    reports = obstruction.essential_divisor_scan(curve, args.n, args.p_max)
    inputs = {"curve": list(curve), "n": args.n, "p_max": args.p_max}
    lines = [f"curve a1..a6={list(curve)} disc={disc} "
             f"n={args.n} p_max={args.p_max}"]
    for r in reports:
        a_p = "" if r.a_p is None else f" a_p={r.a_p}"
        words = [r.status.value] + [f"[b={v.b_p}: {v.classification.value}]"
                                    for v in r.verdicts]
        lines.append(f"p={r.p}{a_p}: {' '.join(words)}")
    return inputs, {"verdicts": [v for r in reports for v in r.verdicts]}, lines


def cmd_supersingular(args):
    check = obstruction.supersingular_check(args.p)
    orders = ", ".join(str(o) for o in check.orders)
    line = (f"p={args.p} n={args.p + 1}: orders ({orders}); "
            f"{check.num_primes_full} primes vs {check.irred_supply} "
            f"irreducible quadratics; "
            f"{'obstructed' if check.obstructed else 'not obstructed'}")
    return {"p": args.p}, check._asdict(), [line]


def cmd_corollary(args):
    result = obstruction.corollary_threshold(args.index)
    line = (f"index={args.index}: first prime p={result.prime} "
            f"({result.exact_lhs} primes vs {result.irred_supply} "
            f"irreducible quadratics); "
            f"closed-form bound first holds at p={result.bound_prime}")
    return {"index": args.index}, result._asdict(), [line]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divmono",
        description="Monogeneity obstructions for elliptic curve division fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "csv", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("sigma", help="print the Frobenius matrix for (p, a, b)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("test", help="obstruction verdict for one (p, a, b, n)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--image", choices=[i.value for i in ImageAssumption], default="full")
    add_format(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("table", help="scan all admissible (a, b) rows for p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n-max", type=int, default=999)
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("curve", help="essential-divisor scan for a curve")
    p.add_argument("--family", choices=curves.FAMILIES)
    for name in PARAMETERS + COEFFICIENTS:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-max", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("supersingular", help="order-2 check at n = p + 1")
    p.add_argument("--p", type=int, required=True)
    add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_supersingular)

    p = sub.add_parser("corollary", help="threshold prime for an adelic image index")
    p.add_argument("--index", type=int, required=True)
    add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_corollary)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        _emit(out, args.format, args.command, *args.func(args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticBug as exc:
        print(f"internal arithmetic error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
