"""Command-line front end: distribution queries, closed forms, batch
verification sweeps, partition/extension inspection, and counterexample
search.

Exit codes: 0 when every requested check passes (or a query succeeds),
1 when a verification fails, 2 on usage or parse errors or a forest too
deep for the recursive linear-extension enumeration (``linext``,
``partitions``, and ``check`` and ``sweep`` of thm-le1 and dec1).
Results go to stdout, diagnostics to stderr; ``--format records``
emits JSON built on the [t-exp, q-exp, coeff] triple encoding.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Iterator

from . import formulas, stats, verify
from .forest import (MODES, linear_extensions, parse_forest_input, parse_labeling,
                     validate_labeling)
from .qpoly import BiPoly


def _print_poly(poly, fmt: str, **extra) -> None:
    if fmt == "human":
        print(poly.render())
    else:
        print(json.dumps({**extra, "poly": poly.to_triples()}))


def _side_text(side) -> str:
    return json.dumps(verify.CheckReport._poly_record(side))


def _record_lines(reports) -> Iterator[str]:
    """``json.dumps(report.to_record())`` of each report, byte for byte,
    with every distinct polynomial serialized once.

    The texts are keyed by object identity, which is safe because the
    reports keep their polynomials alive.  The plane forests of a
    passing class share their class's lhs and rhs, and a passing rhs
    equal to its lhs takes the lhs text.
    """
    texts: dict[int, str] = {}
    for r in reports:
        if id(r.lhs) not in texts:
            texts[id(r.lhs)] = _side_text(r.lhs)
        if id(r.rhs) not in texts:
            texts[id(r.rhs)] = (texts[id(r.lhs)] if r.passed and r.rhs == r.lhs
                                else _side_text(r.rhs))
        yield (f'{{"theorem": {json.dumps(r.theorem)}, "forest": {json.dumps(r.forest)}, '
               f'"lhs": {texts[id(r.lhs)]}, "rhs": {texts[id(r.rhs)]}, '
               f'"pass": {json.dumps(r.passed)}, '
               f'"witness": {json.dumps(r.witness)}}}')


def _print_report(report: verify.CheckReport, fmt: str) -> None:
    if fmt == "records":
        print(*_record_lines([report]))
        return
    print(report.summary())
    if report.lhs is not None:
        print(f"  lhs: {report.lhs.render()}")
    if report.rhs is not None:
        print(f"  rhs: {report.rhs.render()}")


def _print_reports(reports, fmt: str) -> int:
    """One summary line (or record) per report; returns the failure count."""
    for line in (_record_lines(reports) if fmt == "records"
                 else (r.summary() for r in reports)):
        print(line)
    return sum(not r.passed for r in reports)


def cmd_dist(args) -> int:
    forest = parse_forest_input(args.forest)
    poly = verify.distribution(forest, args.stat, args.mode, aux=args.aux)
    _print_poly(poly, args.format, forest=forest.render(), stat=args.stat,
                mode=args.mode, aux=args.aux)
    return 0


def cmd_rhs(args) -> int:
    forest = parse_forest_input(args.forest)
    poly = verify.closed_form(args.theorem, forest)
    _print_poly(poly, args.format, forest=forest.render(), theorem=args.theorem)
    return 0


def cmd_check(args) -> int:
    forest = parse_forest_input(args.forest)
    report = verify.check_theorem(forest, args.theorem, degree=args.degree)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    reports = verify.sweep(args.theorem, args.max_n, degree=args.degree,
                           jobs=args.jobs, fail_fast=args.fail_fast)
    failures = _print_reports(reports, args.format)
    if args.format == "human":
        print(f"{len(reports)} checks, {failures} failures")
    return 1 if failures else 0


def cmd_linext(args) -> int:
    forest = parse_forest_input(args.forest)
    w = validate_labeling(forest, parse_labeling(args.labeling))
    rows = [(word, stats.maj_b(word)) for word in linear_extensions(forest, w)]
    total = BiPoly(((0, m), 1) for _, m in rows)
    closed = formulas.rhs_linext(forest, w)
    passed = total == closed
    if args.format == "records":
        print(json.dumps({
            "forest": forest.render(),
            "labeling": list(w),
            "extensions": [{"word": list(word), "maj-b": m} for word, m in rows],
            "sum": total.to_triples(),
            "closed_form": closed.to_triples(),
            "pass": passed,
        }))
    else:
        for word, m in rows:
            print(f"{','.join(map(str, word))}  maj-b={m}")
        print(f"sum: {total.render()}")
        print(f"closed form: {closed.render()}")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def cmd_partitions(args) -> int:
    verify._check_at_least("degree", args.degree, 0)
    forest = parse_forest_input(args.forest)
    w = validate_labeling(forest, parse_labeling(args.labeling))
    series, closed = verify.THEOREMS["lem-partition-gf"].lhs(forest, w, args.degree)
    dec = verify.check_decomposition_dec1(forest, w, args.degree)
    passed = series == closed and dec.passed
    if args.format == "records":
        print(json.dumps({
            "forest": forest.render(),
            "labeling": list(w),
            "degree": args.degree,
            "series": series.poly.to_triples(),
            "closed_form": closed.poly.to_triples(),
            "series_match": series == closed,
            "dec1": dec.to_record(),
            "pass": passed,
        }))
    else:
        print(f"series: {series.render()}")
        print(f"closed form: {closed.render()}")
        print(dec.summary())
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def cmd_bijections(args) -> int:
    reports = verify.sweep("psi", args.max_n) + verify.sweep("mirror", args.max_n)
    return 1 if _print_reports(reports, args.format) else 0


def cmd_counterexample(args) -> int:
    result = verify.counterexample_search(args.stat, args.vs, args.mode,
                                          args.max_n, jobs=args.jobs)
    if result is None:
        print(json.dumps({"witness": None}) if args.format == "records" else
              f"none: {args.stat} and {args.vs} agree on every forest up to size {args.max_n}")
        return 0
    forest, da, db = result
    if args.format == "records":
        print(json.dumps({
            "witness": forest.render(),
            "stat": args.stat,
            "vs": args.vs,
            "mode": args.mode,
            "dist_stat": da.to_triples(),
            "dist_vs": db.to_triples(),
        }))
    else:
        print(f"witness: {forest.render()}")
        print(f"{args.stat}: {da.render()}")
        print(f"{args.vs}: {db.render()}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hookforest",
        description="Exact statistics and hook-length product identities "
                    "on signed labeled plane forests.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("human", "records"), default="human")

    p = sub.add_parser("dist", help="distribution of a statistic over all labelings")
    p.add_argument("--forest", required=True)
    p.add_argument("--stat", required=True)
    p.add_argument("--mode", choices=MODES, default="signed")
    p.add_argument("--aux", default=None, help="statistic tracked in the t variable")
    add_common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("rhs", help="closed-form polynomial of a theorem")
    p.add_argument("--forest", required=True)
    p.add_argument("--theorem", required=True,
                   help=f"one of: {', '.join(t for t, row in verify.THEOREMS.items() if row.rhs)}")
    add_common(p)
    p.set_defaults(func=cmd_rhs)

    p = sub.add_parser("check", help="verify one identity on one forest")
    p.add_argument("--forest", required=True)
    p.add_argument("--theorem", required=True,
                   help=f"one of: {', '.join(verify.THEOREMS)}")
    p.add_argument("--degree", type=int, default=10,
                   help="truncation degree for series-based checks")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="verify one identity on all forests up to a size")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--theorem", required=True)
    p.add_argument("--degree", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--fail-fast", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("linext", help="linear extensions with their maj-b values")
    p.add_argument("--forest", required=True)
    p.add_argument("--labeling", required=True,
                   help="comma-separated signed labels in vertex order, e.g. -1,2")
    add_common(p)
    p.set_defaults(func=cmd_linext)

    p = sub.add_parser("partitions", help="type-B partition series and its split")
    p.add_argument("--forest", required=True)
    p.add_argument("--labeling", required=True)
    p.add_argument("--degree", type=int, default=10)
    add_common(p)
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("bijections", help="exhaustive checks of the two bijections")
    p.add_argument("--max-n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_bijections)

    p = sub.add_parser("counterexample",
                       help="search for a forest separating two statistics")
    p.add_argument("--stat", required=True)
    p.add_argument("--vs", required=True)
    p.add_argument("--mode", choices=MODES, default="signed")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    add_common(p)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
    except RecursionError:
        message = f"input nests deeper than Python's recursion limit of {sys.getrecursionlimit()}"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
