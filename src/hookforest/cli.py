"""Command-line front end: distribution queries, closed forms, batch
verification sweeps, partition/extension inspection, and counterexample
search.

Exit codes: 0 when every requested check passes (or a query succeeds),
1 when a verification fails, 2 on usage or parse errors.  All results
go to stdout, diagnostics to stderr.  ``--format records`` emits JSON
built on the [t-exp, q-exp, coeff] triple encoding of polynomials.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import formulas, stats, verify
from .forest import (Forest, ForestParseError, enumerate_forests,
                     linear_extensions, parse_forest_input, parse_labeling,
                     validate_labeling)
from .qpoly import BiPoly, Series


def _default_jobs() -> int:
    raw = os.environ.get("HOOKFOREST_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _print_poly(poly, fmt: str, **extra) -> None:
    if fmt == "human":
        print(poly.render())
    else:
        record = dict(extra)
        if isinstance(poly, Series):
            record["series"] = poly.poly.to_triples()
            record["degree"] = poly.degree
        else:
            record["poly"] = poly.to_triples()
        print(json.dumps(record))


def _print_report(report: verify.CheckReport, fmt: str) -> None:
    if fmt == "records":
        print(json.dumps(report.to_record()))
        return
    print(report.summary())
    if report.lhs is not None:
        print(f"  lhs: {report.lhs.render()}")
    if report.rhs is not None:
        print(f"  rhs: {report.rhs.render()}")


def _forest_arg(args) -> Forest:
    return parse_forest_input(args.forest)


def _labeling_arg(args, forest: Forest):
    return validate_labeling(forest, parse_labeling(args.labeling))


def cmd_dist(args) -> int:
    forest = _forest_arg(args)
    poly = verify.distribution(forest, args.stat, args.mode, aux=args.aux)
    _print_poly(poly, args.format, forest=forest.render(), stat=args.stat,
                mode=args.mode, aux=args.aux)
    return 0


def cmd_rhs(args) -> int:
    forest = _forest_arg(args)
    if args.theorem in formulas.FOREST_RHS:
        poly = formulas.FOREST_RHS[args.theorem](forest)
    elif args.theorem in formulas.SIZE_RHS:
        poly = formulas.SIZE_RHS[args.theorem](forest.n)
    else:
        raise ValueError(f"no labeling-free closed form for {args.theorem!r}; "
                         "use the linext or partitions subcommand")
    _print_poly(poly, args.format, forest=forest.render(), theorem=args.theorem)
    return 0


def cmd_check(args) -> int:
    forest = _forest_arg(args)
    report = verify.check_theorem(forest, args.theorem, degree=args.degree)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    reports = verify.sweep(args.theorem, args.max_n, degree=args.degree,
                           jobs=args.jobs, fail_fast=args.fail_fast)
    failed = False
    for report in reports:
        if args.format == "records":
            print(json.dumps(report.to_record()))
        else:
            print(report.summary())
        failed = failed or not report.passed
    if args.format == "human":
        print(f"{len(reports)} checks, {sum(not r.passed for r in reports)} failures")
    return 1 if failed else 0


def cmd_linext(args) -> int:
    forest = _forest_arg(args)
    w = _labeling_arg(args, forest)
    words = list(linear_extensions(forest, w))
    total = BiPoly({})
    rows = []
    for word in words:
        m = stats.maj_b(word)
        total = total + BiPoly.term(1, q=m)
        rows.append((word, m))
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
    forest = _forest_arg(args)
    w = _labeling_arg(args, forest)
    series = verify.partition_lhs_series(forest, w, args.degree)
    closed = formulas.rhs_partition_gf(forest, w, args.degree)
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
    reports = []
    for n in range(args.max_n + 1):
        reports.append(verify.check_psi(n))
    for n in range(args.max_n + 1):
        for forest in enumerate_forests(n):
            reports.append(verify.check_mirror(forest))
    failed = False
    for report in reports:
        if args.format == "records":
            print(json.dumps(report.to_record()))
        else:
            print(report.summary())
        failed = failed or not report.passed
    return 1 if failed else 0


def cmd_counterexample(args) -> int:
    result = verify.counterexample_search(args.stat, args.vs, args.mode,
                                          args.max_n, jobs=args.jobs)
    if args.format == "records":
        if result is None:
            print(json.dumps({"witness": None}))
        else:
            forest, da, db = result
            print(json.dumps({
                "witness": forest.render(),
                "stat": args.stat,
                "vs": args.vs,
                "mode": args.mode,
                "dist_stat": da.to_triples(),
                "dist_vs": db.to_triples(),
            }))
    else:
        if result is None:
            print(f"none: {args.stat} and {args.vs} agree on every forest "
                  f"up to size {args.max_n}")
        else:
            forest, da, db = result
            print(f"witness: {forest.render()}")
            print(f"{args.stat}: {da.render()}")
            print(f"{args.vs}: {db.render()}")
    return 0


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
    p.add_argument("--mode", choices=("ordinary", "signed", "even-signed"),
                   default="signed")
    p.add_argument("--aux", default=None, help="statistic tracked in the t variable")
    add_common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("rhs", help="closed-form polynomial of a theorem")
    p.add_argument("--forest", required=True)
    p.add_argument("--theorem", required=True,
                   help=f"one of: {', '.join(sorted(formulas.FOREST_RHS) + sorted(formulas.SIZE_RHS))}")
    add_common(p)
    p.set_defaults(func=cmd_rhs)

    p = sub.add_parser("check", help="verify one identity on one forest")
    p.add_argument("--forest", required=True)
    p.add_argument("--theorem", required=True,
                   help=f"one of: {', '.join(verify.THEOREM_IDS)}")
    p.add_argument("--degree", type=int, default=10,
                   help="truncation degree for series-based checks")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="verify one identity on all forests up to a size")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--theorem", required=True)
    p.add_argument("--degree", type=int, default=10)
    p.add_argument("--jobs", type=int, default=_default_jobs())
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
    p.add_argument("--mode", choices=("ordinary", "signed", "even-signed"),
                   default="signed")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=_default_jobs())
    add_common(p)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ForestParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
