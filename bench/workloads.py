"""The benchmark's workloads: seeded inputs, the operations that run on
them, and the checks on every output.

An operation is one call into hookforest that yields a verdict: a CLI
invocation in ``--format records`` where a command fits, otherwise a
call to the public ``verify``/``formulas`` functions.  Each returns an
``Outcome``; the runner times it and counts it as failed when it
raises, reports a failure, or its output does not check out.

Expected values are computed here, independently of the library:
labeling counts, hook lengths and extension counts come from the paren
strings, closed forms are checked by their value at t = q = 1, and the
counterexample witnesses come from ``tests/golden/``.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from hookforest import cli, formulas, verify
from hookforest import forest as hf_forest

DIST_THEOREMS = ("thm-inv-b", "thm-fmaj", "thm-rmaj", "thm-inv-d",
                 "thm-bivariate-inv", "thm-bivariate-majB")
SIZE_IDS = ("eq-reiner", "len-b", "len-d")
THEOREM_IDS = ("thm-bw", "thm-inv-b", "thm-inv-d", "thm-fmaj", "thm-rmaj",
               "thm-bivariate-inv", "thm-bivariate-majB", "thm-le1",
               "lem-partition-gf", "eq-reiner", "len-b", "len-d",
               "eq-even-odd", "eq-coset-fmaj")
RHS_IDS = ("thm-bw", "thm-inv-b", "thm-inv-d", "thm-fmaj", "thm-rmaj",
           "thm-bivariate-inv", "thm-bivariate-majB") + SIZE_IDS

# sign modes of the labelings (or signed words) each check enumerates,
# one entry per distribution it certifies
COVERED = {
    "thm-bw": ("ordinary", "ordinary"), "thm-inv-b": ("signed",),
    "thm-fmaj": ("signed",), "thm-rmaj": ("signed",),
    "thm-inv-d": ("even-signed",), "thm-bivariate-inv": ("signed",),
    "thm-bivariate-majB": ("signed",), "thm-le1": ("signed",),
    "lem-partition-gf": ("signed",), "eq-even-odd": ("signed",),
    "eq-coset-fmaj": ("signed",), "eq-reiner": ("signed", "signed"),
    "len-b": ("signed",), "len-d": ("even-signed",),
}
# checks whose lhs is a plain distribution over the labelings of one
# mode; their closed forms count the same labelings at t = q = 1
TOTAL_MODE = {"thm-bw": "ordinary", "thm-inv-b": "signed", "thm-fmaj": "signed",
              "thm-rmaj": "signed", "thm-inv-d": "even-signed",
              "thm-bivariate-inv": "signed", "thm-bivariate-majB": "signed",
              "eq-reiner": "signed", "len-b": "signed", "len-d": "even-signed"}

DEGREE = 10
GOLDEN = (("nmaj-f", "inv-b-f", "signed", "counterexample_nmaj_vs_inv_b.json"),
          ("dmaj-f", "inv-d-f", "even-signed", "counterexample_dmaj_vs_inv_d.json"))


class CheckFailed(Exception):
    """An output did not match what the benchmark expects."""


@dataclass
class Outcome:
    output: str = ""
    labelings: int = 0      # labelings (or signed words) covered by passed checks
    partitions: int = 0     # type-B partition members certified


@dataclass
class Op:
    key: str                              # operation id, also the trace check id
    run: Callable[[], Outcome]
    jobs: int = 0                         # 1 or 2 for the paired sweeps
    same_as: Optional[str] = None         # op whose output must be byte-identical


# ---------------------------------------------------------------------------
# independent combinatorics


def labeling_count(n: int, mode: str) -> int:
    f = math.factorial(n)
    if mode == "ordinary":
        return f
    if mode == "signed":
        return 2 ** n * f
    return 2 ** (n - 1) * f if n else 1


def balanced(n: int) -> list[str]:
    """Every paren encoding of a plane forest on n vertices, lexicographic."""
    out = []

    def rec(prefix: str, opens: int, unclosed: int) -> None:
        if not opens and not unclosed:
            out.append(prefix)
            return
        if opens:
            rec(prefix + "(", opens - 1, unclosed + 1)
        if unclosed:
            rec(prefix + ")", opens, unclosed - 1)

    rec("", n, 0)
    return out


def hooks(paren: str) -> list[int]:
    """Subtree sizes of the vertices, in preorder."""
    sizes, stack = [], []
    for ch in paren:
        if ch == "(":
            stack.append(len(sizes))
            sizes.append(0)
        else:
            v = stack.pop()
            sizes[v] = len(sizes) - v
    return sizes


def extension_count(paren: str) -> int:
    h = hooks(paren)
    return math.factorial(len(h)) // math.prod(h)


def random_labeling(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(v if rng.random() < 0.5 else -v for v in values)


def coeff_sum(triples) -> int:
    return sum(c for _, _, c in triples)


# ---------------------------------------------------------------------------
# running the CLI and checking its records


def run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:   # argparse usage errors
        code = exc.code
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue()


def records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def check_report(rec: dict, theorem: str, forest_label: str) -> int:
    """Validate one CheckReport record; returns the labelings it covers."""
    if rec["theorem"] != theorem or rec["forest"] != forest_label:
        raise CheckFailed(f"record is for {rec['theorem']} {rec['forest']}")
    if rec["pass"] is not True or rec["witness"] is not None:
        raise CheckFailed(f"{theorem} {forest_label} failed: {rec['witness']}")
    if rec["lhs"] != rec["rhs"]:
        raise CheckFailed(f"{theorem} {forest_label}: lhs and rhs differ")
    n = int(forest_label[2:]) if forest_label.startswith("n=") else len(forest_label) // 2
    if theorem in TOTAL_MODE and coeff_sum(rec["lhs"]) != labeling_count(n, TOTAL_MODE[theorem]):
        raise CheckFailed(f"{theorem} {forest_label}: lhs does not count every labeling")
    if theorem == "thm-le1" and coeff_sum(rec["lhs"]) != (
            labeling_count(n, "signed") * extension_count(forest_label)):
        raise CheckFailed(f"thm-le1 {forest_label}: wrong number of extensions")
    return sum(labeling_count(n, mode) for mode in COVERED[theorem])


def check_op(paren: str, theorem: str) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out = run_cli(["check", "--forest", paren, "--theorem", theorem,
                       "--degree", str(DEGREE), "--format", "records"])
        (rec,) = records(out)
        label = f"n={len(paren) // 2}" if theorem in SIZE_IDS else paren
        return Outcome(out, check_report(rec, theorem, label))
    return run


def sweep_op(theorem: str, max_n: int, jobs: int) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out = run_cli(["sweep", "--max-n", str(max_n), "--theorem", theorem,
                       "--degree", str(DEGREE), "--jobs", str(jobs),
                       "--format", "records"])
        recs = records(out)
        if theorem in SIZE_IDS:
            labels = [f"n={n}" for n in range(max_n + 1)]
        else:
            start = 1 if theorem == "eq-even-odd" else 0
            labels = [p for n in range(start, max_n + 1) for p in balanced(n)]
        if [r["forest"] for r in recs] != labels:
            raise CheckFailed(f"sweep {theorem}: records are not in canonical order")
        return Outcome(out, sum(check_report(r, theorem, r["forest"]) for r in recs))
    return run


def counterexample_op(root: Path, stat: str, vs: str, mode: str,
                      golden_file: str) -> Callable[[], Outcome]:
    golden = json.loads((root / "tests" / "golden" / golden_file).read_text())

    def run() -> Outcome:
        out = run_cli(["counterexample", "--stat", stat, "--vs", vs, "--mode", mode,
                       "--max-n", str(golden["max_n"]), "--jobs", "1",
                       "--format", "records"])
        (rec,) = records(out)
        for key in ("witness", "dist_stat", "dist_vs"):
            if rec[key] != golden[key]:
                raise CheckFailed(f"counterexample {stat} vs {vs}: {key} differs from golden")
        return Outcome(out)
    return run


def rhs_op(forest_arg: str, n: int, theorem: str) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out = run_cli(["rhs", "--forest", forest_arg, "--theorem", theorem,
                       "--format", "records"])
        (rec,) = records(out)
        if any(c <= 0 for _, _, c in rec["poly"]):
            raise CheckFailed(f"rhs {theorem}: nonpositive coefficient")
        if coeff_sum(rec["poly"]) != labeling_count(n, TOTAL_MODE[theorem]):
            raise CheckFailed(f"rhs {theorem} on {forest_arg}: wrong value at q = 1")
        return Outcome(out)
    return run


def linext_op(paren: str, labeling: tuple[int, ...]) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out = run_cli(["linext", "--forest", paren,
                       "--labeling=" + ",".join(map(str, labeling)),
                       "--format", "records"])
        (rec,) = records(out)
        words = [tuple(e["word"]) for e in rec["extensions"]]
        if (rec["pass"] is not True or rec["sum"] != rec["closed_form"]
                or len(set(words)) != extension_count(paren)
                or any(sorted(w) != sorted(labeling) for w in words)
                or coeff_sum(rec["sum"]) != len(words)):
            raise CheckFailed(f"linext {paren} {labeling}: wrong extensions")
        return Outcome(out, 1)
    return run


def bijections_op(max_n: int) -> Callable[[], Outcome]:
    def run() -> Outcome:
        out = run_cli(["bijections", "--max-n", str(max_n), "--format", "records"])
        recs = records(out)
        forests = [p for n in range(max_n + 1) for p in balanced(n)]
        if len(recs) != max_n + 1 + len(forests) or not all(r["pass"] is True for r in recs):
            raise CheckFailed("bijections: a check failed or is missing")
        covered = sum(labeling_count(n, "signed") for n in range(max_n + 1))
        covered += sum(labeling_count(len(p) // 2, "signed") for p in forests)
        return Outcome(out, covered)
    return run


def partition_ops(key: str, paren: str, w: tuple[int, ...]) -> list[Op]:
    f = hf_forest.parse_forest(paren)

    def series() -> Outcome:
        lhs = verify.partition_lhs_series(f, w, DEGREE)
        rhs = formulas.rhs_partition_gf(f, w, DEGREE)
        if lhs != rhs:
            raise CheckFailed(f"series {paren} {w}: lhs differs from the closed form")
        members = coeff_sum(lhs.poly.to_triples())
        if members < 1:
            raise CheckFailed(f"series {paren} {w}: no partitions")
        return Outcome(labelings=1, partitions=members)

    def dec1() -> Outcome:
        report = verify.check_decomposition_dec1(f, w, DEGREE)
        if not report.passed:
            raise CheckFailed(f"dec1 {paren} {w}: {report.witness}")
        return Outcome(labelings=1)

    def shift() -> Outcome:
        report = verify.check_partition_shift(f, w, DEGREE)
        if not report.passed:
            raise CheckFailed(f"shift {paren} {w}: {report.witness}")
        return Outcome(labelings=1)

    return [Op(f"{key}/series", series), Op(f"{key}/dec1", dec1),
            Op(f"{key}/shift", shift)]


def paired_sweep(theorem: str, max_n: int, rounds: int = 1) -> list[Op]:
    """The same sweep at jobs 1 and jobs 2, ``rounds`` times in ABBA
    order; every output must be byte-identical to the first."""
    key = f"sweep/{theorem}/{max_n}"
    first = f"{key}/0/j1"
    ops = []
    for r in range(rounds):
        for jobs in ((1, 2) if r % 2 == 0 else (2, 1)):
            k = f"{key}/{r}/j{jobs}"
            ops.append(Op(k, sweep_op(theorem, max_n, jobs), jobs=jobs,
                          same_as=None if k == first else first))
    return ops


# ---------------------------------------------------------------------------
# workloads


def signed_sweep(seed: int, root: Path) -> list[Op]:
    """Forest-level distribution theorems: every labeling of each forest.

    Sizes 5 and 6 take the chain, the all-roots forest and seeded
    shapes (ten of size 5, which set check_ms.p50, one of size 6) under
    all six theorems; size 7 takes only the chain under thm-inv-b, the
    hardest shape for an ancestor-chain engine, since one size-7 check
    costs 2-5 s today.  A fixed sweep runs at jobs 1 and jobs 2 four
    times, spread over the pass: under the interpreter lock one pair's
    ratio varies by +-20%, so speedup_j2 needs many pairs.  Last, both
    golden counterexamples.
    """
    rng = random.Random(seed)
    checks = []
    for n, seeded in ((5, 10), (6, 1)):
        chain, roots = "(" * n + ")" * n, "()" * n
        others = [p for p in balanced(n) if p not in (chain, roots)]
        for paren in [chain, roots] + rng.sample(others, seeded):
            for theorem in DIST_THEOREMS:
                checks.append(Op(f"check/{theorem}/{paren}", check_op(paren, theorem)))
    chain7 = "(" * 7 + ")" * 7
    checks.append(Op(f"check/thm-inv-b/{chain7}", check_op(chain7, "thm-inv-b")))
    rounds = 4
    sweeps = paired_sweep("thm-inv-b", 5, rounds)
    step = -(-len(checks) // rounds)
    ops = []
    for r in range(rounds):
        ops += checks[r * step:(r + 1) * step] + sweeps[2 * r:2 * r + 2]
    for stat, vs, mode, name in GOLDEN:
        ops.append(Op(f"counterexample/{stat}", counterexample_op(root, stat, vs, mode, name)))
    return ops


def partition_series(seed: int, root: Path) -> list[Op]:
    """Type-B partition series, the dec1 split and the shift bijection at
    degree 10, on three seeded signed labelings of every forest of size
    3 and 4, then the lem-partition-gf sweep at jobs 1 and jobs 2."""
    rng = random.Random(seed)
    ops = []
    for n in (3, 4):
        for paren in balanced(n):
            for i in range(3):
                w = random_labeling(rng, n)
                ops += partition_ops(f"partition/{paren}/{i}", paren, w)
    ops += paired_sweep("lem-partition-gf", 3)
    return ops


def small_checks(seed: int, root: Path) -> list[Op]:
    """Many cheap CLI calls: every theorem id by check and by sweep,
    linext, closed forms up to n = 10, bijections and counterexamples."""
    rng = random.Random(seed)
    ops = []
    size3 = balanced(3)
    for theorem in THEOREM_IDS:
        for paren in rng.sample(size3, 2):
            ops.append(Op(f"check/{theorem}/{paren}", check_op(paren, theorem)))
    for theorem in SIZE_IDS:
        paren = rng.choice(balanced(5))
        ops.append(Op(f"check/{theorem}/{paren}", check_op(paren, theorem)))
    for theorem in THEOREM_IDS:
        ops += paired_sweep(theorem, 4 if theorem in SIZE_IDS else 3)
    for i, paren in enumerate(rng.sample(balanced(4), 4)):
        ops.append(Op(f"linext/{paren}/{i}", linext_op(paren, random_labeling(rng, 4))))
    for n in range(1, 11):
        parents = [rng.randrange(v) for v in range(1, n + 1)]
        arg = json.dumps(parents).replace(" ", "")
        for theorem in RHS_IDS:
            ops.append(Op(f"rhs/{theorem}/{arg}", rhs_op(arg, n, theorem)))
    ops.append(Op("bijections/3", bijections_op(3)))
    for stat, vs, mode, name in GOLDEN:
        ops.append(Op(f"counterexample/{stat}", counterexample_op(root, stat, vs, mode, name)))
    return ops


WORKLOADS = {"signed-sweep": signed_sweep, "partition-series": partition_series,
             "small-checks": small_checks}
