"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  Each test prints its line before asserting, so a
red criterion still reports itself.
"""

import itertools
import json
import pathlib
import time

from hookforest import formulas, stats, verify
from hookforest.forest import (chain_forest, comparable_pairs, enumerate_forests,
                               enumerate_labelings, enumerate_words, parse_forest)
from hookforest.qpoly import BiPoly, q_factorial

GOLDEN = pathlib.Path(__file__).parent / "golden"


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(label, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {label}: {status} ({elapsed:.2f}s)"
    if budget is not None:
        line += f" [budget {budget}s]"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, line


def _histogram(pairs):
    terms = {}
    for key in pairs:
        terms[key] = terms.get(key, 0) + 1
    return BiPoly(terms)


def _plain_forest_partitions(forest, max_total):
    # vertex maps of weight <= max_total that weakly increase toward the leaves
    pairs = comparable_pairs(forest)
    return [f for f in itertools.product(range(max_total + 1), repeat=forest.n)
            if sum(f) <= max_total and all(f[a - 1] <= f[b - 1] for a, b in pairs)]


def test_criterion_01_permutation_inv_maj():
    with _Timer() as t:
        ok = True
        for n in range(8):
            perms = list(itertools.permutations(range(1, n + 1)))
            by_inv = _histogram((0, stats.inv(s)) for s in perms)
            by_maj = _histogram((0, stats.maj(s)) for s in perms)
            ok = ok and by_inv == q_factorial(n) == by_maj
    _report("1 (inv and maj over permutations equal [n]!, n<=7)", ok, t.elapsed, 5)


def test_criterion_02_ordinary_hook_formula():
    with _Timer() as t:
        reports = verify.sweep("thm-bw", 6)
        ok = all(r.passed for r in reports) and len(reports) == 197
    _report("2 (ordinary-labeling hook formula, every forest n<=6)", ok, t.elapsed, 30)


def test_criterion_03_length_generating_functions():
    with _Timer() as t:
        ok = True
        for n in range(8):
            by_len_b = _histogram((0, stats.len_b(s))
                                  for s in enumerate_words(n, "signed"))
            ok = ok and by_len_b == verify.closed_form("len-b", chain_forest(n))
            by_len_d = _histogram((0, stats.len_d(s))
                                  for s in enumerate_words(n, "even-signed"))
            ok = ok and by_len_d == verify.closed_form("len-d", chain_forest(n))
    _report("3 (signed and even-signed length generating functions, n<=7)",
            ok, t.elapsed)


def test_criterion_04_signed_hook_formulas():
    with _Timer() as t:
        ok = True
        for theorem in ("thm-inv-b", "thm-fmaj", "thm-rmaj"):
            reports = verify.sweep(theorem, 5)
            ok = ok and all(r.passed for r in reports)
    _report("4 (inv-b, fmaj and rmaj distributions, every forest n<=5)",
            ok, t.elapsed, 60)


def test_criterion_05_even_signed_hook_formula():
    with _Timer() as t:
        reports = verify.sweep("thm-inv-d", 5)
        ok = all(r.passed for r in reports)
    _report("5 (inv-d distribution over even-signed labelings, n<=5)", ok, t.elapsed)


def test_criterion_06_bivariate_formulas_and_cancellation():
    with _Timer() as t:
        ok = True
        for theorem in ("thm-bivariate-inv", "thm-bivariate-majB"):
            reports = verify.sweep(theorem, 5)
            ok = ok and all(r.passed for r in reports)
        reports = verify.sweep("eq-even-odd", 5)
        ok = ok and all(r.passed for r in reports)
        ok = ok and reports[0].forest == "()"  # starts at size 1
    _report("6 (bivariate distributions and the t=-1 cancellation, n<=5)",
            ok, t.elapsed)


def test_criterion_07_extension_generating_function():
    with _Timer() as t:
        reports = verify.sweep("thm-le1", 5)
        ok = all(r.passed for r in reports)
    _report("7 (maj-b over linear extensions, every signed labeling n<=5)",
            ok, t.elapsed)


def test_criterion_08_partition_machinery():
    with _Timer() as t:
        ok = all(r.passed for r in verify.sweep("lem-partition-gf", 5, degree=10))
        for n in range(4):
            for forest in enumerate_forests(n):
                for w in enumerate_labelings(forest, "signed"):
                    ok = ok and verify.check_decomposition_dec1(forest, w, 10).passed
                    ok = ok and verify.check_partition_shift(forest, w, 10).passed
                # order-reversing all-negative labeling: no descents, the
                # partition set is unconstrained (only the weak increase
                # toward leaves), the series is the hook product
                w_neg = tuple(-v for v in range(1, n + 1))
                ok = ok and stats.maj_b_forest(forest, w_neg) == 0
                ok = ok and (list(verify.enumerate_partitions(forest, w_neg, 10))
                             == _plain_forest_partitions(forest, 10))
                ok = ok and (verify.partition_lhs_series(forest, w_neg, 10)
                             == formulas.rhs_partition_gf(forest, w_neg, 10))
    _report("8 (partition series n<=5; dec1 split, shift bijection, "
            "all-negative specialization, n<=3)", ok, t.elapsed)


def test_criterion_09_bijections():
    with _Timer() as t:
        ok = True
        for n in range(8):
            ok = ok and verify.check_theorem(chain_forest(n), "psi").passed
        ok = ok and all(report.passed for report in verify.sweep("mirror", 6))
    _report("9 (value-reversal bijection n<=7; label mirror on every unordered "
            "forest n<=6)", ok, t.elapsed)


def test_criterion_10_coset_identity():
    with _Timer() as t:
        ok = True
        for n in range(6):
            for forest in enumerate_forests(n):
                ok = ok and verify.check_theorem(forest, "eq-coset-fmaj").passed
    _report("10 (fmaj coset splitting identity, every forest n<=5)", ok, t.elapsed)


def test_criterion_11_counterexamples():
    with _Timer() as t:
        ok = True
        for name, stat, vs, mode in (
                ("counterexample_nmaj_vs_inv_b.json", "nmaj-f", "inv-b-f", "signed"),
                ("counterexample_dmaj_vs_inv_d.json", "dmaj-f", "inv-d-f", "even-signed")):
            golden = json.loads((GOLDEN / name).read_text())
            found = verify.counterexample_search(stat, vs, mode, 5)
            ok = ok and found is not None
            if found:
                forest, da, db = found
                ok = ok and forest.n <= 5
                ok = ok and forest.render() == golden["witness"]
                ok = ok and da == BiPoly.from_triples(golden["dist_stat"])
                ok = ok and db == BiPoly.from_triples(golden["dist_vs"])
                ok = ok and da != db
    _report("11 (nmaj and dmaj counterexample witnesses of size <=5)", ok, t.elapsed)


def test_criterion_12_property_suite():
    chain_pairs = [
        (stats.FOREST_STATS[forest_id], stats.PERM_STATS[word_id])
        for forest_id, word_id in [
            ("inv-f", "inv"), ("maj-f", "maj"), ("n1-f", "n1"), ("n2-f", "n2"),
            ("inv-b-f", "len-b"), ("fmaj-f", "fmaj"), ("maj-b-f", "maj-b"),
            ("p-f", "p"), ("rmaj-f", "rmaj"), ("nmaj-f", "nmaj"), ("dmaj-f", "dmaj")]
    ]
    inv_b, inv_d = stats.FOREST_STATS["inv-b-f"], stats.FOREST_STATS["inv-d-f"]
    with _Timer() as t:
        ok = True
        for n in range(7):
            forest = chain_forest(n)
            for w in enumerate_labelings(forest, "signed"):
                word = tuple(reversed(w))
                for forest_fn, word_fn in chain_pairs:
                    ok = ok and forest_fn(forest, w) == word_fn(word)
            for w in enumerate_labelings(forest, "even-signed"):
                ok = ok and inv_d(forest, w) == stats.len_d(tuple(reversed(w)))
        for n in range(7):
            for sigma in enumerate_words(n, "signed"):
                ok = ok and (-sum(v for v in sigma if v < 0)
                             == stats.n1(sigma) + stats.n2(sigma))
        for n in range(1, 6):
            for forest in enumerate_forests(n):
                if len(forest.roots) != 1:
                    continue
                # the root's children become the roots
                inner = parse_forest(forest.render()[1:-1])
                for w in enumerate_labelings(forest, "signed"):
                    base = inv_b(inner, w[1:])
                    if w[0] > 0:
                        ok = ok and inv_b(forest, w) == base + n - w[0]
                    else:
                        ok = ok and inv_b(forest, w) == base + n - 1 - w[0]
    _report("12 (chain reduction n<=6, negative-sum identity n<=6, "
            "root-removal recursion n<=5)", ok, t.elapsed)
