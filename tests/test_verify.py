import collections
import concurrent.futures
import dataclasses
import itertools
import json
import math
import os
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hookforest import chaindp, formulas, stats, verify
from hookforest.forest import (MODES, canonical_form, chain_forest,
                               enumerate_forests, enumerate_labelings,
                               enumerate_words, forest_from_parents,
                               hook_lengths, labeling_orbits, parse_forest)
from hookforest.qpoly import BiPoly, Series, q_number

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_distribution_examples():
    dot = parse_forest("()")
    assert verify.distribution(dot, "inv-b-f", "signed") == q_number(2)
    assert verify.distribution(dot, "rmaj-f", "signed") == q_number(2)
    chain2 = chain_forest(2)
    # eight signed labelings, tallied by hand
    assert verify.distribution(chain2, "nmaj-f", "signed") == BiPoly.from_triples(
        [[0, 0, 1], [0, 1, 2], [0, 2, 2], [0, 3, 2], [0, 4, 1]])


def test_distribution_accepts_aliases_and_callables():
    chain2 = chain_forest(2)
    assert (verify.distribution(chain2, "inv-b", "signed")
            == verify.distribution(chain2, "inv-b-f", "signed")
            == verify.distribution(chain2, stats.FOREST_STATS["inv-b-f"], "signed"))


def test_distribution_mode_compatibility():
    chain2 = chain_forest(2)
    with pytest.raises(ValueError):
        verify.distribution(chain2, "inv-d-f", "signed")
    with pytest.raises(ValueError):
        verify.distribution(chain2, "inv-b-f", "signed", aux="inv-d")
    with pytest.raises(KeyError):
        verify.distribution(chain2, "nope", "signed")
    assert verify.distribution(chain2, "inv-d-f", "even-signed") == q_number(2) ** 2


def test_inv_d_on_ordinary_labelings_is_inv():
    # no negative labels: ordinary labelings are even-signed and n2 vanishes
    for n in range(5):
        for forest in enumerate_forests(n):
            assert (verify.distribution(forest, "inv-d", "ordinary")
                    == verify.distribution(forest, "inv", "ordinary"))


def test_distribution_with_aux():
    dot = parse_forest("()")
    d = verify.distribution(dot, "inv-b-f", "signed", aux="n1-f")
    assert d == BiPoly({(0, 0): 1, (1, 1): 1})


def test_check_theorem_reports():
    report = verify.check_theorem(parse_forest("()"), "thm-inv-b")
    assert report.passed
    assert report.lhs == q_number(2) == report.rhs
    assert report.witness is None
    assert report.to_record()["lhs"] == [[0, 0, 1], [0, 1, 1]]
    assert "PASS" in report.summary()

    report = verify.check_theorem(parse_forest("(()())"), "thm-fmaj")
    assert report.passed
    assert report.rhs == 2 * q_number(6) * q_number(2) * q_number(2)

    report = verify.check_theorem(chain_forest(2), "thm-bivariate-majB")
    assert report.passed
    assert report.rhs == BiPoly({(0, 0): 1, (1, 1): 1}) ** 2 * q_number(2)


def test_check_theorem_unknown_id():
    with pytest.raises(KeyError):
        verify.check_theorem(parse_forest("()"), "thm-nope")


def test_negative_degree_is_refused_after_the_id_check():
    with pytest.raises(KeyError):
        verify.check_theorem(parse_forest("()"), "thm-nope", degree=-2)
    with pytest.raises(KeyError):
        verify.sweep("thm-nope", 1, degree=-2)
    # refused for every theorem, not only when a series check is reached
    with pytest.raises(ValueError, match="^degree must be nonnegative, got -2$"):
        verify.check_theorem(parse_forest("(())"), "thm-inv-b", degree=-2)
    with pytest.raises(ValueError, match="^degree must be nonnegative, got -2$"):
        verify.sweep("len-b", 1, degree=-2)


@pytest.mark.parametrize("theorem", ["thm-bw", "thm-inv-b", "thm-inv-d",
                                     "thm-fmaj", "thm-rmaj",
                                     "thm-bivariate-inv", "thm-bivariate-majB"])
def test_distribution_theorems_small(theorem):
    for n in range(4):
        for forest in enumerate_forests(n):
            assert verify.check_theorem(forest, theorem).passed


# the rows with a closed form whose left-hand sides are distributions
# alone; the bijection rows also test a fault on every labeling orbit
DIST_THEOREMS = [t for t, row in verify.THEOREMS.items()
                 if row.scope == "forest" and row.rhs and row.fault is None]


@pytest.mark.slow
@pytest.mark.parametrize("theorem", DIST_THEOREMS)
@pytest.mark.parametrize("n", [6, 7])
def test_distribution_theorems_exhaustive(n, theorem):
    for forest in enumerate_forests(n):
        report = verify.check_theorem(forest, theorem)
        assert report.passed, report.summary()


def test_linext_theorem_small():
    for n in range(4):
        for forest in enumerate_forests(n):
            assert verify.check_theorem(forest, "thm-le1").passed


def test_labeled_witness_names_the_first_failing_labeling(monkeypatch):
    # closed forms broken on the labelings with a positive root label;
    # on the chain (-2, -1), (-2, 1), (-1, -2), (-1, 2) come first
    chain2 = chain_forest(2)
    linext, series = formulas.rhs_linext, formulas.rhs_partition_gf
    extra = BiPoly.term(1, q=5)
    monkeypatch.setattr(formulas, "rhs_linext",
                        lambda f, w: linext(f, w) + (extra if w[0] > 0 else 0))
    report = verify.check_theorem(chain2, "thm-le1")
    assert not report.passed
    assert report.witness == "labeling (1, -2): coefficient of t^0*q^5: lhs 0, rhs 1"
    # the failing labeling's own sides, not running totals
    assert report.lhs == BiPoly.term(1, q=2) == linext(chain2, (1, -2))
    assert report.rhs == report.lhs + extra

    extra = BiPoly.term(1, q=2)
    monkeypatch.setattr(formulas, "rhs_partition_gf", lambda f, w, d: Series(
        series(f, w, d).poly + (extra if w[0] > 0 else 0), d))
    report = verify.check_theorem(chain2, "lem-partition-gf", degree=4)
    assert not report.passed
    assert report.witness == "labeling (1, -2): coefficient of t^0*q^2: lhs 1, rhs 2"
    assert report.lhs == verify.partition_lhs_series(chain2, (1, -2), 4)
    assert report.rhs == Series(report.lhs.poly + extra, 4)


@pytest.mark.parametrize("theorem, degree, sizes", [
    ("thm-le1", 10, range(5)),
    ("lem-partition-gf", 6, range(5)),
    ("lem-partition-gf", 10, range(4)),
    pytest.param("lem-partition-gf", 10, [4], marks=pytest.mark.slow),
])
def test_labeled_rows_are_constant_on_labeling_orbits(theorem, degree, sizes):
    pair = verify.THEOREMS[theorem].lhs
    for n in sizes:
        for forest in enumerate_forests(n):
            every = collections.Counter(pair(forest, w, degree)
                                        for w in enumerate_labelings(forest, "signed"))
            weighted = collections.Counter()
            for w, weight in labeling_orbits(forest):
                weighted[pair(forest, w, degree)] += weight
            assert every == weighted, (theorem, forest)


def test_labeled_witness_is_rescanned_past_orbit_representatives(monkeypatch):
    # ()() swaps its roots; a fault on a positive first label breaks that
    # symmetry, so the orbit of (1, -2), represented by (-2, 1), passes,
    # and the failing orbit of (1, 2) sends the check back to (1, -2)
    forest = parse_forest("()()")
    assert (1, -2) not in {w for w, _ in labeling_orbits(forest)}
    linext, series = formulas.rhs_linext, formulas.rhs_partition_gf
    extra = BiPoly.term(1, q=5)
    monkeypatch.setattr(formulas, "rhs_linext",
                        lambda f, w: linext(f, w) + (extra if w[0] > 0 else 0))
    report = verify.check_theorem(forest, "thm-le1")
    assert report.witness == "labeling (1, -2): coefficient of t^0*q^5: lhs 0, rhs 1"
    assert report.lhs == linext(forest, (1, -2))
    assert report.rhs == report.lhs + extra

    extra = BiPoly.term(1, q=2)
    monkeypatch.setattr(formulas, "rhs_partition_gf", lambda f, w, d: Series(
        series(f, w, d).poly + (extra if w[0] > 0 else 0), d))
    report = verify.check_theorem(forest, "lem-partition-gf", degree=4)
    assert report.witness == "labeling (1, -2): coefficient of t^0*q^2: lhs 2, rhs 3"
    assert report.lhs == verify.partition_lhs_series(forest, (1, -2), 4)
    assert report.rhs == Series(report.lhs.poly + extra, 4)


def test_mirror_tests_are_constant_on_labeling_orbits():
    # _mirror_fault's four tests read these values alone
    fs = stats.FOREST_STATS

    def values(forest, w):
        w2 = verify.mirror_labeling(forest, w)
        return (fs["rmaj-f"](forest, w), fs["fmaj-f"](forest, w2),
                fs["maj-b-f"](forest, w), fs["maj-f"](forest, w2), fs["p-f"](forest, w),
                fs["n1-f"](forest, w2), verify.mirror_labeling(forest, w2) == w)

    for n in range(5):
        for forest in enumerate_forests(n):
            every = collections.Counter(values(forest, w) for w in enumerate_labelings(forest))
            weighted = collections.Counter()
            for w, weight in labeling_orbits(forest):
                weighted[values(forest, w)] += weight
            assert every == weighted, forest


def test_psi_tests_are_constant_on_labeling_orbits():
    # _psi_fault's two tests read these values alone, and a signed word is
    # a labeling of the chain
    def values(sigma):
        tau = verify.psi_bijection(sigma)
        return (verify.psi_bijection(tau) == sigma, stats.maj_b(sigma), stats.maj_r(tau),
                stats.p(sigma), stats.n1(tau))

    for n in range(6):
        every = collections.Counter(map(values, enumerate_words(n, "signed")))
        weighted = collections.Counter()
        for sigma, weight in labeling_orbits(chain_forest(n)):
            weighted[values(sigma)] += weight
        assert every == weighted, n


def test_mirror_witness_is_rescanned_past_orbit_representatives(monkeypatch):
    # fmaj broken on a negative first label, so on the labelings whose
    # mirror has one: those with a positive first label.  The orbit of
    # (1, -2), represented by (-2, 1), passes, and the failing orbit of
    # (1, 2) sends the check back to (1, -2)
    forest = parse_forest("()()")
    assert (1, -2) not in {w for w, _ in labeling_orbits(forest)}
    fmaj = stats.FOREST_STATS["fmaj-f"]
    monkeypatch.setitem(stats.FOREST_STATS, "fmaj-f", lambda f, w: fmaj(f, w) + (w[0] < 0))
    report = verify.check_theorem(forest, "mirror")
    assert not report.passed
    assert report.witness == "labeling (1, -2): rmaj 1 != fmaj 2 of the mirror"


def test_psi_fault_in_the_tally_reports_no_sides(monkeypatch):
    # psi's fault rides the walk that tallies its sides.  One inversion is
    # constant on sign-order patterns, and the scan, all-positive words
    # first, meets it at its second orbit, (1, 3, 2), once the tally has
    # begun; the lexicographic re-scan goes on to (-3, -1, -2), which
    # lies in an orbit the scan had not reached.  (On the chain each
    # orbit's first word is its representative, so the witness is one.)
    monkeypatch.setattr(verify, "_psi_fault", lambda chain, sigma: (
        f"sigma={sigma}: one inversion" if stats.inv(sigma) == 1 else None))
    assert [w for w, _ in itertools.islice(labeling_orbits(chain_forest(3)), 2)] == [
        (1, 2, 3), (1, 3, 2)]
    assert verify.check_theorem(chain_forest(3), "psi") == verify.CheckReport(
        "psi", "n=3", None, None, False, "sigma=(-3, -1, -2): one inversion")


def test_pattern_rows_walk_the_orbits_once(monkeypatch):
    # psi's fault and sides share one walk, eq-reiner's sides take one,
    # and rows with no fault and no pattern sides take none
    calls = []
    orbits = verify.labeling_orbits
    monkeypatch.setattr(verify, "labeling_orbits", lambda f: calls.append(f) or orbits(f))
    for theorem, walks in (("psi", 1), ("eq-reiner", 1), ("len-b", 0), ("len-d", 0),
                           ("thm-inv-b", 0)):
        calls.clear()
        assert verify.check_theorem(chain_forest(5), theorem).passed
        assert len(calls) == walks, theorem


def test_labeled_check_keeps_no_value_per_orbit():
    # ((())())() has a trivial automorphism group, so 720 orbits; the
    # labeled sides are added into one running total as the scan goes
    forest = parse_forest("((())())()")
    verify.check_theorem(forest, "lem-partition-gf")  # warm the caches
    tracemalloc.start()
    try:
        assert verify.check_theorem(forest, "lem-partition-gf").passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def summed(sides, degree):
    """The sum of the polynomials or series, the series added on .poly."""
    total = sum((getattr(side, "poly", side) for side in sides), BiPoly.zero())
    return Series(total, degree) if isinstance(sides[0], Series) else total


@pytest.mark.parametrize("theorem, degree", [
    ("thm-le1", 10), ("lem-partition-gf", 6), ("lem-partition-gf", 10)])
def test_labeled_totals_are_the_sums_over_every_labeling(theorem, degree):
    pair = verify.THEOREMS[theorem].lhs
    for n in range(5):
        for forest in enumerate_forests(n):
            report = verify.check_theorem(forest, theorem, degree=degree)
            assert report.passed, report.summary()
            lhs, rhs = zip(*(pair(forest, w, degree) for w in enumerate_labelings(forest)))
            assert (report.lhs, report.rhs) == (summed(lhs, degree), summed(rhs, degree))


@pytest.mark.slow
@pytest.mark.parametrize("theorem", ["thm-le1", "lem-partition-gf"])
def test_labeled_theorems_swept_to_n6(theorem):
    reports = verify.sweep(theorem, 6, jobs=2)
    assert len(reports) == sum(len(list(enumerate_forests(n))) for n in range(7))
    assert all(r.passed for r in reports), [r.summary() for r in reports if not r.passed]


def test_reiner_and_length_checks():
    for n in range(4):
        carrier = chain_forest(n)
        assert verify.check_theorem(carrier, "eq-reiner").passed
        assert verify.check_theorem(carrier, "len-b").passed
        assert verify.check_theorem(carrier, "len-d").passed


def test_reiner_sides_on_orbits_equal_the_word_pass(monkeypatch):
    # the sides check_theorem tallies on the chain's orbits, against the
    # word pass over every signed word
    tallied = []
    real = verify._distributions

    def recorded(objects, pairs):
        tallied.append(real(objects, pairs))
        return tallied[-1]

    monkeypatch.setattr(verify, "_distributions", recorded)
    pairs = [(stats.PERM_STATS[stat], stats.PERM_STATS[aux])
             for stat, aux in verify.THEOREMS["eq-reiner"].lhs]
    for n in range(7):
        tallied.clear()
        assert verify.check_theorem(chain_forest(n), "eq-reiner").passed
        words = zip(enumerate_words(n, "signed"), itertools.repeat(1))
        assert tallied == [real(words, pairs)], n


def test_only_rows_reading_n2_visit_every_word(monkeypatch):
    read = [0]
    real = verify.enumerate_words

    def counted(n, mode="signed"):
        for word in real(n, mode):
            read[0] += 1
            yield word

    monkeypatch.setattr(verify, "enumerate_words", counted)
    for theorem, words in (("eq-reiner", 0), ("len-b", 3840), ("len-d", 1920)):
        read[0] = 0
        assert verify.check_theorem(chain_forest(5), theorem).passed
        assert read[0] == words, theorem


def test_reiner_fails_a_pattern_invariant_maj_r_mutant(monkeypatch):
    # maj reads sign-order patterns alone, so the row still runs on orbits
    monkeypatch.setitem(stats.PERM_STATS, "maj-r", stats.maj)
    report = verify.check_theorem(chain_forest(3), "eq-reiner")
    assert not report.passed
    assert report.witness.startswith("(n1, maj-r) side: coefficient"), report.witness


def test_even_odd_cancellation():
    for text in ("()", "(())", "()()"):
        report = verify.check_theorem(parse_forest(text), "eq-even-odd")
        assert report.passed
        assert report.lhs.is_zero()
    with pytest.raises(ValueError):
        verify.check_even_odd(parse_forest(""))


def test_coset_identity_small():
    for n in range(4):
        for forest in enumerate_forests(n):
            assert verify.check_theorem(forest, "eq-coset-fmaj").passed


def test_coset_witness(monkeypatch):
    # with tau decreasing, w reverses u's comparisons: the descent of
    # u = (-2, -1) on the chain is an ascent of w = (2, 1)
    def decreasing(u):
        tau = tuple(sorted(u, reverse=True))
        return tau, tuple(tau.index(v) + 1 for v in u)

    monkeypatch.setattr(verify, "_coset_factors", decreasing)
    report = verify.check_theorem(chain_forest(2), "eq-coset-fmaj")
    assert not report.passed
    assert report.witness == "w=(2, 1), tau=(-1, -2): descent set changed"


def test_coset_witness_names_the_negative_count(monkeypatch):
    n1 = stats.n1_forest
    monkeypatch.setattr(stats, "n1_forest", lambda forest, w: n1(forest, w) + 1)
    report = verify.check_theorem(chain_forest(2), "eq-coset-fmaj")
    assert not report.passed
    assert report.witness == "w=(1, 2), tau=(-2, -1): negative count changed"


def test_coset_witness_names_the_fmaj_split(monkeypatch):
    fmaj = stats.FOREST_STATS["fmaj-f"]
    monkeypatch.setitem(stats.FOREST_STATS, "fmaj-f", lambda forest, w: fmaj(forest, w) + 1)
    report = verify.check_theorem(chain_forest(2), "eq-coset-fmaj")
    assert not report.passed
    assert report.witness == "w=(1, 2), tau=(-2, -1): fmaj does not split"


def test_coset_tests_are_constant_on_labeling_orbits():
    # _coset_fault's three tests read these values alone
    def values(forest, u):
        tau, w = verify._coset_factors(u)
        return (stats.descents_forest(forest, u) == stats.descents_forest(forest, w),
                stats.n1_forest(forest, u), stats.n1(tau),
                stats.FOREST_STATS["fmaj-f"](forest, u), stats.maj_forest(forest, w))

    for n in range(5):
        for forest in enumerate_forests(n):
            every = collections.Counter(values(forest, u) for u in enumerate_labelings(forest))
            weighted = collections.Counter()
            for u, weight in labeling_orbits(forest):
                weighted[values(forest, u)] += weight
            assert every == weighted, forest


def test_coset_witness_is_rescanned_past_orbit_representatives(monkeypatch):
    # fmaj broken on a positive first label.  The orbit of (1, -2),
    # represented by (-2, 1), passes, and the failing orbit of (1, 2)
    # sends the check back to (1, -2), whose own factors are named
    forest = parse_forest("()()")
    assert (1, -2) not in {w for w, _ in labeling_orbits(forest)}
    fmaj = stats.FOREST_STATS["fmaj-f"]
    monkeypatch.setitem(stats.FOREST_STATS, "fmaj-f", lambda f, w: fmaj(f, w) + (w[0] > 0))
    report = verify.check_theorem(forest, "eq-coset-fmaj")
    assert not report.passed
    assert report.witness == "w=(2, 1), tau=(-2, 1): fmaj does not split"


@pytest.mark.parametrize("theorem", [t for t, row in verify.THEOREMS.items() if row.fault])
def test_row_faults_pass_on_every_labeling(theorem):
    # on every labeling, not only on the orbit representatives the checks
    # scan; a size row's labelings are those of the chain
    row = verify.THEOREMS[theorem]
    for n in range(5):
        for forest in [chain_forest(n)] if row.scope == "size" else enumerate_forests(n):
            for w in enumerate_labelings(forest, row.mode):
                assert row.fault(forest, w, 6) is None, (theorem, forest.render(), w)


@pytest.mark.slow
def test_coset_identity_swept_to_n6():
    reports = verify.sweep("eq-coset-fmaj", 6)
    assert len(reports) == sum(len(list(enumerate_forests(n))) for n in range(7))
    assert all(r.passed for r in reports), [r.summary() for r in reports if not r.passed]


def test_workers_are_capped_by_jobs_cpus_and_items(monkeypatch):
    for cpus, cap in ((1, 1), (None, 1), (8, 8)):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        for jobs in range(1, 65):
            assert verify._workers(jobs, 100) == min(jobs, cap)
            assert verify._workers(jobs, 3) == min(jobs, cap, 3)
            assert verify._workers(jobs, 1) == 1
    assert verify._workers(64, 100) == 8 and verify._workers(5, 100) == 5


def test_map_reads_the_cpu_count_once_per_call(monkeypatch):
    calls = []
    monkeypatch.setattr(verify.os, "cpu_count", lambda: calls.append(1) or 1)
    assert len(verify.sweep("thm-inv-b", 5, jobs=2)) == 65
    assert len(calls) == 6


def test_small_sweeps_start_no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    reports = verify.sweep("thm-inv-b", 5, jobs=2)
    assert len(reports) == 65 and all(r.passed for r in reports)


def test_pooled_sweeps_and_searches_match_jobs_1(pool_starts):
    for theorem, max_n in (("thm-inv-b", 5), ("thm-bw", 4), ("thm-le1", 3),
                           ("eq-even-odd", 4), ("len-b", 3)):
        started = len(pool_starts)
        serial = [r.to_record() for r in verify.sweep(theorem, max_n, jobs=1)]
        assert len(pool_starts) == started
        assert [r.to_record() for r in verify.sweep(theorem, max_n, jobs=2)] == serial
    golden = json.loads((GOLDEN / "counterexample_nmaj_vs_inv_b.json").read_text())
    for stat_a, stat_b, max_n in (("nmaj-f", "inv-b-f", golden["max_n"]),
                                  ("inv-b-f", "fmaj-f", 5)):
        a = verify.counterexample_search(stat_a, stat_b, "signed", max_n, jobs=1)
        b = verify.counterexample_search(stat_a, stat_b, "signed", max_n, jobs=2)
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0].render() == b[0].render() == golden["witness"]
            assert a[1:] == b[1:]
    assert pool_starts and set(pool_starts) == {2}


def test_pool_worker_exception_reaches_the_caller(monkeypatch, pool_starts):
    parent = os.getpid()

    def check(forest):
        if os.getpid() != parent:
            raise ValueError(f"raised in a worker on {forest.render()}")
        return verify.CheckReport("eq-coset-fmaj", forest.render(), None, None, True)

    bogus = dataclasses.replace(verify.THEOREMS["eq-coset-fmaj"], lhs=check)
    monkeypatch.setitem(verify.THEOREMS, "eq-coset-fmaj", bogus)
    assert all(r.passed for r in verify.sweep("eq-coset-fmaj", 4, jobs=1))
    with pytest.raises(ValueError, match="raised in a worker"):
        verify.sweep("eq-coset-fmaj", 4, jobs=2)
    assert pool_starts


def test_sweep_orders_and_jobs():
    serial = verify.sweep("thm-inv-b", 3, jobs=1)
    parallel = verify.sweep("thm-inv-b", 3, jobs=4)
    assert [r.to_record() for r in serial] == [r.to_record() for r in parallel]
    assert [r.forest for r in serial] == [f.render() for n in range(4)
                                          for f in enumerate_forests(n)]
    assert all(r.passed for r in serial)


def test_sweep_size_level_and_even_odd_start():
    reports = verify.sweep("len-b", 3)
    assert [r.forest for r in reports] == ["n=0", "n=1", "n=2", "n=3"]
    reports = verify.sweep("eq-even-odd", 2)
    assert [r.forest for r in reports] == ["()", "(())", "()()"]


def test_sweep_fail_fast_on_engineered_failure(monkeypatch):
    bogus = dataclasses.replace(verify.THEOREMS["thm-inv-b"], lhs=(("nmaj-f", None),))
    monkeypatch.setitem(verify.THEOREMS, "thm-inv-b", bogus)
    reports = verify.sweep("thm-inv-b", 5, fail_fast=True)
    assert not reports[-1].passed
    assert all(r.passed for r in reports[:-1])
    assert reports[-1].witness.startswith("coefficient")


def test_sweep_reports_each_plane_forest_as_its_own(monkeypatch, pool_starts):
    bogus = dataclasses.replace(verify.THEOREMS["thm-inv-b"], lhs=(("nmaj-f", None),))
    monkeypatch.setitem(verify.THEOREMS, "thm-inv-b", bogus)
    forests = [f for n in range(6) for f in enumerate_forests(n)]
    own = [verify.check_theorem(f, "thm-inv-b").to_record() for f in forests]
    for jobs in (1, 2):
        assert [r.to_record() for r in verify.sweep("thm-inv-b", 5, jobs=jobs)] == own
    assert pool_starts
    # failing forests that are not the first of their class are re-checked
    first = {}
    for f in forests:
        first.setdefault(canonical_form(f.render()), f.render())
    failing = {rec["forest"] for rec in own if not rec["pass"]}
    for paren in ("((()(())))", "(()(()()))"):
        assert paren in failing
        assert first[canonical_form(paren)] != paren


def test_sweep_rechecks_each_forest_of_a_failed_class(monkeypatch, pool_starts):
    # a witness that reads the planar order tells the members of a class apart
    def fail(forest):
        return verify.CheckReport("eq-coset-fmaj", forest.render(), None, None, False,
                                  f"hooks {hook_lengths(forest)[1:]}")

    bogus = dataclasses.replace(verify.THEOREMS["eq-coset-fmaj"], lhs=fail)
    monkeypatch.setitem(verify.THEOREMS, "eq-coset-fmaj", bogus)
    reports = verify.sweep("eq-coset-fmaj", 3, jobs=2)
    assert [r.to_record() for r in reports] == [
        fail(f).to_record() for n in range(4) for f in enumerate_forests(n)]
    witnesses = {r.forest: r.witness for r in reports}
    assert witnesses["(())()"] == "hooks (2, 1, 1)"
    assert witnesses["()(())"] == "hooks (1, 2, 1)"
    assert pool_starts


def counting(monkeypatch, name):
    """Wrap verify.<name> to record its calls' arguments; returns the list."""
    calls = []
    real = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


def test_sweep_checks_each_unordered_forest_once(monkeypatch):
    calls = counting(monkeypatch, "check_theorem")
    reports = verify.sweep("thm-inv-b", 5)
    assert len(reports) == 65 and all(r.passed for r in reports)
    assert len(calls) == 37
    assert len({canonical_form(args[0].render()) for args in calls}) == 37


def test_size_rows_go_through_check_theorem(monkeypatch):
    calls = counting(monkeypatch, "check_theorem")
    reports = verify.sweep("len-b", 4)
    assert [r.forest for r in reports] == [f"n={n}" for n in range(5)]
    assert [args[0] for args in calls] == [chain_forest(n) for n in range(5)]


def test_counterexample_search_checks_each_class_once(monkeypatch):
    calls = counting(monkeypatch, "distribution")
    assert verify.counterexample_search("inv-b-f", "fmaj-f", "signed", 5) is None
    # two distributions for each of the 1 + 1 + 2 + 4 + 9 + 20 classes
    assert len(calls) == 74


def test_sweep_parses_only_class_representatives(monkeypatch):
    calls = counting(monkeypatch, "parse_forest")
    reports = verify.sweep("thm-inv-b", 5)
    assert len(reports) == 65 and all(r.passed for r in reports)
    assert len(calls) == 37
    assert len({canonical_form(paren) for (paren,) in calls}) == 37


def test_counterexample_equidistributed_pairs_return_none():
    assert verify.counterexample_search("inv-b-f", "fmaj-f", "signed", 4) is None
    assert verify.counterexample_search("inv-b-f", "inv-b-f", "signed", 4) is None
    assert verify.counterexample_search("rmaj-f", "fmaj-f", "signed", 4) is None


def test_counterexample_nmaj_matches_golden():
    golden = json.loads((GOLDEN / "counterexample_nmaj_vs_inv_b.json").read_text())
    found = verify.counterexample_search("nmaj-f", "inv-b-f", "signed", golden["max_n"])
    assert found is not None
    forest, da, db = found
    assert forest.render() == golden["witness"]
    assert da == BiPoly.from_triples(golden["dist_stat"])
    assert db == BiPoly.from_triples(golden["dist_vs"])
    assert da != db


def test_counterexample_dmaj_matches_golden():
    golden = json.loads((GOLDEN / "counterexample_dmaj_vs_inv_d.json").read_text())
    found = verify.counterexample_search("dmaj-f", "inv-d-f", "even-signed",
                                         golden["max_n"])
    assert found is not None
    forest, da, db = found
    assert forest.render() == golden["witness"]
    assert da == BiPoly.from_triples(golden["dist_stat"])
    assert db == BiPoly.from_triples(golden["dist_vs"])
    assert da != db


def test_counterexample_jobs_deterministic():
    a = verify.counterexample_search("nmaj-f", "inv-b-f", "signed", 4, jobs=1)
    b = verify.counterexample_search("nmaj-f", "inv-b-f", "signed", 4, jobs=3)
    assert a[0].render() == b[0].render()
    assert a[1] == b[1] and a[2] == b[2]


def test_rmaj_distribution_from_majb_substitution():
    # the joint (p, maj-b) distribution maps onto the rmaj distribution
    # by q -> q^2, t -> 1/q, which maps t^a q^b to q^(2b - a)
    for n in range(4):
        for forest in enumerate_forests(n):
            joint = verify.distribution(forest, "maj-b-f", "signed", aux="p-f")
            mapped = BiPoly(((0, 2 * b - a), c) for (a, b), c in joint.items())
            assert mapped == verify.distribution(forest, "rmaj-f", "signed")


# ---------------------------------------------------------------------------
# the chain DP behind string ids against brute force over the callables

def _oracle(forest, stat, mode, aux):
    return verify.distribution(forest, stats.FOREST_STATS[stat], mode,
                               aux=stats.FOREST_STATS[aux] if aux else None)


def _oracles(forest, mode, pairs):
    """Brute-force distributions of several (stat, aux) pairs, sharing
    one pass over the labelings and one call per statistic; a repeated
    pair is tallied once."""
    names = {name for pair in pairs for name in pair if name}
    terms = {pair: {} for pair in pairs}
    for w in enumerate_labelings(forest, mode):
        value = {name: stats.FOREST_STATS[name](forest, w) for name in names}
        for stat, aux in terms:
            key = (value[aux] if aux else 0, value[stat])
            terms[stat, aux][key] = terms[stat, aux].get(key, 0) + 1
    return {pair: BiPoly(t) for pair, t in terms.items()}


def _cases():
    """Every (stat, mode, aux) with aux in {None, n1-f, p-f} where defined."""
    for mode in ("ordinary", "signed", "even-signed"):
        for stat in stats.FOREST_STATS:
            if stat == "inv-d-f" and mode == "signed":
                continue
            for aux in (None, "n1-f", "p-f"):
                yield stat, mode, aux


def _assert_dp_matches(forests, cases):
    for forest in forests:
        for mode in sorted({mode for _, mode, _ in cases}):
            pairs = [(stat, aux) for stat, m, aux in cases if m == mode]
            for (stat, aux), brute in _oracles(forest, mode, pairs).items():
                assert verify.distribution(forest, stat, mode, aux=aux) == brute, \
                    (forest, stat, mode, aux)


@pytest.mark.slow
@pytest.mark.parametrize("paren", ["(((((())))))", "((()())(()))", "(()(()))(())"])
def test_dp_matches_brute_force_across_gaps_n6(paren):
    # pushes, leaf runs and cuts below attach points all cross gaps here
    cases = [(stat, mode, aux) for mode in ("signed", "even-signed")
             for stat in stats.FOREST_TERMS
             if not (stat == stats.EVEN_SIGNED_STAT and mode == "signed")
             for aux in (None, "n1-f", "p-f")]
    _assert_dp_matches([parse_forest(paren)], cases)


def test_term_stats_cover_the_chaindp_terms():
    assert set(stats.TERM_STATS) == set(chaindp.TERMS)


def test_dp_matches_brute_force_every_case_small():
    _assert_dp_matches([f for n in range(5) for f in enumerate_forests(n)], list(_cases()))


@pytest.mark.parametrize("aux", ["rmaj-f", "inv-b-f"])
def test_dp_even_slices_match_brute_force(aux):
    # even-signed mode is the even-n1 slice of one signed run with aux
    # (n+1)*aux + n1; rmaj-f's -p coefficient moves a constant offset
    # into that exponent before the slices are split off
    cases = [(stat, "even-signed", aux) for stat in stats.FOREST_TERMS]
    _assert_dp_matches([f for n in range(5) for f in enumerate_forests(n)], cases)


def test_dp_matches_brute_force_theorems_n5():
    cases = [(stats.resolve_forest_stat(stat)[0], verify.THEOREMS[t].mode,
              aux and stats.resolve_forest_stat(aux)[0])
             for t in DIST_THEOREMS for stat, aux in verify.THEOREMS[t].lhs]
    cases += [("nmaj-f", "signed", None), ("dmaj-f", "even-signed", None)]
    _assert_dp_matches(enumerate_forests(5), cases)


forests_up_to_6 = st.integers(0, 6).flatmap(
    lambda n: st.tuples(*[st.integers(0, v - 1) for v in range(1, n + 1)]))


@settings(max_examples=12, deadline=None)
@given(forests_up_to_6, st.sampled_from(list(_cases())))
def test_dp_matches_brute_force_drawn_forests(parents, case):
    forest = forest_from_parents(list(parents))
    stat, mode, aux = case
    assert verify.distribution(forest, stat, mode, aux=aux) == _oracle(forest, stat, mode, aux)


def _term_stat(terms):
    return lambda forest, w: sum(c * stats.TERM_STATS[t](forest, w) for t, c in terms.items())


@pytest.mark.parametrize("stat, aux", [("maj-b-f", "inv-f"), ("fmaj-f", "n2-f"),
                                       ("maj-f", "inv-b-f"), ("rmaj-f", "inv-d-f")])
def test_dp_counts_the_terms_only_the_aux_has(stat, aux):
    # the stat alone has no inv or n2 term, so only the aux's count terms
    # send the term set to the value walk; the raw term sums let inv-d
    # run in signed mode too
    stat_terms, aux_terms = stats.FOREST_TERMS[stat], stats.FOREST_TERMS[aux]
    for n in range(5):
        for forest in enumerate_forests(n):
            for mode in MODES:
                brute = verify.distribution(forest, _term_stat(stat_terms), mode,
                                            aux=_term_stat(aux_terms))
                assert chaindp.term_distribution(forest, stat_terms, mode, aux_terms) == brute, \
                    (forest, mode)


def _spy_on_walks(monkeypatch):
    """Record the name of each walk that term_distribution runs, with its
    arguments and its packed histogram."""
    runs = []
    for name in ("_value_walk", "_chain_walk"):
        def spy(*args, walk=getattr(chaindp, name), name=name):
            runs.append((name, args, walk(*args)))
            return runs[-1][2]
        monkeypatch.setattr(chaindp, name, spy)
    return runs


def _counts(terms):
    return bool(terms and (terms.get("inv") or terms.get("n2")))


def test_each_term_set_runs_one_walk(monkeypatch):
    # an inv or n2 coefficient in the stat or the aux picks the value
    # walk, anything else the chain walk, and no call runs both
    runs = _spy_on_walks(monkeypatch)
    forest = parse_forest("(()())(())")
    for stat_terms in stats.FOREST_TERMS.values():
        for aux_terms in (None, *stats.FOREST_TERMS.values()):
            for mode in MODES:
                runs.clear()
                chaindp.term_distribution(forest, stat_terms, mode, aux_terms)
                walk = "_value_walk" if _counts(stat_terms) or _counts(aux_terms) else "_chain_walk"
                assert [name for name, _, _ in runs] == [walk], (stat_terms, aux_terms, mode)


def test_value_walk_agrees_with_the_chain_walk(monkeypatch):
    # every term set the chain walk serves, on every unordered class with
    # n <= 6 in every mode, gives the same packed int on the value walk
    runs, calls = _spy_on_walks(monkeypatch), 0
    maj_ids = [s for s, terms in stats.FOREST_TERMS.items() if not _counts(terms)]
    for n in range(7):
        for forest in {canonical_form(f.render()): f for f in enumerate_forests(n)}.values():
            for mode in MODES:
                for stat in maj_ids:
                    for aux in (None, *maj_ids):
                        chaindp.term_distribution(forest, stats.FOREST_TERMS[stat], mode,
                                                  stats.FOREST_TERMS.get(aux))
                        calls += 1
    monkeypatch.undo()  # the spies stop recording before the runs are replayed
    assert len(runs) == calls
    for name, args, packed in runs:
        assert name == "_chain_walk" and chaindp._value_walk(*args) == packed, args


def _single_walk(forest, w, signed):
    """The reference value walk: one walk over the placed-vertex sets of
    the whole forest, with a bit per vertex and no product over trees."""
    n, parent, children = forest.n, forest.parent, forest.children
    h = hook_lengths(forest)
    w_inv, w_n2, w_neg, w_maj = w["inv"], w["n2"], w["n1"], w["maj"] + w["maj-b"]
    bit = [0] + [1 << v for v in range(n)]
    ancestors, descendants = [0] * (n + 1), [0] * (n + 1)
    for v in range(1, n + 1):
        ancestors[v] = ancestors[parent[v]] | bit[parent[v]]
    for v in range(n, 0, -1):
        descendants[parent[v]] |= descendants[v] | bit[v]
    vertices = [(bit[u], ancestors[u], descendants[u], bit[parent[u]],
                 w["p"] + (0 if parent[u] else h[u] * w["maj-b"]), h[u] * w_maj,
                 [(bit[c], h[c] * w_maj) for c in children[u]] if w_maj else ())
                for u in range(1, n + 1)]

    frontier = {0: 1}
    for _ in range(n):
        nxt = {}
        get = nxt.get
        for b, above, below, up_bit, w_pos, w_up, kids in vertices:
            for placed, hist in frontier.items():
                if placed & b:
                    continue
                a = (placed & above).bit_count()
                up = w_pos + w_inv * a + (w_up if placed & up_bit else 0)
                key = placed | b
                if not signed:
                    nxt[key] = get(key, 0) + (hist << up)
                    continue
                d = (placed & below).bit_count()
                down = w_neg + w_inv * d + w_n2 * (a + d)
                for c, w_down in kids:
                    if placed & c:
                        down += w_down
                nxt[key] = get(key, 0) + (hist << up) + (hist << down)
        frontier = nxt
    return frontier.popitem()[1]


def _assert_value_walk_matches_the_single_walk(monkeypatch, forests, cases):
    runs = _spy_on_walks(monkeypatch)
    for forest in forests:
        for stat, aux, mode in cases:
            chaindp.term_distribution(forest, stats.FOREST_TERMS[stat], mode,
                                      stats.FOREST_TERMS.get(aux))
    monkeypatch.undo()
    assert len(runs) == len(forests) * len(cases)
    for name, args, packed in runs:
        assert name == "_value_walk" and _single_walk(*args) == packed, args


def test_value_walk_per_tree_matches_the_single_walk(monkeypatch):
    # every plane forest with n <= 6, every stat with an inv or n2 term,
    # against one walk over the whole forest's placed-vertex sets
    count_ids = [s for s, terms in stats.FOREST_TERMS.items() if _counts(terms)]
    cases = [(stat, aux, mode) for stat in count_ids
             for aux in (None, "n1-f", "p-f", "maj-f") for mode in MODES]
    forests = [f for n in range(7) for f in enumerate_forests(n)]
    _assert_value_walk_matches_the_single_walk(monkeypatch, forests, cases)


def test_value_walk_per_tree_matches_the_single_walk_on_mixed_forests(monkeypatch):
    # a chain, a star and lone roots in one forest, in two orders
    forests = [parse_forest("(((())))" + "(()()())" + "()()()"),
               parse_forest("()" + "(()()()())" + "()" + "((((()))))")]
    assert [f.n for f in forests] == [11, 12]
    cases = [("inv-b-f", "maj-f", "signed"), ("inv-d-f", "p-f", "even-signed"),
             ("nmaj-f", None, "ordinary")]
    _assert_value_walk_matches_the_single_walk(monkeypatch, forests, cases)


def test_12_root_antichain_inv_b_is_the_multinomial_times_its_roots():
    # every tree is one root: inv-b is n1, so 12! (1 + q)^12
    dist = verify.distribution(forest_from_parents([0] * 12), "inv-b-f", "signed")
    assert dist == BiPoly(((0, j), math.factorial(12) * math.comb(12, j)) for j in range(13))


@pytest.mark.parametrize("theorem", ["thm-inv-b", "thm-inv-d", "thm-bivariate-inv"])
def test_count_rows_pass_on_the_12_vertex_chain(theorem):
    # the deepest shape for the count terms: the value walk's 2^12 states
    assert verify.check_theorem(chain_forest(12), theorem).passed


def test_even_odd_terms_match_brute_force():
    # check_even_odd's (n1, inv + n2) over all signed labelings
    raw = lambda f, w: stats.inv_forest(f, w) + stats.n2_forest(f, w)
    for n in range(1, 5):
        for forest in enumerate_forests(n):
            dp = chaindp.term_distribution(forest, stats.FOREST_TERMS["inv-d-f"], "signed",
                                           stats.FOREST_TERMS["n1-f"])
            assert dp == verify.distribution(forest, raw, "signed", aux=stats.n1_forest)
            assert verify.check_even_odd(forest).passed


def test_term_distribution_rejects_bad_terms():
    dot = parse_forest("()")
    with pytest.raises(KeyError, match="unknown forest terms"):
        chaindp.term_distribution(dot, {"nope": 1})
    with pytest.raises(ValueError, match="only the sign terms"):
        chaindp.term_distribution(dot, {"inv": -1})
    # -p takes negative values, and the decoder refuses their slots
    with pytest.raises(ValueError, match="negative exponent"):
        chaindp.term_distribution(dot, {"p": -1})


def test_callable_statistics_are_validated():
    with pytest.raises(TypeError):
        verify.distribution(parse_forest("(())"), lambda forest, w: 0.5)


# ---------------------------------------------------------------------------
# the chain DP against brute force over weighted labeling orbits

def _orbit_weighted(forest, stat, aux=None):
    """The signed (aux, stat) distribution as labeling_orbits weights it."""
    tally = collections.Counter()
    for w, weight in labeling_orbits(forest):
        key = (stats.FOREST_STATS[aux](forest, w) if aux else 0,
               stats.FOREST_STATS[stat](forest, w))
        tally[key] += weight
    return BiPoly(tally)


def _orbit_oracle(forest, stat, aux=None):
    """_orbit_weighted, refused for a statistic with an n2 term: n2
    compares absolute values across the signs, which orbits leave free."""
    for name in (stat, aux):
        if name and "n2" in stats.FOREST_TERMS[name]:
            raise ValueError(f"{name} has an n2 term: orbits do not fix it")
    return _orbit_weighted(forest, stat, aux)


def test_orbit_weights_miscount_n2_from_the_first_comparable_pair():
    chain2 = parse_forest("(())")
    for stat in ("inv-b-f", "n2-f", "nmaj-f"):
        assert _orbit_weighted(chain2, stat) != verify.distribution(chain2, stat), stat
        with pytest.raises(ValueError, match="n2 term"):
            _orbit_oracle(chain2, stat)
    with pytest.raises(ValueError, match="n2 term"):
        _orbit_oracle(chain2, "fmaj-f", aux="n2-f")


MAJ_PAIRS = [("fmaj-f", "n1-f"), ("rmaj-f", "p-f")]


@pytest.mark.parametrize("stat, aux, sizes", [
    *[(stat, aux, range(5)) for stat, aux in MAJ_PAIRS],
    *[pytest.param(stat, aux, [6], marks=pytest.mark.slow) for stat, aux in MAJ_PAIRS]])
def test_dp_matches_the_orbit_oracle(stat, aux, sizes):
    for n in sizes:
        # one forest per unordered class
        for forest in {canonical_form(f.render()): f for f in enumerate_forests(n)}.values():
            assert verify.distribution(forest, stat, aux=aux) == _orbit_oracle(forest, stat, aux), \
                forest


# ---------------------------------------------------------------------------
# planar invariance: sweeps and counterexample searches check one forest
# per unordered class, so no distribution may depend on sibling order

def _planar_cases():
    """Every FOREST_TERMS id in every mode where it is defined, with aux
    n1-f in signed mode."""
    for mode in MODES:
        for stat in stats.FOREST_TERMS:
            if not (stat == stats.EVEN_SIGNED_STAT and mode == "signed"):
                yield stat, mode, "n1-f" if mode == "signed" else None


def _reordered(sizes):
    """Every plane forest of the given sizes that differs from its
    canonical form, paired with that form."""
    for n in sizes:
        for forest in enumerate_forests(n):
            canonical = parse_forest(canonical_form(forest.render()))
            if canonical != forest:
                yield forest, canonical


def _assert_dp_is_planar_invariant(sizes):
    for forest, canonical in _reordered(sizes):
        for stat, mode, aux in _planar_cases():
            assert (verify.distribution(forest, stat, mode, aux=aux)
                    == verify.distribution(canonical, stat, mode, aux=aux)), \
                (forest, stat, mode, aux)


def test_dp_distributions_are_planar_invariant():
    _assert_dp_is_planar_invariant(range(6))


@pytest.mark.slow
def test_dp_distributions_are_planar_invariant_n6():
    _assert_dp_is_planar_invariant([6])


def test_brute_force_agrees_with_the_canonical_form():
    cases = list(_planar_cases())
    for forest, canonical in _reordered(range(5)):
        for mode in MODES:
            pairs = [(stat, aux) for stat, m, aux in cases if m == mode]
            for (stat, aux), brute in _oracles(forest, mode, pairs).items():
                assert brute == verify.distribution(canonical, stat, mode, aux=aux), \
                    (forest, stat, mode, aux)


@pytest.mark.slow
@pytest.mark.parametrize("theorem", DIST_THEOREMS + ["eq-even-odd"])
def test_distribution_theorems_swept(theorem):
    max_n = 9
    reports = verify.sweep(theorem, max_n, jobs=2)
    assert len(reports) == sum(len(list(enumerate_forests(n)))
                               for n in range(verify.THEOREMS[theorem].start, max_n + 1))
    assert all(r.passed for r in reports), [r.summary() for r in reports if not r.passed]


def test_validation_runs_before_any_loop():
    with pytest.raises(KeyError):
        verify.sweep("nope", -1)
    with pytest.raises(ValueError):
        verify.sweep("thm-inv-b", -1)
    with pytest.raises(KeyError):
        verify.counterexample_search("nope", "inv-b-f", "signed", -1)
    with pytest.raises(KeyError):
        verify.counterexample_search("inv-b-f", "nope", "signed", -1)
    with pytest.raises(ValueError):
        verify.counterexample_search("inv-b-f", "inv-b-f", "signed", -1)
