"""The value-reversing involution on signed words and the label mirror
on signed labeled forests."""

import math
from functools import partial

import pytest
from hypothesis import given, strategies as st

from hookforest import stats, verify
from hookforest.forest import (chain_forest, enumerate_forests,
                               enumerate_labelings, enumerate_words, parse_forest)
from hookforest.qpoly import BiPoly


def test_psi_examples():
    assert verify.psi_bijection((1,)) == (-1,)
    assert verify.psi_bijection((-1,)) == (1,)
    assert verify.psi_bijection((2, -1)) == (-2, 1)
    assert verify.psi_bijection(()) == ()
    # mixed signs: positives {1, 3} reverse among themselves, negatives stay put
    assert verify.psi_bijection((3, 1, -2)) == (-1, -3, 2)


def test_psi_carries_the_statistics():
    for n in range(5):
        for sigma in enumerate_words(n, "signed"):
            tau = verify.psi_bijection(sigma)
            assert stats.maj_b(sigma) == stats.maj_r(tau)
            assert stats.p(sigma) == stats.n1(tau)


def test_psi_check_reports():
    for n in range(5):
        report = verify.check_theorem(chain_forest(n), "psi")
        assert report.passed, report.summary()


@pytest.mark.slow
def test_psi_check_reports_n8():
    report = verify.check_theorem(chain_forest(8), "psi")
    assert report.passed, report.summary()


def test_psi_failure_names_the_failing_side(monkeypatch):
    # psi shares the sides of the eq-reiner check, witness prefix included
    monkeypatch.setattr(verify.formulas, "rhs_bivariate_majb", lambda forest: BiPoly.one())
    report = verify.check_theorem(chain_forest(2), "psi")
    assert report.theorem == "psi" and not report.passed
    assert report.witness.startswith("(n1, maj-r) side: coefficient")


def test_psi_witness(monkeypatch):
    # the identity keeps p = 0 on (-1,), where n1 = 1
    monkeypatch.setattr(verify, "psi_bijection", lambda sigma: tuple(sigma))
    report = verify.check_theorem(chain_forest(1), "psi")
    assert not report.passed
    assert report.witness == "sigma=(-1,): statistics not carried over"


def test_psi_witness_names_a_word_psi_does_not_send_back(monkeypatch):
    # dropping the signs maps (-1,) to (1,) and (1,) to itself, so it is
    # neither an involution nor a bijection
    monkeypatch.setattr(verify, "psi_bijection", lambda sigma: tuple(abs(v) for v in sigma))
    report = verify.check_theorem(chain_forest(1), "psi")
    assert not report.passed
    assert report.witness == "sigma=(-1,): psi is not an involution"


def test_passing_pattern_checks_keep_no_orbit_values():
    # the scan streams one (value, weight) per orbit and keeps none; a
    # passing psi or mirror scan reports no failure, and its weights count
    # every signed labeling
    for forest, fault in ((chain_forest(3), verify._psi_fault),
                          (parse_forest("(()())"), verify._mirror_fault)):
        failed = []
        scan = verify._orbit_scan(forest, lambda w: w, partial(fault, forest), failed)
        assert iter(scan) is scan
        assert sum(weight for _, weight in scan) == 2 ** forest.n * math.factorial(forest.n)
        assert failed == []


signed_words = st.integers(0, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).flatmap(
        lambda perm: st.tuples(*[st.sampled_from([v, -v]) for v in perm])))


@given(signed_words)
def test_psi_is_an_involution(sigma):
    assert verify.psi_bijection(verify.psi_bijection(sigma)) == sigma


def test_coset_decompose_examples():
    # sigma = tau o pi: tau its increasing rearrangement, pi the ordinary
    # permutation of positions with tau[pi_i - 1] = sigma_i
    assert verify._coset_factors((1, 2)) == ((1, 2), (1, 2))
    assert verify._coset_factors((2, -1)) == ((-1, 2), (2, 1))
    assert verify._coset_factors((-2, -1)) == ((-2, -1), (1, 2))


def test_coset_decompose_reconstructs():
    for n in range(5):
        for sigma in enumerate_words(n, "signed"):
            tau, pi = verify._coset_factors(sigma)
            assert list(tau) == sorted(sigma)
            assert sorted(pi) == list(range(1, n + 1))
            assert tuple(tau[i - 1] for i in pi) == sigma


def test_mirror_examples():
    rmaj, fmaj = stats.FOREST_STATS["rmaj-f"], stats.FOREST_STATS["fmaj-f"]
    dot = parse_forest("()")
    assert verify.mirror_labeling(dot, (1,)) == (-1,)
    assert rmaj(dot, (1,)) == fmaj(dot, (-1,)) == 1
    chain2 = chain_forest(2)
    # root 2, child 1 mirrors to root -1, child -2
    assert verify.mirror_labeling(chain2, (2, 1)) == (-1, -2)
    assert rmaj(chain2, (2, 1)) == 2
    assert fmaj(chain2, (-1, -2)) == 2


@given(st.integers(0, 5), st.data())
def test_mirror_is_an_involution(n, data):
    forests = list(enumerate_forests(n))
    forest = data.draw(st.sampled_from(forests))
    w = data.draw(st.sampled_from(list(enumerate_labelings(forest, "signed"))
                                  or [()]))
    assert verify.mirror_labeling(forest, verify.mirror_labeling(forest, w)) == w


def test_mirror_check_reports():
    rmaj, fmaj = stats.FOREST_STATS["rmaj-f"], stats.FOREST_STATS["fmaj-f"]
    for n in range(5):
        for forest in enumerate_forests(n):
            report = verify.check_theorem(forest, "mirror")
            assert report.passed, report.summary()
            # the rmaj and fmaj distributions, against brute-force tallies
            assert report.lhs == verify.distribution(forest, rmaj, "signed")
            assert report.rhs == verify.distribution(forest, fmaj, "signed")
            assert report.lhs == report.rhs


def test_mirror_witness(monkeypatch):
    # the identity is an involution, but rmaj and fmaj differ on the
    # first labeling of the chain
    monkeypatch.setattr(verify, "mirror_labeling", lambda forest, w: tuple(w))
    report = verify.check_theorem(chain_forest(2), "mirror")
    assert not report.passed
    assert report.witness == "labeling (-2, -1): rmaj 2 != fmaj 4 of the mirror"


def test_mirror_witness_names_a_labeling_the_mirror_does_not_send_back(monkeypatch):
    # dropping the signs sends (-2, -1) to (2, 1), which it keeps
    monkeypatch.setattr(verify, "mirror_labeling", lambda forest, w: tuple(abs(v) for v in w))
    report = verify.check_theorem(chain_forest(2), "mirror")
    assert not report.passed
    assert report.witness == "labeling (-2, -1): mirror is not an involution"


def test_mirror_witness_names_the_maj_b_split(monkeypatch):
    maj = stats.maj_forest
    monkeypatch.setattr(stats, "maj_forest", lambda forest, w: maj(forest, w) + 1)
    report = verify.check_theorem(chain_forest(2), "mirror")
    assert not report.passed
    assert report.witness == "labeling (-2, -1): maj-b does not split as maj' + p"


def test_mirror_witness_names_the_sign_count(monkeypatch):
    n1 = stats.n1_forest
    monkeypatch.setattr(stats, "n1_forest", lambda forest, w: n1(forest, w) + 1)
    report = verify.check_theorem(chain_forest(2), "mirror")
    assert not report.passed
    assert report.witness == "labeling (-2, -1): positives do not mirror to negatives"
