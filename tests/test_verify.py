import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from hookforest import chaindp, formulas, stats, verify
from hookforest.forest import (chain_forest, enumerate_forests,
                               enumerate_labelings, forest_from_parents,
                               parse_forest)
from hookforest.qpoly import BiPoly, q_number

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
            == verify.distribution(chain2, stats.inv_b_forest, "signed"))


def test_distribution_mode_compatibility():
    chain2 = chain_forest(2)
    with pytest.raises(ValueError):
        verify.distribution(chain2, "inv-d-f", "signed")
    with pytest.raises(ValueError):
        verify.distribution(chain2, "inv-b-f", "signed", aux="inv-d")
    with pytest.raises(KeyError):
        verify.distribution(chain2, "nope", "signed")
    assert verify.distribution(chain2, "inv-d-f", "even-signed") == q_number(2) ** 2


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


@pytest.mark.parametrize("theorem", ["thm-bw", "thm-inv-b", "thm-inv-d",
                                     "thm-fmaj", "thm-rmaj",
                                     "thm-bivariate-inv", "thm-bivariate-majB"])
def test_distribution_theorems_small(theorem):
    for n in range(4):
        for forest in enumerate_forests(n):
            assert verify.check_theorem(forest, theorem).passed


@pytest.mark.slow
@pytest.mark.parametrize("theorem", list(verify._DIST_CHECKS))
@pytest.mark.parametrize("n", [6, 7])
def test_distribution_theorems_exhaustive(n, theorem):
    for forest in enumerate_forests(n):
        report = verify.check_theorem(forest, theorem)
        assert report.passed, report.summary()


def test_linext_theorem_small():
    for n in range(4):
        for forest in enumerate_forests(n):
            assert verify.check_theorem(forest, "thm-le1").passed


def test_reiner_and_length_checks():
    for n in range(4):
        carrier = chain_forest(n)
        assert verify.check_theorem(carrier, "eq-reiner").passed
        assert verify.check_theorem(carrier, "len-b").passed
        assert verify.check_theorem(carrier, "len-d").passed


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
            assert verify.check_fmaj_coset_identity(forest).passed


def test_t_n_labelings():
    star = parse_forest("(()())")
    reps = verify.t_n_labelings(star)
    assert len(reps) == 8
    assert len(set(reps)) == 8
    # reading a representative along the decreasing labeling recovers an
    # increasing signed word
    from hookforest.forest import decreasing_labeling
    w0 = list(decreasing_labeling(star))
    for rep in reps:
        word = [rep[w0.index(k)] for k in (1, 2, 3)]
        assert word == sorted(word)


def test_sweep_orders_and_jobs():
    serial = verify.sweep("thm-inv-b", 3, jobs=1)
    threaded = verify.sweep("thm-inv-b", 3, jobs=4)
    assert [r.to_record() for r in serial] == [r.to_record() for r in threaded]
    assert [r.forest for r in serial] == [f.render() for n in range(4)
                                          for f in enumerate_forests(n)]
    assert all(r.passed for r in serial)


def test_sweep_size_level_and_even_odd_start():
    reports = verify.sweep("len-b", 3)
    assert [r.forest for r in reports] == ["n=0", "n=1", "n=2", "n=3"]
    reports = verify.sweep("eq-even-odd", 2)
    assert [r.forest for r in reports] == ["()", "(())", "()()"]


def test_sweep_fail_fast_on_engineered_failure(monkeypatch):
    bogus = dict(verify._DIST_CHECKS)
    bogus["thm-inv-b"] = ("nmaj-f", "signed", None)
    monkeypatch.setitem(verify._DIST_CHECKS, "thm-inv-b", bogus["thm-inv-b"])
    reports = verify.sweep("thm-inv-b", 5, fail_fast=True)
    assert not reports[-1].passed
    assert all(r.passed for r in reports[:-1])
    assert reports[-1].witness.startswith("coefficient")


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
    for n in range(4):
        for forest in enumerate_forests(n):
            joint = verify.distribution(forest, "maj-b-f", "signed", aux="p-f")
            assert joint.subst_q2_t_invq() == verify.distribution(forest, "rmaj-f", "signed")


# ---------------------------------------------------------------------------
# the chain DP behind string ids against brute force over the callables

def _oracle(forest, stat, mode, aux):
    return verify.distribution(forest, stats.FOREST_STATS[stat], mode,
                               aux=stats.FOREST_STATS[aux] if aux else None)


def _oracles(forest, mode, pairs):
    """Brute-force distributions of several (stat, aux) pairs, sharing
    one pass over the labelings and one call per statistic."""
    names = {name for pair in pairs for name in pair if name}
    terms = {pair: {} for pair in pairs}
    for w in enumerate_labelings(forest, mode):
        value = {name: stats.FOREST_STATS[name](forest, w) for name in names}
        for stat, aux in pairs:
            key = (value[aux] if aux else 0, value[stat])
            terms[stat, aux][key] = terms[stat, aux].get(key, 0) + 1
    return {pair: BiPoly(t) for pair, t in terms.items()}


def _cases():
    """Every (stat, mode, aux) with aux in {None, n1-f, p-f} where defined."""
    for mode in ("ordinary", "signed", "even-signed"):
        for stat in stats.FOREST_STATS:
            if stat == "inv-d-f" and mode != "even-signed":
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


def test_forest_terms_cover_every_forest_stat():
    assert set(stats.FOREST_TERMS) == set(stats.FOREST_STATS)


def test_dp_matches_brute_force_every_case_small():
    _assert_dp_matches([f for n in range(5) for f in enumerate_forests(n)], list(_cases()))


def test_dp_matches_brute_force_theorems_n5():
    cases = list(verify._DIST_CHECKS.values()) + [
        ("nmaj-f", "signed", None), ("dmaj-f", "even-signed", None)]
    _assert_dp_matches(enumerate_forests(5), cases)


forests_up_to_6 = st.integers(0, 6).flatmap(
    lambda n: st.tuples(*[st.integers(0, v - 1) for v in range(1, n + 1)]))


@settings(max_examples=12, deadline=None)
@given(forests_up_to_6, st.sampled_from(list(_cases())))
def test_dp_matches_brute_force_drawn_forests(parents, case):
    forest = forest_from_parents(list(parents))
    stat, mode, aux = case
    assert verify.distribution(forest, stat, mode, aux=aux) == _oracle(forest, stat, mode, aux)


def test_even_odd_terms_match_brute_force():
    # check_even_odd's (n1, inv + n2) over all signed labelings
    raw = lambda f, w: stats.inv_forest(f, w) + stats.n2_forest(f, w)
    for n in range(1, 5):
        for forest in enumerate_forests(n):
            dp = chaindp.term_distribution(forest, {"inv": 1, "n2": 1}, "signed",
                                           stats.FOREST_TERMS["n1-f"])
            assert dp == verify.distribution(forest, raw, "signed", aux=stats.n1_forest)
            assert verify.check_even_odd(forest).passed


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


def test_partition_shift_raises_on_negative_image(monkeypatch):
    dot = parse_forest("()")
    assert verify.partition_shift(dot, (-1,), (0,)) == (0,)
    real = stats.descents_b_forest
    monkeypatch.setattr(stats, "descents_b_forest",
                        lambda forest, w: tuple(sorted(set(real(forest, w)) | {1})))
    with pytest.raises(RuntimeError):
        verify.partition_shift(dot, (-1,), (0,))
