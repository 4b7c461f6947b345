import collections
import itertools

import pytest
from hypothesis import given, strategies as st

from hookforest import stats
from hookforest.forest import (chain_forest, enumerate_forests, enumerate_labelings,
                               enumerate_words, labeling_orbits, parse_forest)

# word-level expected values: each verified against the bare definitions
PERM_CASES = [
    ("inv", (1, 2), 0), ("inv", (2, 1), 1), ("inv", (1, -2), 1),
    ("maj", (1, 2), 0), ("maj", (2, -1), 1), ("maj", (-1, -2), 1),
    ("n1", (1, 2), 0), ("n1", (-2, 1), 1), ("n1", (-1, -2), 2),
    ("n2", (1, 2), 0), ("n2", (-2, 1), 1), ("n2", (-1, -2), 1),
    ("len-b", (1, 2), 0), ("len-b", (1, -2), 3), ("len-b", (-1,), 1),
    ("len-d", (1, 2), 0), ("len-d", (-2, -1), 1), ("len-d", (-1, -2), 2),
    ("fmaj", (1, 2), 0), ("fmaj", (-1, 2), 1), ("fmaj", (2, -1), 3),
    ("nmaj", (1, 2), 0), ("nmaj", (1, -2), 3), ("nmaj", (-1,), 1),
    ("maj-r", (1,), 0), ("maj-r", (-1,), 1), ("maj-r", (-2, 1), 1),
    ("maj-b", (1,), 1), ("maj-b", (-1,), 0), ("maj-b", (2, -1), 1),
    ("p", (1, 2), 2), ("p", (-1, -2), 0), ("p", (2, -1), 1),
    ("rmaj", (-2, -1), 0), ("rmaj", (2, 1), 4), ("rmaj", (-1, 2), 3),
    ("dmaj", (1, 2), 0), ("dmaj", (-1, -2), 2), ("dmaj", (2, 1), 1),
]


@pytest.mark.parametrize("stat,sigma,expected", PERM_CASES)
def test_permutation_statistics(stat, sigma, expected):
    assert stats.PERM_STATS[stat](sigma) == expected


def test_empty_word():
    for fn in stats.PERM_STATS.values():
        assert fn(()) == 0


def test_pattern_stats_are_the_ids_the_chain_orbits_count():
    # a signed word is a labeling of the chain, whose weighted orbits are
    # its sign-order patterns; an id is in the set exactly when the orbits
    # count its values as the words do
    def orbit_counts(fn, n):
        counts = collections.Counter()
        for sigma, weight in labeling_orbits(chain_forest(n)):
            counts[fn(sigma)] += weight
        return counts

    def pattern(sigma):
        # each letter's rank among the letters, and the number of negatives
        order = sorted(sigma)
        return tuple(map(order.index, sigma)), stats.n1(sigma)

    for stat, fn in stats.PERM_STATS.items():
        counted = all(collections.Counter(map(fn, enumerate_words(n, "signed")))
                      == orbit_counts(fn, n) for n in range(6))
        assert (stat in stats.PATTERN_STATS) == counted, stat
        if counted:
            # equal counts could hide a statistic that merely counts alike
            # (maj of the absolute values does): the value is the pattern's
            for n in range(6):
                values = {}
                for sigma in enumerate_words(n, "signed"):
                    assert values.setdefault(pattern(sigma), fn(sigma)) == fn(sigma), stat
    assert stats.PATTERN_STATS == {"inv", "maj", "n1", "p", "fmaj", "maj-r", "maj-b", "rmaj"}


CHAIN2 = chain_forest(2)
STAR = parse_forest("(()())")
PAIR = parse_forest("()()")

# forest-level cases use the label vector (w(vertex 1), ..., w(vertex n));
# for the chain, vertex 1 is the root and vertex 2 the child
FOREST_CASES = [
    ("inv-f", CHAIN2, (2, 1), 0),
    ("inv-f", CHAIN2, (-2, 1), 1),
    ("inv-f", STAR, (3, 1, 2), 0),
    ("maj-f", CHAIN2, (1, 2), 1),
    ("maj-f", CHAIN2, (2, 1), 0),
    ("maj-f", STAR, (1, 2, 3), 2),
    ("n2-f", STAR, (1, 2, 3), 0),
    ("n2-f", STAR, (-3, 2, -1), 2),
    ("n2-f", CHAIN2, (-2, 1), 1),
    ("inv-b-f", parse_forest("()"), (1,), 0),
    ("inv-b-f", parse_forest("()"), (-1,), 1),
    ("inv-b-f", CHAIN2, (-2, 1), 3),
    ("inv-d-f", parse_forest("()"), (1,), 0),
    ("inv-d-f", CHAIN2, (-2, -1), 2),
    ("inv-d-f", CHAIN2, (-1, -2), 1),
    ("fmaj-f", parse_forest("()"), (1,), 0),
    ("fmaj-f", parse_forest("()"), (-1,), 1),
    ("fmaj-f", CHAIN2, (-1, -2), 2),
    ("maj-b-f", parse_forest("()"), (1,), 1),
    ("maj-b-f", CHAIN2, (2, -1), 2),
    ("rmaj-f", parse_forest("()"), (1,), 1),
    ("rmaj-f", parse_forest("()"), (-1,), 0),
    ("rmaj-f", CHAIN2, (2, -1), 3),
    ("nmaj-f", parse_forest("()"), (1,), 0),
    ("nmaj-f", CHAIN2, (-2, 1), 3),
    ("dmaj-f", parse_forest("()"), (1,), 0),
    ("dmaj-f", CHAIN2, (-2, -1), 2),
    # the composites off the chains, by hand: in (()()) the root 1 has
    # hook 3 and is comparable with the leaves 2 and 3; in ()() both
    # vertices are roots with hook 1, so inv = n2 = maj = 0 there
    ("inv-b-f", STAR, (-1, 3, -2), 4),   # inv 1 (-1 < 3), n1 2, n2 1 (-1 - 2)
    ("inv-d-f", STAR, (-1, 3, -2), 2),   # inv 1, n2 1
    ("fmaj-f", STAR, (1, 3, -2), 3),     # maj 1 (3 > 1 at vertex 2), n1 1
    ("rmaj-f", STAR, (1, 3, -2), 6),     # maj-b 1 + 3 (positive root), p 2
    ("nmaj-f", STAR, (2, -3, 1), 2),     # maj 0, n1 1, n2 1 (2 - 3)
    ("dmaj-f", STAR, (-1, 3, -2), 2),    # maj 1, n2 1
    ("inv-b-f", PAIR, (-2, 1), 1),       # n1 1
    ("inv-d-f", PAIR, (-1, -2), 0),
    ("fmaj-f", PAIR, (-2, -1), 2),       # n1 2
    ("rmaj-f", PAIR, (2, 1), 2),         # maj-b 2 (two positive roots), p 2
    ("nmaj-f", PAIR, (1, -2), 1),        # n1 1
    ("dmaj-f", PAIR, (2, -1), 0),
]


@pytest.mark.parametrize("stat,forest,w,expected", FOREST_CASES)
def test_forest_statistics(stat, forest, w, expected):
    assert stats.FOREST_STATS[stat](forest, w) == expected


def test_descent_sets():
    assert stats.descent_set((2, -1, 3)) == (1,)
    assert stats.descent_set_b((2, -1, 3)) == (1, 3)
    assert stats.descents_forest(CHAIN2, (1, 2)) == (2,)
    assert stats.descents_forest(CHAIN2, (2, 1)) == ()
    assert stats.descents_b_forest(CHAIN2, (2, -1)) == (1,)
    assert stats.descents_b_forest(CHAIN2, (1, 2)) == (1, 2)


def test_type_b_descents_are_the_descents_and_positive_roots():
    for n in range(5):
        for forest in enumerate_forests(n):
            for w in enumerate_labelings(forest, "signed"):
                reference = set(stats.descents_forest(forest, w))
                reference.update(r for r in forest.roots if w[r - 1] > 0)
                assert stats.descents_b_forest(forest, w) == tuple(sorted(reference))


def test_inv_d_rejects_odd_signs():
    with pytest.raises(ValueError):
        stats.FOREST_STATS["inv-d-f"](CHAIN2, (-1, 2))


def test_resolve_forest_stat():
    ident, fn = stats.resolve_forest_stat("inv-b")
    assert ident == "inv-b-f" and fn is stats.FOREST_STATS["inv-b-f"]
    ident, fn = stats.resolve_forest_stat("nmaj-f")
    assert ident == "nmaj-f"
    with pytest.raises(KeyError):
        stats.resolve_forest_stat("bogus")


def test_registries_cover_the_statistic_ids():
    assert set(stats.PERM_STATS) == {
        "inv", "maj", "n1", "n2", "len-b", "len-d", "fmaj", "nmaj",
        "maj-r", "maj-b", "p", "rmaj", "dmaj"}
    assert set(stats.FOREST_STATS) == {
        "inv-f", "maj-f", "n1-f", "n2-f", "inv-b-f", "inv-d-f", "fmaj-f",
        "maj-b-f", "p-f", "rmaj-f", "nmaj-f", "dmaj-f"}


# the forest statistic and the separately written word statistic it
# extends, compared on chains through the bottom-up reading
CHAIN_PAIRS = [
    (stats.FOREST_STATS[forest_id], stats.PERM_STATS[word_id])
    for forest_id, word_id in [
        ("inv-f", "inv"), ("maj-f", "maj"), ("n1-f", "n1"), ("n2-f", "n2"),
        ("inv-b-f", "len-b"), ("fmaj-f", "fmaj"), ("maj-b-f", "maj-b"),
        ("p-f", "p"), ("rmaj-f", "rmaj"), ("nmaj-f", "nmaj"), ("dmaj-f", "dmaj")]
]


def test_chain_reduction_small():
    for n in range(5):
        f = chain_forest(n)
        for w in enumerate_labelings(f, "signed"):
            word = tuple(reversed(w))
            for forest_fn, word_fn in CHAIN_PAIRS:
                assert forest_fn(f, w) == word_fn(word)
        for w in enumerate_labelings(f, "even-signed"):
            assert stats.FOREST_STATS["inv-d-f"](f, w) == stats.len_d(tuple(reversed(w)))


def test_negative_sum_identity_small():
    for n in range(5):
        for sigma in enumerate_words(n, "signed"):
            neg_sum = -sum(v for v in sigma if v < 0)
            assert neg_sum == stats.n1(sigma) + stats.n2(sigma)


def test_len_d_two_forms():
    for n in range(7):
        for sigma in enumerate_words(n, "signed"):
            alt = stats.inv(sigma) - sum(v for v in sigma if v < 0) - stats.n1(sigma)
            assert stats.len_d(sigma) == alt


def test_root_removal_recursion_small():
    # trees only; labels of the subforest keep their original values
    inv_b = stats.FOREST_STATS["inv-b-f"]
    for n in range(1, 5):
        for f in enumerate_forests(n):
            if len(f.roots) != 1:
                continue
            # the root's children become the roots
            inner = parse_forest(f.render()[1:-1])
            for w in enumerate_labelings(f, "signed"):
                rest = w[1:]
                top = w[0]
                base = inv_b(inner, rest)
                if top > 0:
                    assert inv_b(f, w) == base + n - top
                else:
                    assert inv_b(f, w) == base + n - 1 - top


def test_enumerators():
    assert sorted(enumerate_words(1, "signed")) == [(-1,), (1,)]
    assert len(set(enumerate_words(3, "signed"))) == 48
    evens = set(enumerate_words(3, "even-signed"))
    assert len(evens) == 24
    assert all(stats.n1(s) % 2 == 0 for s in evens)


signed_words = st.integers(0, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).flatmap(
        lambda perm: st.tuples(*[st.sampled_from([v, -v]) for v in perm])))


@given(signed_words)
def test_rmaj_and_fmaj_nonnegative(sigma):
    assert stats.rmaj(sigma) >= 0
    assert stats.fmaj(sigma) >= 0


@given(signed_words)
def test_length_statistics_consistency(sigma):
    assert stats.len_b(sigma) == stats.len_d(sigma) + stats.n1(sigma)
    assert stats.nmaj(sigma) == stats.dmaj(sigma) + stats.n1(sigma)
