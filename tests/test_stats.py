import collections
import itertools

import pytest
from hypothesis import given, strategies as st

from hookforest import stats
from hookforest.forest import (chain_forest, comparable_pairs, enumerate_forests,
                               enumerate_labelings, enumerate_words, hook_lengths,
                               labeling_orbits, parse_forest)


# ---------------------------------------------------------------------------
# references: the statistics as index loops and generator expressions, one
# Python step per pair of positions or per letter; the library's versions
# must agree with them on every word and labeling


def reference_inv(sigma):
    total = 0
    n = len(sigma)
    for i in range(n):
        si = sigma[i]
        for j in range(i + 1, n):
            if si > sigma[j]:
                total += 1
    return total


def reference_n2(sigma):
    total = 0
    n = len(sigma)
    for i in range(n):
        si = sigma[i]
        for j in range(i + 1, n):
            if si + sigma[j] < 0:
                total += 1
    return total


def reference_n1(sigma):
    return sum(1 for v in sigma if v < 0)


def reference_p(sigma):
    return sum(1 for v in sigma if v > 0)


def reference_descent_set(sigma):
    return tuple(i for i in range(1, len(sigma)) if sigma[i - 1] > sigma[i])


def reference_descent_set_b(sigma):
    n = len(sigma)
    return tuple(i for i in range(1, n + 1)
                 if sigma[i - 1] > (sigma[i] if i < n else 0))


def reference_maj_r(sigma):
    n = len(sigma)

    def key(v):
        return v if v > 0 else 2 * n + 1 + v

    total = 0
    for i in range(1, n + 1):
        nxt = key(sigma[i]) if i < n else n
        if key(sigma[i - 1]) > nxt:
            total += i
    return total


def _reference_maj(s):
    return sum(reference_descent_set(s))


def _reference_maj_b(s):
    return sum(reference_descent_set_b(s))


REFERENCE_PERM_STATS = {
    "inv": reference_inv,
    "maj": _reference_maj,
    "n1": reference_n1,
    "n2": reference_n2,
    "len-b": lambda s: reference_inv(s) + reference_n1(s) + reference_n2(s),
    "len-d": lambda s: reference_inv(s) + reference_n2(s),
    "fmaj": lambda s: 2 * _reference_maj(s) + reference_n1(s),
    "nmaj": lambda s: _reference_maj(s) + reference_n1(s) + reference_n2(s),
    "maj-r": reference_maj_r,
    "maj-b": _reference_maj_b,
    "p": reference_p,
    "rmaj": lambda s: 2 * _reference_maj_b(s) - reference_p(s),
    "dmaj": lambda s: _reference_maj(s) + reference_n2(s),
}


def reference_descents_forest(forest, w):
    parent = forest.parent
    return tuple(v for v in range(1, forest.n + 1)
                 if parent[v] and w[v - 1] > w[parent[v] - 1])


def reference_descents_b_forest(forest, w):
    parent = forest.parent
    return tuple(v for v in range(1, forest.n + 1)
                 if w[v - 1] > (w[parent[v] - 1] if parent[v] else 0))


REFERENCE_TERM_STATS = {
    "inv": lambda f, w: sum(1 for a, b in comparable_pairs(f) if w[a - 1] < w[b - 1]),
    "n2": lambda f, w: sum(1 for a, b in comparable_pairs(f) if w[a - 1] + w[b - 1] < 0),
    "n1": lambda f, w: sum(1 for v in w if v < 0),
    "p": lambda f, w: sum(1 for v in w if v > 0),
    "maj": lambda f, w: sum(hook_lengths(f)[v] for v in reference_descents_forest(f, w)),
    "maj-b": lambda f, w: sum(hook_lengths(f)[v] for v in reference_descents_b_forest(f, w)),
}


def test_word_statistics_match_the_references():
    # the ordinary and even-signed words are signed words, so the values
    # on the signed words cover all three modes
    assert set(REFERENCE_PERM_STATS) == set(stats.PERM_STATS)
    pairs = [(fn, REFERENCE_PERM_STATS[stat]) for stat, fn in stats.PERM_STATS.items()]
    pairs += [(stats.descent_set, reference_descent_set),
              (stats.descent_set_b, reference_descent_set_b)]
    for n in range(7):
        words = list(enumerate_words(n, "signed"))
        for fn, reference in pairs:
            assert list(map(fn, words)) == list(map(reference, words)), (fn.__name__, n)


def test_forest_terms_match_the_references():
    assert set(REFERENCE_TERM_STATS) == set(stats.TERM_STATS)
    pairs = [(fn, REFERENCE_TERM_STATS[term]) for term, fn in stats.TERM_STATS.items()]
    pairs += [(stats.descents_forest, reference_descents_forest),
              (stats.descents_b_forest, reference_descents_b_forest)]
    for n in range(6):
        for forest in enumerate_forests(n):
            labelings = list(enumerate_labelings(forest, "signed"))
            forests = list(itertools.repeat(forest, len(labelings)))
            for fn, reference in pairs:
                assert (list(map(fn, forests, labelings))
                        == list(map(reference, forests, labelings))), (fn.__name__, forest)


# words of distinct nonzero integers with gaps in their absolute values,
# such as (-7, 3, -2, 10): no statistic may assume the values 1..n
gapped_words = st.lists(st.integers(1, 40), unique=True, max_size=8).flatmap(
    lambda values: st.permutations(values).flatmap(
        lambda perm: st.tuples(*[st.sampled_from([v, -v]) for v in perm])))


@given(gapped_words)
def test_word_statistics_on_words_with_gaps(sigma):
    for stat, fn in stats.PERM_STATS.items():
        assert fn(sigma) == REFERENCE_PERM_STATS[stat](sigma), stat
    assert stats.descent_set(sigma) == reference_descent_set(sigma)
    assert stats.descent_set_b(sigma) == reference_descent_set_b(sigma)


def test_word_statistics_example_with_gaps():
    # by hand: the one inversion is (3, -2); the negative pair sums are
    # -7 + 3 and -7 - 2, while n1 + n2 = 4 is not -(-7 - 2) as it would be
    # on 1..n; descents at 2 and, against the sentinel 0, at 4; maj-r keys
    # (2, 3, 7, 10) against the sentinel 4 descend at 4 only
    sigma = (-7, 3, -2, 10)
    values = {stat: fn(sigma) for stat, fn in stats.PERM_STATS.items()}
    assert values == {"inv": 1, "maj": 2, "n1": 2, "n2": 2, "len-b": 5, "len-d": 3,
                      "fmaj": 6, "nmaj": 6, "maj-r": 4, "maj-b": 6, "p": 2,
                      "rmaj": 10, "dmaj": 4}

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
