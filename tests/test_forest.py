import inspect
import itertools
import math
import random

import pytest

from hookforest.forest import (Forest, ForestParseError, canonical_form,
                               chain_forest, comparable_pairs, enumerate_forests,
                               enumerate_labelings, enumerate_words,
                               forest_from_parents, hook_lengths,
                               labeling_count, labeling_orbits, linear_extensions,
                               parse_forest, parse_forest_input,
                               parse_labeling, validate_labeling)


def catalan(n):
    # independent recurrence C_{n+1} = sum C_i C_{n-i}
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def ballot_count(n):
    # independent: count balanced strings by a prefix-height walk
    heights = {0: 1}
    for _ in range(2 * n):
        nxt = {}
        for h, ways in heights.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + ways
            if h:
                nxt[h - 1] = nxt.get(h - 1, 0) + ways
        heights = nxt
    return heights.get(0, 0)


def test_parse_single_vertex():
    f = parse_forest("()")
    assert f.n == 1
    assert f.roots == (1,)
    assert hook_lengths(f) == (0, 1)


def test_parse_chain_two():
    f = parse_forest("(())")
    assert f.n == 2
    assert f.parent == (0, 0, 1)
    assert f.children == ((1,), (2,), ())
    assert hook_lengths(f) == (0, 2, 1)


def test_parse_mixed_forest():
    f = parse_forest("(()())()")
    assert f.n == 4
    assert f.roots == (1, 4)
    assert f.children[1] == (2, 3)
    assert hook_lengths(f) == (0, 3, 1, 1, 1)


def test_parse_empty():
    f = parse_forest("")
    assert f.n == 0
    assert f.render() == ""


@pytest.mark.parametrize("text,offset", [
    ("(()", 3),
    ("())", 2),
    (")(", 0),
    ("(a)", 1),
])
def test_parse_errors_carry_offset(text, offset):
    with pytest.raises(ForestParseError) as err:
        parse_forest(text)
    assert err.value.offset == offset


def test_round_trip_all_small_forests():
    for n in range(7):
        seen = set()
        for f in enumerate_forests(n):
            s = f.render()
            assert parse_forest(s).render() == s
            seen.add(s)
        assert len(seen) == catalan(n)


def test_forest_counts_against_ballot_walk():
    for n in range(7):
        count = sum(1 for _ in enumerate_forests(n))
        assert count == catalan(n) == ballot_count(n)
    assert catalan(4) == 14


def test_enumeration_is_lexicographic():
    strings = [f.render() for f in enumerate_forests(4)]
    assert strings == sorted(strings)


def test_parent_array_ingestion():
    assert parse_forest_input("[0,1,1,0]").render() == "(()())()"
    # non-preorder numbering is canonicalized
    assert parse_forest_input("[2,0]").render() == "(())"
    assert parse_forest_input("[]").render() == ""
    assert parse_forest_input("(())").render() == "(())"


def test_parent_array_errors():
    with pytest.raises(ValueError):
        forest_from_parents([2, 1])  # cycle
    with pytest.raises(ValueError):
        forest_from_parents([5])  # out of range
    with pytest.raises(ValueError):
        forest_from_parents([1])  # self parent
    with pytest.raises(ValueError):
        parse_forest_input("[0,")


def test_direct_construction_validates():
    with pytest.raises(ValueError, match="preorder"):
        Forest(n=2, parent=(0, 2, 0))  # a parent numbered after its child
    with pytest.raises(ValueError, match="preorder"):
        Forest(n=3, parent=(0, 0, 0, 1))  # vertex 3 under root 1, after root 2
    with pytest.raises(ValueError, match="length"):
        Forest(n=2, parent=(0, 0))
    # an unused slot 0 other than 0 would render as (()) but differ from it
    with pytest.raises(ValueError, match="slot 0"):
        Forest(n=2, parent=(5, 0, 1))
    # entries that equal ints but are not: a float parent would pass the
    # preorder walk and break every later lookup by index
    for n, parent in [(2, (0, 0, 1.0)), (3, (0, 0, True, 1)), (True, (0, 0)),
                      (1, (False, 0)), (2.0, (0, 0, 1))]:
        with pytest.raises(ValueError, match="is not an integer"):
            Forest(n, parent)


def test_constructor_accepts_exactly_the_preorder_parent_arrays():
    for n in range(6):
        # a nonzero unused slot 0 is tried up to n = 3
        slot0 = range(n + 2) if n <= 3 else (0,)
        accepted = set()
        for arr in itertools.product(slot0, *[range(n + 1)] * n):
            try:
                accepted.add(Forest(n, arr).parent)
            except ValueError:
                pass
        assert accepted == {f.parent for f in enumerate_forests(n)}


def reference_render(parents):
    # children in increasing original index, trees by root index
    def tree(v):
        kids = [c for c in range(1, len(parents) + 1) if parents[c - 1] == v]
        return "(" + "".join(tree(c) for c in kids) + ")"
    return "".join(tree(r) for r in range(1, len(parents) + 1) if parents[r - 1] == 0)


def test_parent_arrays_in_any_numbering_match_a_recursive_reference():
    rng = random.Random(2010)
    for n in range(7):
        for f in enumerate_forests(n):
            for _ in range(3):
                new = [0] + rng.sample(range(1, n + 1), n)  # new[v]: v's new index
                parents = [0] * n
                for v in range(1, n + 1):
                    parents[new[v] - 1] = new[f.parent[v]]
                g = forest_from_parents(parents)
                ref = parse_forest(reference_render(parents))
                assert g.render() == ref.render()
                assert g == ref and hash(g) == hash(ref)
            # point a root at a vertex of its own tree
            roots = [v for v in range(1, n + 1) if f.parent[v] == 0 and hook_lengths(f)[v] > 1]
            if roots:
                r = rng.choice(roots)
                parents = list(f.parent[1:])
                parents[r - 1] = rng.randrange(r + 1, r + hook_lengths(f)[r])
                with pytest.raises(ValueError, match="cycle"):
                    forest_from_parents(parents)


def test_children_and_hooks_match_references():
    for n in range(7):
        for f in enumerate_forests(n):
            kids = [tuple(c for c in range(1, n + 1) if f.parent[c] == v) for v in range(n + 1)]
            assert f.children == tuple(kids) and f.roots == kids[0]

            def post(v):
                for c in kids[v]:
                    yield from post(c)
                yield v
            for v in range(1, n + 1):
                assert hook_lengths(f)[v] == sum(1 for _ in post(v))


def test_canonical_form_counts_the_unordered_forests():
    # rooted unordered forests on n vertices: OEIS A000081 shifted by one
    counts = [len({canonical_form(f.render()) for f in enumerate_forests(n)})
              for n in range(9)]
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286]


def test_canonical_form_ignores_sibling_order_and_is_idempotent():
    # with the counts above, invariance under reordering means the keys
    # are exactly the unordered classes
    rng = random.Random(10)
    for n in range(7):
        for f in enumerate_forests(n):
            key = canonical_form(f.render())
            assert canonical_form(key) == key
            # renumbering the vertices reorders siblings and trees
            order = list(range(1, n + 1))
            rng.shuffle(order)
            new = {old: i for i, old in enumerate(order, start=1)}
            new[0] = 0
            parents = [new[f.parent[old]] for old in order]
            assert canonical_form(forest_from_parents(parents).render()) == key
    assert canonical_form("()(())") == "(())()"
    assert canonical_form("(()(()))") == "((())())"
    assert canonical_form("") == ""
    for bad, message in (("(()", "unclosed '(' (offset 3)"),
                         ("())(", "unmatched ')' (offset 2)"),
                         ("(x)", "unexpected character 'x' (offset 1)")):
        with pytest.raises(ForestParseError) as err:
            canonical_form(bad)
        assert err.value.args[0] == message


def test_comparable_pairs_matches_ancestor_predicate():
    def ancestors(f, b):
        # walk the parent array up from b to its root
        a = f.parent[b]
        while a:
            yield a
            a = f.parent[a]

    for n in range(6):
        for f in enumerate_forests(n):
            brute = {(a, b) for b in range(1, n + 1) for a in ancestors(f, b)}
            assert set(comparable_pairs(f)) == brute


def test_labeling_counts_and_uniqueness():
    for n in range(5):
        for f in enumerate_forests(n):
            for mode in ("ordinary", "signed", "even-signed"):
                labs = list(enumerate_labelings(f, mode))
                assert len(labs) == labeling_count(n, mode)
                assert len(set(labs)) == len(labs)
            break  # counts depend only on n


def test_labeling_examples():
    dot = parse_forest("()")
    assert list(enumerate_labelings(dot, "signed")) == [(-1,), (1,)]
    chain = parse_forest("(())")
    assert len(list(enumerate_labelings(chain, "signed"))) == 8
    evens = list(enumerate_labelings(chain, "even-signed"))
    assert len(evens) == 4
    assert all(sum(1 for v in w if v < 0) % 2 == 0 for w in evens)


def test_labelings_are_lexicographic():
    chain = parse_forest("(())")
    for mode in ("ordinary", "signed", "even-signed"):
        labs = list(enumerate_labelings(chain, mode))
        assert labs == sorted(labs)


@pytest.mark.parametrize("mode", ["ordinary", "signed", "even-signed"])
def test_words_match_an_itertools_construction(mode):
    # permutations times sign vectors, sorted: pins the set, the count
    # and the order of the generated words
    for n in range(6):
        sign_choices = (1,) if mode == "ordinary" else (1, -1)
        expected = sorted(
            tuple(s * v for s, v in zip(signs, perm))
            for perm in itertools.permutations(range(1, n + 1))
            for signs in itertools.product(sign_choices, repeat=n)
            if mode != "even-signed" or signs.count(-1) % 2 == 0)
        assert list(enumerate_words(n, mode)) == expected


def recursive_words(n, mode):
    """Reference: the words of enumerate_words by one recursive generator
    frame per letter, with the last sign forced in the even-signed mode."""
    if mode == "ordinary":
        yield from itertools.permutations(range(1, n + 1))
        return
    even = mode == "even-signed"

    # rest holds the unused absolute values in increasing order; at each
    # position the values run -max(rest) < ... < -min(rest) < min(rest) < ...
    def rec(prefix, rest, negatives):
        if len(rest) == 1:
            k = rest[0]
            if even:
                yield prefix + ((-k if negatives % 2 else k),)
            else:
                yield prefix + (-k,)
                yield prefix + (k,)
            return
        for i in reversed(range(len(rest))):
            yield from rec(prefix + (-rest[i],), rest[:i] + rest[i + 1:], negatives + 1)
        for i in range(len(rest)):
            yield from rec(prefix + (rest[i],), rest[:i] + rest[i + 1:], negatives)

    if n == 0:
        yield ()
    else:
        yield from rec((), tuple(range(1, n + 1)), 0)


@pytest.mark.parametrize("mode", ["ordinary", "signed", "even-signed"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_words_match_the_recursive_reference(n, mode):
    assert list(enumerate_words(n, mode)) == list(recursive_words(n, mode))


def test_labelings_are_the_words_of_the_size():
    # a layer tracer counts the items of generator functions
    assert inspect.isgeneratorfunction(enumerate_labelings)
    for f in enumerate_forests(3):
        for mode in ("ordinary", "signed", "even-signed"):
            assert list(enumerate_labelings(f, mode)) == list(enumerate_words(3, mode))


def test_labeling_orbits_are_labelings_weighted_to_the_count():
    for n in range(6):
        for f in enumerate_forests(n):
            orbits = list(labeling_orbits(f))
            for w, _ in orbits:
                assert validate_labeling(f, w) == w
            assert len({w for w, _ in orbits}) == len(orbits)
            assert sum(weight for _, weight in orbits) == labeling_count(n, "signed")


def test_labeling_orbits_count():
    # one signed orbit per labeled rooted forest on n vertices and position
    # of 0 among the labels: (n + 1)^(n - 1) * (n + 1), summed over classes
    counts = []
    for n in range(1, 6):
        classes = {canonical_form(f.render()): f for f in enumerate_forests(n)}
        counts.append(sum(len(list(labeling_orbits(f))) for f in classes.values()))
    assert counts == [2, 9, 64, 625, 7776]
    # the chain has no automorphism: one orbit per pattern
    for n in range(6):
        assert len(list(labeling_orbits(chain_forest(n)))) == math.factorial(n + 1)


def _pattern(w):
    # the relative order of the labels and 0
    return tuple(sorted(range(len(w)), key=lambda i: w[i])), sum(1 for v in w if v < 0)


def test_labeling_orbits_match_brute_force_automorphisms():
    # automorphisms as the vertex permutations that keep the parent map
    for n in range(5):
        for f in enumerate_forests(n):
            autos = [s for s in itertools.permutations(range(1, n + 1))
                     if all(f.parent[s[v - 1]] == (s[f.parent[v] - 1] if f.parent[v] else 0)
                            for v in range(1, n + 1))]
            orbit_of = {}
            for w in enumerate_labelings(f):
                images = {_pattern(tuple(w[s[v] - 1] for v in range(n))) for s in autos}
                orbit_of[w] = min(images)
            orbits = {}
            for w, key in orbit_of.items():  # lexicographic order
                orbits.setdefault(key, []).append(w)
            assert sorted(labeling_orbits(f)) == sorted(
                (members[0], len(members)) for members in orbits.values())
            # automorphisms act freely on rank vectors: every orbit has
            # len(autos) patterns of C(n, k) labelings each
            for w, weight in labeling_orbits(f):
                assert weight == len(autos) * math.comb(n, sum(1 for v in w if v < 0))


def reference_labeling_orbits(forest):
    """Reference: labeling_orbits with the twin test and the rank-to-label
    map as generator expressions, one Python step per rank."""
    n, kids = forest.n, forest.children
    shape = [()] * (n + 1)
    twins, automorphisms = [], 1
    for v in range(n, -1, -1):
        shape[v] = tuple(sorted(shape[c] for c in kids[v]))
        for i, c in enumerate(kids[v]):
            same = [b - 1 for b in kids[v][:i] if shape[b] == shape[c]]
            automorphisms *= len(same) + 1
            twins += [(b, c - 1) for b in same[-1:]]
    for k in range(n + 1):
        weight = automorphisms * math.comb(n, k)
        for ranks in itertools.permutations(range(1, n + 1)):
            if all(ranks[b] < ranks[c] for b, c in twins):
                yield tuple(r - n - 1 if r <= k else r - k for r in ranks), weight


def test_labeling_orbits_match_the_reference():
    for n in range(7):
        for f in enumerate_forests(n):
            assert list(labeling_orbits(f)) == list(reference_labeling_orbits(f)), f.render()


def test_labeling_orbits_stream(monkeypatch):
    # the first orbit is yielded after one rank vector is read: no table
    # of orbits is built first
    read = []
    permutations = itertools.permutations

    def counting(*args):
        for ranks in permutations(*args):
            read.append(ranks)
            yield ranks

    monkeypatch.setattr(itertools, "permutations", counting)
    assert next(labeling_orbits(chain_forest(7))) == ((1, 2, 3, 4, 5, 6, 7), 1)
    assert len(read) == 1


def test_labeling_orbit_examples():
    # two roots swap: w ~ (w[1], w[0]); a pattern keeps the order of the
    # labels and 0
    assert list(labeling_orbits(parse_forest("()()"))) == [
        ((1, 2), 2), ((-2, 1), 4), ((-2, -1), 2)]
    # a chain: one orbit per pattern, of C(2, k) labelings
    assert list(labeling_orbits(parse_forest("(())"))) == [
        ((1, 2), 1), ((2, 1), 1), ((-2, 1), 2), ((1, -2), 2), ((-2, -1), 1), ((-1, -2), 1)]
    assert list(labeling_orbits(parse_forest(""))) == [((), 1)]


def test_bad_mode():
    with pytest.raises(ValueError):
        list(enumerate_labelings(parse_forest("()"), "weird"))


def test_words_reject_bad_arguments():
    with pytest.raises(ValueError, match="unknown sign mode"):
        list(enumerate_words(2, "weird"))
    with pytest.raises(ValueError, match="size must be nonnegative"):
        list(enumerate_words(-1, "signed"))


def test_validate_labeling():
    chain = parse_forest("(())")
    assert validate_labeling(chain, [-1, 2]) == (-1, 2)
    with pytest.raises(ValueError):
        validate_labeling(chain, [1, 1])
    with pytest.raises(ValueError):
        validate_labeling(chain, [1, 3])
    with pytest.raises(ValueError):
        validate_labeling(chain, [1])
    with pytest.raises(ValueError):
        validate_labeling(chain, [0, 1])
    # bools are ints in Python, but not labels
    with pytest.raises(ValueError, match="labels must be nonzero integers"):
        validate_labeling(chain, (True, -2))


def test_parse_labeling():
    assert parse_labeling("-1,2") == (-1, 2)
    assert parse_labeling("") == ()
    with pytest.raises(ValueError):
        parse_labeling("1,x")


def test_linear_extensions_chain_reads_bottom_up():
    chain = parse_forest("(())")
    assert list(linear_extensions(chain, (2, -1))) == [(-1, 2)]
    for n in range(1, 6):
        f = chain_forest(n)
        for w in enumerate_labelings(f, "signed"):
            exts = list(linear_extensions(f, w))
            assert exts == [tuple(reversed(w))]
            break


def test_linear_extensions_examples():
    star = parse_forest("(()())")
    assert set(linear_extensions(star, (1, 2, 3))) == {(2, 3, 1), (3, 2, 1)}
    anti = parse_forest("()()")
    assert set(linear_extensions(anti, (2, -1))) == {(2, -1), (-1, 2)}
    empty = parse_forest("")
    assert list(linear_extensions(empty, ())) == [()]


def test_linear_extensions_sorted_and_counted():
    for n in range(6):
        for f in enumerate_forests(n):
            h = hook_lengths(f)
            expected = math.factorial(n) // math.prod(h[1:]) if n else 1
            w = next(enumerate_labelings(f, "signed"))
            exts = list(linear_extensions(f, w))
            assert len(exts) == expected
            assert exts == sorted(exts)
            assert len(set(exts)) == len(exts)


def test_labelings_containing_fixed_extension():
    # the number of ordinary labelings whose extension set contains a
    # given permutation is labeling independent: n! / prod hooks
    for n in range(6):
        for f in enumerate_forests(n):
            h = hook_lengths(f)
            expected = math.factorial(n) // math.prod(h[1:]) if n else 1
            counts = {}
            for w in enumerate_labelings(f, "ordinary"):
                for pi in linear_extensions(f, w):
                    counts[pi] = counts.get(pi, 0) + 1
            for pi in itertools.permutations(range(1, n + 1)):
                assert counts.get(pi, 0) == expected
