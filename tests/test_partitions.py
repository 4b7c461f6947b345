"""Type-B partition machinery: membership, series, shift, and the split
over linear extensions."""

import itertools
import random
import sys
from collections import Counter
from functools import lru_cache

import pytest

from hookforest import formulas, stats, verify
from hookforest.forest import (canonical_form, chain_forest, comparable_pairs,
                               enumerate_forests, enumerate_labelings, hook_lengths,
                               labeling_orbits, linear_extensions, parse_forest)
from hookforest.qpoly import BiPoly, Series, geometric_series, q_number

DOT = parse_forest("()")
CHAIN2 = chain_forest(2)
ANTI2 = parse_forest("()()")


def plain_forest_partitions(forest, max_total):
    """Reference: the vertex maps of weight <= max_total that weakly
    increase toward the leaves, filtered from the full grid."""
    pairs = comparable_pairs(forest)
    return [f for f in itertools.product(range(max_total + 1), repeat=forest.n)
            if sum(f) <= max_total and all(f[a - 1] <= f[b - 1] for a, b in pairs)]


@lru_cache(maxsize=None)
def bounded_grid(n, max_total):
    """Every vertex map of weight <= max_total, in lexicographic order."""
    return tuple(f for f in itertools.product(range(max_total + 1), repeat=n)
                 if sum(f) <= max_total)


def all_pairs_partition_b(forest, w, f):
    """Reference membership: f weakly increases across every comparable
    pair, strictly where the ancestor's label is smaller, and is >= 0 at
    every root and >= 1 at positively labeled roots."""
    for a, b in comparable_pairs(forest):
        if f[a - 1] > f[b - 1] or (f[a - 1] == f[b - 1] and w[a - 1] < w[b - 1]):
            return False
    return all(f[r - 1] >= (w[r - 1] > 0) for r in forest.roots)


def grid_partitions(forest, w, max_total):
    """Reference: the type-B partitions filtered from the full grid by
    the all-pairs membership test."""
    return [f for f in bounded_grid(forest.n, max_total)
            if all_pairs_partition_b(forest, w, f)]


def recursive_partitions(forest, w, max_total):
    """Reference: the recursive preorder lister, one ``yield from``
    frame per vertex, with the same lowest values and the same room
    test as the odometer in ``verify.enumerate_partitions``."""
    if max_total < 0:
        raise ValueError("weight bound must be nonnegative")
    n, parent = forest.n, forest.parent
    h = hook_lengths(forest)
    f = [0] * n

    def rec(v, room):
        if v > n:
            yield tuple(f)
            return
        p = parent[v]
        if p:
            low = f[p - 1] + (w[p - 1] < w[v - 1])
        else:
            low = 1 if w[v - 1] > 0 else 0
        for x in range(low, room // h[v] + 1):
            f[v - 1] = x
            yield from rec(v + 1, room - x)

    yield from rec(1, max_total)


def weight_series(maps, degree):
    return Series(BiPoly(Counter((0, sum(f)) for f in maps)), degree)


def all_negative(n):
    return tuple(-v for v in range(1, n + 1))


def test_membership_conditions():
    # chain with root label 1, child label 2: strict increase and a
    # positive root force 1 <= f(root) < f(child)
    w = (1, 2)
    assert not verify.is_partition_b(CHAIN2, w, (0, 1))
    assert not verify.is_partition_b(CHAIN2, w, (1, 1))
    assert not verify.is_partition_b(CHAIN2, w, (2, 1))
    assert verify.is_partition_b(CHAIN2, w, (1, 2))
    assert verify.is_partition_b(CHAIN2, w, (2, 3))
    # a negatively labeled root is still bounded below by 0
    assert verify.is_partition_b(DOT, (-1,), (0,))
    assert not verify.is_partition_b(DOT, (-1,), (-1,))
    assert not verify.is_partition_b(ANTI2, (-1, -2), (0, -1))


def test_membership_matches_the_all_pairs_reference():
    # values from -1 test the nonnegativity that no parent pair implies
    for n in range(5):
        maps = list(itertools.product(range(-1, 4), repeat=n))
        for forest in enumerate_forests(n):
            for w in enumerate_labelings(forest, "signed"):
                assert ([f for f in maps if verify.is_partition_b(forest, w, f)]
                        == [f for f in maps if all_pairs_partition_b(forest, w, f)]), (forest, w)


def test_enumerate_partitions_examples():
    assert list(verify.enumerate_partitions(DOT, (1,), 1)) == [(1,)]
    assert list(verify.enumerate_partitions(DOT, (-1,), 1)) == [(0,), (1,)]
    # weight cannot drop below maj-b = 3
    assert list(verify.enumerate_partitions(CHAIN2, (1, 2), 1)) == []
    assert list(verify.enumerate_partitions(CHAIN2, (1, 2), 3)) == [(1, 2)]
    assert list(verify.enumerate_partitions(parse_forest(""), (), 2)) == [()]


def _grid_cases():
    cases = [(f.render(), 6) for n in range(5) for f in enumerate_forests(n)]
    chain, flat = "(" * 5 + ")" * 5, "()" * 5
    others = [f.render() for f in enumerate_forests(5) if f.render() not in (chain, flat)]
    return cases + [(p, 4) for p in [chain, flat] + random.Random(6).sample(others, 2)]


@pytest.mark.parametrize("paren, max_bound", _grid_cases())
def test_enumerate_partitions_matches_the_grid(paren, max_bound):
    # same maps, same order as the grid filter, for every labeling and
    # bound; dec1 relies on this completeness.  The grid at a smaller
    # bound is the same lexicographic sequence cut by weight.
    forest = parse_forest(paren)
    for w in enumerate_labelings(forest, "signed"):
        reference = grid_partitions(forest, w, max_bound)
        for bound in range(max_bound + 1):
            assert (list(verify.enumerate_partitions(forest, w, bound))
                    == [f for f in reference if sum(f) <= bound])


def _reference_cases(n):
    # every signed labeling below n = 5; from there one forest per
    # unordered class and one labeling per orbit
    if n < 5:
        return [(f, w) for f in enumerate_forests(n) for w in enumerate_labelings(f, "signed")]
    classes = {canonical_form(f.render()): f for f in enumerate_forests(n)}
    return [(f, w) for f in classes.values() for w, _ in labeling_orbits(f)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_enumerate_partitions_matches_the_recursive_reference(n):
    for forest, w in _reference_cases(n):
        for bound in range(7):
            assert (list(verify.enumerate_partitions(forest, w, bound))
                    == list(recursive_partitions(forest, w, bound))), (forest, w, bound)


def test_enumerate_partitions_on_a_chain_deeper_than_the_recursion_limit():
    n = 1100
    chain = chain_forest(n)
    assert n > sys.getrecursionlimit()
    counts = [sum(1 for _ in verify.enumerate_partitions(chain, all_negative(n), d))
              for d in (0, 1, 3)]
    # weakly increasing maps of weight at most d: integer partitions of
    # 0..d, so 1, 1 + 1 and 1 + 1 + 2 + 3
    assert counts == [1, 2, 7]
    assert list(verify.enumerate_partitions(chain, tuple(range(1, n + 1)), 10)) == []


def test_partition_series_examples():
    s = verify.partition_lhs_series(DOT, (1,), 3)
    assert s == Series(BiPoly({(0, 1): 1, (0, 2): 1, (0, 3): 1}), 3)
    s = verify.partition_lhs_series(DOT, (-1,), 2)
    assert s == Series(q_number(3), 2)
    # two positive roots force weight at least 2
    s = verify.partition_lhs_series(ANTI2, (1, 2), 1)
    assert s == Series(BiPoly.zero(), 1)


@pytest.mark.parametrize("n, degrees", [(n, (0, 1, 6, 10)) for n in range(5)]
                         + [pytest.param(5, (6, 10), marks=pytest.mark.slow)])
def test_partition_dp_matches_the_enumeration(n, degrees):
    # the check's series, counted by value, against the listed maps on
    # every orbit the lem-partition-gf check evaluates
    classes = {canonical_form(f.render()): f for f in enumerate_forests(n)}
    for forest in classes.values():
        for w, _ in labeling_orbits(forest):
            for degree in degrees:
                assert (verify._partition_series(forest, w, degree)
                        == verify.partition_lhs_series(forest, w, degree)), (forest, w, degree)


def test_partition_dp_edges(monkeypatch):
    def unreachable(forest, w, max_total):
        raise AssertionError("the DP lists no maps")

    monkeypatch.setattr(verify, "enumerate_partitions", unreachable)
    with pytest.raises(ValueError, match="^weight bound must be nonnegative$"):
        verify._partition_series(DOT, (1,), -1)
    for degree in (0, 5):
        assert verify._partition_series(parse_forest(""), (), degree) == Series(BiPoly.one(), degree)


def test_partition_series_closed_form_small():
    for n in range(3):
        for forest in enumerate_forests(n):
            for w in enumerate_labelings(forest, "signed"):
                assert (verify.partition_lhs_series(forest, w, 8)
                        == formulas.rhs_partition_gf(forest, w, 8))


def test_partition_shift_examples():
    assert verify._drop(DOT, (1,)) == [1]
    assert verify._drop(DOT, (-1,)) == [0]
    # chain, root label 1, child label 2: both vertices are type-B
    # descents, and the child also drops with its ancestor
    assert verify._drop(CHAIN2, (1, 2)) == [1, 2]


def test_partition_shift_bijectivity_small():
    for n in range(3):
        for forest in enumerate_forests(n):
            for w in enumerate_labelings(forest, "signed"):
                report = verify.check_partition_shift(forest, w, 8)
                assert report.passed, report.summary()


def subtree_shift(forest, w, f):
    """Reference: subtract 1 on the subtree of each type-B descent."""
    h = hook_lengths(forest)
    out = list(f)
    for u in stats.descents_b_forest(forest, w):
        for v in range(u, u + h[u]):
            out[v - 1] -= 1
    return tuple(out)


def test_partition_shift_matches_the_subtree_loop():
    # both shifts are translations, so they agree on every map once they
    # agree on the zero map
    for n in range(5):
        for forest in enumerate_forests(n):
            for w in enumerate_labelings(forest, "signed"):
                assert ([-x for x in subtree_shift(forest, w, [0] * n)]
                        == verify._drop(forest, w)), (forest, w)


def test_shift_witnesses(monkeypatch):
    # on the chain labeled (1, -2) the root is the one type-B descent,
    # so maj-b is 2 and the drop is (1, 1)
    cases = [
        # each vertex's own descent without its ancestors'
        ([1, 0], "labeling (1, -2): weight drop is not maj-b"),
        # the right sum, all of it at the descent
        ([2, 0], "labeling (1, -2): image misses some forest partitions"),
    ]
    for drop, witness in cases:
        monkeypatch.setattr(verify, "_drop", lambda forest, w: drop)
        report = verify.check_partition_shift(CHAIN2, (1, -2), 4)
        assert not report.passed and report.witness == witness


def test_is_partition_b_on_chains_is_word_compatibility():
    # a map compatible with a word s, read along s, is a type-B
    # partition of the chain labeled by s read backwards
    def compatible(sigma, fvals):
        return verify.is_partition_b(chain_forest(len(sigma)), sigma[::-1], fvals[::-1])

    assert compatible((), ())
    assert compatible((2, -1), (1, 0))
    assert not compatible((2, -1), (1, 1))  # descent needs strict
    assert not compatible((2, -1), (0, 1))  # must not increase
    assert compatible((-1, 2), (1, 1))
    assert not compatible((-1, 2), (1, 0))  # ends positive, needs >= 1
    assert compatible((1,), (1,))
    assert not compatible((1,), (0,))


def test_dec1_examples():
    assert verify.check_decomposition_dec1(DOT, (1,), 2).passed
    assert verify.check_decomposition_dec1(ANTI2, (1, -2), 2).passed
    assert verify.check_decomposition_dec1(CHAIN2, (2, -1), 3).passed


def test_dec1_small():
    for n in range(3):
        for forest in enumerate_forests(n):
            for w in enumerate_labelings(forest, "signed"):
                report = verify.check_decomposition_dec1(forest, w, 6)
                assert report.passed, report.summary()


def test_dec1_witness_for_a_missing_extension(monkeypatch):
    exts = verify.linear_extensions
    monkeypatch.setattr(verify, "linear_extensions", lambda forest, w: list(exts(forest, w))[1:])
    report = verify.check_decomposition_dec1(ANTI2, (1, -2), 2)
    assert not report.passed
    assert report.witness == "labeling (1, -2), map (1, 1): 0 compatible extensions"


@pytest.mark.parametrize("drop", [-1, 2], ids=["last", "middle"])
def test_dec1_witness_for_a_later_missing_extension(monkeypatch, drop):
    # the witness is the lexicographically first member that no kept
    # extension word owns, found here from the members alone
    forest, w = parse_forest("()()()"), (1, -2, 3)
    kept = list(linear_extensions(forest, w))
    del kept[drop]
    monkeypatch.setattr(verify, "linear_extensions", lambda forest, w: kept)

    def owned(f, s):
        along = tuple(f[w.index(value)] for value in s)
        return verify.is_partition_b(chain_forest(3), s[::-1], along[::-1])

    first = next(f for f in verify.enumerate_partitions(forest, w, 6)
                 if not any(owned(f, s) for s in kept))
    report = verify.check_decomposition_dec1(forest, w, 6)
    assert not report.passed
    assert report.witness == f"labeling {w}, map {first}: 0 compatible extensions"


def test_dec1_witness_for_a_duplicated_extension(monkeypatch):
    exts = verify.linear_extensions
    monkeypatch.setattr(verify, "linear_extensions",
                        lambda forest, w: (lambda e: e + e[:1])(list(exts(forest, w))))
    report = verify.check_decomposition_dec1(ANTI2, (1, -2), 2)
    assert not report.passed
    assert report.witness == "labeling (1, -2), map (1, 1): 2 compatible extensions"


def with_an_extra_chain_map(monkeypatch, extra):
    """Make enumerate_partitions list one more map on the 2-chain."""
    generate = verify.enumerate_partitions

    def listed(forest, w, max_total):
        yield from generate(forest, w, max_total)
        if forest == CHAIN2:
            yield extra

    monkeypatch.setattr(verify, "enumerate_partitions", listed)


def test_dec1_witness_for_a_generated_non_partition(monkeypatch):
    # (1, 0) is compatible with neither extension word; read back onto
    # the vertices it is a member, which the other word also yields
    with_an_extra_chain_map(monkeypatch, (1, 0))
    report = verify.check_decomposition_dec1(ANTI2, (1, -2), 2)
    assert not report.passed
    assert report.witness == "labeling (1, -2), map (1, 0): 2 compatible extensions"


def test_dec1_witness_for_a_generated_non_member(monkeypatch):
    # (0, 0) reads back as a map that is no member: the root labeled 1
    # needs a value of at least 1
    with_an_extra_chain_map(monkeypatch, (0, 0))
    report = verify.check_decomposition_dec1(ANTI2, (1, -2), 2)
    assert not report.passed
    assert report.witness == "labeling (1, -2), map (0, 0): compatible but not a partition"


def test_dec1_tests_each_map_once_on_the_forest(monkeypatch):
    # the chain maps meet the chain's conditions by construction, so
    # dec1 tests each only as a map on (F, w): one call per member
    forest, w = parse_forest("()()()()"), (2, -3, 1, -4)
    member, calls = verify.is_partition_b, []

    def counted(on, labels, f):
        calls.append((on, labels))
        return member(on, labels, f)

    monkeypatch.setattr(verify, "is_partition_b", counted)
    assert verify.check_decomposition_dec1(forest, w, 10).passed
    assert len(calls) == len(list(verify.enumerate_partitions(forest, w, 10))) == 495
    assert all(on == forest and labels == w for on, labels in calls)


def test_dec1_witness_for_a_compatible_non_member(monkeypatch):
    member = verify.is_partition_b
    monkeypatch.setattr(verify, "is_partition_b",
                        lambda forest, w, f: f != (2, 0) and member(forest, w, f))
    report = verify.check_decomposition_dec1(ANTI2, (1, -2), 2)
    assert not report.passed
    assert report.witness == "labeling (1, -2), map (2, 0): compatible but not a partition"


def test_partition_checks_read_orbit_invariants():
    # dec1 splits the type-B partitions over extension words weighted by
    # maj-b, and the shift lowers each by the labeling's maj-b; these
    # values are constant on labeling orbits, so both checks may run
    # once per orbit
    def values(forest, w):
        weights = Counter(map(sum, verify.enumerate_partitions(forest, w, 6)))
        return (tuple(sorted(weights.items())), stats.maj_b_forest(forest, w),
                tuple(sorted(map(stats.maj_b, linear_extensions(forest, w)))))

    for n in range(5):
        for forest in enumerate_forests(n):
            every = Counter(values(forest, w) for w in enumerate_labelings(forest, "signed"))
            weighted = Counter()
            for w, weight in labeling_orbits(forest):
                weighted[values(forest, w)] += weight
            assert every == weighted, forest.render()


# Each patch breaks its check on labelings with a positive first label.
# On ()() the orbit of (1, -2), represented by (-2, 1), passes, and the
# failing orbit of (1, 2) sends the row back to (1, -2), the first
# failing labeling in lexicographic order.
@pytest.mark.parametrize("theorem, check, name, wrap, witness", [
    ("dec1", "check_decomposition_dec1", "is_partition_b",
     lambda member: lambda forest, w, f: not (w[0] > 0 and f == (1, 1)) and member(forest, w, f),
     "labeling (1, -2), map (1, 1): compatible but not a partition"),
    ("partition-shift", "check_partition_shift", "_drop",
     lambda drop: lambda forest, w: [d + (w[0] > 0) for d in drop(forest, w)],
     "labeling (1, -2): weight drop is not maj-b"),
], ids=["dec1", "partition-shift"])
def test_partition_row_witness_is_the_first_of_the_labeling_loop(monkeypatch, theorem, check,
                                                                  name, wrap, witness):
    assert (1, -2) not in {w for w, _ in labeling_orbits(ANTI2)}
    monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
    report = verify.check_theorem(ANTI2, theorem)
    assert not report.passed
    # the public check's first failure over every labeling, in order
    loop = next(r.witness for w in enumerate_labelings(ANTI2)
                if not (r := getattr(verify, check)(ANTI2, w, 10)).passed)
    assert report.witness == loop == witness


def test_sweep_passes_its_degree_to_the_shift(monkeypatch):
    degrees = []
    shift = verify.check_partition_shift

    def recorded(forest, w, degree):
        degrees.append(degree)
        return shift(forest, w, degree)

    monkeypatch.setattr(verify, "check_partition_shift", recorded)
    assert all(r.passed for r in verify.sweep("partition-shift", 3, degree=2))
    assert degrees and set(degrees) == {2}


@pytest.mark.slow
def test_partition_checks_exhaustive_n4():
    assert all(r.passed for r in verify.sweep("lem-partition-gf", 4, degree=10))
    for forest in enumerate_forests(4):
        for w in enumerate_labelings(forest, "signed"):
            for check in (verify.check_decomposition_dec1, verify.check_partition_shift):
                report = check(forest, w, 10)
                assert report.passed, report.summary()


@pytest.mark.slow
@pytest.mark.parametrize("theorem", ["dec1", "partition-shift"])
def test_partition_checks_on_labeling_orbits_n5(theorem):
    # dec1 and the shift read labels through comparisons only and ignore
    # sibling order, so their rows run on one labeling per orbit of one
    # forest per class
    reports = verify.sweep(theorem, 5, jobs=2)
    assert len(reports) == sum(len(list(enumerate_forests(n))) for n in range(6)) == 65
    assert all(r.passed for r in reports), [r.summary() for r in reports if not r.passed]


def test_forest_partition_product():
    # the unconstrained forest partitions factor over the hooks
    for n in range(4):
        for forest in enumerate_forests(n):
            series = weight_series(plain_forest_partitions(forest, 10), 10)
            product = Series(BiPoly.one(), 10)
            for h in hook_lengths(forest)[1:]:
                product = Series(product.poly * geometric_series(h, 10).poly, 10)
            assert series == product


def test_all_negative_specialization():
    # labeling -1, -2, ... down the preorder has no descents and no
    # positive roots: the type-B set is the full forest-partition set
    for n in range(4):
        for forest in enumerate_forests(n):
            w = all_negative(n)
            assert stats.maj_b_forest(forest, w) == 0
            assert (verify.partition_lhs_series(forest, w, 10)
                    == weight_series(plain_forest_partitions(forest, 10), 10))
            assert verify.check_decomposition_dec1(forest, w, 6).passed


def test_all_negative_partitions_match_the_reference_filter():
    # same maps, same order as filtering the grid by weak increase alone
    for n in range(5):
        for forest in enumerate_forests(n):
            for bound in range(7):
                assert (list(verify.enumerate_partitions(forest, all_negative(n), bound))
                        == plain_forest_partitions(forest, bound))


def test_extension_split_identity():
    # summing q^(maj-b) over extensions and dividing by the staircase
    # reproduces the partition series
    for n in range(4):
        for forest in enumerate_forests(n):
            for w in enumerate_labelings(forest, "signed"):
                lhs = verify.partition_lhs_series(forest, w, 8)
                ext_sum = BiPoly.zero()
                from hookforest.forest import linear_extensions
                for word in linear_extensions(forest, w):
                    ext_sum = ext_sum + BiPoly.term(1, q=stats.maj_b(word))
                rhs = Series(ext_sum, 8)
                for k in range(1, n + 1):
                    rhs = Series(rhs.poly * geometric_series(k, 8).poly, 8)
                assert lhs == rhs


def test_cross_multiplied_series_relation():
    # extension sum times prod(1 - q^{h_u}) equals
    # q^(maj-b of the labeling) times prod(1 - q^k): exact polynomials
    from hookforest.forest import linear_extensions
    for n in range(4):
        for forest in enumerate_forests(n):
            hooks = hook_lengths(forest)[1:]
            for w in enumerate_labelings(forest, "signed"):
                ext_sum = BiPoly.zero()
                for word in linear_extensions(forest, w):
                    ext_sum = ext_sum + BiPoly.term(1, q=stats.maj_b(word))
                lhs = ext_sum
                for h in hooks:
                    lhs = lhs * BiPoly({(0, 0): 1, (0, h): -1})
                rhs = BiPoly.term(1, q=stats.maj_b_forest(forest, w))
                for k in range(1, n + 1):
                    rhs = rhs * BiPoly({(0, 0): 1, (0, k): -1})
                assert lhs == rhs
