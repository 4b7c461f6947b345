"""Distributions, theorem checks, type-B forest partitions, bijections,
and counterexample search.

Every check compares an exhaustively computed left-hand side against
an independently built closed form and reports the outcome as a
``CheckReport``.  Forest-statistic distributions come from the
dynamic programs in ``chaindp`` (the value walk for term sets with an
inv or n2 term, the chain walk for the rest), and the partition series
of ``lem-partition-gf`` from a P-partition dynamic program; the other
left-hand sides enumerate labelings, words or partitions.  A signed
word is a labeling of the chain, so a size row whose statistics all
read only sign-order patterns (``stats.PATTERN_STATS``) is tallied on
the chain's weighted labeling orbits; orbits miscount n2 and the word
statistics that contain it (len-b, len-d, nmaj, dmaj), so the rows
``len-b`` and ``len-d`` visit every word.  One orbit scan tests the
faults of psi (tallying its sides), mirror, coset fmaj, dec1 and shift.
Nothing here samples: the identities are exact, so the comparisons are
coefficientwise polynomial equality.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import repeat
from operator import itemgetter, sub
from typing import Callable, Iterator, Optional, Sequence, Union

from . import chaindp, formulas, stats
from .forest import (Forest, _balanced_strings, canonical_form, chain_forest,
                     enumerate_labelings, enumerate_words, hook_lengths, labeling_orbits,
                     linear_extensions, parse_forest)
from .qpoly import BiPoly, Series, _decode


@dataclass
class CheckReport:
    """Outcome of one identity verification.

    ``lhs``/``rhs`` carry the two compared polynomials (or series) when
    the check has a natural pair, otherwise None; ``witness`` describes
    the first failure found.
    """

    theorem: str
    forest: str
    lhs: Optional[Union[BiPoly, Series]]
    rhs: Optional[Union[BiPoly, Series]]
    passed: bool
    witness: Optional[str] = None

    @staticmethod
    def _poly_record(p):
        if p is None:
            return None
        if isinstance(p, Series):
            return {"triples": p.poly.to_triples(), "degree": p.degree}
        return p.to_triples()

    def to_record(self) -> dict:
        return {
            "theorem": self.theorem,
            "forest": self.forest,
            "lhs": self._poly_record(self.lhs),
            "rhs": self._poly_record(self.rhs),
            "pass": self.passed,
            "witness": self.witness,
        }

    def summary(self) -> str:
        line = f"{'PASS' if self.passed else 'FAIL'} {self.theorem} forest={self.forest!r}"
        if self.witness:
            line += f" [{self.witness}]"
        return line


def _first_mismatch(lhs, rhs) -> Optional[str]:
    if lhs == rhs:
        return None
    if isinstance(lhs, Series):
        lhs, rhs = lhs.poly, rhs.poly
    keys = sorted(set(dict(lhs.items())) | set(dict(rhs.items())))
    for a, b in keys:
        if lhs.coeff(a, b) != rhs.coeff(a, b):
            return (f"coefficient of t^{a}*q^{b}: "
                    f"lhs {lhs.coeff(a, b)}, rhs {rhs.coeff(a, b)}")


def distribution(forest: Forest, stat, mode: str = "signed", aux=None) -> BiPoly:
    """Sum of t^aux(F,w) q^stat(F,w) over the labelings of the given mode.

    ``stat`` and ``aux`` are forest statistic ids (with or without the
    ``-f`` suffix) or callables taking (forest, values).  When both are
    ids ``chaindp.term_distribution`` computes the distribution, on the
    value walk if either has an inv or n2 term and on the chain walk
    otherwise; a callable is evaluated on every labeling.
    """
    stat_id, stat_fn = stats.resolve_forest_stat(stat)
    aux_id, aux_fn = stats.resolve_forest_stat(aux) if aux is not None else (None, None)
    # ordinary labelings have no negative labels, so they are even-signed
    if mode == "signed" and stats.EVEN_SIGNED_STAT in (stat_id, aux_id):
        raise ValueError(f"{stats.EVEN_SIGNED_STAT[:-2]} is only defined "
                         "on even-signed labelings")
    if not callable(stat) and not callable(aux):
        return chaindp.term_distribution(
            forest, stats.FOREST_TERMS[stat_id], mode,
            stats.FOREST_TERMS[aux_id] if aux_id else None)
    pair = (partial(stat_fn, forest), partial(aux_fn, forest) if aux_fn else None)
    (dist,) = _distributions(zip(enumerate_labelings(forest, mode), repeat(1)), [pair])
    return dist


def _distributions(objects, pairs) -> list[BiPoly]:
    """Sum of weight * t^aux(x) q^stat(x) over the weighted objects
    (x, weight), one polynomial per (stat, aux) function pair (aux None
    means t^0), in one pass."""
    tallies: list[dict[tuple[int, int], int]] = [{} for _ in pairs]
    bound = [(tally, tally.get, *pair) for tally, pair in zip(tallies, pairs)]
    for x, weight in objects:
        for tally, get, stat_fn, aux_fn in bound:
            key = (aux_fn(x) if aux_fn else 0, stat_fn(x))
            tally[key] = get(key, 0) + weight
    return [BiPoly(tally) for tally in tallies]


# ---------------------------------------------------------------------------
# the theorem registry

@dataclass(frozen=True)
class Theorem:
    """One identity: what it is checked on, its closed form, its left-hand side.

    ``scope`` is "forest" (checked on a forest), "size" (on the signed
    words of size forest.n) or "labeled" (on every signed labeling of a
    forest, summed).  ``rhs`` names the labeling-free closed form in
    ``formulas``, a forest product that a size-level row evaluates on
    the chain of its size, and is None when there is none.  ``lhs`` is
    either a tuple of (stat, aux) sides, each of whose distributions
    over the labelings or words of ``mode`` must equal the closed form,
    or a function: (forest, labeling, degree) -> (lhs, rhs) for the
    labeled scope, forest -> CheckReport otherwise; a labeled row is
    evaluated once per labeling orbit, through _orbit_scan.  ``fault``
    is None or (forest, w, degree) -> the witness of what labeling w
    breaks, or None; it goes through _orbit_scan on the forest (the chain
    for a size row) before any side.  A sweep checks sizes ``start`` and up.
    """

    scope: str
    rhs: Optional[str]
    lhs: Union[tuple[tuple[str, Optional[str]], ...], Callable]
    mode: str = "signed"
    start: int = 0
    fault: Optional[Callable] = None


def _linext_pair(forest: Forest, w, degree: int) -> tuple[BiPoly, BiPoly]:
    (lhs,) = _distributions(zip(linear_extensions(forest, w), repeat(1)), [(stats.maj_b, None)])
    return lhs, formulas.rhs_linext(forest, w)


def _partition_pair(forest: Forest, w, degree: int) -> tuple[Series, Series]:
    return (_partition_series(forest, w, degree),
            formulas.rhs_partition_gf(forest, w, degree))


# Functions are reached through names looked up at call time (the rhs
# names, and the lambdas below), so wrappers installed on the modules,
# by a tracer or a test's monkeypatch, see every call.
THEOREMS = {
    "thm-bw": Theorem("forest", "rhs_bw", (("inv", None), ("maj", None)), mode="ordinary"),
    "thm-inv-b": Theorem("forest", "rhs_inv_b", (("inv-b", None),)),
    "thm-inv-d": Theorem("forest", "rhs_inv_d", (("inv-d", None),), mode="even-signed"),
    "thm-fmaj": Theorem("forest", "rhs_inv_b", (("fmaj", None),)),
    "thm-rmaj": Theorem("forest", "rhs_inv_b", (("rmaj", None),)),
    "thm-bivariate-inv": Theorem("forest", "rhs_bivariate_inv", (("inv-b", "n1"),)),
    "thm-bivariate-majB": Theorem("forest", "rhs_bivariate_majb", (("maj-b", "p"),)),
    "thm-le1": Theorem("labeled", None, _linext_pair),
    "lem-partition-gf": Theorem("labeled", None, _partition_pair),
    "eq-reiner": Theorem("size", "rhs_bivariate_majb", (("maj-r", "n1"), ("maj-b", "p"))),
    "len-b": Theorem("size", "rhs_inv_b", (("len-b", None),)),
    "len-d": Theorem("size", "rhs_inv_d", (("len-d", None),), mode="even-signed"),
    "eq-even-odd": Theorem("forest", None, lambda forest: check_even_odd(forest), start=1),
    "eq-coset-fmaj": Theorem("forest", None, (), fault=lambda f, u, _: _coset_fault(f, u)),
    "psi": Theorem("size", "rhs_bivariate_majb", (("maj-r", "n1"), ("maj-b", "p")),
                   fault=lambda chain, sigma, _: _psi_fault(chain, sigma)),
    "mirror": Theorem("forest", "rhs_inv_b", (("rmaj", None), ("fmaj", None)),
                      fault=lambda forest, w, _: _mirror_fault(forest, w)),
    "dec1": Theorem("forest", None, (), fault=lambda forest, w, degree:
                    check_decomposition_dec1(forest, w, degree).witness),
    "partition-shift": Theorem("forest", None, (), fault=lambda forest, w, degree:
                               check_partition_shift(forest, w, degree).witness),
}


def _theorem(theorem_id: str) -> Theorem:
    row = THEOREMS.get(theorem_id)
    if row is None:
        raise KeyError(f"unknown theorem id {theorem_id!r}; known ids: {', '.join(THEOREMS)}")
    return row


def _check_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}, got {value}")


def closed_form(theorem_id: str, forest: Forest) -> BiPoly:
    """The theorem's labeling-free closed form on the forest (size-level
    ids on the chain of size forest.n); ValueError when it has none."""
    row = _theorem(theorem_id)
    if row.rhs is None:
        if row.scope != "labeled":
            raise ValueError(f"{theorem_id!r} has no closed form")
        raise ValueError(f"no labeling-free closed form for {theorem_id!r}; "
                         "use the linext or partitions subcommand")
    return getattr(formulas, row.rhs)(chain_forest(forest.n) if row.scope == "size" else forest)


def check_theorem(forest: Forest, theorem_id: str, degree: int = 10) -> CheckReport:
    """Verify one identity on the given forest (size-level ids use forest.n).

    ``degree`` is the weight bound of the series and partition checks.
    A row's fault comes before its sides; a row without sides passes
    when its fault does.
    """
    row = _theorem(theorem_id)
    _check_at_least("degree", degree, 0)
    if row.scope == "labeled":
        return _check_labeled(theorem_id, row, forest, degree)
    if callable(row.lhs):
        return row.lhs(forest)
    size = row.scope == "size"
    target = chain_forest(forest.n) if size else forest
    label = f"n={forest.n}" if size else forest.render()
    failed: list = []
    scan = _orbit_scan(target, lambda w: w,
                       lambda w: row.fault and row.fault(target, w, degree), failed)
    perm = stats.PERM_STATS
    pairs = [(perm[stat], perm[aux] if aux else None) for stat, aux in row.lhs] if size else []
    read = {s for side in row.lhs for s in side if s}
    # a signed word is a labeling of the chain, whose orbits are its
    # sign-order patterns: they cover the words of statistics that read
    # only patterns, so one walk tallies them and tests the fault; the
    # word pass stays the oracle of the others
    on_orbits = size and row.mode == "signed" and read <= stats.PATTERN_STATS
    sides = _distributions(scan, pairs) if on_orbits else None
    if row.fault is not None:
        deque(scan, maxlen=0)  # drained before any side; a no-op after the tally
    if failed:
        return CheckReport(theorem_id, label, None, None, False, failed[0][1])
    if not row.lhs:
        return CheckReport(theorem_id, label, None, None, True)
    if sides is None:
        sides = (_distributions(zip(enumerate_words(forest.n, row.mode), repeat(1)), pairs)
                 if size else (distribution(forest, stat, row.mode, aux=aux)
                               for stat, aux in row.lhs))
    return _check_sides(theorem_id, row, label, closed_form(theorem_id, forest), sides)


def _check_sides(theorem_id: str, row: Theorem, label: str, rhs: BiPoly,
                 sides) -> CheckReport:
    """Compare each side's distribution with the closed form; with several
    sides the witness names the failing one."""
    for (stat, aux), lhs in zip(row.lhs, sides):
        mismatch = _first_mismatch(lhs, rhs)
        if mismatch is not None:
            name = stat if aux is None else f"({aux}, {stat})"
            prefix = f"{name} side: " if len(row.lhs) > 1 else ""
            return CheckReport(theorem_id, label, lhs, rhs, False, prefix + mismatch)
    return CheckReport(theorem_id, label, lhs, rhs, True)


def _orbit_scan(forest: Forest, value: Callable, fault: Callable,
                failed: list) -> Iterator[tuple[object, int]]:
    """(value(w), weight) for the first labeling w of each orbit of
    labeling_orbits while fault(value(w)) is None; at the first orbit where
    it is not, (w, fault(value(w))) for the first failing labeling w in
    lexicographic order goes to ``failed`` and the scan stops.  Whether the
    fault is None, and a passing orbit's value, must be constant on orbits;
    a witness may name what is w's own, as a row's fault names w."""
    for w, weight in labeling_orbits(forest):
        x = value(w)
        if fault(x) is not None:
            # w is one of the labelings, so the lexicographic re-scan finds one
            failed.append(next((w, found) for w in enumerate_labelings(forest)
                               if (found := fault(value(w))) is not None))
            return
        yield x, weight


def _check_labeled(theorem_id: str, row: Theorem, forest: Forest, degree: int) -> CheckReport:
    """Both sides summed over the labelings through _orbit_scan: a passing
    orbit's sides are equal, so a running total adds one times its weight."""
    failed: list = []
    total = BiPoly.zero()
    for (lhs, _), weight in _orbit_scan(forest, lambda w: row.lhs(forest, w, degree),
                                        lambda sides: _first_mismatch(*sides), failed):
        total += getattr(lhs, "poly", lhs) * weight
    if failed:
        (w, found), = failed
        return CheckReport(theorem_id, forest.render(), *row.lhs(forest, w, degree), False,
                           f"labeling {w}: {found}")
    summed = Series(total, lhs.degree) if isinstance(lhs, Series) else total
    return CheckReport(theorem_id, forest.render(), summed, summed, True)


def check_even_odd(forest: Forest) -> CheckReport:
    """The (negatives, inv+n2) distribution over all signed labelings
    vanishes at t = -1: its even- and odd-negative slices agree.  inv+n2
    is inv-d's terms, taken outside inv-d's even-signed domain."""
    if forest.n == 0:
        raise ValueError("the even/odd cancellation needs at least one vertex")
    value = chaindp.term_distribution(forest, stats.FOREST_TERMS[stats.EVEN_SIGNED_STAT],
                                      "signed", stats.FOREST_TERMS["n1-f"]).eval_t(-1)
    mismatch = _first_mismatch(value, BiPoly.zero())
    return CheckReport("eq-even-odd", forest.render(), value, BiPoly.zero(), mismatch is None,
                       mismatch)


# ---------------------------------------------------------------------------
# type-B forest partitions

def is_partition_b(forest: Forest, w, f: Sequence[int]) -> bool:
    """Membership in the type-B partition set of (F, w).

    f weakly increases from roots toward leaves, strictly across pairs
    where the ancestor's label is smaller, and is >= 0 at every root and
    >= 1 at positively labeled roots; the parent pairs imply every
    comparable pair, and the roots bound every value below.
    """
    for i, p in enumerate(forest.parent[1:]):
        if f[i] < (f[p - 1] + (w[p - 1] < w[i]) if p else w[i] > 0):
            return False
    return True


def enumerate_partitions(forest: Forest, w, max_total: int) -> Iterator[tuple[int, ...]]:
    """Type-B partitions of (F, w) with weight at most max_total, in
    lexicographic order.

    Stanley's P-partition enumeration, with the type-B root condition,
    run as an odometer over the vertices in preorder.  Each vertex's
    lowest value is its parent's, one higher when the parent's label is
    smaller, and a root's is 1 when its label is positive and 0
    otherwise; the parent conditions imply those of every comparable
    pair.  Every value below a vertex is at least its own, so a value
    times the hook length must fit in the weight still unassigned, kept
    per vertex in ``room``.  The walk sets the vertices to their lowest
    values down to the last one, which runs through its whole range;
    then it raises the deepest vertex whose next value still fits and
    resets every later vertex to its lowest.  A later vertex's range
    depends only on earlier values, so this is counting in a
    mixed-radix odometer and the maps come out in lexicographic order.
    """
    if max_total < 0:
        raise ValueError("weight bound must be nonnegative")
    n, parent = forest.n, forest.parent
    if not n:
        yield ()
        return
    h = hook_lengths(forest)
    # f[0] stays 0, so a root's lowest value is f[0] + [its label > 0]
    step = [0] + [w[p - 1] < w[v - 1] if p else w[v - 1] > 0
                  for v, p in enumerate(parent[1:], 1)]
    f = [0] * (n + 1)
    room = [0] * (n + 1)
    room[1] = max_total
    v = 1
    while True:
        while v < n:
            x = f[parent[v]] + step[v]
            if x * h[v] > room[v]:
                break
            f[v] = x
            room[v + 1] = room[v] - x
            v += 1
        else:
            prefix = tuple(f[1:n])
            for x in range(f[parent[n]] + step[n], room[n] // h[n] + 1):
                yield prefix + (x,)
        v -= 1
        while v and (f[v] + 1) * h[v] > room[v]:
            v -= 1
        if not v:
            return
        f[v] += 1
        room[v + 1] = room[v] - f[v]
        v += 1


def partition_lhs_series(forest: Forest, w, degree: int) -> Series:
    """Weight generating series of the type-B partitions, truncated."""
    (counts,) = _distributions(zip(enumerate_partitions(forest, w, degree), repeat(1)),
                               [(sum, None)])
    return Series(counts, degree)


def _partition_series(forest: Forest, w, degree: int) -> Series:
    """partition_lhs_series by value (Stanley's P-partition recursion):
    the maps are counted, never listed.

    S_v[x] is the truncated weight series of the maps on v's subtree
    that satisfy its edge conditions and have f(v) >= x.  Those with
    f(v) = x are q^x times, per child c, S_c[x + 1] across a strict
    edge (w_v < w_c) and S_c[x] otherwise, and none exist once x * h(v)
    exceeds the degree, since every value below v is at least x.  So
    S_v[x] is that term plus S_v[x + 1], built for x from the degree
    down to 0, children before parents; only S[x + 1] and S[x] are
    live.  The roots take S_r[1] when positively labeled and S_r[0]
    otherwise, and the series is the product of theirs.  It counts by
    value alone and never shifts the maps by their descents: that shift
    proves the lemma, so the check would compare the closed form with
    itself.

    A series is one int, the coefficient of q^j in the k-bit slot j,
    cut after slot ``degree`` at every product.  Each slot of a product
    of two cut series counts maps of at most n values with weight at
    most 2 * degree, fewer than 2^k, so no slot spills into the next.
    """
    if degree < 0:
        raise ValueError("weight bound must be nonnegative")
    n, kids = forest.n, forest.children
    h = hook_lengths(forest)
    k = math.comb(2 * degree + n, n).bit_length()
    keep = (1 << k * (degree + 1)) - 1
    steps = [(v, degree // h[v], [(c, w[v - 1] < w[c - 1]) for c in kids[v]])
             for v in range(n, 0, -1)]
    lower = [0] * (n + 1)
    for x in range(degree, -1, -1):
        upper, lower = lower, lower[:]
        for v, top, edges in steps:
            if x <= top:
                term = 1 << k * x
                for c, strict in edges:
                    term = term * (upper[c] if strict else lower[c]) & keep
                lower[v] += term
    value = 1
    for r in kids[0]:
        value = value * (upper[r] if w[r - 1] > 0 else lower[r]) & keep
    return Series(_decode(value, k, degree + 1), degree)


def _drop(forest: Forest, w) -> list[int]:
    """The shift's drop vector d of (F, w): d[v] counts the type-B
    descents among v and its ancestors, built in one preorder pass."""
    descents = set(stats.descents_b_forest(forest, w))
    parent = forest.parent
    d = [0] * (forest.n + 1)
    for v in range(1, forest.n + 1):
        d[v] = d[parent[v]] + (v in descents)
    return d[1:]


def check_partition_shift(forest: Forest, w, degree: int) -> CheckReport:
    """The shift f -> f - d is weight-compatible and bijective onto
    forest partitions.

    A translation by the drop vector d is injective and lowers every
    weight by sum(d), so the check tests sum(d) = maj-b once and then
    compares the image with the plain forest partitions.
    """
    majb = stats.maj_b_forest(forest, w)
    label = forest.render()
    d = _drop(forest, w)
    if sum(d) != majb:
        return CheckReport("partition-shift", label, None, None, False,
                           f"labeling {w}: weight drop is not maj-b")
    images = {tuple(map(sub, f, d)) for f in enumerate_partitions(forest, w, degree)}
    # the plain forest partitions are the type-B partitions of the
    # all-negative labeling, which has no descents and no positive roots
    bound = degree - majb
    all_negative = tuple(range(-1, -forest.n - 1, -1))
    target = set(enumerate_partitions(forest, all_negative, bound)) if bound >= 0 else set()
    if images != target:
        return CheckReport("partition-shift", label, None, None, False,
                           f"labeling {w}: image misses some forest partitions")
    return CheckReport("partition-shift", label, None, None, True)


def check_decomposition_dec1(forest: Forest, w, degree: int) -> CheckReport:
    """The type-B partitions split exactly over the linear extensions.

    The maps compatible with an extension word s are the type-B
    partitions of the chain labeled by s read backwards, which
    ``enumerate_partitions`` lists (its tests pin it against the grid);
    each, read back onto the vertices, must be a member and have no
    other extension, and every member must have one.  The owned maps
    are one set, tested once against the listed members; only when some
    member is missing are the members re-scanned, in lexicographic
    order, for the first one.
    """
    chain = chain_forest(forest.n)
    label = forest.render()

    def fail(f, what):
        return CheckReport("dec1", label, None, None, False, f"labeling {w}, map {f}: {what}")

    owned: set[tuple[int, ...]] = set()
    for s in linear_extensions(forest, w):
        backwards = s[::-1]
        index = [backwards.index(value) for value in w]
        remap = (itemgetter(*index) if len(index) > 1  # one index: a bare item
                 else lambda g: tuple(map(g.__getitem__, index)))
        for f in map(remap, enumerate_partitions(chain, backwards, degree)):
            if not is_partition_b(forest, w, f):
                return fail(f, "compatible but not a partition")
            if f in owned:
                return fail(f, "2 compatible extensions")
            owned.add(f)
    if not owned.issuperset(enumerate_partitions(forest, w, degree)):
        f = next(f for f in enumerate_partitions(forest, w, degree) if f not in owned)
        return fail(f, "0 compatible extensions")
    return CheckReport("dec1", label, None, None, True)


# ---------------------------------------------------------------------------
# bijections and the coset identity

def psi_bijection(sigma: Sequence[int]) -> tuple[int, ...]:
    """Reverse-and-negate the positive values among themselves, and the
    negative values among themselves.

    Exchanges (p, maj-b) with (n1, maj-r) and is an involution.
    """
    tau = list(sigma)
    for positive in (True, False):
        group = sorted((v, i) for i, v in enumerate(sigma) if (v > 0) == positive)
        for (_, i), (v, _) in zip(group, reversed(group)):
            tau[i] = -v
    return tuple(tau)


def _psi_fault(chain: Forest, sigma) -> Optional[str]:
    """What psi breaks on the signed word sigma, a labeling of the chain,
    or None: it must be an involution carrying (p, maj-b) to (n1, maj-r)."""
    tau = psi_bijection(sigma)
    if psi_bijection(tau) != sigma:
        return f"sigma={sigma}: psi is not an involution"
    if stats.maj_b(sigma) != stats.maj_r(tau) or stats.p(sigma) != stats.n1(tau):
        return f"sigma={sigma}: statistics not carried over"
    return None


def mirror_labeling(forest: Forest, w) -> tuple[int, ...]:
    """Flip each label's sign and complement its absolute value in 1..n."""
    n = forest.n
    return tuple(-(n + 1 - v) if v > 0 else (n + 1 + v) for v in w)


def _mirror_fault(forest: Forest, w) -> Optional[str]:
    """What the mirror of w breaks, or None: it must be an involution
    carrying rmaj to fmaj, maj-b to maj' + p and positives to negatives."""
    w2 = mirror_labeling(forest, w)
    if mirror_labeling(forest, w2) != w:
        return f"labeling {w}: mirror is not an involution"
    r, fm = stats.FOREST_STATS["rmaj-f"](forest, w), stats.FOREST_STATS["fmaj-f"](forest, w2)
    if r != fm:
        return f"labeling {w}: rmaj {r} != fmaj {fm} of the mirror"
    p = stats.p_forest(forest, w)
    if stats.maj_b_forest(forest, w) != stats.maj_forest(forest, w2) + p:
        return f"labeling {w}: maj-b does not split as maj' + p"
    if p != stats.n1_forest(forest, w2):
        return f"labeling {w}: positives do not mirror to negatives"
    return None


def _coset_factors(u) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The one factorization u = tau o w of a signed labeling, with tau =
    sorted(u) an increasing signed word and w, the ranks of u's values,
    an ordinary labeling: (tau, w)."""
    tau = tuple(sorted(u))
    rank = {v: i for i, v in enumerate(tau, start=1)}
    return tau, tuple(rank[v] for v in u)


def _coset_fault(forest: Forest, u) -> Optional[str]:
    """What the one factorization u = tau o w breaks, or None: fmaj of u
    must split as 2*maj of its ordinary part w plus the negatives of its
    increasing part tau."""
    tau, w = _coset_factors(u)
    if stats.descents_forest(forest, u) != stats.descents_forest(forest, w):
        return f"w={w}, tau={tau}: descent set changed"
    negatives = stats.n1(tau)
    if stats.n1_forest(forest, u) != negatives:
        return f"w={w}, tau={tau}: negative count changed"
    if stats.FOREST_STATS["fmaj-f"](forest, u) != 2 * stats.maj_forest(forest, w) + negatives:
        return f"w={w}, tau={tau}: fmaj does not split"
    return None


# ---------------------------------------------------------------------------
# sweeps and counterexample search

# Estimated seconds of checks left below which _map stays serial:
# starting and feeding a pool of forked workers costs tens of
# milliseconds, more than the small sweeps take in total.
POOL_THRESHOLD_S = 0.25

# The function a pool's worker applies, set as the worker starts.  The
# workers are forked, so it reaches them unpickled: lambdas, callable
# statistics and patched rows work too.
_pool_fn: Optional[Callable] = None


def _set_pool_fn(fn: Callable) -> None:
    global _pool_fn
    _pool_fn = fn


def _call_pool_fn(forest: Forest):
    return _pool_fn(forest)


def _workers(jobs: int, items: int) -> int:
    """Worker processes for ``items`` pieces of work: no more than
    requested, than the machine has CPUs, or than there are items."""
    return min(jobs, os.cpu_count() or 1, items)


def _map(fn: Callable, forests: list[Forest], jobs: int) -> list:
    """fn of each forest, in order.

    The forests are done serially until the mean time per forest so far,
    times the forests left, exceeds POOL_THRESHOLD_S; the rest then go
    in chunks to a pool of up to ``jobs`` forked worker processes.
    """
    most = _workers(jobs, len(forests))
    results = []
    start = time.perf_counter()
    for done, forest in enumerate(forests):
        left = len(forests) - done
        workers = min(most, left)
        if (workers > 1 and done
                and (time.perf_counter() - start) / done * left > POOL_THRESHOLD_S):
            # imported only here: they add about 20 ms to every start-up
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context
            pool = ProcessPoolExecutor(workers, get_context("fork"),
                                       initializer=_set_pool_fn, initargs=(fn,))
            try:
                # about four chunks per worker even out unequal forest costs
                results += pool.map(_call_pool_fn, forests[done:],
                                    chunksize=max(1, left // (4 * workers)))
            finally:
                pool.shutdown(cancel_futures=True)
            break
        results.append(fn(forest))
    return results


def _forest_reports(check: Callable[[Forest], CheckReport], n: int,
                    jobs: int) -> Iterator[CheckReport]:
    """check's report on each forest of size n, in canonical order.

    The plane forests are keyed by their paren strings.  check runs
    through _map once per unordered class, on the class's first forest,
    since no statistic or closed form depends on the order of siblings;
    only those forests are parsed.  A passing report is relabeled for
    each plane forest, and a failed class is checked again forest by
    forest, so every report is the forest's own.
    """
    parens = list(_balanced_strings(n))
    keys = [canonical_form(paren) for paren in parens]
    first: dict[str, str] = {}
    for key, paren in zip(keys, parens):
        first.setdefault(key, paren)
    reports = dict(zip(first, _map(check, [parse_forest(p) for p in first.values()], jobs)))
    for key, paren in zip(keys, parens):
        report = reports[key]
        if report.passed or report.forest == paren:
            yield replace(report, forest=paren)
        else:
            yield check(parse_forest(paren))


def _reports(check: Callable[[Forest], CheckReport], scope: str, start: int,
             max_n: int, jobs: int, fail_fast: bool = False) -> Iterator[CheckReport]:
    """check's reports for sizes start..max_n, on the chain of each size
    for the size scope and on each forest through _forest_reports
    otherwise; with fail_fast the first failing report is the last."""
    for n in range(start, max_n + 1):
        for report in ([check(chain_forest(n))] if scope == "size"
                       else _forest_reports(check, n, jobs)):
            yield report
            if fail_fast and not report.passed:
                return


def sweep(theorem_id: str, max_n: int, degree: int = 10, jobs: int = 1,
          fail_fast: bool = False) -> list[CheckReport]:
    """Check one identity over every forest of size 0..max_n.

    Size-level identities run once per size, on the chain, and a
    theorem's row may set a larger first size.  Forest-level ones go
    through _forest_reports.  Results come back in canonical order
    regardless of the worker count.
    """
    row = _theorem(theorem_id)
    _check_at_least("max-n", max_n, 0)
    _check_at_least("degree", degree, 0)
    _check_at_least("jobs", jobs, 1)
    check = lambda f: check_theorem(f, theorem_id, degree=degree)
    return list(_reports(check, row.scope, row.start, max_n, jobs, fail_fast))


def counterexample_search(stat_a, stat_b, mode: str = "signed", max_n: int = 5,
                          jobs: int = 1) -> Optional[tuple[Forest, BiPoly, BiPoly]]:
    """First forest (size ascending, canonical order) where the two
    statistics have different distributions; None if there is none.
    The search goes through _forest_reports, so the statistics
    (callables too) must not depend on the order of siblings."""
    for stat in (stat_a, stat_b):
        stats.resolve_forest_stat(stat)
    _check_at_least("max-n", max_n, 0)
    _check_at_least("jobs", jobs, 1)

    def check(forest: Forest) -> CheckReport:
        da, db = distribution(forest, stat_a, mode), distribution(forest, stat_b, mode)
        return CheckReport("counterexample", forest.render(), da, db, da == db)

    for report in _reports(check, "forest", 0, max_n, jobs):
        if not report.passed:
            # the first forest of its class: these are its own distributions
            return parse_forest(report.forest), report.lhs, report.rhs
    return None
