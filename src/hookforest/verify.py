"""Distributions, theorem checks, type-B forest partitions, bijections,
and counterexample search.

Every check compares an exhaustively computed left-hand side against
an independently built closed form and reports the outcome as a
``CheckReport``.  Forest-statistic distributions come from the
ancestor-chain dynamic program in ``chaindp``; the other left-hand
sides enumerate labelings, words or partitions.  Nothing here samples:
the identities are exact, so the comparisons are coefficientwise
polynomial equality.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

from . import chaindp, formulas, stats
from .forest import (Forest, comparable_pairs, decreasing_labeling,
                     enumerate_forests, enumerate_labelings, hook_lengths,
                     labeling_count, linear_extensions)
from .qpoly import BiPoly, Series, geometric_series


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


def _first_mismatch(lhs: BiPoly, rhs: BiPoly) -> str:
    keys = sorted(set(dict(lhs.items())) | set(dict(rhs.items())))
    for a, b in keys:
        if lhs.coeff(a, b) != rhs.coeff(a, b):
            return (f"coefficient of t^{a}*q^{b}: "
                    f"lhs {lhs.coeff(a, b)}, rhs {rhs.coeff(a, b)}")
    return "polynomials agree"


def distribution(forest: Forest, stat, mode: str = "signed", aux=None) -> BiPoly:
    """Sum of t^aux(F,w) q^stat(F,w) over the labelings of the given mode.

    ``stat`` and ``aux`` are forest statistic ids (with or without the
    ``-f`` suffix) or callables taking (forest, values).  When both are
    ids the ancestor-chain dynamic program of ``chaindp`` computes the
    distribution; a callable is evaluated on every labeling.
    """
    stat_id, stat_fn = stats.resolve_forest_stat(stat)
    aux_fn = None
    if aux is not None:
        aux_id, aux_fn = stats.resolve_forest_stat(aux)
    else:
        aux_id = None
    if mode != "even-signed" and "inv-d-f" in (stat_id, aux_id):
        raise ValueError("inv-d is only defined on even-signed labelings")
    if not callable(stat) and not callable(aux):
        return chaindp.term_distribution(
            forest, stats.FOREST_TERMS[stat_id], mode,
            stats.FOREST_TERMS[aux_id] if aux_id else None)
    terms: dict[tuple[int, int], int] = {}
    for w in enumerate_labelings(forest, mode):
        key = (aux_fn(forest, w) if aux_fn else 0, stat_fn(forest, w))
        terms[key] = terms.get(key, 0) + 1
    return BiPoly(terms)


def _word_distribution(words, stat_fn, aux_fn=None) -> BiPoly:
    terms: dict[tuple[int, int], int] = {}
    for word in words:
        key = (aux_fn(word) if aux_fn else 0, stat_fn(word))
        terms[key] = terms.get(key, 0) + 1
    return BiPoly(terms)


# ---------------------------------------------------------------------------
# theorem checks

_DIST_CHECKS = {
    "thm-inv-b": ("inv-b-f", "signed", None),
    "thm-fmaj": ("fmaj-f", "signed", None),
    "thm-rmaj": ("rmaj-f", "signed", None),
    "thm-inv-d": ("inv-d-f", "even-signed", None),
    "thm-bivariate-inv": ("inv-b-f", "signed", "n1-f"),
    "thm-bivariate-majB": ("maj-b-f", "signed", "p-f"),
}

SIZE_LEVEL_IDS = ("eq-reiner", "len-b", "len-d")

THEOREM_IDS = ("thm-bw", "thm-inv-b", "thm-inv-d", "thm-fmaj", "thm-rmaj",
               "thm-bivariate-inv", "thm-bivariate-majB", "thm-le1",
               "lem-partition-gf", "eq-reiner", "len-b", "len-d",
               "eq-even-odd", "eq-coset-fmaj")


def check_theorem(forest: Forest, theorem_id: str, degree: int = 10) -> CheckReport:
    """Verify one identity on the given forest (size-level ids use forest.n).

    ``degree`` is the truncation level for the series-based checks.
    """
    if theorem_id == "thm-bw":
        return _check_bw(forest)
    if theorem_id in _DIST_CHECKS:
        stat, mode, aux = _DIST_CHECKS[theorem_id]
        lhs = distribution(forest, stat, mode, aux=aux)
        rhs = formulas.FOREST_RHS[theorem_id](forest)
        passed = lhs == rhs
        return CheckReport(theorem_id, forest.render(), lhs, rhs, passed,
                           None if passed else _first_mismatch(lhs, rhs))
    if theorem_id == "thm-le1":
        return _check_linext(forest)
    if theorem_id == "lem-partition-gf":
        return _check_partition_gf(forest, degree)
    if theorem_id == "eq-reiner":
        return _check_reiner(forest.n)
    if theorem_id == "len-b":
        return _check_length_gf(forest.n, "len-b")
    if theorem_id == "len-d":
        return _check_length_gf(forest.n, "len-d")
    if theorem_id == "eq-even-odd":
        return check_even_odd(forest)
    if theorem_id == "eq-coset-fmaj":
        return check_fmaj_coset_identity(forest)
    raise _unknown_theorem(theorem_id)


def _unknown_theorem(theorem_id: str) -> KeyError:
    return KeyError(f"unknown theorem id {theorem_id!r}; known ids: {', '.join(THEOREM_IDS)}")


def _check_max_n(max_n: int) -> None:
    if max_n < 0:
        raise ValueError(f"max-n must be nonnegative, got {max_n}")


def _check_bw(forest: Forest) -> CheckReport:
    rhs = formulas.rhs_bw(forest)
    by_inv = distribution(forest, "inv-f", "ordinary")
    by_maj = distribution(forest, "maj-f", "ordinary")
    if by_inv != rhs:
        return CheckReport("thm-bw", forest.render(), by_inv, rhs, False,
                           "inv side: " + _first_mismatch(by_inv, rhs))
    if by_maj != rhs:
        return CheckReport("thm-bw", forest.render(), by_maj, rhs, False,
                           "maj side: " + _first_mismatch(by_maj, rhs))
    return CheckReport("thm-bw", forest.render(), by_inv, rhs, True)


def _check_linext(forest: Forest) -> CheckReport:
    total_lhs = BiPoly.zero()
    total_rhs = BiPoly.zero()
    for w in enumerate_labelings(forest, "signed"):
        lhs = _word_distribution(linear_extensions(forest, w), stats.maj_b)
        rhs = formulas.rhs_linext(forest, w)
        if lhs != rhs:
            return CheckReport("thm-le1", forest.render(), lhs, rhs, False,
                               f"labeling {w}: {_first_mismatch(lhs, rhs)}")
        total_lhs = total_lhs + lhs
        total_rhs = total_rhs + rhs
    return CheckReport("thm-le1", forest.render(), total_lhs, total_rhs, True)


def _check_partition_gf(forest: Forest, degree: int) -> CheckReport:
    total_lhs = Series(BiPoly.zero(), degree)
    total_rhs = Series(BiPoly.zero(), degree)
    for w in enumerate_labelings(forest, "signed"):
        lhs = partition_lhs_series(forest, w, degree)
        rhs = formulas.rhs_partition_gf(forest, w, degree)
        if lhs != rhs:
            return CheckReport("lem-partition-gf", forest.render(), lhs, rhs, False,
                               f"labeling {w}: {_first_mismatch(lhs.poly, rhs.poly)}")
        total_lhs = total_lhs + lhs
        total_rhs = total_rhs + rhs
    return CheckReport("lem-partition-gf", forest.render(), total_lhs, total_rhs, True)


def _check_reiner(n: int) -> CheckReport:
    rhs = formulas.rhs_reiner(n)
    words = list(stats.signed_permutations(n))
    by_majr = _word_distribution(words, stats.maj_r, stats.n1)
    by_majb = _word_distribution(words, stats.maj_b, stats.p)
    label = f"n={n}"
    if by_majr != rhs:
        return CheckReport("eq-reiner", label, by_majr, rhs, False,
                           "(n1, maj-r) side: " + _first_mismatch(by_majr, rhs))
    if by_majb != rhs:
        return CheckReport("eq-reiner", label, by_majb, rhs, False,
                           "(p, maj-b) side: " + _first_mismatch(by_majb, rhs))
    return CheckReport("eq-reiner", label, by_majb, rhs, True)


def _check_length_gf(n: int, which: str) -> CheckReport:
    if which == "len-b":
        lhs = _word_distribution(stats.signed_permutations(n), stats.len_b)
        rhs = formulas.rhs_len_b(n)
    else:
        lhs = _word_distribution(stats.even_signed_permutations(n), stats.len_d)
        rhs = formulas.rhs_len_d(n)
    passed = lhs == rhs
    return CheckReport(which, f"n={n}", lhs, rhs, passed,
                       None if passed else _first_mismatch(lhs, rhs))


def check_even_odd(forest: Forest) -> CheckReport:
    """The (negatives, inv+n2) distribution over all signed labelings
    vanishes at t = -1: its even- and odd-negative slices agree."""
    if forest.n == 0:
        raise ValueError("the even/odd cancellation needs at least one vertex")
    dist = chaindp.term_distribution(forest, {"inv": 1, "n2": 1}, "signed",
                                     stats.FOREST_TERMS["n1-f"])
    value = dist.eval_t(-1)
    passed = value.is_zero()
    return CheckReport("eq-even-odd", forest.render(), value, BiPoly.zero(), passed,
                       None if passed else _first_mismatch(value, BiPoly.zero()))


# ---------------------------------------------------------------------------
# type-B forest partitions

def is_partition_b(forest: Forest, w, f: Sequence[int]) -> bool:
    """Membership in the type-B partition set of (F, w).

    f weakly increases from roots toward leaves, strictly across pairs
    where the ancestor's label is smaller, and is >= 1 at positively
    labeled roots.
    """
    for a, b in comparable_pairs(forest):
        fa, fb = f[a - 1], f[b - 1]
        if fa > fb:
            return False
        if fa == fb and w[a - 1] < w[b - 1]:
            return False
    return all(f[r - 1] >= 1 for r in forest.roots if w[r - 1] > 0)


def _bounded_grid(n: int, max_total: int) -> Iterator[tuple[int, ...]]:
    # every value is bounded by the total, so the grid is complete
    if n == 0:
        yield ()
        return
    for f in itertools.product(range(max_total + 1), repeat=n):
        if sum(f) <= max_total:
            yield f


def enumerate_partitions(forest: Forest, w, max_total: int) -> Iterator[tuple[int, ...]]:
    """Type-B partitions of (F, w) with weight at most max_total."""
    if max_total < 0:
        raise ValueError("weight bound must be nonnegative")
    for f in _bounded_grid(forest.n, max_total):
        if is_partition_b(forest, w, f):
            yield f


def forest_partitions(forest: Forest, max_total: int) -> Iterator[tuple[int, ...]]:
    """Vertex maps obeying only the weak increase toward leaves, bounded weight."""
    pairs = comparable_pairs(forest)
    for f in _bounded_grid(forest.n, max_total):
        if all(f[a - 1] <= f[b - 1] for a, b in pairs):
            yield f


def partition_lhs_series(forest: Forest, w, degree: int) -> Series:
    """Weight generating series of the type-B partitions, truncated."""
    counts: dict[tuple[int, int], int] = {}
    for f in enumerate_partitions(forest, w, degree):
        key = (0, sum(f))
        counts[key] = counts.get(key, 0) + 1
    return Series(BiPoly(counts), degree)


def forest_partition_series(forest: Forest, degree: int) -> Series:
    """Weight generating series of the plain forest partitions, truncated."""
    counts: dict[tuple[int, int], int] = {}
    for f in forest_partitions(forest, degree):
        key = (0, sum(f))
        counts[key] = counts.get(key, 0) + 1
    return Series(BiPoly(counts), degree)


def partition_shift(forest: Forest, w, f: Sequence[int]) -> tuple[int, ...]:
    """Subtract 1 on the principal ideal below each type-B descent.

    Maps a type-B partition of (F, w) to a plain forest partition and
    drops exactly maj_b(F, w) from the weight.  Rejects maps outside
    the type-B partition set.
    """
    if not is_partition_b(forest, w, f):
        raise ValueError("not a type-B partition for this labeling")
    h = hook_lengths(forest)
    out = list(f)
    for u in stats.descents_b_forest(forest, w):
        for v in range(u, u + h[u]):
            out[v - 1] -= 1
    # membership guarantees enough room above every descent
    if any(v < 0 for v in out):
        raise RuntimeError(f"shifting {tuple(f)} below the type-B descents of {tuple(w)} "
                           f"left a negative value: {tuple(out)}")
    return tuple(out)


def check_partition_shift(forest: Forest, w, degree: int) -> CheckReport:
    """The shift is weight-compatible and bijective onto forest partitions."""
    majb = stats.maj_b_forest(forest, w)
    label = forest.render()
    images: dict[tuple[int, ...], tuple[int, ...]] = {}
    for f in enumerate_partitions(forest, w, degree):
        g = partition_shift(forest, w, f)
        if sum(f) != majb + sum(g):
            return CheckReport("partition-shift", label, None, None, False,
                               f"labeling {w}, map {f}: weight drop is not maj-b")
        if g in images:
            return CheckReport("partition-shift", label, None, None, False,
                               f"labeling {w}: {f} and {images[g]} collide")
        images[g] = f
    bound = degree - majb
    target = set(forest_partitions(forest, bound)) if bound >= 0 else set()
    if set(images) != target:
        return CheckReport("partition-shift", label, None, None, False,
                           f"labeling {w}: image misses some forest partitions")
    return CheckReport("partition-shift", label, None, None, True)


def sigma_compatible(sigma: Sequence[int], fvals: Sequence[int]) -> bool:
    """Weakly decreasing along the word, strict at natural descents,
    and >= 1 at the end when the word ends positive."""
    n = len(sigma)
    for i in range(n - 1):
        if fvals[i] < fvals[i + 1]:
            return False
        if fvals[i] == fvals[i + 1] and sigma[i] > sigma[i + 1]:
            return False
    return not (n and sigma[-1] > 0 and fvals[-1] < 1)


def check_decomposition_dec1(forest: Forest, w, degree: int) -> CheckReport:
    """The type-B partitions split exactly over the linear extensions.

    Each member is compatible with exactly one extension word, and any
    bounded map compatible with an extension word is a member.
    """
    exts = list(linear_extensions(forest, w))
    vertex_by_value = {w[v - 1]: v for v in range(1, forest.n + 1)}
    label = forest.render()
    for f in _bounded_grid(forest.n, degree):
        compat = [s for s in exts
                  if sigma_compatible(s, tuple(f[vertex_by_value[v] - 1] for v in s))]
        member = is_partition_b(forest, w, f)
        if member and len(compat) != 1:
            return CheckReport("dec1", label, None, None, False,
                               f"labeling {w}, map {f}: {len(compat)} compatible extensions")
        if not member and compat:
            return CheckReport("dec1", label, None, None, False,
                               f"labeling {w}, map {f}: compatible but not a partition")
    return CheckReport("dec1", label, None, None, True)


# ---------------------------------------------------------------------------
# bijections and the coset identity

def psi_bijection(sigma: Sequence[int]) -> tuple[int, ...]:
    """Reverse-and-negate the positive values among themselves, and the
    negative values among themselves.

    Exchanges (p, maj-b) with (n1, maj-r) and is an involution.
    """
    tau = list(sigma)
    for sign_positive in (True, False):
        group = sorted((v, i) for i, v in enumerate(sigma)
                       if (v > 0) == sign_positive)
        values = [v for v, _ in group]
        for s, (_, i) in enumerate(group):
            tau[i] = -values[len(values) - 1 - s]
    return tuple(tau)


def check_psi(n: int) -> CheckReport:
    """psi is bijective and carries (p, maj-b) to (n1, maj-r); both joint
    distributions match the closed form (1+tq)^n [n]!."""
    label = f"n={n}"
    seen = set()
    total = 0
    for sigma in stats.signed_permutations(n):
        tau = psi_bijection(sigma)
        if stats.maj_b(sigma) != stats.maj_r(tau) or stats.p(sigma) != stats.n1(tau):
            return CheckReport("psi", label, None, None, False,
                               f"sigma={sigma}: statistics not carried over")
        seen.add(tau)
        total += 1
    if len(seen) != total:
        return CheckReport("psi", label, None, None, False, "psi is not injective")
    rhs = formulas.rhs_reiner(n)
    words = list(stats.signed_permutations(n))
    by_majr = _word_distribution(words, stats.maj_r, stats.n1)
    by_majb = _word_distribution(words, stats.maj_b, stats.p)
    if by_majr != rhs or by_majb != rhs:
        return CheckReport("psi", label, by_majr, rhs, False,
                           _first_mismatch(by_majr if by_majr != rhs else by_majb, rhs))
    return CheckReport("psi", label, by_majb, rhs, True)


def mirror_labeling(forest: Forest, w) -> tuple[int, ...]:
    """Flip each label's sign and complement its absolute value in 1..n."""
    n = forest.n
    return tuple(-(n + 1 - v) if v > 0 else (n + 1 + v) for v in w)


def check_mirror(forest: Forest) -> CheckReport:
    """The mirror map is an involution carrying rmaj to fmaj, with the
    accompanying maj-b and positivity identities."""
    label = forest.render()
    lhs_terms: dict[tuple[int, int], int] = {}
    rhs_terms: dict[tuple[int, int], int] = {}
    for w in enumerate_labelings(forest, "signed"):
        w2 = mirror_labeling(forest, w)
        if mirror_labeling(forest, w2) != w:
            return CheckReport("mirror", label, None, None, False,
                               f"labeling {w}: mirror is not an involution")
        r = stats.rmaj_forest(forest, w)
        fm = stats.fmaj_forest(forest, w2)
        if r != fm:
            return CheckReport("mirror", label, None, None, False,
                               f"labeling {w}: rmaj {r} != fmaj {fm} of the mirror")
        if stats.maj_b_forest(forest, w) != (stats.maj_forest(forest, w2)
                                             + stats.p_forest(forest, w)):
            return CheckReport("mirror", label, None, None, False,
                               f"labeling {w}: maj-b does not split as maj' + p")
        if stats.p_forest(forest, w) != stats.n1_forest(forest, w2):
            return CheckReport("mirror", label, None, None, False,
                               f"labeling {w}: positives do not mirror to negatives")
        lhs_terms[(0, r)] = lhs_terms.get((0, r), 0) + 1
        key = (0, stats.fmaj_forest(forest, w))
        rhs_terms[key] = rhs_terms.get(key, 0) + 1
    return CheckReport("mirror", label, BiPoly(lhs_terms), BiPoly(rhs_terms), True)


def coset_decompose(sigma: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a signed word as tau o pi: tau its increasing rearrangement,
    pi the ordinary permutation of positions with tau[pi_i - 1] = sigma_i."""
    tau = tuple(sorted(sigma))
    rank = {v: i for i, v in enumerate(tau, start=1)}
    pi = tuple(rank[v] for v in sigma)
    return tau, pi


def t_n_labelings(forest: Forest) -> list[tuple[int, ...]]:
    """The coset-representative labelings: each increasing signed word
    pulled back through the canonical decreasing labeling."""
    w0 = decreasing_labeling(forest)
    return [tuple(tau[v - 1] for v in w0)
            for tau in stats.increasing_signed_words(forest.n)]


def check_fmaj_coset_identity(forest: Forest) -> CheckReport:
    """fmaj of a relabeled forest splits as 2*maj of the ordinary part
    plus the negatives of the coset representative; the relabelings
    cover every signed labeling exactly once."""
    n = forest.n
    label = forest.render()
    seen = set()
    reps = list(stats.increasing_signed_words(n))
    for w in enumerate_labelings(forest, "ordinary"):
        des = stats.descents_forest(forest, w)
        twice_maj = 2 * stats.maj_forest(forest, w)
        for tau in reps:
            tw = tuple(tau[v - 1] for v in w)
            if stats.descents_forest(forest, tw) != des:
                return CheckReport("eq-coset-fmaj", label, None, None, False,
                                   f"w={w}, tau={tau}: descent set changed")
            negatives = sum(1 for v in tau if v < 0)
            if stats.n1_forest(forest, tw) != negatives:
                return CheckReport("eq-coset-fmaj", label, None, None, False,
                                   f"w={w}, tau={tau}: negative count changed")
            if stats.fmaj_forest(forest, tw) != twice_maj + negatives:
                return CheckReport("eq-coset-fmaj", label, None, None, False,
                                   f"w={w}, tau={tau}: fmaj does not split")
            seen.add(tw)
    if len(seen) != labeling_count(n, "signed"):
        return CheckReport("eq-coset-fmaj", label, None, None, False,
                           "relabelings do not cover the signed labelings")
    return CheckReport("eq-coset-fmaj", label, None, None, True)


# ---------------------------------------------------------------------------
# sweeps and counterexample search

def _map_ordered(fn: Callable, items, jobs: int) -> list:
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def sweep(theorem_id: str, max_n: int, degree: int = 10, jobs: int = 1,
          fail_fast: bool = False) -> list[CheckReport]:
    """Check one identity over every forest of size 0..max_n.

    Size-level identities run once per size; the even/odd cancellation
    starts at size 1.  Results come back in canonical order regardless
    of the worker count.
    """
    if theorem_id not in THEOREM_IDS:
        raise _unknown_theorem(theorem_id)
    _check_max_n(max_n)
    reports: list[CheckReport] = []
    if theorem_id in SIZE_LEVEL_IDS:
        for n in range(max_n + 1):
            reports.append(_size_check(theorem_id, n))
            if fail_fast and not reports[-1].passed:
                return reports
        return reports
    start = 1 if theorem_id == "eq-even-odd" else 0
    for n in range(start, max_n + 1):
        forests = list(enumerate_forests(n))
        batch = _map_ordered(lambda f: check_theorem(f, theorem_id, degree=degree),
                             forests, jobs)
        for report in batch:
            reports.append(report)
            if fail_fast and not report.passed:
                return reports
    return reports


def _size_check(theorem_id: str, n: int) -> CheckReport:
    if theorem_id == "eq-reiner":
        return _check_reiner(n)
    return _check_length_gf(n, theorem_id)


def counterexample_search(stat_a, stat_b, mode: str = "signed", max_n: int = 5,
                          jobs: int = 1) -> Optional[tuple[Forest, BiPoly, BiPoly]]:
    """First forest (size ascending, canonical order) where the two
    statistics have different distributions; None if there is none."""
    for stat in (stat_a, stat_b):
        stats.resolve_forest_stat(stat)
    _check_max_n(max_n)
    for n in range(max_n + 1):
        forests = list(enumerate_forests(n))
        rows = _map_ordered(
            lambda f: (f, distribution(f, stat_a, mode), distribution(f, stat_b, mode)),
            forests, jobs)
        for forest, da, db in rows:
            if da != db:
                return forest, da, db
    return None
