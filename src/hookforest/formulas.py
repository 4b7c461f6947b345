"""Closed-form right-hand sides of the hook-length identities.

Every formula is an exact integer polynomial built from the hook
lengths of a forest; the leading rational factor n!/prod(h_u) is the
number of linear extensions and is computed with an exactness check
rather than rational arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from . import stats
from .forest import Forest, hook_lengths
from .qpoly import BiPoly, Series, _product


def extension_count(forest: Forest) -> int:
    """n! / prod(hooks): the number of linear extensions, exactly."""
    h = hook_lengths(forest)
    count, rem = divmod(math.factorial(forest.n), math.prod(h[1:]))
    if rem:
        raise ValueError("hook product does not divide n!; the forest is corrupt")
    return count


def _hook_product(forest: Forest, runs, scale: int | None = None,
                  degree: int | None = None):
    """scale (by default e(F)) times the runs of h_u for every vertex u, as
    one packed product (``qpoly._product``); with a degree, the Series
    truncated there."""
    if scale is None:
        scale = extension_count(forest)
    return _product(scale, [r for h in hook_lengths(forest)[1:] for r in runs(h)], degree)


def rhs_bw(forest: Forest) -> BiPoly:
    """Ordinary-labeling distribution of inv or maj: e(F) * prod [h_u]."""
    return _hook_product(forest, lambda h: [(0, 1, h)])


def rhs_inv_b(forest: Forest) -> BiPoly:
    """Signed distribution of inv-b: e(F) * prod [2 h_u]."""
    return _hook_product(forest, lambda h: [(0, 1, 2 * h)])


def rhs_inv_d(forest: Forest) -> BiPoly:
    """Even-signed distribution of inv-d: (n!/(2 prod h)) * prod (1+q^(h-1))[h].

    Every nonempty forest has a leaf, and a leaf's factor (1 + q^0)[1] is
    the constant 2, so the halving takes one leaf's factor: the product
    is e(F) * 2^(leaves - 1) times the factors of the other vertices.
    """
    if forest.n == 0:
        return BiPoly.one()
    leaves = hook_lengths(forest).count(1)
    return _hook_product(forest, lambda h: [(0, h - 1, 2), (0, 1, h)] if h > 1 else [],
                         extension_count(forest) << leaves - 1)


def rhs_bivariate_inv(forest: Forest) -> BiPoly:
    """Joint (negatives, inv-b) distribution: e(F) * prod (1 + t q^h)[h]."""
    return _hook_product(forest, lambda h: [(1, h, 2), (0, 1, h)])


def rhs_bivariate_majb(forest: Forest) -> BiPoly:
    """Joint (positives, maj-b) distribution: e(F) * (1+tq)^n * prod [h_u].

    The t-free product rhs_bw is spread over the binomial row
    (1+tq)^n = sum C(n, j) t^j q^j; its term q^b lands at t^j q^(b+j),
    so no two terms meet."""
    row = [(j, math.comb(forest.n, j)) for j in range(forest.n + 1)]
    base = rhs_bw(forest).items()
    return BiPoly._trusted({(j, b + j): r * c for j, r in row for (_, b), c in base})


@lru_cache(maxsize=None)
def _linext_quotient(forest: Forest) -> BiPoly:
    # [n]! / prod [h_u], once the q-numbers both sides share are cancelled
    # ([1] = 1 drops out); a polynomial with nonnegative integer coefficients
    left = Counter(range(2, forest.n + 1))
    left.subtract(h for h in hook_lengths(forest)[1:] if h > 1)
    return _product(1, [(0, 1, m) for m in left.elements()],
                    over=[(0, 1, m) for m in (-left).elements()])


def rhs_linext(forest: Forest, w) -> BiPoly:
    """Extension generating function by maj-b: q^{maj_b(F,w)} [n]! / prod [h_u]."""
    return _linext_quotient(forest).shift_q(stats.maj_b_forest(forest, w))


@lru_cache(maxsize=None)
def _partition_product(forest: Forest, degree: int) -> Series:
    # prod 1 / (1 - q^{h_u}), truncated at the degree
    return _hook_product(forest, lambda h: [(0, h, degree // h + 1)], 1, degree)


def rhs_partition_gf(forest: Forest, w, degree: int) -> Series:
    """Truncated expansion of q^{maj_b(F,w)} / prod (1 - q^{h_u})."""
    majb = stats.maj_b_forest(forest, w)
    return Series(_partition_product(forest, degree).poly.shift_q(majb), degree)
