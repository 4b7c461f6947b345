"""Statistics on signed permutations and on signed labeled forests.

Permutation-level functions accept any word of distinct nonzero
integers (they never assume the absolute values are contiguous, which
the root-removal recursion relies on).  Forest-level functions take
``(forest, values)`` with the label vector in vertex-index order.

The registries at the bottom map the kebab-case statistic ids shared
with the CLI to the implementations.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .forest import Forest, comparable_pairs, hook_lengths

Word = Sequence[int]


# ---------------------------------------------------------------------------
# signed permutation words


def inv(sigma: Word) -> int:
    """Pairs i < j with sigma_i > sigma_j, natural integer order."""
    total = 0
    n = len(sigma)
    for i in range(n):
        si = sigma[i]
        for j in range(i + 1, n):
            if si > sigma[j]:
                total += 1
    return total


def descent_set(sigma: Word) -> tuple[int, ...]:
    """Positions i in [1, n-1] with sigma_i > sigma_{i+1} (no sentinel)."""
    return tuple(i for i in range(1, len(sigma)) if sigma[i - 1] > sigma[i])


def maj(sigma: Word) -> int:
    return sum(descent_set(sigma))


def n1(sigma: Word) -> int:
    """Number of negative entries."""
    return sum(1 for v in sigma if v < 0)


def n2(sigma: Word) -> int:
    """Unordered pairs of distinct positions whose values sum negative."""
    total = 0
    n = len(sigma)
    for i in range(n):
        si = sigma[i]
        for j in range(i + 1, n):
            if si + sigma[j] < 0:
                total += 1
    return total


def len_b(sigma: Word) -> int:
    """Signed-permutation length: inv + n1 + n2."""
    return inv(sigma) + n1(sigma) + n2(sigma)


def len_d(sigma: Word) -> int:
    """Even-signed-permutation length: inv + n2."""
    return inv(sigma) + n2(sigma)


def fmaj(sigma: Word) -> int:
    """Flag major index: 2*maj + n1."""
    return 2 * maj(sigma) + n1(sigma)


def nmaj(sigma: Word) -> int:
    """Negative major index: maj + n1 + n2."""
    return maj(sigma) + n1(sigma) + n2(sigma)


def maj_r(sigma: Word) -> int:
    """Major index under the order 1 < ... < n < -n < ... < -1.

    Descents are positions i in [1, n] with the sentinel sigma_{n+1} = n.
    """
    n = len(sigma)

    def key(v: int) -> int:
        return v if v > 0 else 2 * n + 1 + v

    total = 0
    for i in range(1, n + 1):
        nxt = key(sigma[i]) if i < n else n
        if key(sigma[i - 1]) > nxt:
            total += i
    return total


def descent_set_b(sigma: Word) -> tuple[int, ...]:
    """Positions i in [1, n] with sigma_i > sigma_{i+1}, sentinel 0."""
    n = len(sigma)
    return tuple(i for i in range(1, n + 1)
                 if sigma[i - 1] > (sigma[i] if i < n else 0))


def maj_b(sigma: Word) -> int:
    return sum(descent_set_b(sigma))


def p(sigma: Word) -> int:
    """Number of positive entries."""
    return sum(1 for v in sigma if v > 0)


def rmaj(sigma: Word) -> int:
    """R-major index: 2*maj_b - p.  Always nonnegative."""
    return 2 * maj_b(sigma) - p(sigma)


def dmaj(sigma: Word) -> int:
    """Type-D major index: maj + n2."""
    return maj(sigma) + n2(sigma)


def signed_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n n! signed permutations of 1..n."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(s * v for s, v in zip(signs, perm))


def even_signed_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Signed permutations with an even number of negative entries."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            if signs.count(-1) % 2 == 0:
                yield tuple(s * v for s, v in zip(signs, perm))


def increasing_signed_words(n: int) -> Iterator[tuple[int, ...]]:
    """The 2^n signed words with strictly increasing values.

    These are the minimal coset representatives splitting the signed
    permutations over the ordinary ones.
    """
    for signs in itertools.product((1, -1), repeat=n):
        yield tuple(sorted(s * k for k, s in enumerate(signs, start=1)))


# ---------------------------------------------------------------------------
# signed labeled forests


def inv_forest(forest: Forest, w: Word) -> int:
    """Ancestor/descendant pairs where the ancestor carries the smaller label."""
    return sum(1 for a, b in comparable_pairs(forest) if w[a - 1] < w[b - 1])


def descents_forest(forest: Forest, w: Word) -> tuple[int, ...]:
    """Non-root vertices whose label exceeds the parent's label."""
    parent = forest.parent
    return tuple(v for v in range(1, forest.n + 1)
                 if parent[v] and w[v - 1] > w[parent[v] - 1])


def maj_forest(forest: Forest, w: Word) -> int:
    """Sum of hook lengths over the descent vertices."""
    h = hook_lengths(forest)
    return sum(h[v] for v in descents_forest(forest, w))


def n1_forest(forest: Forest, w: Word) -> int:
    return sum(1 for v in w if v < 0)


def n2_forest(forest: Forest, w: Word) -> int:
    """Comparable pairs whose labels sum negative."""
    return sum(1 for a, b in comparable_pairs(forest) if w[a - 1] + w[b - 1] < 0)


def inv_b_forest(forest: Forest, w: Word) -> int:
    """Forest inversion number of type B: inv + n1 + n2."""
    return inv_forest(forest, w) + n1_forest(forest, w) + n2_forest(forest, w)


def inv_d_forest(forest: Forest, w: Word) -> int:
    """Forest inversion number of type D: inv + n2, even-signed labelings only."""
    if n1_forest(forest, w) % 2:
        raise ValueError("inv-d needs an even number of negative labels")
    return inv_forest(forest, w) + n2_forest(forest, w)


def fmaj_forest(forest: Forest, w: Word) -> int:
    """Flag major index of a signed labeled forest: 2*maj + n1."""
    return 2 * maj_forest(forest, w) + n1_forest(forest, w)


def descents_b_forest(forest: Forest, w: Word) -> tuple[int, ...]:
    """Descents together with the positively labeled roots."""
    des = set(descents_forest(forest, w))
    des.update(r for r in forest.roots if w[r - 1] > 0)
    return tuple(sorted(des))


def maj_b_forest(forest: Forest, w: Word) -> int:
    h = hook_lengths(forest)
    return sum(h[v] for v in descents_b_forest(forest, w))


def p_forest(forest: Forest, w: Word) -> int:
    return sum(1 for v in w if v > 0)


def rmaj_forest(forest: Forest, w: Word) -> int:
    """R-major index of a signed labeled forest: 2*maj_b - p."""
    return 2 * maj_b_forest(forest, w) - p_forest(forest, w)


def nmaj_forest(forest: Forest, w: Word) -> int:
    """maj + n1 + n2 (not equidistributed with inv-b; see the search tools)."""
    return maj_forest(forest, w) + n1_forest(forest, w) + n2_forest(forest, w)


def dmaj_forest(forest: Forest, w: Word) -> int:
    """maj + n2; total on all labelings, type-D checks filter to even-signed."""
    return maj_forest(forest, w) + n2_forest(forest, w)


# ---------------------------------------------------------------------------
# registries (ids shared with the CLI)

PERM_STATS = {
    "inv": inv,
    "maj": maj,
    "n1": n1,
    "n2": n2,
    "len-b": len_b,
    "len-d": len_d,
    "fmaj": fmaj,
    "nmaj": nmaj,
    "maj-r": maj_r,
    "maj-b": maj_b,
    "p": p,
    "rmaj": rmaj,
    "dmaj": dmaj,
}

FOREST_STATS = {
    "inv-f": inv_forest,
    "maj-f": maj_forest,
    "n1-f": n1_forest,
    "n2-f": n2_forest,
    "inv-b-f": inv_b_forest,
    "inv-d-f": inv_d_forest,
    "fmaj-f": fmaj_forest,
    "maj-b-f": maj_b_forest,
    "p-f": p_forest,
    "rmaj-f": rmaj_forest,
    "nmaj-f": nmaj_forest,
    "dmaj-f": dmaj_forest,
}

# each forest statistic as a sum of per-vertex terms (hookforest.chaindp
# defines the terms); the functions above stay the independent oracle
FOREST_TERMS = {
    "inv-f": {"inv": 1},
    "maj-f": {"maj": 1},
    "n1-f": {"n1": 1},
    "n2-f": {"n2": 1},
    "inv-b-f": {"inv": 1, "n1": 1, "n2": 1},
    "inv-d-f": {"inv": 1, "n2": 1},
    "fmaj-f": {"maj": 2, "n1": 1},
    "maj-b-f": {"maj-b": 1},
    "p-f": {"p": 1},
    "rmaj-f": {"maj-b": 2, "p": -1},
    "nmaj-f": {"maj": 1, "n1": 1, "n2": 1},
    "dmaj-f": {"maj": 1, "n2": 1},
}

# shorthand accepted on the command line: bare permutation-style names
# resolve to the forest statistic of the same flavor
_FOREST_ALIASES = {"inv-b": "inv-b-f", "inv-d": "inv-d-f", "fmaj": "fmaj-f",
                   "rmaj": "rmaj-f", "nmaj": "nmaj-f", "dmaj": "dmaj-f",
                   "inv": "inv-f", "maj": "maj-f", "n1": "n1-f", "n2": "n2-f",
                   "maj-b": "maj-b-f", "p": "p-f"}


def resolve_forest_stat(stat):
    """Map a forest statistic id (or callable) to (canonical id, function)."""
    if callable(stat):
        return getattr(stat, "__name__", "custom"), stat
    if stat in FOREST_STATS:
        return stat, FOREST_STATS[stat]
    alias = _FOREST_ALIASES.get(stat)
    if alias:
        return alias, FOREST_STATS[alias]
    raise KeyError(f"unknown forest statistic {stat!r}; known ids: "
                   f"{', '.join(sorted(FOREST_STATS))}")
