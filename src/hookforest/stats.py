"""Statistics on signed permutations and on signed labeled forests.

Permutation-level functions accept any word of distinct nonzero
integers; they never assume the absolute values are contiguous, except
maj_r, whose key 2n + 1 + v puts a negative v after every positive
letter only when |v| <= n.  Forest-level functions take
``(forest, values)`` with the label vector in vertex-index order.

These are the brute-force oracle.  Each statistic is one loop that
reads as its definition, over a C-level iterator of the letters, the
positions, ``itertools.combinations`` of the letters or the forest's
``comparable_pairs``, with no generator frame per call; the tests keep
the index loops and generator expressions they replaced as references.

The registries at the bottom map the kebab-case statistic ids shared
with the CLI to the implementations.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .forest import Forest, comparable_pairs, hook_lengths

Word = Sequence[int]


# ---------------------------------------------------------------------------
# signed permutation words


def inv(sigma: Word) -> int:
    """Pairs i < j with sigma_i > sigma_j, natural integer order."""
    total = 0
    for a, b in combinations(sigma, 2):
        if a > b:
            total += 1
    return total


def descent_set(sigma: Word) -> tuple[int, ...]:
    """Positions i in [1, n-1] with sigma_i > sigma_{i+1} (no sentinel)."""
    found = []
    for i in range(1, len(sigma)):
        if sigma[i - 1] > sigma[i]:
            found.append(i)
    return tuple(found)


def maj(sigma: Word) -> int:
    return sum(descent_set(sigma))


def n1(sigma: Word) -> int:
    """Number of negative entries."""
    total = 0
    for v in sigma:
        if v < 0:
            total += 1
    return total


def n2(sigma: Word) -> int:
    """Unordered pairs of distinct positions whose values sum negative."""
    total = 0
    for a, b in combinations(sigma, 2):
        if a + b < 0:
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
    # the order's key: v for v > 0, 2n + 1 + v for v < 0
    keys = [v if v > 0 else 2 * n + 1 + v for v in sigma]
    keys.append(n)
    total = 0
    for i in range(1, n + 1):
        if keys[i - 1] > keys[i]:
            total += i
    return total


def descent_set_b(sigma: Word) -> tuple[int, ...]:
    """Positions i in [1, n] with sigma_i > sigma_{i+1}, sentinel 0."""
    n = len(sigma)
    found = []
    for i in range(1, n + 1):
        if sigma[i - 1] > (sigma[i] if i < n else 0):
            found.append(i)
    return tuple(found)


def maj_b(sigma: Word) -> int:
    return sum(descent_set_b(sigma))


def p(sigma: Word) -> int:
    """Number of positive entries."""
    total = 0
    for v in sigma:
        if v > 0:
            total += 1
    return total


def rmaj(sigma: Word) -> int:
    """R-major index: 2*maj_b - p.  Always nonnegative."""
    return 2 * maj_b(sigma) - p(sigma)


def dmaj(sigma: Word) -> int:
    """Type-D major index: maj + n2."""
    return maj(sigma) + n2(sigma)


# ---------------------------------------------------------------------------
# signed labeled forests


def inv_forest(forest: Forest, w: Word) -> int:
    """Ancestor/descendant pairs where the ancestor carries the smaller label."""
    total = 0
    for a, b in comparable_pairs(forest):
        if w[a - 1] < w[b - 1]:
            total += 1
    return total


def descents_forest(forest: Forest, w: Word) -> tuple[int, ...]:
    """Non-root vertices whose label exceeds the parent's label."""
    parent = forest.parent
    found = []
    for v in range(1, forest.n + 1):
        if parent[v] and w[v - 1] > w[parent[v] - 1]:
            found.append(v)
    return tuple(found)


def maj_forest(forest: Forest, w: Word) -> int:
    """Sum of hook lengths over the descent vertices."""
    h = hook_lengths(forest)
    total = 0
    for v in descents_forest(forest, w):
        total += h[v]
    return total


def n1_forest(forest: Forest, w: Word) -> int:
    return n1(w)


def n2_forest(forest: Forest, w: Word) -> int:
    """Comparable pairs whose labels sum negative."""
    total = 0
    for a, b in comparable_pairs(forest):
        if w[a - 1] + w[b - 1] < 0:
            total += 1
    return total


def descents_b_forest(forest: Forest, w: Word) -> tuple[int, ...]:
    """Descents together with the positively labeled roots: a root's
    parent label counts as 0, the sentinel of maj_b."""
    parent = forest.parent
    found = []
    for v in range(1, forest.n + 1):
        if w[v - 1] > (w[parent[v] - 1] if parent[v] else 0):
            found.append(v)
    return tuple(found)


def maj_b_forest(forest: Forest, w: Word) -> int:
    h = hook_lengths(forest)
    total = 0
    for v in descents_b_forest(forest, w):
        total += h[v]
    return total


def p_forest(forest: Forest, w: Word) -> int:
    return p(w)


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

# the PERM_STATS ids constant on each sign-order pattern (the relative
# order of the letters and 0): they compare letters only with each other
# and with 0, so the weighted labeling orbits of a chain count them as
# the signed words do.  n2 compares absolute values across signs, so
# orbits miscount it and len-b, len-d, nmaj and dmaj, which contain it.
PATTERN_STATS = frozenset({"inv", "maj", "n1", "p", "fmaj", "maj-r", "maj-b", "rmaj"})

# the per-vertex terms of hookforest.chaindp as per-labeling functions;
# the differential tests check the chain DP against them
TERM_STATS = {
    "inv": inv_forest,
    "n2": n2_forest,
    "n1": n1_forest,
    "p": p_forest,
    "maj": maj_forest,
    "maj-b": maj_b_forest,
}

# each forest statistic as an integer combination of the per-vertex
# terms: its one definition, read by the chain DP and by FOREST_STATS
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

# the statistic defined only on labelings with an even number of negatives
EVEN_SIGNED_STAT = "inv-d-f"


def _from_terms(stat_id: str):
    """The per-labeling function of a FOREST_TERMS row.  It looks the term
    functions up on each call, so wrappers installed on them see it."""
    terms = FOREST_TERMS[stat_id]
    name = stat_id[:-2]

    def stat(forest: Forest, w: Word) -> int:
        if stat_id == EVEN_SIGNED_STAT and n1_forest(forest, w) % 2:
            raise ValueError(f"{name} needs an even number of negative labels")
        total = 0
        for t, c in terms.items():
            total += c * TERM_STATS[t](forest, w)
        return total

    stat.__name__ = name.replace("-", "_") + "_forest"
    return stat


FOREST_STATS = {stat_id: _from_terms(stat_id) for stat_id in FOREST_TERMS}


def resolve_forest_stat(stat):
    """Map a forest statistic id (or callable) to (canonical id, function)."""
    if callable(stat):
        return getattr(stat, "__name__", "custom"), stat
    # a bare permutation-style name means the forest statistic of that flavor
    for name in (stat, f"{stat}-f"):
        if name in FOREST_STATS:
            return name, FOREST_STATS[name]
    raise KeyError(f"unknown forest statistic {stat!r}; known ids: "
                   f"{', '.join(sorted(FOREST_STATS))}")
