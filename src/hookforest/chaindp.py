"""Forest-statistic distributions by a forward dynamic program over the
ancestor chain.

Every forest statistic is a sum over the vertices u of terms that
depend only on u's label x, the labels of u's ancestors, u's hook h(u)
and whether u is a root:

  inv    ancestors a with a < x       n1   1 if x < 0
  n2     ancestors a with a + x < 0   p    1 if x > 0
  maj    h(u) if u is not a root and x exceeds its parent's label
  maj-b  maj, plus h(u) if u is a root and x > 0

``stats.FOREST_TERMS`` writes each statistic id as an integer
combination of these terms.  The distribution over all labelings of a
sign mode is then built by placing labels on the vertices in preorder,
one vertex per level, carrying for each reachable state the histogram
of (aux, stat) over the partial labelings that reach it.  Even-signed
mode is one signed run with the aux (n+1)*aux + n1, read back as the
slices with even n1.

Children are visited shortest subtree first (no statistic depends on
the planar order), so a vertex stops being an attach point before the
walk enters its deepest subtree.  The state after each vertex is its
chain:

* the chain holds the labels on the path from the root down to the
  parent of the next vertex, the ancestors of every vertex still to
  come.  A label is stored only while some later term can read it.
  An ancestor that is the parent of some later vertex (an attach
  point) keeps its exact label, since that child's maj term compares
  against it.  The labels between attach points form runs that only
  the inv and n2 terms read, and only to count them, so a run is
  stored sorted.  When neither the stat nor the aux has a maj term, an
  attach label is sorted into the run above it; when neither has an
  inv or n2 term, a run is dropped instead: each of its labels becomes
  the placeholder 0, which keeps every ancestor at its depth, and only
  the attach points tell states apart.
* Labels are gap codes.  After i vertices the n - i unused values sit
  at codes 2, 4, ..., 2(n - i), and a chain label keeps its sign but
  is stored as +-(2j + 1), the gap between unused values 2j and
  2j + 2.  Every later label is + or - an unused value, so its tests
  against a chain label (a < x, a + x < 0, x > parent) depend only on
  that label's sign and gap, and in the lowest gap not even on the
  sign: that gap is always stored as +1.  Partial labelings that differ
  only in the values finished subtrees took, or in the order of chain
  labels inside one gap, share a state.
* Taking an unused value c, by a push or by a leaf, merges the two
  gaps beside it: codes above c move 2 toward 0 and a pushed label
  becomes +-(c - 1).  A leaf's cut labels just leave the chain, and
  unused values with no chain label between them give a leaf the same
  terms and the same next state, so they are one move with a
  multiplicity.

Only the current level is kept.  A histogram is one Python int: the
count of (a, s) sits in the k-bit slot a*S + s, where k exceeds the
bit length of the number of labelings the run visits and S exceeds
the largest stat exponent.  Adding a vertex's terms is then a left shift and merging two
partial histograms an addition; no slot can overflow into the next,
because no count exceeds the number of labelings.  The final histogram
is read out by ``qpoly._decode``, the decoder of the packed closed
forms, with the constants of the sign terms as exponent offsets.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter

from .forest import Forest, hook_lengths, labeling_count
from .qpoly import BiPoly, _decode

TERMS = ("inv", "n2", "n1", "p", "maj", "maj-b")


def _steps(forest: Forest) -> list[tuple[bool, int, bool, int | None, int]]:
    """Per vertex u in walk order: (is root, h(u), u has children,
    merge start, keep).

    With children, the next chain is the current one plus u's label,
    after merging ``chain[merge:]`` into one run when u is the last
    child of its parent, which stops being an attach point.  For a
    leaf, the next chain is the first ``keep`` labels of the current
    one.
    """
    n, parent, children = forest.n, forest.parent, forest.children
    h = hook_lengths(forest)
    # descending preorder visits every child before its parent
    height = [1] * (n + 1)
    for v in range(n, 0, -1):
        height[parent[v]] = max(height[parent[v]], height[v] + 1)
    kids = [sorted(c, key=height.__getitem__) for c in children]
    order: list[int] = []
    stack = kids[0][::-1]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v][::-1])
    position = {v: i for i, v in enumerate(order)}
    ancestors: dict[int, tuple[int, ...]] = {0: ()}
    steps = []
    for i, u in enumerate(order):
        p = parent[u]
        anc = ancestors[u] = ancestors[p] + (p,) if p else ()
        merge, keep = None, 0
        if kids[u]:
            if p and kids[p][-1] == u:
                merge = 1 + max((j for j, a in enumerate(anc[:-1])
                                 if position[kids[a][-1]] > i), default=-1)
        else:
            above = parent[order[i + 1]] if i + 1 < n else 0
            keep = len(ancestors[above]) + 1 if above else 0
        steps.append((p == 0, h[u], bool(kids[u]), merge, keep))
    return steps


def _coefficients(terms, n: int) -> tuple[dict[str, int], int]:
    """Nonnegative term coefficients and the constant to add back.

    Every vertex has exactly one of n1 and p, so a negative sign
    coefficient is moved onto the other sign with a constant offset:
    -p = n1 - n.
    """
    unknown = set(terms) - set(TERMS)
    if unknown:
        raise KeyError(f"unknown forest terms {sorted(unknown)}; known: {', '.join(TERMS)}")
    coef = {t: terms.get(t, 0) for t in TERMS}
    low = min(coef["n1"], coef["p"], 0)
    coef["n1"] -= low
    coef["p"] -= low
    if any(c < 0 for c in coef.values()):
        raise ValueError(f"only the sign terms may have negative coefficients: {dict(terms)}")
    return coef, low * n


@lru_cache(maxsize=None)
def _takes(n: int) -> dict[int, dict[int, int]]:
    """For each unused code c, where every code goes when c is taken: the
    gaps on both sides of c merge, codes above it move 2 toward 0, c
    itself lands in the merged gap, and the lowest gap loses its sign.
    The placeholder 0 of a dropped label stays 0."""
    takes = {}
    for c in range(2, 2 * n + 1, 2):
        to = takes[c] = {0: 0}
        for a in range(1, 2 * n + 2):
            b = a - (a >= c) - (a > c)
            to[a], to[-a] = b, -b if b > 1 else 1
    return takes


def term_distribution(forest: Forest, stat_terms, mode: str = "signed",
                      aux_terms=None) -> BiPoly:
    """Sum of t^aux q^stat over the labelings of the given mode, where
    stat and aux are maps from TERMS to integer coefficients."""
    n = forest.n
    even = mode == "even-signed"
    k = labeling_count(n, "signed" if even else mode).bit_length() + 1
    stat, stat_off = _coefficients(stat_terms, n)
    aux, aux_off = _coefficients(aux_terms or {}, n)
    if even:
        aux, aux_off = {t: (n + 1) * c + (t == "n1") for t, c in aux.items()}, (n + 1) * aux_off
    # the largest stat exponent; inv, n2 and maj reach hooks - n, the non-root hooks
    hooks = sum(hook_lengths(forest)[1:])
    width = 1 + ((stat["inv"] + stat["n2"] + stat["maj"]) * (hooks - n)
                 + (stat["n1"] + stat["p"]) * n + stat["maj-b"] * hooks)
    w = {t: k * (width * aux[t] + stat[t]) for t in TERMS}
    w_inv, w_n2, w_pos, w_neg = w["inv"], w["n2"], w["p"], w["n1"]
    count_below = bool(w_inv or w_n2)
    exact = bool(w["maj"] or w["maj-b"])
    signed = mode != "ordinary"
    takes = _takes(n)

    frontier = {(): 1}
    for i, (root, hook, push, merge, keep) in enumerate(_steps(forest)):
        w_des = hook * (w["maj-b"] if root else w["maj"] + w["maj-b"])
        stop = 2 * (n - i) + 2
        # (c, its map, pushed -c) per unused code c, highest first for a leaf
        level = [(c, takes[c], takes[c][-c]) for c in range(stop - 2, 0, -2)]
        # with no maj term a pushed label is sorted into the run it joins
        insert = merge is not None and not exact
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        while frontier:
            chain, hist = frontier.popitem()
            part, end = hist, stop
            above = 0 if root else chain[-1]
            ranks = sorted(chain) if count_below else ()
            if push:
                if merge is not None:
                    run = sorted(chain[merge:]) if count_below else (0,) * (len(chain) - merge)
                    chain = chain[:merge] + tuple(run)
            else:
                # the leaf's value and the cut labels leave; unused values
                # with no chain label between them give the same terms and
                # the same next chain, so the lowest of them moves for all
                taken = {abs(a) for a in chain}
                chain = chain[:keep]
            pick = itemgetter(*chain) if len(chain) > 1 else None  # one index: a bare item
            for c, to, y in level:
                if not push:
                    if c > 2 and c - 1 not in taken:
                        continue
                    # this move stands for the unused values c, ..., end - 2
                    part, end = hist * ((end - c) // 2), c
                after = pick(to) if pick else tuple(map(to.__getitem__, chain))
                # +c and -c see the same counts, swapped: #a < c and #a < -c
                up, down = w_pos, w_neg
                if count_below:
                    below, below_neg = bisect_left(ranks, c), bisect_left(ranks, -c)
                    up += w_inv * below + w_n2 * below_neg
                    down += w_inv * below_neg + w_n2 * below
                if c > above:
                    up += w_des
                if -c > above:
                    down += w_des
                if not push:
                    nxt[after] = get(after, 0) + (part << up) + ((part << down) if signed else 0)
                    continue
                if insert:
                    j = bisect_left(after, c - 1, merge)
                    key = after[:j] + (c - 1,) + after[j:]
                else:
                    key = after + (c - 1,)
                nxt[key] = get(key, 0) + (part << up)
                if signed:
                    if insert:
                        j = bisect_left(after, y, merge)
                        key = after[:j] + (y,) + after[j:]
                    else:
                        key = after + (y,)
                    nxt[key] = get(key, 0) + (part << down)
        frontier = nxt

    dist = _decode(frontier.get((), 0), k, width, aux_off, stat_off)
    # as 0 <= n1 <= n, (n+1)*aux + n1 splits by divmod; BiPoly sums the slices
    return BiPoly(((a // (n + 1), s), c) for (a, s), c in dist.items()
                  if a % (n + 1) % 2 == 0) if even else dist
