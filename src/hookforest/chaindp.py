"""Forest-statistic distributions by two forward dynamic programs over
the labelings.

Every forest statistic is a sum over the vertices u of terms that
depend only on u's label x, the labels of u's ancestors, u's hook h(u)
and whether u is a root:

  inv    ancestors a with a < x       n1   1 if x < 0
  n2     ancestors a with a + x < 0   p    1 if x > 0
  maj    h(u) if u is not a root and x exceeds its parent's label
  maj-b  maj, plus h(u) if u is a root and x > 0

``stats.FOREST_TERMS`` writes each statistic id as an integer
combination of these terms.  The distribution over all labelings of a
sign mode is built one level at a time, carrying for each reachable
state the histogram of (aux, stat) over the partial labelings that
reach it.  Even-signed mode is one signed run with the aux
(n+1)*aux + n1, read back as the slices with even n1.  A term set
whose stat or aux has an inv or n2 coefficient runs the value walk;
every other term set runs the chain walk.

The value walk places the absolute values 1, ..., n in increasing
order, each on an unplaced vertex with either sign.  For two comparable
labels, a < x, a + x < 0 and "x exceeds its parent" are each decided
by the sign of the label with the larger absolute value and by whether
its vertex is the ancestor or the descendant.  So when value i goes to
u, its terms with the relatives placed before it are fixed, and they
read only u's sign and which relatives are placed:

  +i   p + inv * (placed ancestors) + maj * h(u) if u's parent is placed
         + maj-b * h(u) if u is a root
  -i   n1 + inv * (placed descendants) + n2 * (placed ancestors and
         descendants) + maj * (h(c) summed over the placed children c)

where maj-b also counts as maj.  Both signs lead to the same state, the
set of placed vertices as a bitmask, with no labels kept.  No term
compares labels in two different trees, and every term keeps its value
when a tree's labels are replaced by their ranks within that tree, so
each tree r is walked on its own over the values 1, ..., h(r), and the
forest's histogram is the product of the trees' times the multinomial
n! / prod h(r)!, the ways to choose which absolute values each tree
takes.  The walk makes h(r) * 2^(h(r)-1) moves per tree r.  On a deep
tree that is far fewer states than the ancestor labels the counts
read; on a bushy one every subset of its vertices is a state.

The chain walk serves the term sets whose only comparisons are the maj
terms.  It places labels on the vertices in preorder, one vertex per
level, with children visited shortest subtree first (no statistic
depends on the planar order), so a vertex stops being an attach point
before the walk enters its deepest subtree.  The state after each
vertex is its chain:

* the chain holds the labels on the path from the root down to the
  parent of the next vertex.  An ancestor that is the parent of some
  later vertex (an attach point) keeps its exact label, since that
  child's maj term compares against it.  Every other ancestor holds
  the placeholder 0, which keeps each ancestor at its depth, so only
  the attach points tell states apart; with no maj term every label
  is the placeholder.
* Labels are gap codes.  After i vertices the n - i unused values sit
  at codes 2, 4, ..., 2(n - i), and a chain label keeps its sign but
  is stored as +-(2j + 1), the gap between unused values 2j and
  2j + 2.  Every later label is + or - an unused value, so its test
  against its parent's label (x > parent) depends only on that label's
  sign and gap, and in the lowest gap not even on the sign: that gap
  is always stored as +1.  Partial labelings that differ only in the
  values finished subtrees took, or in the order of chain labels
  inside one gap, share a state.
* Taking an unused value c, by a push or by a leaf, merges the two
  gaps beside it: codes above c move 2 toward 0 and a pushed label
  becomes +-(c - 1).  A leaf's cut labels just leave the chain, and
  unused values with no chain label between them give a leaf the same
  terms and the same next state, so they are one move with a
  multiplicity.

The chain walk keeps the current level and the next.  The value walk
keeps a tree's states in one list indexed by the mask, reads them in
popcount order and zeroes each one it reads, so only two levels hold
histograms.  A histogram is one Python int: the count of (a, s) sits
in the k-bit slot a*S + s, where k exceeds the bit length of the
number of labelings the run visits and S exceeds the largest stat
exponent.  Adding a vertex's terms is then a left shift, merging two
partial histograms an addition and joining two trees a product; no
slot can overflow into the next, because no count exceeds the number
of the forest's labelings and no stat exponent reaches S.  The final
histogram is read out by ``qpoly._decode``, the decoder of the packed
closed forms, with the constants of the sign terms as exponent offsets.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import itemgetter

from .forest import Forest, hook_lengths, labeling_count
from .qpoly import BiPoly, _decode

TERMS = ("inv", "n2", "n1", "p", "maj", "maj-b")


def _steps(forest: Forest) -> list[tuple[bool, int, bool, bool, int]]:
    """Per vertex u in walk order: (is root, h(u), u has children, u is
    the last child of a non-root parent, keep).

    With children, the next chain is the current one plus u's label,
    after the parent's label becomes the placeholder 0 when u is its
    last child, since the parent stops being an attach point.  For a
    leaf, the next chain is the first ``keep`` labels of the current
    one, the path down to the parent of the next vertex.
    """
    n, parent, children = forest.n, forest.parent, forest.children
    h = hook_lengths(forest)
    # descending preorder visits every child before its parent
    height = [1] * (n + 1)
    for v in range(n, 0, -1):
        height[parent[v]] = max(height[parent[v]], height[v] + 1)
    depth = [0] * (n + 1)
    for v in range(1, n + 1):
        depth[v] = depth[parent[v]] + 1
    kids = [sorted(c, key=height.__getitem__) for c in children]
    order: list[int] = []
    stack = kids[0][::-1]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v][::-1])
    order.append(0)
    return [(parent[u] == 0, h[u], bool(kids[u]), parent[u] > 0 and kids[parent[u]][-1] == u,
             depth[parent[order[i + 1]]]) for i, u in enumerate(order[:-1])]


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


def _chain_walk(forest: Forest, w: dict[str, int], signed: bool) -> int:
    """The packed histogram of a term set with no inv or n2 term,
    placing labels on the vertices in walk order; a state is the chain."""
    n = forest.n
    exact = bool(w["maj"] or w["maj-b"])
    w_pos, w_neg = w["p"], w["n1"]
    takes = _takes(n)

    frontier = {(): 1}
    for i, (root, hook, push, last, keep) in enumerate(_steps(forest)):
        w_des = hook * (w["maj-b"] if root else w["maj"] + w["maj-b"])
        stop = 2 * (n - i) + 2
        # (c, its map, pushed +c, pushed -c) per unused code c, highest
        # first for a leaf; with no maj term every label is a placeholder
        level = [(c, takes[c], c - 1, takes[c][-c]) if exact else (c, takes[c], 0, 0)
                 for c in range(stop - 2, 0, -2)]
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        while frontier:
            chain, hist = frontier.popitem()
            part, end = hist, stop
            above = 0 if root else chain[-1]
            if push:
                if last:
                    chain = chain[:-1] + (0,)
            else:
                # the leaf's value and the cut labels leave; unused values
                # with no chain label between them give the same terms and
                # the same next chain, so the lowest of them moves for all
                taken = {abs(a) for a in chain}
                chain = chain[:keep]
            pick = itemgetter(*chain) if len(chain) > 1 else None  # one index: a bare item
            for c, to, x, y in level:
                if not push:
                    if c > 2 and c - 1 not in taken:
                        continue
                    # this move stands for the unused values c, ..., end - 2
                    part, end = hist * ((end - c) // 2), c
                after = pick(to) if pick else tuple(map(to.__getitem__, chain))
                up = w_pos + w_des if c > above else w_pos
                down = w_neg + w_des if -c > above else w_neg
                if not push:
                    nxt[after] = get(after, 0) + (part << up) + ((part << down) if signed else 0)
                    continue
                key = after + (x,)
                nxt[key] = get(key, 0) + (part << up)
                if signed:
                    key = after + (y,)
                    nxt[key] = get(key, 0) + (part << down)
        frontier = nxt
    return frontier.get((), 0)


def _value_walk(forest: Forest, w: dict[str, int], signed: bool) -> int:
    """The packed histogram of any term set: each tree's walk places the
    absolute values 1, ..., h(root) in increasing order, a state being
    the set of its placed vertices, and the forest's histogram is the
    multinomial n! / prod h(root)! times the product of the trees'."""
    n, parent, children = forest.n, forest.parent, forest.children
    h = hook_lengths(forest)
    w_inv, w_n2, w_neg, w_maj = w["inv"], w["n2"], w["n1"], w["maj"] + w["maj-b"]
    # each bit counts from its own root, so every mask stays inside one tree
    root = [0] * (n + 1)
    for v in range(1, n + 1):
        root[v] = root[parent[v]] or v
    bit = [0] + [1 << (v - root[v]) for v in range(1, n + 1)]
    ancestors, descendants = [0] * (n + 1), [0] * (n + 1)
    for v in range(1, n + 1):
        ancestors[v] = ancestors[parent[v]] | bit[parent[v]]
    for v in range(n, 0, -1):
        descendants[parent[v]] |= descendants[v] | bit[v]
    # per vertex u: its bit, its relatives, its parent's bit, the + terms
    # of u alone, u's + maj term once its parent is placed, and the -
    # maj term that each child of u adds once placed
    vertices = [(bit[u], ancestors[u], descendants[u], bit[parent[u]],
                 w["p"] + (0 if parent[u] else h[u] * w["maj-b"]), h[u] * w_maj,
                 [(bit[c], h[c] * w_maj) for c in children[u]] if w_maj else ())
                for u in range(1, n + 1)]

    # the ways to deal the absolute values out to the trees: every term
    # reads only the ranks of its own tree's values
    packed = factorial(n)
    for r in forest.roots:
        packed //= factorial(h[r])
    for r in forest.roots:
        size = h[r]
        tree = vertices[r - 1:r - 1 + size]
        states = [0] * (1 << size)
        states[0] = 1
        # in popcount order every state is complete when read, and zeroing
        # it leaves only the current level and the next alive
        for placed in sorted(range(1 << size), key=int.bit_count):
            hist, states[placed] = states[placed], 0
            for b, above, below, up_bit, w_pos, w_up, kids in tree:
                if placed & b:
                    continue
                a = (placed & above).bit_count()
                up = w_pos + w_inv * a + (w_up if placed & up_bit else 0)
                if not signed:
                    states[placed | b] += hist << up
                    continue
                d = (placed & below).bit_count()
                down = w_neg + w_inv * d + w_n2 * (a + d)
                for c, w_down in kids:
                    if placed & c:
                        down += w_down
                states[placed | b] += (hist << up) + (hist << down)
        packed *= hist
    return packed


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
    walk = _value_walk if w["inv"] or w["n2"] else _chain_walk
    dist = _decode(walk(forest, w, mode != "ordinary"), k, width, aux_off, stat_off)
    # as 0 <= n1 <= n, (n+1)*aux + n1 splits by divmod; BiPoly sums the slices
    return BiPoly(((a // (n + 1), s), c) for (a, s), c in dist.items()
                  if a % (n + 1) % 2 == 0) if even else dist
