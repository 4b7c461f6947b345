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
of (aux, stat) over the partial labelings that reach it.

Children are visited shortest subtree first (no statistic depends on
the planar order), so a vertex stops being an attach point before the
walk enters its deepest subtree.  The state after each vertex is
(chain, parity):

* ``chain`` holds the labels on the path from the root down to the
  parent of the next vertex, the ancestors of every vertex still to
  come.  An ancestor that is the parent of some later vertex (an
  attach point) keeps its exact label, since that child's maj term
  compares against it; the runs of labels between attach points are
  stored sorted, since later vertices only count them.  When no maj
  term is asked for, an attach label is sorted into the run above it.
* The live absolute values, those on the chain or not yet used, are
  relabeled 1..m in order.  Every later term compares labels only with
  each other, so partial labelings that differ by this relabeling have
  the same futures; it stands in for a used-label bitmask and also
  forgets which values the finished subtrees took.
* ``parity`` is the parity of the negative labels in even-signed mode
  and 0 otherwise.

Only the current level is kept.  A histogram is one Python int: the
count of (a, s) sits in the k-bit slot a*S + s, where k exceeds the
bit length of the number of labelings and S exceeds the largest stat
exponent.  Adding a vertex's terms is then a left shift and merging two
partial histograms an addition; no slot can overflow into the next,
because no count exceeds the number of labelings.
"""

from __future__ import annotations

from bisect import bisect_left

from .forest import Forest, hook_lengths, labeling_count
from .qpoly import BiPoly

TERMS = ("inv", "n2", "n1", "p", "maj", "maj-b")


def _steps(forest: Forest) -> list[tuple[bool, int, bool, int | None, int]]:
    """Per vertex u in walk order: (is root, h(u), u has children,
    merge start, keep).

    With children, the next chain is the current one plus u's label,
    after sorting ``chain[merge:]`` into one run when u is the last
    child of its parent, which stops being an attach point.  For a
    leaf, the next chain is the first ``keep`` labels of the current
    one.
    """
    n, parent, children = forest.n, forest.parent, forest.children
    h = hook_lengths(forest)
    height = [0] * (n + 1)
    for v in range(n, 0, -1):
        height[v] = 1 + max((height[c] for c in children[v]), default=0)
    kids = [sorted(children[v], key=height.__getitem__) for v in range(n + 1)]
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
        merge = None
        if kids[u]:
            keep = len(anc) + 1
            if p and kids[p][-1] == u:
                merge = 1 + max((j for j, a in enumerate(anc[:-1])
                                 if position[kids[a][-1]] > i), default=-1)
        else:
            above = parent[order[i + 1]] if i + 1 < n else 0
            keep = len(ancestors[above]) + 1 if above else 0
        steps.append((p == 0, h[u], bool(kids[u]), merge, keep))
    return steps


def _coefficients(forest: Forest, terms) -> tuple[dict[str, int], int, int]:
    """Nonnegative term coefficients, the constant to add back, and the
    largest exponent the combination can reach on this forest.

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
    n = forest.n
    h = hook_lengths(forest)
    pairs = sum(h[1:]) - n
    top = {"inv": pairs, "n2": pairs, "n1": n, "p": n,
           "maj": sum(h[v] for v in range(1, n + 1) if forest.parent[v]),
           "maj-b": sum(h[1:])}
    return coef, low * n, sum(c * top[t] for t, c in coef.items())


def _free_runs(used: list[int], live: int):
    """(first value, length) of each run of values in 1..live between
    consecutive used values."""
    prev = 0
    for a in used + [live + 1]:
        if a > prev + 1:
            yield prev + 1, a - prev - 1
        prev = a


def term_distribution(forest: Forest, stat_terms, mode: str = "signed",
                      aux_terms=None) -> BiPoly:
    """Sum of t^aux q^stat over the labelings of the given mode, where
    stat and aux are maps from TERMS to integer coefficients."""
    n = forest.n
    k = labeling_count(n, mode).bit_length() + 1
    stat, stat_off, stat_top = _coefficients(forest, stat_terms)
    aux, aux_off, _ = _coefficients(forest, aux_terms or {})
    width = stat_top + 1
    w = {t: k * (width * aux[t] + stat[t]) for t in TERMS}
    w_inv, w_n2, w_pos, w_neg = w["inv"], w["n2"], w["p"], w["n1"]
    count_below = bool(w_inv or w_n2)
    exact = bool(w["maj"] or w["maj-b"])
    signs = 1 if mode == "ordinary" else 2
    parity = 1 if mode == "even-signed" else 0

    frontier = {((), 0): 1}
    for i, (root, hook, push, merge, keep) in enumerate(_steps(forest)):
        w_des = hook * (w["maj-b"] if root else w["maj"] + w["maj-b"])
        nxt: dict[tuple[tuple[int, ...], int], int] = {}
        get = nxt.get
        while frontier:
            (chain, par), hist = frontier.popitem()
            live = len(chain) + n - i
            used = sorted(map(abs, chain))
            above = 0 if root else chain[-1]
            ranks = sorted(chain) if count_below else ()
            if push:
                stem, run = chain, ()
                if merge is not None:
                    stem, run = chain[:merge], chain[merge:]
                    if exact:
                        stem, run = stem + tuple(sorted(run)), ()
                # every free value gives its own next chain
                moves = [(y, hist, None) for y in range(1, live + 1) if y not in used]
            else:
                # the leaf's label and the cut labels leave the live set;
                # the free values between two used ones give the same
                # terms and the same relabeled chain
                head = chain[:keep]
                gone = sorted(map(abs, chain[keep:]))
                moves = []
                for y, count in _free_runs(used, live):
                    removed = [y] + gone
                    moves.append((y, hist * count, tuple(
                        a - sum(r < a for r in removed) if a > 0
                        else a + sum(r < -a for r in removed)
                        for a in head)))
            for y, part, after in moves:
                for x in (y, -y)[:signs]:
                    if x > 0:
                        shift, key_par = w_pos, par
                    else:
                        shift, key_par = w_neg, par ^ parity
                    if count_below:
                        shift += w_inv * bisect_left(ranks, x) + w_n2 * bisect_left(ranks, -x)
                    if x > above:
                        shift += w_des
                    if not push:
                        key = (after, key_par)
                    elif run:
                        key = (stem + tuple(sorted(run + (x,))), key_par)
                    else:
                        key = (stem + (x,), key_par)
                    nxt[key] = get(key, 0) + (part << shift)
        frontier = nxt

    total = frontier.get(((), 0), 0)
    slot = (1 << k) - 1
    out: dict[tuple[int, int], int] = {}
    index = 0
    while total:
        c = total & slot
        if c:
            a, s = divmod(index, width)
            out[(a + aux_off, s + stat_off)] = c
        total >>= k
        index += 1
    return BiPoly(out)
