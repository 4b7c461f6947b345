"""Plane rooted forests, signed words and labelings, and linear extensions.

Vertices are indexed 1..n in depth-first preorder (a root before its
subtree, subtrees left to right, trees left to right), so the subtree
of vertex v occupies the contiguous index range [v, v + hook(v) - 1].
As a poset the roots sit at the top: u < v means u lies strictly inside
the subtree of v, so leaves are the minimal elements.

A labeling is represented by its value vector: a tuple whose entry at
position v-1 is the (signed) label of vertex v.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

MODES = ("ordinary", "signed", "even-signed")


class ForestParseError(ValueError):
    """Malformed forest encoding; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Forest:
    """A plane forest on n vertices in preorder indexing.

    ``parent[v]`` is the parent of vertex v, with 0 marking a root;
    index 0 is unused.  In preorder the parent array alone fixes the
    plane forest: each vertex's parent lies on the path from a root down
    to the vertex before it, and the children are derived from it.
    """

    n: int
    parent: tuple[int, ...]

    def __post_init__(self):
        n, parent = self.n, self.parent
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"vertex count {n!r} is not an integer")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(parent) != n + 1:
            raise ValueError("parent array must have length n + 1")
        for v, p in enumerate(parent):
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError(f"parent entry {p!r} in slot {v} is not an integer")
        if parent[0] != 0:
            raise ValueError(f"slot 0 of the parent array is unused and must be 0, "
                             f"got {parent[0]!r}")
        path: list[int] = []  # from a root down to vertex v - 1
        for v in range(1, n + 1):
            while path and path[-1] != parent[v]:
                path.pop()
            if parent[v] != 0 and not path:
                raise ValueError(f"parent {parent[v]!r} of vertex {v} is not on the "
                                 "preorder path: vertices are not in depth-first preorder")
            path.append(v)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """``children[v]`` lists the children of v in planar order, and
        ``children[0]`` lists the roots."""
        kids: list[list[int]] = [[] for _ in range(self.n + 1)]
        for v in range(1, self.n + 1):
            kids[self.parent[v]].append(v)
        return tuple(map(tuple, kids))

    @property
    def roots(self) -> tuple[int, ...]:
        return self.children[0]

    def render(self) -> str:
        """Balanced-paren encoding; inverse of parse_forest."""
        out = []
        path: list[int] = []
        for v in range(1, self.n + 1):
            while path and path[-1] != self.parent[v]:
                path.pop()
                out.append(")")
            out.append("(")
            path.append(v)
        out.append(")" * len(path))
        return "".join(out)

    def __str__(self) -> str:
        return self.render()


def parse_forest(text: str) -> Forest:
    """Parse a balanced-parenthesis forest encoding.

    A tree is "(" followed by the encodings of its children followed by
    ")"; a forest is a concatenation of trees.  The empty string is the
    empty forest.
    """
    parent = [0]
    stack = [0]
    for offset, ch in enumerate(text):
        if ch == "(":
            parent.append(stack[-1])
            stack.append(len(parent) - 1)
        elif ch == ")":
            if len(stack) == 1:
                raise ForestParseError("unmatched ')'", offset)
            stack.pop()
        else:
            raise ForestParseError(f"unexpected character {ch!r}", offset)
    if len(stack) > 1:
        raise ForestParseError("unclosed '('", len(text))
    return Forest(n=len(parent) - 1, parent=tuple(parent))


def forest_from_parents(parents: Sequence[int]) -> Forest:
    """Build a forest from a parent array (0 marks a root).

    Entry i (0-based) is the parent of vertex i+1 in the caller's
    numbering.  Children keep increasing original order and trees are
    ordered by their root's original index; the result is re-indexed to
    the preorder-canonical form.
    """
    n = len(parents)
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for v, p in enumerate(parents, start=1):
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError(f"parent entry {p!r} for vertex {v} is not an integer")
        if not 0 <= p <= n:
            raise ValueError(f"parent entry {p!r} for vertex {v} is out of range")
        if p == v:
            raise ValueError(f"vertex {v} cannot be its own parent")
        kids[p].append(v)
    order = []
    stack = list(reversed(kids[0]))
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    if len(order) != n:
        raise ValueError("parent array contains a cycle")
    new_index = {old: new for new, old in enumerate(order, start=1)}
    new_index[0] = 0
    return Forest(n=n, parent=(0,) + tuple(new_index[parents[old - 1]] for old in order))


def parse_forest_input(text: str) -> Forest:
    """Accept either the paren encoding or a parent array like "[0,1,1,0]"."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad parent array: {exc}") from None
        if not isinstance(data, list) or not all(isinstance(x, int) for x in data):
            raise ValueError("parent array must be a list of integers")
        return forest_from_parents(data)
    return parse_forest(stripped)


def chain_forest(n: int) -> Forest:
    """The linear tree on n vertices (vertex 1 the root, n the deepest leaf)."""
    return parse_forest("(" * n + ")" * n)


@lru_cache(maxsize=None)
def hook_lengths(forest: Forest) -> tuple[int, ...]:
    """Subtree sizes indexed by vertex (index 0 unused and set to 0)."""
    h = [1] * (forest.n + 1)
    # descendants are numbered after v, so h[v] is complete when v is reached
    for v in range(forest.n, 0, -1):
        h[forest.parent[v]] += h[v]
    h[0] = 0
    return tuple(h)


@lru_cache(maxsize=None)
def comparable_pairs(forest: Forest) -> tuple[tuple[int, int], ...]:
    """All (ancestor, descendant) pairs of the forest order."""
    h = hook_lengths(forest)
    return tuple((a, b)
                 for a in range(1, forest.n + 1)
                 for b in range(a + 1, a + h[a]))


def _balanced_strings(n: int) -> Iterator[str]:
    # '(' < ')' in ASCII, so trying '(' first yields lexicographic order
    buf: list[str] = []

    def rec(opens_left: int, unclosed: int) -> Iterator[str]:
        if not opens_left and not unclosed:
            yield "".join(buf)
            return
        if opens_left:
            buf.append("(")
            yield from rec(opens_left - 1, unclosed + 1)
            buf.pop()
        if unclosed:
            buf.append(")")
            yield from rec(opens_left, unclosed - 1)
            buf.pop()

    yield from rec(n, 0)


def enumerate_forests(n: int) -> Iterator[Forest]:
    """Every plane forest on n vertices once, by lexicographic paren string."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    for s in _balanced_strings(n):
        yield parse_forest(s)


def canonical_form(paren: str) -> str:
    """Paren encoding, as an unordered forest, of the plane forest ``paren``.

    Each vertex encodes as "(" + its children's encodings, sorted, + ")",
    and the forest as its root encodings, sorted; two plane forests get
    the same string iff they differ only in the order of siblings.
    """
    # the encodings of each open vertex's children so far; 0 holds the roots
    stack: list[list[str]] = [[]]
    for ch in paren:
        if ch == "(":
            stack.append([])
        elif ch == ")" and len(stack) > 1:
            kids = stack.pop()
            kids.sort()
            stack[-1].append("(" + "".join(kids) + ")")
        else:
            parse_forest(paren)  # raises the error at its offset
    if len(stack) > 1:
        parse_forest(paren)
    stack[0].sort()
    return "".join(stack[0])


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown sign mode {mode!r}; expected one of {MODES}")


# enumerate_words lists the words on every set of at most this many values
_TAIL = 3


def enumerate_words(n: int, mode: str = "signed") -> Iterator[tuple[int, ...]]:
    """Words on the absolute values 1..n in lexicographic order.

    The ordinary mode gives the n! permutations, the signed mode the
    2^n n! signed permutations, and the even-signed mode the 2^(n-1) n!
    signed permutations with an even number of negative entries (n >= 1).
    """
    _check_mode(mode)
    if n < 0:
        raise ValueError("size must be nonnegative")
    if mode == "ordinary":
        yield from itertools.permutations(range(1, n + 1))
        return
    even = mode == "even-signed"
    # odd: the parity that the number of negatives among the letters still
    # to come must have in the even-signed mode; None in the signed mode
    parities = (0, 1) if even else (None,)
    # tails[odd][rest]: the words on the values rest in lexicographic order.
    # At each position the values run -max(rest) < ... < -min(rest) <
    # min(rest) < ... < max(rest), so the words on k values are each first
    # letter in that order followed by the words on the k - 1 values left
    tails = {odd: {(): [] if odd else [()]} for odd in parities}
    for v in range(1, n + 1):
        if even:
            tails[0][v,], tails[1][v,] = [(v,)], [(-v,)]
        else:
            tails[None][v,] = [(-v,), (v,)]
    for k in range(2, min(n, _TAIL) + 1):
        for rest in itertools.combinations(range(1, n + 1), k):
            drops = [rest[:i] + rest[i + 1:] for i in range(k)]
            for odd in parities:
                after_negative, after_positive = tails[odd ^ 1 if even else None], tails[odd]
                words: list[tuple[int, ...]] = []
                for i in reversed(range(k)):
                    words += map((-rest[i],).__add__, after_negative[drops[i]])
                for i in range(k):
                    words += map((rest[i],).__add__, after_positive[drops[i]])
                tails[odd][rest] = words
    if n <= _TAIL:
        yield from tails[parities[0]][tuple(range(1, n + 1))]
        return

    def blocks(prefix, rest, odd):
        # the words that start with prefix, as C-level maps over the tails
        if len(rest) == _TAIL:
            yield map(prefix.__add__, tails[odd][rest])
            return
        flip = odd ^ 1 if even else None
        for i in reversed(range(len(rest))):
            yield from blocks(prefix + (-rest[i],), rest[:i] + rest[i + 1:], flip)
        for i in range(len(rest)):
            yield from blocks(prefix + (rest[i],), rest[:i] + rest[i + 1:], odd)

    yield from itertools.chain.from_iterable(blocks((), tuple(range(1, n + 1)), parities[0]))


def enumerate_labelings(forest: Forest, mode: str = "signed") -> Iterator[tuple[int, ...]]:
    """Label vectors of the forest in lexicographic order: the words of
    ``enumerate_words`` on forest.n, entry v-1 the label of vertex v."""
    yield from enumerate_words(forest.n, mode)


def labeling_orbits(forest: Forest) -> Iterator[tuple[tuple[int, ...], int]]:
    """One (w, weight) per orbit of the signed labelings under keeping the
    sign-order pattern (each label's rank among the n, and the number k of
    negatives: C(n, k) labelings) and automorphisms of the unordered forest.
    These act freely on rank vectors, whose ranks are distinct, so every orbit
    weighs |Aut(F)| * C(n, k).  Swaps of same-shape siblings generate them and
    first change the earlier sibling's rank, so an orbit's one vector ranking
    every such pair in plane order is its lexicographically first; k by k, w
    labels these in lexicographic order, ranks 1..k as -n..-(n-k+1), the rest
    as 1..n-k.  Orbits keep what compares labels only with each other and
    with 0, ignoring sibling order; not n2 (a + b < 0 compares absolute
    values across signs), so they miscount n2 and what contains it: inv-b,
    inv-d, nmaj and dmaj on forests, and the word statistics n2, len-b,
    len-d, nmaj and dmaj on the chain's labelings, the signed words."""
    n, kids = forest.n, forest.children
    shape: list[tuple] = [()] * (n + 1)
    twins, automorphisms = [], 1  # twins: positions of neighbouring same-shape siblings
    # children are numbered after their parent, so they are shaped first
    for v in range(n, -1, -1):
        shape[v] = tuple(sorted(shape[c] for c in kids[v]))
        for i, c in enumerate(kids[v]):
            same = [b - 1 for b in kids[v][:i] if shape[b] == shape[c]]
            automorphisms *= len(same) + 1  # a shape's j-th sibling adds a factor j
            twins += [(b, c - 1) for b in same[-1:]]

    def in_plane_order(ranks):
        for b, c in twins:
            if ranks[b] > ranks[c]:
                return False
        return True

    for k in range(n + 1):
        # rank r labels r - n - 1 up to k and r - k above
        label = [0, *range(-n, k - n), *range(1, n - k + 1)].__getitem__
        ranks = itertools.permutations(range(1, n + 1))
        if twins:
            ranks = filter(in_plane_order, ranks)
        yield from zip(map(tuple, map(map, itertools.repeat(label), ranks)),
                       itertools.repeat(automorphisms * math.comb(n, k)))


def labeling_count(n: int, mode: str) -> int:
    """Closed count of the labeling stream for a forest of size n."""
    _check_mode(mode)
    if mode == "ordinary":
        return math.factorial(n)
    if mode == "signed":
        return 2 ** n * math.factorial(n)
    return 2 ** (n - 1) * math.factorial(n) if n else 1


def validate_labeling(forest: Forest, values: Sequence[int]) -> tuple[int, ...]:
    """Check that values is a signed labeling of the forest; returns it as a tuple."""
    values = tuple(values)
    n = forest.n
    if len(values) != n:
        raise ValueError(f"labeling has {len(values)} values but the forest has {n} vertices")
    if any(isinstance(v, bool) or not isinstance(v, int) or v == 0 for v in values):
        raise ValueError("labels must be nonzero integers")
    if sorted(abs(v) for v in values) != list(range(1, n + 1)):
        raise ValueError("absolute labels must be exactly 1..n with no repeats")
    return values


def parse_labeling(text: str) -> tuple[int, ...]:
    """Parse a comma-separated label vector such as "-1,2"."""
    stripped = text.strip()
    if not stripped:
        return ()
    try:
        return tuple(int(part) for part in stripped.split(","))
    except ValueError:
        raise ValueError(f"bad labeling {text!r}: expected comma-separated integers") from None


def linear_extensions(forest: Forest, values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Label words of all linear extensions, in lexicographic word order.

    A vertex may appear only after its entire subtree, so the words read
    the labels from the leaves upward; for a chain there is exactly one
    word, the labels bottom-up.
    """
    n = forest.n
    values = tuple(values)
    pending = [len(forest.children[v]) for v in range(n + 1)]
    avail = [v for v in range(1, n + 1) if pending[v] == 0]
    word: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == n:
            yield tuple(word)
            return
        for v in sorted(avail, key=lambda u: values[u - 1]):
            avail.remove(v)
            p = forest.parent[v]
            pending[p] -= 1
            parent_ready = p != 0 and pending[p] == 0
            if parent_ready:
                avail.append(p)
            word.append(values[v - 1])
            yield from rec()
            word.pop()
            if parent_ready:
                avail.remove(p)
            pending[p] += 1
            avail.append(v)

    yield from rec()
