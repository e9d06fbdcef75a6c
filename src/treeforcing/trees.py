"""Finite level-structured trees with ordinal node labels.

A tree is a finite set of ordinals containing the root 0; every non-root
node has height >= 1 (so its label is >= w).  Only the link to the ancestor
at the previous occupied level is stored; the full strict order is derived
from those links.  All construction operations return new trees and check
their own postconditions.  Each builder is split into an unchecked kernel
(``_simple_extend``, ``_normalize``, ``_fan_out``) and the public function,
which runs the kernel and then the full check; the forcing operations call
the kernels and check the condition they build once, at their own boundary.
Each builder collects its nodes and links and makes its tree once.
Every construction that adds nodes labels them through one allocator,
``_FreshLabels``, built once per construction, and no fan-out grows a
tree beyond ``MAX_TREE_NODES``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .ordinals import ZERO, Ordinal, height_split, is_limit, node_at


# the most nodes a fan-out may grow a tree to: its count comes from the request,
# and a cone's fan widths multiply through every level, so either can explode
MAX_TREE_NODES = 10_000


class MalformedTreeError(ValueError):
    """Parent links that cycle or break off before the root; order queries need them whole."""


class _TreeIndex:
    """Structure derived once from a tree's nodes and parent links.

    The level part (node heights, occupied heights, levels) exists for any
    node set.  The order part numbers a depth-first walk down from the root
    (``enter``/``exit``: a node's subtree is the preorder interval between
    them), so ancestor tests are O(1) and a node's successors on one level
    are a bisected slice of that level.  Building it is the only walk along
    parent links; a cycle or a missing link leaves ``fault`` set instead.
    """

    __slots__ = ("heights", "levels", "enter", "exit", "preorder", "by_level", "fault")

    def __init__(self, t: "StandardTree"):
        levels: dict[Ordinal, list[Ordinal]] = {}
        for x in t.nodes:
            levels.setdefault(x.height, []).append(x)
        self.heights = tuple(sorted(h for h in levels if h != ZERO))
        self.levels = {h: frozenset(xs) for h, xs in levels.items()}
        children: dict[Ordinal, list[Ordinal]] = {}
        for c, p in t.parent.items():
            if c != ZERO:  # chains stop at the root, whatever link it carries
                children.setdefault(p, []).append(c)
        preorder: list[Ordinal] = []
        stack = [ZERO]
        while stack:
            x = stack.pop()
            preorder.append(x)
            stack.extend(children.get(x, ()))
        enter = {x: i for i, x in enumerate(preorder)}
        size = dict.fromkeys(preorder, 1)
        for x in reversed(preorder[1:]):
            size[t.parent[x]] += size[x]
        self.preorder = preorder
        self.enter = enter
        self.exit = {x: enter[x] + size[x] - 1 for x in preorder}
        self.fault = None
        lost = [x for x in t.nodes if x not in enter]
        if lost:
            self.fault = _link_fault(t, min(lost))
        self.by_level = {}
        for h, xs in levels.items():
            ranked = sorted((enter[x], x) for x in xs if x in enter)
            self.by_level[h] = ([e for e, _ in ranked], [x for _, x in ranked])


def _link_fault(t: "StandardTree", x: Ordinal) -> str:
    """Why the parent links from x never reach the root."""
    seen = set()
    cur = x
    while cur not in seen:
        seen.add(cur)
        if cur not in t.parent:
            return f"node {cur} has no parent link"
        cur = t.parent[cur]
    return f"parent links cycle at {cur}"


@dataclass(frozen=True)
class StandardTree:
    """A tree by its node set and parent links; both are read-only.

    ``nodes`` and ``parent`` are private frozen copies of the arguments, so
    derived structure, built once on first use, stays true for the tree.
    """

    nodes: frozenset[Ordinal]
    parent: Mapping[Ordinal, Ordinal]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "parent", MappingProxyType(dict(self.parent)))

    @staticmethod
    def make(nodes: Iterable[Ordinal], parent: Mapping[Ordinal, Ordinal]) -> "StandardTree":
        return StandardTree(frozenset(nodes), parent)

    @staticmethod
    def root_only() -> "StandardTree":
        return StandardTree(frozenset({ZERO}), {})

    @cached_property
    def _index(self) -> _TreeIndex:
        return _TreeIndex(self)

    @cached_property
    def _layered(self) -> bool:
        """Links reach the root and every non-root node links to a node on the
        previous occupied level, as on every tree that passes ``validate_tree``."""
        index, parent = self._index, self.parent
        below = dict(zip(index.heights, (ZERO,) + index.heights[:-1]))
        return index.fault is None and all(
            parent[x] in self.nodes and below.get(x.height) == parent[x].height
            for x in self.nodes if x != ZERO
        )

    def _order(self) -> _TreeIndex:
        """The index, once parent links are known to lead every node to the root."""
        index = self._index
        if index.fault is not None:
            raise MalformedTreeError(index.fault)
        return index

    # -- level structure -------------------------------------------------

    def heights(self) -> tuple[Ordinal, ...]:
        """Occupied nonzero heights, ascending."""
        return self._index.heights

    def max_height(self) -> Ordinal:
        hs = self._index.heights
        return hs[-1] if hs else ZERO

    def level(self, h: Ordinal) -> frozenset[Ordinal]:
        return self._index.levels.get(h, frozenset())

    def level_below(self, h: Ordinal) -> Ordinal:
        """Predecessor of h in the occupied heights plus the root level."""
        hs = self._index.heights
        k = bisect_left(hs, h)
        return hs[k - 1] if k else ZERO

    def level_above(self, h: Ordinal) -> Ordinal | None:
        hs = self._index.heights
        k = bisect_right(hs, h)
        return hs[k] if k < len(hs) else None

    # -- derived order ----------------------------------------------------

    def chain_down(self, x: Ordinal) -> list[Ordinal]:
        """x and its ancestors, from x down to the root."""
        if x not in self._order().enter:
            raise MalformedTreeError(f"node {x} is not in the tree")
        out = [x]
        while out[-1] != ZERO:
            out.append(self.parent[out[-1]])
        return out

    def is_below(self, x: Ordinal, y: Ordinal) -> bool:
        """x strictly below y."""
        if not x.height < y.height:
            return False
        index = self._order()
        ey = index.enter.get(y)
        if ey is None:
            raise MalformedTreeError(f"node {y} is not in the tree")
        ex = index.enter.get(x)
        return ex is not None and ex < ey <= index.exit[x]

    def is_below_eq(self, x: Ordinal, y: Ordinal) -> bool:
        return x == y or self.is_below(x, y)

    def order_pairs(self) -> frozenset[tuple[Ordinal, Ordinal]]:
        """All pairs (x, y) with x strictly below y."""
        self._order()
        parent = self.parent
        pairs = set()
        for y in self.nodes:
            x = y
            while x != ZERO:
                x = parent[x]
                pairs.add((x, y))
        return frozenset(pairs)

    def restrict(self, x: Ordinal, b: Ordinal) -> Ordinal:
        """Drop-down: the unique ancestor of x at occupied level b <= ht(x)."""
        if x not in self.nodes:
            raise ValueError(f"node {x} not in tree")
        if b != ZERO and b not in self._index.levels:
            raise ValueError(f"level {b} is not occupied")
        if x.height < b:
            raise ValueError(f"level {b} is above node {x}")
        self._order()
        cur = x
        while cur.height != b:
            if cur == ZERO:
                raise MalformedTreeError(f"node {x} has no ancestor at level {b}")
            cur = self.parent[cur]
        return cur

    def meet(self, x: Ordinal, y: Ordinal) -> Ordinal:
        """The largest common lower bound of x and y (the root exists, so it does)."""
        hx, hy = x.height, y.height
        h = min(hx, hy)
        a, b = self.restrict(x, h), self.restrict(y, h)
        while a != b:
            a, b = self.parent[a], self.parent[b]
        return a

    def successors(self, x: Ordinal) -> frozenset[Ordinal]:
        index = self._order()
        ex = index.enter.get(x)
        if ex is None:
            return frozenset()
        hx = x.height
        return frozenset(
            y
            for y in index.preorder[ex + 1 : index.exit[x] + 1]
            if y in self.nodes and hx < y.height
        )

    def successors_at(self, x: Ordinal, h: Ordinal) -> frozenset[Ordinal]:
        """The successors of x on level h."""
        index = self._order()
        ex = index.enter.get(x)
        if ex is None or not x.height < h or h not in index.by_level:
            return frozenset()
        keys, members = index.by_level[h]
        return frozenset(members[bisect_right(keys, ex) : bisect_right(keys, index.exit[x])])

    def immediate_successors(self, x: Ordinal) -> frozenset[Ordinal]:
        nxt = self.level_above(x.height)
        if nxt is None:
            return frozenset()
        return self.successors_at(x, nxt)


def validate_tree(t: StandardTree) -> list[str]:
    """Check the defining clauses on the derived order; [] means ok.

    The first three imply the fourth, an ancestor at every occupied lower
    level: links stay in the tree (2), step down one level at a time (3) and
    end at the root, the only node of height 0 (1)."""
    out = []
    if ZERO not in t.nodes:
        out.append("clause 1: the root 0 is missing")
    for x in sorted(x for x in t.nodes if x != ZERO and x.height == ZERO):
        out.append(f"clause 1: node {x} is nonzero with height 0")
    roots = t.nodes - set(t.parent)
    if roots - {ZERO}:
        out.append(f"clause 2: non-root nodes without a parent link: {_names(roots - {ZERO})}")
    for x, p in sorted(
        (x, p) for x, p in t.parent.items() if x == ZERO or x not in t.nodes or p not in t.nodes
    ):
        if x not in t.nodes or p not in t.nodes:
            out.append(f"clause 2: link {x} -> {p} leaves the node set")
        else:
            out.append("clause 2: the root has a parent link")
    if out:
        return out
    bad = []
    for x, p in t.parent.items():
        hx, hp = x.height, p.height
        if not hp < hx:
            bad.append((x, f"clause 3: parent {p} of {x} is not lower"))
            continue
        expected = t.level_below(hx)
        if hp != expected:
            bad.append(
                (x, f"clause 3: parent of {x} sits at {hp}, expected the previous level {expected}")
            )
    return [line for _, line in sorted(bad, key=lambda item: item[0])]


def _names(items: Iterable) -> str:
    return ", ".join(str(i) for i in sorted(items))


def _level_of(X: Iterable[Ordinal]) -> Ordinal | None:
    """The one height the nodes of X sit on; None when X is empty."""
    levels = {x.height for x in X}
    if len(levels) > 1:
        raise ValueError("node set spans several levels")
    return next(iter(levels), None)


def unique_dropdowns(t: StandardTree, X: Iterable[Ordinal], b: Ordinal) -> bool:
    """True iff the drop-down map to level b is injective on X (one-level X)."""
    X = frozenset(X)
    _level_of(X)
    drops = {t.restrict(x, b) for x in X}
    return len(drops) == len(X)


def is_extension(t: StandardTree, u: StandardTree) -> bool:
    """t's nodes and order are contained in u's.

    When the containment holds, the order of u restricted to t must equal
    the order of t (extensions are automatically end-extensions); a failure
    of that equality means an input was not a valid tree.

    Linear in the two trees: the order containment reads u's DFS intervals
    and the end-extension compares ancestor counts.  Neither relies on the
    heights along the links, so trees that fail validation get the answer
    of the pairwise comparison of ``order_pairs``.
    """
    if not t.nodes <= u.nodes:
        return False
    it, iu = t._order(), u._order()
    nodes, enter, exit_ = t.nodes, iu.enter, iu.exit
    # every t-ancestor x of a node y of t must be a u-ancestor of y: the
    # nodes of t under each link c -> x span the u-preorder keys lo..hi,
    # and x's u-interval must hold them all
    span: dict[Ordinal, tuple[int, int]] = {}
    empty = (len(iu.preorder), -1)
    for c in reversed(it.preorder[1:]):
        lo, hi = span.get(c, empty)
        if c in nodes:
            lo, hi = min(lo, enter[c]), max(hi, enter[c])
        if hi < 0:
            continue
        x = t.parent[c]
        if x not in enter or not enter[x] < lo or exit_[x] < hi:
            return False
        xlo, xhi = span.get(x, empty)
        span[x] = min(xlo, lo), max(xhi, hi)
    # end-extension: y's t-ancestors all lie in t and are exactly its
    # u-ancestors inside t, which, given the containment, is a count
    depth = {ZERO: 0}
    for c in it.preorder[1:]:
        x = t.parent[c]
        depth[c] = depth[x] + 1 if x in nodes and depth[x] >= 0 else -1
    inside = {ZERO: 0}
    for c in iu.preorder[1:]:
        x = u.parent[c]
        inside[c] = inside[x] + (x in nodes)
    if any(depth[y] != inside[y] for y in nodes):
        raise MalformedTreeError("extension is not an end-extension; inputs are not standard trees")
    return True


def is_simple_extension(t: StandardTree, u: StandardTree) -> bool:
    """Extension adding nodes only on new levels, with unique drop-downs onto them."""
    return is_extension(t, u) and _adds_simply(t, u)


def _adds_simply(t: StandardTree, u: StandardTree) -> bool:
    """The clauses of ``is_simple_extension`` beyond the extension itself.

    u must already be known to be a valid tree extending t.
    """
    new_levels = set(u.heights()) - set(t.heights())
    for x in u.nodes - t.nodes:
        if x.height not in new_levels:
            return False
    t_max = t.max_height()
    for a in sorted(new_levels):
        if not a < t_max:
            continue
        beta = t.level_above(a)
        if not unique_dropdowns(u, u.level(beta), a):
            return False
    return True


class _FreshLabels:
    """The fresh-node allocator: each take is the least label on its height not
    in the tree it was built from and not taken before.  The first take of a
    height reads only that level of the tree into taken offsets, and each
    height keeps its next free offset, so a take costs O(1) amortised."""

    __slots__ = ("_tree", "_taken", "_next")

    def __init__(self, t: StandardTree):
        self._tree, self._taken, self._next = t, {}, {}

    def take(self, height: Ordinal) -> Ordinal:
        taken = self._taken.get(height)
        if taken is None:
            taken = self._taken[height] = {height_split(x)[1] for x in self._tree.level(height)}
        k = self._next.get(height, 0)
        while k in taken:
            k += 1
        self._next[height] = k + 1
        return node_at(height, k)


def simple_extend(t: StandardTree, B: Iterable[Ordinal]) -> StandardTree:
    """A simple extension with occupied heights exactly B (B must cover ht[t]).

    New levels are inserted one at a time.  A level above the current top
    grows a chain over a top node; an intermediate level gets one fresh node
    per node of the next existing level, injectively, so drop-downs stay unique.
    """
    B = frozenset(B)
    out = _simple_extend(t, B)
    if validate_tree(out) or not is_simple_extension(t, out) or set(out.heights()) != B:
        raise RuntimeError("simple_extend produced a non-simple extension")
    return out


def _simple_extend(t: StandardTree, B: frozenset[Ordinal]) -> StandardTree:
    """``simple_extend`` without its postcondition check."""
    if ZERO in B:
        raise ValueError("0 cannot be an occupied height")
    missing = set(t.heights()) - B
    if missing:
        raise ValueError(f"height set drops occupied levels: {_names(missing)}")
    nodes, parent = set(t.nodes), dict(t.parent)
    labels = _FreshLabels(t)
    top = min(t.level(t.max_height()) if t.heights() else {ZERO})
    # in ascending order, the nodes above a level a still link to the level below a
    for a in sorted(B - set(t.heights())):
        if a > t.max_height():
            z = labels.take(a)
            nodes.add(z)
            parent[z], top = top, z
            continue
        t._order()  # links that cycle or stop short of the root raise here
        for x in sorted(t.level(t.level_above(a))):
            z = labels.take(a)
            nodes.add(z)
            parent[z], parent[x] = parent[x], z
    return StandardTree(frozenset(nodes), parent)


def is_normal(t: StandardTree) -> bool:
    """Every node has successors at every higher occupied level.

    Every node below the top having an immediate successor is enough: the
    successors of a successor lie inside the node's own DFS interval, so they
    are the node's successors too, and induction reaches every higher level."""
    return all(t.immediate_successors(x) for x in t.nodes if x.height < t.max_height())


def is_hausdorff(t: StandardTree) -> bool:
    """Limit levels are determined by drop-downs to the previous occupied level."""
    for d in t.heights():
        if not is_limit(d):
            continue
        if not unique_dropdowns(t, t.level(d), t.level_below(d)):
            return False
    return True


def normalize(t: StandardTree) -> StandardTree:
    """A normal extension on the same height set, adding immediate successors."""
    out = _normalize(t)
    if out is t:
        return t
    if validate_tree(out) or not is_normal(out) or not is_extension(t, out):
        raise RuntimeError("normalize produced an invalid tree")
    if set(out.heights()) != set(t.heights()):
        raise RuntimeError("normalize changed the height set")
    return out


def _normalize(t: StandardTree) -> StandardTree:
    """``normalize`` without its postcondition check; t itself when already normal."""
    levels = [ZERO, *t.heights()]
    members = {h: set(t.level(h)) for h in levels}
    parent = dict(t.parent)
    labels = _FreshLabels(t)
    added = []
    for lo, hi in zip(levels, levels[1:]):
        fathers = {parent.get(y) for y in members[hi]}
        for x in sorted(members[lo]):
            if x not in fathers:
                z = labels.take(hi)
                members[hi].add(z)
                parent[z] = x
                added.append(z)
    if not added:
        return t
    return StandardTree(t.nodes.union(added), parent)


def fan_out(t: StandardTree, X: Iterable[Ordinal], n: int) -> StandardTree:
    """Give every node of X exactly n immediate successors; new nodes only there.

    X must sit on one occupied level below the top, and no member may already
    have more than n immediate successors.
    """
    X = frozenset(X)
    out = _fan_out(t, X, n)
    if out is t:
        return t
    if validate_tree(out) or not is_extension(t, out):
        raise RuntimeError("fan_out produced an invalid tree")
    if any(len(out.immediate_successors(x)) != n for x in X):
        raise RuntimeError("fan_out missed the successor count")
    if set(out.heights()) != set(t.heights()):
        raise RuntimeError("fan_out changed the height set")
    return out


def _fan_out(t: StandardTree, X: frozenset[Ordinal], n: int) -> StandardTree:
    """``fan_out`` without its postcondition check; t itself when X is empty."""
    if n < 1:
        raise ValueError("successor count must be positive")
    a = _level_of(X)
    if a is None:
        return t
    if not X <= t.level(a):
        raise ValueError("node set leaves its level")
    if not a < t.max_height():
        raise ValueError("fan-out level must lie below the top")
    have = {x: len(t.immediate_successors(x)) for x in sorted(X)}
    over = [x for x, k in have.items() if k > n]
    if over:
        raise ValueError(f"nodes already exceed {n} immediate successors: {_names(over)}")
    size = len(t.nodes) + sum(n - k for k in have.values())
    if size > MAX_TREE_NODES:
        raise ValueError(
            f"fanning out would grow the tree to {size} nodes,"
            f" above the bound of {MAX_TREE_NODES}"
        )
    b = t.level_above(a)
    nodes = set(t.nodes)
    parent = dict(t.parent)
    labels = _FreshLabels(t)
    for x, k in have.items():
        for _ in range(n - k):
            z = labels.take(b)
            nodes.add(z)
            parent[z] = x
    return StandardTree(frozenset(nodes), parent)
