"""Finite level-structured trees with ordinal node labels.

A tree is a finite set of ordinals containing the root 0; every non-root
node has height >= 1 (so its label is >= w).  Only the link to the ancestor
at the previous occupied level is stored; the full strict order is derived
from those links.  Construction operations return new trees.  The builders
(``_simple_extend``, ``_normalize``, ``_fan_out``) do not check their
output: the forcing operations call them and check the condition they build
once, at their own boundary.
A tree's shape has one home, its rank index: one sort of the labels and one
walk along the links, which also decides whether the tree is layered and
normal.  Readers that need the nodes or a level in order take them from the
index.  Each builder collects its nodes and links and makes its tree once,
listing the input's nodes in order and then its fresh ones, so the new
index sorts a list that is nearly in order.
Every construction that adds nodes labels them through one allocator,
``_FreshLabels``, built once per construction, and no fan-out grows a
tree beyond ``MAX_TREE_NODES``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .ordinals import ZERO, Ordinal, height_split, is_limit, node_at


# the most nodes a fan-out may grow a tree to: its count comes from the request,
# and a cone's fan widths multiply through every level, so either can explode
MAX_TREE_NODES = 10_000


class MalformedTreeError(ValueError):
    """A tree that order queries refuse: its parent links cycle, break off or
    pass a label outside the node set before the root, or the tree is not
    layered; the text is the link fault or the first line of ``validate_tree``."""


class _TreeIndex:
    """Structure derived once from a tree's nodes and parent links, on ranks.

    Each node is numbered by its rank in ``sorted(t.nodes)``: ``labels`` maps
    rank to label and ``rank`` label to rank, so rank order is ordinal order.
    A label w*h + k sits on level h, so each level is a run of consecutive
    ranks: level number k (0 is the root level, k > 0 the height
    ``heights[k - 1]``) holds the ranks ``starts[k]`` to ``starts[k + 1] - 1``.
    Per rank, ``lev`` holds the level number and ``par`` the parent's rank
    (-1 without a link to a node).  The order part numbers a depth-first walk
    down from the root: ``pre`` and ``last`` bound a rank's subtree as a
    preorder interval (``pre`` is -1 off the walk), so ancestor tests are O(1)
    and a node's successors on one level are a bisected slice of that level.
    Only nodes are ranked: a link from a label outside the node set, or the
    root's own link, is left out, and a link into one leaves its child off
    the walk (a tree without the root walks from the nodes linked to 0).
    Building it is the only walk along parent links, and that walk decides
    the tree's shape: a node off the walk leaves ``fault`` set to why its
    links never reach the root; ``layered`` holds when there is no fault and
    every non-root rank links to a rank one level down, as order queries
    need; ``normal`` holds when every rank below the top level has a child,
    which on a layered tree is normality.
    """

    __slots__ = ("labels", "rank", "n", "root", "heights", "level_no", "starts", "lev", "par",
                 "pre", "last", "order", "fault", "layered", "normal", "_sets", "_by_pre")

    def __init__(self, t: "StandardTree"):
        # label order is (height, offset) order, so the levels are runs of one
        # sort; nodes given as a sequence in order sort in one linear pass
        labels = sorted(t.nodes if t._seq is None else t._seq)
        n = len(labels)
        hs, starts, lev = [ZERO], [0], []
        for r, x in enumerate(labels):
            if x.height != hs[-1]:
                hs.append(x.height)
                starts.append(r)
            lev.append(len(hs) - 1)
        starts.append(n)
        rank = dict(zip(labels, range(n)))
        root, get = rank.get(ZERO, -1), rank.get
        par, kids, tops = [-1] * n, [[] for _ in labels], [root] if root >= 0 else []
        stepped = 0  # non-root ranks linked to a rank one level down
        for c, p in t.parent.items():
            rc, rp = get(c, root), get(p)
            if rc == root:  # the root's own link, or one from outside the node set
                continue
            if rp is not None:
                par[rc] = rp
                kids[rp].append(rc)
                stepped += lev[rp] == lev[rc] - 1
            elif p == ZERO:
                tops.append(rc)
        order, stack, pre, last = [], tops, [-1] * n, [-1] * n
        while stack:
            r = stack.pop()
            pre[r] = len(order)
            order.append(r)
            stack.extend(kids[r])
        for r in reversed(order):  # a subtree ends in that of the child walked last
            last[r] = last[kids[r][0]] if kids[r] else pre[r]
        self.labels, self.rank, self.n, self.root = labels, rank, n, root
        self.heights, self.level_no = tuple(hs[1:]), dict(zip(hs, range(len(hs))))
        self.starts, self.lev, self.par = starts, lev, par
        self.pre, self.last, self.order = pre, last, order
        self.fault = _link_fault(t, labels[pre.index(-1)]) if len(order) < n else None
        self.layered = self.fault is None and stepped == n - (root >= 0)
        self.normal = all(kids[: starts[-2]])
        self._sets, self._by_pre = [None] * len(hs), None

    def ancestors(self, r: int) -> Iterator[int]:
        """The proper ancestors of rank r along the links, down to the root."""
        while r != self.root:
            r = self.par[r]
            yield r

    def drop(self, x: int, k: int) -> int:
        """The ancestor of rank x on level k at most its own: on a layered
        tree, lev[x] - k parent steps."""
        par = self.par
        for _ in range(self.lev[x] - k):
            x = par[x]
        return x

    def level(self, h: Ordinal) -> frozenset[Ordinal]:
        k = self.level_no.get(h)
        if k is not None and self._sets[k] is None:  # built on first use
            self._sets[k] = frozenset(self.labels[self.starts[k] : self.starts[k + 1]])
        return frozenset() if k is None else self._sets[k]

    def successors_on(self, r: int, k: int) -> list[int]:
        """The ranks of level k inside rank r's preorder interval; the nodes of
        each level in walk order, with their preorder numbers, are built once."""
        if self._by_pre is None:
            self._by_pre = [([], []) for _ in self._sets]
            for i, s in enumerate(self.order):
                keys, members = self._by_pre[self.lev[s]]
                keys.append(i)
                members.append(s)
        keys, members = self._by_pre[k]
        return members[bisect_right(keys, self.pre[r]) : bisect_right(keys, self.last[r])]


def _link_fault(t: "StandardTree", x: Ordinal) -> str:
    """Why the parent links from x never reach the root through the node set."""
    seen = set()
    cur = x
    while cur not in seen:
        seen.add(cur)
        if cur not in t.parent:
            return f"node {cur} has no parent link"
        if cur not in t.nodes:
            return f"node {cur} is not in the tree"
        cur = t.parent[cur]
    return f"parent links cycle at {cur}"


@dataclass(frozen=True)
class StandardTree:
    """A tree by its node set and parent links; both are read-only.

    ``nodes`` and ``parent`` are private frozen copies of the arguments, so
    derived structure, built once on first use, stays true for the tree.
    Nodes given as a list or tuple without repeats are also kept in that
    order, for the index to sort: a builder that lists an indexed tree's
    nodes in order, then its fresh ones, costs the sort a linear pass.
    Equality ignores that order.
    """

    nodes: frozenset[Ordinal]
    parent: Mapping[Ordinal, Ordinal]
    _seq: tuple[Ordinal, ...] | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        nodes = frozenset(self.nodes)
        if isinstance(self.nodes, (list, tuple)) and len(self.nodes) == len(nodes):
            object.__setattr__(self, "_seq", tuple(self.nodes))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parent", MappingProxyType(dict(self.parent)))

    @staticmethod
    def root_only() -> "StandardTree":
        return StandardTree(frozenset({ZERO}), {})

    @cached_property
    def _index(self) -> _TreeIndex:
        return _TreeIndex(self)

    def _order(self) -> _TreeIndex:
        """The index of a layered tree, which every order query needs; any other
        tree is refused by its link fault or its first validation line."""
        index = self._index
        if not index.layered:
            raise MalformedTreeError(index.fault or validate_tree(self)[0])
        return index

    # -- level structure -------------------------------------------------

    def heights(self) -> tuple[Ordinal, ...]:
        """Occupied nonzero heights, ascending."""
        return self._index.heights

    def max_height(self) -> Ordinal:
        hs = self._index.heights
        return hs[-1] if hs else ZERO

    def level(self, h: Ordinal) -> frozenset[Ordinal]:
        return self._index.level(h)

    def sorted_nodes(self) -> list[Ordinal]:
        """The nodes in ascending order, as a new list."""
        return self._index.labels[:]

    def sorted_level(self, h: Ordinal) -> list[Ordinal]:
        """The nodes of level h in ascending order; [] when h is not occupied."""
        index = self._index
        k = index.level_no.get(h)
        return [] if k is None else index.labels[index.starts[k] : index.starts[k + 1]]

    def level_sizes(self) -> list[int]:
        """The node count of each occupied nonzero height, ascending."""
        starts = self._index.starts
        return [b - a for a, b in zip(starts[1:], starts[2:])]

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
        index = self._order()
        r = index.rank.get(x)
        if r is None:
            raise MalformedTreeError(f"node {x} is not in the tree")
        return [x, *(index.labels[a] for a in index.ancestors(r))]

    def is_below(self, x: Ordinal, y: Ordinal) -> bool:
        """x strictly below y."""
        index = self._order()
        if not x.height < y.height:
            return False
        ry = index.rank.get(y)
        if ry is None:
            raise MalformedTreeError(f"node {y} is not in the tree")
        rx = index.rank.get(x)
        return rx is not None and index.pre[rx] < index.pre[ry] <= index.last[rx]

    def is_below_eq(self, x: Ordinal, y: Ordinal) -> bool:
        return x == y or self.is_below(x, y)

    def order_pairs(self) -> frozenset[tuple[Ordinal, Ordinal]]:
        """All pairs (x, y) with x strictly below y."""
        index = self._order()
        return frozenset(
            (index.labels[a], y) for y in self.nodes for a in index.ancestors(index.rank[y])
        )

    def restrict(self, x: Ordinal, b: Ordinal) -> Ordinal:
        """Drop-down: the unique ancestor of x at occupied level b <= ht(x)."""
        index = self._index
        r, k = index.rank.get(x), index.level_no.get(b)
        if r is None:
            raise ValueError(f"node {x} not in tree")
        if k is None:
            raise ValueError(f"level {b} is not occupied")
        if x.height < b:
            raise ValueError(f"level {b} is above node {x}")
        return index.labels[self._order().drop(r, k)]

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
        r = index.rank.get(x)
        if r is None:
            return frozenset()
        labels = index.labels
        return frozenset(labels[s] for s in index.order[index.pre[r] + 1 : index.last[r] + 1])

    def successors_at(self, x: Ordinal, h: Ordinal) -> frozenset[Ordinal]:
        """The successors of x on level h."""
        index = self._order()
        r, k = index.rank.get(x), index.level_no.get(h)
        if r is None or not x.height < h or k is None:
            return frozenset()
        return frozenset(index.labels[s] for s in index.successors_on(r, k))

    def immediate_successors(self, x: Ordinal) -> frozenset[Ordinal]:
        nxt = self.level_above(x.height)
        if nxt is None:
            self._order()  # nothing above, yet a malformed tree is still refused
            return frozenset()
        return self.successors_at(x, nxt)


def validate_tree(t: StandardTree) -> list[str]:
    """Check the defining clauses on the derived order; [] means ok.

    The first three imply the fourth, an ancestor at every occupied lower
    level: links stay in the tree (2), step down one level at a time (3) and
    end at the root, the only node of height 0 (1).  A layered tree with the
    root and one link per other node passes them all; the lines are written
    only when a clause fails."""
    index = t._index
    if index.layered and len(t.parent) == index.n - 1:
        return []
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

    Both trees must be layered, as order queries need.  Then it is enough
    that each link c -> x of t has x below c in u: the order is the
    transitive closure of the links.  The containment is then an equality
    on t's nodes, so every extension is an end-extension: if x and y are in
    t and x is below y in u, y has a t-ancestor x' on x's level, since t is
    layered; x' is also a u-ancestor of y on that level, so x' = x.

    Linear in t, on ranks: each of t's ranks is looked up in u once, and
    each link reads u's preorder intervals.
    """
    if t is u:
        t._order()  # a malformed tree still raises
        return True
    if not t.nodes <= u.nodes:
        return False
    it, iu = t._order(), u._order()
    ranks = list(map(iu.rank.__getitem__, it.labels))
    par, pre, last = it.par, iu.pre, iu.last
    return all(
        pre[ranks[par[c]]] < pre[ranks[c]] <= last[ranks[par[c]]]
        for c in range(it.n)
        if c != it.root
    )


def _adds_simply(t: StandardTree, u: StandardTree) -> bool:
    """The clauses of a simple extension beyond the extension itself: u adds
    nodes only on new levels, and each new level below t's top has unique
    drop-downs from the next level up.

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
    in the tree it was built from and not taken before.  Each height has one
    state entry, made at its first take: the offsets that level of the tree
    holds, and the next offset to try.  So a take is one dict lookup and
    O(1) amortised probing, and its label comes from ``node_at``, which keeps
    w*height on the height."""

    __slots__ = ("_tree", "_state")

    def __init__(self, t: StandardTree):
        self._tree, self._state = t, {}

    def take(self, height: Ordinal) -> Ordinal:
        state = self._state.get(height)
        if state is None:
            taken = {height_split(x)[1] for x in self._tree.level(height)}
            state = self._state[height] = [taken, 0]
        taken, k = state
        while k in taken:
            k += 1
        state[1] = k + 1
        return node_at(height, k)


def _simple_extend(t: StandardTree, B: frozenset[Ordinal]) -> StandardTree:
    """A simple extension with occupied heights exactly B (B must cover ht[t]).

    New levels are inserted one at a time.  A level above the current top
    grows a chain over a top node; an intermediate level gets one fresh node
    per node of the next existing level, injectively, so drop-downs stay unique.
    """
    if ZERO in B:
        raise ValueError("0 cannot be an occupied height")
    missing = set(t.heights()) - B
    if missing:
        raise ValueError(f"height set drops occupied levels: {_names(missing)}")
    nodes, parent = t.sorted_nodes(), t.parent.copy()
    labels = _FreshLabels(t)
    top = t.sorted_level(t.max_height())[0] if t.heights() else ZERO
    # in ascending order, the nodes above a level a still link to the level below a
    for a in sorted(B - set(t.heights())):
        if a > t.max_height():
            z = labels.take(a)
            nodes.append(z)
            parent[z], top = top, z
            continue
        t._order()  # a tree that is not layered is refused here
        for x in t.sorted_level(t.level_above(a)):
            z = labels.take(a)
            nodes.append(z)
            parent[z], parent[x] = parent[x], z
    return StandardTree(nodes, parent)


def is_normal(t: StandardTree) -> bool:
    """Every node has successors at every higher occupied level.

    Every node below the top having an immediate successor is enough: the
    successors of a successor lie inside the node's own DFS interval, so they
    are the node's successors too, and induction reaches every higher level.
    On a layered tree the immediate successors are the children, so the
    index's walk has decided it.  A tree that is not layered is refused, as
    every order query refuses it."""
    return t._order().normal


def is_hausdorff(t: StandardTree) -> bool:
    """Limit levels are determined by drop-downs to the previous occupied level."""
    for d in t.heights():
        if not is_limit(d):
            continue
        if not unique_dropdowns(t, t.level(d), t.level_below(d)):
            return False
    return True


def _normalize(t: StandardTree) -> StandardTree:
    """A normal extension on the same heights; t itself when already normal.

    On a layered tree the index's one walk has decided normality, so a normal
    one comes back at once.  Every other tree takes the level pass: each node
    below the top without a child on the next occupied level gets a fresh one."""
    index = t._index
    if index.layered and index.normal:
        return t
    levels = [ZERO, *t.heights()]
    members = {h: set(t.level(h)) for h in levels}
    parent = t.parent.copy()
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
    return StandardTree(t.sorted_nodes() + added, parent)


def _fan_out(t: StandardTree, X: frozenset[Ordinal], n: int) -> StandardTree:
    """Give every node of X, on one occupied level below the top, exactly n
    immediate successors, new nodes only there; t itself when X is empty.
    No member may already have more than n immediate successors."""
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
    nodes = t.sorted_nodes()
    parent = t.parent.copy()
    labels = _FreshLabels(t)
    for x, k in have.items():
        for _ in range(n - k):
            z = labels.take(b)
            nodes.append(z)
            parent[z] = x
    return StandardTree(nodes, parent)
