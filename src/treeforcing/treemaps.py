"""Partial node maps on a tree and the standard-map predicate.

A TreeMap is an immutable set of (source, target) pairs with no source
repeated; it keeps one preimage per target, or None where several sources
share the target.  The host tree is supplied per operation.
``classify_map`` also accepts raw pair sets that are not functions, so the
characterisations of strict increase can be exercised on arbitrary relations.
It ranks the pairs with ``_rank_pairs`` and checks the clauses with
``_map_flags``; validation calls the same two on each map of a condition and
builds ``MapFlags`` only for a map that fails.
Downward closures (``_downward_close``, ``tensor_downward_closure``) close
on ranks too: ``_restrictions`` steps a same-level pair to the pair of its
parents until it meets the root or a pair it already closed, so each output
pair costs two parent reads, and it hands the pairs back in ascending order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq
from typing import Collection, Iterable, Iterator, Sequence

from .ordinals import Ordinal
from .trees import MalformedTreeError, StandardTree, _TreeIndex

Pair = tuple[Ordinal, Ordinal]


class TreeMap:
    """An immutable partial injection candidate: sorted (source, target) pairs."""

    __slots__ = ("pairs", "_fwd", "_rev")

    def __init__(self, pairs: Iterable[Pair] = ()):
        pairs = tuple(pairs)
        fwd = dict(pairs)
        if len(fwd) == len(pairs):  # distinct sources; pairs that come sorted sort in one pass
            items = sorted(fwd.items())
        else:  # a repeated pair, or a repeated source
            items = sorted(dict.fromkeys(pairs))
            if len(fwd) != len(items):  # sorted, so a repeated source's pairs are adjacent
                x = next(x for (x, _), (x2, _) in zip(items, items[1:]) if x == x2)
                raise ValueError(f"source {x} mapped twice")
        rev: dict[Ordinal, Ordinal | None] = {y: x for x, y in items}
        if len(rev) != len(items):  # a target that several sources share has no preimage
            seen: set[Ordinal] = set()
            for y in fwd.values():
                if y in seen:
                    rev[y] = None
                seen.add(y)
        object.__setattr__(self, "pairs", tuple(items))
        object.__setattr__(self, "_fwd", fwd)
        object.__setattr__(self, "_rev", rev)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TreeMap is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"TreeMap is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return TreeMap, (self.pairs,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TreeMap) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{x}->{y}" for x, y in self.pairs)
        return f"TreeMap({inner})"

    def get(self, x: Ordinal) -> Ordinal | None:
        return self._fwd.get(x)

    def get_inverse(self, y: Ordinal) -> Ordinal | None:
        """The unique preimage of y, or None; ambiguous only on non-injective data."""
        return self._rev.get(y)

    def inverse_pairs(self) -> Iterator[Pair]:
        """(y, x) for every image point y with the unique preimage x."""
        return ((y, x) for y, x in self._rev.items() if x is not None)

    def apply_signed(self, m: int, x: Ordinal) -> Ordinal | None:
        """f(x) for m == 1, the preimage of x for m == -1."""
        if m == 1:
            return self.get(x)
        if m == -1:
            return self.get_inverse(x)
        raise ValueError(f"direction must be +1 or -1, got {m}")

    @property
    def domain(self) -> frozenset[Ordinal]:
        return frozenset(self._fwd)

    @property
    def image(self) -> frozenset[Ordinal]:
        return frozenset(self._rev)

    def with_pairs(self, extra: Iterable[Pair]) -> "TreeMap":
        return TreeMap(self.pairs + tuple(extra))

    def issubset(self, other: "TreeMap") -> bool:
        return self is other or all(other._fwd.get(x) == y for x, y in self.pairs)


@dataclass(frozen=True)
class MapFlags:
    functional: bool
    strictly_increasing: bool
    injective: bool
    level_preserving: bool
    downwards_closed: bool
    fixed_point_free_off_root: bool

    @property
    def standard(self) -> bool:
        return all(vars(self).values())  # the instance dict holds exactly the fields


def classify_map(t: StandardTree, pairs: Iterable[Pair]) -> MapFlags:
    """Clause-by-clause flags for an arbitrary pair set over the tree's nodes.

    ``downwards_closed`` is the pairwise form: every restriction of a pair to
    an occupied lower level is again a pair.  On level-preserving strictly
    increasing functions this coincides with asking the domain to be closed
    under drop-downs.

    The tree must be layered, as order queries need.  The pairs are ranked
    once, by ``_rank_pairs``, and ``_map_flags`` checks every clause on the
    ranks; validation runs the same two on each map of a condition.
    """
    ps = pairs.pairs if isinstance(pairs, TreeMap) else sorted(set(pairs))
    index = t._order()
    return MapFlags(*_map_flags(index, _rank_pairs(index, ps)))


def _rank_pairs(index: _TreeIndex, pairs: Sequence[Pair]) -> list[tuple[int, int]]:
    """The pairs on the index's ranks, in their own order; the first pair
    with an end outside the tree is a ``ValueError``."""
    rank = index.rank
    try:
        return [(rank[x], rank[y]) for x, y in pairs]
    except KeyError:
        x, y = next((x, y) for x, y in pairs if x not in rank or y not in rank)
        raise ValueError(f"pair ({x}, {y}) leaves the tree") from None


def _map_flags(index: _TreeIndex, rs: Sequence[tuple[int, int]]) -> tuple[bool, ...]:
    """The ``MapFlags`` fields, in order, of distinct rank pairs on a layered
    tree's index.

    A level-preserving pair restricts to the pair of its parents, and
    restrictions compose, so that pair stands for all of them.  A function
    that is level-preserving and closed that way is strictly increasing: a
    source's ancestors in its domain are its parents' parents, and they go to
    its target's.  Otherwise the strict order, being transitive, is checked
    against each source's nearest proper ancestor in the domain.
    """
    if not rs:
        return (True,) * 6
    lev, par, root = index.lev, index.par, index.root
    sources, targets = zip(*rs)
    functional = len(set(sources)) == len(rs)
    injective = len(set(targets)) == len(rs)
    level_preserving = [*map(lev.__getitem__, sources)] == [*map(lev.__getitem__, targets)]
    rank_pairs = set(rs)
    if level_preserving:
        # only the root has no parent, and a level-preserving map sends it to itself
        parents = set(zip(map(par.__getitem__, sources), map(par.__getitem__, targets)))
        parents.discard((-1, -1))
        downwards_closed = parents <= rank_pairs
    else:
        downwards_closed = all(_closed_below(index, rank_pairs, a, b) for a, b in rs)
    strictly_increasing = (
        functional and level_preserving and downwards_closed
    ) or _strictly_increasing(index, rs)
    fixed_points = sum(map(eq, sources, targets))  # pairs are distinct: one can be the root's
    fixed_point_free = fixed_points == ((root, root) in rank_pairs)
    return (functional, strictly_increasing, injective, level_preserving, downwards_closed,
            fixed_point_free)


def _closed_below(index: _TreeIndex, rank_pairs: set, a: int, b: int) -> bool:
    """The restriction of the pair (a, b) to its next lower level is a pair."""
    lev = index.lev
    k = max(min(lev[a], lev[b]) - 1, 0)
    return (index.drop(a, k), index.drop(b, k)) in rank_pairs


def _strictly_increasing(index: _TreeIndex, rs: Sequence[tuple[int, int]]) -> bool:
    """Each source's targets lie strictly above the targets of its nearest
    proper ancestor in the domain, found on a stack of open preorder intervals."""
    pre, last = index.pre, index.last
    targets_of: dict[int, list[int]] = {}
    for a, b in rs:
        targets_of.setdefault(a, []).append(b)
    open_: list[int] = []
    for a1 in sorted(targets_of, key=pre.__getitem__):
        while open_ and last[open_[-1]] < pre[a1]:
            open_.pop()
        below = targets_of[open_[-1]] if open_ else ()
        if not all(pre[b0] < pre[b1] <= last[b0] for b0 in below for b1 in targets_of[a1]):
            return False
        open_.append(a1)
    return True


def is_standard(t: StandardTree, f: TreeMap) -> bool:
    return classify_map(t, f).standard


def _downward_close(u: StandardTree, f: TreeMap) -> TreeMap:
    """The downward closure of f into u, a simple extension of f's host: it
    is standard, restricts back to f, and at an inserted level relates exactly
    the drop-downs of related next-level nodes.  The closure comes in rank
    order, which is the order ``TreeMap`` sorts into, so its sort is one run."""
    return TreeMap(_restrictions(u, f))


def _restrictions(t: StandardTree, S: Collection[Pair]) -> list[Pair]:
    """Each pair of S and its drop-downs to every lower level, in ascending
    order: the closure of S under stepping a same-level pair of ranks to the
    pair of its parents.  A walk stops at the root or at a pair already
    closed, whose drop-downs are in, so each output pair costs two parent
    reads; a pair whose ends sit on different levels stays alone.

    An empty S needs no order, so it does not read the tree's; each pair's
    ends are looked up x before y."""
    if not S:
        return []
    index = t._order()
    rank, lev, par, root = index.rank, index.lev, index.par, index.root
    closed: set[tuple[int, int]] = set()
    for x, y in S:
        a = rank.get(x)
        if a is None:
            raise MalformedTreeError(f"node {x} is not in the tree")
        b = rank.get(y)
        if b is None:
            raise MalformedTreeError(f"node {y} is not in the tree")
        if lev[a] != lev[b]:
            closed.add((a, b))
            continue
        while (a, b) not in closed:
            closed.add((a, b))
            if a == root:
                break
            a, b = par[a], par[b]
    labels = index.labels
    return [(labels[a], labels[b]) for a, b in sorted(closed)]


def agreement_pairs(f: TreeMap, g: TreeMap) -> frozenset[Pair]:
    """Pairs (x, y) on which f and g both send x to y."""
    return frozenset(p for p in f.pairs if g._fwd.get(p[0]) == p[1])


def tensor_downward_closure(t: StandardTree, S: Iterable[Pair]) -> frozenset[Pair]:
    """All same-level pairs lying componentwise below a pair of S: the pairs
    of S closed on ranks under stepping both ends to their parents."""
    S = tuple(S)
    for a, b in S:
        if a.height != b.height:
            raise ValueError(f"pair ({a}, {b}) is not same-level")
    return frozenset(_restrictions(t, S))
