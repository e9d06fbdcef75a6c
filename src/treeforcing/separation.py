"""Consistency, separation, and rho-separation of indexed map families.

A family is a finite mapping from integer indices to TreeMaps, all standard
on one host tree.  A *relation* between same-level nodes x and y is an
equation f^m(x) = y with f one of the family's maps and m a direction in
{+1, -1}.  Separation asks for a listing order in which every node has at
most one relation to earlier nodes; rho-separation relaxes that to allow
several relations onto one earlier node when the rho-value of the indices
involved reaches the level.

The oracle rho is an ambient symmetric ordinal pairing on indices with zero
diagonal; it abstracts a square-sequence-derived pairing, of which only the
two axioms and inequality premises are ever consumed here.

The paper's definitions, for one pair of nodes and one listing order, live
with the tests, which check the decision against them.  Every decision, in
validation, here and in the one-key lift, is made on ranks ordered like the
ordinals, by ``_decide`` on one ``_relations_by_level`` pass over each map's
pairs on ranks.  Validation hands the pass the ranks its map check already
looked up; ``_ranked_family`` ranks them for the other callers.  ``_decide``
names the first loop its union-find meets, else builds the witness order,
whose self-check counts each node's relations to earlier nodes.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .ordinals import ZERO, Ordinal, parse_natural, parse_ordinal
from .treemaps import TreeMap, is_standard
from .trees import StandardTree, _level_of, is_normal

Family = Mapping[int, TreeMap]


class RhoOracle:
    """Symmetric ordinal-valued pairing on indices with zero diagonal.

    Values come from an explicit table, falling back to a pluggable default
    for absent pairs; fallback results are memoised into the table so that a
    run's consulted values can be serialised afterwards.  ``revision`` counts
    ``set_value`` calls; memoised fallbacks change no value and do not count.
    """

    def __init__(
        self,
        entries: Iterable[tuple[int, int, Ordinal]] = (),
        fallback: Callable[[int, int], Ordinal] | None = None,
    ):
        self.table: dict[tuple[int, int], Ordinal] = {}
        self._fallback = fallback
        self.revision = 0
        for i, j, v in entries:
            self.set_value(i, j, v)

    def value(self, i: int, j: int) -> Ordinal:
        if i == j:
            return ZERO
        key = (min(i, j), max(i, j))
        got = self.table.get(key)
        if got is None:
            got = self._fallback(*key) if self._fallback else ZERO
            self.table[key] = got
        return got

    def set_value(self, i: int, j: int, v: Ordinal) -> None:
        if i == j:
            if v != ZERO:
                raise ValueError("the diagonal of rho is zero")
            return
        self.table[(min(i, j), max(i, j))] = v
        self.revision += 1

    def entries(self) -> list[tuple[int, int, Ordinal]]:
        return [(i, j, v) for (i, j), v in sorted(self.table.items())]

    @staticmethod
    def zero() -> "RhoOracle":
        return RhoOracle()

    @staticmethod
    def constant(c: Ordinal) -> "RhoOracle":
        return RhoOracle(fallback=lambda i, j: c)

    @staticmethod
    def from_entries(entries: Iterable[tuple[int, int, Ordinal]]) -> "RhoOracle":
        return RhoOracle(entries=entries)

    @staticmethod
    def seeded(seed: int, values: Sequence[Ordinal]) -> "RhoOracle":
        """Each unordered pair draws one value from ``values``, fixed by the seed."""
        values = tuple(values)
        if not values:
            raise ValueError("value palette must be nonempty")

        def draw(i: int, j: int) -> Ordinal:
            rng = random.Random(f"{seed}:{i}:{j}")
            return values[rng.randrange(len(values))]

        return RhoOracle(fallback=draw)


def oracle_from_spec(spec: str) -> RhoOracle:
    """Build an oracle from a CLI/scenario string: zero | const:<ord> | seed:<n>[:<v,...>].

    ``seed:<n>`` draws from the palette {0, 1, w}; ``seed:<n>:`` names an
    empty palette and is an error, and so is any further ``:`` segment.
    """
    if spec == "zero":
        return RhoOracle.zero()
    if spec.startswith("const:"):
        return RhoOracle.constant(parse_ordinal(spec[len("const:") :]))
    if spec.startswith("seed:") and spec.count(":") < 3:
        parts = spec.split(":")
        n = parse_natural(parts[1])
        if len(parts) == 2:
            vals = (ZERO, parse_ordinal("1"), parse_ordinal("w"))
        else:
            vals = tuple(parse_ordinal(v) for v in parts[2].split(",")) if parts[2] else ()
        return RhoOracle.seeded(n, vals)
    raise ValueError(f"unknown rho specification {spec!r}")


Relations = dict[int, dict[int, list[tuple[int, int]]]]
RankedFamily = Sequence[tuple[int, Sequence[tuple[int, int]]]]


def _ranked_family(fam: Family, rank: Mapping[Ordinal, int]) -> RankedFamily:
    """(index, the map's pairs on ranks) by ascending index, keeping only the
    pairs with both ends in ``rank``."""
    get = rank.get
    out = []
    for tau in sorted(fam):
        ranked = ((get(x), get(y)) for x, y in fam[tau].pairs)
        out.append((tau, [(x, y) for x, y in ranked if x is not None and y is not None]))
    return out


def _relations_by_level(ranked: RankedFamily, lev: Sequence[int]) -> dict[int, Relations]:
    """``rel[x][y]`` lists the relations (m, tau) with f_tau^m(x) = y, on
    ranks, nonempty only, with ``rel`` the part for level number ``lev[x]``:
    one pass over the rank pairs of each map, given by ascending index.  The
    maps must be injective, so that their inverse pairs are their pairs
    flipped, and each pair must relate two nodes of one level.  Per index the
    forward relation goes in before the inverse one, so every list is ordered
    by index, +1 before -1, and ``rel[x]`` has y exactly when ``rel[y]`` has x."""
    by_level: dict[int, Relations] = {}
    for tau, pairs in ranked:
        for r, ps in (((1, tau), pairs), ((-1, tau), [(y, x) for x, y in pairs])):
            for x, y in ps:
                row = by_level.setdefault(lev[x], {}).setdefault(x, {})
                row.setdefault(y, []).append(r)
    return by_level


def multi_relations(rel: Relations) -> Iterator[tuple[int, int, tuple[int, int], tuple[int, int]]]:
    """(x, y, r, s) for every two relations r listed before s between x <= y,
    (x, y) ascending: the pairs the pairwise clause of rho-separation reads."""
    multi = ((x, y) for x, row in rel.items() for y, rs in row.items() if x <= y and len(rs) > 1)
    for x, y in sorted(multi):
        for r, s in combinations(rel[x][y], 2):
            yield x, y, r, s


# -- verdicts ------------------------------------------------------------


@dataclass(frozen=True)
class WitnessOrder:
    """A listing order witnessing (rho-)separation."""

    order: tuple[Ordinal, ...]

    def __str__(self) -> str:
        return "witness-order: " + ", ".join(str(x) for x in self.order)


@dataclass(frozen=True)
class PairwiseViolation:
    """Two distinct relations between one node pair whose rho-value is too small."""

    x: Ordinal
    y: Ordinal
    first: tuple[int, int]
    second: tuple[int, int]
    required: Ordinal

    def __str__(self) -> str:
        (m0, t0), (m1, t1) = self.first, self.second
        return (
            f"pairwise-violation: {self.x} and {self.y} related by "
            f"(m={m0}, index={t0}) and (m={m1}, index={t1}), "
            f"rho below required level {self.required}"
        )


@dataclass(frozen=True)
class Loop:
    """A closed relation walk c0 .. c(p-1) with p >= 4 and injective proper prefix."""

    nodes: tuple[Ordinal, ...]

    def __str__(self) -> str:
        return "loop: " + " -> ".join(str(x) for x in self.nodes)


SeparationVerdict = WitnessOrder | PairwiseViolation | Loop


def _indexed_triples(
    rel: Relations, pos: Mapping[int, int] | Sequence[int], x: int
) -> list[tuple[int, int, int]]:
    """The triples (j, m, tau) relating the listed node x to earlier nodes,
    with j the earlier node's place: ``pos[y]`` is the place of node y in the
    listing.  Earlier nodes come by place, each one's relations in ``rel``
    order."""
    i = pos[x]
    row = rel.get(x, {})
    return [
        (pos[y], m, tau)
        for y in sorted((y for y in row if pos[y] < i), key=pos.__getitem__)
        for m, tau in row[y]
    ]


# -- consistency ------------------------------------------------------------


def is_consistent(
    t: StandardTree, f: TreeMap, X: Iterable[Ordinal], b: Ordinal
) -> bool:
    """Relations between the drop-downs of X to level b transfer up to X.

    X must sit on one level above b with unique drop-downs there, and f must
    be standard on the tree.  Only the upward transfer is checked; the
    downward one is automatic for standard maps.
    """
    X = frozenset(X)
    alpha = _level_of(X)
    if alpha is None:
        return True
    if not b < alpha:
        raise ValueError("reference level must lie below the node set")
    drop = {x: t.restrict(x, b) for x in X}
    if len(set(drop.values())) != len(X):
        raise ValueError("node set lacks unique drop-downs to the reference level")
    if not is_standard(t, f):
        raise ValueError("map is not standard on the tree")
    return _is_consistent(f, drop)


def _is_consistent(f: TreeMap, drop: Mapping[Ordinal, Ordinal]) -> bool:
    """``is_consistent`` without its checks, on the injective drop-down map of
    X: wherever f carries the drop-down of x to the drop-down of y, f(x) = y."""
    above = {d: x for x, d in drop.items()}
    return all(f.get(x) == above[f.get(d)] for x, d in drop.items() if f.get(d) in above)


# -- the decision procedure ---------------------------------------------------


def decide_rho_separation(
    fam: Family, X: Iterable[Ordinal], rho: RhoOracle, alpha: Ordinal
) -> SeparationVerdict:
    """Decide rho-separation on a one-level node set.

    Returns a WitnessOrder built by the segment construction when the set is
    rho-separated; otherwise the specific obstruction: a PairwiseViolation
    (two relations between one pair with rho below the level) or a Loop (a
    closed relation walk through at least three distinct nodes).

    X is ranked in ordinal order and decided as level 0 of one relation pass,
    so the work is near-linear in |X| plus the number of map pairs.  The maps
    must be injective: the least index of one that is not is a
    ``ValueError``, raised before any rho value is read.
    """
    _refuse_non_injective(fam)
    labels = sorted(frozenset(X))
    ranked = _ranked_family(fam, dict(zip(labels, range(len(labels)))))
    rel = _relations_by_level(ranked, [0] * len(labels)).get(0, {})
    return _labelled(_decide(rel, range(len(labels)), rho, alpha), labels)


def _decide(rel: Relations, X: Iterable[int], rho: RhoOracle, alpha: Ordinal) -> SeparationVerdict:
    """``decide_rho_separation`` on ranks: ``rel`` is one level's part of a
    ``_relations_by_level`` pass over injective maps, and X that level's
    ranks in ascending order.  Rank order is ordinal order, so ``_labelled``
    turns the verdict into the one the labels would give."""
    # clause 1: all multi-relations between a fixed pair need rho >= alpha
    for x, y, r, s in multi_relations(rel):
        if rho.value(r[1], s[1]) < alpha:
            return PairwiseViolation(x, y, r, s, alpha)
    # clause 2: no loops; scan each relation edge once, as x < y, merging member lists
    # only nodes on an edge get entries: the index is symmetric, so they are its keys
    component = {x: [x] for x in rel}
    edges = sorted((x, y) for x, row in rel.items() for y in row if x < y)
    for i, (x, y) in enumerate(edges):
        cx, cy = component[x], component[y]
        if cx is cy:  # the edges before this one were all merged: the loop runs through them
            path = _shortest_path(_adjacency(edges[:i]), x, y)
            return Loop(tuple(path) + (x,))
        small, large = (cx, cy) if len(cx) <= len(cy) else (cy, cx)
        large += small
        component.update(dict.fromkeys(small, large))
    # separated: build the witness order by segments.  A segment opens with
    # the least unlisted node and grows by the least unlisted node related to
    # one of its members, taken from a min-heap frontier; a node without
    # relations is a segment of its own.  ``pos`` holds the place of each
    # related node.
    order: list[int] = []
    pos: dict[int, int] = {}
    for start in X:
        if start not in rel:
            order.append(start)
        elif start not in pos:
            frontier = [start]
            while frontier:
                x = heapq.heappop(frontier)
                if x not in pos:
                    pos[x] = len(order)
                    order.append(x)
                    for cand in rel[x]:
                        if cand not in pos:
                            heapq.heappush(frontier, cand)
    # the self-check: each node relates to at most one earlier node, and all
    # its relations to that node pass the pairwise clause
    for x, i in pos.items():
        row = rel[x]
        earlier = [y for y in row if pos[y] < i]
        if len(earlier) > 1 or earlier and any(
            rho.value(r[1], s[1]) < alpha for r, s in combinations(row[earlier[0]], 2)
        ):
            raise RuntimeError("witness order fails its own check; decision logic is broken")
    return WitnessOrder(tuple(order))


def _labelled(verdict: SeparationVerdict, labels: Sequence[Ordinal]) -> SeparationVerdict:
    """A verdict on ranks, with its nodes named by their labels."""
    if isinstance(verdict, Loop):
        return Loop(tuple(labels[r] for r in verdict.nodes))
    if isinstance(verdict, PairwiseViolation):
        return replace(verdict, x=labels[verdict.x], y=labels[verdict.y])
    return WitnessOrder(tuple(labels[r] for r in verdict.order))


def _adjacency(edges: Sequence[tuple[int, int]]) -> dict[int, list[int]]:
    """Each node's neighbours along the edges, in edge order."""
    adjacency: dict[int, list[int]] = {}
    for x, y in edges:
        adjacency.setdefault(x, []).append(y)
        adjacency.setdefault(y, []).append(x)
    return adjacency


def _shortest_path(adjacency: dict, x: int, y: int) -> list[int]:
    prev: dict[int, int] = {x: x}
    queue = deque([x])
    while queue:
        cur = queue.popleft()
        if cur == y:
            break
        for nxt in adjacency[cur]:
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    path = [y]
    while path[-1] != x:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def decide_separation(fam: Family, X: Iterable[Ordinal]) -> SeparationVerdict:
    """Decide plain separation: rho-separation against the all-zero oracle.

    Below the level the zero oracle makes every pairwise demand fail, which
    is exactly the separation notion; the root level is a single node and is
    separated outright.  A map that is not injective is refused there too.
    """
    X = frozenset(X)
    alpha = _level_of(X)
    if alpha is not None and alpha != ZERO:
        return decide_rho_separation(fam, X, RhoOracle.zero(), alpha)
    _refuse_non_injective(fam)
    return WitnessOrder(tuple(sorted(X)))


def _refuse_non_injective(fam: Family) -> None:
    for tau in sorted(fam):
        if len(fam[tau].image) != len(fam[tau]):
            raise ValueError(f"map {tau} fails injective")


# -- the one-key lifting construction ------------------------------------------


def one_key_lift(
    t: StandardTree,
    fam: Family,
    X: Iterable[Ordinal],
    alpha: Ordinal,
    beta: Ordinal,
    b: Ordinal,
) -> frozenset[Ordinal]:
    """Lift a separated level set X at alpha to a consistent set Y at beta with b in Y.

    Requires a normal tree, a separated family on X whose maps are total and
    surjective on successors along every in-X edge, and b a level-beta node
    over a member of X.  Free choices resolve to the least successor, so the
    output is deterministic.
    """
    X = frozenset(X)
    if not is_normal(t):
        raise ValueError("tree is not normal")
    heights = set(t.heights())
    if alpha not in heights or beta not in heights or not alpha < beta:
        raise ValueError("levels must be occupied with alpha below beta")
    if not X <= t.level(alpha):
        raise ValueError("node set leaves its level")
    for tau in sorted(fam):
        if not is_standard(t, fam[tau]):
            raise ValueError(f"map {tau} is not standard on the tree")
    verdict = decide_separation(fam, X)
    if not isinstance(verdict, WitnessOrder):
        raise ValueError(f"family is not separated on the node set ({verdict})")
    if b.height != beta or t.restrict(b, alpha) not in X:
        raise ValueError("anchor node must sit at the target level over the node set")
    for tau in sorted(fam):
        f = fam[tau]
        for x, y in f:
            if x in X and y in X:
                if not t.successors(x) <= f.domain:
                    raise ValueError(f"map {tau} is not total on successors of {x}")
                if not t.successors(y) <= f.image:
                    raise ValueError(f"map {tau} is not surjective onto successors of {y}")
    Y = _one_key_lift(t, fam, verdict.order, alpha, beta, b)
    _check_lift(t, fam, X, alpha, b, Y)
    return Y


def _one_key_lift(
    t: StandardTree,
    fam: Family,
    order: Sequence[Ordinal],
    alpha: Ordinal,
    beta: Ordinal,
    b: Ordinal,
) -> frozenset[Ordinal]:
    """``one_key_lift`` without its checks, on a witness order of X.

    Each node lifts along its one relation to an earlier node.  A node with
    none opens a segment and lifts to its least successor, except the opener
    that b's base point reaches down those relations: it lifts to b's image
    along them.  Totality on the cones makes every step defined.  Nodes are
    keyed by their positions in the order."""
    pos = dict(zip(order, range(len(order))))
    rel = _relations_by_level(_ranked_family(fam, pos), [0] * len(order)).get(0, {})
    places = range(len(order))
    opener, image = pos[t.restrict(b, alpha)], b
    while triples := _indexed_triples(rel, places, opener):
        j, m, tau = triples[0]
        opener, image = j, fam[tau].apply_signed(m, image)
    lifted: list[Ordinal] = []
    for i, x in enumerate(order):
        triples = _indexed_triples(rel, places, i)
        if triples:
            j, m, tau = triples[0]
            lifted.append(fam[tau].apply_signed(-m, lifted[j]))
        else:
            lifted.append(image if i == opener else min(t.successors_at(x, beta)))
    return frozenset(lifted)


def _check_lift(
    t: StandardTree,
    fam: Family,
    X: frozenset[Ordinal],
    alpha: Ordinal,
    b: Ordinal,
    Y: frozenset[Ordinal],
) -> None:
    """The lift's output clauses: Y holds b and drops down one to one onto
    X, and every map of the family is consistent on it."""
    if len(Y) != len(X) or not Y <= t.nodes or b not in Y:
        raise RuntimeError("lifted set lost a node or the anchor")
    drop = {y: t.restrict(y, alpha) for y in Y}
    if set(drop.values()) != X:
        raise RuntimeError("lifted set does not drop down one to one onto its base")
    for tau in sorted(fam):
        if not _is_consistent(fam[tau], drop):
            raise RuntimeError(f"lifted set is inconsistent along map {tau}")
