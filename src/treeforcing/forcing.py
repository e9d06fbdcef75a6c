"""The poset of forcing conditions and its constructive extension operations.

A condition pairs a tree with a finite indexed family of standard maps that
is rho-separated on every occupied level.  Every operation here returns a
new condition below its input in the poset order and checks its own
postconditions; a failed check raises RuntimeError because it signals a bug,
not bad input.  ``validate_condition`` is one pass over ranked pairs: each
map's pairs are looked up in the tree's rank index once, and the map
clauses and the per-level separation decisions both read those ranks.

Each constructive operation is an unchecked kernel plus one full check at
the public boundary.  Operations built from smaller ones (widening is a
height extension then a fan-out; bijectivizing a cone iterates the level
construction; the one-key lift bijectivizes a cone and lifts through it;
amalgamation bijectivizes a cone and lifts through it too) compose the
kernels, never the checked public functions, and then check their final
output once: ``validate_condition`` on it, ``leq`` against their own input,
the height set they promised, and whatever clauses of the pieces those do
not imply (a simple extension, a normal tree, successor counts, separation
on the fans, the lift's consistency).  ``amalgamate`` closes through the same
boundary check against the first side, with the second side's heights as the
promised ones, and then checks the second side and the anchors.  A pair
built by ``build_matched_pair`` carries its check (the oracle object and its
revision), so ``amalgamate`` trusts it while that oracle is unchanged and
validates every other pair in full.  A pair stores its first side and its
read-only node and index matchings; the second side is their image, derived
once the matchings are known to be one to one, so it carries the first
side's order and maps by construction.

The order's agreement clause disregards the structural root agreement
(0, 0): any two maps defined at the root fix it, and index augmentation
necessarily passes through the root, so root agreements carry no
information about where two maps genuinely coincide.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import combinations, product
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .ordinals import (
    ZERO,
    Ordinal,
    height_split,
    is_limit,
    is_omega_fixed,
    left_subtract,
    node_at,
)
from .separation import (
    RhoOracle,
    WitnessOrder,
    _check_lift,
    _decide,
    _labelled,
    _one_key_lift,
    _ranked_family,
    _relations_by_level,
    decide_separation,
    multi_relations,
)
from .treemaps import (
    MapFlags,
    TreeMap,
    _downward_close,
    _map_flags,
    _rank_pairs,
    agreement_pairs,
    tensor_downward_closure,
)
from .trees import (
    StandardTree,
    _FreshLabels,
    _adds_simply,
    _fan_out,
    _normalize,
    _simple_extend,
    is_extension,
    is_hausdorff,
    is_normal,
    validate_tree,
)

ROOT_PAIR = (ZERO, ZERO)


@dataclass(frozen=True)
class Condition:
    """A tree and its indexed map family; both are read-only.

    ``family`` is a private read-only copy of the mapping passed in, so a
    condition that passed its check cannot change afterwards.
    """

    tree: StandardTree
    family: Mapping[int, TreeMap]

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", MappingProxyType(dict(self.family)))

    @staticmethod
    def trivial() -> "Condition":
        """The top condition: a bare root carrying one empty map."""
        return Condition(StandardTree.root_only(), {0: TreeMap()})

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.family))


def validate_condition(p: Condition, rho: RhoOracle) -> list[str]:
    """Check the three condition clauses; [] means ok.

    One pass over ranked pairs: each map's pairs are looked up in the tree's
    rank index once, the map clauses are checked on those ranks, and the
    same ranks, less the root pair, feed one relation pass keyed by level
    number and rank, whose levels with relations are decided on ranks.
    ``MapFlags`` and the failure lines are built only for what fails, and a
    failing verdict is named by its labels."""
    out = [f"clause 1 (tree): {line}" for line in validate_tree(p.tree)]
    if out:
        return out
    index = p.tree._index
    ranked = []
    for tau in p.indices():
        try:
            rs = _rank_pairs(index, p.family[tau].pairs)
        except ValueError as exc:
            out.append(f"clause 2 (maps): map {tau}: {exc}")
            continue
        bits = _map_flags(index, rs)
        if all(bits):
            # a standard map, unless empty, holds the root pair, first by source;
            # the root level is not decided
            ranked.append((tau, rs[1:]))
            continue
        flags = MapFlags(*bits)
        bad = [c.name for c in fields(flags) if not getattr(flags, c.name)]
        out.append(f"clause 2 (maps): map {tau} fails {', '.join(bad)}")
    if out:
        return out
    # clause 2 passed, so every map is level-preserving and injective
    levels = _relations_by_level(ranked, index.lev)
    for k, alpha in enumerate(index.heights, 1):
        if k not in levels:  # a level without relations is witnessed by any listing
            continue
        verdict = _decide(levels[k], range(index.starts[k], index.starts[k + 1]), rho, alpha)
        if not isinstance(verdict, WitnessOrder):
            out.append(f"clause 3 (separation): level {alpha}: {_labelled(verdict, index.labels)}")
    return out


def leq(q: Condition, p: Condition) -> bool:
    """q extends p: tree extension, map containment, and no fresh agreements.

    The agreement clause: wherever two of p's indices agree in q outside the
    root, some node of p above the agreement already carried an agreement of
    the same two maps in p.  A pair of indices whose maps q shares with p is
    skipped: its agreements in q are those in p, each its own anchor.
    """
    if not is_extension(p.tree, q.tree):
        return False
    for tau in p.indices():
        if tau not in q.family or not p.family[tau].issubset(q.family[tau]):
            return False
    for g, t in combinations(p.indices(), 2):
        if q.family[g] is p.family[g] and q.family[t] is p.family[t]:
            continue
        anchors = {x for x, _ in agreement_pairs(p.family[g], p.family[t])}
        for x, _ in agreement_pairs(q.family[g], q.family[t]) - {ROOT_PAIR}:
            if not any(q.tree.is_below_eq(x, z) for z in anchors):
                return False
    return True


def _check_step(p: Condition, q: Condition, rho: RhoOracle, op: str, added=()) -> Condition:
    """The boundary check: q is a condition below p whose heights are p's
    plus ``added``, the heights the operation promised to occupy.

    The operations do not validate their input up front; a failed validation
    or order check is blamed on p (ValueError) when p itself is not a
    condition, and is an internal fault (RuntimeError) otherwise.
    """
    report = validate_condition(q, rho)
    if report:
        _blame_input(p, rho, op)
        raise RuntimeError(f"{op} produced an invalid condition: {'; '.join(report)}")
    if not leq(q, p):
        _blame_input(p, rho, op)
        raise RuntimeError(f"{op} produced a condition that does not extend its input")
    if set(q.tree.heights()) != {*p.tree.heights(), *added}:
        raise RuntimeError(f"{op} moved the heights")
    return q


def _blame_input(p: Condition, rho: RhoOracle, op: str) -> None:
    report = validate_condition(p, rho)
    if report:
        raise ValueError(f"{op}: input is not a valid condition: {'; '.join(report)}")


# -- density operations -------------------------------------------------------


def _extend_heights(p: Condition, Z: frozenset[Ordinal]) -> Condition:
    """``extend_heights`` without its check; p itself when Z is occupied already."""
    if Z <= set(p.tree.heights()):
        return p
    u = _simple_extend(p.tree, Z | set(p.tree.heights()))
    return Condition(u, {tau: _downward_close(u, f) for tau, f in p.family.items()})


def _check_extend(
    p: Condition, q: Condition, Z: frozenset[Ordinal], rho: RhoOracle, op: str
) -> Condition:
    """The boundary check of a height extension: q is valid and below p, its
    tree is a simple extension of p's with heights ht[p] + Z, and each map
    restricts back to p's map on p's nodes."""
    _check_step(p, q, rho, op, Z)
    if not _adds_simply(p.tree, q.tree):
        raise RuntimeError(f"{op} produced a non-simple extension")
    nodes = p.tree.nodes
    for tau, f in p.family.items():
        # a map's pairs are sorted and distinct, so its restriction is too
        if tuple(pair for pair in q.family[tau] if pair[0] in nodes) != f.pairs:
            _blame_input(p, rho, op)
            raise RuntimeError(f"{op} changed map {tau} on the old nodes")
    return q


def _normalize_condition(p: Condition) -> Condition:
    """``normalize_condition`` without its check; p itself when already normal."""
    u = _normalize(p.tree)
    return p if u is p.tree else Condition(u, p.family)


def _fan_out_condition(p: Condition, X: frozenset[Ordinal], n: int) -> Condition:
    """``fan_out_condition`` without its check; p itself when nothing was added."""
    u = _fan_out(p.tree, X, n)
    return p if u == p.tree else Condition(u, p.family)


def extend_heights(p: Condition, Z: Iterable[Ordinal], rho: RhoOracle) -> Condition:
    """Occupy the heights of Z via a simple extension, closing every map downward."""
    Z = frozenset(Z)
    q = _extend_heights(p, Z)
    if q is p:
        return p
    return _check_extend(p, q, Z, rho, "extend_heights")


def widen_node(p: Condition, x: Ordinal, k: int, rho: RhoOracle) -> Condition:
    """Ensure x has at least k immediate successors on an occupied next level."""
    if x not in p.tree.nodes:
        raise ValueError(f"node {x} not in tree")
    if k < 1:
        raise ValueError("successor count must be positive")
    nxt = x.height + Ordinal.from_int(1)
    q = _extend_heights(p, frozenset({nxt}))
    if len(q.tree.immediate_successors(x)) < k:  # else q already has the count
        q = _fan_out_condition(q, frozenset({x}), k)
        if len(q.tree.immediate_successors(x)) < k:
            raise RuntimeError("widen_node missed the successor count")
    if q is p:
        return p
    _check_step(p, q, rho, "widen_node", {nxt})
    return q


def hausdorffize(p: Condition, rho: RhoOracle) -> Condition:
    """Insert a successor height just below every limit level."""
    if is_hausdorff(p.tree):
        return p
    one = Ordinal.from_int(1)
    Z = frozenset(p.tree.level_below(d) + one for d in p.tree.heights() if is_limit(d))
    return _check_extend(p, _extend_heights(p, Z), Z, rho, "hausdorffize")


def normalize_condition(p: Condition, rho: RhoOracle) -> Condition:
    """Extend the tree to a normal one on the same heights; maps unchanged."""
    q = _normalize_condition(p)
    if q is p:
        return p
    _check_step(p, q, rho, "normalize_condition")
    if not is_normal(q.tree):
        raise RuntimeError("normalize_condition produced a non-normal tree")
    return q


def grow_node(p: Condition, x: Ordinal, alpha: Ordinal, rho: RhoOracle) -> Condition:
    """Put some node above x at level alpha."""
    if x not in p.tree.nodes:
        raise ValueError(f"node {x} not in tree")
    if not x.height < alpha:
        raise ValueError("target level must lie above the node")
    if p.tree.successors_at(x, alpha):
        return p
    q = _normalize_condition(_extend_heights(p, frozenset({alpha})))
    _check_step(p, q, rho, "grow_node", {alpha})
    if not is_normal(q.tree):
        raise RuntimeError("grow_node produced a non-normal tree")
    return q


def add_index(p: Condition, s: int, rho: RhoOracle) -> Condition:
    """Bring s into the index domain, with an empty map when new; p itself
    when s is present already."""
    if s in p.family:
        return p
    return _check_step(p, Condition(p.tree, {**p.family, s: TreeMap()}), rho, "add_index")


def augment(p: Condition, s: int, x: Ordinal, rho: RhoOracle) -> Condition:
    """Put x into the domain and range of the map at s.

    Works by height induction: each missing link adds one fresh node above
    the image (or preimage) of the node's parent.
    """
    if x not in p.tree.nodes:
        raise ValueError(f"node {x} not in tree")
    f = p.family.get(s, TreeMap())
    fwd, back = dict(f.pairs), dict(f.inverse_pairs())
    nodes, parent = p.tree.sorted_nodes(), p.tree.parent.copy()
    labels = _FreshLabels(p.tree)
    chain = p.tree.chain_down(x)[::-1]
    # the domain pass, then the image pass; each step's parent went into ``have`` just before it
    for have, other in ((fwd, back), (back, fwd)):
        for step in chain:
            if step in have:
                continue
            z = ZERO
            if step != ZERO:
                z = labels.take(step.height)
                nodes.append(z)
                parent[z] = have[parent[step]]
            have[step], other[z] = z, step
    q = Condition(StandardTree(nodes, parent), {**p.family, s: TreeMap(fwd.items())})
    return _check_step(p, q, rho, "augment")


def fan_out_condition(
    p: Condition, X: Iterable[Ordinal], n: int, rho: RhoOracle
) -> Condition:
    """Give every node of X exactly n immediate successors; maps unchanged."""
    X = frozenset(X)
    q = _fan_out_condition(p, X, n)
    if q is p:
        return p
    _check_step(p, q, rho, "fan_out_condition")
    if any(len(q.tree.immediate_successors(x)) != n for x in X):
        raise RuntimeError("fan_out_condition missed the successor count")
    return q


# -- making selected maps bijective over a level set ---------------------------


@dataclass(frozen=True)
class LevelBijectivization:
    """Construction record: the separated order, block size, and block partition."""

    order: tuple[Ordinal, ...]
    block_size: int
    blocks: tuple[tuple[tuple[Ordinal, ...], ...], ...]  # row i: the fan of order[i]
    edges: tuple[tuple[int, int, int], ...]  # (i, j, tau) with F(tau)(a_i) = a_j


def bijectivize_level(
    p: Condition,
    alpha: Ordinal,
    X: Iterable[Ordinal],
    A: Iterable[int],
    rho: RhoOracle,
) -> Condition:
    cond, _ = bijectivize_level_with_record(p, alpha, X, A, rho)
    return cond


def bijectivize_level_with_record(
    p: Condition,
    alpha: Ordinal,
    X: Iterable[Ordinal],
    A: Iterable[int],
    rho: RhoOracle,
) -> tuple[Condition, LevelBijectivization]:
    """Extend the maps of A to bijections between the immediate-successor
    fans of X, fanning X out so far that the transfer is total and surjective.

    The immediate successors of each listed member a_i are partitioned into
    equal blocks, one per list position; transfer along an edge a_i -> a_j
    matches blocks of equal position, keeps old successors in the diagonal
    blocks, and routes fresh sources (targets) through the blocks indexed by
    the far end, which is what keeps distinct maps from agreeing on new nodes.
    """
    X = frozenset(X)
    A = frozenset(A)
    out, record = _bijectivize_level(p, alpha, X, A)
    _check_bijectivize(p, out, X, A, [record], rho, "bijectivize_level")
    return out, record


def _check_selection(
    p: Condition, alpha: Ordinal, X: frozenset[Ordinal], A: frozenset[int]
) -> None:
    """The node and index preconditions of the level and cone constructions."""
    if not X:
        raise ValueError("node set must be nonempty")
    if not X <= p.tree.level(alpha):
        raise ValueError("node set leaves its level")
    if not A <= set(p.family):
        raise ValueError("indices leave the family")


def _bijectivize_level(
    p: Condition, alpha: Ordinal, X: frozenset[Ordinal], A: frozenset[int]
) -> tuple[Condition, LevelBijectivization]:
    """``bijectivize_level_with_record`` without its postcondition check."""
    t = p.tree
    heights = t.heights()
    if alpha not in heights or alpha == t.max_height():
        raise ValueError("level must be occupied and lie below the top")
    _check_selection(p, alpha, X, A)
    restricted = {tau: p.family[tau] for tau in A}
    verdict = decide_separation(restricted, X)
    if not isinstance(verdict, WitnessOrder):
        raise ValueError(f"selected maps are not separated on the node set ({verdict})")
    order = verdict.order
    q_size = len(order)
    block = max(1, max(len(t.immediate_successors(x)) for x in X))

    grown = _fan_out_condition(p, X, block * q_size)
    u = grown.tree

    # each fan, old successors first, cut into q_size slices; slice 0 is the diagonal
    blocks: list[tuple[tuple[Ordinal, ...], ...]] = []
    for i, a_i in enumerate(order):
        old = t.immediate_successors(a_i)
        fan = sorted(old) + sorted(u.immediate_successors(a_i) - old)
        cut = [tuple(fan[k * block : (k + 1) * block]) for k in range(q_size)]
        blocks.append(tuple(cut[0 if k == i else k + 1 if k < i else k] for k in range(q_size)))

    edges: list[tuple[int, int, int]] = []
    fam = dict(grown.family)
    for tau in sorted(A):
        f = p.family[tau]
        image = f.image
        pairs = set(f.pairs)
        for i, a_i in enumerate(order):
            a_j = f.get(a_i)
            if a_j is None or a_j not in X:
                continue
            j = order.index(a_j)
            edges.append((i, j, tau))
            # equal-position blocks map to each other, positionally
            for k in range(q_size):
                if k not in (i, j):
                    pairs.update(zip(blocks[i][k], blocks[j][k]))
            # fresh diagonal sources land in the block indexed by the far end
            fresh_sources = [x for x in blocks[i][i] if f.get(x) is None]
            pairs.update(zip(fresh_sources, blocks[j][i]))
            # fresh diagonal targets draw preimages from the block indexed by
            # the far end; the rest of that block mops up the targets no source
            # over a_i reaches yet (old sources keep their old images)
            fresh_targets = [y for y in blocks[j][j] if y not in image]
            sources_left = blocks[i][j]
            pairs.update(zip(sources_left, fresh_targets))
            fan = u.immediate_successors(a_i)
            taken = {y for x, y in pairs if x in fan}
            remaining = [y for y in sorted(u.immediate_successors(a_j)) if y not in taken]
            pairs.update(zip(sources_left[len(fresh_targets) :], remaining))
        fam[tau] = TreeMap(pairs)

    return Condition(u, fam), LevelBijectivization(order, block, tuple(blocks), tuple(edges))


def _check_bijectivize(
    p: Condition,
    out: Condition,
    X: frozenset[Ordinal],
    A: frozenset[int],
    records: Sequence[LevelBijectivization],
    rho: RhoOracle,
    op: str,
) -> None:
    """The boundary check of the level and cone constructions: out is valid
    and below p; on each level grown from X (one per level record) every node
    has the record's fan width of immediate successors, and the maps of A are
    separated on the fans and total and surjective across them (for standard
    maps, fan by fan is the whole cone); new nodes and map pairs lie inside
    the fans."""
    _check_step(p, out, rho, op)
    t, u = p.tree, out.tree
    if set(p.family) != set(out.family):
        raise RuntimeError(f"{op} broke a structural postcondition")
    restricted = {tau: out.family[tau] for tau in A}
    sets = [(g, g.domain, g.image) for g in restricted.values()]  # built once per map
    grown: frozenset[Ordinal] = frozenset()
    level_set = X
    for width in (record.block_size * len(record.order) for record in records):
        if any(len(u.immediate_successors(x)) != width for x in level_set):
            raise RuntimeError(f"{op} missed a fan width")
        fans = frozenset().union(*(u.immediate_successors(x) for x in level_set))
        if not isinstance(decide_separation(restricted, fans), WitnessOrder):
            raise RuntimeError(f"{op} lost separation on a fan")
        edges = [(x, g.get(x), domain, image) for g, domain, image in sets for x in level_set]
        for x, y, domain, image in edges:
            if y in level_set and not u.immediate_successors(x) <= domain:
                raise RuntimeError(f"{op} is not total on a fan")
            if y in level_set and not u.immediate_successors(y) <= image:
                raise RuntimeError(f"{op} is not surjective onto a fan")
        grown |= fans
        level_set = fans
    if not u.nodes - t.nodes <= grown:
        raise RuntimeError(f"{op} added nodes outside the fans")
    for tau in sorted(out.family):
        fresh = set(out.family[tau].pairs) - set(p.family[tau].pairs)
        if any(x not in grown or y not in grown for x, y in fresh):
            raise RuntimeError(f"{op} wrote entries outside the fans")


def bijectivize_cone(
    p: Condition,
    alpha: Ordinal,
    X: Iterable[Ordinal],
    A: Iterable[int],
    rho: RhoOracle,
) -> Condition:
    """Iterate the level construction through every level above alpha."""
    X = frozenset(X)
    A = frozenset(A)
    out, records = _bijectivize_cone(p, alpha, X, A)
    _check_bijectivize(p, out, X, A, records, rho, "bijectivize_cone")
    return out


def _bijectivize_cone(
    p: Condition, alpha: Ordinal, X: frozenset[Ordinal], A: frozenset[int]
) -> tuple[Condition, list[LevelBijectivization]]:
    """``bijectivize_cone`` without its check; also the record of each level,
    the first of which holds the witness order of X."""
    heights = p.tree.heights()
    if alpha not in heights:
        raise ValueError("level must be occupied")
    _check_selection(p, alpha, X, A)
    cur, cur_set = p, X
    records = []
    for level in [h for h in heights if alpha <= h < p.tree.max_height()]:
        cur, record = _bijectivize_level(cur, level, cur_set, A)
        records.append(record)
        cur_set = frozenset().union(
            *(cur.tree.immediate_successors(x) for x in cur_set)
        )
    return cur, records


def lift_with_support(
    p: Condition,
    alpha: Ordinal,
    X: Iterable[Ordinal],
    A: Iterable[int],
    b: Ordinal,
    rho: RhoOracle,
) -> tuple[Condition, frozenset[Ordinal]]:
    """Bijectivize the cones over X, then lift X to a consistent top-level set
    through b.  The tree must be normal: the lift picks successors freely.

    The cone's check implies every precondition of the lift but two: a
    normal tree and alpha below the top."""
    X = frozenset(X)
    A = frozenset(A)
    top = p.tree.max_height()
    if b.height != top or p.tree.restrict(b, alpha) not in X:
        raise ValueError("anchor node must sit on the top level over the node set")
    cone, records = _bijectivize_cone(p, alpha, X, A)
    _check_bijectivize(p, cone, X, A, records, rho, "lift_with_support")
    if not is_normal(cone.tree):
        raise ValueError("tree is not normal")
    if alpha == top:
        raise ValueError("levels must be occupied with alpha below beta")
    # the cone adds map pairs only above alpha, so X's witness order still holds
    fam = {tau: cone.family[tau] for tau in sorted(A)}
    Y = _one_key_lift(cone.tree, fam, records[0].order, alpha, top, b)
    _check_lift(cone.tree, fam, X, alpha, b, Y)
    return cone, Y


# -- strongly-almost-disjoint containment over a descending trace ---------------


def strong_ad_containment(trace: Sequence[Condition], g: int, t: int) -> bool:
    """Agreements of two maps in the last condition stay under the first ones.

    ``trace`` must be descending in the poset order; this is checked first.
    Taking the first condition carrying both indices, every non-root
    agreement pair of the two maps in the last condition must lie in the
    downward closure (in the last tree) of the agreement pairs of the first.
    The root pair is disregarded; it is structural.
    """
    if g == t:
        raise ValueError("indices must be distinct")
    for later, earlier in zip(trace[1:], trace):
        if not leq(later, earlier):
            raise ValueError("trace is not descending")
    return agreement_containment(trace, g, t)


def agreement_containment(trace: Sequence[Condition], g: int, t: int) -> bool:
    """The containment test of ``strong_ad_containment`` on a trace already
    known to descend, so one descent check can serve every index pair."""
    first = next(
        (p for p in trace if g in p.family and t in p.family),
        None,
    )
    if first is None:
        raise ValueError("indices are never co-present along the trace")
    last = trace[-1]
    if g not in last.family or t not in last.family:
        raise ValueError("indices must persist to the last condition")
    base = agreement_pairs(first.family[g], first.family[t])
    closure = tensor_downward_closure(last.tree, base)
    final = agreement_pairs(last.family[g], last.family[t]) - {ROOT_PAIR}
    return final <= closure


# -- matched pairs: two isomorphic conditions prepared for amalgamation ---------


@dataclass(frozen=True)
class MatchedPair:
    """A condition and an isomorphic copy agreeing below a common level.

    The copy ``pb`` is not stored: it is the image of ``pa`` under the node
    matching ``iso_f`` and the index matching ``iso_g``, built on first read,
    which validation makes only once both matchings are one to one on ``pa``.
    The common part is the first tree below ``alpha``, and must be the copy
    below ``beta``; each matching is the identity on the common part, and both
    are read-only.  ``anchor_a`` and its image ``anchor_b`` are the nodes the
    amalgamation orders; ``shared`` holds the indices of both sides.
    """

    pa: Condition
    alpha: Ordinal
    beta: Ordinal
    iso_f: Mapping[Ordinal, Ordinal]
    iso_g: Mapping[int, int]
    anchor_a: Ordinal
    # (oracle, revision) of the check; only build_matched_pair records one
    _checked: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "iso_f", MappingProxyType(dict(self.iso_f)))
        object.__setattr__(self, "iso_g", MappingProxyType(dict(self.iso_g)))

    @cached_property
    def pb(self) -> Condition:
        """The copy: pa's nodes, links and maps carried through the matchings;
        a matching that misses part of ``pa`` is refused by the matching clauses."""
        f, g, pa = self.iso_f, self.iso_g, self.pa
        try:
            links = {f[c]: f[x] for c, x in pa.tree.parent.items()}
            maps = {g[tau]: TreeMap((f[a], f[b]) for a, b in m) for tau, m in pa.family.items()}
        except KeyError:
            raise ValueError("; ".join(_matching_report(self))) from None
        return Condition(StandardTree(list(f.values()), links), maps)

    @property
    def shared(self) -> frozenset[int]:
        return frozenset(self.pa.family.keys() & self.iso_g.values())

    @property
    def anchor_b(self) -> Ordinal | None:
        return self.iso_f.get(self.anchor_a)


def validate_matched_pair(mp: MatchedPair, rho: RhoOracle) -> list[str]:
    """The levels and the first side, then the matchings, then the second side
    they derive, then the pair clauses; [] means ok."""
    out = []
    if not (is_omega_fixed(mp.alpha) and is_omega_fixed(mp.beta)):
        out.append("levels are not fixed under scaling by w")
    if not mp.alpha < mp.beta:
        out.append("first level must lie below the second")
    out.extend(_side_report("first", mp.pa, rho))
    out = out or _matching_report(mp)
    return out or _side_report("second", mp.pb, rho) or _pair_report(mp, rho)


def _side_report(name: str, cond: Condition, rho: RhoOracle) -> list[str]:
    """One side of a matched pair: a valid condition on a normal tree; a tree
    that fails validation is reported by its own lines alone."""
    out = [f"{name} condition: {line}" for line in validate_condition(cond, rho)]
    if not validate_tree(cond.tree) and not is_normal(cond.tree):
        out.append(f"{name} condition: tree is not normal")
    return out


def _matching_report(mp: MatchedPair) -> list[str]:
    """Both matchings cover the first side and are one to one, so the second
    side is their image and the order and maps carry over by construction."""
    out = []
    f, g = mp.iso_f, mp.iso_g
    if f.keys() != mp.pa.tree.nodes or len(set(f.values())) != len(f):
        out.append("node matching is not a bijection between the trees")
    if g.keys() != mp.pa.family.keys() or len(set(g.values())) != len(g):
        out.append("index matching is not a bijection between the domains")
    return out


def _pair_report(mp: MatchedPair, rho: RhoOracle) -> list[str]:
    """The clauses tying the two sides of a matched pair together, on valid sides."""
    out = []
    if mp.alpha not in mp.pa.tree.heights() or mp.beta not in mp.pb.tree.heights():
        out.append("anchor levels are not occupied")
    # the common tree: the first tree's nodes below alpha, with their links,
    # which the second tree must have below beta
    ta, tb = mp.pa.tree, mp.pb.tree
    common = frozenset(x for x in ta.nodes if x.height < mp.alpha)
    if frozenset(x for x in tb.nodes if x.height < mp.beta) != common or any(
        ta.parent.get(x) != tb.parent.get(x) for x in common
    ):
        out.append("second tree does not restrict to the common tree")
    if any(x >= mp.beta for x in ta.nodes):
        out.append("first tree has node labels at or above the second level")
    for x in common:
        if mp.iso_f[x] != x:
            out.append(f"node matching moves common node {x}")
    if mp.anchor_a not in mp.iso_f:
        out.append("node matching does not connect the anchors")
    if mp.anchor_a.height < mp.alpha:
        out.append("first anchor sits below the matched level")
    shared = sorted(mp.shared)
    if any(mp.iso_g[i] != i for i in shared):
        out.append("index matching moves a shared index")
    # rho premises
    for i, j in combinations(shared, 2):
        if rho.value(i, j) >= mp.alpha:
            out.append(f"shared indices {i}, {j} have rho at or above the level")
    floor = mp.pa.tree.level_below(mp.alpha)
    petal_a = sorted(mp.pa.family.keys() - shared)
    petal_b = sorted(mp.pb.family.keys() - shared)
    for zeta, tau in product(petal_a, petal_b):
        v = rho.value(zeta, tau)
        if v < floor:
            out.append(f"cross pair ({zeta}, {tau}) has rho below the common height")
        for gamma in shared:
            if v < min(rho.value(zeta, gamma), rho.value(tau, gamma)):
                out.append(f"cross pair ({zeta}, {tau}) undercuts its minimum through {gamma}")
    if 0 not in shared:
        out.append("index 0 must be shared")
    return out


def build_matched_pair(
    p: Condition,
    alpha: Ordinal,
    beta: Ordinal,
    x: Ordinal,
    fresh_index_base: int,
    rho: RhoOracle,
) -> MatchedPair:
    """Make a matched pair out of p and a shifted isomorphic copy.

    Heights from alpha upward move to beta and beyond (delta = alpha + d
    goes to beta + d) and their nodes are relabelled level by level; node
    labels below alpha are untouched.  Shared indices are chosen greedily:
    starting from 0, an index joins while all its rho-values into the block
    stay below alpha.  The remaining indices get fresh labels.  The oracle
    is extended so the copy validates and the cross-block premises hold.
    """
    _blame_input(p, rho, "build_matched_pair")
    if not is_normal(p.tree):
        raise ValueError("input tree is not normal")
    if alpha not in p.tree.heights():
        raise ValueError(f"level {alpha} is not occupied")
    if not (is_omega_fixed(alpha) and is_omega_fixed(beta)):
        raise ValueError("both levels must be fixed under scaling by w")
    if not alpha < beta:
        raise ValueError("levels must be ordered")
    if any(n >= beta for n in p.tree.nodes):
        raise ValueError("node labels must stay below the second level")
    if 0 not in p.family:
        raise ValueError("index 0 must be present")
    if x not in p.tree.nodes or x.height < alpha:
        raise ValueError("anchor must sit at or above the matched level")

    indices = sorted(p.family)
    shared: list[int] = [0]
    for i in indices:
        if i != 0 and all(rho.value(i, j) < alpha for j in shared):
            shared.append(i)
    petal = [i for i in indices if i not in shared]
    fresh = {zeta: fresh_index_base + k for k, zeta in enumerate(petal)}
    if set(fresh.values()) & set(indices):
        raise ValueError("fresh index labels collide with the existing domain")

    # level by level in ascending order, so the copy's nodes come in order too
    iso_f = {}
    for h in (ZERO, *p.tree.heights()):
        level = p.tree.sorted_level(h)
        if h < alpha:
            iso_f.update(zip(level, level))
        else:
            g = beta + left_subtract(alpha, h)
            iso_f.update((n, node_at(g, height_split(n)[1])) for n in level)
    mp = MatchedPair(
        pa=p,
        alpha=alpha,
        beta=beta,
        iso_f=iso_f,
        iso_g={i: i for i in shared} | fresh,
        anchor_a=x,
    )
    # extend the oracle: first whatever the copy's own levels demand of pairs
    # involving a fresh index, then the cross-block floor
    _raise_rho_for_copy(mp.pb, rho)
    floor = p.tree.level_below(alpha)
    for zeta, tau_fresh in product(petal, fresh.values()):
        need = floor
        for gamma in shared:
            need = max(need, min(rho.value(zeta, gamma), rho.value(tau_fresh, gamma)))
        if rho.value(zeta, tau_fresh) < need:
            rho.set_value(zeta, tau_fresh, need)
    # the levels and the first side passed the checks above, and the oracle was
    # raised only on pairs with a fresh index, which p does not carry, so p is
    # still valid: the matchings, the copy and the pair clauses are what is left
    # to check, and they fail only through a fault here
    report = _matching_report(mp) or _side_report("second", mp.pb, rho) or _pair_report(mp, rho)
    if report:
        raise RuntimeError(f"build_matched_pair produced an invalid pair: {'; '.join(report)}")
    object.__setattr__(mp, "_checked", (rho, rho.revision))
    return mp


def _raise_rho_for_copy(pb: Condition, rho: RhoOracle) -> None:
    """Raise rho to each level wherever two indices relate one pair on it.

    The relations of each level are read in the order of the pairwise clause
    of ``decide_rho_separation``.  The copy's maps are p's own relabelled, so
    they are level-preserving and injective.  No shared pair is ever raised: below
    alpha the copy's maps are p's own and p is valid, and a level beta + d
    copies the level alpha + d of p, where two related shared indices would
    need rho >= alpha + d, while the greedy shared block keeps it below alpha.
    """
    index = pb.tree._index
    levels = _relations_by_level(_ranked_family(pb.family, index.rank), index.lev)
    for k, level in enumerate(pb.tree.heights(), 1):
        for _, _, (_, t0), (_, t1) in multi_relations(levels.get(k, {})):
            if t0 != t1 and rho.value(t0, t1) < level:
                rho.set_value(t0, t1, level)


def amalgamate(mp: MatchedPair, rho: RhoOracle) -> Condition:
    """Glue a matched pair into one condition below both, ordering the anchors.

    The shared-map closure of the first anchor's base point is lifted to a
    consistent top-level support, fresh chains are laid under every unmatched
    top node of the copy, the copy is planted on top, and the two map
    families are merged: copied maps are closed downward, and on shared
    indices the closure must agree with the lifted maps where both speak.
    """
    if mp._checked is None or mp._checked[0] is not rho or mp._checked[1] != rho.revision:
        report = validate_matched_pair(mp, rho)
        if report:
            raise ValueError(f"matched pair does not validate: {'; '.join(report)}")
    pa, pb, alpha, beta = mp.pa, mp.pb, mp.alpha, mp.beta
    iso = mp.iso_f
    A = sorted(mp.shared)
    top_a = pa.tree.max_height()

    # closure of the anchor's base point under the shared maps, both ways
    base = pa.tree.restrict(mp.anchor_a, alpha)
    X_a, todo = {base}, [base]
    while todo:
        x = todo.pop()
        for tau in A:
            for y in (pa.family[tau].get(x), pa.family[tau].get_inverse(x)):
                if y is not None and y not in X_a:
                    X_a.add(y)
                    todo.append(y)
    X_b = frozenset(iso[x] for x in X_a)

    # fresh chains under every unmatched top node of the copy
    common_top = pa.tree.level_below(alpha)
    chain_heights = [h for h in pa.tree.heights() if h >= alpha]
    nodes = pa.tree.sorted_nodes()
    parent = pa.tree.parent.copy()
    labels = _FreshLabels(pa.tree)
    chain_top: dict[Ordinal, Ordinal] = {}
    for y in pb.tree.sorted_level(beta):
        if y in X_b:
            continue
        prev = pb.tree.restrict(y, common_top)
        for h in chain_heights:
            z = labels.take(h)
            nodes.append(z)
            parent[z] = prev
            prev = z
        chain_top[y] = prev
    t_plus = StandardTree(nodes, parent)
    p_plus = Condition(t_plus, pa.family)

    # bijectivize the cones over X_a, then a top-level support through a top
    # node over the anchor: the one-key lift of ``lift_with_support``, on the
    # witness order of X_a that the cone's first level decided
    cone, records = _bijectivize_cone(p_plus, alpha, frozenset(X_a), frozenset(A))
    if alpha == top_a:
        X_plus = frozenset(X_a)
    else:
        z_alpha = min(pa.tree.successors_at(mp.anchor_a, top_a) or {mp.anchor_a})
        shared_maps = {tau: cone.family[tau] for tau in A}
        X_plus = _one_key_lift(cone.tree, shared_maps, records[0].order, alpha, top_a, z_alpha)
    U = cone.tree

    # plant the copy: matched top nodes onto the support, the rest onto chains,
    # in one union of links. U and pb share only the common links, with equal
    # values; pb has no node on a height from alpha up to (not including) beta;
    # chain_top and support_for split pb's level beta between them.
    # below beta the copy is the common tree, which U holds, and every label of
    # U lies below beta: W's nodes are U's and then the copy's from beta up, in order
    support_for = {iso[U.restrict(z, alpha)]: z for z in X_plus}
    links = {**pb.tree.parent.copy(), **U.parent.copy(), **chain_top, **support_for}
    upper = pb.tree.sorted_nodes()
    W = StandardTree(U.sorted_nodes() + upper[bisect_left(upper, beta) :], links)

    merged = {**cone.family}
    for tau in sorted(pb.family):
        copied = _downward_close(W, pb.family[tau])
        if tau in merged:
            try:
                merged[tau] = merged[tau].with_pairs(copied)
            except ValueError as exc:
                raise RuntimeError(f"amalgamation is incoherent at index {tau}: {exc}")
        else:
            merged[tau] = copied
    out = _check_step(pa, Condition(W, merged), rho, "amalgamate", pb.tree.heights())
    if not leq(out, pb):
        raise RuntimeError("amalgamation does not extend the second condition")
    if not W.is_below(mp.anchor_a, mp.anchor_b):
        raise RuntimeError("amalgamation does not order the anchors")
    return out
