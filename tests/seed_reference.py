"""Reference copies of the algorithms the library replaced.

The differential tests require the library to give byte-identical verdicts,
flags, validation reports and oracle tables to these.  Tree order queries
here walk the parent links directly, so the references do not lean on the
library's tree index.  ``SeedOrdinal`` is the dataclass ordinal whose
comparisons recurse through Python methods, and ``ProbingLabels`` the
fresh-node allocator that probes every offset from 0 upward, on labels
from ``node_at``, which builds w*h + k from its definition.
``is_normal_per_level`` probes every higher level through the library's
``successors_at``, so on malformed links it raises the library's errors.
``refusal`` names why order queries refuse a tree that is not layered.
``layered`` and ``normal`` decide a tree's shape in two passes, as the
library did before its index's walk decided both: the link faults first,
then a second pass over every rank.  ``leq_every_pair`` is the poset order
that checks the agreements of every pair of indices, shared maps included.
``index_per_height`` builds the tree index's rank fields as the library did
before it read the levels off one sort: grouped by height, then each level
sorted on its own.
``simple_extend_per_level`` and ``augment_per_step`` are the extensions that
build a whole new tree (and, for augmentation, a new map) for every
inserted level or added node; both return their output unchecked.

The paper's definitions live here too, stated on labels and left out of the
library, which decides them on ranks: ``relations_between`` for one pair of
nodes, ``is_separated_tuple`` and ``is_rho_separated_tuple`` for one listing
order, and ``is_simple_extension`` for two trees.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from treeforcing.forcing import ROOT_PAIR, Condition
from treeforcing.ordinals import ZERO, Ordinal
from treeforcing.separation import Loop, PairwiseViolation, WitnessOrder
from treeforcing.treemaps import MapFlags, TreeMap, agreement_pairs
from treeforcing.trees import MalformedTreeError, StandardTree, _FreshLabels
from treeforcing.trees import is_extension as tree_extension
from treeforcing.trees import _link_fault as link_fault


# -- ordinals: a frozen dataclass with recursive comparisons -----------------


@dataclass(frozen=True)
class SeedOrdinal:
    """The dataclass ordinal: generated ``__eq__`` and ``__hash__`` over
    ``(terms,)``, and a hand-written order that recurses into exponents."""

    terms: tuple = ()

    def __lt__(self, other):
        for (ea, ca), (eb, cb) in zip(self.terms, other.terms):
            if ea != eb:
                return ea < eb
            if ca != cb:
                return ca < cb
        return len(self.terms) < len(other.terms)

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return other < self

    def __ge__(self, other):
        return other <= self


def seed_ordinal(a):
    """The SeedOrdinal with the same terms as the library ordinal a."""
    return SeedOrdinal(tuple((seed_ordinal(e), c) for e, c in a.terms))


# -- separation: the definitions, on labels ----------------------------------


def relations_between(fam, x, y):
    """All (direction, index) with f_index^direction(x) == y, sorted."""
    out = []
    for tau in sorted(fam):
        if fam[tau].get(x) == y:
            out.append((1, tau))
        if fam[tau].get_inverse(x) == y:
            out.append((-1, tau))
    return out


def _triples_to_earlier(fam, order, i):
    out = []
    for j in range(i):
        for m, tau in relations_between(fam, order[i], order[j]):
            out.append((j, m, tau))
    return out


def is_separated_tuple(fam, order):
    """At most one relation from each element to the earlier part of the listing."""
    return all(len(_triples_to_earlier(fam, order, i)) <= 1 for i in range(len(order)))


def is_rho_separated_tuple(fam, order, rho, alpha):
    """Distinct relations to the earlier part must share their target and have rho >= alpha."""
    return all(
        _admissible(_triples_to_earlier(fam, order, i), rho, alpha) for i in range(len(order))
    )


def _admissible(triples, rho, alpha):
    for a in range(len(triples)):
        for b in range(a + 1, len(triples)):
            (j0, _, t0), (j1, _, t1) = triples[a], triples[b]
            if j0 != j1 or rho.value(t0, t1) < alpha:
                return False
    return True


# -- separation: every clause scans all node pairs -------------------------


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def _shortest_path(adjacency, x, y):
    prev = {x: x}
    queue = [x]
    while queue:
        cur = queue.pop(0)
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


def decide_rho_separation(fam, X, rho, alpha):
    X = frozenset(X)
    nodes = sorted(X)
    # clause 1: all multi-relations between a fixed pair need rho >= alpha
    for idx, x in enumerate(nodes):
        for y in nodes[idx:]:
            rels = relations_between(fam, x, y)
            for a in range(len(rels)):
                for b in range(a + 1, len(rels)):
                    (m0, t0), (m1, t1) = rels[a], rels[b]
                    if rho.value(t0, t1) < alpha:
                        return PairwiseViolation(x, y, (m0, t0), (m1, t1), alpha)
    # clause 2: no loops; scan deduplicated relation edges with union-find
    adjacency = {x: [] for x in nodes}
    seen_pairs = set()
    uf = _UnionFind()
    edges = sorted(
        {
            (min(a, b), max(a, b))
            for tau in sorted(fam)
            for a, b in fam[tau]
            if a in X and b in X and a != b
        }
    )
    for x, y in edges:
        if (x, y) in seen_pairs:
            continue
        seen_pairs.add((x, y))
        if uf.find(x) == uf.find(y):
            path = _shortest_path(adjacency, x, y)
            return Loop(tuple(path) + (x,))
        uf.union(x, y)
        adjacency[x].append(y)
        adjacency[y].append(x)
    # separated: build the witness order by segments
    order = []
    remaining = list(nodes)
    while remaining:
        segment = [remaining.pop(0)]
        grew = True
        while grew:
            grew = False
            for cand in list(remaining):
                if any(relations_between(fam, cand, member) for member in segment):
                    segment.append(cand)
                    remaining.remove(cand)
                    grew = True
                    break
        order.extend(segment)
    witness = WitnessOrder(tuple(order))
    if not is_rho_separated_tuple(fam, witness.order, rho, alpha):
        raise RuntimeError("witness order fails its own check; decision logic is broken")
    return witness


# -- map classification: the strictly-increasing clause over all pair pairs --


def _chain_down(t, x):
    out = [x]
    while out[-1] != ZERO:
        out.append(t.parent[out[-1]])
    return out


def _is_below(t, x, y):
    return x.height < y.height and x in _chain_down(t, y)[1:]


def _restrict(t, x, b):
    cur = x
    while cur.height != b:
        cur = t.parent[cur]
    return cur


def classify_map(t, pairs):
    ps = sorted(set(pairs))
    for x, y in ps:
        if x not in t.nodes or y not in t.nodes:
            raise ValueError(f"pair ({x}, {y}) leaves the tree")
    sources = [x for x, _ in ps]
    targets = [y for _, y in ps]
    heights = sorted({x.height for x in t.nodes} - {ZERO})
    pair_set = set(ps)
    downwards_closed = True
    for x, y in ps:
        h = min(x.height, y.height)
        for b in [ZERO] + [g for g in heights if g < h]:
            if (_restrict(t, x, b), _restrict(t, y, b)) not in pair_set:
                downwards_closed = False
    return MapFlags(
        functional=len(set(sources)) == len(ps),
        strictly_increasing=all(
            _is_below(t, b0, b1)
            for a0, b0 in ps
            for a1, b1 in ps
            if _is_below(t, a0, a1)
        ),
        injective=len(set(targets)) == len(ps),
        level_preserving=all(x.height == y.height for x, y in ps),
        downwards_closed=downwards_closed,
        fixed_point_free_off_root=all(x == ZERO for x, y in ps if x == y),
    )


# -- consistency: every pair of the node set --------------------------------


def is_consistent(t, f, X, b):
    X = frozenset(X)
    if not X:
        return True
    levels = {x.height for x in X}
    if len(levels) > 1:
        raise ValueError("node set spans several levels")
    (alpha,) = levels
    if not b < alpha:
        raise ValueError("reference level must lie below the node set")
    if len({_restrict(t, x, b) for x in X}) != len(X):
        raise ValueError("node set lacks unique drop-downs to the reference level")
    if not classify_map(t, f.pairs).standard:
        raise ValueError("map is not standard on the tree")
    for x in X:
        for y in X:
            if f.get(_restrict(t, x, b)) == _restrict(t, y, b) and f.get(x) != y:
                return False
    return True


# -- matched pairs: the copy's oracle demands, found by scanning all pairs ---


def raise_rho_for_copy(pb, shared, rho):
    b_tree, b_family = pb.tree, pb.family
    for level in b_tree.heights():
        nodes = sorted(b_tree.level(level))
        for idx, u in enumerate(nodes):
            for v in nodes[idx:]:
                rels = relations_between(b_family, u, v)
                for a in range(len(rels)):
                    for b2 in range(a + 1, len(rels)):
                        t0, t1 = rels[a][1], rels[b2][1]
                        if t0 == t1:
                            continue
                        if rho.value(t0, t1) < level:
                            if t0 in shared and t1 in shared:
                                raise ValueError(
                                    "shared indices would need rho above the level"
                                )
                            rho.set_value(t0, t1, level)


# -- trees: every order query walks the parent links ------------------------


def _names(items):
    return ", ".join(str(i) for i in sorted(items))


def validate_tree(t):
    out = []
    if ZERO not in t.nodes:
        out.append("clause 1: the root 0 is missing")
    for x in sorted(t.nodes):
        if x != ZERO and x.height == ZERO:
            out.append(f"clause 1: node {x} is nonzero with height 0")
    roots = t.nodes - set(t.parent)
    if roots - {ZERO}:
        out.append(f"clause 2: non-root nodes without a parent link: {_names(roots - {ZERO})}")
    for x, p in sorted(t.parent.items()):
        if x not in t.nodes or p not in t.nodes:
            out.append(f"clause 2: link {x} -> {p} leaves the node set")
        elif x == ZERO:
            out.append("clause 2: the root has a parent link")
    if out:
        return out
    heights = sorted({x.height for x in t.nodes} - {ZERO})
    for x, p in sorted(t.parent.items()):
        hx, hp = x.height, p.height
        if not hp < hx:
            out.append(f"clause 3: parent {p} of {x} is not lower")
            continue
        expected = max([g for g in heights if g < hx], default=ZERO)
        if hp != expected:
            out.append(
                f"clause 3: parent of {x} sits at {hp}, expected the previous level {expected}"
            )
    if out:
        return out
    for x in sorted(t.nodes):
        seen = {x}
        cur = x
        while cur != ZERO:
            cur = t.parent[cur]
            if cur in seen:
                return out + [f"clause 2: parent links cycle at {cur}"]
            seen.add(cur)
        hit = {y.height for y in seen}
        want = {g for g in heights if g < x.height} | {ZERO}
        if not want <= hit:
            out.append(f"clause 4: node {x} misses ancestors at {_names(want - hit)}")
    return out


def _link_fault(t, x):
    seen, cur = set(), x
    while cur != ZERO:
        if cur in seen:
            return f"parent links cycle at {cur}"
        seen.add(cur)
        if cur not in t.parent:
            return f"node {cur} has no parent link"
        if cur not in t.nodes:
            return f"node {cur} is not in the tree"
        cur = t.parent[cur]
    return None


def refusal(t):
    """Why order queries refuse t, or None when t is layered: the link fault
    of the first node whose links never reach the root through the node
    set, else the first validation line of a tree whose links skip a level."""
    for x in sorted(t.nodes):
        fault = _link_fault(t, x)
        if fault:
            return fault
    heights = [ZERO, *sorted({x.height for x in t.nodes} - {ZERO})]
    below = dict(zip(heights[1:], heights))
    layered = all(
        x == ZERO
        or (t.parent.get(x) in t.nodes and t.parent[x].height == below.get(x.height))
        for x in t.nodes
    )
    return None if layered else validate_tree(t)[0]


def index_per_height(t):
    """The rank index's labels, rank, starts, heights, lev, par and fault,
    built by grouping the nodes by height and sorting each level."""
    levels = {ZERO: []}
    for x in t.nodes:
        levels.setdefault(x.height, []).append(x)
    hs, labels, starts, lev = sorted(levels), [], [], []
    for k, h in enumerate(hs):
        starts.append(len(labels))
        labels += sorted(levels[h])
        lev += [k] * (len(labels) - starts[k])
    n = len(labels)
    starts.append(n)
    rank = dict(zip(labels, range(n)))
    root = rank.get(ZERO, -1)
    par, kids, tops = [-1] * n, [[] for _ in labels], [root] if root >= 0 else []
    for c, p in t.parent.items():
        rc, rp = rank.get(c, root), rank.get(p)
        if rc == root:
            continue
        if rp is not None:
            par[rc] = rp
            kids[rp].append(rc)
        elif p == ZERO:
            tops.append(rc)
    walked, stack = set(), tops
    while stack:
        r = stack.pop()
        walked.add(r)
        stack.extend(kids[r])
    off = [labels[r] for r in range(n) if r not in walked]
    return {
        "labels": labels,
        "rank": rank,
        "starts": starts,
        "heights": tuple(hs[1:]),
        "lev": lev,
        "par": par,
        "fault": link_fault(t, off[0]) if off else None,
    }


def layered(t):
    """No link fault, then, rank by rank, a link to a rank one level down."""
    index = index_per_height(t)
    lev, par, root = index["lev"], index["par"], index["rank"].get(ZERO, -1)
    return index["fault"] is None and all(
        par[r] >= 0 and lev[par[r]] == lev[r] - 1 for r in range(len(lev)) if r != root
    )


def normal(t):
    """Rank by rank below the top level, some rank links to it: on a layered
    tree, every node below the top has an immediate successor."""
    index = index_per_height(t)
    parents = set(index["par"])
    return all(r in parents for r in range(index["starts"][-2]))


def successors(t, x):
    return frozenset(y for y in t.nodes if _is_below(t, x, y))


def is_normal(t):
    heights = sorted({x.height for x in t.nodes} - {ZERO})
    for x in t.nodes:
        above = {y.height for y in successors(t, x)}
        if any(g > x.height and g not in above for g in heights):
            return False
    return True


def is_normal_per_level(t):
    """Normality probed at every higher occupied level, through the library's
    own ``successors_at``."""
    heights = t.heights()
    for x in t.nodes:
        for g in heights[bisect_right(heights, x.height) :]:
            if not t.successors_at(x, g):
                return False
    return True


def order_pairs(t):
    return frozenset((x, y) for y in t.nodes for x in _chain_down(t, y)[1:])


def order_pairs_checked(t):
    t._order()  # the library's fault check: a cycle or a missing link raises
    return order_pairs(t)


def is_extension(t, u):
    if not t.nodes <= u.nodes:
        return False
    pt, pu = order_pairs_checked(t), order_pairs_checked(u)
    if not pt <= pu:
        return False
    restricted = {(x, y) for (x, y) in pu if x in t.nodes and y in t.nodes}
    if restricted != pt:
        raise MalformedTreeError("extension is not an end-extension; inputs are not standard trees")
    return True


def is_simple_extension(t, u):
    """u extends t, adds nodes only on heights t leaves empty, and each new
    height a below t's top has unique drop-downs: the nodes of u on t's
    least height above a drop down to distinct nodes on a."""
    if not is_extension(t, u):
        return False
    old = {x.height for x in t.nodes}
    if any(x.height in old for x in u.nodes - t.nodes):
        return False
    for a in {x.height for x in u.nodes} - old:
        above = [h for h in old if a < h]
        if above:
            level = [x for x in u.nodes if x.height == min(above)]
            if len({_restrict(u, x, a) for x in level}) != len(level):
                return False
    return True


# -- fresh labels: probe offsets 0, 1, 2, ... on every take ------------------


def node_at(height, offset):
    """The label w*height + offset from the definition: w times a sum of
    terms w^e*c is, by left distributivity, the sum of the terms w^(1+e)*c."""
    one = Ordinal.from_int(1)
    node = ZERO
    for e, c in height.terms:
        node = node + Ordinal(((one + e, c),))
    return node + Ordinal.from_int(offset)


class ProbingLabels:
    """The allocator that probes: each take is the least label w*h + k on
    height h that is not yet used, found by trying k = 0, 1, 2, ...; it reads
    the whole node set of the tree it is built from."""

    def __init__(self, t):
        self.used = set(t.nodes)

    def take(self, height):
        k = 0
        while node_at(height, k) in self.used:
            k += 1
        node = node_at(height, k)
        self.used.add(node)
        return node


# -- extensions: a new tree for every inserted level or added node -----------


def simple_extend_per_level(t, B):
    """The simple extension with heights B, one level at a time: a level above
    the top grows a chain over a top node, a middle level gets one fresh node
    under each node of the next level, linked to its drop-down below."""
    B = frozenset(B)
    if ZERO in B:
        raise ValueError("0 cannot be an occupied height")
    missing = set(t.heights()) - B
    if missing:
        raise ValueError(f"height set drops occupied levels: {_names(missing)}")
    cur = t
    labels = _FreshLabels(t)
    for a in sorted(B - set(t.heights())):
        nodes = set(cur.nodes)
        parent = dict(cur.parent)
        if a > cur.max_height():
            top = min(cur.level(cur.max_height()) if cur.heights() else {ZERO})
            z = labels.take(a)
            nodes.add(z)
            parent[z] = top
        else:
            delta = cur.level_above(a)
            beta = cur.level_below(a)
            for x in sorted(cur.level(delta)):
                z = labels.take(a)
                nodes.add(z)
                parent[z] = cur.restrict(x, beta)
                parent[x] = z
        cur = StandardTree(frozenset(nodes), parent)
    return cur


def augment_per_step(p, s, x):
    """x put into the domain and then the range of the map at s, one fresh
    node and one new condition per missing step of x's chain."""
    if x not in p.tree.nodes:
        raise ValueError(f"node {x} not in tree")
    q = p if s in p.family else Condition(p.tree, {**p.family, s: TreeMap()})
    labels = _FreshLabels(p.tree)
    for ensure_domain in (True, False):
        for step in reversed(q.tree.chain_down(x)):
            f = q.family[s]
            if step in (f.domain if ensure_domain else f.image):
                continue
            if step == ZERO:
                q = Condition(q.tree, {**q.family, s: f.with_pairs([ROOT_PAIR])})
                continue
            anchor = q.tree.parent[step]
            mate = f.get(anchor) if ensure_domain else f.get_inverse(anchor)
            if mate is None:
                raise RuntimeError("augmentation lost the parent link")
            z = labels.take(step.height)
            tree = StandardTree(q.tree.nodes | {z}, {**q.tree.parent, z: mate})
            new_pair = (step, z) if ensure_domain else (z, step)
            q = Condition(tree, {**q.family, s: f.with_pairs([new_pair])})
    return q


# -- the poset order: the agreements of every pair of indices ----------------


def leq_every_pair(q, p):
    """``forcing.leq`` without its skip of the index pairs whose maps q
    shares with p."""
    if not tree_extension(p.tree, q.tree):
        return False
    for tau in p.indices():
        if tau not in q.family or not p.family[tau].issubset(q.family[tau]):
            return False
    for g, t in combinations(p.indices(), 2):
        anchors = {x for x, _ in agreement_pairs(p.family[g], p.family[t])}
        for x, _ in agreement_pairs(q.family[g], q.family[t]) - {ROOT_PAIR}:
            if not any(q.tree.is_below_eq(x, z) for z in anchors):
                return False
    return True
