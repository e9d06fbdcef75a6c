from __future__ import annotations

import random

import pytest

from treeforcing.ordinals import ZERO, node_at, parse_ordinal
from treeforcing.trees import (
    MalformedTreeError,
    StandardTree,
    _adds_simply,
    _fan_out,
    _normalize,
    _simple_extend,
    is_extension,
    is_hausdorff,
    is_normal,
    unique_dropdowns,
    validate_tree,
)

import seed_reference as ref

O = parse_ordinal


def downward_closure(t: StandardTree, Y) -> frozenset:
    out: set = set()
    for y in Y:
        out.update(t.chain_down(y))
    return frozenset(out)


def is_simple_extension(t: StandardTree, u: StandardTree) -> bool:
    """The definition's verdict, which the library's ``_adds_simply`` must
    share on every extension."""
    verdict = ref.is_simple_extension(t, u)
    assert verdict == (is_extension(t, u) and _adds_simply(t, u))
    return verdict


def simple_extend(t: StandardTree, B) -> StandardTree:
    """``_simple_extend`` and its postconditions: a valid tree, a simple
    extension of t, and exactly the heights B."""
    u = _simple_extend(t, frozenset(B))
    assert validate_tree(u) == []
    assert is_simple_extension(t, u)
    assert set(u.heights()) == set(B)
    return u


def normalize(t: StandardTree) -> StandardTree:
    """``_normalize`` and its postconditions: t itself, or a valid normal
    extension of t on the same heights."""
    u = _normalize(t)
    if u is not t:
        assert validate_tree(u) == []
        assert is_normal(u) and is_extension(t, u)
        assert u.heights() == t.heights()
    return u


def fan_out(t: StandardTree, X, n: int) -> StandardTree:
    """``_fan_out`` and its postconditions: t itself, or a valid extension
    of t on the same heights in which every node of X has n immediate
    successors."""
    u = _fan_out(t, frozenset(X), n)
    if u is not t:
        assert validate_tree(u) == []
        assert is_extension(t, u)
        assert all(len(u.immediate_successors(x)) == n for x in X)
        assert u.heights() == t.heights()
    return u


def t1() -> StandardTree:
    # 0 at the root; w, w+1 at level 1; w*2 at level 2 above w
    return StandardTree(
        [ZERO, O("w"), O("w+1"), O("w*2")],
        {O("w"): ZERO, O("w+1"): ZERO, O("w*2"): O("w")},
    )


def random_tree(seed: int, levels: int = 3, width: int = 3) -> StandardTree:
    """Grow a small valid tree by repeatedly attaching fresh leaves."""
    rng = random.Random(seed)
    t = StandardTree.root_only()
    palette = [O(s) for s in ("1", "2", "3", "w", "w+1")][: max(1, levels)]
    heights = sorted(rng.sample(palette, rng.randint(1, len(palette))))
    t = simple_extend(t, heights)
    for _ in range(rng.randint(0, 2 * width)):
        x = rng.choice(sorted(t.nodes))
        above = [g for g in t.heights() if g > x.height]
        if not above:
            continue
        t = fan_out(t, {x}, min(width, len(t.immediate_successors(x)) + 1))
    return t


def test_validate_singleton():
    assert validate_tree(StandardTree.root_only()) == []


def test_validate_t1_and_level_structure():
    t = t1()
    assert validate_tree(t) == []
    assert t.heights() == (O("1"), O("2"))
    assert t.level(O("1")) == {O("w"), O("w+1")}


def test_validate_flags_level_gap():
    # reparent w*2 directly to the root: its parent must sit at level 1
    bad = StandardTree(
        [ZERO, O("w"), O("w+1"), O("w*2")],
        {O("w"): ZERO, O("w+1"): ZERO, O("w*2"): ZERO},
    )
    report = validate_tree(bad)
    assert any("clause 3" in line for line in report)


def test_validate_flags_low_node():
    bad = StandardTree([ZERO, O("5")], {O("5"): ZERO})
    assert any("clause 1" in line for line in validate_tree(bad))


def test_restrict():
    t = t1()
    assert t.restrict(O("w*2"), O("1")) == O("w")
    assert t.restrict(O("w*2"), ZERO) == ZERO
    assert t.restrict(O("w*2"), O("2")) == O("w*2")
    with pytest.raises(ValueError):
        t.restrict(O("w"), O("2"))


@pytest.mark.parametrize(
    "x, b, error, message",
    [
        ("w*3", "1", ValueError, "node w*3 not in tree"),
        ("w*2", "3", ValueError, "level 3 is not occupied"),
        # w*2 links straight to the root, past the occupied level 1: the tree is
        # not layered, and is refused by its first validation line
        (
            "w*2",
            "1",
            MalformedTreeError,
            "clause 3: parent of w*2 sits at 0, expected the previous level 1",
        ),
    ],
)
def test_restrict_refusals(x, b, error, message):
    t = t1()
    if error is MalformedTreeError:
        t = StandardTree(t.nodes, {**t.parent, O("w*2"): ZERO})
    with pytest.raises(error) as exc:
        t.restrict(O(x), O(b))
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "query",
    [lambda t: t.chain_down(O("w*3")), lambda t: t.is_below(O("w"), O("w*3"))],
    ids=["chain_down", "is_below"],
)
def test_order_queries_refuse_a_node_outside_the_tree(query):
    with pytest.raises(MalformedTreeError) as exc:
        query(t1())
    assert str(exc.value) == "node w*3 is not in the tree"


def test_meet():
    t = t1()
    assert t.meet(O("w"), O("w")) == O("w")
    assert t.meet(O("w"), O("w+1")) == ZERO
    assert t.meet(O("w"), O("w*2")) == O("w")


def test_unique_dropdowns():
    t = t1()
    assert unique_dropdowns(t, {O("w*2")}, O("1"))
    u = fan_out(t, {O("w")}, 2)  # two siblings above w
    sibs = u.immediate_successors(O("w"))
    assert len(sibs) == 2
    assert not unique_dropdowns(u, sibs, O("1"))
    # distinct parents: drop-downs stay unique
    v = fan_out(u, {O("w+1")}, 1)
    pair = {min(sibs), min(v.immediate_successors(O("w+1")))}
    assert unique_dropdowns(v, pair, O("1"))


def test_downward_closure():
    t = t1()
    assert downward_closure(t, {ZERO}) == {ZERO}
    assert downward_closure(t, {O("w*2")}) == {ZERO, O("w"), O("w*2")}
    assert downward_closure(t, t.nodes) == t.nodes


def test_is_extension():
    t = t1()
    assert is_extension(t, t)
    u = fan_out(t, {O("w+1")}, 1)
    assert is_extension(t, u)
    rerouted = StandardTree(
        [ZERO, O("w"), O("w+1"), O("w*2")],
        {O("w"): ZERO, O("w+1"): ZERO, O("w*2"): O("w+1")},
    )
    assert not is_extension(t, rerouted)


def test_simple_extension_predicate():
    t = t1()
    assert is_simple_extension(t, t)
    u = fan_out(t, {O("w")}, 2)  # adds a node on an existing level
    assert is_extension(t, u) and not is_simple_extension(t, u)


def test_simple_extend_unchanged():
    t = t1()
    assert simple_extend(t, t.heights()) == t


def test_simple_extend_top_and_intermediate():
    t = t1()
    u = simple_extend(t, [O("1"), O("2"), O("3")])
    assert is_simple_extension(t, u)
    assert u.heights() == (O("1"), O("2"), O("3"))
    top = u.level(O("3"))
    assert len(top) == 1
    assert u.restrict(min(top), O("2")) in t.level(O("2"))

    v = simple_extend(t, [O("1"), O("2"), O("5"), O("7")])
    assert is_simple_extension(t, v)
    assert len(v.level(O("5"))) == 1 and len(v.level(O("7"))) == 1
    # chain growth: the 7-node sits above the 5-node
    assert v.restrict(min(v.level(O("7"))), O("5")) == min(v.level(O("5")))


def test_simple_extend_inserts_intermediate_level():
    u = simple_extend(t1(), [O("1"), O("w"), O("2")])
    assert set(u.heights()) == {O("1"), O("2"), O("w")}
    v = simple_extend(t1(), [O("1"), O("2"), O("3"), O("4")])
    assert is_simple_extension(t1(), v)


def test_simple_extend_rejects_missing_level():
    with pytest.raises(ValueError):
        simple_extend(t1(), [O("2"), O("3")])


def test_normal_and_hausdorff_trivia():
    assert is_normal(StandardTree.root_only())
    assert is_hausdorff(StandardTree.root_only())
    t = t1()
    assert not is_normal(t)  # w+1 has no level-2 successor
    assert is_hausdorff(t)  # no limit levels


def test_hausdorff_failure_at_limit_level():
    # level w above level 1, both level-w nodes above the same level-1 node
    w1 = node_at(O("w"), 0)
    w2 = node_at(O("w"), 1)
    t = StandardTree(
        [ZERO, O("w"), w1, w2],
        {O("w"): ZERO, w1: O("w"), w2: O("w")},
    )
    assert validate_tree(t) == []
    assert not is_hausdorff(t)
    # separating the drop-downs restores the property
    u = StandardTree(
        [ZERO, O("w"), O("w+1"), w1, w2],
        {O("w"): ZERO, O("w+1"): ZERO, w1: O("w"), w2: O("w+1")},
    )
    assert is_hausdorff(u)


def test_normalize():
    t = t1()
    u = normalize(t)
    assert is_normal(u)
    assert is_extension(t, u)
    assert set(u.heights()) == set(t.heights())
    added = u.nodes - t.nodes
    assert len(added) == 1 and u.parent[min(added)] == O("w+1")
    assert normalize(u) == u


def test_normalize_random():
    for seed in range(40):
        t = random_tree(seed)
        u = normalize(t)
        assert validate_tree(u) == []
        assert is_normal(u)
        assert is_extension(t, u)


def test_fan_out():
    t = t1()
    assert fan_out(t, frozenset(), 3) == t
    u = fan_out(t, {O("w")}, 3)
    assert len(u.immediate_successors(O("w"))) == 3
    assert u.nodes - t.nodes <= u.immediate_successors(O("w"))
    # n equal to the current maximum pads nothing new elsewhere
    v = fan_out(u, {O("w")}, 3)
    assert v == u
    with pytest.raises(ValueError):
        fan_out(u, {O("w")}, 2)


def test_meet_preserved_under_simple_extensions():
    # meets computed in the base tree survive any simple extension
    for seed in range(60):
        t = random_tree(seed)
        rng = random.Random(1000 + seed)
        extra = [O(s) for s in ("4", "6", "w*2", "w*2+1") if O(s) not in t.heights()]
        B = set(t.heights()) | set(rng.sample(extra, rng.randint(1, len(extra))))
        u = simple_extend(t, B)
        nodes = sorted(t.nodes)
        for x in nodes:
            for y in nodes:
                assert t.meet(x, y) == u.meet(x, y)


def test_simple_extension_transitive_on_chains():
    for seed in range(30):
        t = random_tree(seed)
        hs = set(t.heights())
        u = simple_extend(t, hs | {O("11")})
        w = simple_extend(u, hs | {O("11"), O("13")})
        assert is_simple_extension(t, u) and is_simple_extension(u, w)
        assert is_simple_extension(t, w)


def test_meet_through_inserted_level():
    # an inserted level's nodes meet old nodes where their upstairs neighbour does
    for seed in range(40):
        t = normalize(random_tree(seed))
        if len(t.heights()) < 2:
            continue
        hs = list(t.heights())
        mid = O("w*3")  # far above everything finite, below w*3+... pick dynamically
        # choose an unoccupied level strictly between two occupied ones
        gaps = []
        levels = [ZERO] + hs
        for lo, hi in zip(levels, levels[1:]):
            cand = lo + O("1")
            if cand < hi and cand not in hs:
                gaps.append((cand, hi))
        if not gaps:
            continue
        alpha, beta = gaps[-1]
        u = simple_extend(t, set(hs) | {alpha})
        for a0 in sorted(u.level(alpha)):
            ups = [z for z in u.level(beta) if u.is_below(a0, z)]
            assert len(ups) == 1  # unique drop-downs guarantee a unique successor
            a0p = ups[0]
            for a1 in sorted(t.nodes):
                if u.is_below_eq(a0p, a1) or u.is_below(a1, a0p) or a1 == a0p:
                    continue
                assert u.meet(a0, a1) == t.meet(a0p, a1)


def test_restrict_monotone_and_closure_idempotent():
    for seed in range(20):
        t = random_tree(seed)
        for x in sorted(t.nodes):
            for b in [ZERO] + [g for g in t.heights() if g <= x.height]:
                assert t.is_below_eq(t.restrict(x, b), x)
        Y = set(sorted(t.nodes)[: max(1, len(t.nodes) // 2)])
        c = downward_closure(t, Y)
        assert downward_closure(t, c) == c
        assert c <= downward_closure(t, t.nodes)


def test_parent_links_are_read_only():
    links = {O("w"): ZERO, O("w+1"): ZERO}
    t = StandardTree(frozenset([ZERO, O("w"), O("w+1")]), links)
    with pytest.raises(TypeError):
        t.parent[O("w+1")] = O("w")
    links[O("w+1")] = O("w")  # the tree keeps its own copy
    assert t.parent[O("w+1")] == ZERO
    assert t == StandardTree(frozenset(t.nodes), dict(t.parent))
    assert t == StandardTree(t.nodes, {O("w+1"): ZERO, O("w"): ZERO})
    assert t != t1()


def test_node_set_is_read_only():
    nodes = {ZERO, O("w")}
    t = StandardTree(nodes, {O("w"): ZERO})
    nodes.add(O("w*2"))  # the tree keeps its own frozen copy
    assert t.nodes == {ZERO, O("w")} and isinstance(t.nodes, frozenset)
    assert t.heights() == (O("1"),)
    frozen = frozenset(nodes)
    assert StandardTree(frozen, {}).nodes is frozen


def test_cyclic_links_are_reported_not_followed():
    w, w1 = O("w"), O("w+1")
    t = StandardTree([ZERO, w, w1], {w: w1, w1: w})
    assert validate_tree(t) == ref.validate_tree(t)
    assert validate_tree(t)[0].startswith("clause 3")
    for query in (t.order_pairs, lambda: t.chain_down(w), lambda: t.successors(ZERO)):
        with pytest.raises(MalformedTreeError, match="parent links cycle at w"):
            query()


def test_missing_link_is_a_named_error():
    t = StandardTree([ZERO, O("w"), O("w*2")], {O("w*2"): O("w")})
    assert validate_tree(t) == ["clause 2: non-root nodes without a parent link: w"]
    with pytest.raises(MalformedTreeError, match="node w has no parent link"):
        t.is_below(ZERO, O("w*2"))
    assert t.heights() == (O("1"), O("2"))  # the level structure needs no links


def _corrupt(rng: random.Random, t: StandardTree) -> StandardTree:
    nodes = set(t.nodes)
    parent = dict(t.parent)
    kind = rng.randrange(5)
    victim = rng.choice(sorted(nodes - {ZERO}) or [ZERO])
    if kind == 0 and victim in parent:
        del parent[victim]
    elif kind == 1 and victim != ZERO:
        parent[victim] = rng.choice(sorted(nodes))
    elif kind == 2:
        parent[ZERO] = victim
    elif kind == 3:
        nodes.discard(rng.choice(sorted(nodes)))
    else:
        nodes.add(node_at(victim.height + O("1"), 7))
    return StandardTree(frozenset(nodes), parent)


def test_tree_queries_match_parent_walks():
    rng = random.Random(11)
    for seed in range(150):
        t = random_tree(seed, levels=rng.randint(1, 5), width=rng.randint(1, 4))
        assert validate_tree(t) == []
        nodes = sorted(t.nodes)
        for x in nodes:
            assert t.successors(x) == ref.successors(t, x)
            nxt = t.level_above(x.height)
            want = frozenset(y for y in ref.successors(t, x) if y.height == nxt)
            assert t.immediate_successors(x) == want
            for y in nodes:
                assert t.is_below(x, y) == ref._is_below(t, x, y)
        assert t.order_pairs() == ref.order_pairs(t)
        assert t._index.layered and ref.layered(t)
        assert is_normal(t) == ref.is_normal(t) == ref.is_normal_per_level(t) == ref.normal(t)
        for _ in range(4):
            bad = _corrupt(rng, t)
            assert validate_tree(bad) == ref.validate_tree(bad)
            # the index's one walk decides the shape as the two passes do
            assert bad._index.layered == ref.layered(bad) == (ref.refusal(bad) is None)
            # normality is an order query: a tree that order queries refuse is
            # refused by name, and any other answers as the reference does
            refused = _outcome(StandardTree._order, bad)
            if isinstance(refused, tuple):
                assert refused == (MalformedTreeError, ref.refusal(bad))
                assert _outcome(is_normal, bad) == refused
            else:
                assert _outcome(is_normal, bad) == _outcome(ref.is_normal_per_level, bad)
                assert is_normal(bad) == ref.normal(bad)


def test_the_index_sorts_the_nodes_it_was_given():
    # in order, shuffled, with repeats, or a caller's list changed afterwards:
    # the ranks are the sorted labels, and the tree equals the one built from the set
    t = random_tree(5, levels=5, width=3)
    nodes = sorted(t.nodes)
    shuffled = nodes[:]
    random.Random(5).shuffle(shuffled)
    mutable = nodes[:]
    given = [nodes, tuple(shuffled), nodes + nodes[::2], mutable]
    built = [StandardTree(seq, t.parent) for seq in given]
    mutable.reverse()
    mutable.append(node_at(t.max_height() + O("1"), 0))
    for u in built:
        assert u == t
        assert u._index.labels == sorted(u.nodes) == nodes
        assert validate_tree(u) == []


def _outcome(query, t):
    try:
        return query(t)
    except Exception as exc:
        return type(exc), str(exc)


def test_is_normal_refuses_a_tree_without_a_level_below_its_top():
    # nothing lies below the top level of either tree, yet neither is layered
    w = node_at(O("1"), 0)
    rootless = StandardTree([w], {w: ZERO})
    finite = StandardTree([ZERO, O("5")], {O("5"): ZERO})
    with pytest.raises(MalformedTreeError, match="^clause 1: the root 0 is missing$"):
        is_normal(rootless)
    with pytest.raises(MalformedTreeError, match="^clause 1: node 5 is nonzero with height 0$"):
        is_normal(finite)
