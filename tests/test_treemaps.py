from __future__ import annotations

import random

import pytest

from treeforcing.ordinals import ZERO, node_at, parse_ordinal
from treeforcing.treemaps import (
    TreeMap,
    _downward_close,
    agreement_pairs,
    classify_map,
    is_standard,
    tensor_downward_closure,
)
from treeforcing.trees import StandardTree, is_extension

from test_trees import fan_out, normalize, random_tree, simple_extend, t1

O = parse_ordinal


def downward_close_map(t: StandardTree, u: StandardTree, f: TreeMap) -> TreeMap:
    """``_downward_close`` into u, a simple extension of f's host t, and its
    postconditions: the closure is standard on u and restricts back to f on t."""
    g = _downward_close(u, f)
    assert is_standard(u, g)
    assert TreeMap(p for p in g if p[0] in t.nodes) == f
    return g


def random_closed_relation(t: StandardTree, rng: random.Random, n_pairs: int = 3) -> set:
    """A downward-closed subset of same-level pairs, not necessarily a function."""
    nodes = sorted(t.nodes)
    rel: set = set()
    for _ in range(n_pairs):
        a = rng.choice(nodes)
        peers = sorted(t.level(a.height))
        b = rng.choice(peers)
        for c in [ZERO] + [g for g in t.heights() if g <= a.height]:
            rel.add((t.restrict(a, c), t.restrict(b, c)))
    return rel


def random_standard_map(t: StandardTree, rng: random.Random, tries: int = 20) -> TreeMap:
    """Grow a standard map by closing single same-level links downward."""
    pairs: set = set()
    for _ in range(tries):
        a = rng.choice(sorted(t.nodes))
        peers = sorted(y for y in t.level(a.height) if y != a or a == ZERO)
        if not peers:
            continue
        b = rng.choice(peers)
        add = set()
        for c in [ZERO] + [g for g in t.heights() if g <= a.height]:
            add.add((t.restrict(a, c), t.restrict(b, c)))
        cand = pairs | add
        if classify_map(t, cand).standard:
            pairs = cand
    return TreeMap(pairs)


def test_treemap_rejects_duplicate_source():
    with pytest.raises(ValueError):
        TreeMap([(ZERO, ZERO), (ZERO, O("w"))])


def test_treemap_is_immutable():
    import copy
    import pickle

    w = O("w")
    f = TreeMap([(ZERO, ZERO), (w, O("w+1"))])
    for name in ("pairs", "_fwd", "_rev", "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(f, name, ())
    for name in ("pairs", "_fwd"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(f, name)
    assert f.pairs == ((ZERO, ZERO), (w, O("w+1"))) and f.get(w) == O("w+1")
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and g.get(w) == O("w+1") and g.get_inverse(O("w+1")) == w


def test_a_target_that_two_sources_share_has_no_preimage():
    import pickle

    w, w1, w2, w3 = O("w"), O("w+1"), O("w+2"), O("w+3")
    f = TreeMap([(w2, w), (ZERO, ZERO), (w1, w), (w3, w3)])
    assert f.get_inverse(w) is None and f.apply_signed(-1, w) is None
    assert f.get_inverse(w3) == w3 and f.get_inverse(ZERO) == ZERO and f.get_inverse(w1) is None
    assert list(f.inverse_pairs()) == [(ZERO, ZERO), (w3, w3)]
    assert f.image == {ZERO, w, w3} and f.domain == {ZERO, w1, w2, w3}
    assert f.get(w1) == f.get(w2) == w
    g = TreeMap(reversed(f.pairs))
    assert g == f and hash(g) == hash(f) == hash(f.pairs)
    h = pickle.loads(pickle.dumps(f))
    assert h == f and h.get_inverse(w) is None and list(h.inverse_pairs()) == list(f.inverse_pairs())
    # the first repeated source in sorted order is named, however the pairs come
    with pytest.raises(ValueError, match=r"^source w\+1 mapped twice$"):
        TreeMap([(w2, w3), (w2, w), (w1, w2), (w1, w1), (ZERO, ZERO)])


def test_classify_empty_map_is_standard():
    assert classify_map(t1(), []).standard


def test_classify_standard_example():
    t = t1()
    f = [(ZERO, ZERO), (O("w"), O("w+1"))]
    flags = classify_map(t, f)
    assert flags.standard


def test_classify_fixed_point():
    t = t1()
    flags = classify_map(t, [(ZERO, ZERO), (O("w"), O("w"))])
    assert not flags.fixed_point_free_off_root
    assert not flags.standard


def test_classify_not_downwards_closed():
    t = t1()
    flags = classify_map(t, [(O("w"), O("w+1"))])
    assert not flags.downwards_closed
    assert flags.functional and flags.level_preserving


def test_inverse_of_standard_map_strictly_increasing():
    # also: images of incomparable nodes stay incomparable
    for seed in range(60):
        t = normalize(random_tree(seed))
        f = random_standard_map(t, random.Random(seed))
        flipped = [(y, x) for x, y in f]
        assert classify_map(t, flipped).strictly_increasing
        for c, fc in f:
            for d, fd in f:
                if not t.is_below_eq(c, d) and not t.is_below_eq(d, c):
                    assert not t.is_below_eq(fc, fd) and not t.is_below_eq(fd, fc)


def test_standardness_survives_top_growth():
    # extensions that keep all levels up to the old top preserve every flag
    for seed in range(40):
        t = random_tree(seed)
        f = random_standard_map(t, random.Random(seed * 3 + 1))
        u = simple_extend(t, set(t.heights()) | {O("w*9")})
        assert set(u.heights()) & set(t.heights()) == set(t.heights())
        assert is_standard(u, f)
        v = fan_out(u, {min(t.nodes)}, len(u.immediate_successors(min(t.nodes))) + 1)
        assert is_standard(v, f)


def test_meet_height_characterisation_of_increasing_functions():
    # a downward-closed pair set is a strictly increasing function exactly when
    # meets never climb: ht(a0 ^ a1) <= ht(b0 ^ b1) for pairs (a0,b0), (a1,b1)
    hits = {True: 0, False: 0}
    for seed in range(200):
        rng = random.Random(seed)
        t = normalize(random_tree(seed % 50))
        rel = random_closed_relation(t, rng)
        flags = classify_map(t, rel)
        lhs = flags.functional and flags.strictly_increasing
        rhs = all(
            t.meet(a0, a1).height <= t.meet(b0, b1).height
            for a0, b0 in rel
            for a1, b1 in rel
        )
        assert lhs == rhs, (sorted(rel), flags)
        hits[lhs] += 1
    assert hits[True] and hits[False]


def test_meet_height_equality_characterises_injectivity():
    # for increasing level-preserving downward-closed functions:
    # injective iff ht(a0 ^ a1) == ht(f(a0) ^ f(a1)) throughout
    hits = {True: 0, False: 0}
    for seed in range(300):
        rng = random.Random(10_000 + seed)
        t = normalize(random_tree(seed % 50))
        rel = random_closed_relation(t, rng, n_pairs=2)
        flags = classify_map(t, rel)
        if not (flags.functional and flags.strictly_increasing and flags.level_preserving):
            continue
        f = TreeMap(rel)
        rhs = all(
            t.meet(a0, a1).height == t.meet(f.get(a0), f.get(a1)).height
            for a0 in f.domain
            for a1 in f.domain
        )
        assert flags.injective == rhs
        hits[flags.injective] += 1
    assert hits[True]


def test_standard_maps_preserve_meet_heights():
    for seed in range(60):
        t = normalize(random_tree(seed))
        f = random_standard_map(t, random.Random(seed + 99))
        for a0 in f.domain:
            for a1 in f.domain:
                assert t.meet(a0, a1).height == t.meet(f.get(a0), f.get(a1)).height


def test_agreement_pairs():
    f = TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])
    g = TreeMap([(ZERO, ZERO), (O("w"), O("w+2"))])
    assert agreement_pairs(f, f) == set(f.pairs)
    assert agreement_pairs(TreeMap(), f) == frozenset()
    assert agreement_pairs(f, g) == {(ZERO, ZERO)}


def test_tensor_downward_closure():
    t = t1()
    assert tensor_downward_closure(t, {(ZERO, ZERO)}) == {(ZERO, ZERO)}
    assert tensor_downward_closure(t, set()) == frozenset()
    got = tensor_downward_closure(t, {(O("w*2"), O("w*2"))})
    assert got == {(O("w*2"), O("w*2")), (O("w"), O("w")), (ZERO, ZERO)}
    with pytest.raises(ValueError):
        tensor_downward_closure(t, {(ZERO, O("w"))})


def test_downward_close_map_identity_extension():
    t = t1()
    f = TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])
    assert downward_close_map(t, t, f) == f


def test_downward_close_map_inserted_level():
    t = t1()
    f = TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])
    u = simple_extend(t, [O("1"), O("2"), O("3")])  # top growth only
    assert downward_close_map(t, u, f) == f

    # a map with a top pair over an inserted level gains exactly one new pair
    a3, b3 = node_at(O("3"), 0), node_at(O("3"), 1)
    t3 = StandardTree(
        [ZERO, O("w"), O("w+1"), a3, b3],
        {O("w"): ZERO, O("w+1"): ZERO, a3: O("w"), b3: O("w+1")},
    )
    g = TreeMap([(ZERO, ZERO), (O("w"), O("w+1")), (a3, b3)])
    assert is_standard(t3, g)
    u3 = simple_extend(t3, [O("1"), O("2"), O("3")])
    closed = downward_close_map(t3, u3, g)
    new_pairs = set(closed.pairs) - set(g.pairs)
    assert len(new_pairs) == 1
    ((a, b),) = new_pairs
    assert a.height == O("2")
    # the inserted-level pair relates exactly the drop-downs of the top pair
    assert u3.restrict(a3, O("2")) == a and u3.restrict(b3, O("2")) == b


def test_downward_close_map_third_bullet_equivalence():
    # at an inserted level a, next old level b: g links x,y in U_b iff it links
    # their drop-downs to a
    for seed in range(40):
        t = normalize(random_tree(seed))
        f = random_standard_map(t, random.Random(seed + 7))
        hs = list(t.heights())
        levels = [ZERO] + hs
        spot = None
        for lo, hi in zip(levels, levels[1:]):
            cand = lo + O("1")
            if cand < hi and cand not in hs:
                spot = (cand, hi)
        if spot is None:
            continue
        alpha, beta = spot
        u = simple_extend(t, set(hs) | {alpha})
        g = downward_close_map(t, u, f)
        assert TreeMap(p for p in g if p[0] in t.nodes) == f
        for x in u.level(beta):
            for y in u.level(beta):
                lhs = x in g.domain and g.get(x) == y
                drop = u.restrict(x, alpha)
                rhs = drop in g.domain and g.get(drop) == u.restrict(y, alpha)
                assert lhs == rhs
        assert is_extension(t, u)


def test_closing_a_tall_map_reads_two_chains_per_pair(monkeypatch):
    # two branches of 32 levels each, related by S on every third level
    heights = [O(str(h)) for h in range(1, 33)]
    nodes, parent = [ZERO], {}
    for k in (0, 1):
        below = ZERO
        for h in heights:
            x = node_at(h, k)
            nodes.append(x)
            parent[x], below = below, x
    t = StandardTree(nodes, parent)
    S = [(node_at(h, 0), node_at(h, 1)) for h in heights[::3]]
    calls = []
    chain_down = StandardTree.chain_down
    monkeypatch.setattr(StandardTree, "chain_down", lambda t, x: calls.append(x) or chain_down(t, x))
    monkeypatch.setattr(StandardTree, "restrict", lambda *a: pytest.fail("restrict was called"))
    closed = tensor_downward_closure(t, S)
    assert len(calls) == 2 * len(S)
    assert closed == {(ZERO, ZERO)} | {(node_at(h, 0), node_at(h, 1)) for h in heights[:31]}


def test_chain_reading_gives_every_drop_down():
    # the same set as restricting each pair to every occupied level at or below it
    for seed in range(30):
        t = random_tree(seed, levels=5)
        S = random_closed_relation(t, random.Random(seed), 4)
        levels = [ZERO, *t.heights()]
        want = {(t.restrict(x, b), t.restrict(y, b)) for x, y in S for b in levels if b <= x.height}
        assert tensor_downward_closure(t, S) == want
