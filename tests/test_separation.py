from __future__ import annotations

import itertools
import random

import pytest

from treeforcing.ordinals import ZERO, node_at, parse_ordinal
from treeforcing.separation import (
    Loop,
    PairwiseViolation,
    RhoOracle,
    WitnessOrder,
    decide_rho_separation,
    decide_separation,
    is_consistent,
    one_key_lift,
    oracle_from_spec,
)
from treeforcing.treemaps import TreeMap, is_standard
from treeforcing.trees import StandardTree, unique_dropdowns, validate_tree

from seed_reference import is_rho_separated_tuple, is_separated_tuple, relations_between
from test_treemaps import downward_close_map
from test_trees import normalize, simple_extend

O = parse_ordinal


def level_tree(n: int, height: str = "1") -> StandardTree:
    """Root plus n nodes on a single level."""
    h = O(height)
    nodes = [node_at(h, k) for k in range(n)]
    return StandardTree([ZERO] + nodes, {x: ZERO for x in nodes})


def close_map(t: StandardTree, pairs) -> TreeMap:
    """Close same-level links downward so the map is standard."""
    closed = set()
    for a, b in pairs:
        for c in [ZERO] + [g for g in t.heights() if g <= a.height]:
            closed.add((t.restrict(a, c), t.restrict(b, c)))
    return TreeMap(closed)


def brute_force_rho_separated(fam, X, rho, alpha) -> bool:
    """Try every listing order against the defining clauses, pruning early."""
    nodes = sorted(X)

    def ok_at(order, i) -> bool:
        triples = []
        for j in range(i):
            for m, tau in relations_between(fam, order[i], order[j]):
                triples.append((j, m, tau))
        for a in range(len(triples)):
            for b in range(a + 1, len(triples)):
                (j0, _, t0), (j1, _, t1) = triples[a], triples[b]
                if j0 != j1 or rho.value(t0, t1) < alpha:
                    return False
        return True

    def extend(order, rest) -> bool:
        if not rest:
            return True
        for k, cand in enumerate(rest):
            order.append(cand)
            if ok_at(order, len(order) - 1) and extend(order, rest[:k] + rest[k + 1 :]):
                return True
            order.pop()
        return False

    return extend([], nodes)


def test_rho_oracle_axioms():
    rho = RhoOracle.from_entries([(1, 2, O("w"))])
    assert rho.value(5, 5) == ZERO
    assert rho.value(1, 2) == rho.value(2, 1) == O("w")
    assert rho.value(3, 9) == ZERO
    with pytest.raises(ValueError):
        RhoOracle.from_entries([(4, 4, O("1"))])
    rho.set_value(4, 4, ZERO)  # allowed, a no-op


def test_seeded_oracle_is_deterministic():
    a = RhoOracle.seeded(9, [ZERO, O("1"), O("w")])
    b = RhoOracle.seeded(9, [ZERO, O("1"), O("w")])
    for i, j in [(0, 1), (0, 2), (1, 2), (3, 7)]:
        assert a.value(i, j) == b.value(i, j)


def test_oracle_from_spec():
    assert oracle_from_spec("zero").value(1, 2) == ZERO
    assert oracle_from_spec("const:w").value(1, 2) == O("w")
    assert oracle_from_spec("seed:4:0,1").value(1, 2) in {ZERO, O("1")}
    with pytest.raises(ValueError):
        oracle_from_spec("nope")
    with pytest.raises(ValueError, match=r"^unknown rho specification 'seed:1:0,1:junk'$"):
        oracle_from_spec("seed:1:0,1:junk")


def test_empty_seed_palette_is_an_error():
    with pytest.raises(ValueError, match="palette must be nonempty"):
        oracle_from_spec("seed:4:")
    # without a palette, seed:<n> draws from the default {0, 1, w}
    default = RhoOracle.seeded(4, [ZERO, O("1"), O("w")])
    got = oracle_from_spec("seed:4")
    assert [got.value(0, j) for j in range(1, 40)] == [default.value(0, j) for j in range(1, 40)]
    assert {got.value(0, j) for j in range(1, 40)} == {ZERO, O("1"), O("w")}


def test_separated_tuple_examples():
    t = level_tree(3)
    a0, a1, a2 = (node_at(O("1"), k) for k in range(3))
    fam = {5: close_map(t, [(a0, a1), (a1, a2)])}
    # a path: listing it from the start is separated
    assert is_separated_tuple(fam, (a0, a1, a2))
    assert decide_separation(fam, {a0, a1, a2}) == WitnessOrder((a0, a1, a2))

    # two indices relating the same pair is never separated
    fam2 = {5: close_map(t, [(a0, a1)]), 9: close_map(t, [(a0, a1)])}
    assert not is_separated_tuple(fam2, (a0, a1))
    verdict = decide_separation(fam2, {a0, a1})
    assert isinstance(verdict, PairwiseViolation)


def test_relation_free_tuple_trivially_separated():
    t = level_tree(4)
    X = t.level(O("1"))
    assert is_separated_tuple({}, tuple(sorted(X)))
    assert isinstance(decide_separation({}, X), WitnessOrder)


def test_rho_separated_tuple_examples():
    t = level_tree(2)
    a0, a1 = (node_at(O("1"), k) for k in range(2))
    fam = {5: close_map(t, [(a0, a1)]), 9: close_map(t, [(a0, a1)])}
    big = RhoOracle.from_entries([(5, 9, O("1"))])
    small = RhoOracle.zero()
    assert is_rho_separated_tuple(fam, (a0, a1), big, O("1"))
    assert not is_rho_separated_tuple(fam, (a0, a1), small, O("1"))
    # distinct back-targets are never tolerated
    a2 = node_at(O("1"), 2)
    t3 = level_tree(3)
    fam3 = {
        5: close_map(t3, [(a2, a0)]),
        9: close_map(t3, [(a2, a1)]),
    }
    assert not is_rho_separated_tuple(
        fam3, (a0, a1, a2), RhoOracle.constant(O("w")), O("1")
    )
    path = {5: close_map(t3, [(a0, a1), (a1, a2)])}
    assert is_separated_tuple(path, (a0, a1, a2))
    assert is_rho_separated_tuple(path, (a0, a1, a2), small, O("1"))
    # separation implies rho-separation: every separated listing of the
    # examples is rho-separated under both oracles
    separated = 0
    for f, nodes in ((fam, (a0, a1)), (fam3, (a0, a1, a2)), (path, (a0, a1, a2))):
        for order in itertools.permutations(nodes):
            if is_separated_tuple(f, order):
                separated += 1
                assert is_rho_separated_tuple(f, order, small, O("1"))
                assert is_rho_separated_tuple(f, order, big, O("1"))
    # the listings of fam3 and of path with the two-relation node not last
    assert separated == 8
    # not conversely: fam is rho-separated under big and separated in no listing
    for order in ((a0, a1), (a1, a0)):
        assert is_rho_separated_tuple(fam, order, big, O("1"))
        assert not is_separated_tuple(fam, order)


def test_diagonal_forces_pairwise_violation():
    # f(x) = y and f^{-1}(x) = y together demand rho(tau, tau) >= alpha, which
    # the zero diagonal denies at any positive level
    t = level_tree(2)
    a0, a1 = (node_at(O("1"), k) for k in range(2))
    fam = {5: close_map(t, [(a0, a1), (a1, a0)])}
    verdict = decide_rho_separation(fam, {a0, a1}, RhoOracle.constant(O("w^w")), O("1"))
    assert isinstance(verdict, PairwiseViolation)
    assert verdict.first[1] == verdict.second[1] == 5


def test_triangle_is_a_loop():
    t = level_tree(3)
    b0, b1, b2 = (node_at(O("1"), k) for k in range(3))
    fam = {
        5: close_map(t, [(b0, b1)]),
        9: close_map(t, [(b1, b2)]),
        11: close_map(t, [(b2, b0)]),
    }
    verdict = decide_rho_separation(fam, {b0, b1, b2}, RhoOracle.constant(O("w")), O("1"))
    assert isinstance(verdict, Loop)
    assert len(verdict.nodes) == 4
    assert verdict.nodes[0] == verdict.nodes[-1]
    assert len(set(verdict.nodes[:-1])) == 3
    # every ordering agrees with the clause-level definition
    for perm in itertools.permutations([b0, b1, b2]):
        assert not is_rho_separated_tuple(fam, perm, RhoOracle.constant(O("w")), O("1"))


def test_two_step_walk_is_not_a_loop():
    # c0 -> c1 -> c0 has p = 3, below the loop threshold
    t = level_tree(2)
    a0, a1 = (node_at(O("1"), k) for k in range(2))
    fam = {5: close_map(t, [(a0, a1)]), 9: close_map(t, [(a1, a0)])}
    verdict = decide_rho_separation(fam, {a0, a1}, RhoOracle.constant(O("w")), O("1"))
    assert isinstance(verdict, WitnessOrder)
    # with rho too small the same family fails pairwise instead
    verdict2 = decide_rho_separation(fam, {a0, a1}, RhoOracle.zero(), O("1"))
    assert isinstance(verdict2, PairwiseViolation)


def test_decide_separation_root_level():
    assert decide_separation({}, {ZERO}) == WitnessOrder((ZERO,))


def test_both_decisions_refuse_a_map_that_is_not_injective_on_every_level():
    t = level_tree(3)
    a0, a1, a2 = sorted(t.level(O("1")))
    merge = TreeMap([(ZERO, ZERO), (a0, a2), (a1, a2)])
    # the least index that fails is named, whatever order the family lists
    fam = {9: merge, 4: TreeMap([(ZERO, ZERO), (a2, a0)]), 6: merge}
    for X, alpha in (({ZERO}, ZERO), ({a0, a1, a2}, O("1")), ({a0}, O("1"))):
        with pytest.raises(ValueError, match=r"^map 6 fails injective$"):
            decide_separation(fam, X)
        with pytest.raises(ValueError, match=r"^map 6 fails injective$"):
            decide_rho_separation(fam, X, RhoOracle.constant(O("w")), alpha)


def test_decide_agrees_with_brute_force_smoke():
    rng = random.Random(2024)
    h = O("1")
    for _ in range(300):
        n = rng.randint(1, 5)
        t = level_tree(n)
        X = frozenset(node_at(h, k) for k in range(n))
        fam = {}
        for tau in rng.sample(range(1, 40), rng.randint(0, 3)):
            pairs = []
            srcs = rng.sample(sorted(X), rng.randint(0, n))
            tgts = rng.sample(sorted(X), len(srcs))
            pairs = [(a, b) for a, b in zip(srcs, tgts) if a != b]
            fam[tau] = close_map(t, pairs)
        rho = RhoOracle.seeded(rng.randint(0, 99), [ZERO, O("1")])
        got = decide_rho_separation(fam, X, rho, h)
        want = brute_force_rho_separated(fam, X, rho, h)
        assert isinstance(got, WitnessOrder) == want


def test_witness_order_relation_uniqueness():
    # once a set is separated, the relation between any two members is unique
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 5)
        t = level_tree(n)
        X = sorted(t.level(O("1")))
        fam = {}
        for tau in rng.sample(range(1, 30), rng.randint(1, 3)):
            srcs = rng.sample(X, rng.randint(0, n))
            tgts = rng.sample(X, len(srcs))
            fam[tau] = close_map(t, [(a, b) for a, b in zip(srcs, tgts) if a != b])
        verdict = decide_separation(fam, frozenset(X))
        if not isinstance(verdict, WitnessOrder):
            continue
        for x in X:
            for y in X:
                rels = relations_between(fam, x, y)
                assert len(rels) <= 1, (x, y, rels)


def consistency_fixture():
    # two levels; f maps the level-1 chain and level-2 fibres coherently
    t = StandardTree(
        [ZERO, O("w"), O("w+1"), O("w*2"), O("w*2+1")],
        {O("w"): ZERO, O("w+1"): ZERO, O("w*2"): O("w"), O("w*2+1"): O("w+1")},
    )
    f = TreeMap([(ZERO, ZERO), (O("w"), O("w+1")), (O("w*2"), O("w*2+1"))])
    assert validate_tree(t) == []
    assert is_standard(t, f)
    return t, f


def test_is_consistent():
    t, f = consistency_fixture()
    X = {O("w*2"), O("w*2+1")}
    assert is_consistent(t, f, X, O("1"))
    # removing the top pair breaks the upward transfer
    g = TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])
    assert not is_consistent(t, g, X, O("1"))
    # singleton with no relations is vacuously consistent
    assert is_consistent(t, g, {O("w*2")}, O("1"))
    with pytest.raises(ValueError):
        is_consistent(t, f, {O("w"), O("w*2")}, ZERO)


def one_key_fixture(chain_len: int):
    """A normal two-level tree with a chain family on the lower level."""
    h1, h2 = O("1"), O("2")
    lows = [node_at(h1, k) for k in range(chain_len)]
    highs = [node_at(h2, k) for k in range(2 * chain_len)]
    parent = {x: ZERO for x in lows}
    for i, y in enumerate(highs):
        parent[y] = lows[i % chain_len]
    t = StandardTree([ZERO] + lows + highs, parent)
    # one map chaining low_0 -> low_1 -> ... and matching fibres above
    pairs = [(ZERO, ZERO)]
    for i in range(chain_len - 1):
        pairs.append((lows[i], lows[i + 1]))
        pairs.append((highs[i], highs[i + 1]))
        pairs.append((highs[i + chain_len], highs[i + 1 + chain_len]))
    # wrap the top fibres of the last chain element back onto fresh targets is
    # unnecessary; leave the last column out of the domain
    t = normalize(t)
    f = TreeMap(pairs)
    assert is_standard(t, f)
    return t, f, lows, highs


def test_one_key_lift_singleton():
    t = normalize(level_tree(1))
    t2 = simple_extend(t, [O("1"), O("2")])
    t2 = normalize(t2)
    x = node_at(O("1"), 0)
    b = min(y for y in t2.successors(x) if y.height == O("2"))
    Y = one_key_lift(t2, {}, {x}, O("1"), O("2"), b)
    assert Y == {b}


def test_one_key_lift_single_edge():
    t, f, lows, highs = one_key_fixture(2)
    fam = {7: f}
    X = frozenset(lows)
    b = highs[1]  # above lows[1]
    Y = one_key_lift(t, fam, X, O("1"), O("2"), b)
    assert b in Y and len(Y) == 2
    # the partner is forced through the map: f(partner) == b
    partner = next(y for y in Y if y != b)
    assert f.get(partner) == b
    for tau in fam:
        assert is_consistent(t, fam[tau], Y, O("1"))


def test_one_key_lift_chain_three():
    t, f, lows, highs = one_key_fixture(3)
    fam = {7: f}
    X = frozenset(lows)
    for b in (highs[2], highs[1], highs[0]):
        Y = one_key_lift(t, fam, X, O("1"), O("2"), b)
        assert b in Y
        assert {t.restrict(y, O("1")) for y in Y} == X
        for tau in fam:
            assert is_consistent(t, fam[tau], Y, O("1"))


def test_one_key_lift_rejects_unseparated_family():
    t = normalize(level_tree(2))
    t = simple_extend(t, [O("1"), O("2")])
    t = normalize(t)
    a0, a1 = node_at(O("1"), 0), node_at(O("1"), 1)
    fam = {
        5: close_map(t, [(a0, a1)]),
        9: close_map(t, [(a0, a1)]),
    }
    b = min(y for y in t.successors(a0) if y.height == O("2"))
    with pytest.raises(ValueError, match="not separated"):
        one_key_lift(t, fam, {a0, a1}, O("1"), O("2"), b)


def _one_key_refusals():
    """(tree, family, X, alpha, beta, anchor, message) for each refusal of
    ``one_key_lift`` other than an unseparated family."""
    h1, h2 = O("1"), O("2")
    t, f, lows, highs = one_key_fixture(2)
    X = frozenset(lows)
    stray = node_at(h1, 2)  # a level-1 leaf: the tree is no longer normal
    leafy = StandardTree(t.nodes | {stray}, {**t.parent, stray: ZERO})
    # low_0 carries one successor and low_1 two: a map total on the first
    # cannot cover the second
    kept = [ZERO, *lows, highs[0], highs[1], highs[3]]
    lop = StandardTree(kept, {x: t.parent[x] for x in kept[1:]})
    partial = TreeMap([(ZERO, ZERO), (lows[0], lows[1]), (highs[0], highs[1])])
    yield leafy, {7: f}, X, h1, h2, highs[1], "tree is not normal"
    yield t, {7: f}, X, O("3"), h2, highs[1], "levels must be occupied with alpha below beta"
    yield t, {7: f}, X, h2, h1, highs[1], "levels must be occupied with alpha below beta"
    yield t, {7: f}, {highs[0]}, h1, h2, highs[1], "node set leaves its level"
    # the pair low_0 -> low_1 does not drop down to the root pair
    unclosed = TreeMap([(lows[0], lows[1])])
    yield t, {7: unclosed}, X, h1, h2, highs[1], "map 7 is not standard on the tree"
    anchor = "anchor node must sit at the target level over the node set"
    yield t, {7: f}, X, h1, h2, lows[1], anchor
    yield t, {7: partial}, X, h1, h2, highs[1], f"map 7 is not total on successors of {lows[0]}"
    onto = f"map 7 is not surjective onto successors of {lows[1]}"
    yield lop, {7: partial}, X, h1, h2, highs[1], onto


@pytest.mark.parametrize("t, fam, X, alpha, beta, b, message", list(_one_key_refusals()))
def test_one_key_lift_refusals(t, fam, X, alpha, beta, b, message):
    with pytest.raises(ValueError) as exc:
        one_key_lift(t, fam, X, alpha, beta, b)
    assert str(exc.value) == message


def test_consistency_propagates_to_intermediate_levels():
    # X consistent with its drop-downs to b stays consistent at levels between
    from instances import fibred_family

    hits = 0
    for seed in range(200):
        rng = random.Random(90_000 + seed)
        t, fam, alpha, beta = fibred_family(rng, rng.randint(2, 4), rng.randint(1, 2), 2)
        u = simple_extend(t, set(t.heights()) | {O("2")})
        closed = {tau: downward_close_map(t, u, f) for tau, f in fam.items()}
        level = sorted(u.level(beta))
        X = frozenset(rng.sample(level, rng.randint(1, len(level))))
        if not unique_dropdowns(u, X, alpha):
            continue
        if not all(is_consistent(u, closed[tau], X, alpha) for tau in closed):
            continue
        hits += 1
        mid = frozenset(u.restrict(x, O("2")) for x in X)
        assert unique_dropdowns(u, mid, alpha)
        for tau in closed:
            assert is_consistent(u, closed[tau], mid, alpha)
    assert hits >= 50


def test_downward_closures_consistent_at_inserted_level():
    # the closure of a map into a simple extension transfers the next level
    # faithfully onto an inserted one
    from instances import fibred_family

    for seed in range(200):
        rng = random.Random(95_000 + seed)
        t, fam, alpha, beta = fibred_family(rng, rng.randint(2, 3), rng.randint(1, 2), 2)
        u = simple_extend(t, set(t.heights()) | {O("2")})
        for tau, f in fam.items():
            g = downward_close_map(t, u, f)
            assert is_consistent(u, g, u.level(beta), O("2"))


def test_untouched_nodes_preserve_rho_separation():
    # nodes outside every domain and range extend any rho-separated set
    for seed in range(300):
        rng = random.Random(77_000 + seed)
        n = rng.randint(2, 6)
        t = level_tree(n)
        nodes = sorted(t.level(O("1")))
        touched_pool = nodes[: rng.randint(1, n)]
        fam = {}
        for tau in rng.sample(range(1, 30), rng.randint(1, 3)):
            srcs = rng.sample(touched_pool, rng.randint(0, len(touched_pool)))
            tgts = rng.sample(touched_pool, len(srcs))
            fam[tau] = close_map(t, [(a, b) for a, b in zip(srcs, tgts) if a != b])
        rho = RhoOracle.seeded(seed, [ZERO, O("1")])
        X = frozenset(touched_pool)
        verdict = decide_rho_separation(fam, X, rho, O("1"))
        if not isinstance(verdict, WitnessOrder):
            continue
        untouched = [
            y
            for y in nodes
            if all(y not in f.domain and y not in f.image for f in fam.values())
            and y not in X
        ]
        assert isinstance(
            decide_rho_separation(fam, X | frozenset(untouched), rho, O("1")),
            WitnessOrder,
        )
