from __future__ import annotations

import pytest

from treeforcing.forcing import (
    Condition,
    bijectivize_cone,
    bijectivize_level,
    bijectivize_level_with_record,
    lift_with_support,
    normalize_condition,
    validate_condition,
    leq,
)
from treeforcing.ordinals import ZERO, node_at, parse_ordinal
from treeforcing.separation import RhoOracle, is_consistent
from treeforcing.treemaps import TreeMap
from treeforcing.trees import StandardTree, unique_dropdowns

O = parse_ordinal
RHO = RhoOracle.zero()


def two_level_pair() -> Condition:
    """Levels {1, 2}; a0 -> a1 and b0 -> b1 under map 7; one successor each."""
    a0, a1 = node_at(O("1"), 0), node_at(O("1"), 1)
    b0, b1 = node_at(O("2"), 0), node_at(O("2"), 1)
    tree = StandardTree(
        [ZERO, a0, a1, b0, b1], {a0: ZERO, a1: ZERO, b0: a0, b1: a1}
    )
    fam = {7: TreeMap([(ZERO, ZERO), (a0, a1), (b0, b1)])}
    p = Condition(tree, fam)
    assert validate_condition(p, RHO) == []
    return p


def chain_three() -> Condition:
    """Levels {1, 2}; a0 -> a1 under 3 and a1 -> a2 under 8."""
    a = [node_at(O("1"), k) for k in range(3)]
    b = [node_at(O("2"), k) for k in range(3)]
    parent = {x: ZERO for x in a} | {b[i]: a[i] for i in range(3)}
    tree = StandardTree([ZERO] + a + b, parent)
    fam = {
        3: TreeMap([(ZERO, ZERO), (a[0], a[1])]),
        8: TreeMap([(ZERO, ZERO), (a[1], a[2])]),
    }
    p = Condition(tree, fam)
    assert validate_condition(p, RHO) == []
    return p


def test_singleton_no_relations_fans_out_only():
    p = two_level_pair()
    a0 = node_at(O("1"), 0)
    q = bijectivize_level(p, O("1"), {a0}, frozenset(), RHO)
    assert leq(q, p)
    assert q.family == p.family  # no selected indices: maps untouched
    assert len(q.tree.immediate_successors(a0)) >= 1


def test_pair_with_edge_becomes_fan_bijection():
    p = two_level_pair()
    a0, a1 = node_at(O("1"), 0), node_at(O("1"), 1)
    q, record = bijectivize_level_with_record(p, O("1"), {a0, a1}, {7}, RHO)
    g = q.family[7]
    fans0 = q.tree.immediate_successors(a0)
    fans1 = q.tree.immediate_successors(a1)
    # q = 2 listed nodes, block size 1: two successors each
    assert record.block_size == 1 and len(record.order) == 2
    assert len(fans0) == 2 and len(fans1) == 2
    assert {g.get(x) for x in fans0} == fans1
    assert fans0 <= g.domain and fans1 <= g.image
    # old pair survives
    assert g.get(node_at(O("2"), 0)) == node_at(O("2"), 1)


def test_record_partition_properties():
    p = chain_three()
    X = frozenset(node_at(O("1"), k) for k in range(3))
    q, record = bijectivize_level_with_record(p, O("1"), X, {3, 8}, RHO)
    assert validate_condition(q, RHO) == []
    order = record.order
    blocks = record.blocks
    pq = record.block_size * len(order)
    for i, a_i in enumerate(order):
        fan = q.tree.immediate_successors(a_i)
        assert len(fan) == pq
        row = blocks[i]
        assert sorted(x for blk in row for x in blk) == sorted(fan)
        assert all(len(blk) == record.block_size for blk in row)
        # old successors sit in the diagonal block
        assert p.tree.immediate_successors(a_i) <= set(row[i])
    for i, j, tau in record.edges:
        g = q.family[tau]
        f = p.family[tau]
        for k in range(len(order)):
            if k in (i, j):
                continue
            assert {g.get(x) for x in blocks[i][k]} == set(blocks[j][k])
        fresh_sources = [x for x in blocks[i][i] if x not in f.domain]
        assert {g.get(x) for x in fresh_sources} <= set(blocks[j][i])
        fresh_targets = [y for y in blocks[j][j] if y not in f.image]
        assert {g.get_inverse(y) for y in fresh_targets} <= set(blocks[i][j])


def test_record_is_hashable():
    p = chain_three()
    X = frozenset(node_at(O("1"), k) for k in range(3))
    _, record = bijectivize_level_with_record(p, O("1"), X, {3, 8}, RHO)
    _, again = bijectivize_level_with_record(p, O("1"), X, {3, 8}, RHO)
    assert again == record and hash(again) == hash(record)


def test_bijectivize_rejects_unseparated():
    p = two_level_pair()
    a0, a1 = node_at(O("1"), 0), node_at(O("1"), 1)
    fam = dict(p.family)
    fam[9] = TreeMap([(ZERO, ZERO), (a0, a1)])
    rho = RhoOracle.from_entries([(7, 9, O("1"))])
    p2 = Condition(p.tree, fam)
    assert validate_condition(p2, rho) == []
    with pytest.raises(ValueError, match="not separated"):
        bijectivize_level(p2, O("1"), {a0, a1}, {7, 9}, rho)


def test_cone_iterates_to_the_top():
    p = chain_three()
    # add a third level so the cone has two stages
    from treeforcing.forcing import extend_heights

    p = extend_heights(p, {O("3")}, RHO)
    p = normalize_condition(p, RHO)
    X = frozenset(node_at(O("1"), k) for k in range(3))
    q = bijectivize_cone(p, O("1"), X, {3, 8}, RHO)
    assert leq(q, p)
    for tau in (3, 8):
        g = q.family[tau]
        for x in X:
            y = g.get(x)
            if y is None or y not in X:
                continue
            assert q.tree.successors(x) <= g.domain
            assert q.tree.successors(y) <= g.image


def test_cone_top_level_is_identity():
    p = two_level_pair()
    a0 = node_at(O("1"), 0)
    q = bijectivize_cone(p, O("2"), {node_at(O("2"), 0)}, {7}, RHO)
    assert q is p or q == p


def test_lift_with_support_full_pipeline():
    p = chain_three()
    from treeforcing.forcing import extend_heights

    p = extend_heights(p, {O("3")}, RHO)
    p = normalize_condition(p, RHO)
    X = frozenset(node_at(O("1"), k) for k in range(3))
    b = min(y for y in p.tree.successors(node_at(O("1"), 1)) if y.height == O("3"))
    q, Y = lift_with_support(p, O("1"), X, {3, 8}, b, RHO)
    assert leq(q, p)
    assert b in Y
    assert unique_dropdowns(q.tree, Y, O("1"))
    assert {q.tree.restrict(y, O("1")) for y in Y} == X
    for tau in (3, 8):
        assert is_consistent(q.tree, q.family[tau], Y, O("1"))
