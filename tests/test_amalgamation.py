from __future__ import annotations

import dataclasses
import itertools

import pytest

from treeforcing import forcing
from treeforcing.forcing import (
    Condition,
    amalgamate,
    build_matched_pair,
    extend_heights,
    leq,
    normalize_condition,
    validate_condition,
    validate_matched_pair,
    widen_node,
)
from treeforcing.ordinals import ZERO, height_split, node_at, parse_ordinal
from treeforcing.separation import RhoOracle
from treeforcing.treemaps import TreeMap
from treeforcing.trees import StandardTree

O = parse_ordinal
ALPHA = O("w^w")
BETA = O("w^w*2")


def base_condition(with_edge: bool, petal_index: int | None = None) -> Condition:
    """A normal condition with levels {1, w^w} and maps on index 0 (and maybe one more)."""
    a0, a1 = node_at(O("1"), 0), node_at(O("1"), 1)
    u0, u1 = node_at(ALPHA, 0), node_at(ALPHA, 1)
    tree = StandardTree(
        [ZERO, a0, a1, u0, u1], {a0: ZERO, a1: ZERO, u0: a0, u1: a1}
    )
    if with_edge:
        fam = {0: TreeMap([(ZERO, ZERO), (a0, a1), (u0, u1)])}
    else:
        fam = {0: TreeMap([(ZERO, ZERO)])}
    if petal_index is not None:
        fam[petal_index] = TreeMap([(ZERO, ZERO)])
    return Condition(tree, fam)


def test_build_matched_pair_rejects_bad_level():
    rho = RhoOracle.zero()
    p = Condition.trivial()
    with pytest.raises(ValueError, match="not occupied"):
        build_matched_pair(p, ALPHA, BETA, ZERO, 100, rho)


def test_build_matched_pair_rejects_non_fixed_level():
    rho = RhoOracle.zero()
    p = base_condition(False)
    with pytest.raises(ValueError, match="fixed under scaling"):
        build_matched_pair(p, ALPHA, O("w^w+1"), node_at(ALPHA, 0), 100, rho)


def test_build_matched_pair_shape():
    rho = RhoOracle.zero()
    p = base_condition(with_edge=True)
    x = node_at(ALPHA, 0)
    mp = build_matched_pair(p, ALPHA, BETA, x, 100, rho)
    assert validate_matched_pair(mp, rho) == []
    assert mp.pa == p
    assert mp.shared == {0}
    # the copy is the identity below alpha and shifted above
    assert mp.iso_f[node_at(O("1"), 0)] == node_at(O("1"), 0)
    assert mp.iso_f[x] == node_at(BETA, 0)
    assert mp.anchor_b == node_at(BETA, 0)
    assert set(mp.pb.tree.heights()) == {O("1"), BETA}
    assert validate_condition(mp.pb, rho) == []


def test_build_matched_pair_with_petal_index():
    rho = RhoOracle.from_entries([(0, 5, ALPHA)])  # 5 cannot share the block with 0
    p = base_condition(with_edge=True, petal_index=5)
    x = node_at(ALPHA, 0)
    mp = build_matched_pair(p, ALPHA, BETA, x, 100, rho)
    assert mp.shared == {0}
    assert mp.iso_g == {0: 0, 5: 100}
    assert set(mp.pb.family) == {0, 100}
    # the cross premise was written into the oracle
    assert rho.value(5, 100) >= mp.pa.tree.level_below(ALPHA)
    assert validate_matched_pair(mp, rho) == []


def test_build_matched_pair_fresh_collision():
    rho = RhoOracle.from_entries([(0, 5, ALPHA)])
    p = base_condition(True, petal_index=5)
    with pytest.raises(ValueError, match="collide"):
        build_matched_pair(p, ALPHA, BETA, node_at(ALPHA, 0), 5, rho)


def test_amalgamate_minimal():
    # root-only maps: the glue is a disjoint-level stack with the anchors ordered
    rho = RhoOracle.zero()
    p = base_condition(with_edge=False)
    x = node_at(ALPHA, 0)
    mp = build_matched_pair(p, ALPHA, BETA, x, 100, rho)
    w = amalgamate(mp, rho)
    assert validate_condition(w, rho) == []
    assert leq(w, mp.pa)
    assert leq(w, mp.pb)
    assert w.tree.is_below(mp.anchor_a, mp.anchor_b)


def test_amalgamate_with_edge():
    # one shared-map edge at the matched level: the closure has two elements
    rho = RhoOracle.zero()
    p = base_condition(with_edge=True)
    x = node_at(ALPHA, 0)
    mp = build_matched_pair(p, ALPHA, BETA, x, 100, rho)
    w = amalgamate(mp, rho)
    assert validate_condition(w, rho) == []
    assert leq(w, mp.pa) and leq(w, mp.pb)
    assert w.tree.is_below(mp.anchor_a, mp.anchor_b)
    # both matched top nodes hang over the support, not over chains
    u1b = mp.iso_f[node_at(ALPHA, 1)]
    assert w.tree.restrict(u1b, ALPHA) == node_at(ALPHA, 1)


def test_amalgamate_with_petal():
    rho = RhoOracle.from_entries([(0, 5, ALPHA)])
    p = base_condition(with_edge=True, petal_index=5)
    x = node_at(ALPHA, 1)
    mp = build_matched_pair(p, ALPHA, BETA, x, 100, rho)
    w = amalgamate(mp, rho)
    assert validate_condition(w, rho) == []
    assert leq(w, mp.pa) and leq(w, mp.pb)
    assert w.tree.is_below(mp.anchor_a, mp.anchor_b)
    assert set(w.family) == {0, 5, 100}


def test_amalgamate_taller_condition():
    # an extra level above alpha: chains and supports pass through it
    rho = RhoOracle.zero()
    p = base_condition(with_edge=True)
    p = extend_heights(p, {ALPHA + O("1")}, rho)
    p = normalize_condition(p, rho)
    x = node_at(ALPHA, 0)
    mp = build_matched_pair(p, ALPHA, BETA, x, 100, rho)
    w = amalgamate(mp, rho)
    assert validate_condition(w, rho) == []
    assert leq(w, mp.pa) and leq(w, mp.pb)
    assert w.tree.is_below(mp.anchor_a, mp.anchor_b)
    # the copy's top block keeps its internal structure
    shifted = [h for h in w.tree.heights() if h >= BETA]
    assert shifted == [BETA, BETA + O("1")]


def test_amalgamate_anchor_above_alpha():
    rho = RhoOracle.zero()
    p = base_condition(with_edge=True)
    p = extend_heights(p, {ALPHA + O("1")}, rho)
    p = normalize_condition(p, rho)
    x = min(
        y
        for y in p.tree.successors(node_at(ALPHA, 0))
        if y.height == ALPHA + O("1")
    )
    mp = build_matched_pair(p, ALPHA, BETA, x, 100, rho)
    w = amalgamate(mp, rho)
    assert w.tree.is_below(mp.anchor_a, mp.anchor_b)
    assert validate_condition(w, rho) == []


def test_amalgamate_rejects_a_pair_whose_oracle_broke_a_premise():
    rho = RhoOracle.from_entries([(0, 5, ALPHA)])
    p = base_condition(with_edge=False, petal_index=5)
    mp = build_matched_pair(p, ALPHA, BETA, node_at(ALPHA, 0), 100, rho)
    rho.set_value(5, 100, ZERO)  # the cross premise wants at least the common height
    with pytest.raises(ValueError) as exc:
        amalgamate(mp, rho)
    assert str(exc.value) == (
        "matched pair does not validate: cross pair (5, 100) has rho below the common height"
    )


def test_build_matched_pair_blames_itself_for_an_invalid_copy(monkeypatch):
    # maps 0 and 5 relate the same pairs and rho keeps 5 out of the shared
    # block, so the copy validates only once rho(0, 100) is raised: skipping
    # that is a fault in the construction, not in its input
    p = base_condition(with_edge=True)
    p = Condition(p.tree, {0: p.family[0], 5: p.family[0]})
    rho = RhoOracle.from_entries([(0, 5, ALPHA)])
    monkeypatch.setattr(forcing, "_raise_rho_for_copy", lambda pb, rho: None)
    with pytest.raises(RuntimeError, match=r"^build_matched_pair produced an invalid pair: "):
        build_matched_pair(p, ALPHA, BETA, node_at(ALPHA, 0), 100, rho)


def test_a_replaced_pair_is_validated_again():
    rho = RhoOracle.zero()
    mp = build_matched_pair(base_condition(True), ALPHA, BETA, node_at(ALPHA, 0), 100, rho)
    moved = dataclasses.replace(mp, anchor_a=node_at(O("1"), 0))
    with pytest.raises(ValueError, match="first anchor sits below the matched level"):
        amalgamate(moved, rho)


def test_matchings_are_read_only():
    rho = RhoOracle.zero()
    mp = build_matched_pair(base_condition(True), ALPHA, BETA, node_at(ALPHA, 0), 100, rho)
    with pytest.raises(TypeError):
        mp.iso_f[ZERO] = node_at(ALPHA, 0)
    with pytest.raises(TypeError):
        mp.iso_g[0] = 100
    # a pair keeps its own copies of the matchings it was given
    iso_f, iso_g = dict(mp.iso_f), dict(mp.iso_g)
    copy = dataclasses.replace(mp, iso_f=iso_f, iso_g=iso_g)
    iso_f[ZERO], iso_g[0] = node_at(ALPHA, 0), 100
    assert copy == mp and validate_matched_pair(copy, rho) == []


def built_pairs():
    """Matched pairs over the base conditions, some taller and with sibling leaves."""
    u0 = node_at(ALPHA, 0)
    for edge, petal in ((False, None), (True, None), (True, 5)):
        rho = RhoOracle.from_entries([(0, 5, ALPHA)])
        base = base_condition(edge, petal)
        taller = normalize_condition(extend_heights(base, {ALPHA + O("1")}, rho), rho)
        forked = normalize_condition(widen_node(base, u0, 2, rho), rho)
        for p in (base, taller, forked):
            yield build_matched_pair(p, ALPHA, BETA, u0, 100, rho), rho


def test_a_swap_on_one_level_is_a_matching_or_moves_common_nodes():
    # swapping the targets of two nodes on one level gives a pair that is no
    # shift: at or above alpha it validates and amalgamates below both sides,
    # and below alpha it moves exactly the two common nodes
    tally = {"matched": 0, "copy changed": 0, "common": 0}
    for mp, rho in built_pairs():
        tree = mp.pa.tree
        for h in tree.heights():
            for x, y in itertools.combinations(sorted(tree.level(h)), 2):
                f = {**mp.iso_f, x: mp.iso_f[y], y: mp.iso_f[x]}
                swapped = dataclasses.replace(mp, iso_f=f)
                report = validate_matched_pair(swapped, rho)
                if h < ALPHA:
                    moved = [f"node matching moves common node {z}" for z in (x, y)]
                    assert sorted(report) == sorted(moved), (x, y)
                    tally["common"] += 1
                    continue
                assert report == [], (x, y)
                w = amalgamate(swapped, rho)
                assert leq(w, swapped.pa) and leq(w, swapped.pb), (x, y)
                assert w.tree.is_below(swapped.anchor_a, swapped.anchor_b), (x, y)
                tally["matched"] += 1
                tally["copy changed"] += swapped.pb != mp.pb
    assert tally == {"matched": 21, "copy changed": 18, "common": 9}


def test_pair_equality_ignores_the_derived_copy():
    rho = RhoOracle.zero()
    mp = build_matched_pair(base_condition(True), ALPHA, BETA, node_at(ALPHA, 0), 100, rho)
    assert "pb" not in {f.name for f in dataclasses.fields(mp)}
    twin = dataclasses.replace(mp)
    assert "pb" in vars(mp) and "pb" not in vars(twin)
    assert twin == mp
    assert twin.pb == mp.pb and twin.pb is not mp.pb
    assert twin == mp


def test_a_copy_through_a_matching_that_misses_part_of_the_first_side_is_refused_by_name():
    rho = RhoOracle.zero()
    mp = build_matched_pair(base_condition(True), ALPHA, BETA, node_at(ALPHA, 0), 100, rho)
    short = dataclasses.replace(mp, iso_f={x: y for x, y in mp.iso_f.items() if x != ALPHA})
    with pytest.raises(ValueError) as exc:
        short.pb
    assert str(exc.value) == "node matching is not a bijection between the trees"
    both = dataclasses.replace(short, iso_g={})
    with pytest.raises(ValueError) as exc:
        both.pb
    assert str(exc.value) == (
        "node matching is not a bijection between the trees; "
        "index matching is not a bijection between the domains"
    )


def _broken_pairs():
    """(name, pair, oracle, report) for each clause of ``validate_matched_pair``,
    each pair a built one with fields replaced."""
    a0, a1, u0 = node_at(O("1"), 0), node_at(O("1"), 1), node_at(ALPHA, 0)
    rho = RhoOracle.zero()
    mp = build_matched_pair(base_condition(False), ALPHA, BETA, u0, 100, rho)
    petal_rho = RhoOracle.from_entries([(0, 5, ALPHA)])
    petal = build_matched_pair(base_condition(True, 5), ALPHA, BETA, u0, 100, petal_rho)
    replace = dataclasses.replace
    stray = node_at(O("1"), 2)  # a level-1 leaf under the root
    leafy_tree = StandardTree(mp.pa.tree.nodes | {stray}, {**mp.pa.tree.parent, stray: ZERO})
    # built with its copy at w^w*3, so the first tree reaches the level w^w*2
    tall = normalize_condition(extend_heights(base_condition(False), {BETA}, rho), rho)
    tall_mp = build_matched_pair(tall, ALPHA, O("w^w*3"), u0, 100, rho)
    yield "unfixed level", replace(mp, alpha=O("w^w+1")), rho, [
        "levels are not fixed under scaling by w"
    ]
    yield "levels swapped", replace(mp, alpha=BETA, beta=ALPHA), rho, [
        "first level must lie below the second"
    ]
    yield "side not normal", replace(mp, pa=Condition(leafy_tree, mp.pa.family)), rho, [
        "first condition: tree is not normal"
    ]
    # a malformed first side is reported by its tree lines alone, never raised:
    # w+1 and w^w+1 link to each other, or w^w+1 links past level 1 to the root
    u1 = node_at(ALPHA, 1)
    cyclic = StandardTree(mp.pa.tree.nodes, {**mp.pa.tree.parent, a1: u1})
    yield "first side cyclic", replace(mp, pa=Condition(cyclic, mp.pa.family)), rho, [
        "first condition: clause 1 (tree): clause 3: parent w^w+1 of w+1 is not lower"
    ]
    skip = StandardTree(mp.pa.tree.nodes, {**mp.pa.tree.parent, u1: ZERO})
    yield "first side not layered", replace(mp, pa=Condition(skip, mp.pa.family)), rho, [
        "first condition: clause 1 (tree): clause 3: parent of w^w+1 sits at 0,"
        " expected the previous level 1"
    ]
    yield "second level too low", replace(tall_mp, beta=BETA), rho, [
        "anchor levels are not occupied",
        "first tree has node labels at or above the second level",
    ]
    short = {x: y for x, y in mp.iso_f.items() if x != u0}
    # level w^w stays put and level w^w+1 moves onto beta: the copy is a valid
    # normal tree, but its part below beta is more than the common tree
    taller = normalize_condition(extend_heights(base_condition(False), {ALPHA + O("1")}, rho), rho)
    taller_mp = build_matched_pair(taller, ALPHA, BETA, u0, 100, rho)
    low = {x: node_at(BETA, height_split(x)[1]) if x.height > ALPHA else x for x in taller_mp.iso_f}
    yield "second tree not over the common tree", replace(taller_mp, iso_f=low), rho, [
        "second tree does not restrict to the common tree",
    ]
    yield "node matching short", replace(mp, iso_f=short), rho, [
        "node matching is not a bijection between the trees"
    ]
    # a top-level leaf z beside u1, sent where u1 goes: the matching covers the
    # first tree and carries every parent link and map pair, but is not one to one
    z = node_at(ALPHA, 2)
    forked_tree = StandardTree(mp.pa.tree.nodes | {z}, {**mp.pa.tree.parent, z: a1})
    forked = Condition(forked_tree, mp.pa.family)
    yield "node matching not one to one", replace(
        mp, pa=forked, iso_f={**mp.iso_f, z: mp.iso_f[node_at(ALPHA, 1)]}
    ), rho, ["node matching is not a bijection between the trees"]
    yield "common nodes swapped", replace(mp, iso_f={**mp.iso_f, a0: a1, a1: a0}), rho, [
        f"node matching moves common node {a0}",
        f"node matching moves common node {a1}",
    ]
    yield "anchor below alpha", replace(mp, anchor_a=a0), rho, [
        "first anchor sits below the matched level"
    ]
    yield "index matching empty", replace(mp, iso_g={}), rho, [
        "index matching is not a bijection between the domains"
    ]
    yield "index matching not one to one", replace(petal, iso_g={0: 0, 5: 0}), petal_rho, [
        "index matching is not a bijection between the domains"
    ]
    yield "index matching swapped", replace(petal, iso_g={0: 100, 5: 0}), petal_rho, [
        "index matching moves a shared index",
    ]
    # built under zero, 5 joins the shared block; then rho(0, 5) reaches alpha
    shared = build_matched_pair(base_condition(True, 5), ALPHA, BETA, u0, 100, RhoOracle.zero())
    assert shared.shared == {0, 5}
    yield "shared rho raised", shared, RhoOracle.from_entries([(0, 5, ALPHA)]), [
        "shared indices 0, 5 have rho at or above the level"
    ]
    undercut = RhoOracle.from_entries([(0, 5, ALPHA), (0, 100, ALPHA), (5, 100, O("1"))])
    yield "cross pair undercut", petal, undercut, [
        "cross pair (5, 100) undercuts its minimum through 0"
    ]
    # index 0 of the copy renamed 7: no index is shared, every cross pair has rho 1
    renamed = replace(petal, iso_g={0: 7, 5: 100})
    cross = [(0, 5, ALPHA)] + [(i, j, O("1")) for i in (0, 5) for j in (7, 100)]
    yield "index 0 not shared", renamed, RhoOracle.from_entries(cross), ["index 0 must be shared"]


_BROKEN = list(_broken_pairs())


@pytest.mark.parametrize("mp, rho, report", [c[1:] for c in _BROKEN], ids=[c[0] for c in _BROKEN])
def test_every_matched_pair_clause_names_its_fault(mp, rho, report):
    assert sorted(validate_matched_pair(mp, rho)) == sorted(report)
