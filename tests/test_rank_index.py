"""The tree index numbers nodes by their rank in ordinal order.

Each level is a run of consecutive ranks, and every order query that reads
the ranks must answer as the parent-link walks of ``tests/seed_reference.py``
do: on generated conditions, on the benchmark's check-ladder files and on
amalgamation outputs.  Validation names the nodes of its verdicts by their
labels again, so its lines on the ladder's loop and pair twins are the ones
the label-keyed index printed.  Trees whose links fail keep their clause
lines, their fault messages and their exit codes through the CLI; every
order query refuses a tree that is not layered by its first clause line.
"""

from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeforcing import trees
from treeforcing.cli import main
from treeforcing.codec import decode_condition
from treeforcing.forcing import (
    amalgamate,
    build_matched_pair,
    leq,
    normalize_condition,
    validate_condition,
)
from treeforcing.generate import GenBounds, gen_condition
from treeforcing.ordinals import ZERO
from treeforcing.treemaps import TreeMap, classify_map
from treeforcing.trees import MalformedTreeError, StandardTree

import seed_reference as ref
from instances import O
from test_acceptance import _matched_pair_instance
from test_hot_layers import _ladder_files
from test_trees import _corrupt, random_tree

BOUNDS = GenBounds(max_heights=4, max_level_width=6, max_indices=3, max_steps=10)


def check_ranks(t: StandardTree) -> None:
    """Ranks are the sorted labels, and level k holds the ranks starts[k] .. starts[k+1] - 1."""
    index = t._index
    assert index.labels == sorted(t.nodes)
    assert all(index.rank[x] == r for r, x in enumerate(index.labels))
    for k, h in enumerate((ZERO, *t.heights())):
        run = range(index.starts[k], index.starts[k + 1])
        assert [index.labels[r] for r in run] == sorted(x for x in t.nodes if x.height == h)
        assert all(index.lev[r] == k for r in run)
    assert index.starts[-1] == len(t.nodes)


def check_queries(t: StandardTree) -> None:
    """Every node and node pair answers as the reference's walks along the links."""
    nodes = sorted(t.nodes)
    heights = (ZERO, *t.heights())
    for x in nodes:
        above = ref.successors(t, x)
        assert t.chain_down(x) == ref._chain_down(t, x)
        for h in heights:
            assert t.successors_at(x, h) == frozenset(y for y in above if y.height == h)
            if h <= x.height:
                assert t.restrict(x, h) == ref._restrict(t, x, h)
        nxt = t.level_above(x.height)
        assert t.immediate_successors(x) == frozenset(y for y in above if y.height == nxt)
        for y in nodes:
            assert t.is_below(x, y) == ref._is_below(t, x, y)


def check_extension(t: StandardTree, u: StandardTree) -> None:
    for a, b in ((t, u), (u, t), (t, t), (t, StandardTree(t.nodes, t.parent))):
        assert trees.is_extension(a, b) == ref.is_extension(a, b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_ranks_agree_with_labels_on_generated_conditions(seed):
    p, rho = gen_condition(seed, BOUNDS)
    q = normalize_condition(p, rho)
    for t in (p.tree, q.tree):
        check_ranks(t)
        check_queries(t)
    check_extension(p.tree, q.tree)


def test_the_walk_decides_the_shape_of_the_check_ladder(tmp_path):
    # every ladder file is a condition, so its tree is layered; normality and
    # the ranks are read off the index, as the two-pass reference reads them
    for path in _ladder_files(tmp_path):
        t = decode_condition(Path(path).read_text(encoding="utf-8"))[0].tree
        assert t._index.layered and ref.layered(t)
        assert trees.is_normal(t) == ref.normal(t) == ref.is_normal(t)
        assert t._index.labels == sorted(t.nodes)


def test_ranks_agree_with_labels_on_the_check_ladder(tmp_path):
    files = {Path(path).stem: path for path in _ladder_files(tmp_path)}
    assert len(files) == 64
    conds = {name: decode_condition(Path(path).read_text(encoding="utf-8"))[0]
             for name, path in files.items()}
    for name, cond in conds.items():
        check_ranks(cond.tree)
        if len(cond.tree.nodes) <= 64:  # the 128-node rungs alone would double the run
            check_queries(cond.tree)
        if name.endswith("-q"):
            check_extension(conds[name[:-2] + "-p"].tree, cond.tree)


def test_ranks_agree_with_labels_on_amalgamation_outputs():
    glued = 0
    for seed in range(1, 60):
        try:
            p, alpha, beta, x, rho = _matched_pair_instance(seed)
            mp = build_matched_pair(p, alpha, beta, x, 500, rho)
        except ValueError:
            continue
        out = amalgamate(mp, rho)
        for t in (mp.pb.tree, out.tree):
            check_ranks(t)
            check_queries(t)
        check_extension(mp.pa.tree, out.tree)
        check_extension(mp.pb.tree, out.tree)
        glued += 1
    assert glued >= 10


def test_validation_lines_on_the_ladder_twins_are_the_label_keyed_ones(tmp_path):
    # the 32 lines, and their digest, as the label-keyed index printed them
    lines = []
    for path in _ladder_files(tmp_path):
        name = Path(path).stem
        if name.endswith(("-loop", "-pair")):
            p, rho = decode_condition(Path(path).read_text(encoding="utf-8"))
            lines += [f"{name}: {line}" for line in validate_condition(p, rho)]
    assert len(lines) == 32
    assert lines[:2] == [
        "flat-n8-k1-loop: clause 3 (separation): level 1: loop: w+3 -> w+2 -> w+4 -> w+3",
        "flat-n8-k1-pair: clause 3 (separation): level 1: pairwise-violation: w+3 and w+4 "
        "related by (m=1, index=1) and (m=1, index=2), rho below required level 1",
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "7fa0569c727c9b9db85d7029c4a8e74bd986541f2d5ec5740c5d84cdf4e3c91c"


# -- malformed trees through the CLI: clause lines, and the refusal of leq --------

EMPTY_MAP = '"indices": [0], "maps": {"0": []}'
MALFORMED = {
    "rootless": ('"nodes": ["w", "w+1"], "parents": [["w+1", "w"]]', [
        "clause 1 (tree): clause 1: the root 0 is missing",
        "clause 1 (tree): clause 2: non-root nodes without a parent link: w",
    ], "error: node w has no parent link"),
    "cycle": ('"nodes": ["0", "w", "w*2"], "parents": [["w", "w*2"], ["w*2", "w"]]', [
        "clause 1 (tree): clause 3: parent w*2 of w is not lower",
    ], "error: parent links cycle at w"),
    "outside": ('"nodes": ["0", "w", "w*2"], "parents": [["w", "0"], ["w*2", "w+5"]]', [
        "clause 1 (tree): clause 2: link w*2 -> w+5 leaves the node set",
    ], "error: node w+5 has no parent link"),
    # links that reach the root but are not layered: refused by the first line
    "skip": ('"nodes": ["0", "w", "w*3"], "parents": [["w", "0"], ["w*3", "0"]]', [
        "clause 1 (tree): clause 3: parent of w*3 sits at 0, expected the previous level 1",
    ], "error: clause 3: parent of w*3 sits at 0, expected the previous level 1"),
    "finite": ('"nodes": ["0", "5"], "parents": [["5", "0"]]', [
        "clause 1 (tree): clause 1: node 5 is nonzero with height 0",
    ], "error: clause 1: node 5 is nonzero with height 0"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_trees_keep_their_lines_and_exit_codes(tmp_path, capsys, name):
    tree, clauses, fault = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text("{" + tree + ", " + EMPTY_MAP + "}", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == clauses + ["invalid"]
    t = decode_condition(path.read_text(encoding="utf-8"))[0].tree
    assert not t._index.layered
    assert main(["leq", str(path), str(path)]) == 2
    assert capsys.readouterr().err == fault + "\n"
    # the same tree on both sides is still refused
    with pytest.raises(MalformedTreeError, match=f"^{re.escape(fault[len('error: '):])}$"):
        trees.is_extension(t, t)


@pytest.mark.parametrize("name", ["skip", "finite"])
def test_every_order_query_refuses_a_tree_that_is_not_layered(name):
    # the links reach the root, but not one occupied level at a time
    p = decode_condition("{" + MALFORMED[name][0] + ", " + EMPTY_MAP + "}")[0]
    t, message = p.tree, MALFORMED[name][2][len("error: "):]
    top = max(t.nodes)
    queries = [
        lambda: t.chain_down(top),
        lambda: t.is_below(ZERO, top),
        t.order_pairs,
        lambda: t.restrict(top, ZERO),
        lambda: t.meet(ZERO, top),
        lambda: t.successors(ZERO),
        lambda: t.successors_at(ZERO, top.height),
        lambda: t.immediate_successors(top),
        lambda: classify_map(t, [(ZERO, ZERO)]),
        lambda: trees.is_extension(t, t),
        lambda: trees.is_extension(t, StandardTree(t.nodes, t.parent)),
        lambda: leq(p, p),
    ]
    for query in queries:
        with pytest.raises(MalformedTreeError) as exc:
            query()
        assert str(exc.value) == message


def test_a_map_contains_itself_and_its_copies():
    f = TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])
    assert f.issubset(f) and f.issubset(TreeMap(f.pairs)) and TreeMap(f.pairs).issubset(f)
    assert not f.issubset(TreeMap([(ZERO, ZERO)]))


def test_classify_on_ranks_refuses_a_target_repeated_up_a_chain():
    # w lies below w*2 and both go to w*2: not strictly increasing, whichever
    # other clauses fail with it
    w, w2 = O("w"), O("w*2")
    t = StandardTree([ZERO, w, w2], {w: ZERO, w2: w})
    for pairs in ([(ZERO, ZERO), (w, w2), (w2, w2)], [(w, w2), (w2, w2)]):
        flags = classify_map(t, pairs)
        assert flags == ref.classify_map(t, pairs)
        assert not flags.strictly_increasing


def test_one_sort_builds_the_index_fields_of_the_per_height_grouping():
    """The levels read off one sort of the labels give the fields that
    grouping by height and sorting each level gave, on well-formed trees and
    on rootless, finite-label and corrupted ones."""
    w, w1 = O("w"), O("w+1")
    cases = [
        StandardTree([w], {w: ZERO}),
        StandardTree([w, w1], {w1: w}),
        StandardTree([ZERO, O("5")], {O("5"): ZERO}),
        StandardTree([ZERO, O("3"), w], {O("3"): ZERO, w: O("3")}),
        StandardTree.root_only(),
    ]
    rng = random.Random(5)
    for seed in range(60):
        t = random_tree(seed, levels=rng.randint(1, 5), width=rng.randint(1, 4))
        cases += [t, *(_corrupt(rng, t) for _ in range(3))]
    faults = 0
    for t in cases:
        index, want = t._index, ref.index_per_height(t)
        assert {name: getattr(index, name) for name in want} == want
        faults += index.fault is not None
    assert faults >= 20
