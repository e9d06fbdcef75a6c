"""Validation as one pass over ranked pairs, against a label-level reference.

``validate_condition`` ranks each map's pairs once, checks the map clauses
on those ranks and decides separation on the same ranks.  The reference
here reads labels only: ``classify_map`` on each map's pairs, and the seed
decision on each occupied level.  On generated conditions, mutated ones,
the benchmark's check ladder files and hand-built failures, both must give
the same lines in the same order, and twin oracles must be asked the same
pairs in the same order and end with the same table.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import fields
from pathlib import Path

from treeforcing.codec import decode_condition
from treeforcing.forcing import Condition, validate_condition
from treeforcing.generate import GenBounds, gen_condition
from treeforcing.ordinals import ZERO, node_at
from treeforcing.separation import RhoOracle, WitnessOrder
from treeforcing.treemaps import TreeMap, classify_map
from treeforcing.trees import StandardTree, validate_tree

import seed_reference as ref
from instances import O, ONE
from test_hot_layers import _ladder_files, _random_pairs, logged

TWO = O("2")
A = [node_at(ONE, k) for k in range(3)]  # level 1, under the root
B = [node_at(TWO, k) for k in range(3)]  # level 2, B[k] under A[k]
TREE = StandardTree([ZERO, *A, *B], {**{a: ZERO for a in A}, **dict(zip(B, A))})


def reference_lines(p: Condition, rho: RhoOracle) -> list[str]:
    """The three clauses on labels: the reference classification of each map,
    which must agree with the library's, then the seed decision per level."""
    out = [f"clause 1 (tree): {line}" for line in validate_tree(p.tree)]
    if out:
        return out
    for tau in sorted(p.family):
        pairs = p.family[tau].pairs
        try:
            flags = classify_map(p.tree, pairs)
        except ValueError as exc:
            out.append(f"clause 2 (maps): map {tau}: {exc}")
            continue
        assert flags == ref.classify_map(p.tree, pairs)
        if not flags.standard:
            bad = [c.name for c in fields(flags) if not getattr(flags, c.name)]
            out.append(f"clause 2 (maps): map {tau} fails {', '.join(bad)}")
    if out:
        return out
    for h in p.tree.heights():
        verdict = ref.decide_rho_separation(p.family, p.tree.level(h), rho, h)
        if not isinstance(verdict, WitnessOrder):
            out.append(f"clause 3 (separation): level {h}: {verdict}")
    return out


def same_lines(make) -> list[str]:
    """Validate ``make()``'s condition with the library and the reference on
    twin oracles; return the lines."""
    (p, rho), (p_ref, rho_ref) = make(), make()
    (rho, calls), (rho_ref, calls_ref) = logged(rho), logged(rho_ref)
    got = validate_condition(p, rho)
    assert got == reference_lines(p_ref, rho_ref)
    assert calls == calls_ref
    assert rho.entries() == rho_ref.entries()
    return got


def unchecked_map(pairs) -> TreeMap:
    """A map object holding any sorted pairs, a repeated source included,
    made past the constructor that refuses one."""
    f = object.__new__(TreeMap)
    object.__setattr__(f, "pairs", tuple(sorted(set(pairs))))
    return f


def on_tree(family: dict, entries=(), tree: StandardTree = TREE):
    """A maker of the condition and of a fresh oracle holding the entries."""
    return lambda: (Condition(tree, family), RhoOracle.from_entries(entries))


ROOT = (ZERO, ZERO)
HAND_BUILT = {
    "leaves the tree": (
        on_tree({0: TreeMap([ROOT, (A[0], node_at(ONE, 7))])}),
        ["clause 2 (maps): map 0: pair (w, w+7) leaves the tree"],
    ),
    "functional": (
        on_tree({0: unchecked_map([ROOT, (A[0], A[1]), (A[0], A[2])])}),
        ["clause 2 (maps): map 0 fails functional"],
    ),
    "injective": (
        on_tree({0: TreeMap([ROOT, (A[0], A[2]), (A[1], A[2])])}),
        ["clause 2 (maps): map 0 fails injective"],
    ),
    "level-preserving": (
        on_tree({0: TreeMap([ROOT, (A[0], B[1])])}),
        ["clause 2 (maps): map 0 fails level_preserving"],
    ),
    "strictly increasing": (
        on_tree({0: TreeMap([ROOT, (A[0], A[1]), (B[0], B[2])])}),
        ["clause 2 (maps): map 0 fails strictly_increasing, downwards_closed"],
    ),
    "downwards closed": (
        on_tree({0: TreeMap([ROOT, (B[0], B[1])])}),
        ["clause 2 (maps): map 0 fails downwards_closed"],
    ),
    "fixed-point free": (
        on_tree({0: TreeMap([ROOT, (A[0], A[0])])}),
        ["clause 2 (maps): map 0 fails fixed_point_free_off_root"],
    ),
    "two maps fail": (
        on_tree({3: TreeMap([ROOT, (A[1], A[1])]), 5: TreeMap([(A[2], node_at(TWO, 9))])}),
        [
            "clause 2 (maps): map 3 fails fixed_point_free_off_root",
            "clause 2 (maps): map 5: pair (w+2, w*2+9) leaves the tree",
        ],
    ),
    "loop": (
        on_tree({1: TreeMap([ROOT, (A[0], A[1]), (A[1], A[2])]), 2: TreeMap([ROOT, (A[0], A[2])])}),
        ["clause 3 (separation): level 1: loop: w+1 -> w -> w+2 -> w+1"],
    ),
    "pairwise above level 1": (
        on_tree(
            {tau: TreeMap([ROOT, (A[0], A[1]), (B[0], B[1])]) for tau in (1, 2)},
            [(1, 2, ONE)],
        ),
        [
            "clause 3 (separation): level 2: pairwise-violation: w*2 and w*2+1 related by "
            "(m=1, index=1) and (m=1, index=2), rho below required level 2"
        ],
    ),
    "separated": (
        on_tree(
            {tau: TreeMap([ROOT, (A[0], A[1]), (B[0], B[1])]) for tau in (1, 2)},
            [(1, 2, TWO)],
        ),
        [],
    ),
    "rootless tree": (
        on_tree({0: TreeMap()}, tree=StandardTree([A[0]], {A[0]: ZERO})),
        [
            "clause 1 (tree): clause 1: the root 0 is missing",
            "clause 1 (tree): clause 2: link w -> 0 leaves the node set",
        ],
    ),
}


def test_hand_built_failures_give_the_reference_lines():
    for name, (make, want) in HAND_BUILT.items():
        assert same_lines(make) == want, name


def test_generated_and_mutated_conditions_give_the_reference_lines():
    kinds = Counter()
    for seed in range(80):
        make = lambda seed=seed: gen_condition(seed, GenBounds(max_steps=10))  # noqa: E731
        kinds["valid" if not same_lines(make) else "invalid"] += 1
        # one map with pairs dropped and stray ones added, as in the flag tests
        rng = random.Random(seed)
        p, _ = make()
        tau = rng.choice(sorted(p.family))
        try:
            f = TreeMap(_random_pairs(rng, p.tree, {tau: p.family[tau]}))
        except ValueError:  # a source mapped twice
            continue
        lines = same_lines(lambda: (Condition(p.tree, {**p.family, tau: f}), make()[1]))
        kinds["mutated " + (lines[0].split(" (")[0] if lines else "valid")] += 1
    assert kinds["valid"] == 80, kinds
    assert kinds["mutated clause 2"] >= 20 and kinds["mutated valid"] >= 10, kinds


def test_ladder_files_give_the_reference_lines(tmp_path):
    kinds = Counter()
    for path in _ladder_files(tmp_path):
        text = Path(path).read_text(encoding="utf-8")
        lines = same_lines(lambda text=text: decode_condition(text))
        kinds[lines[0].split(": ")[2] if lines else "valid"] += 1
    assert set(kinds) == {"valid", "loop", "pairwise-violation"}, kinds
