"""Shared instance generators for the property and acceptance suites.

Everything here is a deterministic function of the seeds it is given.  The
generators build structures (trees, families, conditions) independently of
the operations under test wherever an oracle comparison is at stake.
"""

from __future__ import annotations

import itertools
import random

from treeforcing.forcing import Condition, normalize_condition, validate_condition
from treeforcing.generate import GenBounds, gen_condition
from treeforcing.ordinals import ZERO, Ordinal, node_at, parse_ordinal
from treeforcing.separation import RhoOracle, WitnessOrder, decide_separation
from treeforcing.treemaps import TreeMap
from treeforcing.trees import StandardTree

O = parse_ordinal
ONE = O("1")


def level_tree(n: int) -> StandardTree:
    nodes = [node_at(ONE, k) for k in range(n)]
    return StandardTree([ZERO] + nodes, {x: ZERO for x in nodes})


def partial_fpf_injections(nodes: list[Ordinal]) -> list[tuple]:
    """All partial injective fixed-point-free maps on the node list."""
    out = []
    n = len(nodes)
    for dom_mask in range(2**n):
        dom = [nodes[i] for i in range(n) if dom_mask >> i & 1]
        for tgt in itertools.permutations(nodes, len(dom)):
            if all(a != b for a, b in zip(dom, tgt)):
                out.append(tuple(zip(dom, tgt)))
    return out


def random_level_family(
    rng: random.Random, n: int, max_indices: int
) -> tuple[StandardTree, dict[int, TreeMap], frozenset[Ordinal]]:
    """A one-level tree with a random family of standard maps on its level."""
    t = level_tree(n)
    X = frozenset(node_at(ONE, k) for k in range(n))
    fam = {}
    for tau in rng.sample(range(1, 12 * max_indices), rng.randint(0, max_indices)):
        srcs = rng.sample(sorted(X), rng.randint(0, n))
        tgts = rng.sample(sorted(X), len(srcs))
        pairs = [(a, b) for a, b in zip(srcs, tgts) if a != b]
        if pairs:
            pairs.append((ZERO, ZERO))
        fam[tau] = TreeMap(pairs)
    return t, fam, X


def fibred_family(
    rng: random.Random, width: int, fibre: int, max_indices: int
) -> tuple[StandardTree, dict[int, TreeMap], Ordinal, Ordinal]:
    """A two-level tree whose maps act coherently on fibres.

    Level 1 carries ``width`` nodes with ``fibre`` successors each on level 3
    (leaving room to insert a level in between).  Each map is a random partial
    injection on level 1, lifted to a bijection of the fibres above its pairs,
    then closed through the root.  Transfers between a set and its drop-downs
    are consistent by construction.
    """
    lows = [node_at(ONE, k) for k in range(width)]
    highs = {x: [node_at(O("3"), k * fibre + i) for i in range(fibre)] for k, x in enumerate(lows)}
    parent = {x: ZERO for x in lows}
    for x, ys in highs.items():
        for y in ys:
            parent[y] = x
    t = StandardTree([ZERO] + lows + [y for ys in highs.values() for y in ys], parent)
    fam = {}
    for tau in rng.sample(range(1, 12 * max_indices), rng.randint(1, max_indices)):
        srcs = rng.sample(lows, rng.randint(0, width))
        tgts = rng.sample(lows, len(srcs))
        pairs = [(ZERO, ZERO)]
        for a, b in zip(srcs, tgts):
            if a == b:
                continue
            pairs.append((a, b))
            shuffled = list(highs[b])
            rng.shuffle(shuffled)
            pairs.extend(zip(highs[a], shuffled))
        fam[tau] = TreeMap(pairs) if len(pairs) > 1 else TreeMap()
    return t, fam, ONE, O("3")


def condition_pool(count: int, bounds: GenBounds = GenBounds()) -> list[tuple[Condition, RhoOracle]]:
    return [gen_condition(seed, bounds) for seed in range(count)]


def separated_subset(
    rng: random.Random,
    fam: dict[int, TreeMap],
    level_nodes: frozenset[Ordinal],
    max_size: int = 4,
) -> frozenset[Ordinal] | None:
    """A random subset of the level on which the family is separated, if any."""
    nodes = sorted(level_nodes)
    for _ in range(6):
        size = rng.randint(1, min(max_size, len(nodes)))
        X = frozenset(rng.sample(nodes, size))
        if isinstance(decide_separation(fam, X), WitnessOrder):
            return X
    return None


def normal_layered_condition(seed: int) -> tuple[Condition, RhoOracle]:
    """A normal condition with two or three levels and light relation structure."""
    rng = random.Random(seed)
    bounds = GenBounds(max_heights=rng.randint(2, 3), max_level_width=4, max_indices=2, max_steps=8)
    p, rho = gen_condition(seed, bounds)
    p = normalize_condition(p, rho)
    assert validate_condition(p, rho) == []
    return p, rho
