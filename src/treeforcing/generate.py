"""Seeded random condition generators.

Everything is a deterministic function of its seed: conditions are grown by
a random walk over the constructive operations, so they are valid by
construction, and the walk's choices come from one ``random.Random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import ops
from .forcing import Condition
from .ordinals import parse_ordinal
from .separation import RhoOracle

# the operation-table entries a walk draws from, in the order the seeded draw
# indexes them; the last two only once the tree has two occupied heights
WALK_OPS = ("add_index", "augment", "extend_heights", "widen_node", "grow_node",
            "normalize_condition", "hausdorffize", "fan_out_condition", "bijectivize_level")

HEIGHT_PALETTE = tuple(
    parse_ordinal(s) for s in ("1", "2", "3", "4", "5", "w", "w+1", "w*2", "w^2")
)


@dataclass(frozen=True)
class GenBounds:
    max_heights: int = 4
    max_level_width: int = 6
    max_indices: int = 3
    max_steps: int = 10


def _node_budget_ok(p: Condition, bounds: GenBounds) -> bool:
    return all(size < bounds.max_level_width for size in p.tree.level_sizes())


def random_step(
    rng: random.Random, p: Condition, rho: RhoOracle, bounds: GenBounds
) -> tuple[str, Condition] | None:
    """Apply one randomly chosen operation with randomly chosen arguments.

    Returns (operation name, new condition), or None when the draw was
    inapplicable under the bounds; an operation that refuses the drawn
    arguments raises ``ValueError``.  Either way the caller just draws again.
    """
    nodes = p.tree.sorted_nodes()
    heights = p.tree.heights()
    name = rng.choice(WALK_OPS if len(heights) >= 2 else WALK_OPS[:-2])

    if name == "add_index":
        if len(p.family) >= bounds.max_indices:
            return None
        s = rng.randrange(0, 4 * bounds.max_indices)
        if s in p.family:
            return None
        args = {"index": s}

    elif name == "augment":
        if not _node_budget_ok(p, bounds):
            return None
        s = rng.choice(sorted(p.family)) if p.family else 0
        args = {"index": s, "node": rng.choice(nodes)}

    elif name == "extend_heights":
        fresh = [h for h in HEIGHT_PALETTE if h not in heights]
        if not fresh or len(heights) >= bounds.max_heights:
            return None
        Z = set(rng.sample(fresh, rng.randint(1, min(2, len(fresh)))))
        if len(heights) + len(Z) > bounds.max_heights:
            return None
        args = {"heights": Z}

    elif name == "widen_node":
        if not _node_budget_ok(p, bounds) or len(heights) >= bounds.max_heights:
            return None
        args = {"node": rng.choice(nodes), "count": rng.randint(1, 3)}

    elif name == "grow_node":
        if not _node_budget_ok(p, bounds):
            return None
        x = rng.choice(nodes)
        above = [h for h in heights if h > x.height]
        if not above:
            return None
        args = {"node": x, "height": rng.choice(above)}

    elif name == "normalize_condition":
        if not _node_budget_ok(p, bounds):
            return None
        args = {}

    elif name == "hausdorffize":
        if len(heights) >= bounds.max_heights:
            return None
        args = {}

    elif name == "fan_out_condition":
        if not _node_budget_ok(p, bounds):
            return None
        alpha = rng.choice(heights[:-1])
        X = frozenset(rng.sample(p.tree.sorted_level(alpha), 1))
        n = max(len(p.tree.immediate_successors(x)) for x in X) + rng.randint(0, 1)
        args = {"nodes": X, "count": max(n, 1)}

    else:  # bijectivize_level
        alpha = heights[-2]
        level = p.tree.sorted_level(alpha)
        X = frozenset(rng.sample(level, min(len(level), rng.randint(1, 2))))
        A = frozenset(rng.sample(sorted(p.family), min(len(p.family), 2)))
        size = len(X) * max(
            (len(p.tree.immediate_successors(x)) for x in X), default=1
        )
        if size * len(X) > bounds.max_level_width:
            return None
        args = {"level": alpha, "nodes": X, "indices": A}

    return name, ops.run(name, p, args, rho)


def gen_condition(seed: int, bounds: GenBounds = GenBounds()) -> tuple[Condition, RhoOracle]:
    """A valid condition grown by a seeded random walk, with its oracle."""
    rng = random.Random(seed)
    rho = RhoOracle.zero()
    p = Condition.trivial()
    steps = rng.randint(2, bounds.max_steps)
    taken = 0
    attempts = 0
    while taken < steps and attempts < 6 * bounds.max_steps:
        attempts += 1
        try:
            result = random_step(rng, p, rho, bounds)
        except ValueError:
            continue
        if result is None:
            continue
        _, p = result
        taken += 1
    return p, rho
