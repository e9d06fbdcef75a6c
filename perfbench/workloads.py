"""The three benchmark workloads: seeded inputs, one request, and the gate.

Every workload is a closed loop with one client: ``run(i)`` performs request
``i`` and returns only when it is done.  Requests come in passes over a fixed
cycle of ``cycle_len`` inputs: request i works on input ``i % cycle_len``, so
every pass does the same work.  The constructor builds the inputs, a
deterministic function of the workload seed; the library sees only those
inputs.  ``gate(i)`` re-checks request i's output with the clock stopped and
returns ``(failure kind, message)`` pairs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter

import treeforcing
from treeforcing import cli, codec, forcing, generate, scenario, separation
from treeforcing.ordinals import ZERO, Ordinal, is_limit, node_at, parse_ordinal

O = parse_ordinal


def digest(p: forcing.Condition) -> str:
    """Digest of a condition's nodes, parent links and maps; the oracle is left out."""
    doc = [
        sorted(str(x) for x in p.tree.nodes),
        sorted([str(c), str(par)] for c, par in p.tree.parent.items()),
        [[tau, [[str(a), str(b)] for a, b in sorted(p.family[tau].pairs)]] for tau in sorted(p.family)],
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


class Workload:
    """Shared request bookkeeping: outcomes by request, failures by type."""

    name = ""
    cycle_len = 1
    capacity = 1 << 30
    # requests in the traced run, a fixed prefix of the cycle, so that traced
    # counts repeat exactly for an unchanged program
    traced = 1
    # percentile reported as latency_ms_tail; chosen so that one pass over
    # the cycle leaves at least ten inputs beyond it (see tail_percentile in run.py)
    tail_pct = 95

    def __init__(self, seed: int):
        self.seed = seed
        self.failures: Counter[str] = Counter()
        self.failed: set[int] = set()
        self.stats: Counter[str] = Counter()
        self.outputs: dict = {}

    def fail(self, i: int, kind: str) -> None:
        self.failed.add(i)
        self.failures[kind] += 1

    def run(self, i: int) -> None:
        try:
            self._run(i)
        except Exception as exc:  # noqa: BLE001 - every type is counted, none filtered
            self.fail(i, type(exc).__name__)
        except SystemExit as exc:
            self.fail(i, f"SystemExit({exc.code})")

    def forget(self, i: int) -> None:
        """Drop request i's output once it has been checked."""
        self.outputs.pop(i, None)


# -- walk: seeded random walks through generate.random_step -----------------


WALK_STEPS = 12
WALK_CYCLE = 1000
WALK_MAX_PASSES = 8
WALK_BOUNDS = generate.GenBounds(max_heights=5, max_level_width=16, max_indices=4)
WALK_MAX_DRAWS = 10 * WALK_STEPS
WALK_PALETTE = "0,1,w"


class Walk(Workload):
    """One request grows one condition by WALK_STEPS random operations."""

    name = "walk"
    tail_pct = 95
    cycle_len = WALK_CYCLE
    traced = 200

    def __init__(self, seed: int, passes: int = WALK_MAX_PASSES):
        super().__init__(seed)
        rng = random.Random(f"walk:{seed}")
        self.capacity = passes * WALK_CYCLE
        self.walk_seeds = [rng.getrandbits(48) for _ in range(WALK_CYCLE)]
        # one oracle per request, as oracles memoise every value they are
        # asked for; a repeated walk gets a fresh oracle of the same spec
        self.oracles = [
            separation.oracle_from_spec(f"seed:{self.walk_seeds[i % WALK_CYCLE]}:{WALK_PALETTE}")
            for i in range(self.capacity)
        ]

    def _run(self, i: int) -> None:
        rng = random.Random(self.walk_seeds[i % WALK_CYCLE])
        rho = self.oracles[i]
        p = forcing.Condition.trivial()
        taken = draws = 0
        while taken < WALK_STEPS and draws < WALK_MAX_DRAWS:
            draws += 1
            try:
                result = generate.random_step(rng, p, rho, WALK_BOUNDS)
            except ValueError:
                result = None
            if result is None:
                self.stats["refused"] += 1
                continue
            p = result[1]
            taken += 1
        self.stats["draws"] += draws
        self.outputs[i] = p

    def gate(self, i: int) -> list[tuple[str, str]]:
        p = self.outputs.get(i)
        if p is None:
            return []
        out = [("GateInvalid", f"walk {i}: invalid: {line}")
               for line in forcing.validate_condition(p, self.oracles[i])]
        if not forcing.leq(p, forcing.Condition.trivial()):
            out.append(("GateNotExtension", f"walk {i}: output does not extend the trivial condition"))
        return out

    def output_digest(self, i: int) -> str | None:
        p = self.outputs.get(i)
        return digest(p) if p is not None else None


# -- scenario: scripted scenarios through run_scenario --------------------


# every script draws the same multiset of operations, in a seeded order, so
# that scenarios cost about the same and a run's median is steady
SCENARIO_MIX = (
    ("widen_node", 3),
    ("augment", 2),
    ("grow_node", 3),
    ("extend_heights", 3),
    ("add_index", 2),
    ("normalize_condition", 7),
    ("hausdorffize", 5),
)
SCENARIO_MAX_HEIGHTS = 3
SCENARIO_MAX_WIDEN = 1
# the root is widened to this many successors before the closing steps, so
# that nearly every script ends with the same tree size (44 nodes)
SCENARIO_ROOT_WIDTH = 5
SCENARIO_CYCLE = 72
SCENARIO_PALETTE = tuple(O(s) for s in ("1", "2", "3", "4", "5", "w", "w+1", "w*2", "w^2"))
ALPHA, BETA = O("w^w"), O("w^w*2")
ONE = O("1")
FRESH_INDEX_BASE = 100


def make_scenario(rng: random.Random, rho: dict) -> dict:
    """A scenario script whose every step meets its preconditions.

    The script tracks the occupied heights and a lower bound on each level's
    width.  Node labels on a level are always offsets 0..m-1 (every operation
    allocates the least free offset), so offsets below the bound exist.
    Heights that hausdorffize may or may not add are never used for nodes.
    An operation whose precondition does not hold yet waits for a later
    turn; one that never becomes applicable is replaced by normalization.
    """
    # height -> known minimum width; height 1 is occupied first, so that the
    # closing widen of the root adds no height
    sure: dict[Ordinal, int] = {ZERO: 1, ONE: 1}
    maybe: set[Ordinal] = set()
    indices = [0]

    def room(levels: int = 1) -> bool:
        return len(set(sure) - {ZERO} | maybe) + levels <= SCENARIO_MAX_HEIGHTS

    def node() -> tuple[Ordinal, Ordinal]:
        h = rng.choice(sorted(sure))
        return h, node_at(h, rng.randrange(sure[h]))

    def occupy(h: Ordinal, width: int = 1) -> None:
        sure[h] = max(sure.get(h, 1), width)
        maybe.discard(h)

    def args_for(op: str) -> dict | None:
        """Arguments for op in the current state, or None when it must wait."""
        if op == "add_index":
            s = rng.choice([i for i in range(1, 10) if i not in indices])
            indices.append(s)
            return {"index": s}
        if op == "augment":
            return {"index": rng.choice(indices), "node": str(node()[1])}
        if op == "extend_heights":
            # a limit height keeps room for the level hausdorffize may put below it
            fresh = [
                h for h in SCENARIO_PALETTE
                if h > max(sure) and h not in maybe and room(2 if is_limit(h) else 1)
            ]
            if not fresh:
                return None
            h = rng.choice(fresh[:3])
            occupy(h)
            return {"heights": [str(h)]}
        if op == "widen_node":
            h, x = node()
            nxt = h + Ordinal.from_int(1)
            if nxt not in sure and (not room() or nxt < max(sure)):
                return None
            k = rng.randint(1, SCENARIO_MAX_WIDEN)
            occupy(nxt, k)
            return {"node": str(x), "count": k}
        if op == "grow_node":
            h, x = node()
            above = [g for g in sorted(sure) if g > h]
            if not above:
                return None
            return {"node": str(x), "height": str(rng.choice(above))}
        if op == "hausdorffize":
            occupied = sorted(set(sure) - {ZERO})
            for d in occupied:
                if is_limit(d):
                    below = max((g for g in occupied if g < d), default=ZERO)
                    if below + Ordinal.from_int(1) not in sure:
                        maybe.add(below + Ordinal.from_int(1))
        return {}

    queue = [op for op, count in SCENARIO_MIX for _ in range(count)]
    rng.shuffle(queue)
    steps: list[dict] = [{"op": "extend_heights", "args": {"heights": [str(ONE)]}}]
    while queue:
        for k, op in enumerate(queue):
            args = args_for(op)
            if args is not None:
                steps.append({"op": op, "args": args})
                del queue[k]
                break
        else:
            steps += [{"op": "normalize_condition", "args": {}} for _ in queue]
            queue = []
    steps += [
        {"op": "widen_node", "args": {"node": str(node_at(ZERO, 0)), "count": SCENARIO_ROOT_WIDTH}},
        # a level above alpha makes the amalgamation lift through the one-key lift
        {"op": "extend_heights", "args": {"heights": [str(ALPHA), str(ALPHA + Ordinal.from_int(1))]}},
        {"op": "normalize_condition", "args": {}},
        {
            "op": "build_matched_pair",
            "args": {
                "alpha": str(ALPHA),
                "beta": str(BETA),
                "node": str(node_at(ALPHA, 0)),
                "fresh_index_base": FRESH_INDEX_BASE,
            },
        },
        {"op": "amalgamate", "args": {}},
    ]
    return {"rho": rho, "steps": steps}


class ScenarioWorkload(Workload):
    """One request parses and runs one scenario script."""

    name = "scenario"
    tail_pct = 80
    cycle_len = SCENARIO_CYCLE
    traced = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"scenario:{seed}")
        self.texts = []
        for i in range(SCENARIO_CYCLE):
            # alternate the zero oracle and a seeded one
            rho = (
                {"kind": "zero"}
                if i % 2 == 0
                else {"kind": "seeded", "seed": rng.getrandbits(32), "values": ["0", "1", "w"]}
            )
            self.texts.append(json.dumps(make_scenario(rng, rho)))

    def _run(self, i: int) -> None:
        trace = scenario.run_scenario(scenario.parse_scenario(self.texts[i % SCENARIO_CYCLE]))
        self.outputs[i] = trace
        if not trace.ok:
            self.fail(i, "ScenarioNotOk")

    def gate(self, i: int) -> list[tuple[str, str]]:
        trace = self.outputs.get(i)
        if trace is None or not trace.ok:
            return []
        s = scenario.parse_scenario(self.texts[i % SCENARIO_CYCLE])
        rho = separation.oracle_from_spec(s.rho_spec)
        for a, b, v in s.rho_entries:
            rho.set_value(a, b, v)
        # replay the matched-pair step so the oracle holds the values the
        # amalgamation was validated against
        forcing.build_matched_pair(
            trace.conditions[-2], ALPHA, BETA, node_at(ALPHA, 0), FRESH_INDEX_BASE, rho
        )
        final = trace.conditions[-1]
        out = [("GateInvalid", f"scenario {i}: invalid: {line}")
               for line in forcing.validate_condition(final, rho)]
        if not forcing.leq(final, trace.conditions[0]):
            out.append(("GateNotExtension", f"scenario {i}: output does not extend the starting condition"))
        return out

    def output_digest(self, i: int) -> str | None:
        trace = self.outputs.get(i)
        return digest(trace.conditions[-1]) if trace is not None and trace.ok else None


# -- check: read-only CLI verdicts over a size ladder of files --------------


LADDER_SIZES = (8, 32, 64, 128)
LADDER_KS = (1, 4)


def ladder_widths(shape: str, n: int) -> tuple[int, ...]:
    """Level widths for an n-node tree: one level, or three levels fanning out.

    Deep trees keep at least five level-1 nodes so that a three-index loop
    can be planted on nodes that the base maps leave unrelated.
    """
    if shape == "flat":
        return (n - 1,)
    m = n - 1
    w1 = max(5, m // 7)
    w2 = max(w1, 2 * m // 7)
    return (w1, w2, max(w2, m - w1 - w2))


LADDER = [(shape, size, k) for shape in ("flat", "deep") for size in LADDER_SIZES for k in LADDER_KS]


def rung_name(shape: str, size: int, k: int) -> tuple[str, int]:
    """A rung's name, such as ``flat-n128-k4``, and its node count."""
    nodes = sum(ladder_widths(shape, size)) + 1
    return f"{shape}-n{nodes}-k{k}", nodes


def ladder_rungs() -> list[tuple[str, int]]:
    """(rung name, node count) for every rung, in ladder order."""
    return [rung_name(*rung) for rung in LADDER]


def build_ladder_condition(widths, k: int, rng: random.Random):
    """A valid condition, its level-1 nodes, and each node's level-1 ancestor.

    Level-1 nodes form a path u0 - u1 - ...; each path edge belongs to one of
    the k indices (a seeded balanced assignment), and the map owning an edge
    also matches the two nodes' subtrees positionally.  The relations on
    every level then form a forest and no pair carries two relations, so the
    family is rho-separated under the zero oracle.
    """
    nodes = [ZERO]
    parent = {}
    levels = [[ZERO]]
    base: dict[Ordinal, Ordinal] = {}  # level-1 ancestor
    for h, w in enumerate(widths, start=1):
        level = [node_at(Ordinal.from_int(h), i) for i in range(w)]
        for i, x in enumerate(level):
            parent[x] = levels[-1][i % len(levels[-1])]
            base[x] = base.get(parent[x], x)
        levels.append(level)
        nodes += level
    children: dict[Ordinal, list[Ordinal]] = {}
    for c, par in sorted(parent.items()):
        children.setdefault(par, []).append(c)
    u = levels[1]
    owners = [e % k for e in range(len(u) - 1)]
    rng.shuffle(owners)
    pairs: dict[int, list] = {tau: [(ZERO, ZERO)] for tau in range(1, k + 1)}
    for e, owner in enumerate(owners):
        front = [(u[e], u[e + 1])]
        while front:
            pairs[owner + 1] += front
            front = [
                q for a, b in front for q in zip(children.get(a, []), children.get(b, []))
            ]
    tree = treeforcing.StandardTree(frozenset(nodes), parent)
    family = {tau: treeforcing.TreeMap(ps) for tau, ps in pairs.items()}
    return forcing.Condition(tree, family), u, base


def _restrict(p: forcing.Condition, keep: frozenset) -> forcing.Condition:
    tree = treeforcing.StandardTree(keep, {c: par for c, par in p.tree.parent.items() if c in keep})
    family = {
        tau: treeforcing.TreeMap((a, b) for a, b in f.pairs if a in keep and b in keep)
        for tau, f in p.family.items()
    }
    return forcing.Condition(tree, family)


def _with_maps(p: forcing.Condition, extra: dict) -> forcing.Condition:
    family = dict(p.family)
    for tau, pairs in extra.items():
        family[tau] = treeforcing.TreeMap([(ZERO, ZERO)] + pairs)
    return forcing.Condition(p.tree, family)


class Rung:
    """One ladder rung: a base condition q, a condition p above it, two invalid twins."""

    def __init__(self, shape: str, size: int, k: int, rng: random.Random, workdir: str):
        q, u, base = build_ladder_condition(ladder_widths(shape, size), k, rng)
        self.name, self.nodes = rung_name(shape, size, k)
        self.top = str(q.tree.max_height())
        # p keeps the subtrees of the first half of the level-1 nodes
        half = set(u[: (len(u) + 1) // 2])
        keep = frozenset(x for x in q.tree.nodes if x == ZERO or base[x] in half)
        p = _restrict(q, keep)
        # three fresh indices close a triangle on level-1 nodes no base map relates
        a = rng.randrange(0, len(u) - 4)
        b = rng.randrange(a + 2, len(u) - 2)
        c = rng.randrange(b + 2, len(u))
        loop = _with_maps(q, {k + 1: [(u[a], u[b])], k + 2: [(u[b], u[c])], k + 3: [(u[c], u[a])]})
        # a fresh index relates a pair the base maps already relate; the pair
        # sits mid-path because the scan that finds it stops there
        e = len(u) // 2
        pair = _with_maps(q, {k + 1: [(u[e], u[e + 1])]})
        self.files = {}
        for tag, cond in (("q", q), ("p", p), ("loop", loop), ("pair", pair)):
            path = os.path.join(workdir, f"{self.name}-{tag}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(codec.encode_condition(cond))
            self.files[tag] = path

    def requests(self) -> list[tuple[list[str], int, str]]:
        """(CLI arguments, exit code and verdict text known from construction)."""
        f = self.files
        return [
            (["validate", f["q"]], 0, "ok\n"),
            (["validate", f["loop"]], 1, "loop: "),
            (["validate", f["pair"]], 1, "pairwise-violation: "),
            (["check-sep", f["q"], "--level", self.top], 0, "witness-order: "),
            (["check-sep", f["pair"], "--level", "1"], 1, "pairwise-violation: "),
            (["leq", f["q"], f["p"]], 0, "true\n"),
            (["leq", f["p"], f["q"]], 1, "false\n"),
        ]


class Check(Workload):
    """One request is one in-process ``cli.main`` verdict on a ladder file.

    A pass is every rung's seven requests, in a seeded order that changes
    from pass to pass.
    """

    name = "check"
    # p90 would be the 12th largest of a pass's 112 requests, which sits in a
    # gap between request kinds and jumps between them from run to run
    tail_pct = 80

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed)
        rng = random.Random(f"check:{seed}")
        os.makedirs(workdir, exist_ok=True)
        self.rungs = [Rung(shape, size, k, rng, workdir) for shape, size, k in LADDER]
        self.cycle = [(r, *req) for r in self.rungs for req in r.requests()]
        self.cycle_len = self.traced = len(self.cycle)
        self.order_rng = random.Random(f"check-order:{seed}")
        self.schedule: list[tuple[Rung, list[str], int, str]] = []

    def request(self, i: int) -> tuple[Rung, list[str], int, str]:
        while len(self.schedule) <= i:
            block = list(self.cycle)
            self.order_rng.shuffle(block)
            self.schedule += block
        return self.schedule[i]

    def _run(self, i: int) -> None:
        args = self.request(i)[1]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(args))
        self.outputs[i] = (code, sink.getvalue())

    def gate(self, i: int) -> list[tuple[str, str]]:
        if i not in self.outputs:
            return []
        _, args, want, verdict = self.request(i)
        code, text = self.outputs[i]
        if code != want:
            return [("WrongExitCode", f"check {i} {' '.join(args)}: exit {code}, expected {want}")]
        if verdict not in text:
            return [("WrongVerdict", f"check {i} {' '.join(args)}: output lacks {verdict!r}: {text[:200]!r}")]
        return []

    def output_digest(self, i: int) -> str | None:
        return None
