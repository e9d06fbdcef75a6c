"""The tuple-backed ordinal kernel and the linear tree-extension test.

Ordinals compare and hash as tuples; these tests hold them to the
dataclass ordinal with recursive comparisons (``seed_reference``), hash
values included, since set iteration orders and so output bytes depend on
them.  ``is_extension`` must give the pairwise order-set comparison's
answer on layered trees, and refuse any other tree by its link fault or
its first validation line, as the reference names it.  The benchmark's
tracer wraps library names by lookup, so a test installs it here.
"""

from __future__ import annotations

import importlib.util
import os
import random
from collections import Counter

import pytest

from treeforcing import forcing, ordinals, scenario, trees
from treeforcing.forcing import agreement_containment, strong_ad_containment
from treeforcing.ordinals import (
    MAX_NESTING,
    ZERO,
    Ordinal,
    OrdinalParseError,
    height_split,
    left_subtract,
    node_at,
    omega_mul,
    parse_ordinal,
)
from treeforcing.scenario import run_scenario
from treeforcing.trees import MalformedTreeError, StandardTree

import seed_reference as ref
from test_acceptance import _scripted_scenario
from test_trees import fan_out, normalize, random_tree, simple_extend

O = parse_ordinal


# -- ordinals ------------------------------------------------------------------


def random_ordinal(rng: random.Random, depth: int = 3) -> Ordinal:
    """A CNF ordinal with up to three terms and exponents nested up to ``depth``."""
    if rng.random() < 0.15:
        return ZERO
    exps = set()
    for _ in range(rng.randint(1, 3)):
        nest = depth and rng.random() < 0.5
        exps.add(random_ordinal(rng, depth - 1) if nest else Ordinal.from_int(rng.randint(0, 3)))
    return Ordinal(tuple((e, rng.randint(1, 3)) for e in sorted(exps, reverse=True)))


def near(rng: random.Random, a: Ordinal) -> Ordinal:
    """An ordinal equal to a, or a with one term changed, dropped or added."""
    terms = list(a.terms)
    kind = rng.randrange(4)
    if kind == 0 or not terms:
        return Ordinal(tuple(terms))  # equal, but a distinct object
    k = rng.randrange(len(terms))
    if kind == 1:
        e, c = terms[k]
        terms[k] = (e, max(1, c + rng.choice((-1, 1))))
    elif kind == 2:
        del terms[k]
    elif terms[-1][0] != ZERO:
        terms.append((ZERO, 1))
    else:
        terms.pop()
    return Ordinal(tuple(terms))


def test_order_equality_and_hash_match_the_dataclass_ordinal():
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(5000):
        a = random_ordinal(rng)
        b = near(rng, a) if rng.random() < 0.5 else random_ordinal(rng)
        sa, sb = ref.seed_ordinal(a), ref.seed_ordinal(b)
        assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (
            sa < sb, sa <= sb, sa > sb, sa >= sb, sa == sb, sa != sb
        ), (a, b)
        assert hash(a) == hash(sa)
        assert str(parse_ordinal(str(a))) == str(a)
        seen["eq" if a == b else "lt" if a < b else "gt"] += 1
        seen["zero"] += a == ZERO
        seen["nested"] += any(not e.is_finite for e, _ in a.terms)
    assert min(seen.values()) > 200, seen


def test_set_and_sorted_orders_match_the_dataclass_ordinal():
    rng = random.Random(7)
    pool = [random_ordinal(rng) for _ in range(400)]
    seeds = [ref.seed_ordinal(a) for a in pool]
    assert [ref.seed_ordinal(a) for a in sorted(pool)] == sorted(seeds)
    assert [ref.seed_ordinal(a) for a in set(pool)] == list(set(seeds))


def test_ordinal_is_a_tuple_of_its_terms():
    a = O("w^(w+1)*2+w*3+4")
    assert isinstance(a, tuple) and tuple(a) == (a.terms,)
    assert Ordinal.__hash__ is tuple.__hash__
    assert Ordinal.__eq__ is tuple.__eq__ and Ordinal.__lt__ is tuple.__lt__
    assert not ZERO and O("1")
    with pytest.raises(AttributeError):
        a.terms = ()
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(ValueError, match="strictly decreasing"):
        Ordinal(((ZERO, 1), (ZERO, 2)))
    with pytest.raises(ValueError, match="positive int"):
        Ordinal(((ZERO, 0),))


def test_copies_and_pickles_rebuild_the_same_ordinal():
    import copy
    import pickle

    a = node_at(O("w^w+1"), 3)
    a.height  # fills the memo, which must not disturb copying
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is Ordinal and b == a and hash(b) == hash(a) and str(b) == str(a)


def test_height_is_a_memo_that_assignment_cannot_reach():
    import copy
    import pickle

    rng = random.Random(31)
    for _ in range(5000):
        a = random_ordinal(rng)
        unread = O(str(a))
        h, k = height_split(a)
        assert node_at(h, k) == a and a.height is h and type(h) is Ordinal
        built = node_at(h, k)
        assert vars(built) == {"height": h}  # node_at fills the memo
        for b in (unread, built, copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b.height == h == height_split(b)[0]
        with pytest.raises(AttributeError):
            a.height = ZERO
        with pytest.raises(AttributeError):
            del a.height
        assert a.height is h


def checked(a: Ordinal) -> Ordinal:
    """a rebuilt through the checked constructor at every depth; raises unless
    a is in normal form with int coefficients."""
    assert type(a) is Ordinal and all(type(c) is int for _, c in a.terms)
    return Ordinal(tuple((checked(e), c) for e, c in a.terms))


def test_unchecked_kernel_results_pass_the_constructor_check():
    # sums, heights, w-multiples, left differences, naturals and parses are
    # built without the constructor's check, so each must survive it
    rng = random.Random(41)
    kinds = Counter()
    for _ in range(3000):
        a, b = random_ordinal(rng), random_ordinal(rng)
        low, high = sorted((a, b))
        n = rng.randint(0, 5)
        for kind, value in (
            ("sum", a + b),
            ("sum", b + a),
            ("height", O(str(a)).height),
            ("height", Ordinal.height.func(a)),
            ("omega_mul", omega_mul(a)),
            ("left_subtract", left_subtract(low, high)),
            ("from_int", Ordinal.from_int(n)),
            ("node_at", node_at(a, n)),
            ("parse", O(str(a))),
        ):
            assert checked(value) == value
            kinds[kind] += bool(value)
    assert min(kinds.values()) > 1000, kinds


def test_a_parsed_label_has_the_height_of_its_value():
    rng = random.Random(43)
    for _ in range(3000):
        a = random_ordinal(rng)
        label = O(str(a))
        assert label.height == Ordinal.height.func(label) == height_split(a)[0]
    with pytest.raises(ValueError, match="positive int"):
        Ordinal.from_int(2.5)
    with pytest.raises(ValueError, match="non-negative"):
        Ordinal.from_int(-1)


def nested(depth: int) -> str:
    return "w^(" * depth + "1" + ")" * depth


def test_parser_bounds_the_nesting_depth():
    deepest = parse_ordinal(nested(MAX_NESTING))
    assert parse_ordinal(str(deepest)) == deepest
    for depth in (MAX_NESTING + 1, 1500):
        with pytest.raises(OrdinalParseError, match=f"nest deeper than {MAX_NESTING}"):
            parse_ordinal(nested(depth))


# -- is_extension ----------------------------------------------------------------


END = "extension is not an end-extension; inputs are not standard trees"


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except MalformedTreeError as exc:
        return (type(exc).__name__, str(exc))


def extension_of(rng: random.Random, t: StandardTree) -> StandardTree:
    """A valid tree extending t: new levels, fanned-out nodes, normalisation."""
    u = t
    new = [g for g in (O("1"), O("2"), O("3"), O("w"), O("w+1"), O("w*2")) if g not in t.heights()]
    if new and rng.random() < 0.7:
        u = simple_extend(u, set(u.heights()) | set(rng.sample(new, rng.randint(1, len(new)))))
    for _ in range(rng.randint(0, 3)):
        x = rng.choice(sorted(u.nodes))
        if u.level_above(x.height) is not None:
            u = fan_out(u, {x}, len(u.immediate_successors(x)) + 1)
    return normalize(u) if rng.random() < 0.3 else u


def corrupt(rng: random.Random, t: StandardTree) -> StandardTree:
    """t with one defect: a rerouted link, an upward link, a missing node,
    a missing link or a cycle."""
    nodes, parent = set(t.nodes), dict(t.parent)
    inner = sorted(nodes - {ZERO})
    if not inner:
        return t
    x = rng.choice(inner)
    kind = rng.randrange(5)
    if kind == 0:
        parent[x] = rng.choice(sorted(nodes - {x}))
    elif kind == 1:
        higher = [y for y in inner if x.height < y.height]
        parent[x] = rng.choice(higher) if higher else x
    elif kind == 2:
        nodes.discard(x)
    elif kind == 3:
        del parent[x]
    else:
        y = rng.choice(inner)
        parent[x], parent[y] = y, x
    return StandardTree(frozenset(nodes), parent)


def expected_extension(a: StandardTree, b: StandardTree):
    """The outcome of ``is_extension(a, b)`` that needs no order: False off the
    node-set subset, else the refusal of the first side that is not layered;
    None when both sides are layered."""
    if a is not b and not a.nodes <= b.nodes:
        return ("value", False)
    for side in (a, b):
        why = ref.refusal(side)
        if why is not None:
            return ("MalformedTreeError", why)
    return None


def test_is_extension_matches_the_order_pair_comparison():
    rng = random.Random(5)
    kinds = Counter()
    for seed in range(250):
        t = random_tree(seed, levels=rng.randint(1, 5), width=rng.randint(1, 3))
        u = extension_of(rng, t)
        cases = [(t, u), (u, t), (t, t), (t, random_tree(seed + 1000))]
        for _ in range(3):
            bad_t, bad_u = corrupt(rng, t), corrupt(rng, u)
            cases += [(bad_t, u), (t, bad_u), (corrupt(rng, t), bad_u)]
        for a, b in cases:
            want = expected_extension(a, b)
            if want is None:
                want = outcome(ref.is_extension, a, b)
                # on two layered trees every extension is an end-extension
                assert want != ("MalformedTreeError", END), (a, b)
            assert outcome(trees.is_extension, a, b) == want, (a, b)
            kinds[want[0] if want[0] != "value" else str(want[1])] += 1
    assert kinds["True"] > 500 and kinds["False"] > 500, kinds
    assert kinds["MalformedTreeError"] > 100, kinds


def test_is_extension_on_links_through_a_dropped_node():
    w, w1, w2, w3 = O("w"), O("w+1"), O("w*2"), O("w*3")
    u = StandardTree([ZERO, w, w1, w2, w3], {w: ZERO, w1: ZERO, w2: w, w3: w2})
    # each t reaches the root only through a label outside its node set, which
    # leaves the node linked to it off the walk, and t is refused by that label
    cases = [
        # t keeps the link w*2 -> w but not the node w
        (StandardTree([ZERO, w2], {w2: w, w: ZERO}), "node w is not in the tree"),
        # w*3 reaches the root through w*2, outside t, while t holds w
        (
            StandardTree([ZERO, w, w3], {w3: w2, w2: ZERO, w: ZERO}),
            "node w*2 is not in the tree",
        ),
        (StandardTree([ZERO, w2], {w2: w1, w1: ZERO}), "node w+1 is not in the tree"),
        # the chain leaves t through w and then w+1: the first label names it
        (StandardTree([ZERO, w2], {w2: w, w: w1, w1: ZERO}), "node w is not in the tree"),
    ]
    for t, message in cases:
        assert ref.refusal(t) == message
        assert outcome(trees.is_extension, t, u) == ("MalformedTreeError", message)
        assert outcome(trees.is_extension, t, t) == ("MalformedTreeError", message)


def test_a_tree_without_its_root_walks_from_the_nodes_linked_to_it():
    # w reaches the root label, so only w+1, without a link, is a link fault;
    # with every link reaching it, the missing root is the first clause line
    w, w1 = O("w"), O("w+1")
    cases = [
        (StandardTree([w, w1], {w: ZERO}), "node w+1 has no parent link"),
        (StandardTree([w, w1], {w: ZERO, w1: ZERO}), "clause 1: the root 0 is missing"),
    ]
    for t, message in cases:
        assert ref.refusal(t) == message
        assert outcome(trees.is_extension, t, t) == ("MalformedTreeError", message)


def test_extension_does_not_list_order_pairs(monkeypatch):
    def refuse(self):
        raise AssertionError("order_pairs called")

    monkeypatch.setattr(StandardTree, "order_pairs", refuse)
    t = random_tree(3)
    assert trees.is_extension(t, normalize(simple_extend(t, set(t.heights()) | {O("w*3")})))


# -- the containment report ---------------------------------------------------------


def containment_lines(trace):
    """(g, t, line) for each line of the scenario's containment report."""
    for line in trace.log:
        if line.startswith("containment "):
            g, t = map(int, line.split()[1].rstrip(":").split(","))
            yield g, t, line


def test_containment_report_checks_descent_once(monkeypatch):
    reports = []
    for seed in range(20):
        trace = run_scenario(_scripted_scenario(seed))
        assert trace.ok
        for g, t, line in containment_lines(trace):
            held = strong_ad_containment(trace.conditions, g, t)
            assert line == f"containment {g},{t}: {'ok' if held else 'VIOLATED'}"
            reports.append((trace, g, t, held))
    assert len(reports) > 20

    def refuse(q, p):
        raise AssertionError("leq called")

    monkeypatch.setattr(forcing, "leq", refuse)
    for trace, g, t, held in reports:
        assert agreement_containment(trace.conditions, g, t) == held
        with pytest.raises(AssertionError, match="leq called"):
            strong_ad_containment(trace.conditions, g, t)
    assert scenario.agreement_containment is agreement_containment


# -- the benchmark tracer ------------------------------------------------------------


def load_tracer():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_cleanly():
    tracer_module = load_tracer()
    originals = {name: getattr(forcing, name) for name in ("leq", "strong_ad_containment")}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        wrapped = set(tracer.names)
        grouped = {name for members in tracer_module.GROUPS.values() for name in members}
        # the closure group still names downward_close_map, which the library no
        # longer defines; every other member, and every recheck, is wrapped
        assert grouped - wrapped == {"treemaps.downward_close_map"}, sorted(grouped - wrapped)
        assert set(tracer_module.RECHECK) <= wrapped
        for attr in ("__hash__", "__eq__", "__lt__"):
            assert getattr(Ordinal, attr) is not getattr(tuple, attr)
        trace = run_scenario(_scripted_scenario(0))
        assert trace.ok
        assert min(tracer.ordinal_counts[k] for k in ("hash", "eq", "compare")) > 0
        assert tracer.calls_of("trees.is_extension") > 0
    finally:
        tracer.remove()
    assert Ordinal.__hash__ is tuple.__hash__
    assert Ordinal.__eq__ is tuple.__eq__ and Ordinal.__lt__ is tuple.__lt__
    assert {name: getattr(forcing, name) for name in originals} == originals
    assert scenario.run_scenario is run_scenario and ordinals.parse_ordinal is parse_ordinal
    a = O("w^w+1")
    assert hash(a) == hash((a.terms,))
