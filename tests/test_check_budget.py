"""One postcondition check per public operation.

The constructive operations compose unchecked kernels and check their final
output once, at their public boundary: ``validate_condition`` on the output
and ``leq`` against their own input.  These tests count those calls (and, on
the lift and matched-pair path, map classifications outside them), patch
the kernels to return broken conditions and require that the boundary still
raises ``RuntimeError``, also from the generator and as a fault of its step
from the scenario runner, and check that the runner adds only the order check
of an ``amalgamate`` whose pair was built from an older snapshot.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from treeforcing import forcing, scenario, treemaps, trees
from treeforcing.codec import decode_matched_pair, encode_matched_pair
from treeforcing.forcing import (
    Condition,
    add_index,
    amalgamate,
    augment,
    bijectivize_cone,
    bijectivize_level,
    build_matched_pair,
    extend_heights,
    fan_out_condition,
    grow_node,
    hausdorffize,
    lift_with_support,
    normalize_condition,
    widen_node,
)
from treeforcing.generate import GenBounds, gen_condition, random_step
from treeforcing.ordinals import ZERO, is_limit, node_at, parse_ordinal
from treeforcing.scenario import parse_scenario, run_scenario
from treeforcing.separation import RhoOracle
from treeforcing.treemaps import TreeMap
from treeforcing.trees import StandardTree, is_hausdorff, is_normal

from instances import normal_layered_condition, separated_subset

O = parse_ordinal
ALPHA, BETA = O("w^w"), O("w^w*2")
POOL_BOUNDS = GenBounds(max_heights=4, max_level_width=6, max_indices=3, max_steps=10)


def pool(count: int = 40):
    return [gen_condition(seed, POOL_BOUNDS) for seed in range(count)]


# -- inputs on which each operation changes the condition ------------------------------
#
# Each case is (name, p, rho, run) where run() applies the public operation to p
# and returns its output condition.


def extend_cases():
    for p, rho in pool(6):
        for Z in ({O("w^2*3")}, {O("6")}):
            yield "extend_heights", p, rho, lambda p=p, rho=rho, Z=Z: extend_heights(p, Z, rho)


def widen_cases():
    for p, rho in pool(6):
        for x in (ZERO, max(p.tree.nodes)):
            k = len(p.tree.immediate_successors(x)) + 2
            yield "widen_node", p, rho, lambda p=p, rho=rho, x=x, k=k: widen_node(p, x, k, rho)


def hausdorff_cases():
    found = [(p, rho) for p, rho in pool() if not is_hausdorff(p.tree)][:4]
    assert found
    for p, rho in found:
        yield "hausdorffize", p, rho, lambda p=p, rho=rho: hausdorffize(p, rho)


def normalize_cases():
    found = [(p, rho) for p, rho in pool() if not is_normal(p.tree)][:4]
    assert found
    for p, rho in found:
        yield "normalize_condition", p, rho, lambda p=p, rho=rho: normalize_condition(p, rho)


def grow_cases():
    for p, rho in pool(4):
        yield "grow_node", p, rho, lambda p=p, rho=rho: grow_node(p, ZERO, O("w^2*3"), rho)


def add_index_cases():
    for p, rho in pool(4):
        s = max(p.family) + 1
        yield "add_index", p, rho, lambda p=p, rho=rho, s=s: add_index(p, s, rho)


def augment_cases():
    for p, rho in pool(4):
        x = max(p.tree.nodes)
        yield "augment", p, rho, lambda p=p, rho=rho, x=x: augment(p, 9, x, rho)


def fan_out_cases():
    count = 0
    for p, rho in pool():
        hs = p.tree.heights()
        if len(hs) < 2:
            continue
        x = min(p.tree.level(hs[-2]))
        n = len(p.tree.immediate_successors(x)) + 1
        yield "fan_out_condition", p, rho, lambda p=p, rho=rho, x=x, n=n: fan_out_condition(
            p, {x}, n, rho
        )
        count += 1
        if count == 4:
            return


def layered_cases(kind: str):
    """bijectivize_level, bijectivize_cone or lift_with_support on normal layered inputs."""
    count = 0
    for seed in range(60):
        p, rho = normal_layered_condition(seed)
        hs = p.tree.heights()
        if len(hs) < 2:
            continue
        alpha = hs[0]
        X = separated_subset(random.Random(seed), p.family, p.tree.level(alpha), 2)
        if X is None:
            continue
        A = sorted(p.family)
        if kind == "bijectivize_level":
            run = lambda p=p, rho=rho, a=alpha, X=X, A=A: bijectivize_level(p, a, X, A, rho)
        elif kind == "bijectivize_cone":
            run = lambda p=p, rho=rho, a=alpha, X=X, A=A: bijectivize_cone(p, a, X, A, rho)
        else:
            top = p.tree.level(p.tree.max_height())
            b = min(y for y in top if p.tree.restrict(y, alpha) in X)
            run = lambda p=p, rho=rho, a=alpha, X=X, A=A, b=b: lift_with_support(
                p, a, X, A, b, rho
            )[0]
        yield kind, p, rho, run
        count += 1
        if count == 4:
            return


def all_cases():
    yield from extend_cases()
    yield from widen_cases()
    yield from hausdorff_cases()
    yield from normalize_cases()
    yield from grow_cases()
    yield from add_index_cases()
    yield from augment_cases()
    yield from fan_out_cases()
    for kind in ("bijectivize_level", "bijectivize_cone", "lift_with_support"):
        yield from layered_cases(kind)


def matched_pair(taller: bool):
    """A matched pair over a normal condition with levels {1, w^w} (and w^w+1)."""
    rho = RhoOracle.zero()
    a0, a1 = node_at(O("1"), 0), node_at(O("1"), 1)
    u0, u1 = node_at(ALPHA, 0), node_at(ALPHA, 1)
    tree = StandardTree([ZERO, a0, a1, u0, u1], {a0: ZERO, a1: ZERO, u0: a0, u1: a1})
    p = Condition(tree, {0: TreeMap([(ZERO, ZERO), (a0, a1), (u0, u1)])})
    if taller:
        p = normalize_condition(extend_heights(p, {ALPHA + O("1")}, rho), rho)
    return build_matched_pair(p, ALPHA, BETA, u0, 100, rho), rho


# -- counting the checks -------------------------------------------------------------


class Budget:
    """Records every call of the checks the operations may make."""

    def __init__(self, monkeypatch):
        self.validated: list[Condition] = []
        self.ordered: list[tuple[Condition, Condition]] = []
        self.tree_checks = 0
        self.extension_checks = 0
        validate, order = forcing.validate_condition, forcing.leq
        validate_tree, is_extension = trees.validate_tree, trees.is_extension

        def counted_validate(p, rho):
            self.validated.append(p)
            return validate(p, rho)

        def counted_leq(q, p):
            self.ordered.append((q, p))
            return order(q, p)

        def counted_tree(t):
            self.tree_checks += 1
            return validate_tree(t)

        def counted_extension(t, u):
            self.extension_checks += 1
            return is_extension(t, u)

        monkeypatch.setattr(forcing, "validate_condition", counted_validate)
        monkeypatch.setattr(forcing, "leq", counted_leq)
        for module in (forcing, trees):
            monkeypatch.setattr(module, "validate_tree", counted_tree)
            monkeypatch.setattr(module, "is_extension", counted_extension)


def test_each_operation_checks_its_output_once(monkeypatch):
    seen = set()
    for name, p, rho, run in all_cases():
        with monkeypatch.context() as patch:
            budget = Budget(patch)
            q = run()
        assert q is not p, name
        assert [id(c) for c in budget.validated] == [id(q)], name
        assert [(id(a), id(b)) for a, b in budget.ordered] == [(id(q), id(p))], name
        # the tree builders no longer re-check what validate_condition and leq cover
        assert budget.tree_checks == 1 and budget.extension_checks == 1, name
        seen.add(name)
    assert len(seen) == 11, seen


@pytest.mark.parametrize("taller", [False, True])
def test_amalgamate_checks_its_output_once_against_each_side(monkeypatch, taller):
    mp, rho = matched_pair(taller)
    with monkeypatch.context() as patch:
        budget = Budget(patch)
        out = amalgamate(mp, rho)
    # the built pair carries its check, so only the output is validated
    assert [id(c) for c in budget.validated] == [id(out)]
    assert [(id(a), id(b)) for a, b in budget.ordered] == [
        (id(out), id(mp.pa)),
        (id(out), id(mp.pb)),
    ]


class Classified:
    """Records every validate_condition call, and counts the calls of the map
    flag kernel, which validation and classify_map share, inside and outside
    them."""

    def __init__(self, monkeypatch):
        self.validated: list[Condition] = []
        self.inside = self.outside = 0
        self.depth = 0
        validate, classify = forcing.validate_condition, treemaps._map_flags

        def counted_validate(p, rho):
            self.validated.append(p)
            self.depth += 1
            try:
                return validate(p, rho)
            finally:
                self.depth -= 1

        def counted_classify(index, rs):
            if self.depth:
                self.inside += 1
            else:
                self.outside += 1
            return classify(index, rs)

        monkeypatch.setattr(forcing, "validate_condition", counted_validate)
        for module in (forcing, treemaps):
            monkeypatch.setattr(module, "_map_flags", counted_classify)


def test_lift_with_support_classifies_maps_only_in_its_one_validation(monkeypatch):
    # the lift's preconditions and its consistency clauses follow from the
    # cone's check, so no map is classified outside that one validation
    runs = 0
    for _, _, _, run in layered_cases("lift_with_support"):
        with monkeypatch.context() as patch:
            calls = Classified(patch)
            q = run()
        assert [id(c) for c in calls.validated] == [id(q)]
        assert calls.inside > 0 and calls.outside == 0
        runs += 1
    assert runs == 4


@pytest.mark.parametrize("taller", [False, True])
def test_amalgamate_classifies_maps_only_in_its_one_validation(monkeypatch, taller):
    mp, rho = matched_pair(taller)
    with monkeypatch.context() as patch:
        calls = Classified(patch)
        out = amalgamate(mp, rho)
    assert [id(c) for c in calls.validated] == [id(out)]
    assert calls.inside > 0 and calls.outside == 0


def same_values(rho: RhoOracle) -> RhoOracle:
    """Another oracle object with rho's table and revision."""
    other = RhoOracle()
    other.table.update(rho.table)
    other.revision = rho.revision
    return other


def untrusted_pairs(taller: bool):
    """(name, pair, oracle) cases whose pair amalgamate must validate in full."""
    mp, rho = matched_pair(taller)
    yield "decoded", decode_matched_pair(encode_matched_pair(mp, rho))[0], rho
    yield "replaced", dataclasses.replace(mp), rho
    yield "equal oracle", mp, same_values(rho)
    rho.set_value(0, 1, rho.value(0, 1))  # same value, new revision
    yield "changed oracle", mp, rho


@pytest.mark.parametrize("taller", [False, True])
def test_amalgamate_validates_every_pair_it_did_not_see_built(monkeypatch, taller):
    names = []
    for name, mp, rho in untrusted_pairs(taller):
        with monkeypatch.context() as patch:
            calls = Classified(patch)
            out = amalgamate(mp, rho)
        assert [id(c) for c in calls.validated] == [id(mp.pa), id(mp.pb), id(out)], name
        assert calls.outside == 0, name
        names.append(name)
    assert names == ["decoded", "replaced", "equal oracle", "changed oracle"]


@pytest.mark.parametrize("taller", [False, True])
def test_build_matched_pair_validates_its_input_and_the_copy_once(monkeypatch, taller):
    mp, rho = matched_pair(taller)
    with monkeypatch.context() as patch:
        calls = Classified(patch)
        built = build_matched_pair(mp.pa, ALPHA, BETA, mp.anchor_a, 100, rho)
    assert [id(c) for c in calls.validated] == [id(mp.pa), id(built.pb)]


def test_unchanged_outputs_are_not_rechecked(monkeypatch):
    p, rho = pool(1)[0]
    p = normalize_condition(p, rho)
    with monkeypatch.context() as patch:
        budget = Budget(patch)
        assert extend_heights(p, p.tree.heights(), rho) is p
        assert normalize_condition(p, rho) is p
    assert budget.validated == [] and budget.ordered == []


# -- fault injection: the boundary still catches a broken kernel -------------------


def with_fixed_point(q: Condition) -> Condition:
    """q with a fixed point off the root added to one map: not a condition."""
    tau = min(q.family)
    f = q.family[tau]
    x = max(x for x in q.tree.nodes if x not in f.domain and x not in f.image)
    return Condition(q.tree, {**q.family, tau: f.with_pairs([(x, x)])})


def without_index(q: Condition) -> Condition:
    """q without its least index: still a condition, but below no input carrying it."""
    tau = min(q.family)
    return Condition(q.tree, {t: f for t, f in q.family.items() if t != tau})


def with_leaf(q: Condition, x) -> Condition:
    """q with one fresh immediate successor of x: valid and below q's input."""
    h = q.tree.level_above(x.height)
    z = trees._FreshLabels(q.tree).take(h)
    return Condition(StandardTree(q.tree.nodes | {z}, {**q.tree.parent, z: x}), q.family)


def lowest_leaf(q: Condition) -> Condition:
    """q with a fresh node on its lowest level: breaks normality and simplicity."""
    return with_leaf(q, ZERO)


KERNEL_OF = {
    "extend_heights": "_extend_heights",
    "widen_node": "_extend_heights",
    "hausdorffize": "_extend_heights",
    "normalize_condition": "_normalize_condition",
    "grow_node": "_normalize_condition",
    "fan_out_condition": "_fan_out_condition",
    "bijectivize_level": "_bijectivize_level",
    "bijectivize_cone": "_bijectivize_cone",
    "lift_with_support": "_bijectivize_cone",
}


def patch_kernel(patch, name: str, corrupt) -> None:
    kernel = getattr(forcing, name)

    def broken(*args):
        out = kernel(*args)
        if isinstance(out, tuple):
            return (corrupt(out[0]),) + out[1:]
        return corrupt(out)

    patch.setattr(forcing, name, broken)


@pytest.mark.parametrize("corrupt", [with_fixed_point, without_index])
def test_broken_kernels_are_caught_at_the_boundary(monkeypatch, corrupt):
    seen = set()
    for name, p, rho, run in all_cases():
        if name not in KERNEL_OF:
            continue
        with monkeypatch.context() as patch:
            patch_kernel(patch, KERNEL_OF[name], corrupt)
            with pytest.raises(RuntimeError):
                run()
        seen.add(name)
    assert seen == set(KERNEL_OF)


def untouched_limit_siblings(p: Condition):
    """Two siblings on a limit level that no map touches, or None."""
    touched = {z for f in p.family.values() for pair in f for z in pair}
    for d in filter(is_limit, p.tree.heights()):
        by_parent: dict = {}
        for x in sorted(p.tree.level(d) - touched):
            by_parent.setdefault(p.tree.parent[x], []).append(x)
        for xs in by_parent.values():
            if len(xs) > 1:
                return xs[0], xs[1]
    return None


def with_shared_parent(q: Condition, x1, x2) -> Condition:
    """q with x2 linked to x1's parent."""
    return Condition(StandardTree(q.tree.nodes, {**q.tree.parent, x2: q.tree.parent[x1]}), q.family)


def test_broken_kernels_fail_the_clauses_validation_does_not_cover(monkeypatch):
    # each corruption keeps the output valid and below the input, so only the
    # operation's own tree clauses can catch it
    cases = []
    for p, rho in pool(6):
        if p.tree.heights():  # the lowest level is old: a leaf there is not simple
            run = lambda p=p, rho=rho: extend_heights(p, {O("w^2*3")}, rho)
            cases.append(("_extend_heights", lowest_leaf, run, None))
    for _, _, _, run in [*normalize_cases(), *grow_cases()]:
        cases.append(("_normalize_condition", lowest_leaf, run, None))  # a leaf is not normal
    for _, _, _, run in fan_out_cases():
        # one immediate successor too many under the fanned node
        extra = lambda q: with_leaf(q, min(q.tree.level(q.tree.heights()[-2])))
        cases.append(("_fan_out_condition", extra, run, None))
    for _, _, _, run in layered_cases("bijectivize_level"):
        cases.append(("_bijectivize_level", lowest_leaf, run, None))  # a new node off the fans
    for kind in ("bijectivize_cone", "lift_with_support"):
        for _, _, _, run in layered_cases(kind):
            cases.append(("_bijectivize_cone", lowest_leaf, run, None))  # a new node off the cones
    # two siblings on a limit level, outside every map, under one new parent:
    # the tree stays valid, but they drop down onto one node of the new level
    p, rho = next((p, rho) for p, rho in pool() if untouched_limit_siblings(p))
    x1, x2 = untouched_limit_siblings(p)
    merge = lambda q: with_shared_parent(q, x1, x2)
    run = lambda p=p, rho=rho: hausdorffize(p, rho)
    cases.append(("_extend_heights", merge, run, "^hausdorffize produced a non-simple extension$"))
    assert {kernel for kernel, _, _, _ in cases} == {
        "_extend_heights",
        "_normalize_condition",
        "_fan_out_condition",
        "_bijectivize_level",
        "_bijectivize_cone",
    }
    for kernel, corrupt, run, message in cases:
        with monkeypatch.context() as patch:
            patch_kernel(patch, kernel, corrupt)
            with pytest.raises(RuntimeError, match=message):
                run()


def test_widen_node_counts_successors_when_nothing_was_added(monkeypatch):
    # the root's next height is occupied, so the height extension returns its
    # input; a fan-out that returns its input too must not pass as a widening
    p, rho = gen_condition(0)
    k = len(p.tree.immediate_successors(ZERO)) + 2
    assert p.tree.level_above(ZERO) == O("1")
    monkeypatch.setattr(forcing, "_fan_out_condition", lambda q, X, n: q)
    with pytest.raises(RuntimeError, match="^widen_node missed the successor count$"):
        widen_node(p, ZERO, k, rho)


def with_new_top(q: Condition) -> Condition:
    """q with a one-node chain on a new height above its top: valid, below
    q's input and with q's maps, so only the promised height set is broken."""
    top = q.tree.max_height()
    z = trees._FreshLabels(q.tree).take(top + O("1"))
    parent = {**q.tree.parent, z: min(q.tree.level(top))}
    return Condition(StandardTree(q.tree.nodes | {z}, parent), q.family)


def test_broken_kernels_are_caught_by_the_height_clause(monkeypatch):
    seen = set()
    for name, p, rho, run in all_cases():
        if name not in KERNEL_OF:
            continue
        with monkeypatch.context() as patch:
            patch_kernel(patch, KERNEL_OF[name], with_new_top)
            with pytest.raises(RuntimeError, match=f"^{name} moved the heights$"):
                run()
        seen.add(name)
    assert seen == set(KERNEL_OF)


@pytest.mark.parametrize("taller", [False, True])
def test_amalgamate_is_caught_by_the_height_clause(monkeypatch, taller):
    mp, rho = matched_pair(taller)

    def glued_with_new_top(tree, family):
        # only the glued condition reaches the second level
        q = Condition(tree, family)
        return with_new_top(q) if tree.max_height() >= BETA else q

    monkeypatch.setattr(forcing, "Condition", glued_with_new_top)
    with pytest.raises(RuntimeError, match="^amalgamate moved the heights$"):
        amalgamate(mp, rho)


def test_broken_copy_closure_is_caught_by_amalgamate(monkeypatch):
    mp, rho = matched_pair(taller=True)
    close = forcing._downward_close

    def lossy(u, f):
        closed = close(u, f)
        return TreeMap(closed.pairs[:-1])

    monkeypatch.setattr(forcing, "_downward_close", lossy)
    with pytest.raises(RuntimeError):
        amalgamate(mp, rho)


# -- the scenario runner ----------------------------------------------------------------


SCRIPT = {
    "rho": {"kind": "zero"},
    "steps": [
        {"op": "extend_heights", "args": {"heights": ["1"]}},
        {"op": "widen_node", "args": {"node": "0", "count": 2}},
        {"op": "add_index", "args": {"index": 5}},
        {"op": "augment", "args": {"index": 5, "node": "w"}},
    ],
}


def corrupting_add_index(corrupt):
    """``forcing.Condition``, but each condition built with an empty map above
    its least index comes out corrupted; from the trivial condition, only
    ``add_index`` builds one."""

    def build(tree, family):
        q = Condition(tree, family)
        least = min(family)
        return corrupt(q) if any(not f for t, f in family.items() if t != least) else q

    return build


ADD_INDEX_FAULTS = [
    (with_fixed_point, "add_index produced an invalid condition: "),
    (without_index, "add_index produced a condition that does not extend its input$"),
]


@pytest.mark.parametrize("corrupt, message", ADD_INDEX_FAULTS, ids=["fixed_point", "no_index"])
def test_broken_add_index_is_caught_at_its_boundary(monkeypatch, corrupt, message):
    head = json.dumps({**SCRIPT, "steps": SCRIPT["steps"][:2]})
    p = run_scenario(parse_scenario(head)).conditions[-1]
    monkeypatch.setattr(forcing, "Condition", corrupting_add_index(corrupt))
    with pytest.raises(RuntimeError, match="^" + message):
        add_index(p, 5, RhoOracle.zero())
    # the runner reports it as a fault of its step, not as a property that failed
    with pytest.raises(RuntimeError, match="^step 2 add_index: " + message):
        run_scenario(parse_scenario(json.dumps(SCRIPT)))


def test_generator_raises_on_a_broken_add_index(monkeypatch):
    rho, bounds = RhoOracle.zero(), GenBounds()
    start = Condition.trivial()
    # seed 14's first draw adds an index; seed 2's walk takes an add_index step
    assert random_step(random.Random(14), start, rho, bounds)[0] == "add_index"
    assert len(gen_condition(2, bounds)[0].family) > 1
    monkeypatch.setattr(forcing, "Condition", corrupting_add_index(without_index))
    message = "^add_index produced a condition that does not extend its input$"
    with pytest.raises(RuntimeError, match=message):
        random_step(random.Random(14), start, rho, bounds)
    with pytest.raises(RuntimeError, match=message):
        gen_condition(2, bounds)


def test_runner_checks_only_what_no_operation_checked(monkeypatch):
    calls = []
    order = scenario.leq
    # the runner imports no validate_condition; one brought back would be counted
    monkeypatch.setattr(
        scenario, "validate_condition", lambda p, rho: calls.append("validate"), raising=False
    )
    monkeypatch.setattr(scenario, "leq", lambda q, p: calls.append("leq") or order(q, p))
    with monkeypatch.context() as patch:
        budget = Budget(patch)
        trace = run_scenario(parse_scenario(json.dumps(SCRIPT)))
    assert trace.ok, trace.log
    # every step's output was checked by its operation, exactly once
    assert calls == []
    assert [id(c) for c in budget.validated] == [id(c) for c in trace.conditions[1:]]


def test_runner_checks_amalgamate_against_a_later_snapshot(monkeypatch):
    steps = [
        {"op": "extend_heights", "args": {"heights": ["1", "w^w"]}},
        {"op": "normalize_condition"},
        {
            "op": "build_matched_pair",
            "args": {"alpha": "w^w", "beta": "w^w*2", "node": "w^w", "fresh_index_base": 100},
        },
        {"op": "amalgamate"},
    ]
    trace = run_scenario(parse_scenario(json.dumps({"steps": steps})))
    assert trace.ok, trace.log
    # an index added after the pair was built is not carried by the amalgamation
    steps.insert(3, {"op": "add_index", "args": {"index": 7}})
    trace = run_scenario(parse_scenario(json.dumps({"steps": steps})))
    assert not trace.ok
    assert trace.log[-1] == "step 4 amalgamate: output does not extend input", trace.log
