"""Differential tests: the indexed hot layers against the all-pairs references.

Separation verdicts must be byte-identical to the reference decision, and
the oracle must be left holding exactly the entries the reference consults,
because consulted values are written into output files.  Map flags must
equal the quadratic classification, consistency verdicts and errors the
all-pairs test, and the matched-pair oracle extension must leave the same
table as the reference loop.  Height extension and augmentation, which
build their tree once, must write the bytes of the references that rebuild
it for every inserted level or added node.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from collections import Counter
from pathlib import Path

import pytest

import treeforcing
from treeforcing import forcing, separation, trees
from treeforcing.cli import main
from treeforcing.codec import decode_condition, encode_condition
from treeforcing.forcing import (
    ROOT_PAIR,
    Condition,
    augment,
    build_matched_pair,
    extend_heights,
    lift_with_support,
    validate_condition,
)
from treeforcing.generate import GenBounds, gen_condition, random_step
from treeforcing.ordinals import ZERO, node_at
from treeforcing.separation import (
    RhoOracle,
    decide_rho_separation,
    decide_separation,
    is_consistent,
)
from treeforcing.treemaps import TreeMap, _downward_close, classify_map
from treeforcing.trees import StandardTree

import seed_reference as ref
from instances import (
    O,
    ONE,
    benchmark_workloads,
    condition_pool,
    level_tree,
    normal_layered_condition,
    random_level_family,
)
from test_acceptance import _matched_pair_instance
from test_trees import fan_out

W = O("w")
LIBRARY_MODULES = (
    "ordinals", "trees", "treemaps", "separation", "forcing", "codec", "generate", "scenario", "cli"
)


def logged(rho: RhoOracle) -> tuple[RhoOracle, list]:
    """The oracle, recording every pair it is asked for."""
    calls = []
    value = rho.value

    def record(i, j):
        calls.append((i, j))
        return value(i, j)

    rho.value = record
    return rho, calls


def same_decision(fam, X, make_rho, alpha=ONE) -> str:
    """Decide with the library and the reference on twin oracles; return the verdict.

    The oracles must be asked the same pairs in the same order, the witness
    self-check included, and end with the same table.
    """
    (rho, calls), (rho_ref, calls_ref) = logged(make_rho()), logged(make_rho())
    got = str(decide_rho_separation(fam, X, rho, alpha))
    want = str(ref.decide_rho_separation(fam, X, rho_ref, alpha))
    assert got == want
    assert calls == calls_ref
    assert rho.entries() == rho_ref.entries()
    return got


def refused_unasked(fam, X, make_rho, alpha=ONE) -> None:
    """Both decisions refuse map 1, which is not injective, before the oracle
    is asked for any pair, so its table stays as it was."""
    rho, calls = logged(make_rho())
    table = rho.entries()
    with pytest.raises(ValueError, match="^map 1 fails injective$"):
        decide_rho_separation(fam, X, rho, alpha)
    with pytest.raises(ValueError, match="^map 1 fails injective$"):
        decide_separation(fam, X)
    assert calls == []
    assert rho.entries() == table


def test_relation_pass_matches_relations_between():
    """The rank pass on a level set ranked in ordinal order, as the public
    decision runs it: every node pair's list is ``relations_between``'s."""
    for seed in range(300):
        rng = random.Random(seed)
        _, fam, X = random_level_family(rng, rng.randint(1, 7), 4)
        labels = sorted(X)
        rank = {x: r for r, x in enumerate(labels)}
        levels = separation._relations_by_level(separation._ranked_family(fam, rank), [0] * len(labels))
        assert set(levels) <= {0}
        rel = levels.get(0, {})
        for x in X:
            for y in X:
                assert rel.get(rank[x], {}).get(rank[y], []) == ref.relations_between(fam, x, y)
                # symmetric on injective maps: the witness order reads it both ways
                assert (rank[y] in rel.get(rank[x], {})) == (rank[x] in rel.get(rank[y], {}))


def test_decide_matches_seed_on_random_level_families():
    kinds = Counter()
    for seed in range(3000):
        rng = random.Random(seed)
        _, fam, X = random_level_family(rng, rng.randint(1, 9), 4)
        verdict = same_decision(fam, X, lambda: RhoOracle.seeded(seed, [ZERO, ONE]))
        kinds[verdict.split(":")[0]] += 1
    # the instance set is fixed; these are the reference's own verdict counts
    assert kinds == {"witness-order": 1699, "pairwise-violation": 955, "loop": 346}


def test_fixed_point_gives_both_directions_on_one_pair():
    t = level_tree(3)
    a, b, c = sorted(t.level(ONE))
    fam = {4: TreeMap([(ZERO, ZERO), (a, a), (b, c)])}
    assert ref.relations_between(fam, a, a) == [(1, 4), (-1, 4)]
    verdict = same_decision(fam, t.level(ONE), RhoOracle.zero)
    assert verdict.startswith("pairwise-violation: w and w related by (m=1, index=4)")
    # a second index on the same fixed point, with rho at the level, still
    # fails on the diagonal pair of one index
    fam[6] = TreeMap([(ZERO, ZERO), (a, a)])
    same_decision(fam, t.level(ONE), lambda: RhoOracle.from_entries([(4, 6, ONE)]))


def test_non_injective_map_has_no_inverse_relation():
    t = level_tree(3)
    a, b, c = sorted(t.level(ONE))
    # f sends a and b to c, so c has no unique preimage; g sends c back to a
    fam = {1: TreeMap([(ZERO, ZERO), (a, c), (b, c)]), 2: TreeMap([(ZERO, ZERO), (c, a)])}
    assert ref.relations_between(fam, c, a) == [(1, 2)]
    assert ref.relations_between(fam, a, c) == [(1, 1), (-1, 2)]
    # the relations built from these are not symmetric, so the decision refuses f
    for rho in (RhoOracle.zero, lambda: RhoOracle.from_entries([(1, 2, ONE)])):
        refused_unasked(fam, t.level(ONE), rho)


def test_check_sep_on_unvalidated_non_injective_file(tmp_path, capsys):
    t = level_tree(4)
    a, b, c, d = sorted(t.level(ONE))
    fam = {
        1: TreeMap([(ZERO, ZERO), (a, c), (b, c)]),
        2: TreeMap([(ZERO, ZERO), (c, a), (d, b)]),
    }
    p = Condition(t, fam)
    assert validate_condition(p, RhoOracle.zero())  # not a condition: f is not injective
    for entries in ([], [(1, 2, ONE)]):
        path = tmp_path / f"noninj-{len(entries)}.json"
        path.write_text(encode_condition(p, RhoOracle.from_entries(entries)))
        refused_unasked(fam, t.level(ONE), lambda: RhoOracle.from_entries(entries))
        assert main(["check-sep", str(path), "--level", "1"]) == 2
        assert capsys.readouterr().err == "error: map 1 fails injective\n"


def test_untouched_nodes_in_the_level_set():
    t = level_tree(7)
    xs = sorted(t.level(ONE))
    fam = {
        1: TreeMap([(ZERO, ZERO), (xs[5], xs[1])]),
        2: TreeMap([(ZERO, ZERO), (xs[1], xs[3])]),
    }
    verdict = same_decision(fam, t.level(ONE), RhoOracle.zero)
    listed = (xs[0], xs[1], xs[3], xs[5], xs[2], xs[4], xs[6])
    assert verdict == "witness-order: " + ", ".join(str(x) for x in listed)
    # a subset that leaves out the middle of the chain
    same_decision(fam, frozenset(xs[2:]), RhoOracle.zero)


def _ladder_files(tmp_path):
    """The benchmark's check ladder: each rung's base and upper conditions and
    its loop and pair twins, as files."""
    workloads = benchmark_workloads()
    rng = random.Random("check:0")
    for shape, size, k in workloads.LADDER:
        yield from workloads.Rung(shape, size, k, rng, str(tmp_path)).files.values()


def test_each_level_decides_on_its_part_of_one_relation_pass(tmp_path):
    """Validation's per-level decision on ``_relations_by_level`` against the
    reference decision on the level: the same verdict, the oracle asked the
    same pairs in the same order and left with the same table.  Each level's
    part of the pass holds ``relations_between`` for every node pair.  The
    pass and the decision run on the tree's ranks; their nodes are mapped back
    to labels before they are compared."""
    cases = [lambda seed=seed: gen_condition(seed, GenBounds(max_steps=10)) for seed in range(60)]
    for path in _ladder_files(tmp_path):
        text = Path(path).read_text(encoding="utf-8")
        cases.append(lambda text=text: decode_condition(text))
    kinds = Counter()
    for make in cases:
        p, rho = make()
        (rho, calls), (rho_ref, calls_ref) = logged(rho), logged(make()[1])
        index = p.tree._index
        levels = separation._relations_by_level(
            separation._ranked_family(p.family, index.rank), index.lev
        )
        labels = index.labels
        assert set(levels) <= set(range(len(p.tree.heights()) + 1))
        for k, h in enumerate(p.tree.heights(), 1):
            X = p.tree.level(h)
            ranks = [r for r, x in enumerate(labels) if x in X]
            part = levels.get(k, {})
            for x in ranks:
                for y in ranks:
                    want_rs = ref.relations_between(p.family, labels[x], labels[y])
                    assert part.get(x, {}).get(y, []) == want_rs
            got = separation._labelled(separation._decide(part, ranks, rho, h), labels)
            want = ref.decide_rho_separation(p.family, X, rho_ref, h)
            assert got == want
            kinds[type(got).__name__] += 1
        assert calls == calls_ref
        assert rho.entries() == rho_ref.entries()
    assert kinds["WitnessOrder"] > 200, kinds
    assert kinds["Loop"] >= 16 and kinds["PairwiseViolation"] >= 16, kinds


def _random_pairs(rng: random.Random, t, fam) -> list:
    nodes = sorted(t.nodes)
    pairs = [pair for f in fam.values() for pair in f.pairs if rng.random() < 0.7]
    for _ in range(rng.randint(0, 6)):
        x = rng.choice(nodes)
        same_level = sorted(t.level(x.height))
        pairs.append((x, rng.choice(same_level if rng.random() < 0.7 else nodes)))
    return pairs


def test_classify_matches_quadratic_form():
    functional = non_functional = 0
    for seed in range(400):
        rng = random.Random(seed)
        bounds = GenBounds(max_heights=rng.randint(1, 4), max_level_width=6, max_indices=3)
        p, _ = gen_condition(seed, bounds)
        for _ in range(3):
            pairs = _random_pairs(rng, p.tree, p.family)
            flags = classify_map(p.tree, pairs)
            assert flags == ref.classify_map(p.tree, pairs)
            functional += flags.functional
            non_functional += not flags.functional
    assert functional > 100 and non_functional > 100


def _outcome(classify, t, pairs):
    try:
        return classify(t, pairs)
    except ValueError as exc:  # MalformedTreeError included
        return type(exc), str(exc)


def test_classify_shortcut_matches_the_ancestor_walk():
    # classify_map compares each source with its nearest ancestor in the
    # domain, which the reference's walk along every ancestor chain must
    # confirm.  Valid trees are layered, and so are trees that fail validation
    # only by a root link or a link from outside the node set; a link that
    # skips a level leaves a tree unlayered, and classify_map refuses it by
    # its first validation line
    shortcut = refused = 0
    for seed in range(150):
        rng = random.Random(seed)
        p, _ = gen_condition(seed, GenBounds(max_heights=4, max_level_width=5, max_indices=3))
        t = p.tree
        top = max(t.nodes)
        deep = [x for x in t.nodes if t.level_below(x.height) != ZERO]
        variants = [({}, True), ({ZERO: top}, True), ({O("w^(w^w)"): top}, True)]
        if deep:
            variants.append(({rng.choice(deep): ZERO}, False))
        for extra, layered in variants:
            u = StandardTree(t.nodes, {**t.parent, **extra})
            assert u._index.layered == layered
            for _ in range(2):
                pairs = _random_pairs(rng, t, p.family)
                got = _outcome(classify_map, u, pairs)
                if layered:
                    assert got == _outcome(ref.classify_map, u, pairs)
                    shortcut += 1
                else:
                    line = trees.validate_tree(u)[0]
                    assert line.startswith("clause 3: parent of ")
                    assert got == (trees.MalformedTreeError, line)
                    refused += 1
    assert shortcut == 900 and refused > 200


def test_classify_rejects_pairs_off_the_tree_like_the_reference():
    t = level_tree(2)
    pairs = [(ZERO, ZERO), (node_at(ONE, 0), node_at(W, 0))]
    messages = []
    for classify in (classify_map, ref.classify_map):
        try:
            classify(t, pairs)
        except ValueError as exc:
            messages.append(str(exc))
    assert messages == ["pair (w, w^2) leaves the tree"] * 2


def _consistency_outcome(check, t, f, X, b):
    try:
        return check(t, f, X, b)
    except ValueError as exc:
        return str(exc)


def test_is_consistent_matches_all_pairs_reference():
    # node sets on random levels of normal conditions, of lifted cones (where
    # the shared maps are consistent by construction), and with a map that is
    # not standard on the tree
    outcomes = Counter()
    for seed in range(1, 300):
        rng = random.Random(seed)
        p, _ = normal_layered_condition(seed)
        heights = p.tree.heights()
        if len(heights) < 2:
            continue
        conds = [p]
        top = p.tree.max_height()
        alpha = heights[-2]
        base = sorted(p.tree.level(alpha))
        X = frozenset(rng.sample(base, min(2, len(base))))
        b = min(y for y in p.tree.level(top) if p.tree.restrict(y, alpha) in X)
        try:
            q, Y = lift_with_support(p, alpha, X, p.family, b, RhoOracle.zero())
            conds.append(q)
        except ValueError:
            Y = None
        for q in conds:
            hs = q.tree.heights()
            beta = rng.choice(hs)
            ref_level = rng.choice([ZERO] + [h for h in hs if h < beta])
            level = sorted(q.tree.level(beta))
            sets = [frozenset(rng.sample(level, rng.randint(1, len(level)))) for _ in range(3)]
            if Y is not None and q is not p:
                sets.append(Y)
                ref_level = alpha if rng.random() < 0.5 else ref_level
            sets.append(frozenset(rng.sample(sorted(q.tree.nodes), 2)))  # two levels, mostly
            maps = list(q.family.values())
            maps.append(TreeMap([(ZERO, ZERO), *zip(level, reversed(level))]))
            for S in sets:
                for f in maps:
                    got = _consistency_outcome(is_consistent, q.tree, f, S, ref_level)
                    assert got == _consistency_outcome(ref.is_consistent, q.tree, f, S, ref_level)
                    outcomes[got if isinstance(got, bool) else "error"] += 1
    assert outcomes[True] > 500 and outcomes[False] > 50 and outcomes["error"] > 200, outcomes


def _petal_twins(width: int, k: int):
    """Indices 0..k all relate the first two level-1 nodes and their successors.

    rho is at alpha on every pair, so index 0 is the only shared one and the
    copy's fresh indices demand new rho values on every level of the copy.
    """
    alpha, beta = O("w^w"), O("w^w*2")
    low = [node_at(ONE, i) for i in range(width)]
    high = [node_at(alpha, i) for i in range(width)]
    links = {**{x: ZERO for x in low}, **dict(zip(high, low))}
    tree = StandardTree([ZERO] + low + high, links)
    pairs = [(ZERO, ZERO), (low[0], low[1]), (high[0], high[1])]
    p = Condition(tree, {i: TreeMap(pairs) for i in range(k + 1)})
    entries = [(i, j, alpha) for i in range(k + 1) for j in range(i + 1, k + 1)]
    assert not validate_condition(p, RhoOracle.from_entries(entries))
    return p, alpha, beta, high[0], lambda: RhoOracle.from_entries(entries)


def _matched_pair_cases():
    for seed in range(1, 201):
        p, alpha, beta, x, _ = _matched_pair_instance(seed)
        yield p, alpha, beta, x, lambda seed=seed: _matched_pair_instance(seed)[4]
    for width in (2, 3, 4):
        for k in (1, 2, 3):
            yield _petal_twins(width, k)


def test_matched_pair_oracle_extension_matches_reference_loop(monkeypatch):
    changed = []

    def reference(pb, rho):
        # the parent loop raises on any shared pair it would have to lift, so
        # handing it the real shared block checks that no such pair arises
        before = rho.entries()
        ref.raise_rho_for_copy(pb, frozenset(i for i in pb.family if i < 500), rho)
        changed.append(rho.entries() != before)

    runs = 0
    for p, alpha, beta, x, make_rho in _matched_pair_cases():
        outcomes = []
        for helper in (forcing._raise_rho_for_copy, reference):
            monkeypatch.setattr(forcing, "_raise_rho_for_copy", helper)
            rho = make_rho()
            try:
                build_matched_pair(p, alpha, beta, x, 500, rho)
                outcomes.append(rho.entries())
            except ValueError as exc:
                outcomes.append(str(exc))
            monkeypatch.undo()
        assert outcomes[0] == outcomes[1]
        runs += 1
    # the criterion-6 copies demand nothing new; the petal twins all do
    assert runs == 209 and sum(changed) >= 9


def test_amalgamation_bytes_are_pinned():
    """Every case's amalgamation, encoded with its oracle, or the error on the way."""
    outcomes = []
    for p, alpha, beta, x, make_rho in _matched_pair_cases():
        rho = make_rho()
        try:
            mp = build_matched_pair(p, alpha, beta, x, 500, rho)
            outcomes.append(encode_condition(forcing.amalgamate(mp, rho), rho))
        except (ValueError, RuntimeError) as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert len(outcomes) == 209
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "29a8a8fc1c3808a5685df1b65686f6e8e4cae1f5c1d3d5d0d0568e04e398a6c7"


def _module_sizes() -> dict[str, int]:
    """Sizes of every container or oracle table bound at module level in the library."""
    sizes = {}
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"treeforcing.{name}")
        for attr, value in vars(module).items():
            if isinstance(value, RhoOracle):
                sizes[f"{name}.{attr}.table"] = len(value.table)
            elif isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                sizes[f"{name}.{attr}"] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[f"{name}.{attr}.cache"] = value.cache_info().currsize
    return sizes


def test_decide_separation_leaves_no_module_state():
    before = _module_sizes()
    rng = random.Random(5)
    for _ in range(1000):
        _, fam, X = random_level_family(rng, rng.randint(1, 6), 3)
        decide_separation(fam, X)
    assert _module_sizes() == before
    assert not hasattr(treeforcing.ordinals.height_split, "cache_info")


# -- fresh labels: the allocator against the probing reference ---------------


def test_fresh_labels_match_the_probing_allocator():
    rng = random.Random(10)
    heights = [ZERO, ONE, O("2"), W, O("w+1"), O("w^w")]
    for _ in range(400):
        # gaps and several heights; labels parsed anew carry no height memo
        used = {node_at(rng.choice(heights), rng.randrange(12)) for _ in range(rng.randrange(30))}
        used = StandardTree((O(str(x)) if rng.random() < 0.5 else x for x in used), {})
        labels, probing = trees._FreshLabels(used), ref.ProbingLabels(used)
        h = rng.choice(heights)
        assert trees._FreshLabels(used).take(h) == ref.ProbingLabels(used).take(h)
        for _ in range(rng.randint(1, 25)):
            h = rng.choice(heights)
            assert labels.take(h) == probing.take(h)


def counting_node_at(monkeypatch, module) -> Counter:
    calls = Counter()

    def counted(height, offset):
        calls[height] += 1
        return node_at(height, offset)

    monkeypatch.setattr(module, "node_at", counted)
    return calls


def test_a_fan_out_builds_one_label_per_added_node(monkeypatch):
    x = node_at(ONE, 0)
    t = StandardTree([ZERO, x, node_at(W, 0)], {x: ZERO, node_at(W, 0): x})
    calls = counting_node_at(monkeypatch, trees)
    u = fan_out(t, {ZERO}, 2000)
    assert len(u.nodes) == 2002 and calls == {ONE: 1999}


def test_augment_reads_the_node_set_once(monkeypatch):
    p, rho = gen_condition(3)
    x = max(p.tree.level(p.tree.max_height()))
    built = []

    class Recorded(trees._FreshLabels):
        __slots__ = ()

        def __init__(self, nodes):
            built.append(nodes)
            super().__init__(nodes)

    monkeypatch.setattr(forcing, "_FreshLabels", Recorded)
    calls = counting_node_at(monkeypatch, trees)
    q = forcing.augment(p, 9, x, rho)
    added = len(q.tree.nodes) - len(p.tree.nodes)
    assert added >= 4 and len(built) == 1 and sum(calls.values()) == added


def under_allocator(monkeypatch, allocator, run):
    monkeypatch.setattr(trees, "_FreshLabels", allocator)
    monkeypatch.setattr(forcing, "_FreshLabels", allocator)
    try:
        return run()
    finally:
        monkeypatch.undo()


def _walk(seed: int) -> list[str]:
    """Encoded conditions (or errors) along a seeded random walk."""
    rng = random.Random(seed)
    bounds = GenBounds()
    p, rho = gen_condition(seed, bounds)
    out = []
    for _ in range(15):
        try:
            step = random_step(rng, p, rho, bounds)
        except (ValueError, RuntimeError) as exc:
            out.append(repr(exc))
            continue
        if step is not None:
            p = step[1]
            out.append(step[0] + encode_condition(p, rho))
    return out


def _amalgamation(seed: int) -> str:
    p, alpha, beta, x, rho = _matched_pair_instance(seed)
    try:
        mp = build_matched_pair(p, alpha, beta, x, 500, rho)
        return encode_condition(forcing.amalgamate(mp, rho), rho)
    except (ValueError, RuntimeError) as exc:
        return repr(exc)


def test_constructions_label_nodes_as_the_probing_allocator_does(monkeypatch):
    for seed in range(40):
        got = _walk(seed)
        assert got == under_allocator(monkeypatch, ref.ProbingLabels, lambda: _walk(seed))
    glued = 0
    for seed in range(1, 41):
        got = _amalgamation(seed)
        assert got == under_allocator(monkeypatch, ref.ProbingLabels, lambda: _amalgamation(seed))
        glued += not got.startswith(("ValueError", "RuntimeError"))
    assert glued >= 10


def test_widen_writes_the_bytes_of_the_probing_allocator(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g1.json"
    assert main(["--seed", "1", "--out", str(path), "gen"]) == 0

    def widen(count: int) -> str:
        assert main(["widen", str(path), "--node", "0", "--count", str(count)]) == 0
        return capsys.readouterr().out

    assert widen(150) == under_allocator(monkeypatch, ref.ProbingLabels, lambda: widen(150))
    # 2000 successors take the probing allocator about 13 s, so its bytes are
    # pinned by their SHA-256
    digest = hashlib.sha256(widen(2000).encode()).hexdigest()
    assert digest == "a77fecb996b50d000e6a8f103874ff88ed39d45d0c78b67618e9fd205626a292"


# -- extensions: one build against the per-level and per-step references -----


def chain_condition(levels: int) -> tuple[Condition, RhoOracle]:
    """Two chains on the even heights 2, 4, ..., 2 * levels, the map at 1
    sending the first onto the second."""
    heights = [O(str(2 * k)) for k in range(1, levels + 1)]
    a, b = [node_at(h, 0) for h in heights], [node_at(h, 1) for h in heights]
    parent = {**dict(zip(a, [ZERO, *a])), **dict(zip(b, [ZERO, *b]))}
    p = Condition(StandardTree([ZERO, *a, *b], parent), {1: TreeMap([ROOT_PAIR, *zip(a, b)])})
    return p, RhoOracle()


def test_extensions_write_the_bytes_of_the_per_level_and_per_step_references():
    tall = [chain_condition(levels) for levels in (16, 37, 64)]
    for p, rho in tall:
        assert validate_condition(p, rho) == []
    for p, rho in [*condition_pool(30), *tall]:
        hs, top = p.tree.heights(), p.tree.max_height()
        odd = {h + ONE for h in hs}  # mostly middle levels; the last one tops the tree
        for Z in (odd, {top + ONE, top + O("3")}, {ONE, O("w*2+1"), top + W}):
            q = extend_heights(p, Z, rho)
            u = ref.simple_extend_per_level(p.tree, Z | set(hs))
            want = Condition(u, {tau: _downward_close(u, f) for tau, f in p.family.items()})
            assert encode_condition(q, rho) == encode_condition(want, rho)
        for s in (min(p.family, default=0), max(p.family, default=0) + 1):
            for x in (ZERO, max(p.tree.nodes), min(p.tree.level(top))):
                q, want = augment(p, s, x, rho), ref.augment_per_step(p, s, x)
                assert encode_condition(q, rho) == encode_condition(want, rho)
