"""Acceptance suite.

One test per criterion, each printing its own pass/fail line; run with

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import random
import time

from treeforcing.forcing import (
    Condition,
    amalgamate,
    bijectivize_cone,
    bijectivize_level_with_record,
    build_matched_pair,
    extend_heights,
    leq,
    lift_with_support,
    normalize_condition,
    strong_ad_containment,
    validate_condition,
)
from treeforcing.generate import GenBounds, gen_condition, random_step
from treeforcing.ordinals import (
    ZERO,
    Ordinal,
    height_split,
    node_at,
    omega_mul,
    parse_ordinal,
)
from treeforcing.scenario import Scenario, Step, run_scenario
from treeforcing.separation import (
    RhoOracle,
    WitnessOrder,
    decide_rho_separation,
    decide_separation,
    is_consistent,
    one_key_lift,
)
from treeforcing.treemaps import TreeMap, classify_map
from treeforcing.trees import (
    is_normal,
    unique_dropdowns,
    validate_tree,
)

from instances import (
    O,
    ONE,
    condition_pool,
    fibred_family,
    level_tree,
    normal_layered_condition,
    partial_fpf_injections,
    random_level_family,
    separated_subset,
)
from test_ordinals import oracle_add, oracle_omega_mul, random_small, to_list
from seed_reference import relations_between
from test_separation import brute_force_rho_separated
from test_treemaps import downward_close_map
from test_trees import simple_extend


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: decision procedure vs brute force ---------------------------


def test_criterion_1_separation_oracle_equivalence():
    start = time.time()
    total = agreements = 0

    # (a) exhaustive: every relation multigraph on up to 4 nodes, up to 2
    # indices, every rho pattern over {0, level}
    for n in (1, 2, 3, 4):
        nodes = [node_at(ONE, k) for k in range(n)]
        X = frozenset(nodes)
        injections = partial_fpf_injections(nodes)
        maps = {
            pairs: TreeMap(pairs + ((ZERO, ZERO),)) if pairs else TreeMap()
            for pairs in injections
        }
        for pairs in injections:
            fam = {1: maps[pairs]}
            rho = RhoOracle.zero()
            got = isinstance(decide_rho_separation(fam, X, rho, ONE), WitnessOrder)
            want = brute_force_rho_separated(fam, X, rho, ONE)
            total += 1
            agreements += got == want
        for p1 in injections:
            for p2 in injections:
                fam = {1: maps[p1], 2: maps[p2]}
                for v in (ZERO, ONE):
                    rho = RhoOracle.from_entries([(1, 2, v)])
                    got = isinstance(
                        decide_rho_separation(fam, X, rho, ONE), WitnessOrder
                    )
                    want = brute_force_rho_separated(fam, X, rho, ONE)
                    total += 1
                    agreements += got == want
    exhaustive = total

    # (b) random: up to 6 nodes, up to 3 indices, seeded rho values
    for seed in range(2000):
        rng = random.Random(10_000 + seed)
        t, fam, X = random_level_family(rng, rng.randint(1, 6), 3)
        rho = RhoOracle.seeded(seed, [ZERO, ONE])
        got = isinstance(decide_rho_separation(fam, X, rho, ONE), WitnessOrder)
        want = brute_force_rho_separated(fam, X, rho, ONE)
        total += 1
        agreements += got == want

    elapsed = time.time() - start
    report(
        1,
        agreements == total and elapsed < 60,
        f"{agreements}/{total} agree ({exhaustive} exhaustive + 2000 random), {elapsed:.1f}s",
    )


# -- criterion 2: blanket soundness of the constructive operations -------------


def test_criterion_2_blanket_soundness():
    start = time.time()
    draws = failures = 0
    pool = condition_pool(120)
    rng = random.Random(0xB1A)
    while draws < 1000:
        p, rho = pool[rng.randrange(len(pool))]
        result = random_step(rng, p, rho, GenBounds(max_level_width=8, max_heights=5))
        if result is None:
            continue
        name, q = result
        draws += 1
        if validate_condition(q, rho) or not leq(q, p):
            failures += 1
    # fold in the heavier pipeline operations on controlled shapes
    heavy = 0
    seed = 0
    while heavy < 60 and seed < 4000:
        seed += 1
        p, rho = normal_layered_condition(seed)
        rng = random.Random(seed)
        heights = p.tree.heights()
        if len(heights) < 2:
            continue
        alpha = heights[-2]
        fam = dict(p.family)
        X = separated_subset(rng, fam, p.tree.level(alpha), max_size=2)
        if X is None:
            continue
        A = frozenset(rng.sample(sorted(fam), min(len(fam), 2)))
        try:
            q = bijectivize_cone(p, alpha, X, A, rho)
        except ValueError:
            continue
        heavy += 1
        draws += 1
        if validate_condition(q, rho) or not leq(q, p):
            failures += 1
    elapsed = time.time() - start
    report(2, failures == 0, f"{draws} draws, {failures} failures, {elapsed:.1f}s")


# -- criterion 3: the structural laws, each over >= 500 seeded instances --------


def _simple_extension_instance(seed: int):
    from test_trees import random_tree

    rng = random.Random(seed)
    t = random_tree(seed % 97)
    extra = [O(s) for s in ("4", "6", "w*2", "w*3+1") if O(s) not in t.heights()]
    gaps = []
    levels = [ZERO] + list(t.heights())
    for lo, hi in zip(levels, levels[1:]):
        cand = lo + ONE
        if cand < hi and cand not in t.heights():
            gaps.append(cand)
    B = set(t.heights()) | set(rng.sample(extra, rng.randint(1, len(extra))))
    if gaps:
        B.add(rng.choice(gaps))
    u = simple_extend(t, B)
    return t, u


def test_criterion_3_structural_laws():
    start = time.time()
    batches: list[tuple[str, int]] = []

    # meets survive simple extensions; inserted nodes meet through their
    # unique upstairs neighbour
    count = 0
    for seed in range(500):
        t, u = _simple_extension_instance(seed)
        for x in sorted(t.nodes):
            for y in sorted(t.nodes):
                assert t.meet(x, y) == u.meet(x, y)
        inserted_levels = [
            a for a in set(u.heights()) - set(t.heights()) if a < t.max_height()
        ]
        for a in inserted_levels:
            beta = min(g for g in t.heights() if g > a)
            for a0 in sorted(u.level(a)):
                ups = [z for z in u.level(beta) if u.is_below(a0, z)]
                assert len(ups) == 1
                a0_plus = ups[0]
                for a1 in sorted(t.nodes):
                    if (
                        u.is_below_eq(a0_plus, a1)
                        or u.is_below(a1, a0_plus)
                        or a1 == a0_plus
                    ):
                        continue
                    assert u.meet(a0, a1) == t.meet(a0_plus, a1)
        count += 1
    batches.append(("meet preservation", count))

    # the meet-height criterion for strictly increasing functions, both ways,
    # on downward-closed relations that need not be functions
    from test_treemaps import random_closed_relation
    from test_trees import random_tree
    from test_trees import normalize as normalize_tree

    count = truthy = 0
    for seed in range(500):
        rng = random.Random(20_000 + seed)
        t = normalize_tree(random_tree(seed % 60))
        rel = random_closed_relation(t, rng, n_pairs=rng.randint(1, 4))
        flags = classify_map(t, rel)
        lhs = flags.functional and flags.strictly_increasing
        rhs = all(
            t.meet(a0, a1).height <= t.meet(b0, b1).height
            for a0, b0 in rel
            for a1, b1 in rel
        )
        assert lhs == rhs
        count += 1
        truthy += lhs
    assert 0 < truthy < count
    batches.append(("increasing-function criterion", count))

    # standard maps preserve meet heights; injectivity is exactly meet-height
    # equality for increasing level-preserving downward-closed functions
    from test_treemaps import random_standard_map

    count = 0
    for seed in range(500):
        rng = random.Random(30_000 + seed)
        t = normalize_tree(random_tree(seed % 60))
        f = random_standard_map(t, rng, tries=8)
        for a0 in sorted(f.domain):
            for a1 in sorted(f.domain):
                assert t.meet(a0, a1).height == t.meet(f.get(a0), f.get(a1)).height
        count += 1
    batches.append(("meet-height preservation", count))

    # relation uniqueness on separated sets
    count = 0
    seed = 0
    while count < 500 and seed < 40000:
        seed += 1
        rng = random.Random(40_000 + seed)
        t, fam, X = random_level_family(rng, rng.randint(2, 5), 3)
        if not isinstance(decide_separation(fam, X), WitnessOrder):
            continue
        for x in sorted(X):
            for y in sorted(X):
                assert len(relations_between(fam, x, y)) <= 1
        count += 1
    batches.append(("relation uniqueness", count))

    # strong persistence: separation climbs from a level set to everything
    # above it
    count = 0
    seed = 0
    while count < 500 and seed < 40000:
        seed += 1
        rng = random.Random(50_000 + seed)
        t, fam, alpha, beta = fibred_family(rng, rng.randint(2, 4), rng.randint(1, 2), 2)
        X = separated_subset(rng, fam, t.level(alpha))
        if X is None:
            continue
        Y = frozenset(b for b in t.level(beta) if t.restrict(b, alpha) in X)
        assert isinstance(decide_separation(fam, Y), WitnessOrder)
        count += 1
    batches.append(("strong persistence", count))

    # downward persistence: consistent unique-drop-down sets push
    # rho-separation down to their projections
    count = 0
    seed = 0
    while count < 500 and seed < 40000:
        seed += 1
        rng = random.Random(60_000 + seed)
        t, fam, alpha, beta = fibred_family(rng, rng.randint(2, 4), rng.randint(1, 2), 3)
        rho = RhoOracle.seeded(seed, [ZERO, ONE, O("2")])
        level = sorted(t.level(beta))
        X = frozenset(rng.sample(level, rng.randint(1, len(level))))
        if not unique_dropdowns(t, X, alpha):
            continue
        if not all(is_consistent(t, fam[tau], X, alpha) for tau in fam):
            continue
        if not isinstance(decide_rho_separation(fam, X, rho, beta), WitnessOrder):
            continue
        dropped = frozenset(t.restrict(x, alpha) for x in X)
        assert isinstance(
            decide_rho_separation(fam, dropped, rho, alpha), WitnessOrder
        )
        count += 1
    batches.append(("downward persistence", count))

    # rho-separation survives on an inserted level after closing downward
    count = 0
    seed = 0
    while count < 500 and seed < 40000:
        seed += 1
        rng = random.Random(70_000 + seed)
        t, fam, alpha, beta = fibred_family(rng, rng.randint(2, 3), rng.randint(1, 2), 2)
        rho = RhoOracle.seeded(seed, [ZERO, O("2"), O("w")])
        if not all(
            isinstance(decide_rho_separation(fam, t.level(h), rho, h), WitnessOrder)
            for h in t.heights()
        ):
            continue
        inserted = alpha + ONE  # strictly between the two levels? only if < beta
        if not inserted < beta:
            continue
        u = simple_extend(t, set(t.heights()) | {inserted})
        closed = {tau: downward_close_map(t, u, f) for tau, f in fam.items()}
        assert isinstance(
            decide_rho_separation(closed, u.level(inserted), rho, inserted),
            WitnessOrder,
        )
        count += 1
    batches.append(("inserted-level separation", count))

    elapsed = time.time() - start
    detail = ", ".join(f"{name}: {n}" for name, n in batches)
    report(3, all(n >= 500 for _, n in batches), f"{detail}; {elapsed:.1f}s")


# -- criterion 4: the lifting pipeline ------------------------------------------


def test_criterion_4_lift_pipeline():
    start = time.time()
    count = failures = 0
    seed = 0
    while count < 300 and seed < 40000:
        seed += 1
        rng = random.Random(80_000 + seed)
        p, rho = normal_layered_condition(seed)
        heights = p.tree.heights()
        if len(heights) < 2:
            continue
        alpha = heights[-2] if rng.random() < 0.8 or len(heights) < 3 else heights[-3]
        fam = dict(p.family)
        X = separated_subset(rng, fam, p.tree.level(alpha), max_size=2)
        if X is None:
            continue
        A = frozenset(rng.sample(sorted(fam), min(len(fam), rng.randint(1, 2))))
        x0 = rng.choice(sorted(X))
        top = p.tree.max_height()
        b = min(y for y in p.tree.successors(x0) if y.height == top)
        try:
            q, Y = lift_with_support(p, alpha, X, A, b, rho)
        except ValueError:
            continue
        count += 1
        ok = (
            b in Y
            and unique_dropdowns(q.tree, Y, alpha)
            and {q.tree.restrict(y, alpha) for y in Y} == X
            and all(is_consistent(q.tree, q.family[tau], Y, alpha) for tau in A)
            and leq(q, p)
            and not validate_condition(q, rho)
        )
        failures += not ok
    elapsed = time.time() - start
    report(
        4,
        failures == 0 and elapsed < 30,
        f"{count} lifts, {failures} failures, {elapsed:.1f}s",
    )


# -- criterion 5: fan bijectivization with its construction record --------------


def test_criterion_5_bijectivize_level():
    start = time.time()
    count = failures = 0
    seed = 0
    while count < 300 and seed < 40000:
        seed += 1
        rng = random.Random(90_000 + seed)
        p, rho = normal_layered_condition(seed)
        heights = p.tree.heights()
        if len(heights) < 2:
            continue
        alpha = rng.choice(heights[:-1])
        fam = dict(p.family)
        X = separated_subset(rng, fam, p.tree.level(alpha), max_size=3)
        if X is None:
            continue
        A = frozenset(rng.sample(sorted(fam), min(len(fam), rng.randint(1, 2))))
        try:
            q, record = bijectivize_level_with_record(p, alpha, X, A, rho)
        except ValueError:
            continue
        count += 1
        ok = not validate_condition(q, rho) and leq(q, p)
        ok = ok and set(q.tree.heights()) == set(p.tree.heights())
        ok = ok and set(q.family) == set(p.family)
        fans = frozenset().union(*(q.tree.immediate_successors(x) for x in X))
        ok = ok and (q.tree.nodes - p.tree.nodes) <= fans
        ok = ok and all(q.tree.immediate_successors(x) for x in X)
        for tau in sorted(q.family):
            fresh = set(q.family[tau].pairs) - set(p.family[tau].pairs)
            ok = ok and all(a in fans and c in fans for a, c in fresh)
        ok = ok and isinstance(
            decide_separation({tau: q.family[tau] for tau in A}, fans), WitnessOrder
        )
        # partition properties along every recorded transfer edge
        pq = record.block_size * len(record.order)
        for i, a_i in enumerate(record.order):
            fan = q.tree.immediate_successors(a_i)
            ok = ok and len(fan) == pq
            row = record.blocks[i]
            ok = ok and sorted(x for blk in row for x in blk) == sorted(fan)
            ok = ok and p.tree.immediate_successors(a_i) <= set(row[i])
        for i, j, tau in record.edges:
            g, f = q.family[tau], p.family[tau]
            for k in range(len(record.order)):
                if k in (i, j):
                    continue
                ok = ok and {g.get(v) for v in record.blocks[i][k]} == set(
                    record.blocks[j][k]
                )
            fresh_sources = [v for v in record.blocks[i][i] if v not in f.domain]
            ok = ok and {g.get(v) for v in fresh_sources} <= set(record.blocks[j][i])
            fresh_targets = [w for w in record.blocks[j][j] if w not in f.image]
            ok = ok and {g.get_inverse(w) for w in fresh_targets} <= set(
                record.blocks[i][j]
            )
        failures += not ok
    elapsed = time.time() - start
    report(5, failures == 0, f"{count} runs, {failures} failures, {elapsed:.1f}s")


# -- criterion 6: matched pairs and amalgamation --------------------------------


def _matched_pair_instance(seed: int):
    rng = random.Random(seed)
    alpha = O("w^w")
    beta = rng.choice([O("w^w*2"), O("w^w*3"), O("w^(w+1)")])
    rho = RhoOracle.zero() if rng.random() < 0.5 else RhoOracle.seeded(seed, [ZERO, ONE])
    bounds = GenBounds(max_heights=2, max_level_width=4, max_indices=2, max_steps=6)
    p, _ = gen_condition(seed, bounds)
    p = extend_heights(p, {alpha} | ({alpha + ONE} if rng.random() < 0.5 else set()), rho)
    p = normalize_condition(p, rho)
    # sprinkle relations at the matched level where separation allows
    fam = dict(p.family)
    level = sorted(p.tree.level(alpha))
    for tau in sorted(fam):
        if rng.random() < 0.6 and len(level) >= 2:
            a, b = rng.sample(level, 2)
            extended = set(fam[tau].pairs)
            for c in [ZERO] + [h for h in p.tree.heights() if h <= alpha]:
                extended.add((p.tree.restrict(a, c), p.tree.restrict(b, c)))
            try:
                cand = TreeMap(extended)
            except ValueError:
                continue
            trial = dict(fam)
            trial[tau] = cand
            if not validate_condition(Condition(p.tree, trial), rho):
                fam = trial
    p = Condition(p.tree, fam)
    # mark one index as unshareable so petals appear
    others = [i for i in sorted(fam) if i != 0]
    if others and rng.random() < 0.5:
        rho.set_value(0, others[0], alpha)
    x = rng.choice([n for n in sorted(p.tree.nodes) if n.height >= alpha])
    return p, alpha, beta, x, rho


def test_criterion_6_amalgamation():
    start = time.time()
    count = failures = 0
    seed = 0
    while count < 200 and seed < 40000:
        seed += 1
        try:
            p, alpha, beta, x, rho = _matched_pair_instance(seed)
            mp = build_matched_pair(p, alpha, beta, x, 500, rho)
        except ValueError:
            continue
        count += 1
        try:
            w = amalgamate(mp, rho)
            ok = (
                not validate_condition(w, rho)
                and leq(w, mp.pa)
                and leq(w, mp.pb)
                and w.tree.is_below(mp.anchor_a, mp.anchor_b)
            )
        except (ValueError, RuntimeError):
            ok = False
        failures += not ok
    elapsed = time.time() - start
    report(
        6,
        failures == 0 and elapsed < 60,
        f"{count} matched pairs, {failures} failures, {elapsed:.1f}s",
    )


# -- criterion 7: the trace invariant over scripted runs -------------------------


def _scripted_scenario(seed: int) -> Scenario:
    rng = random.Random(seed)
    steps: list[Step] = []
    heights_pool = ["1", "2", "3", "w", "w+1"]
    known_nodes = ["0"]
    indices: list[int] = [0]
    steps.append(Step("extend_heights", {"heights": rng.sample(heights_pool, 2)}))
    for _ in range(rng.randint(3, 7)):
        kind = rng.choice(["add_index", "augment", "widen", "normalize", "hausdorff"])
        if kind == "add_index":
            s = rng.randrange(1, 9)
            indices.append(s)
            steps.append(Step("add_index", {"index": s}))
        elif kind == "augment":
            steps.append(
                Step("augment", {"index": rng.choice(indices), "node": rng.choice(known_nodes)})
            )
        elif kind == "widen":
            steps.append(Step("widen_node", {"node": "0", "count": rng.randint(1, 3)}))
        elif kind == "normalize":
            steps.append(Step("normalize_condition"))
        else:
            steps.append(Step("hausdorffize"))
    return Scenario(rho_spec="zero", steps=tuple(steps))


def test_criterion_7_trace_invariant():
    start = time.time()
    runs = failures = 0
    for seed in range(100):
        scenario = _scripted_scenario(seed)
        trace = run_scenario(scenario)
        runs += 1
        if not trace.ok:
            failures += 1
            continue
        pairs = set()
        for cond in trace.conditions:
            idx = sorted(cond.family)
            pairs.update((g, t) for g in idx for t in idx if g < t)
        for g, t in sorted(pairs):
            if not strong_ad_containment(trace.conditions, g, t):
                failures += 1
    elapsed = time.time() - start
    report(7, failures == 0, f"{runs} scripted runs, {failures} failures, {elapsed:.1f}s")


# -- criterion 8: the ordinal kernel ---------------------------------------------


def test_criterion_8_ordinal_kernel():
    start = time.time()
    rng = random.Random(8128)
    failures = 0
    for _ in range(1000):
        g = random_small(rng)
        h, k = height_split(g)
        failures += node_at(h, k) != g
        h2, k2 = random_small(rng), rng.randint(0, 40)
        failures += height_split(node_at(h2, k2)) != (h2, k2)
    for _ in range(1000):
        a, b, c = (random_small(rng) for _ in range(3))
        failures += to_list(a + b) != oracle_add(to_list(a), to_list(b))
        failures += (a + b) + c != a + (b + c)
        failures += omega_mul(a + b) != omega_mul(a) + omega_mul(b)
        failures += to_list(omega_mul(a)) != oracle_omega_mul(to_list(a))
    for _ in range(1000):
        o = random_small(rng)
        failures += parse_ordinal(str(o)) != o
    elapsed = time.time() - start
    report(
        8,
        failures == 0 and elapsed < 10,
        f"3000 checked values over 1000-draw rounds, {failures} failures, {elapsed:.1f}s",
    )
