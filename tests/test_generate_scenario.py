from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import pytest

import seed_reference as ref
from instances import benchmark_workloads

from treeforcing import codec
from treeforcing.codec import CodecError
from treeforcing.ordinals import parse_ordinal
from treeforcing.forcing import Condition, leq, validate_condition
from treeforcing.generate import GenBounds, gen_condition, random_step
from treeforcing.scenario import Scenario, Step, parse_scenario, run_scenario
from treeforcing.separation import RhoOracle, oracle_from_spec


def test_gen_condition_deterministic():
    a, _ = gen_condition(42)
    b, _ = gen_condition(42)
    assert a == b
    c, _ = gen_condition(43)
    assert isinstance(c.tree.nodes, frozenset)


def test_gen_condition_valid_by_construction():
    # the walk never leaves the poset: every seed yields a valid condition
    for seed in range(1000):
        p, rho = gen_condition(seed)
        assert validate_condition(p, rho) == [], seed


def test_gen_condition_tiny_bounds():
    p, _ = gen_condition(7, GenBounds(max_heights=1, max_indices=1, max_steps=3))
    assert len(p.tree.heights()) <= 1
    assert len(p.family) <= 1


def test_scenario_empty_steps():
    trace = run_scenario(Scenario())
    assert trace.ok
    assert len(trace.conditions) == 1


def test_scenario_canonical_demo():
    text = json.dumps(
        {
            "rho": {"kind": "zero"},
            "steps": [
                {"op": "add_index", "args": {"index": 5}},
                {"op": "augment", "args": {"index": 5, "node": "0"}},
                {"op": "widen_node", "args": {"node": "0", "count": 2}},
                {
                    "op": "grow_node",
                    "args": {"node": "0", "height": "w"},
                    "expect": {"normal": True},
                },
            ],
        }
    )
    trace = run_scenario(parse_scenario(text))
    assert trace.ok, trace.log
    assert len(trace.conditions) == 5
    for later, earlier in zip(trace.conditions[1:], trace.conditions):
        assert leq(later, earlier)
    assert any("containment 0,5: ok" in line for line in trace.log)


def test_scenario_matched_pair_to_amalgamation():
    text = json.dumps(
        {
            "rho": {"kind": "zero"},
            "steps": [
                {"op": "augment", "args": {"index": 0, "node": "0"}},
                {"op": "extend_heights", "args": {"heights": ["1", "w^w"]}},
                {"op": "normalize_condition"},
                {
                    "op": "build_matched_pair",
                    "args": {
                        "alpha": "w^w",
                        "beta": "w^w*2",
                        "node": "w^w",
                        "fresh_index_base": 50,
                    },
                },
                {"op": "amalgamate"},
            ],
        }
    )
    trace = run_scenario(parse_scenario(text))
    assert trace.ok, trace.log
    final = trace.conditions[-1]
    assert any(h >= parse_ordinal("w^w*2") for h in final.tree.heights())


def test_scenario_failing_step_reports():
    text = json.dumps(
        {
            "steps": [
                {"op": "augment", "args": {"index": 0, "node": "w*4"}},
            ]
        }
    )
    trace = run_scenario(parse_scenario(text))
    assert not trace.ok
    assert any("failed" in line for line in trace.log)
    assert len(trace.conditions) == 1


def test_scenario_expect_failure_flagged():
    text = json.dumps(
        {
            "steps": [
                {"op": "add_index", "args": {"index": 3}, "expect": {"index_count": 9}},
            ]
        }
    )
    trace = run_scenario(parse_scenario(text))
    assert not trace.ok


def test_scenario_final_expect_failure_fails_the_run(tmp_path, capsys):
    """A failing ``final_expect`` is logged after the last step, and ``run``
    prints ``failed`` and exits 1."""
    from treeforcing import cli

    path = tmp_path / "final.json"
    path.write_text(
        json.dumps(
            {
                "steps": [{"op": "add_index", "args": {"index": 3}}],
                "final_expect": {"index_count": 9, "normal": True},
            }
        )
    )
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr() == (
        "start: ok\n"
        "step 0 add_index: ok\n"
        "  expectation 'index_count': wanted 9, got 2\n"
        "containment 0,3: ok\n"
        "failed\n",
        "",
    )


def test_scenario_rejects_unknown_rho():
    with pytest.raises(CodecError):
        parse_scenario('{"rho": {"kind": "magic"}}')


def test_scenario_table_rho():
    text = json.dumps(
        {
            "rho": {"kind": "table", "entries": [[5, 9, "w"]]},
            "steps": [{"op": "add_index", "args": {"index": 5}}],
        }
    )
    trace = run_scenario(parse_scenario(text))
    assert trace.ok


def test_random_step_yields_descending_chain():
    import random

    rng = random.Random(5)
    from treeforcing.forcing import Condition

    rho = oracle_from_spec("zero")
    p = Condition.trivial()
    bounds = GenBounds()
    for _ in range(30):
        result = random_step(rng, p, rho, bounds)
        if result is None:
            continue
        _, q = result
        assert validate_condition(q, rho) == []
        assert leq(q, p)
        p = q


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"steps": [{"op": "extend_heights", "args": []}]}, "steps[0].args"),
        ({"steps": [{"op": "add_index", "args": {"index": 1}}, {"op": "x", "args": 3}]}, "steps[1].args"),
        ({"steps": [{"op": "normalize_condition", "expect": ["normal"]}]}, "steps[0].expect"),
        ({"steps": [], "final_expect": 3}, "final_expect"),
        ({"final_expect": None}, "final_expect"),
    ],
)
def test_scenario_rejects_non_object_fields(tmp_path, capsys, doc, field):
    from treeforcing import cli

    with pytest.raises(CodecError, match=re.escape(f"field '{field}': expected an object")):
        parse_scenario(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"steps": [{"op": "normalize_condition", "expect": {"nodes": 1}}]}, "steps[0].expect"),
        ({"steps": [], "final_expect": {"normal": True, "nodes": 1}}, "final_expect"),
    ],
)
def test_scenario_rejects_unknown_expect_keys(tmp_path, capsys, doc, field):
    from treeforcing import cli

    message = f"field '{field}': unknown key 'nodes'"
    with pytest.raises(CodecError, match=re.escape(message)):
        parse_scenario(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_expect_keys_are_checked_where_steps_and_scenarios_are_built():
    with pytest.raises(CodecError, match=re.escape("field 'final_expect': unknown key 'nodes'")):
        Scenario(final_expect={"nodes": 1})
    with pytest.raises(CodecError, match=re.escape("field 'step.expect': unknown key 'nodes'")):
        Step("normalize_condition", expect={"nodes": 1})


def test_steps_and_scenarios_stay_as_checked():
    expect, args = {"index_count": 1}, {"heights": ["1"]}
    step = Step("extend_heights", args, expect)
    s = Scenario(steps=(step,), final_expect=expect)
    # the caller's dicts are copied, not shared
    expect["nodes"] = 1
    args["heights"] = ["w"]
    assert dict(step.expect) == dict(s.final_expect) == {"index_count": 1}
    assert dict(step.args) == {"heights": frozenset({parse_ordinal("1")})}
    # and the copies refuse a key the check never saw
    with pytest.raises(TypeError):
        s.final_expect["nodes"] = 1
    with pytest.raises(TypeError):
        step.expect["nodes"] = 1
    with pytest.raises(TypeError):
        step.args["heights"] = frozenset()
    assert run_scenario(s).ok
    # a copy made with dataclasses.replace is checked and copied again
    assert replace(s, steps=()).final_expect == {"index_count": 1}
    with pytest.raises(CodecError, match=re.escape("field 'final_expect': unknown key 'nodes'")):
        replace(s, final_expect={**s.final_expect, "nodes": 1})


def test_a_script_parses_each_label_once(monkeypatch):
    # step 1 parses w*2, step 3 reads it from the script's memo, and step 4
    # carries a bad label, which fails naming its own field
    parsed = []
    parse = codec.parse_ordinal
    monkeypatch.setattr(codec, "parse_ordinal", lambda text: parsed.append(text) or parse(text))
    steps = [
        {"op": "extend_heights", "args": {"heights": ["1", "2"]}},
        {"op": "widen_node", "args": {"node": "w*2", "count": 1}},
        {"op": "add_index", "args": {"index": 1}},
        {"op": "augment", "args": {"index": 1, "node": "w*2"}},
        {"op": "grow_node", "args": {"node": "w*q", "height": "2"}},
    ]
    with pytest.raises(CodecError) as exc:
        parse_scenario(json.dumps({"steps": steps}))
    assert str(exc.value) == "field 'steps[4].args.node': expected a natural number at position 2: 'w*q'"
    assert parsed.count("w*2") == 1
    del steps[4]
    s = parse_scenario(json.dumps({"steps": steps}))
    assert s.steps[1].args["node"] == s.steps[3].args["node"] == parse_ordinal("w*2")
    assert parsed.count("w*2") == 2  # a new script has a new memo


def test_a_bad_label_is_not_kept_and_fails_at_its_first_step():
    # the memo keeps only successful parses, so the label fails again where it
    # first occurs, with the parser's own message
    steps = [
        {"op": "extend_heights", "args": {"heights": ["1"]}},
        {"op": "widen_node", "args": {"node": "w+01", "count": 1}},
        {"op": "add_index", "args": {"index": 1}},
        {"op": "augment", "args": {"index": 1, "node": "w+01"}},
    ]
    with pytest.raises(CodecError) as exc:
        parse_scenario(json.dumps({"steps": steps}))
    assert str(exc.value) == "field 'steps[1].args.node': expected a natural number at position 2: 'w+01'"
    steps[1]["args"]["node"] = "w"
    with pytest.raises(CodecError) as exc:
        parse_scenario(json.dumps({"steps": steps}))
    assert str(exc.value) == "field 'steps[3].args.node': expected a natural number at position 2: 'w+01'"


def test_the_final_report_covers_exactly_the_pairs_ever_co_present():
    # the report reads the trace's indices once; the reference is the
    # definition, every pair of indices that share some condition, ascending
    for text in benchmark_workloads().ScenarioWorkload(0).texts:
        trace = run_scenario(parse_scenario(text))
        assert trace.ok
        pairs = sorted(
            {(g, t) for c in trace.conditions for g in c.family for t in c.family if g < t}
        )
        lines = [line for line in trace.log if line.startswith("containment ")]
        assert [line.split(":")[0] for line in lines] == [f"containment {g},{t}" for g, t in pairs]


@pytest.mark.parametrize("rho", [{}, {"value": "w"}, 3, ["zero"]])
def test_scenario_rho_needs_an_object_with_a_kind(rho):
    with pytest.raises(CodecError) as exc:
        parse_scenario(json.dumps({"rho": rho}))
    assert str(exc.value) == "field 'rho': expected an object with a 'kind'"


def test_scenario_constant_rho():
    steps = [{"op": "add_index", "args": {"index": 5}}, {"op": "add_index", "args": {"index": 9}}]
    s = parse_scenario(json.dumps({"rho": {"kind": "constant", "value": "w"}, "steps": steps}))
    assert s.rho_spec == "const:w"
    assert oracle_from_spec(s.rho_spec).value(5, 9) == parse_ordinal("w")
    assert run_scenario(s).ok
    assert parse_scenario('{"rho": {"kind": "constant"}}').rho_spec == "const:0"
    with pytest.raises(CodecError, match="^field 'rho.value': "):
        parse_scenario('{"rho": {"kind": "constant", "value": "w+"}}')


def test_scenario_amalgamate_before_any_pair_fails_the_step():
    trace = run_scenario(parse_scenario('{"steps": [{"op": "amalgamate"}]}'))
    assert not trace.ok and len(trace.conditions) == 1
    assert trace.log == [
        "start: ok",
        "step 0 amalgamate: failed: no matched pair was built before amalgamate",
    ]


def _walk(seed: int, bounds: GenBounds = GenBounds()) -> list[Condition]:
    """Every condition of ``gen_condition(seed, bounds)``'s walk, in order."""
    rng, rho = random.Random(seed), RhoOracle.zero()
    walk = [Condition.trivial()]
    steps, attempts = rng.randint(2, bounds.max_steps), 0
    while len(walk) <= steps and attempts < 6 * bounds.max_steps:
        attempts += 1
        try:
            result = random_step(rng, walk[-1], rho, bounds)
        except ValueError:
            continue
        if result is not None:
            walk.append(result[1])
    return walk


def _agreeing(q: Condition, g: int, t: int) -> Condition:
    """q with map t also sending every source of map g off t's domain where g
    does: t keeps its pairs, and the two maps agree afresh."""
    f = q.family[t]
    extra = [(x, y) for x, y in q.family[g] if f.get(x) is None]
    return Condition(q.tree, {**q.family, t: f.with_pairs(extra)})


def test_leq_skips_only_index_pairs_whose_agreements_it_knows():
    # leq passes over an index pair whose two maps q shares with p; on every
    # step of 200 walks, against the start, against the previous walk's end
    # (rarely below), and with one map of the step grown onto another's
    # pairs, it answers as the order that checks every pair
    verdicts, previous = set(), Condition.trivial()
    for seed in range(200):
        walk = _walk(seed)
        assert walk[-1] == gen_condition(seed)[0]
        for p, q in zip(walk, walk[1:]):
            cases = [(q, p), (p, q), (q, walk[0]), (walk[0], q), (q, previous), (previous, q)]
            for g, t in zip(p.indices(), p.indices()[1:]):
                cases += [(_agreeing(q, g, t), p), (_agreeing(q, t, g), p)]
            for a, b in cases:
                verdict = leq(a, b)
                assert verdict == ref.leq_every_pair(a, b)
                verdicts.add(verdict)
        previous = walk[-1]
    assert verdicts == {True, False}
