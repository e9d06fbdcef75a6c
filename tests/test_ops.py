"""The operation table shared by the CLI, the scenario runner and the generator."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from treeforcing import forcing, generate, ops
from treeforcing.cli import main
from treeforcing.codec import CodecError, decode_condition, encode_condition
from treeforcing.ops import OPS
from treeforcing.ordinals import parse_ordinal
from treeforcing.scenario import parse_scenario, run_scenario

from test_check_budget import patch_kernel, with_fixed_point

# a condition with heights 1, 2, w^w, three nodes on level 1 and index 3
# mapping w upward; every case below starts from it
PREFIX = [
    {"op": "extend_heights", "args": {"heights": ["1", "2", "w^w"]}},
    {"op": "widen_node", "args": {"node": "0", "count": 3}},
    {"op": "add_index", "args": {"index": 3}},
    {"op": "augment", "args": {"index": 3, "node": "w"}},
]
NORMALIZE = {"op": "normalize_condition"}
LEVEL_ARGS = {"level": "1", "nodes": ["w", "w+1"], "indices": [3]}
MATCH_ARGS = {"alpha": "w^w", "beta": "w^w*2", "node": "w^w", "fresh_index_base": 100}

# entry -> steps after PREFIX; the last step runs the entry on a snapshot it changes
PARITY_CASES = {
    "extend_heights": [{"op": "extend_heights", "args": {"heights": ["w^w+1"]}}],
    "widen_node": [{"op": "widen_node", "args": {"node": "w+1", "count": 2}}],
    "hausdorffize": [
        {"op": "fan_out_condition", "args": {"nodes": ["w*2"], "count": 2}},
        {"op": "hausdorffize"},
    ],
    "normalize_condition": [NORMALIZE],
    "grow_node": [{"op": "grow_node", "args": {"node": "w+1", "height": "w^w"}}],
    "add_index": [{"op": "add_index", "args": {"index": 8}}],
    "augment": [{"op": "augment", "args": {"index": 3, "node": "w+1"}}],
    "fan_out_condition": [{"op": "fan_out_condition", "args": {"nodes": ["w"], "count": 3}}],
    "bijectivize_level": [{"op": "bijectivize_level", "args": LEVEL_ARGS}],
    "bijectivize_cone": [{"op": "bijectivize_cone", "args": LEVEL_ARGS}],
    "lift_with_support": [NORMALIZE, {"op": "lift_with_support", "args": {**LEVEL_ARGS, "node": None}}],
    # the scenario keeps the pair and its snapshot is the input, so the pair is
    # compared through its amalgamation
    "build_matched_pair": [NORMALIZE, {"op": "build_matched_pair", "args": MATCH_ARGS}, {"op": "amalgamate"}],
    "amalgamate": [NORMALIZE, {"op": "build_matched_pair", "args": MATCH_ARGS}, {"op": "amalgamate"}],
}
O = parse_ordinal
RHO = {"zero": ({"kind": "zero"}, []), "seeded": ({"kind": "seeded", "seed": 5}, ["--rho", "seed:5:0,1,w"])}


def run_steps(rho_doc, steps):
    trace = run_scenario(parse_scenario(json.dumps({"rho": rho_doc, "steps": steps})))
    assert trace.ok, trace.log
    return trace


def cli_flags(name, args):
    flags = ["--cone"] if name == "bijectivize_cone" else []
    for key in OPS[name].args:
        value = args[key]
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        flags += ["--fresh-base" if key == "fresh_index_base" else f"--{key}", text]
    return flags


def test_parity_cases_cover_the_table():
    assert set(PARITY_CASES) == set(OPS)


@pytest.mark.parametrize("rho", sorted(RHO))
@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_cli_and_scenario_give_identical_bytes(tmp_path, name, rho):
    rho_doc, rho_flags = RHO[rho]
    steps = PREFIX + json.loads(json.dumps(PARITY_CASES[name]))
    if name == "lift_with_support":
        # the anchor: the least top-level node over the node set
        p = run_steps(rho_doc, steps[:-1]).conditions[-1]
        X = {O(x) for x in LEVEL_ARGS["nodes"]}
        top = p.tree.level(p.tree.max_height())
        steps[-1]["args"]["node"] = str(min(y for y in top if p.tree.restrict(y, O("1")) in X))
    trace = run_steps(rho_doc, steps)
    # an amalgamate's input is the snapshot its matched pair was built from
    before = trace.conditions[-3] if steps[-1]["op"] == "amalgamate" else trace.conditions[-2]
    src = tmp_path / "in.json"
    src.write_text(encode_condition(before))
    out = tmp_path / "out.json"
    if steps[-1]["op"] == "amalgamate":
        pair = tmp_path / "pair.json"
        argv = ["--out", str(pair), "match-pair", str(src)] + cli_flags("build_matched_pair", MATCH_ARGS)
        assert main(rho_flags + argv) == 0
        assert main(["--out", str(out), "amalgamate", str(pair)]) == 0
    else:
        command = OPS[name].command or "bijectivize"
        argv = ["--out", str(out), command, str(src)] + cli_flags(name, steps[-1].get("args", {}))
        assert main(rho_flags + argv) == 0
    got, _ = decode_condition(out.read_text())
    assert trace.conditions[-1] is not before
    assert encode_condition(got) == encode_condition(trace.conditions[-1])


# -- the CLI checks what no operation checked ------------------------------------------


@pytest.fixture
def gen_files(tmp_path):
    """A valid ``--seed 3 gen`` file, and the same file with a fixed point off the root."""
    good = tmp_path / "gen.json"
    assert main(["--seed", "3", "--out", str(good), "gen"]) == 0
    doc = json.loads(good.read_text())
    doc["maps"]["0"].append(["w", "w"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return good, bad


@pytest.mark.parametrize(
    "command, name, args",
    [
        (["hausdorff"], "hausdorffize", {}),
        (["extend", "--heights", "1"], "extend_heights", {"heights": {O("1")}}),
        (["normalize"], "normalize_condition", {}),
        (["add-index", "--index", "0"], "add_index", {"index": 0}),
        (["add-index", "--index", "9"], "add_index", {"index": 9}),
    ],
)
def test_transforms_never_write_an_invalid_input_back(gen_files, capsys, command, name, args):
    # each returns its input unchanged, or (add-index of a new index) blames
    # the input in its own check
    good, bad = gen_files
    assert main([command[0], str(bad)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: input is not a valid condition: clause 2 (maps): map 0")
    assert main([command[0], str(good)] + command[1:]) == 0
    p, rho = decode_condition(good.read_text())
    assert capsys.readouterr().out == encode_condition(ops.run(name, p, args, rho), rho)


def test_internal_fault_exits_3(gen_files, monkeypatch, capsys):
    good, _ = gen_files
    patch_kernel(monkeypatch, "_extend_heights", with_fixed_point)
    assert main(["extend", str(good), "--heights", "w^2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: extend_heights produced an invalid condition")


# -- scenario steps and rho objects are decoded through a schema --------------------------


BAD_INDICES = {"op": "bijectivize_level", "args": {"level": "1", "nodes": ["w"], "indices": [0, -1]}}
BAD_COUNT = {"op": "widen_node", "args": {"node": "0", "count": True}}
BAD_HEIGHTS = {"op": "extend_heights", "args": {"heights": [["1"]]}}


def assert_named(tmp_path, capsys, doc, field):
    with pytest.raises(CodecError, match=re.escape(f"field '{field}'")):
        parse_scenario(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == 2
    assert f"field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "step, field",
    [
        ({"op": "magic"}, "steps[1].op"),
        ({"op": ["add_index"]}, "steps[1].op"),
        ({"op": "add_index", "args": {}}, "steps[1].args.index"),
        ({"op": "extend_heights", "args": {"heights": 5}}, "steps[1].args.heights"),
        ({"op": "extend_heights", "args": {"heights": "w"}}, "steps[1].args.heights"),
        ({"op": "extend_heights", "args": {"heights": ["1", 2]}}, "steps[1].args.heights[1]"),
        ({"op": "augment", "args": {"index": -1, "node": "0"}}, "steps[1].args.index"),
        ({"op": "widen_node", "args": {"node": "w+", "count": 1}}, "steps[1].args.node"),
        (BAD_INDICES, "steps[1].args.indices[1]"),
        (BAD_COUNT, "steps[1].args.count"),
        (BAD_HEIGHTS, "steps[1].args.heights[0]"),
    ],
)
def test_malformed_steps_name_their_field(tmp_path, capsys, step, field):
    assert_named(tmp_path, capsys, {"steps": [{"op": "add_index", "args": {"index": 1}}, step]}, field)


@pytest.mark.parametrize(
    "steps, line",
    [
        (
            [
                {"op": "add_index", "args": {"index": 1}},
                {"op": "extend_heights", "args": {"heights": ["1", "w*q"]}},
            ],
            "error: field 'steps[1].args.heights[1]': expected a natural number at position 2: 'w*q'",
        ),
        ([{"op": "add_index", "args": {}}], "error: field 'steps[0].args.index': missing"),
        (
            [{"op": "add_index", "args": {"index": 1}}, BAD_INDICES],
            "error: field 'steps[1].args.indices[1]': expected a natural number, got -1",
        ),
        ([BAD_COUNT], "error: field 'steps[0].args.count': expected a natural number, got True"),
        ([BAD_HEIGHTS], "error: field 'steps[0].args.heights[0]': expected an ordinal string, got ['1']"),
    ],
)
def test_malformed_step_arguments_print_one_exact_line(tmp_path, capsys, steps, line):
    # the scripts and lines of the CI step that runs them through python -m
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"steps": steps}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("steps, field", [(5, "steps"), ("w", "steps"), ([["add_index"]], "steps[0]")])
def test_malformed_step_lists_name_their_field(tmp_path, capsys, steps, field):
    assert_named(tmp_path, capsys, {"steps": steps}, field)


@pytest.mark.parametrize(
    "rho, field",
    [
        ({"kind": "seeded", "values": [1, 2]}, "rho.values[0]"),
        ({"kind": "seeded", "values": "0,1"}, "rho.values"),
        ({"kind": "seeded", "seed": "1:2"}, "rho.seed"),
        ({"kind": "seeded", "seed": "abc"}, "rho.seed"),
        ({"kind": "constant", "value": 3}, "rho.value"),
        ({"kind": "constant", "value": "w+"}, "rho.value"),
        ({"kind": "table", "entries": [[1, 2, "w"], [0, 0, "1"]]}, "rho.entries[1]"),
        ({"kind": "table", "entries": 5}, "rho.entries"),
        ({"kind": "seeded", "values": []}, "rho.values"),
    ],
)
def test_malformed_rho_objects_name_their_field(tmp_path, capsys, rho, field):
    assert_named(tmp_path, capsys, {"rho": rho, "steps": []}, field)


def test_rho_tables_in_files_name_their_field(tmp_path, capsys):
    from test_amalgamation import base_condition

    src = tmp_path / "p.json"
    src.write_text(encode_condition(base_condition(with_edge=True)))
    pair = tmp_path / "mp.json"
    argv = ["--out", str(pair), "match-pair", str(src), "--alpha", "w^w", "--beta", "w^w*2", "--node", "w^w"]
    assert main(argv) == 0
    for path, command in ((src, "validate"), (pair, "amalgamate")):
        doc = json.loads(path.read_text())
        doc["rho"] = [[1, 2, "w"], [0, 0, "1"]]
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == "error: field 'rho[1]': the diagonal of rho is zero\n"


# -- one table ----------------------------------------------------------------------------


def test_run_reads_the_function_at_call_time(monkeypatch):
    # tracers and tests patch module attributes; the table must not hold on
    # to the functions it saw at import
    calls = []
    monkeypatch.setattr(forcing, "add_index", lambda p, s, rho: calls.append(s) or p)
    p = forcing.Condition.trivial()
    assert ops.run("add_index", p, {"index": 4}, None) is p
    assert calls == [4]


def test_generator_draws_table_entries():
    assert set(generate.WALK_OPS) <= set(OPS)


def test_readme_lists_every_table_entry():
    readme = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text(encoding="utf-8")
    rows = {line.split("|")[1].strip(" `"): line for line in readme.splitlines() if line.startswith("| `")}
    for name, op in OPS.items():
        assert name in rows, name
        assert f"`{op.command or 'bijectivize --cone'}" in rows[name], name
