from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treeforcing

from treeforcing.cli import main
from treeforcing.codec import decode_condition, encode_condition
from treeforcing.forcing import Condition, extend_heights, validate_condition
from treeforcing.ordinals import parse_ordinal
from treeforcing.separation import RhoOracle
from treeforcing.trees import MAX_TREE_NODES, MalformedTreeError

from test_forcing_ops import t1_condition

O = parse_ordinal


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.json"
    path.write_text(encode_condition(t1_condition()))
    return str(path)


def test_validate_ok(t1_file, capsys):
    assert main(["validate", t1_file]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_invalid_exits_1(tmp_path, capsys):
    p = t1_condition()
    doc = json.loads(encode_condition(p))
    doc["maps"]["5"] = [["0", "0"], ["w", "w"]]  # fixed point off the root
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "clause 2" in capsys.readouterr().out


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_leq_and_extend(t1_file, tmp_path, capsys):
    out = tmp_path / "ext.json"
    assert main(["--out", str(out), "extend", t1_file, "--heights", "3,w"]) == 0
    assert main(["leq", str(out), t1_file]) == 0
    assert main(["leq", t1_file, str(out)]) == 1


def test_check_sep(t1_file, capsys):
    assert main(["check-sep", t1_file, "--level", "1"]) == 0
    assert "witness-order" in capsys.readouterr().out


def test_check_sep_violation(tmp_path, capsys):
    p = t1_condition()
    fam = dict(p.family)
    from treeforcing.treemaps import TreeMap
    from treeforcing.ordinals import ZERO

    fam[9] = TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])
    rho = RhoOracle.from_entries([(5, 9, O("1"))])
    path = tmp_path / "two.json"
    path.write_text(encode_condition(Condition(p.tree, fam), rho))
    # with the file's oracle the level is rho-separated
    assert main(["check-sep", str(path), "--level", "1"]) == 0
    # plain separation rejects the double relation
    assert main(["check-sep", str(path), "--level", "1", "--plain"]) == 1
    assert "pairwise-violation" in capsys.readouterr().out


def test_widen_grow_augment_pipeline(t1_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    assert main(["--out", str(a), "widen", t1_file, "--node", "w", "--count", "3"]) == 0
    assert main(["--out", str(b), "add-index", str(a), "--index", "9"]) == 0
    assert main(["--out", str(c), "augment", str(b), "--index", "9", "--node", "w"]) == 0
    q, _ = decode_condition(c.read_text())
    assert O("w") in q.family[9].domain
    assert main(["leq", str(c), t1_file]) == 0


def test_gen_validate_round(tmp_path):
    out = tmp_path / "gen.json"
    assert main(["--seed", "11", "--out", str(out), "gen"]) == 0
    assert main(["validate", str(out)]) == 0
    again = tmp_path / "gen2.json"
    assert main(["--seed", "11", "--out", str(again), "gen"]) == 0
    assert out.read_text() == again.read_text()


def test_export_dot(t1_file, capsys):
    assert main(["export-dot", t1_file]) == 0
    assert "digraph" in capsys.readouterr().out


def test_match_pair_amalgamate_pipeline(tmp_path, capsys):
    from test_amalgamation import base_condition

    src = tmp_path / "p.json"
    src.write_text(encode_condition(base_condition(with_edge=True)))
    mp_file = tmp_path / "mp.json"
    out = tmp_path / "w.json"
    assert (
        main(
            [
                "--out",
                str(mp_file),
                "match-pair",
                str(src),
                "--alpha",
                "w^w",
                "--beta",
                "w^w*2",
                "--node",
                "w^w",
            ]
        )
        == 0
    )
    assert main(["--out", str(out), "amalgamate", str(mp_file)]) == 0
    assert main(["validate", str(out)]) == 0
    assert main(["leq", str(out), str(src)]) == 0


def test_amalgamate_refuses_an_anchor_outside_the_node_matching(tmp_path, capsys):
    from test_amalgamation import base_condition

    src, mp_file = tmp_path / "p.json", tmp_path / "mp.json"
    src.write_text(encode_condition(base_condition(with_edge=True)))
    argv = ["match-pair", str(src), "--alpha", "w^w", "--beta", "w^w*2", "--node", "w^w"]
    assert main(["--out", str(mp_file)] + argv) == 0
    doc = json.loads(mp_file.read_text())
    doc["anchor_first"] = "w^w+7"
    mp_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["amalgamate", str(mp_file)]) == 2
    err = capsys.readouterr().err
    assert err == "error: matched pair does not validate: node matching does not connect the anchors\n"


def test_one_key_cli(tmp_path, capsys):
    from test_bijectivize import chain_three
    from treeforcing.forcing import extend_heights, normalize_condition
    from treeforcing.ordinals import node_at

    rho = RhoOracle.zero()
    p = chain_three()
    p = extend_heights(p, {O("3")}, rho)
    p = normalize_condition(p, rho)
    b = min(
        y for y in p.tree.successors(node_at(O("1"), 1)) if y.height == O("3")
    )
    src = tmp_path / "p.json"
    src.write_text(encode_condition(p))
    out = tmp_path / "lifted.json"
    nodes = ",".join(str(node_at(O("1"), k)) for k in range(3))
    assert (
        main(
            [
                "--out",
                str(out),
                "one-key",
                str(src),
                "--level",
                "1",
                "--nodes",
                nodes,
                "--indices",
                "3,8",
                "--node",
                str(b),
            ]
        )
        == 0
    )
    assert "support:" in capsys.readouterr().out
    assert main(["leq", str(out), str(src)]) == 0


def test_run_scenario_cli(tmp_path, capsys):
    scn = tmp_path / "s.json"
    scn.write_text(
        json.dumps(
            {
                "steps": [
                    {"op": "add_index", "args": {"index": 5}},
                    {"op": "augment", "args": {"index": 5, "node": "0"}},
                ]
            }
        )
    )
    assert main(["run", str(scn)]) == 0
    out = capsys.readouterr().out
    assert "step 0 add_index: ok" in out
    assert "containment" in out


@pytest.mark.parametrize(
    "parents, message",
    [
        ([["w", "w+1"], ["w+1", "w"]], "parent links cycle at w"),
        ([["w+1", "0"]], "node w has no parent link"),
    ],
    ids=["cycle", "missing-link"],
)
def test_leq_on_malformed_links_exits_2(tmp_path, parents, message):
    path = tmp_path / "links.json"
    doc = {"nodes": ["0", "w", "w+1"], "parents": parents, "indices": [], "maps": {}}
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(treeforcing.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "treeforcing.cli", "leq", str(path), str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert time.monotonic() - start < 30
    assert done.returncode == 2
    assert done.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "parents, message",
    [
        ([["w*2", "w*2+1"], ["w*2+1", "w*2"]], "parent links cycle at w*2"),
        ([["w*2+1", "0"]], "node w*2 has no parent link"),
    ],
    ids=["cycle", "missing-link"],
)
def test_extend_below_malformed_links_exits_2(tmp_path, capsys, parents, message):
    # level 1 goes in under level 2, whose links must reach the root first: the
    # library names the link fault, and the command blames its input
    path = tmp_path / "links.json"
    doc = {"nodes": ["0", "w*2", "w*2+1"], "parents": parents, "indices": [], "maps": {}}
    path.write_text(json.dumps(doc))
    p, rho = decode_condition(path.read_text())
    with pytest.raises(MalformedTreeError, match=f"^{re.escape(message)}$"):
        extend_heights(p, {parse_ordinal("1")}, rho)
    assert main(["extend", str(path), "--heights", "1"]) == 2
    report = "; ".join(validate_condition(p, rho))
    assert capsys.readouterr().err == (
        f"error: extend_heights: input is not a valid condition: {report}\n"
    )


# a tree whose links cycle, and one whose links skip a level
_MALFORMED_INPUTS = {
    "cyclic": [["w", "w*3"], ["w*3", "w"]],
    "skip": [["w", "0"], ["w*3", "0"]],
}


_ON_W = [
    (["extend", "--heights", "2"], "extend_heights"),
    (["widen", "--node", "w", "--count", "2"], "widen_node"),
    (["grow", "--node", "w", "--height", "3"], "grow_node"),
    (["fan-out", "--nodes", "w", "--count", "2"], "fan_out_condition"),
    (["augment", "--index", "0", "--node", "w"], "augment"),
    (["bijectivize", "--level", "1", "--nodes", "w", "--indices", "0"], "bijectivize_level"),
]


@pytest.mark.parametrize("links", _MALFORMED_INPUTS.values(), ids=_MALFORMED_INPUTS)
@pytest.mark.parametrize("command, op", _ON_W, ids=[command[0] for command, _ in _ON_W])
def test_an_operation_blames_a_malformed_tree_on_its_input(tmp_path, capsys, command, op, links):
    path = tmp_path / "in.json"
    doc = {"nodes": ["0", "w", "w*3"], "parents": links, "indices": [0], "maps": {"0": []}}
    path.write_text(json.dumps(doc))
    p, rho = decode_condition(path.read_text())
    report = validate_condition(p, rho)
    assert report and report[0].startswith("clause 1 (tree): ")
    out = tmp_path / "out.json"
    assert main(["--out", str(out), command[0], str(path)] + command[1:]) == 2
    assert capsys.readouterr().err == (
        f"error: {op}: input is not a valid condition: {'; '.join(report)}\n"
    )
    assert not out.exists()


def test_check_sep_on_missing_indices_exits_2(tmp_path, capsys):
    path = tmp_path / "gen.json"
    assert main(["--seed", "3", "--out", str(path), "gen"]) == 0
    present = sorted(decode_condition(path.read_text())[0].family)
    assert 77 not in present
    wanted = ",".join(map(str, [present[0], 77, 78]))
    assert main(["check-sep", str(path), "--level", "1", "--indices", wanted]) == 2
    assert capsys.readouterr().err == "error: indices not in the condition: 77, 78\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        # level 5 is unoccupied, and w sits on level 1
        pytest.param(["--level", "5", "--nodes", "w"], "node set leaves its level", id="off-level"),
        pytest.param(["--level", "1", "--nodes", "w^5,w"], "node set leaves its level", id="no-node"),
        pytest.param(["--level", "7"], "node set must be nonempty", id="empty-level"),
    ],
)
def test_check_sep_checks_its_level_and_nodes(tmp_path, capsys, flags, message):
    path = tmp_path / "g3.json"
    assert main(["--seed", "3", "--out", str(path), "gen"]) == 0
    p, _ = decode_condition(path.read_text())
    assert O("5") not in p.tree.heights() and O("7") not in p.tree.heights()
    assert O("w") in p.tree.level(O("1")) and O("w^5") not in p.tree.nodes
    assert main(["check-sep", str(path)] + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["validate", "leq", "run", "amalgamate"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    files = [str(path)] * (2 if command == "leq" else 1)
    assert main([command] + files) == 2
    assert capsys.readouterr().err == "error: document nests too deeply\n"


# Python's int() reads '-1', '٢' (Arabic-Indic 2) and the like, and fails on
# '²' with an error that names no natural; naturals here are ASCII digits
@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["add-index", "FILE", "--index", "-1"], "-1", id="index-negative"),
        pytest.param(["widen", "FILE", "--node", "0", "--count", "٢"], "٢", id="count"),
        pytest.param(["check-sep", "FILE", "--level", "1", "--indices", "٠"], "٠", id="indices"),
        pytest.param(
            ["check-sep", "FILE", "--level", "1", "--indices", "0,²"], "²", id="indices-superscript"
        ),
        pytest.param(["--rho", "seed:٣", "validate", "FILE"], "٣", id="rho-seed"),
        pytest.param(["--rho", "seed:²", "validate", "FILE"], "²", id="rho-seed-superscript"),
    ],
)
def test_natural_outside_ascii_digits_exits_2(tmp_path, capsys, argv, text):
    path, out = tmp_path / "g3.json", tmp_path / "out.json"
    assert main(["--seed", "3", "--out", str(path), "gen"]) == 0
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert main(["--out", str(out)] + argv) == 2
    assert capsys.readouterr().err == f"error: expected a natural number, got {text!r}\n"
    assert not out.exists()


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["add-index", "FILE", "--index", "LONG"],
        ["--rho", "seed:LONG", "validate", "FILE"],
        ["validate", "LONG_FILE"],
    ],
    ids=["flag", "rho", "file"],
)
def test_a_natural_past_the_digit_limit_exits_2_with_a_named_error(tmp_path, capsys, argv):
    # past the limit int() raises a plain ValueError with the interpreter's text
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path, long_file, out = tmp_path / "g3.json", tmp_path / "long.json", tmp_path / "out.json"
    assert main(["--seed", "3", "--out", str(path), "gen"]) == 0
    long_file.write_text('{"nodes": ["0"], "parents": [], "indices": [%s], "maps": {}}' % digits)
    names = {"FILE": str(path), "LONG_FILE": str(long_file)}
    capsys.readouterr()
    assert main(["--out", str(out)] + [names.get(a, a.replace("LONG", digits)) for a in argv]) == 2
    if "LONG_FILE" in argv:
        want = "error: document holds an integer with too many digits\n"
    else:
        want = f"error: natural number has too many digits: {len(digits)}\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_fresh_base_outside_ascii_digits_exits_2(tmp_path, capsys):
    from test_amalgamation import base_condition

    src = tmp_path / "p.json"
    src.write_text(encode_condition(base_condition(with_edge=True)))
    argv = ["match-pair", str(src), "--alpha", "w^w", "--beta", "w^w*2", "--node", "w^w"]
    assert main(argv + ["--fresh-base", "100"]) == 0
    capsys.readouterr()
    assert main(argv + ["--fresh-base", "١٠٠"]) == 2
    assert capsys.readouterr().err == "error: expected a natural number, got '١٠٠'\n"


def test_deeply_nested_level_exits_2(t1_file, capsys):
    level = "w^(" * 1500 + "1" + ")" * 1500
    assert main(["check-sep", t1_file, "--level", level]) == 2
    assert "nest deeper than" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["extend", "--heights", "3"],
        ["normalize"],
        ["widen", "--node", "w", "--count", "3"],
        ["augment", "--index", "5", "--node", "w+1"],
        ["grow", "--node", "w+1", "--height", "2"],
    ],
)
def test_transform_of_an_invalid_file_blames_the_input(tmp_path, capsys, command):
    # the operations check only their output; a failed check on an invalid
    # input names the input (exit 2), not an internal fault
    doc = {
        "nodes": ["0", "w", "w+1", "w*2"],
        "parents": [["w", "0"], ["w+1", "0"], ["w*2", "w"]],
        "indices": [5],
        "maps": {"5": [["0", "0"], ["w", "w"]]},  # fixed point off the root
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert "input is not a valid condition: clause 2 (maps): map 5" in err


@pytest.mark.parametrize(
    "doc, command",
    [
        pytest.param(
            # not downward closed: w+1 -> w+2 restricts to no pair at the root
            {
                "nodes": ["0", "w", "w+1", "w+2"],
                "parents": [["w", "0"], ["w+1", "0"], ["w+2", "0"]],
                "indices": [0],
                "maps": {"0": [["w+1", "w+2"]]},
            },
            ["extend", "--heights", "w+1"],
            id="extend-closes-a-map-below-the-old-nodes",
        ),
        pytest.param(
            # not level-preserving: w*4 -> 0, so the root pair gives 0 two preimages
            {
                "nodes": ["0", "w*4", "w^2*2"],
                "parents": [["w*4", "0"], ["w^2*2", "w*4"]],
                "indices": [0],
                "maps": {"0": [["w*4", "0"]]},
            },
            ["augment", "--index", "0", "--node", "w*4"],
            id="augment-meets-two-preimages-of-the-root",
        ),
    ],
)
def test_extend_and_augment_blame_an_invalid_map(tmp_path, capsys, doc, command):
    # both outputs fail a clause the input fails too: the input is at fault
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], str(path)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "input is not a valid condition" in err


def test_empty_seed_palette_exits_2(t1_file, capsys):
    assert main(["--rho", "seed:4:", "validate", t1_file]) == 2
    assert "palette must be nonempty" in capsys.readouterr().err
    assert main(["--rho", "seed:4", "validate", t1_file]) == 0


@pytest.mark.parametrize("spec", ["seed:", "seed::0,1"])
def test_rho_seed_needs_its_natural(t1_file, capsys, spec):
    # --seed seeds gen only; it does not stand in for a missing <n>
    assert main(["--seed", "7", "--rho", spec, "validate", t1_file]) == 2
    assert capsys.readouterr().err == "error: expected a natural number, got ''\n"


@pytest.mark.parametrize("spec", ["seed:1:0,1:junk", "seed:1::", "seed::w:"])
def test_rho_with_trailing_segments_exits_2(t1_file, capsys, spec):
    assert main(["--rho", spec, "validate", t1_file]) == 2
    assert capsys.readouterr().err == f"error: unknown rho specification {spec!r}\n"


def test_exploding_cone_exits_2_at_once(tmp_path, capsys):
    # the fan widths multiply level by level: 2, 12 and 144 nodes, and the
    # next level would add 144 * 144 nodes
    path = tmp_path / "g17.json"
    assert main(["--seed", "17", "--out", str(path), "gen"]) == 0
    argv = ["bijectivize", str(path), "--level", "1", "--nodes", "w,w+1", "--indices", "0", "--cone"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "would grow the tree to 20903 nodes, above the bound of 10000" in err


def test_fan_outs_past_the_node_bound_exit_2_at_once(tmp_path, capsys):
    path, out = tmp_path / "g1.json", tmp_path / "out.json"
    assert main(["--seed", "1", "--out", str(path), "gen"]) == 0
    # 5 nodes, one of them the root's only immediate successor: a fan-out of
    # the root to k successors has 4 + k nodes; widening the root first puts
    # a new level 1 under the 2 nodes of level w*2, so it ends with 5 + k
    fan = ["fan-out", str(path), "--nodes", "0", "--count"]
    assert main(["--out", str(out)] + fan + [str(MAX_TREE_NODES - 4)]) == 0
    assert len(decode_condition(out.read_text())[0].tree.nodes) == MAX_TREE_NODES
    widen = ["widen", str(path), "--node", "0", "--count"]
    for argv in (fan + [str(MAX_TREE_NODES - 3)], widen + [str(MAX_TREE_NODES - 4)]):
        capsys.readouterr()
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"grow the tree to {MAX_TREE_NODES + 1} nodes, above the bound of 10000" in err


def test_one_key_on_an_invalid_file_blames_the_input_under_its_own_name(tmp_path, capsys):
    path = tmp_path / "g4.json"
    assert main(["--seed", "4", "--out", str(path), "gen"]) == 0
    doc = json.loads(path.read_text())
    doc["maps"]["0"].append(["w^2+w+4", "w^2+w+4"])  # a fixed point off the root
    path.write_text(json.dumps(doc))
    flags = ["--level", "1", "--nodes", "w", "--indices", "0", "--node", "w^2+w"]
    assert main(["one-key", str(path)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lift_with_support: input is not a valid condition")


def test_match_pair_on_an_invalid_file_blames_the_input_under_its_own_name(tmp_path, capsys):
    from test_amalgamation import base_condition

    doc = json.loads(encode_condition(base_condition(with_edge=True)))
    doc["maps"]["0"].append(["w^w+1", "w^w+1"])  # a fixed point off the root
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    argv = ["match-pair", str(path), "--alpha", "w^w", "--beta", "w^w*2", "--node", "w^w"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: build_matched_pair: input is not a valid condition: clause 2 (maps)")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("node_matching", ["w^w+1", "w^w*2+7"], "field 'node_matching[5]': duplicate source w^w+1"),
        ("index_matching", [0, 5], "field 'index_matching[1]': duplicate source 0"),
    ],
    ids=["node", "index"],
)
def test_amalgamate_refuses_a_matching_with_a_repeated_source(tmp_path, capsys, field, value, message):
    from test_amalgamation import base_condition

    src, mp_file = tmp_path / "p.json", tmp_path / "mp.json"
    src.write_text(encode_condition(base_condition(with_edge=True)))
    argv = ["match-pair", str(src), "--alpha", "w^w", "--beta", "w^w*2", "--node", "w^w"]
    assert main(["--out", str(mp_file)] + argv) == 0
    doc = json.loads(mp_file.read_text())
    assert "second" not in doc
    doc[field].insert(0, value)
    mp_file.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["amalgamate", str(mp_file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -- the parser is built once and reused ----------------------------------------


def test_rho_flag_overrides_the_table_of_a_matched_pair_file(tmp_path, capsys):
    from test_amalgamation import base_condition

    src, mp_file = tmp_path / "p.json", tmp_path / "mp.json"
    rho = RhoOracle.from_entries([(0, 5, O("w^w"))])
    src.write_text(encode_condition(base_condition(with_edge=False, petal_index=5), rho))
    argv = ["match-pair", str(src), "--alpha", "w^w", "--beta", "w^w*2", "--node", "w^w"]
    assert main(["--out", str(mp_file)] + argv) == 0
    assert run_main(["amalgamate", str(mp_file)], capsys)[0] == 0
    # under the flag's oracle the pair is validated in full, and its cross premise fails
    assert run_main(["--rho", "zero", "amalgamate", str(mp_file)], capsys) == (
        2,
        "",
        "error: matched pair does not validate:"
        " cross pair (5, 100) has rho below the common height\n",
    )


def run_main(argv: list[str], capsys) -> tuple[int | str | None, str, str]:
    """Exit code (or SystemExit code), stdout and stderr of one main call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def rho_sensitive_file(tmp_path):
    # two maps relate w to w+1: not separated under the file's (empty) oracle,
    # rho-separated under seed:4
    p = t1_condition()
    fam = dict(p.family)
    from treeforcing.treemaps import TreeMap
    from treeforcing.ordinals import ZERO

    fam[9] = TreeMap([(ZERO, ZERO), (O("w"), O("w+1"))])
    path = tmp_path / "two.json"
    path.write_text(encode_condition(Condition(p.tree, fam)))
    return str(path)


def test_an_oracle_flag_does_not_outlive_its_call(rho_sensitive_file, capsys):
    alone = run_main(["validate", rho_sensitive_file], capsys)
    assert alone[0] == 1 and "pairwise-violation" in alone[1]
    assert run_main(["--rho", "seed:4", "validate", rho_sensitive_file], capsys) == (0, "ok\n", "")
    assert run_main(["validate", rho_sensitive_file], capsys) == alone


def test_usage_error_and_help_leave_the_parser_usable(t1_file, capsys):
    code, out, err = run_main(["validate"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: treeforcing validate") and "required: file" in err
    code, out, err = run_main(["--help"], capsys)
    assert code == 0 and out.startswith("usage: treeforcing") and err == ""
    assert run_main(["validate", t1_file], capsys) == (0, "ok\n", "")


def test_reused_parser_prints_the_help_of_a_fresh_one(t1_file, capsys):
    from treeforcing.cli import _build_parser

    assert main(["validate", t1_file]) == 0  # the parser exists and has been used
    capsys.readouterr()
    for argv in (["--help"], ["check-sep", "--help"], ["match-pair", "--help"]):
        reused = run_main(argv, capsys)
        with pytest.raises(SystemExit) as exit_:
            _build_parser().parse_args(argv)
        fresh = capsys.readouterr()
        assert reused == (exit_.value.code, fresh.out, fresh.err)
        assert reused[0] == 0 and reused[1].startswith("usage: treeforcing")


def test_parser_is_built_once_over_many_calls(t1_file, monkeypatch, capsys):
    from treeforcing import cli

    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    for _ in range(5):
        assert main(["validate", t1_file]) == 0
        assert main(["check-sep", t1_file, "--level", "1"]) == 0
    run_main(["--help"], capsys)
    assert len(builds) == 1


# -- named preconditions: each a ValueError naming itself, exit 2 ---------------

_CHAIN = {"nodes": ["0", "w", "w^w"], "parents": [["w", "0"], ["w^w", "w"]]}


@pytest.fixture
def condition_files(tmp_path):
    """Condition files by name: t1 (not normal), the chain of `gen --seed 3`
    (levels 1, 2 and 3, one empty map 0), the matched-pair base, t1 with a
    second map doubling the relation of map 5 (valid through its rho), and
    three chains up to level w^w: one with a node on level w^w*2, one
    without index 0, and one whose index 100 rho keeps out of the shared
    block."""
    from test_amalgamation import base_condition

    docs = {
        "t1": json.loads(encode_condition(t1_condition())),
        "base": json.loads(encode_condition(base_condition(with_edge=True))),
        "tall": {
            "nodes": _CHAIN["nodes"] + ["w^w*2"],
            "parents": _CHAIN["parents"] + [["w^w*2", "w^w"]],
            "indices": [0],
            "maps": {"0": []},
        },
        "no-index-0": {**_CHAIN, "indices": [1], "maps": {"1": []}},
        "petal": {**_CHAIN, "indices": [0, 100], "maps": {}, "rho": [[0, 100, "w^w"]]},
    }
    docs["two"] = {**docs["t1"], "indices": [5, 9], "maps": {**docs["t1"]["maps"]}}
    docs["two"]["maps"]["9"] = [["0", "0"], ["w", "w+1"]]
    docs["two"]["rho"] = [[5, 9, "1"]]  # rho-separated, so valid, but not separated
    paths = {name: tmp_path / f"{name}.json" for name in [*docs, "g3"]}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    assert main(["--seed", "3", "--out", str(paths["g3"]), "gen"]) == 0
    return {name: str(path) for name, path in paths.items()}


_SELECT = ["--level", "1", "--nodes", "w", "--indices", "5"]
_TOP = ["--level", "3", "--nodes", "w*3", "--indices", "0"]
_PAIR = ["--alpha", "w^w", "--beta", "w^w*2", "--node", "w^w"]


@pytest.mark.parametrize(
    "file, command, flags, text",
    [
        ("t1", "widen", ["--node", "w*9", "--count", "1"], "node w*9 not in tree"),
        ("t1", "widen", ["--node", "w", "--count", "0"], "successor count must be positive"),
        ("t1", "grow", ["--node", "w*9", "--height", "3"], "node w*9 not in tree"),
        ("t1", "grow", ["--node", "w*2", "--height", "1"], "target level must lie above the node"),
        ("t1", "fan-out", ["--nodes", "w", "--count", "0"], "successor count must be positive"),
        ("t1", "fan-out", ["--nodes", "0,w", "--count", "1"], "node set spans several levels"),
        ("t1", "fan-out", ["--nodes", "w*5", "--count", "1"], "node set leaves its level"),
        ("t1", "fan-out", ["--nodes", "w*2", "--count", "1"], "fan-out level must lie below the top"),
        ("t1", "fan-out", ["--nodes", "0", "--count", "1"], "nodes already exceed 1 immediate successors: 0"),
        ("t1", "bijectivize", _SELECT[:1] + ["2"] + _SELECT[2:], "level must be occupied and lie below the top"),
        ("t1", "bijectivize", _SELECT[:3] + [""] + _SELECT[4:], "node set must be nonempty"),
        ("t1", "bijectivize", _SELECT[:3] + ["w*2"] + _SELECT[4:], "node set leaves its level"),
        ("t1", "bijectivize", _SELECT[:5] + ["9"], "indices leave the family"),
        ("two", "bijectivize", _SELECT[:3] + ["w,w+1", "--indices", "5,9"], "selected maps are not separated on the node set"),
        ("t1", "bijectivize", ["--cone"] + _SELECT[:1] + ["3"] + _SELECT[2:], "level must be occupied"),
        # at the top level the cone grows nothing, and still checks its selection
        ("g3", "bijectivize", ["--cone"] + _TOP[:5] + ["9"], "indices leave the family"),
        ("g3", "bijectivize", ["--cone"] + _TOP[:3] + ["w"] + _TOP[4:], "node set leaves its level"),
        ("g3", "bijectivize", ["--cone"] + _TOP[:3] + [""] + _TOP[4:], "node set must be nonempty"),
        ("g3", "one-key", _TOP[:5] + ["9", "--node", "w*3"], "indices leave the family"),
        ("g3", "one-key", _TOP + ["--node", "w*3"], "levels must be occupied with alpha below beta"),
        ("g3", "one-key", _TOP + ["--node", "w*2"], "anchor node must sit on the top level over the node set"),
        ("t1", "one-key", _SELECT + ["--node", "w*2"], "tree is not normal"),
        ("t1", "match-pair", _PAIR[:5] + ["w"], "input tree is not normal"),
        ("base", "match-pair", ["--alpha", "w"] + _PAIR[2:], "level w is not occupied"),
        ("base", "match-pair", ["--alpha", "1"] + _PAIR[2:], "both levels must be fixed under scaling by w"),
        ("base", "match-pair", _PAIR[:3] + ["w^w"] + _PAIR[4:], "levels must be ordered"),
        ("base", "match-pair", _PAIR[:5] + ["w"], "anchor must sit at or above the matched level"),
        ("tall", "match-pair", _PAIR, "node labels must stay below the second level"),
        ("no-index-0", "match-pair", _PAIR, "index 0 must be present"),
        ("petal", "match-pair", _PAIR, "fresh index labels collide with the existing domain"),
    ],
)
def test_named_precondition_exits_2(condition_files, capsys, file, command, flags, text):
    assert main([command, condition_files[file]] + flags) == 2
    assert capsys.readouterr().err.startswith(f"error: {text}")


@pytest.mark.parametrize("key", ["٠", " 0", "+0", "0_0", "00", "0 "])
def test_map_key_other_than_a_canonical_natural_exits_2(tmp_path, capsys, key):
    doc = {"nodes": ["0", "w"], "parents": [["w", "0"]], "indices": [0], "maps": {key: []}}
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: field 'maps': key {key!r} is not an index\n"


def _scenario_file(tmp_path) -> str:
    path = tmp_path / "s.json"
    steps = [
        {"op": "add_index", "args": {"index": 5}},
        {"op": "augment", "args": {"index": 5, "node": "0"}},
    ]
    path.write_text(json.dumps({"steps": steps}))
    return str(path)


def test_a_fault_in_a_scenario_step_exits_3_naming_the_step(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("augment produced an invalid condition")

    monkeypatch.setattr(treeforcing.forcing, "augment", broken)
    assert main(["run", _scenario_file(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: step 1 augment: augment produced an invalid condition\n"


def test_a_key_error_in_a_scenario_step_is_not_a_failed_step(tmp_path, monkeypatch):
    from treeforcing.scenario import parse_scenario, run_scenario

    def broken(*args):
        raise KeyError(9)

    monkeypatch.setattr(treeforcing.forcing, "augment", broken)
    scenario = parse_scenario(Path(_scenario_file(tmp_path)).read_text(encoding="utf-8"))
    with pytest.raises(KeyError):
        run_scenario(scenario)


@pytest.mark.parametrize("command", ["augment", "run"])
def test_an_exception_of_any_other_type_exits_3_without_a_traceback(
    tmp_path, t1_file, capsys, monkeypatch, command
):
    def broken(*args):
        raise KeyError(9)

    monkeypatch.setattr(treeforcing.forcing, "augment", broken)
    if command == "run":
        argv = ["run", _scenario_file(tmp_path)]
    else:
        argv = ["augment", t1_file, "--index", "5", "--node", "0"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 9\n"
    # input errors keep their exit code, and argparse's own exit is not caught
    assert main(["augment", t1_file, "--index", "-1", "--node", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(SystemExit):
        main(["augment", t1_file])


_OPEN_MAP = {
    # map 0 relates w to w+1 without the root pair: not downward closed
    "nodes": ["0", "w", "w+1"],
    "parents": [["w", "0"], ["w+1", "0"]],
    "indices": [0],
    "maps": {"0": [["w", "w+1"]]},
}


@pytest.mark.parametrize(
    "command, op",
    [
        (["widen", "--node", "w", "--count", "1"], "widen_node"),
        (["grow", "--node", "w", "--height", "2"], "grow_node"),
        (["augment", "--index", "0", "--node", "w"], "augment"),
    ],
)
def test_an_operation_that_closes_up_an_invalid_input_still_refuses_it(
    tmp_path, capsys, command, op
):
    # each output is a valid condition below the input; the input is not one
    path = tmp_path / "open.json"
    path.write_text(json.dumps(_OPEN_MAP))
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    out = tmp_path / "out.json"
    assert main(["--out", str(out), command[0], str(path)] + command[1:]) == 2
    assert capsys.readouterr().err == (
        f"error: {op}: input is not a valid condition: "
        "clause 2 (maps): map 0 fails downwards_closed\n"
    )
    assert not out.exists()


def test_leq_on_trees_that_disagree_on_their_common_order_exits_2(tmp_path, capsys):
    # w*2 sits on the root in t and on w in u: t skips level 1, so it is not
    # layered, and leq refuses it by its first validation line
    files = {}
    for name, link in (("t", "0"), ("u", "w")):
        doc = {
            "nodes": ["0", "w", "w*2"],
            "parents": [["w", "0"], ["w*2", link]],
            "indices": [0],
            "maps": {"0": [["0", "0"]]},
        }
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    assert main(["leq", str(files["u"]), str(files["t"])]) == 2
    assert capsys.readouterr().err == (
        "error: clause 3: parent of w*2 sits at 0, expected the previous level 1\n"
    )


def test_check_sep_reads_only_the_named_indices(tmp_path, capsys):
    doc = json.loads(encode_condition(t1_condition()))
    doc["indices"], doc["maps"]["9"] = [5, 9], [["0", "0"], ["w", "w+1"]]
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    # maps 5 and 9 both relate w to w+1, so the two together are not separated
    assert main(["check-sep", str(path), "--level", "1", "--plain"]) == 1
    assert capsys.readouterr().out.startswith("pairwise-violation")
    for indices in ("5", "9"):
        assert main(["check-sep", str(path), "--level", "1", "--plain", "--indices", indices]) == 0
        assert capsys.readouterr().out == "witness-order: w, w+1\n"


def test_extend_to_height_zero_exits_2(t1_file, capsys):
    assert main(["extend", t1_file, "--heights", "0"]) == 2
    assert capsys.readouterr().err == "error: 0 cannot be an occupied height\n"


def test_validate_reads_stdin_for_a_dash(t1_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(t1_file).read_text(encoding="utf-8")))
    assert main(["validate", "-"]) == 0
    assert capsys.readouterr().out == "ok\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO("[]"))
    assert main(["validate", "-"]) == 2
    assert capsys.readouterr().err == "error: document root must be an object\n"


@pytest.mark.parametrize("flags", [[], ["--indices", "1"], ["--plain"]], ids=["all", "indices", "plain"])
def test_check_sep_refuses_a_map_that_is_not_injective(tmp_path, capsys, flags):
    # map 1 sends w+1 and w+2 to w; validate names it, and check-sep must not decide on it
    doc = {
        "nodes": ["0", "w", "w+1", "w+2"],
        "parents": [["w", "0"], ["w+1", "0"], ["w+2", "0"]],
        "indices": [0, 1],
        "maps": {"0": [["0", "0"], ["w", "w+1"]], "1": [["0", "0"], ["w+1", "w"], ["w+2", "w"]]},
    }
    path = tmp_path / "merge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "map 1 fails injective" in capsys.readouterr().out
    assert main(["check-sep", str(path), "--level", "1"] + flags) == 2
    assert capsys.readouterr().err == "error: map 1 fails injective\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["bijectivize", "--level", "1"],
        ["bijectivize", "--level", "1", "--cone"],
        ["one-key", "--level", "1", "--node", "w*2"],
    ],
    ids=["level", "cone", "one-key"],
)
def test_constructions_refuse_a_map_that_is_not_injective(tmp_path, capsys, argv):
    # map 1 sends w+1 and w+2 to w; the separation decision inside each
    # construction refuses it by name before it reads the oracle
    doc = {
        "nodes": ["0", "w", "w+1", "w+2", "w*2", "w*2+1", "w*2+2"],
        "parents": [["w", "0"], ["w+1", "0"], ["w+2", "0"]]
        + [["w*2", "w"], ["w*2+1", "w+1"], ["w*2+2", "w+2"]],
        "indices": [0, 1],
        "maps": {"0": [["0", "0"], ["w", "w+1"]], "1": [["0", "0"], ["w+1", "w"], ["w+2", "w"]]},
    }
    path, out = tmp_path / "merge.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    selection = ["--nodes", "w,w+1,w+2", "--indices", "0,1"]
    assert main(["--out", str(out), argv[0], str(path)] + argv[1:] + selection) == 2
    assert capsys.readouterr() == ("", "error: map 1 fails injective\n")
    assert not out.exists()
