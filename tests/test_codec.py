from __future__ import annotations

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeforcing import codec
from treeforcing.codec import (
    CodecError,
    _label,
    _labels,
    condition_from_dict,
    condition_to_dict,
    decode_condition,
    decode_matched_pair,
    encode_condition,
    encode_matched_pair,
    export_dot,
)
from treeforcing.forcing import Condition, amalgamate, build_matched_pair, validate_matched_pair
from treeforcing.generate import GenBounds, gen_condition
from treeforcing.ordinals import Ordinal, OrdinalParseError, node_at, parse_ordinal
from treeforcing.scenario import parse_scenario
from treeforcing.separation import RhoOracle
from test_amalgamation import base_condition, ALPHA, BETA
from test_forcing_ops import t1_condition
from test_hot_layers import _module_sizes

O = parse_ordinal


def test_minimal_round_trip():
    p = Condition.trivial()
    text = encode_condition(p)
    q, rho = decode_condition(text)
    assert q == p
    assert rho.entries() == []


def test_t1_round_trip_with_rho():
    p = t1_condition()
    rho = RhoOracle.from_entries([(5, 9, O("w"))])
    text = encode_condition(p, rho)
    q, rho2 = decode_condition(text)
    assert q == p
    assert rho2.entries() == rho.entries()
    # canonical: encoding the decoded value reproduces the text
    assert encode_condition(q, rho2) == text


def test_round_trip_generated():
    for seed in range(25):
        p, rho = gen_condition(seed, GenBounds(max_steps=6))
        q, _ = decode_condition(encode_condition(p, rho))
        assert q == p


def test_duplicate_node_rejected():
    text = encode_condition(t1_condition())
    broken = text.replace('"w+1"', '"w"', 1)
    with pytest.raises(CodecError, match="duplicate"):
        decode_condition(broken)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: put(d, ("parents", 0, 1), "w*q"),
        lambda d: d.update(indices=[-1]),
        lambda d: put(d, ("nodes", 2), "w*1"),
    ],
    ids=["bad-parent", "bad-index", "aliased-label"],
)
def test_a_duplicate_node_is_reported_before_any_later_fault(edit):
    # nodes 0, w, w+1, w*2 with w+1 turned into a second w: either spelling of w
    doc = put(t1_doc(), ("nodes", 2), "w")
    edit(doc)
    assert decode_error(decode_condition, doc) == "field 'nodes': duplicate node"


def test_reject_malformed_json_with_position():
    with pytest.raises(CodecError, match="line"):
        decode_condition("{ nope }")


def test_deeply_nested_json_is_a_codec_error():
    with pytest.raises(CodecError, match="^document nests too deeply$"):
        decode_condition("[" * 200_000)


def test_reject_bad_ordinal_with_field():
    text = '{"nodes": ["0", "q"], "parents": [], "indices": [], "maps": {}}'
    with pytest.raises(CodecError, match="nodes"):
        decode_condition(text)


@pytest.mark.parametrize("label", ["w*\u00b2", "w*\u0663", "w+\u00b2", "w+\u0663"])
def test_reject_non_ascii_digit_with_field(label):
    text = json.dumps({"nodes": ["0", label], "parents": [], "indices": [], "maps": {}})
    with pytest.raises(CodecError, match=r"^field 'nodes\[1\]': expected a natural number at position 2"):
        decode_condition(text)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
)
@pytest.mark.parametrize("label", ["w+1", "w*1", "w^1", "1", "w^1+w"])
def test_a_natural_past_the_digit_limit_names_its_field(label):
    """Past the digit limit ``int`` raises a plain ``ValueError``; the parser
    turns it into its own error at the natural's position, and the field is
    named, on the head+k path and through the parser alike."""
    label = label.replace("1", "1" * (sys.get_int_max_str_digits() + 1), 1)
    text = json.dumps({"nodes": ["0", "w", label], "parents": [], "indices": [], "maps": {}})
    at = 0 if label[0] == "1" else 2
    why = f"natural number has too many digits at position {at}: "
    with pytest.raises(CodecError, match=rf"^field 'nodes\[2\]': {why}"):
        decode_condition(text)
    with pytest.raises(OrdinalParseError, match=f"^{why}"):
        parse_ordinal(label)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
)
def test_an_integer_past_the_digit_limit_outside_a_label_is_a_codec_error():
    # json.loads raises a plain ValueError, not its JSONDecodeError, on such a number
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    text = '{"nodes": ["0"], "parents": [], "indices": [%s], "maps": {}}' % digits
    with pytest.raises(CodecError, match="^document holds an integer with too many digits$"):
        decode_condition(text)
    # a map key is a string, so it reaches the key check instead
    text = '{"nodes": ["0"], "parents": [], "indices": [], "maps": {"%s": []}}' % digits
    with pytest.raises(CodecError, match="^field 'maps': key '1+' is not an index$"):
        decode_condition(text)


def test_reject_undeclared_map_index():
    text = '{"nodes": ["0"], "parents": [], "indices": [], "maps": {"3": []}}'
    with pytest.raises(CodecError, match="not declared"):
        decode_condition(text)


def test_matched_pair_round_trip():
    rho = RhoOracle.zero()
    p = base_condition(with_edge=True)
    mp = build_matched_pair(p, ALPHA, BETA, node_at(ALPHA, 0), 100, rho)
    text = encode_matched_pair(mp, rho)
    mp2, rho2 = decode_matched_pair(text)
    assert mp2 == mp
    assert validate_matched_pair(mp2, rho2) == []
    assert encode_matched_pair(mp2, rho2) == text


def test_a_pair_file_with_the_derived_keys_decodes_as_one_without_them():
    # a file may still carry the common nodes, the shared indices, the second
    # anchor and the second condition, all derived from the rest; the decode
    # does not read them
    doc = pair_doc()
    second = condition_to_dict(decode_matched_pair(json.dumps(doc))[0].pb)
    old = {**doc, "common_nodes": ["0", "w", "w+1"], "shared_indices": [0], "anchor_second": "w^w*2"}
    (mp, rho), (mp_old, rho_old) = (decode_matched_pair(json.dumps(d)) for d in (doc, old))
    assert mp_old == mp
    assert encode_condition(amalgamate(mp_old, rho_old)) == encode_condition(amalgamate(mp, rho))
    mp_second, rho_second = decode_matched_pair(json.dumps({**doc, "second": second}))
    assert mp_second == mp and mp_second.pb == mp.pb
    assert encode_condition(amalgamate(mp_second, rho_second)) == encode_condition(amalgamate(mp, rho))
    # not read at all: a malformed second condition is no error either
    assert decode_matched_pair(json.dumps({**doc, "second": {"nodes": 7}}))[0] == mp


@pytest.mark.parametrize(
    "field, value, message",
    [
        (
            "node_matching",
            ["w^w+1", "w^w*2+7"],
            "field 'node_matching[5]': duplicate source w^w+1",
        ),
        ("index_matching", [0, 5], "field 'index_matching[1]': duplicate source 0"),
    ],
    ids=["node", "index"],
)
def test_a_matching_refuses_a_repeated_source_by_its_slot(field, value, message):
    # the first entry is a second image of the source the last entry maps
    doc = pair_doc()
    doc[field].insert(0, value)
    assert decode_error(decode_matched_pair, doc) == message


def test_export_dot_trivial():
    dot = export_dot(Condition.trivial())
    assert dot.startswith("digraph condition {")
    assert '"0"' in dot
    assert dot.count("->") == 0


def test_export_dot_t1():
    # 4 nodes, 3 tree edges, 1 dashed map edge (the root self-pair is omitted)
    p = t1_condition()
    dot = export_dot(p)
    assert dot.count("style=solid") == 3
    assert dot.count("style=dashed") == 1
    assert export_dot(p) == dot  # byte-identical across calls


# -- each label is parsed once per decode ------------------------------------------


def t1_doc() -> dict:
    """T1 with its index renamed 1: nodes 0, w, w+1, w*2; map 1 is 0->0, w->w+1."""
    doc = json.loads(encode_condition(t1_condition()))
    doc["indices"], doc["maps"] = [1], {"1": doc["maps"]["5"]}
    return doc


def pair_doc() -> dict:
    """first: nodes 0, w, w+1, w^w, w^w+1; second: the same with w^w*2 for w^w."""
    rho = RhoOracle.zero()
    p = base_condition(with_edge=True)
    mp = build_matched_pair(p, ALPHA, BETA, node_at(ALPHA, 0), 100, rho)
    return json.loads(encode_matched_pair(mp, rho))


def decode_error(decode, doc) -> str:
    with pytest.raises(CodecError) as exc:
        decode(json.dumps(doc))
    return str(exc.value)


def put(doc: dict, path: tuple, value) -> dict:
    """doc with the slot at path (keys and positions) set to value."""
    *head, last = path
    slot = doc
    for key in head:
        slot = slot[key]
    slot[last] = value
    return doc


def test_a_bad_label_is_named_where_it_first_occurs():
    # w*2 is nodes[3] and recurs in parents[2][0]
    doc = json.loads(json.dumps(t1_doc()).replace('"w*2"', '"w*q"'))
    assert decode_error(decode_condition, doc).startswith("field 'nodes[3]': ")
    # inside a matched pair: first's nodes[3], the copy's w^w*2 first read in
    # node_matching[3][1], and a label first read in node_matching that recurs
    # in anchor_first
    for label, field in (("w^w", "nodes[3]"), ("w^w*2", "node_matching[3][1]")):
        doc = json.loads(json.dumps(pair_doc()).replace(f'"{label}"', '"w^q"'))
        assert decode_error(decode_matched_pair, doc).startswith(f"field {field!r}: ")
    doc = put(pair_doc(), ("node_matching", 3, 0), "w^q")
    doc["anchor_first"] = "w^q"
    assert decode_error(decode_matched_pair, doc).startswith("field 'node_matching[3][0]': ")


@pytest.mark.parametrize("value", [["0"], 0, None], ids=["list", "int", "null"])
def test_a_non_string_where_a_parsed_label_recurs_names_its_field(value):
    # "0" is nodes[0], so each slot below holds a label the decode has parsed
    got = f"expected an ordinal string, got {value!r}"
    parents = "'parents[0][1]'"
    map_1 = "'maps[1][0][0]'"
    map_0 = "'maps[0][0][0]'"
    cases = [
        (decode_condition, t1_doc, ("parents", 0, 1), parents),
        (decode_condition, t1_doc, ("maps", "1", 0, 0), map_1),
        (decode_matched_pair, pair_doc, ("node_matching", 1, 0), "'node_matching[1][0]'"),
        (decode_matched_pair, pair_doc, ("node_matching", 1, 1), "'node_matching[1][1]'"),
        (decode_matched_pair, pair_doc, ("first", "parents", 0, 1), parents),
        (decode_matched_pair, pair_doc, ("first", "maps", "0", 0, 0), map_0),
    ]
    for decode, doc, path, field in cases:
        assert decode_error(decode, put(doc(), path, value)) == f"field {field}: {got}"


def test_a_map_error_names_its_field_once():
    # a bad label is named by its slot alone; the map's own errors by the map
    doc = put(t1_doc(), ("maps", "1", 0, 0), "w^q")
    assert decode_error(decode_condition, doc).startswith("field 'maps[1][0][0]': ")
    doc = t1_doc()
    doc["maps"]["1"].append(["w", "w*2"])
    assert decode_error(decode_condition, doc) == "field 'maps[1]': source w mapped twice"


def test_equal_labels_decode_to_one_object():
    q, _ = decode_condition(json.dumps(t1_doc()))
    node = {str(x): x for x in q.tree.nodes}
    assert all(c is node[str(c)] and par is node[str(par)] for c, par in q.tree.parent.items())
    assert all(a is node[str(a)] and b is node[str(b)] for a, b in q.family[1].pairs)
    mp, _ = decode_matched_pair(json.dumps(pair_doc()))
    first = {str(x): x for x in mp.pa.tree.nodes}
    second = {str(x): x for x in mp.pb.tree.nodes}
    assert all(second[label] is first[label] for label in ("0", "w", "w+1"))
    assert mp.alpha is first["w^w"] and mp.anchor_a is first["w^w"]
    assert all(a is first[str(a)] for a in mp.iso_f)


# heights up to w^(w+1)*3+w*2+7, as sums over these exponents with coefficients 0 to 3
_TALLEST = O("w^(w+1)*3+w*2+7")
_EXPONENTS = [O(e) for e in ("w+1", "w", "3", "1", "0")]
_heights = st.lists(st.integers(0, 3), min_size=5, max_size=5).map(
    lambda cs: Ordinal(tuple((e, c) for e, c in zip(_EXPONENTS, cs) if c))
).filter(lambda h: h <= _TALLEST)
_node_labels = st.builds(lambda h, k: str(node_at(h, k)), _heights, st.integers(0, 30))
_any_text = st.text(alphabet="w0123456789+*^()", max_size=16)
_digits = st.text(alphabet="0123456789", max_size=3)
_label_texts = st.one_of(
    _any_text,
    _node_labels,
    st.tuples(_node_labels, _any_text).map("".join),
    # a head, then a plus and digits: the shape of a label off its level's head
    st.tuples(st.builds(lambda h: str(node_at(h, 0)), _heights), _digits).map("+".join),
    st.tuples(st.one_of(_node_labels, _any_text), _digits).map("+".join),
)


# a run of one level: its head, then that head with a plus and digits, as a file lists it
_runs = st.tuples(st.builds(lambda h: str(node_at(h, 0)), _heights), st.lists(_digits, max_size=4))
_chunks = st.one_of(
    _label_texts.map(lambda text: [text]),
    _runs.map(lambda run: [run[0]] + [f"{run[0]}+{d}" for d in run[1]]),
)


@settings(max_examples=400, derandomize=True)
@given(st.lists(_chunks, max_size=8).map(lambda chunks: sum(chunks, [])))
@example(["w+01", "w*0+1", "w+w+3", "3+5", "w+", "w*2+0", "w^2+w+3"])
@example(["w^1", "w^1+3", "w+3"])
@example(["w*2+1", "w*2+2", "w*2+02"])
@example(["3", "3+5"])
@example(["w^2+w", "w^2+w+3", "w^2+w+4"])
@example(["w+1", "w+1"])
def test_a_decoded_label_is_the_parsers_label(texts):
    # one memo across the list, as one decode reads many labels; the second
    # round reads every label back from the memo
    labels: dict = {}
    for k, text in enumerate(texts + texts):
        try:
            want = parse_ordinal(text)
        except OrdinalParseError as exc:
            with pytest.raises(CodecError) as got:
                _label(labels, text, "nodes", k)
            assert str(got.value) == f"field 'nodes[{k}]': {exc}"
            continue
        got = _label(labels, text, "nodes", k)
        assert got == want and got.height == want.height
    for text in texts:  # and the public decode of a one-node document
        doc = {"nodes": [text], "parents": [], "indices": [], "maps": {}}
        try:
            want = parse_ordinal(text)
        except OrdinalParseError as exc:
            assert decode_error(decode_condition, doc) == f"field 'nodes[0]': {exc}"
            continue
        (got,) = decode_condition(json.dumps(doc))[0].tree.nodes
        assert got == want and got.height == want.height
    # and as one list, as a file's nodes are read: a level's run is built off
    # its head, and a repeat comes back from the memo
    wants = []
    for k, text in enumerate(texts):
        try:
            wants.append(parse_ordinal(text))
        except OrdinalParseError as exc:
            with pytest.raises(CodecError) as got:
                _labels({}, "nodes", texts + texts)
            assert str(got.value) == f"field 'nodes[{k}]': {exc}"
            return
    got = _labels({}, "nodes", texts + texts)
    assert got == wants + wants
    assert [x.height for x in got] == [x.height for x in wants + wants]


def test_decodes_leave_no_module_state():
    broken = json.dumps(put(t1_doc(), ("parents", 0, 1), "w^q"))
    pair = json.dumps(pair_doc())
    before = _module_sizes()
    for k in range(250):
        # each round brings labels no earlier decode has seen
        doc = t1_doc()
        doc["nodes"].append(f"w*{k + 3}")
        doc["parents"].append([f"w*{k + 3}", "w"])
        decode_condition(json.dumps(doc))
        decode_condition(encode_condition(gen_condition(k, GenBounds())[0]))
        with pytest.raises(CodecError):
            decode_condition(broken)
        decode_matched_pair(pair.replace('"w^w*2', f'"w^w*{k + 2}'))
    assert _module_sizes() == before


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.pop("parents"), "missing field 'parents'"),
        (lambda d: d.pop("maps"), "missing field 'maps'"),
        (lambda d: d["parents"].append(["w*2", "w+1"]), "field 'parents[3]': duplicate child w*2"),
        (lambda d: d["indices"].append(1), "field 'indices': duplicate index"),
        (lambda d: d.update(maps=[]), "field 'maps': expected an object"),
        (lambda d: d.update(nodes="w"), "field 'nodes': expected a list, got 'w'"),
        (
            lambda d: d["parents"].append(["w*3"]),
            "field 'parents[3]': expected a pair, got ['w*3']",
        ),
        (
            lambda d: d["rho"].append([0, 1]),
            "field 'rho[0]': expected [i, j, ordinal], got [0, 1]",
        ),
    ],
    ids=["parents", "maps", "child", "index", "maps-list", "nodes-list", "pair", "rho-entry"],
)
def test_condition_field_errors(edit, message):
    doc = t1_doc()
    edit(doc)
    assert decode_error(decode_condition, doc) == message


# -- a rho table reads its values through the label memo --------------------------------

RHO_VALUES = ["0", "1", "w", "w+1", "w*2", "w^2", "w^w"]


def rho_doc(entries: list) -> dict:
    return {"nodes": ["0"], "parents": [], "indices": [], "maps": {}, "rho": entries}


def test_a_rho_table_parses_each_distinct_value_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_ordinal(text)

    monkeypatch.setattr(codec, "parse_ordinal", counted)
    entries = [[k, k + 1, RHO_VALUES[k % 7]] for k in range(2000)]
    _, rho = decode_condition(json.dumps(rho_doc(entries)))
    assert rho.entries() == [(i, j, O(v)) for i, j, v in entries]
    # "0" is read for the nodes, and "w+1" is read off the head "w"
    assert len(calls) <= 8


def test_a_level_parses_only_its_head(monkeypatch):
    # each head is parsed once; the rest of its run, and a return to an
    # earlier head, are built off the memo
    calls = []

    def counted(text):
        calls.append(text)
        return parse_ordinal(text)

    monkeypatch.setattr(codec, "parse_ordinal", counted)
    texts = ["0", "w", "w+1", "w+2", "w*2", "w*2+1", "w*2+2", "w+3"]
    got = _labels({}, "nodes", texts)
    assert got == [O(t) for t in texts]
    assert calls == ["0", "w", "w*2"]


RHO_FAULTS = {
    (0, 0, "1"): "'rho[1500]': the diagonal of rho is zero",
    (0, -1, "w"): "'rho[1500][1]': expected a natural number, got -1",
    (0, 1, "w*q"): "'rho[1500][2]': expected a natural number at position 2: 'w*q'",
    (0, 1): "'rho[1500]': expected [i, j, ordinal], got [0, 1]",
    (True, 1, "w"): "'rho[1500][0]': expected a natural number, got True",
}


@pytest.mark.parametrize("entry", RHO_FAULTS, ids=lambda e: repr(list(e)))
@pytest.mark.parametrize("kind", ["condition", "pair", "scenario"])
def test_a_bad_rho_entry_names_its_field(kind, entry):
    # 1,500 entries, each value read before the bad one, so the memo holds it
    entries = [[k, k + 1, RHO_VALUES[k % 7]] for k in range(1500)] + [list(entry)]
    message = f"field {RHO_FAULTS[entry]}"
    if kind == "condition":
        assert decode_error(decode_condition, rho_doc(entries)) == message
    elif kind == "pair":
        assert decode_error(decode_matched_pair, {**pair_doc(), "rho": entries}) == message
    else:
        doc = {"rho": {"kind": "table", "entries": entries}, "steps": []}
        want = message.replace("'rho[", "'rho.entries[")
        assert decode_error(parse_scenario, doc) == want


def test_document_roots_must_be_objects():
    assert decode_error(decode_condition, []) == "document root must be an object"
    with pytest.raises(CodecError, match="^document root must be an object$"):
        condition_from_dict([])
    doc = pair_doc()
    doc["first"] = []
    assert decode_error(decode_matched_pair, doc) == "document root must be an object"


@pytest.mark.parametrize("field", ["alpha", "first", "index_matching", "anchor_first"])
def test_matched_pair_missing_field(field):
    doc = pair_doc()
    del doc[field]
    assert decode_error(decode_matched_pair, doc) == f"missing field {field!r}"



# -- every bad slot names its field, as the per-item decoder named it ---------------------
#
# Each slot gets a number, a malformed label, and its pair (in nodes, the label
# itself) widened to three items.  The messages are pinned from the decoder that
# formatted every item's name up front; names are now built only on failure.

NUMBER, MALFORMED, WIDENED = "number", "malformed", "three items"
BAD_SLOTS = {
    # (document, path to the slot): {bad value: message}
    ("condition", ("nodes", 2)): {
        NUMBER: "field 'nodes[2]': expected an ordinal string, got 7",
        MALFORMED: "field 'nodes[2]': expected a natural number at position 2: 'w*q'",
        WIDENED: "field 'nodes[2]': expected an ordinal string, got ['w+1', 'w+1', '0']",
    },
    ("condition", ("parents", 1, 1)): {
        NUMBER: "field 'parents[1][1]': expected an ordinal string, got 7",
        MALFORMED: "field 'parents[1][1]': expected a natural number at position 2: 'w*q'",
        WIDENED: "field 'parents[1]': expected a pair, got ['w+1', '0', '0']",
    },
    ("condition", ("maps", "1", 1, 0)): {
        NUMBER: "field 'maps[1][1][0]': expected an ordinal string, got 7",
        MALFORMED: "field 'maps[1][1][0]': expected a natural number at position 2: 'w*q'",
        WIDENED: "field 'maps[1][1]': expected a pair, got ['w', 'w+1', '0']",
    },
    ("pair", ("node_matching", 1, 1)): {
        NUMBER: "field 'node_matching[1][1]': expected an ordinal string, got 7",
        MALFORMED: "field 'node_matching[1][1]': expected a natural number at position 2: 'w*q'",
        WIDENED: "field 'node_matching[1]': expected a pair, got ['w', 'w', '0']",
    },
    ("pair", ("node_matching", 4, 0)): {
        NUMBER: "field 'node_matching[4][0]': expected an ordinal string, got 7",
        MALFORMED: "field 'node_matching[4][0]': expected a natural number at position 2: 'w*q'",
        WIDENED: "field 'node_matching[4]': expected a pair, got ['w^w+1', 'w^w*2+1', '0']",
    },
}
BAD_SLOTS[("pair", ("first", "nodes", 2))] = BAD_SLOTS[("condition", ("nodes", 2))]
BAD_SLOTS[("pair", ("first", "parents", 1, 1))] = BAD_SLOTS[("condition", ("parents", 1, 1))]
BAD_SLOTS[("pair", ("first", "maps", "0", 1, 0))] = {
    NUMBER: "field 'maps[0][1][0]': expected an ordinal string, got 7",
    MALFORMED: "field 'maps[0][1][0]': expected a natural number at position 2: 'w*q'",
    WIDENED: "field 'maps[0][1]': expected a pair, got ['w', 'w+1', '0']",
}


@pytest.mark.parametrize("bad", [NUMBER, MALFORMED, WIDENED])
@pytest.mark.parametrize(
    "kind, path", BAD_SLOTS, ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v
)
def test_every_bad_slot_names_its_field(kind, path, bad):
    if kind == "condition":
        make, decode = t1_doc, decode_condition
    else:
        make, decode = pair_doc, decode_matched_pair
    doc = make()
    if bad == WIDENED:
        holder = path if path[-2] == "nodes" else path[:-1]
        slot = doc
        for key in holder:
            slot = slot[key]
        put(doc, holder, ([slot] * 2 if isinstance(slot, str) else list(slot)) + ["0"])
    else:
        put(doc, path, 7 if bad == NUMBER else "w*q")
    assert decode_error(decode, doc) == BAD_SLOTS[kind, path][bad]
