"""File formats: conditions, matched pairs, and DOT export.

Documents are JSON with a fixed field order and sorted contents, so encoding
is canonical: encode(decode(text)) == text for canonical files and
decode(encode(value)) == value always.  Ordinals travel as grammar strings.

A document repeats each node label in its nodes, parents and maps, so a
decode reads each distinct label once: a ``string -> Ordinal`` memo lives
for one decode only (the first side of a matched-pair file and its own
ordinal fields share one).  The memo holds level heads too: a label
``head+k`` with k a canonical natural and a head with no finite part is
built from its head, parsed once per level, and carries the head's height.
Every label is read by ``_read``, in one loop over a list such as a file's
nodes (a single label is a list of one): the loop keeps the last head it
built a label from, so the rest of that level's run costs no call but
``_normal``.  A rho table reads its values through the same memo, so each
distinct value is parsed once.  The memo keeps only successful parses, so
a bad label fails, naming its field, wherever it occurs.  Nothing is kept
between decodes.  A label the memo holds costs one dict lookup: the name
of its field, such as ``maps[1][0][0]``, is built only when a label fails.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from .forcing import Condition, MatchedPair
from .ordinals import (
    ZERO,
    Ordinal,
    OrdinalParseError,
    _normal,
    is_limit,
    parse_natural,
    parse_ordinal,
)
from .separation import RhoOracle
from .treemaps import TreeMap
from .trees import StandardTree


class CodecError(ValueError):
    """The document does not match the schema."""


def _ord(field: str, value: Any) -> Ordinal:
    if not isinstance(value, str):
        raise CodecError(f"field {field!r}: expected an ordinal string, got {value!r}")
    try:
        return parse_ordinal(value)
    except OrdinalParseError as exc:
        raise CodecError(f"field {field!r}: {exc}")


def _label(labels: dict[str, Ordinal], value: Any, field: str, *at: int) -> Ordinal:
    """One label through the memo ``labels``, by ``_read`` when the memo lacks
    it; on a failure ``_ord`` names ``field`` followed by the positions ``at``."""
    try:
        return labels[value]
    except (KeyError, TypeError):  # not read yet, or not a string
        return _read(labels, [value], lambda _: field + "".join(f"[{k}]" for k in at))[0]


def _read(labels: dict[str, Ordinal], values: list, name: Callable[[int], str]) -> list[Ordinal]:
    """``values`` parsed through the memo ``labels``, which keeps each
    successful parse; value k, if it fails, is named ``name(k)`` by ``_ord``.

    A label ``head+k`` with k a canonical natural and a head, parsed through
    the memo, free of a finite part is ``head + k`` in normal form on the
    head's height.  The loop keeps the last such head, its terms and height,
    so the rest of a level's run is built with no call but ``_normal``.  A
    head that fails to parse fails the whole text, which ``_ord`` then parses
    for its error."""
    out = []
    run = terms = height = None
    for k, v in enumerate(values):
        try:
            node = labels.get(v)
            if node is None:
                head, plus, n = v.rpartition("+")
                if plus and n.isascii() and n.isdigit() and n[0] != "0":
                    if head != run:
                        base = labels.get(head)
                        if base is None:
                            base = labels[head] = parse_ordinal(head)
                        if is_limit(base):
                            run, terms, height = head, base[0], base.height
                    if head == run:
                        node = labels[v] = _normal(terms + ((ZERO, int(n)),))
                        node.__dict__["height"] = height
                if node is None:
                    node = labels[v] = parse_ordinal(v)
        except (TypeError, AttributeError, ValueError):  # not a string, or not a label
            node = _ord(name(k), v)
        out.append(node)
    return out


def _labels(labels: dict[str, Ordinal], field: str, value: Any, width: int = 1) -> list:
    """``_list(field, value, _ord)``, or with ``width`` 2 ``_pairs(field, value,
    _ord)``, through the memo ``labels``; a name is built only for a failure."""
    if not isinstance(value, list):
        raise CodecError(f"field {field!r}: expected a list, got {value!r}")
    if width == 1:
        return _read(labels, value, lambda k: f"{field}[{k}]")
    out = []
    for k, v in enumerate(value):
        if not isinstance(v, list) or len(v) != 2:
            raise CodecError(f"field {f'{field}[{k}]'!r}: expected a pair, got {v!r}")
        try:
            out.append((labels[v[0]], labels[v[1]]))
        except (KeyError, TypeError):
            out.append((_label(labels, v[0], field, k, 0), _label(labels, v[1], field, k, 1)))
    return out


def _nat(field: str, value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise CodecError(f"field {field!r}: expected a natural number, got {value!r}")
    return value


def _list(field: str, value: Any, item: Callable[[str, Any], Any]) -> list:
    """A JSON list decoded item by item; item k is named ``field[k]``."""
    if not isinstance(value, list):
        raise CodecError(f"field {field!r}: expected a list, got {value!r}")
    return [item(f"{field}[{k}]", v) for k, v in enumerate(value)]


def _tuple(field: str, value: Any, shape: str, *items: Callable[[str, Any], Any]) -> tuple:
    """A JSON list of fixed length such as ``[i, j]``; item k is decoded by
    ``items[k]`` and named ``field[k]``."""
    if not isinstance(value, list) or len(value) != len(items):
        raise CodecError(f"field {field!r}: expected {shape}, got {value!r}")
    return tuple(item(f"{field}[{k}]", v) for k, (item, v) in enumerate(zip(items, value)))


def _rho_entries(labels: dict[str, Ordinal], field: str, value: Any) -> list[tuple]:
    """A rho table: entries ``[i, j, ordinal]`` with a zero diagonal, decoded
    item by item, each ordinal read through the memo ``labels``."""
    read = lambda name, v: _label(labels, v, name)

    def entry(name: str, e: Any) -> tuple[int, int, Ordinal]:
        i, j, v = _tuple(name, e, "[i, j, ordinal]", _nat, _nat, read)
        if i == j and v != ZERO:
            raise CodecError(f"field {name!r}: the diagonal of rho is zero")
        return i, j, v

    return _list(field, value, entry)


def _pairs(field: str, value: Any, item: Callable[[str, Any], Any]) -> list[tuple]:
    """A JSON list of pairs ``[a, b]``, both sides decoded by item."""
    return _list(field, value, lambda name, v: _tuple(name, v, "a pair", item, item))


def _function(field: str, pairs: list[tuple], source: str = "source") -> dict:
    """The dict of ``pairs``; a repeated source is refused by its slot."""
    out = dict(pairs)
    if len(out) != len(pairs):  # name the first repeated source
        seen: set = set()
        k, a = next((k, a) for k, (a, _) in enumerate(pairs) if a in seen or seen.add(a))
        raise CodecError(f"field '{field}[{k}]': duplicate {source} {a}")
    return out


def _document(text: str) -> dict:
    """Parse a JSON document whose root must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError:  # an integer past the interpreter's limit on digits
        raise CodecError("document holds an integer with too many digits") from None
    except RecursionError:
        raise CodecError("document nests too deeply")
    if not isinstance(doc, dict):
        raise CodecError("document root must be an object")
    return doc


def _rho_table(rho: RhoOracle | None) -> list[list]:
    """The oracle's table as ``[i, j, ordinal]`` entries; [] without an oracle."""
    return [[i, j, str(v)] for i, j, v in (rho.entries() if rho else [])]


def condition_to_dict(p: Condition, rho: RhoOracle | None = None) -> dict:
    doc = {
        "nodes": [str(x) for x in p.tree.sorted_nodes()],
        "parents": [[str(c), str(par)] for c, par in sorted(p.tree.parent.items())],
        "indices": sorted(p.family),
        "maps": {
            str(tau): [[str(a), str(b)] for a, b in p.family[tau].pairs]
            for tau in sorted(p.family)
        },
        "rho": _rho_table(rho),
    }
    return doc


def condition_from_dict(doc: Any) -> tuple[Condition, RhoOracle]:
    return _condition_from_dict(doc, {})


def _condition_from_dict(doc: Any, labels: dict[str, Ordinal]) -> tuple[Condition, RhoOracle]:
    """``condition_from_dict`` with its labels read through the memo ``labels``."""
    if not isinstance(doc, dict):
        raise CodecError("document root must be an object")
    for field in ("nodes", "parents", "indices", "maps"):
        if field not in doc:
            raise CodecError(f"missing field {field!r}")
    nodes = _labels(labels, "nodes", doc["nodes"])
    try:
        parent = _function("parents", _labels(labels, "parents", doc["parents"], 2), "child")
    except CodecError:  # a duplicate node is reported before any later fault
        if len(set(nodes)) != len(nodes):
            raise CodecError("field 'nodes': duplicate node") from None
        raise
    # the list, not the set: a file's nodes come sorted, so the index sorts them in one pass
    tree = StandardTree(nodes, parent)
    if len(tree.nodes) != len(nodes):
        raise CodecError("field 'nodes': duplicate node")
    indices = _list("indices", doc["indices"], _nat)
    if len(set(indices)) != len(indices):
        raise CodecError("field 'indices': duplicate index")
    maps_doc = doc["maps"]
    if not isinstance(maps_doc, dict):
        raise CodecError("field 'maps': expected an object")
    family = {}
    for key, value in maps_doc.items():
        try:  # only the canonical decimal of a natural names an index
            tau = parse_natural(key)
            if str(tau) != key:
                raise ValueError(key)
        except ValueError:
            raise CodecError(f"field 'maps': key {key!r} is not an index")
        if tau not in indices:
            raise CodecError(f"field 'maps': index {tau} not declared")
        pairs = _labels(labels, f"maps[{key}]", value, 2)
        try:
            family[tau] = TreeMap(pairs)
        except ValueError as exc:
            raise CodecError(f"field 'maps[{key}]': {exc}")
    for tau in indices:
        family.setdefault(tau, TreeMap())
    rho = RhoOracle.from_entries(_rho_entries(labels, "rho", doc.get("rho", [])))
    return Condition(tree, family), rho


def encode_condition(p: Condition, rho: RhoOracle | None = None) -> str:
    return json.dumps(condition_to_dict(p, rho), indent=2) + "\n"


def decode_condition(text: str) -> tuple[Condition, RhoOracle]:
    return condition_from_dict(_document(text))


def encode_matched_pair(mp: MatchedPair, rho: RhoOracle | None = None) -> str:
    doc = {
        "alpha": str(mp.alpha),
        "beta": str(mp.beta),
        "first": condition_to_dict(mp.pa),
        "node_matching": [[str(a), str(b)] for a, b in sorted(mp.iso_f.items())],
        "index_matching": [[i, j] for i, j in sorted(mp.iso_g.items())],
        "anchor_first": str(mp.anchor_a),
        "rho": _rho_table(rho),
    }
    return json.dumps(doc, indent=2) + "\n"


def decode_matched_pair(text: str) -> tuple[MatchedPair, RhoOracle]:
    """A pair from its first side and matchings; the second side is derived,
    so an older file's ``second`` key is not read."""
    doc = _document(text)
    for field in ("alpha", "beta", "first", "node_matching", "index_matching", "anchor_first"):
        if field not in doc:
            raise CodecError(f"missing field {field!r}")
    labels: dict[str, Ordinal] = {}
    pa, _ = _condition_from_dict(doc["first"], labels)
    iso_f = _function("node_matching", _labels(labels, "node_matching", doc["node_matching"], 2))
    iso_g = _function("index_matching", _pairs("index_matching", doc["index_matching"], _nat))
    entries = _rho_entries(labels, "rho", doc.get("rho", []))
    mp = MatchedPair(
        pa=pa,
        alpha=_label(labels, doc["alpha"], "alpha"),
        beta=_label(labels, doc["beta"], "beta"),
        iso_f=iso_f,
        iso_g=iso_g,
        anchor_a=_label(labels, doc["anchor_first"], "anchor_first"),
    )
    return mp, RhoOracle.from_entries(entries)


def export_dot(p: Condition) -> str:
    """A deterministic DOT digraph: solid tree edges, dashed labelled map edges,
    one rank per level."""
    lines = ["digraph condition {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    lines.append('  { rank=same; "0"; }')
    for h in p.tree.heights():
        names = "; ".join(f'"{x}"' for x in p.tree.sorted_level(h))
        lines.append(f"  {{ rank=same; {names}; }}")
    for c, par in sorted(p.tree.parent.items()):
        lines.append(f'  "{par}" -> "{c}" [style=solid];')
    for tau in sorted(p.family):
        for a, b in p.family[tau].pairs:
            if a == b:
                continue  # the structural root pair would only draw a self-loop
            lines.append(f'  "{a}" -> "{b}" [style=dashed, label="{tau}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
