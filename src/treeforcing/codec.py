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
It keeps only successful parses, so a bad label fails, naming its field,
wherever it occurs.  Nothing is kept between decodes.  A label the memo
holds costs one dict lookup: the name of its field, such as
``maps[1][0][0]``, is built only when a label fails.
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
    """``_ord`` through the memo ``labels``, which keeps each successful parse;
    on a failure ``_ord`` names ``field`` followed by the positions ``at``."""
    try:
        found = labels.get(value)
        if found is None:
            found = labels[value] = _parse_label(labels, value)
        return found
    except (TypeError, AttributeError, ValueError):  # not a string, or not a label
        return _ord(field + "".join(f"[{k}]" for k in at), value)


def _parse_label(labels: dict[str, Ordinal], text: str) -> Ordinal:
    """``parse_ordinal(text)``, reading a label ``head+k`` of a level off its
    head: with k a canonical natural and the head, parsed through the memo,
    free of a finite part, ``head + k`` is in normal form on the head's height.
    Every other string goes to ``parse_ordinal``.  A head that fails to parse
    fails the whole text, which ``_ord`` then parses for its error."""
    head, plus, k = text.rpartition("+")
    if plus and k.isascii() and k.isdigit() and k[0] != "0":
        base = labels.get(head)
        if base is None:
            base = labels[head] = parse_ordinal(head)
        if is_limit(base):
            node = _normal(base.terms + ((ZERO, int(k)),))
            node.__dict__["height"] = base.height
            return node
    return parse_ordinal(text)


def _labels(labels: dict[str, Ordinal], field: str, value: Any, width: int = 1) -> list:
    """``_list(field, value, _ord)``, or with ``width`` 2 ``_pairs(field, value,
    _ord)``, through the memo ``labels``; a name is built only for a failure."""
    if not isinstance(value, list):
        raise CodecError(f"field {field!r}: expected a list, got {value!r}")
    if width == 1:
        return [_label(labels, v, field, k) for k, v in enumerate(value)]
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


def _rho_entry(field: str, value: Any) -> tuple[int, int, Ordinal]:
    """One rho table entry ``[i, j, ordinal]``; the diagonal must be zero."""
    i, j, v = _tuple(field, value, "[i, j, ordinal]", _nat, _nat, _ord)
    if i == j and v != ZERO:
        raise CodecError(f"field {field!r}: the diagonal of rho is zero")
    return i, j, v


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
    if len(set(nodes)) != len(nodes):
        raise CodecError("field 'nodes': duplicate node")
    parent = _function("parents", _labels(labels, "parents", doc["parents"], 2), "child")
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
    rho = RhoOracle.from_entries(_list("rho", doc.get("rho", []), _rho_entry))
    # the list, not the set: a file's nodes come sorted, so the index sorts them in one pass
    return Condition(StandardTree(nodes, parent), family), rho


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
    entries = _list("rho", doc.get("rho", []), _rho_entry)
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
