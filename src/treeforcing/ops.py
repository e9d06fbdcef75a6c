"""The constructive operations on conditions, in one table.

``OPS`` maps each operation's scenario name, which is also its function name
in ``forcing``, to an ``Op``: its CLI command, a help line, its typed
arguments, and what it applies to.  Every operation takes the oracle last
and checks its own output.  The CLI builds one subcommand per entry, the
scenario runner decodes and runs its steps through the table, and the
generator draws from its names.
``run`` reads the function off ``forcing`` when called, never at import, so
a patched ``forcing`` attribute (a test double, a tracer) is the one that
runs, for the CLI, the scenario runner and the generator alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

from . import forcing
from .codec import CodecError, _list, _nat, _ord
from .forcing import Condition, MatchedPair
from .separation import RhoOracle
from .trees import MalformedTreeError

# argument kinds: a scenario gives ordinals as grammar strings and sets as lists
ORDINAL, NATURAL, ORDINALS, NATURALS = "ordinal", "natural", "ordinal set", "natural set"

_DECODE: dict[str, Callable[[str, Any], Any]] = {
    ORDINAL: _ord,
    NATURAL: _nat,
    ORDINALS: lambda name, value: frozenset(_list(name, value, _ord)),
    NATURALS: lambda name, value: frozenset(_list(name, value, _nat)),
}


@dataclass(frozen=True)
class Op:
    """One constructive operation.

    ``args`` maps each argument's key to its kind, in the order the function
    takes them after its input; every operation takes the oracle last and
    checks its own output (validity, and the order against its input).
    ``command`` is None for an operation the CLI reaches only through
    another command's flag.
    """

    command: str | None
    help: str
    args: Mapping[str, str] = field(default_factory=dict)
    on: type = Condition

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", MappingProxyType(dict(self.args)))


_BIJECTIVIZE = {"level": ORDINAL, "nodes": ORDINALS, "indices": NATURALS}

OPS: dict[str, Op] = {
    "extend_heights": Op("extend", "occupy new heights", {"heights": ORDINALS}),
    "widen_node": Op(
        "widen", "give a node at least k immediate successors", {"node": ORDINAL, "count": NATURAL}
    ),
    "hausdorffize": Op("hausdorff", "insert successor heights below limit levels"),
    "normalize_condition": Op("normalize", "extend the tree to a normal one"),
    "grow_node": Op(
        "grow", "put a node above the given one at a level", {"node": ORDINAL, "height": ORDINAL}
    ),
    "add_index": Op("add-index", "bring an index into the domain", {"index": NATURAL}),
    "augment": Op(
        "augment", "put a node into a map's domain and range", {"index": NATURAL, "node": ORDINAL}
    ),
    "fan_out_condition": Op(
        "fan-out", "give nodes exactly k successors", {"nodes": ORDINALS, "count": NATURAL}
    ),
    "bijectivize_level": Op(
        "bijectivize", "make selected maps bijective over a level set", _BIJECTIVIZE
    ),
    "bijectivize_cone": Op(None, "bijectivize through all higher levels", _BIJECTIVIZE),
    "lift_with_support": Op(
        "one-key",
        "bijectivize the cones, then lift to the top level",
        {**_BIJECTIVIZE, "node": ORDINAL},
    ),
    "build_matched_pair": Op(
        "match-pair",
        "build a matched pair from a condition",
        {"alpha": ORDINAL, "beta": ORDINAL, "node": ORDINAL, "fresh_index_base": NATURAL},
    ),
    "amalgamate": Op("amalgamate", "amalgamate a matched pair", on=MatchedPair),
}


def decode(name: Any, args: dict[str, Any], where: str) -> dict[str, Any]:
    """A step's JSON arguments decoded through its operation's schema.

    Errors name their field under ``where``, as in ``steps[2].args.heights``.
    Keys the operation does not take are ignored.
    """
    if not isinstance(name, str) or name not in OPS:
        raise CodecError(f"field '{where}.op': unknown operation {name!r}")
    out = {}
    for key, kind in OPS[name].args.items():
        path = f"{where}.args.{key}"
        if key not in args:
            raise CodecError(f"field {path!r}: missing")
        out[key] = _DECODE[kind](path, args[key])
    return out


def run(name: str, subject: Any, args: Mapping[str, Any], rho: RhoOracle) -> Any:
    """Apply operation ``name`` to subject with decoded args; the function's
    own result, unchanged.  The function is the attribute of ``forcing``,
    read now.  A tree that order queries refuse is blamed on a condition
    input that fails validation."""
    values = [args[key] for key in OPS[name].args]
    try:
        return getattr(forcing, name)(subject, *values, rho)
    except MalformedTreeError:
        if isinstance(subject, Condition):
            forcing._blame_input(subject, rho, name)
        raise
