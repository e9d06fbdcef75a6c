"""Scenario scripts: a rho specification plus a list of operation steps.

Each step names an entry of the operation table (``treeforcing.ops``) and
is decoded through its schema when made: a malformed step is a
``CodecError`` naming its field.  A step runs through ``ops.run``, which
reads the operation off ``forcing`` at that moment, as for the CLI.  A
scenario folds its steps over the trivial starting condition, which is valid
under every oracle.  Every operation validates its own output and checks it
against its input, so each later snapshot is checked against the previous
one exactly once; the runner adds only ``leq`` for an ``amalgamate`` whose
matched pair was built from an earlier snapshot, so that the trace still
descends.  The final report runs the almost-disjointness containment check
over every pair of indices that ever share a condition.
A step that fails with a ``ValueError`` stops the run and leaves the trace up
to that point, with a diagnostic; a fault propagates, naming its step.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from . import ops
from .codec import CodecError, _document, _list, _nat, _ord, _rho_entry
from .forcing import Condition, MatchedPair, agreement_containment, leq
from .ordinals import Ordinal
from .separation import RhoOracle, oracle_from_spec
from .trees import is_hausdorff, is_normal


@dataclass(frozen=True)
class Step:
    """One step: ``args`` are given as JSON values and hold them decoded
    through the operation's schema; ``expect`` keys must be in ``_EXPECT``;
    ``where`` names the step in errors.  Both are kept as read-only copies,
    so a step stays as checked."""

    op: str
    args: Mapping[str, Any] = field(default_factory=dict)
    expect: Mapping[str, Any] = field(default_factory=dict)
    where: InitVar[str] = "step"

    def __post_init__(self, where: str) -> None:
        object.__setattr__(self, "expect", _expect(f"{where}.expect", self.expect))
        object.__setattr__(self, "args", MappingProxyType(ops.decode(self.op, self.args, where)))


@dataclass(frozen=True)
class Scenario:
    rho_spec: str = "zero"
    rho_entries: tuple[tuple[int, int, Ordinal], ...] = ()
    steps: tuple[Step, ...] = ()
    final_expect: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "final_expect", _expect("final_expect", self.final_expect))


@dataclass
class RunTrace:
    conditions: list[Condition]
    log: list[str]
    ok: bool


def parse_scenario(text: str) -> Scenario:
    doc = _document(text)
    rho_doc = doc.get("rho", {"kind": "zero"})
    if not isinstance(rho_doc, dict) or "kind" not in rho_doc:
        raise CodecError("field 'rho': expected an object with a 'kind'")
    kind = rho_doc["kind"]
    entries: list[tuple[int, int, Ordinal]] = []
    if kind == "zero":
        spec = "zero"
    elif kind == "constant":
        value = rho_doc.get("value", "0")
        _ord("rho.value", value)
        spec = f"const:{value}"
    elif kind == "seeded":
        values = rho_doc.get("values", ["0", "1", "w"])
        if not _list("rho.values", values, _ord):
            raise CodecError("field 'rho.values': expected a nonempty list, got []")
        spec = f"seed:{_nat('rho.seed', rho_doc.get('seed', 0))}:{','.join(values)}"
    elif kind == "table":
        spec = "zero"
        entries = _list("rho.entries", rho_doc.get("entries", []), _rho_entry)
    else:
        raise CodecError(f"field 'rho.kind': unknown kind {kind!r}")
    return Scenario(
        rho_spec=spec,
        rho_entries=tuple(entries),
        steps=tuple(_list("steps", doc.get("steps", []), _step)),
        final_expect=doc.get("final_expect", {}),
    )


def _step(where: str, item: Any) -> Step:
    if not isinstance(item, dict) or "op" not in item:
        raise CodecError(f"field {where!r}: expected an object with an 'op'")
    args = _object(f"{where}.args", item.get("args", {}))
    return Step(item["op"], args, item.get("expect", {}), where=where)


def _object(name: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise CodecError(f"field '{name}': expected an object")
    return value


# expectation key -> what it reads off a condition
_EXPECT = {
    "normal": lambda p: is_normal(p.tree),
    "hausdorff": lambda p: is_hausdorff(p.tree),
    "node_count": lambda p: len(p.tree.nodes),
    "height_count": lambda p: len(p.tree.heights()),
    "index_count": lambda p: len(p.family),
}


def _expect(name: str, value: Any) -> Mapping[str, Any]:
    """A read-only copy of an expect block whose keys are all in ``_EXPECT``."""
    unknown = sorted(_object(name, value).keys() - _EXPECT.keys())
    if unknown:
        raise CodecError(f"field '{name}': unknown key {unknown[0]!r}")
    return MappingProxyType(dict(value))


def _build_oracle(s: Scenario) -> RhoOracle:
    rho = oracle_from_spec(s.rho_spec)
    for i, j, v in s.rho_entries:
        rho.set_value(i, j, v)
    return rho


def _check_expect(p: Condition, expect: Mapping[str, Any], log: list[str]) -> bool:
    ok = True
    for key, want in sorted(expect.items()):
        got = _EXPECT[key](p)
        if got != want:
            log.append(f"  expectation {key!r}: wanted {want!r}, got {got!r}")
            ok = False
    return ok


def run_scenario(s: Scenario) -> RunTrace:
    rho = _build_oracle(s)
    matched: MatchedPair | None = None  # the last pair built
    p = Condition.trivial()
    trace = RunTrace(conditions=[p], log=["start: ok"], ok=True)
    for k, step in enumerate(s.steps):
        # the subject is p, or the last pair built for an operation on pairs;
        # a new pair is kept and p stays the snapshot
        op = ops.OPS[step.op]
        try:
            if op.on is MatchedPair and matched is None:
                raise ValueError(f"no matched pair was built before {step.op}")
            out = ops.run(step.op, p if op.on is Condition else matched, step.args, rho)
        except ValueError as exc:
            trace.log.append(f"step {k} {step.op}: failed: {exc}")
            trace.ok = False
            return trace
        except RuntimeError as exc:  # a fault in the library
            raise RuntimeError(f"step {k} {step.op}: {exc}") from exc
        if isinstance(out, MatchedPair):
            matched, q = out, p
        else:
            q = out[0] if isinstance(out, tuple) else out
        # the operation checked q against its input: p, or for one on a pair
        # the snapshot the pair came from, which may be older than p
        if op.on is MatchedPair and matched.pa is not p and not leq(q, p):
            trace.log.append(f"step {k} {step.op}: output does not extend input")
            trace.ok = False
            return trace
        trace.log.append(f"step {k} {step.op}: ok")
        if not _check_expect(q, step.expect, trace.log):
            trace.ok = False
        trace.conditions.append(q)
        p = q
    if not _check_expect(p, s.final_expect, trace.log):
        trace.ok = False
    # final report: containment for every pair of indices ever co-present;
    # every step's output was checked against its input, so the trace descends
    pairs = set()
    for cond in trace.conditions:
        idx = sorted(cond.family)
        pairs.update((g, t) for g in idx for t in idx if g < t)
    for g, t in sorted(pairs):
        held = agreement_containment(trace.conditions, g, t)
        trace.log.append(f"containment {g},{t}: {'ok' if held else 'VIOLATED'}")
        if not held:
            trace.ok = False
    return trace
