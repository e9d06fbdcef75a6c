"""Scenario scripts: a rho specification plus a list of operation steps.

A scenario folds its steps over the trivial starting condition.  Every
snapshot is validated and order-checked against the previous one exactly
once: the constructive operations check their own output at their public
boundary (``validate_condition`` on it, ``leq`` against their input), so the
runner itself checks only the start condition and the steps no operation
checks (``add_index``, and an ``amalgamate`` whose matched pair was built
from an earlier snapshot).  The final report runs the almost-disjointness
containment check over every pair of indices that ever share a condition.
A failing step stops the run and leaves the trace up to that point, with a
diagnostic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .codec import CodecError, _nat, _ord
from .forcing import (
    Condition,
    MatchedPair,
    add_index,
    agreement_containment,
    amalgamate,
    augment,
    bijectivize_cone,
    bijectivize_level,
    build_matched_pair,
    extend_heights,
    fan_out_condition,
    grow_node,
    hausdorffize,
    leq,
    lift_with_support,
    normalize_condition,
    validate_condition,
    widen_node,
)
from .ordinals import Ordinal
from .separation import RhoOracle, oracle_from_spec
from .trees import is_hausdorff, is_normal


@dataclass(frozen=True)
class Step:
    op: str
    args: dict[str, Any] = field(default_factory=dict)
    expect: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    rho_spec: str = "zero"
    rho_entries: tuple[tuple[int, int, Ordinal], ...] = ()
    steps: tuple[Step, ...] = ()
    final_expect: dict[str, Any] = field(default_factory=dict)


@dataclass
class RunTrace:
    conditions: list[Condition]
    log: list[str]
    ok: bool


def parse_scenario(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise CodecError("document root must be an object")
    rho_doc = doc.get("rho", {"kind": "zero"})
    if not isinstance(rho_doc, dict) or "kind" not in rho_doc:
        raise CodecError("field 'rho': expected an object with a 'kind'")
    kind = rho_doc["kind"]
    entries: list[tuple[int, int, Ordinal]] = []
    if kind == "zero":
        spec = "zero"
    elif kind == "constant":
        spec = f"const:{rho_doc.get('value', '0')}"
    elif kind == "seeded":
        values = ",".join(rho_doc.get("values", ["0", "1", "w"]))
        spec = f"seed:{rho_doc.get('seed', 0)}:{values}"
    elif kind == "table":
        spec = "zero"
        for k, item in enumerate(rho_doc.get("entries", [])):
            if not isinstance(item, list) or len(item) != 3:
                raise CodecError(f"field 'rho.entries'[{k}]: expected [i, j, ordinal]")
            entries.append(
                (
                    _nat(f"rho.entries[{k}][0]", item[0]),
                    _nat(f"rho.entries[{k}][1]", item[1]),
                    _ord(f"rho.entries[{k}][2]", item[2]),
                )
            )
    else:
        raise CodecError(f"field 'rho.kind': unknown kind {kind!r}")
    steps = []
    for k, item in enumerate(doc.get("steps", [])):
        if not isinstance(item, dict) or "op" not in item:
            raise CodecError(f"field 'steps'[{k}]: expected an object with an 'op'")
        steps.append(
            Step(
                op=item["op"],
                args=_object(f"steps[{k}].args", item.get("args", {})),
                expect=_object(f"steps[{k}].expect", item.get("expect", {})),
            )
        )
    return Scenario(
        rho_spec=spec,
        rho_entries=tuple(entries),
        steps=tuple(steps),
        final_expect=_object("final_expect", doc.get("final_expect", {})),
    )


def _object(name: str, value: Any) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise CodecError(f"field '{name}': expected an object")
    return value


def _build_oracle(s: Scenario) -> RhoOracle:
    rho = oracle_from_spec(s.rho_spec)
    for i, j, v in s.rho_entries:
        rho.set_value(i, j, v)
    return rho


# operations whose public function checks its own output against its input;
# ``build_matched_pair`` returns its (already checked) input unchanged
_SELF_CHECKED = frozenset(
    {
        "augment",
        "extend_heights",
        "widen_node",
        "grow_node",
        "normalize_condition",
        "hausdorffize",
        "fan_out_condition",
        "bijectivize_level",
        "bijectivize_cone",
        "lift_with_support",
        "build_matched_pair",
    }
)


class _Runner:
    def __init__(self, rho: RhoOracle):
        self.rho = rho
        self.matched: MatchedPair | None = None

    def checked(self, p: Condition, step: Step) -> bool:
        """Whether the step's own operation already validated its output and
        checked it against p; ``amalgamate`` checks against the snapshot its
        matched pair was built from."""
        if step.op == "amalgamate":
            return self.matched is not None and self.matched.pa is p
        return step.op in _SELF_CHECKED

    def apply(self, p: Condition, step: Step) -> Condition:
        a = step.args
        op = step.op
        if op == "add_index":
            return add_index(p, _nat("index", a["index"]))
        if op == "augment":
            return augment(p, _nat("index", a["index"]), _ord("node", a["node"]), self.rho)
        if op == "extend_heights":
            Z = {_ord(f"heights[{k}]", h) for k, h in enumerate(a["heights"])}
            return extend_heights(p, Z, self.rho)
        if op == "widen_node":
            return widen_node(p, _ord("node", a["node"]), _nat("count", a["count"]), self.rho)
        if op == "grow_node":
            return grow_node(p, _ord("node", a["node"]), _ord("height", a["height"]), self.rho)
        if op == "normalize_condition":
            return normalize_condition(p, self.rho)
        if op == "hausdorffize":
            return hausdorffize(p, self.rho)
        if op == "fan_out_condition":
            X = {_ord(f"nodes[{k}]", x) for k, x in enumerate(a["nodes"])}
            return fan_out_condition(p, X, _nat("count", a["count"]), self.rho)
        if op in ("bijectivize_level", "bijectivize_cone"):
            X = {_ord(f"nodes[{k}]", x) for k, x in enumerate(a["nodes"])}
            A = {_nat(f"indices[{k}]", i) for k, i in enumerate(a["indices"])}
            level = _ord("level", a["level"])
            fn = bijectivize_level if op == "bijectivize_level" else bijectivize_cone
            return fn(p, level, X, A, self.rho)
        if op == "lift_with_support":
            X = {_ord(f"nodes[{k}]", x) for k, x in enumerate(a["nodes"])}
            A = {_nat(f"indices[{k}]", i) for k, i in enumerate(a["indices"])}
            q, _ = lift_with_support(
                p, _ord("level", a["level"]), X, A, _ord("node", a["node"]), self.rho
            )
            return q
        if op == "build_matched_pair":
            self.matched = build_matched_pair(
                p,
                _ord("alpha", a["alpha"]),
                _ord("beta", a["beta"]),
                _ord("node", a["node"]),
                _nat("fresh_index_base", a["fresh_index_base"]),
                self.rho,
            )
            return p
        if op == "amalgamate":
            if self.matched is None:
                raise ValueError("no matched pair was built before amalgamate")
            return amalgamate(self.matched, self.rho)
        raise ValueError(f"unknown operation {op!r}")


def _check_expect(p: Condition, expect: dict[str, Any], log: list[str]) -> bool:
    ok = True
    for key, want in sorted(expect.items()):
        if key == "normal":
            got = is_normal(p.tree)
        elif key == "hausdorff":
            got = is_hausdorff(p.tree)
        elif key == "node_count":
            got = len(p.tree.nodes)
        elif key == "height_count":
            got = len(p.tree.heights())
        elif key == "index_count":
            got = len(p.family)
        else:
            log.append(f"  expectation {key!r}: unknown key")
            ok = False
            continue
        if got != want:
            log.append(f"  expectation {key!r}: wanted {want!r}, got {got!r}")
            ok = False
    return ok


def run_scenario(s: Scenario) -> RunTrace:
    rho = _build_oracle(s)
    runner = _Runner(rho)
    p = Condition.trivial()
    trace = RunTrace(conditions=[p], log=[], ok=True)
    report = validate_condition(p, rho)
    if report:
        trace.log.append(f"start: invalid: {'; '.join(report)}")
        trace.ok = False
        return trace
    trace.log.append("start: ok")
    for k, step in enumerate(s.steps):
        try:
            q = runner.apply(p, step)
        except (ValueError, KeyError) as exc:
            trace.log.append(f"step {k} {step.op}: failed: {exc}")
            trace.ok = False
            return trace
        if not runner.checked(p, step):
            report = validate_condition(q, rho)
            if report:
                trace.log.append(f"step {k} {step.op}: invalid output: {'; '.join(report)}")
                trace.ok = False
                return trace
            if not leq(q, p):
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
