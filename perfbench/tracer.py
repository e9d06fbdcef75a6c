"""Span tracer for the traced benchmark run, kept entirely outside the library.

``Tracer.install`` wraps every public function of the library's modules in
each module namespace that binds it (``from .x import f`` copies included),
the query methods of ``StandardTree`` and ``TreeMap``, ``RhoOracle.value``,
and counts ``Ordinal.__hash__``, ``__eq__`` and ``__lt__``.  A wrapped call
is a span: name, start, end, parent span and request id.  Spans stay in
memory (up to a cap) and are written out at the end; self time and the
outermost time of each metric group are accumulated as calls return.
``Tracer.remove`` restores every patched name.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("ordinals", "trees", "treemaps", "separation", "forcing", "codec", "generate", "scenario", "cli")
TREE_QUERIES = ("level", "heights", "chain_down", "is_below", "successors", "restrict")
TREE_METHODS = TREE_QUERIES + ("max_height", "level_below", "level_above", "is_below_eq",
                               "order_pairs", "meet", "immediate_successors")
MAP_METHODS = ("get", "get_inverse", "apply_signed", "issubset")

# Metric groups: a group's time is the time spent in its outermost calls, so
# nested members (decide_separation calling decide_rho_separation) count once.
GROUPS = {
    "extension": ("trees.is_extension", "trees.StandardTree.order_pairs"),
    "classify": ("treemaps.classify_map",),
    "closure": ("treemaps.downward_close_map", "treemaps.tensor_downward_closure"),
    "decide": ("separation.decide_rho_separation", "separation.decide_separation"),
    "lift": ("separation.one_key_lift",),
    "validate": ("forcing.validate_condition",),
    "leq": ("forcing.leq",),
    "containment": ("forcing.strong_ad_containment",),
    "match": ("forcing.build_matched_pair",),
    "amalgamate": ("forcing.amalgamate",),
    "decode": ("codec.decode_condition", "codec.decode_matched_pair"),
    "encode": ("codec.encode_condition", "codec.encode_matched_pair", "codec.export_dot"),
    "parse": ("ordinals.parse_ordinal",),
}
RECHECK = ("forcing.validate_condition", "forcing.leq")


class Tracer:
    def __init__(self, span_cap: int = 500_000):
        self.req = -1
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.group_of: list[str | None] = []
        self.group_active: Counter[str] = Counter()
        self.group_s: Counter[str] = Counter()
        self.group_calls: Counter[str] = Counter()
        self.group_req_s: dict[str, Counter[int]] = defaultdict(Counter)
        self.recheck_s = 0.0
        self.obstructions = 0
        self.bytes_in = 0
        self.oracles: dict[int, object] = {}
        self.ordinal_counts: Counter[str] = Counter()
        self.stack: list[list] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.next_span = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_req = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # -- wrapping ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(name.split(".")[0])
        self.calls.append(0)
        self.self_s.append(0.0)
        self.group_of.append(next((g for g, members in GROUPS.items() if name in members), None))
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        nid = self._nid(name)
        group = self.group_of[nid]
        stack = self.stack
        recheck_parent = name in RECHECK
        on_result = {
            "separation.decide_rho_separation": self._on_decide,
            "separation.decide_separation": self._on_decide,
        }.get(name)
        on_args = {
            "codec.decode_condition": self._on_decode,
            "codec.decode_matched_pair": self._on_decode,
            "separation.RhoOracle.value": self._on_oracle,
        }.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            outermost = group is not None and tracer.group_active[group] == 0
            if group is not None:
                tracer.group_active[group] += 1
            if on_args is not None and (outermost or group is None):
                on_args(args)
            span = tracer.next_span
            tracer.next_span += 1
            parent = stack[-1] if stack else None
            frame = [nid, 0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None and outermost:
                    on_result(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                tracer.calls[nid] += 1
                tracer.self_s[nid] += took - frame[1]
                if parent is not None:
                    parent[1] += took
                if group is not None:
                    tracer.group_active[group] -= 1
                    if outermost:
                        tracer.group_s[group] += took
                        tracer.group_calls[group] += 1
                        tracer.group_req_s[group][tracer.req] += took
                if recheck_parent and parent is not None and tracer.names[parent[0]] == "scenario.run_scenario":
                    tracer.recheck_s += took
                tracer._record(span, nid, parent[2] if parent is not None else -1, start, end)

        return wrapper

    def _record(self, span: int, nid: int, parent: int, start: float, end: float) -> None:
        if len(self.span_id) >= self.span_cap:
            self.spans_dropped += 1
            return
        self.span_id.append(span)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_req.append(self.req)
        self.span_start.append(start)
        self.span_end.append(end)

    def _on_decide(self, verdict) -> None:
        if type(verdict).__name__ != "WitnessOrder":
            self.obstructions += 1

    def _on_decode(self, args) -> None:
        self.bytes_in += len(args[0])

    def _on_oracle(self, args) -> None:
        self.oracles.setdefault(id(args[0]), args[0])

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import treeforcing

        modules = {name: importlib.import_module(f"treeforcing.{name}") for name in LAYERS}
        for namespace in (treeforcing, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", None) or ""
                layer = home.rpartition(".")[2]
                if not home.startswith("treeforcing.") or layer not in LAYERS:
                    continue
                if id(obj) not in self._wrappers:
                    self._wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                self._patch(namespace, attr, self._wrappers[id(obj)])
        for cls, layer, methods in (
            (modules["trees"].StandardTree, "trees", TREE_METHODS),
            (modules["treemaps"].TreeMap, "treemaps", MAP_METHODS),
            (modules["separation"].RhoOracle, "separation", ("value",)),
        ):
            for attr in methods:
                fn = vars(cls)[attr]
                self._patch(cls, attr, self._wrap(fn, f"{layer}.{cls.__name__}.{attr}"))
        ordinal = modules["ordinals"].Ordinal
        for attr, key in (("__hash__", "hash"), ("__eq__", "eq"), ("__lt__", "compare")):
            self._patch(ordinal, attr, self._counted(vars(ordinal)[attr], key))

    def _counted(self, fn, key: str):
        counts = self.ordinal_counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------

    def _sum(self, values, pick) -> float:
        return sum(v for nid, v in enumerate(values) if pick(nid))

    def calls_of(self, name: str) -> int:
        return sum(c for nid, c in enumerate(self.calls) if self.names[nid] == name)

    def layer_self_ms(self, layer: str, exclude: tuple[str, ...] = ()) -> float:
        return 1000 * self._sum(
            self.self_s, lambda n: self.layer_of[n] == layer and self.names[n] not in exclude
        )

    def layer_calls(self, layer: str) -> int:
        return int(self._sum(self.calls, lambda n: self.layer_of[n] == layer))

    def group_ms(self, group: str) -> float:
        return 1000 * self.group_s[group]

    def request_group_ms(self, group: str) -> dict[int, float]:
        return {req: 1000 * s for req, s in self.group_req_s[group].items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,name,parent,request,start_s,end_s\n")
            for k in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[k]},{self.names[self.span_name[k]]},{self.span_parent[k]},"
                    f"{self.span_req[k]},{self.span_start[k]:.9f},{self.span_end[k]:.9f}\n"
                )
