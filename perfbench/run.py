"""Benchmark harness for treeforcing: one workload per fresh interpreter.

    python3 perfbench/run.py --workload walk|scenario|check|all
                             [--seed N] [--seconds S] [--trace 0|1]

Untraced (``--trace 0``) the closed loop runs whole passes over the
workload's fixed cycle of requests for about ``--seconds`` (default: the
``run_seconds`` of BENCHMARK.json), and the last line of standard output is a
JSON object with the end-to-end metrics.  Traced (``--trace 1``) a fixed
prefix of the cycle runs under the span tracer, then the same requests again
untraced to price the tracing, and the last line holds the per-layer
metrics.  Either way the correctness gate runs outside the timed phase, and
any failure makes the exit code nonzero.  ``--workload all`` runs the three
workloads in turn, each in its own interpreter.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source tree on the path)
from tracer import TREE_QUERIES, Tracer  # noqa: E402

WORKLOADS = ("walk", "scenario", "check")
SETUP_RUNS = 5
TAIL_LADDER = (99, 98, 95, 90, 80, 75, 70, 50)
LADDER_GROUPS = (
    ("forcing.validate", "validate"),
    ("separation.decide", "decide"),
    ("forcing.leq", "leq"),
    ("codec.decode", "decode"),
)


def build(name: str, seed: int, workdir: Path) -> workloads.Workload:
    if name == "walk":
        return workloads.Walk(seed)
    if name == "scenario":
        return workloads.ScenarioWorkload(seed)
    return workloads.Check(seed, str(workdir))


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the library and build the inputs."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.DEVNULL,
            check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int, preferred: int) -> int:
    """The workload's fixed tail percentile, lowered only if fewer than ten samples lie beyond it."""
    for pct in TAIL_LADDER:
        if pct <= preferred and n - math.ceil(pct / 100 * n) >= 10:
            return pct
    return 50


def closed_loop(wl: workloads.Workload, seconds: float = 0.0, count: int | None = None,
                tracer: Tracer | None = None, after=None) -> tuple[list[float], float]:
    """Run requests 0, 1, ... one at a time.

    Stop after `count` requests, or else at the end of a pass over the cycle
    once another pass, as long as the mean one so far, would overrun
    `seconds`.  At least one pass runs.  `after(i)` runs once request i is
    done, with the clock stopped.
    """
    latencies: list[float] = []
    begin = time.perf_counter()
    paused = 0.0
    i = 0
    cycle = wl.cycle_len
    while i < wl.capacity:
        if count is not None:
            if i >= count:
                break
        elif i and i % cycle == 0:
            elapsed = time.perf_counter() - begin - paused
            if elapsed * (i + cycle) / i >= seconds:
                break
        if tracer is not None:
            tracer.req = i
        start = time.perf_counter()
        wl.run(i)
        end = time.perf_counter()
        latencies.append(end - start)
        if after is not None:
            after(i)
            paused += time.perf_counter() - end
        i += 1
    return latencies, time.perf_counter() - begin - paused


def check_output(wl: workloads.Workload, i: int, pinned: list[str], first: dict[int, str]) -> list[str]:
    """The correctness gate for request i, outside the timed phase.

    The first pass runs the workload's gate and compares output digests with
    the pins; a later pass's output must have the digest of the first pass's
    output for the same input (the gate runs again where there is no digest).
    The output is then dropped, so memory does not grow with the number of
    requests.
    """
    pos = i % wl.cycle_len
    got = wl.output_digest(i)
    found: list[str] = []
    if i < wl.cycle_len or got is None or pos not in first:
        try:
            problems = wl.gate(i)
        except Exception as exc:  # noqa: BLE001 - a gate crash is a failure, by type
            problems = [(f"Gate{type(exc).__name__}", f"request {i}: gate raised {type(exc).__name__}: {exc}")]
        for kind, message in problems:
            wl.fail(i, kind)
            found.append(message)
        if got is not None:
            first[pos] = got
            if pos < len(pinned) and got != pinned[pos]:
                wl.fail(i, "DigestMismatch")
                found.append(f"request {i}: output digest {got}, pinned {pinned[pos]}")
    elif got != first[pos]:
        wl.fail(i, "DigestChanged")
        found.append(f"request {i}: output digest {got}, {first[pos]} in the first pass")
    wl.forget(i)
    return found


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(ms) over log(nodes)."""
    pts = [(math.log(n), math.log(ms)) for n, ms in points if ms > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0


def ladder_metrics(tracer: Tracer, wl: workloads.Workload, meta: dict) -> dict[str, float]:
    """Per-rung medians of each request's time in a layer, and their log-log slopes."""
    out: dict[str, float] = {}
    rungs = workloads.ladder_rungs()
    for prefix, group in LADDER_GROUPS:
        per_rung: dict[str, list[float]] = {name: [] for name, _ in rungs}
        if isinstance(wl, workloads.Check):
            for req, ms in tracer.request_group_ms(group).items():
                per_rung[wl.request(req)[0].name].append(ms)
        medians = {name: statistics.median(v) if v else 0.0 for name, v in per_rung.items()}
        for name, _ in rungs:
            out[f"{prefix}_ms.{name}"] = medians[name]
        out[f"{prefix}_slope"] = slope([(n, medians[name]) for name, n in rungs])
        if group == "validate":
            meta["validate_slope_flat"] = slope(
                [(n, medians[name]) for name, n in rungs if name.startswith("flat")]
            )
    return out


def layer_metrics(tracer: Tracer, wl: workloads.Workload, n: int, overhead: float,
                  meta: dict) -> dict[str, float]:
    t = tracer
    decisions = t.group_calls["decide"]
    oracles = list(t.oracles.values())
    draws = wl.stats["draws"]
    m = {
        "ordinals.hash_calls": t.ordinal_counts["hash"],
        "ordinals.eq_calls": t.ordinal_counts["eq"],
        "ordinals.compare_calls": t.ordinal_counts["compare"],
        "ordinals.parse_calls": t.calls_of("ordinals.parse_ordinal"),
        "ordinals.parse_ms": t.group_ms("parse"),
        "trees.calls": t.layer_calls("trees"),
        "trees.self_ms": t.layer_self_ms("trees"),
        "trees.extension_ms": t.group_ms("extension"),
        "trees.query_calls": sum(t.calls_of(f"trees.StandardTree.{q}") for q in TREE_QUERIES),
        "treemaps.classify_calls": t.calls_of("treemaps.classify_map"),
        "treemaps.classify_ms": t.group_ms("classify"),
        "treemaps.closure_ms": t.group_ms("closure"),
        "separation.decide_calls": decisions,
        "separation.decide_ms": t.group_ms("decide"),
        "separation.relation_scans": t.calls_of("separation.relations_between"),
        "separation.obstruction_share": t.obstructions / decisions if decisions else 0.0,
        "separation.lift_ms": t.group_ms("lift"),
        "separation.rho_lookups": t.calls_of("separation.RhoOracle.value"),
        "separation.rho_table_entries": (
            statistics.fmean(len(o.table) for o in oracles) if oracles else 0.0
        ),
        "forcing.validate_calls": t.calls_of("forcing.validate_condition"),
        "forcing.validate_ms": t.group_ms("validate"),
        "forcing.validate_per_req": t.calls_of("forcing.validate_condition") / n,
        "forcing.leq_calls": t.calls_of("forcing.leq"),
        "forcing.leq_ms": t.group_ms("leq"),
        "forcing.op_self_ms": t.layer_self_ms(
            "forcing", exclude=("forcing.validate_condition", "forcing.leq")
        ),
        "forcing.containment_ms": t.group_ms("containment"),
        "forcing.match_ms": t.group_ms("match"),
        "forcing.amalgamate_ms": t.group_ms("amalgamate"),
        "codec.decode_ms": t.group_ms("decode"),
        "codec.encode_ms": t.group_ms("encode"),
        "codec.bytes_in": t.bytes_in,
        "generate.draws": t.calls_of("generate.random_step"),
        "generate.refused_ratio": wl.stats["refused"] / draws if draws else 0.0,
        "scenario.self_ms": t.layer_self_ms("scenario"),
        "scenario.recheck_ms": 1000 * t.recheck_s,
        "cli.self_ms": t.layer_self_ms("cli"),
    }
    m.update(ladder_metrics(t, wl, meta))
    m["trace.overhead_frac"] = overhead
    return m


def run_one(args: argparse.Namespace) -> int:
    name, seed = args.workload, args.seed
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-s{seed}-{os.getpid()}"
    if args.setup_probe:
        try:
            build(name, seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_times = measure_setup(name, seed)
    try:
        wl = build(name, seed, workdir)
        replay = build(name, seed, workdir) if args.trace else None
        tracer = Tracer() if args.trace else None
        meta: dict = {"workload": name, "seed": seed, "trace": args.trace,
                      "python": sys.version.split()[0], "cpus": os.cpu_count(),
                      "git_sha": git_sha(), "setup_s_runs": setup_times}
        pinned = json.loads((HERE / "pins.json").read_text()).get(name, {}).get(str(seed), [])
        problems: list[str] = []
        first: dict[int, str] = {}
        if tracer is None:
            latencies, wall = closed_loop(
                wl, args.seconds,
                after=lambda i: problems.extend(check_output(wl, i, pinned, first)),
            )
        else:
            tracer.install()
            try:
                latencies, wall = closed_loop(wl, count=wl.traced, tracer=tracer)
            finally:
                tracer.remove()
            # the same requests again, untraced, on inputs built alike
            replayed, _ = closed_loop(replay, count=wl.traced)
            overhead = sum(latencies) / sum(replayed) - 1
            for i in range(len(latencies)):
                problems += check_output(wl, i, pinned, first)
        n = len(latencies)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(wl.failed)
    lat = sorted(latencies)
    pct = tail_percentile(n, wl.tail_pct)
    meta.update(
        requests=n,
        inputs_exhausted=n == wl.capacity,
        passes=n / wl.cycle_len,
        wall_s=wall,
        tail_percentile=pct,
        tail_beyond=n - math.ceil(pct / 100 * n),
        failures=dict(wl.failures),
        problems=problems[:20],
        digests_pinned=min(n, len(pinned)),
    )
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "req_per_s": (n / wall, "1/s"),
            "latency_ms_p50": (1000 * statistics.median(lat), "ms"),
            "latency_ms_tail": (1000 * percentile(lat, pct), "ms"),
            "ok_frac": (1 - failed / n, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        values = layer_metrics(tracer, wl, n, overhead, meta)
        metrics = {k: (v, units[k]) for k, v in values.items()}
        meta["spans_kept"] = len(tracer.span_id)
        meta["spans_dropped"] = tracer.spans_dropped
        tracer.write_spans(str(OUT / f"spans-{name}-s{seed}.csv"))
    print(json.dumps({"meta": meta}))
    for key, (value, unit) in metrics.items():
        print(f"{name:9s} {key:38s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{name}-s{seed}-t{args.trace}.json").write_text(json.dumps({"meta": meta, **result}, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
