"""Command-line interface.

Exit codes: 0 for ok / property true, 1 for a checked property that turned
out false, 2 for errors (bad input, unsatisfiable preconditions).
"""

from __future__ import annotations

import argparse
import sys

from .codec import (
    CodecError,
    decode_condition,
    decode_matched_pair,
    encode_condition,
    encode_matched_pair,
    export_dot,
)
from .forcing import (
    add_index,
    amalgamate,
    augment,
    bijectivize_cone,
    bijectivize_level,
    build_matched_pair,
    extend_heights,
    grow_node,
    hausdorffize,
    leq,
    lift_with_support,
    normalize_condition,
    validate_condition,
    widen_node,
)
from .generate import GenBounds, gen_condition
from .ordinals import OrdinalParseError, parse_ordinal
from .scenario import parse_scenario, run_scenario
from .separation import (
    RhoOracle,
    WitnessOrder,
    decide_rho_separation,
    decide_separation,
    oracle_from_spec,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load(path: str, rho_spec: str | None, seed: int):
    p, rho = decode_condition(_read(path))
    if rho_spec is not None:
        rho = oracle_from_spec(rho_spec, seed=seed)
    return p, rho


def _ordinals(csv: str):
    return [parse_ordinal(s.strip()) for s in csv.split(",") if s.strip()]


def _naturals(csv: str):
    return [int(s.strip()) for s in csv.split(",") if s.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="treeforcing",
        description="Finite tree forcing conditions: validation, extension, amalgamation.",
    )
    parser.add_argument("--rho", help="oracle: zero | const:<ordinal> | seed:<n>[:<v,...>]")
    parser.add_argument("--seed", type=int, default=0, help="seed for seeded oracles and gen")
    parser.add_argument("--out", help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="check a condition file").add_argument("file")
    cmd = sub.add_parser("leq", help="is the first condition below the second?")
    cmd.add_argument("lower")
    cmd.add_argument("upper")
    cmd = sub.add_parser("check-sep", help="decide (rho-)separation on a level set")
    cmd.add_argument("file")
    cmd.add_argument("--level", required=True)
    cmd.add_argument("--nodes", help="comma-separated node labels (default: whole level)")
    cmd.add_argument("--indices", help="comma-separated indices (default: all)")
    cmd.add_argument("--plain", action="store_true", help="plain separation, no oracle")
    cmd = sub.add_parser("extend", help="occupy new heights")
    cmd.add_argument("file")
    cmd.add_argument("--heights", required=True)
    cmd = sub.add_parser("widen", help="give a node at least k immediate successors")
    cmd.add_argument("file")
    cmd.add_argument("--node", required=True)
    cmd.add_argument("--count", type=int, required=True)
    cmd = sub.add_parser("hausdorff", help="insert successor heights below limit levels")
    cmd.add_argument("file")
    cmd = sub.add_parser("normalize", help="extend the tree to a normal one")
    cmd.add_argument("file")
    cmd = sub.add_parser("grow", help="put a node above the given one at a level")
    cmd.add_argument("file")
    cmd.add_argument("--node", required=True)
    cmd.add_argument("--height", required=True)
    cmd = sub.add_parser("add-index", help="bring an index into the domain")
    cmd.add_argument("file")
    cmd.add_argument("--index", type=int, required=True)
    cmd = sub.add_parser("augment", help="put a node into a map's domain and range")
    cmd.add_argument("file")
    cmd.add_argument("--index", type=int, required=True)
    cmd.add_argument("--node", required=True)
    cmd = sub.add_parser("bijectivize", help="make selected maps bijective over a level set")
    cmd.add_argument("file")
    cmd.add_argument("--level", required=True)
    cmd.add_argument("--nodes", required=True)
    cmd.add_argument("--indices", required=True)
    cmd.add_argument("--cone", action="store_true", help="iterate through all higher levels")
    cmd = sub.add_parser("one-key", help="bijectivize the cones, then lift to the top level")
    cmd.add_argument("file")
    cmd.add_argument("--level", required=True)
    cmd.add_argument("--nodes", required=True)
    cmd.add_argument("--indices", required=True)
    cmd.add_argument("--node", required=True, help="top-level anchor")
    cmd = sub.add_parser("match-pair", help="build a matched pair from a condition")
    cmd.add_argument("file")
    cmd.add_argument("--alpha", required=True)
    cmd.add_argument("--beta", required=True)
    cmd.add_argument("--node", required=True)
    cmd.add_argument("--fresh-base", type=int, default=100)
    cmd = sub.add_parser("amalgamate", help="amalgamate a matched-pair file")
    cmd.add_argument("file")
    cmd = sub.add_parser("run", help="run a scenario file")
    cmd.add_argument("file")
    cmd = sub.add_parser("gen", help="generate a seeded random condition")
    cmd.add_argument("--levels", type=int, default=4)
    cmd.add_argument("--width", type=int, default=6)
    cmd.add_argument("--indices", type=int, default=3)
    cmd = sub.add_parser("export-dot", help="render a condition as a DOT digraph")
    cmd.add_argument("file")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (CodecError, OrdinalParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "validate":
        p, rho = _load(args.file, args.rho, args.seed)
        report = validate_condition(p, rho)
        for line in report:
            print(line)
        print("ok" if not report else "invalid")
        return 0 if not report else 1

    if args.command == "leq":
        q, _ = decode_condition(_read(args.lower))
        p, _ = decode_condition(_read(args.upper))
        result = leq(q, p)
        print("true" if result else "false")
        return 0 if result else 1

    if args.command == "check-sep":
        p, rho = _load(args.file, args.rho, args.seed)
        level = parse_ordinal(args.level)
        X = frozenset(_ordinals(args.nodes)) if args.nodes else p.tree.level(level)
        fam = dict(p.family)
        if args.indices:
            wanted = _naturals(args.indices)
            missing = [t for t in wanted if t not in fam]
            if missing:
                raise ValueError(f"indices not in the condition: {', '.join(map(str, missing))}")
            fam = {t: fam[t] for t in wanted}
        if args.plain:
            verdict = decide_separation(fam, X)
        else:
            verdict = decide_rho_separation(fam, X, rho, level)
        print(verdict)
        return 0 if isinstance(verdict, WitnessOrder) else 1

    if args.command == "run":
        trace = run_scenario(parse_scenario(_read(args.file)))
        for line in trace.log:
            print(line)
        print("ok" if trace.ok else "failed")
        return 0 if trace.ok else 1

    if args.command == "gen":
        bounds = GenBounds(
            max_heights=args.levels,
            max_level_width=args.width,
            max_indices=args.indices,
        )
        p, rho = gen_condition(args.seed, bounds)
        _write(encode_condition(p, rho), args.out)
        return 0

    if args.command == "export-dot":
        p, _ = decode_condition(_read(args.file))
        _write(export_dot(p), args.out)
        return 0

    if args.command == "match-pair":
        p, rho = _load(args.file, args.rho, args.seed)
        mp = build_matched_pair(
            p,
            parse_ordinal(args.alpha),
            parse_ordinal(args.beta),
            parse_ordinal(args.node),
            args.fresh_base,
            rho,
        )
        _write(encode_matched_pair(mp, rho), args.out)
        return 0

    if args.command == "amalgamate":
        mp, rho = decode_matched_pair(_read(args.file))
        w = amalgamate(mp, rho)
        _write(encode_condition(w, rho), args.out)
        return 0

    # the remaining commands all transform one condition file
    p, rho = _load(args.file, args.rho, args.seed)
    if args.command == "extend":
        q = extend_heights(p, set(_ordinals(args.heights)), rho)
    elif args.command == "widen":
        q = widen_node(p, parse_ordinal(args.node), args.count, rho)
    elif args.command == "hausdorff":
        q = hausdorffize(p, rho)
    elif args.command == "normalize":
        q = normalize_condition(p, rho)
    elif args.command == "grow":
        q = grow_node(p, parse_ordinal(args.node), parse_ordinal(args.height), rho)
    elif args.command == "add-index":
        q = add_index(p, args.index)
    elif args.command == "augment":
        q = augment(p, args.index, parse_ordinal(args.node), rho)
    elif args.command == "bijectivize":
        fn = bijectivize_cone if args.cone else bijectivize_level
        q = fn(
            p,
            parse_ordinal(args.level),
            frozenset(_ordinals(args.nodes)),
            frozenset(_naturals(args.indices)),
            rho,
        )
    elif args.command == "one-key":
        q, support = lift_with_support(
            p,
            parse_ordinal(args.level),
            frozenset(_ordinals(args.nodes)),
            frozenset(_naturals(args.indices)),
            parse_ordinal(args.node),
            rho,
        )
        print("support: " + ", ".join(str(y) for y in sorted(support)))
    else:
        raise ValueError(f"unknown command {args.command!r}")
    _write(encode_condition(q, rho), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
