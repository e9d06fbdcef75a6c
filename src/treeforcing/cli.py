"""Command-line interface.

The operation subcommands are built from the table in ``treeforcing.ops``:
an input file plus one required flag per argument (sets comma-separated).
Explicit here: ``bijectivize --cone``, ``match-pair --fresh-base`` (default
100), ``one-key``'s printed support and ``amalgamate``'s matched-pair file.
Every operation checks its own output; as one may return its input unchanged
(or close up an invalid one), the CLI also validates the input, so an
invalid input is never written back out.

Exit codes: 0 for ok / property true, 1 for a checked property that turned
out false, 2 for errors (bad input, unsatisfiable preconditions), 3 for an
internal fault (a failed postcondition, or any exception of another type).

The argument parser is built once per process, on the first call of
``main``, and reused by every later call: parsing reads it and leaves it
unchanged, so one call cannot affect the next.
"""

from __future__ import annotations

import argparse
import sys

from . import forcing, ops
from .codec import (
    CodecError,
    decode_condition,
    decode_matched_pair,
    encode_condition,
    encode_matched_pair,
    export_dot,
)
from .forcing import MatchedPair, leq, validate_condition
from .generate import GenBounds, gen_condition
from .ops import NATURAL, NATURALS, OPS, ORDINAL, ORDINALS
from .ordinals import OrdinalParseError, parse_natural, parse_ordinal
from .scenario import parse_scenario, run_scenario
from .separation import (
    WitnessOrder,
    decide_rho_separation,
    decide_separation,
    oracle_from_spec,
)

# table entry of each operation command; bijectivize --cone picks bijectivize_cone
_COMMANDS = {op.command: name for name, op in OPS.items() if op.command}


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


def _load(args: argparse.Namespace, decode=decode_condition):
    """The input file decoded with its oracle, which ``--rho`` overrides."""
    p, rho = decode(_read(args.file))
    if args.rho is not None:
        rho = oracle_from_spec(args.rho)
    return p, rho


def _ordinals(csv: str):
    return [parse_ordinal(s.strip()) for s in csv.split(",") if s.strip()]


def _naturals(csv: str):
    return [parse_natural(s.strip()) for s in csv.split(",") if s.strip()]


# flag value -> argument, by kind; parsed after the input file is read
_FROM_FLAG = {
    ORDINAL: parse_ordinal,
    NATURAL: parse_natural,
    ORDINALS: lambda csv: frozenset(_ordinals(csv)),
    NATURALS: lambda csv: frozenset(_naturals(csv)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeforcing",
        description="Finite tree forcing conditions: validation, extension, amalgamation.",
    )
    parser.add_argument("--rho", help="oracle: zero | const:<ordinal> | seed:<n>[:<v,...>]")
    parser.add_argument("--seed", type=int, default=0, help="seed for gen")
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
    for op in OPS.values():
        if op.command is None:
            continue
        cmd = sub.add_parser(op.command, help=op.help)
        cmd.add_argument("file")
        for key in op.args:
            if key == "fresh_index_base":  # match-pair: a shorter flag, with a default
                cmd.add_argument("--fresh-base", dest=key, default="100")
            else:
                cmd.add_argument(f"--{key}", required=True)
    sub.choices["bijectivize"].add_argument(
        "--cone", action="store_true", help="iterate through all higher levels"
    )
    cmd = sub.add_parser("run", help="run a scenario file")
    cmd.add_argument("file")
    cmd = sub.add_parser("gen", help="generate a seeded random condition")
    cmd.add_argument("--levels", type=int, default=4)
    cmd.add_argument("--width", type=int, default=6)
    cmd.add_argument("--indices", type=int, default=3)
    cmd = sub.add_parser("export-dot", help="render a condition as a DOT digraph")
    cmd.add_argument("file")
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (CodecError, OrdinalParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a failed postcondition: a fault in the library
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other fault in the library, never "property false"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "validate":
        p, rho = _load(args)
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
        p, rho = _load(args)
        level = parse_ordinal(args.level)
        X = frozenset(_ordinals(args.nodes)) if args.nodes else p.tree.level(level)
        forcing._check_selection(p, level, X, frozenset())
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

    name = _COMMANDS[args.command]
    if args.command == "bijectivize" and args.cone:
        name = "bijectivize_cone"
    return _run_op(name, args)


def _run_op(name: str, args: argparse.Namespace) -> int:
    """Run one table entry on its input file and write its result."""
    op = OPS[name]
    p, rho = _load(args, decode_matched_pair if op.on is MatchedPair else decode_condition)
    values = {key: _FROM_FLAG[kind](getattr(args, key)) for key, kind in op.args.items()}
    out = ops.run(name, p, values, rho)
    if args.command == "match-pair":
        _write(encode_matched_pair(out, rho), args.out)
        return 0
    q, support = out if args.command == "one-key" else (out, None)
    # encoded before the checks, so the oracle values they consult stay out of the file
    text = encode_condition(q, rho)
    if op.on is not MatchedPair:  # an operation may close up an invalid input
        forcing._blame_input(p, rho, name)
    if support is not None:
        print("support: " + ", ".join(str(y) for y in sorted(support)))
    _write(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
