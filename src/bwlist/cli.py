"""Command-line interface.

Vectors are read as whitespace-separated coordinates, each 're,im' with
exact rational parts 'p' or 'p/q', and every integer argument is 'p': an
optional minus and ASCII digits.  Decode output is one line per list
entry, 'vector<TAB>rsd', in canonical order (lexicographic by coordinate
(re, im) pairs).  Exit codes: 0 success, 1 parse/validation failure (also
a failed bounds check), 2 list cap exceeded, 3 internal invariant
violation.  A reader that closes the output pipe early, as `head` does,
ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence, TextIO

from bwlist.arith import format_vector, parse_int, parse_rational, parse_vector
from bwlist.decode import MaxListExceeded, list_decode
from bwlist.lattice import generator_matrix, is_member

# bwlist.bounds, bwlist.oracle and bwlist.rmcode are imported by the
# subcommands that use them, so that a decode neither loads nor, without a
# bytecode cache, compiles them

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MAX_LIST = 2
EXIT_INTERNAL = 3


class _ArgError(Exception):
    pass


def _arg_type(parse):
    """`parse` as an argparse type: a rejected value is reported with the
    parser's own message, not argparse's generic one."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ArgError(message)


def _read_text(args: argparse.Namespace) -> str:
    if args.input in (None, "-"):
        return sys.stdin.read()
    with open(args.input, "r", encoding="utf-8") as handle:
        return handle.read()


def _open_output(args: argparse.Namespace) -> TextIO:
    if args.output in (None, "-"):
        return sys.stdout
    return open(args.output, "w", encoding="utf-8")


def _read_vector(args: argparse.Namespace):
    vec = parse_vector(_read_text(args))
    if args.n is not None and vec.n != args.n:
        raise ValueError(f"vector has level {vec.n}, expected {args.n}")
    return vec


def _emit(args: argparse.Namespace, lines: Sequence[str]) -> None:
    out = _open_output(args)
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_decode(args: argparse.Namespace) -> int:
    vec = _read_vector(args)
    result = list_decode(
        vec, args.eta, args.workers, max_list=args.max_list
    )
    _emit(args, result.to_lines())
    return EXIT_OK


class _OracleCap:
    """The `--cap` default of `oracle` and `kissing`: the oracle's
    DEFAULT_CAP, looked up only when one of them runs or its help is
    printed."""

    def __str__(self) -> str:
        from bwlist.oracle import DEFAULT_CAP

        return str(DEFAULT_CAP)


def _oracle_cap(args: argparse.Namespace) -> int:
    from bwlist.oracle import DEFAULT_CAP

    return DEFAULT_CAP if isinstance(args.cap, _OracleCap) else args.cap


def _cmd_oracle(args: argparse.Namespace) -> int:
    from bwlist.oracle import oracle_list

    vec = _read_vector(args)
    result = oracle_list(vec, args.eta, cap=_oracle_cap(args))
    _emit(args, result.to_lines())
    return EXIT_OK


def _cmd_member(args: argparse.Namespace) -> int:
    vec = _read_vector(args)
    _emit(args, ["true" if is_member(vec) else "false"])
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    _emit(args, [format_vector(row) for row in generator_matrix(args.n)])
    return EXIT_OK


def _cmd_kissing(args: argparse.Namespace) -> int:
    from bwlist.oracle import shortest_vectors

    min_norm, achievers = shortest_vectors(args.n, cap=_oracle_cap(args))
    _emit(args, [f"{min_norm}\t{len(achievers)}"])
    return EXIT_OK


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    from bwlist.rmcode import lower_bound_instance

    inst = lower_bound_instance(args.n, args.eps)
    lines = [
        f"r\t{format_vector(inst.received)}",
        f"k\t{inst.scale_exp}",
        f"count\t{len(inst.witnesses)}",
    ]
    lines += inst.witnesses.to_lines()
    _emit(args, lines)
    return EXIT_OK


def _cmd_rm_mindist(args: argparse.Namespace) -> int:
    from bwlist.rmcode import rm_min_distance

    _emit(args, [str(rm_min_distance(args.degree, args.n))])
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    from bwlist.bounds import validate_bounds

    reports = validate_bounds(
        args.n, trials=args.trials, seed=args.seed
    )
    lines = ["n\teta\tword\tmeasured\tlower\tupper\tformula\tok"]
    for rep in reports:
        upper = "-" if rep.upper is None else str(rep.upper)
        ok = "true" if rep.ok else "false"
        lines.append(
            f"{rep.n}\t{rep.eta}\t{rep.word}\t{rep.measured}"
            f"\t{rep.lower}\t{upper}\t{rep.formula}\t{ok}"
        )
    _emit(args, lines)
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_USAGE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bwlist",
        description="Exact list decoding of Barnes-Wall lattices over Z[i].",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    integer, rational = _arg_type(parse_int), _arg_type(parse_rational)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="vector file ('-' for stdin, default)")
        p.add_argument("--output", help="output file ('-' for stdout, default)")

    p = sub.add_parser("decode", help="list-decode a received word")
    p.add_argument("--eta", type=rational, required=True,
                   help="relative squared radius, e.g. 1/2")
    p.add_argument("--n", type=integer,
                   help="expected level of the input vector")
    p.add_argument("--workers", type=integer, default=1,
                   help="accepted for callers that pass it; every decode "
                        "runs in one process")
    p.add_argument("--max-list", type=integer, dest="max_list",
                   help="abort (exit 2) if any list exceeds this size")
    add_io(p)
    p.set_defaults(run=_cmd_decode)

    p = sub.add_parser("oracle", help="decode by exhaustive enumeration")
    p.add_argument("--eta", type=rational, required=True)
    p.add_argument("--n", type=integer)
    p.add_argument("--cap", type=integer, default=_OracleCap(),
                   help="refuse levels above this (default %(default)s)")
    add_io(p)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("member", help="test lattice membership")
    p.add_argument("--n", type=integer)
    add_io(p)
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("gen", help="print the level-n generator matrix")
    p.add_argument("n", type=integer)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("kissing", help="minimum squared norm and its count")
    p.add_argument("n", type=integer)
    p.add_argument("--cap", type=integer, default=_OracleCap())
    p.add_argument("--output")
    p.set_defaults(run=_cmd_kissing)

    p = sub.add_parser("lower-bound",
                       help="crafted word with many equidistant members")
    p.add_argument("n", type=integer)
    p.add_argument("eps", type=rational)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_lower_bound)

    p = sub.add_parser("rm-mindist",
                       help="Reed-Muller minimum distance by enumeration")
    p.add_argument("n", type=integer, help="number of variables")
    p.add_argument("degree", type=integer)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_rm_mindist)

    p = sub.add_parser("bounds", help="validate list-size bounds empirically"
                       " (exit 1 if any check fails)")
    p.add_argument("n", type=integer)
    p.add_argument("--trials", type=integer, default=10)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--output")
    p.set_defaults(run=_cmd_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _ArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.run(args)
        # a closed pipe shows up here rather than at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except MaxListExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAX_LIST
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
