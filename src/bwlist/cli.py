"""Command-line interface.

Vectors are read as whitespace-separated coordinates, each 're,im' with
exact rational parts 'p' or 'p/q'; decode output is one line per list
entry, 'vector<TAB>rsd', in canonical order (lexicographic by coordinate
(re, im) pairs).  Exit codes: 0 success, 1 parse/validation failure (also
a failed bounds check), 2 list cap exceeded, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, TextIO

from bwlist.arith import format_vector, parse_rational, parse_vector
from bwlist.bounds import random_word, validate_bounds
from bwlist.decode import (
    CostCounter,
    InvariantError,
    MaxListExceeded,
    list_decode,
    list_decode_parallel,
)
from bwlist.lattice import generator_matrix, is_member
from bwlist.oracle import DEFAULT_CAP, oracle_list, shortest_vectors
from bwlist.rmcode import lower_bound_instance, rm_min_distance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MAX_LIST = 2
EXIT_INTERNAL = 3


class _ArgError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ArgError(message)


@dataclass
class RunConfig:
    """Everything one invocation needs, independent of argparse."""

    subcommand: str
    n: Optional[int] = None
    eta: Optional[Fraction] = None
    eps: Optional[Fraction] = None
    degree: Optional[int] = None
    workers: int = 1
    worker_list: Sequence[int] = (1,)
    max_list: Optional[int] = None
    seed: int = 0
    trials: int = 10
    reps: int = 1
    n_min: int = 4
    n_max: int = 8
    cap: int = DEFAULT_CAP
    input: Optional[str] = None
    output: Optional[str] = None


def _read_text(config: RunConfig) -> str:
    if config.input in (None, "-"):
        return sys.stdin.read()
    with open(config.input, "r", encoding="utf-8") as handle:
        return handle.read()


def _open_output(config: RunConfig) -> TextIO:
    if config.output in (None, "-"):
        return sys.stdout
    return open(config.output, "w", encoding="utf-8")


def _read_vector(config: RunConfig):
    vec = parse_vector(_read_text(config))
    if config.n is not None and vec.n != config.n:
        raise ValueError(f"vector has level {vec.n}, expected {config.n}")
    return vec


def _emit(config: RunConfig, lines: Sequence[str]) -> None:
    out = _open_output(config)
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_decode(config: RunConfig) -> int:
    vec = _read_vector(config)
    result = list_decode_parallel(
        vec, config.eta, config.workers, max_list=config.max_list
    )
    _emit(config, result.to_lines())
    return EXIT_OK


def _cmd_oracle(config: RunConfig) -> int:
    vec = _read_vector(config)
    result = oracle_list(vec, config.eta, cap=config.cap)
    _emit(config, result.to_lines())
    return EXIT_OK


def _cmd_member(config: RunConfig) -> int:
    vec = _read_vector(config)
    _emit(config, ["true" if is_member(vec) else "false"])
    return EXIT_OK


def _cmd_gen(config: RunConfig) -> int:
    gen = generator_matrix(config.n)
    _emit(config, [format_vector(row) for row in gen.rows])
    return EXIT_OK


def _cmd_kissing(config: RunConfig) -> int:
    min_norm, achievers = shortest_vectors(config.n, cap=config.cap)
    _emit(config, [f"{min_norm}\t{len(achievers)}"])
    return EXIT_OK


def _cmd_lower_bound(config: RunConfig) -> int:
    inst = lower_bound_instance(config.n, config.eps)
    lines = [
        f"r\t{format_vector(inst.received)}",
        f"k\t{inst.scale_exp}",
        f"count\t{len(inst.witnesses)}",
    ]
    lines += inst.witnesses.to_lines()
    _emit(config, lines)
    return EXIT_OK


def _cmd_rm_mindist(config: RunConfig) -> int:
    _emit(config, [str(rm_min_distance(config.degree, config.n))])
    return EXIT_OK


def _cmd_bounds(config: RunConfig) -> int:
    reports = validate_bounds(
        config.n, trials=config.trials, seed=config.seed
    )
    lines = ["n\teta\tword\tmeasured\tlower\tupper\tformula\tok"]
    for rep in reports:
        upper = "-" if rep.upper is None else str(rep.upper)
        ok = "true" if rep.ok else "false"
        lines.append(
            f"{rep.n}\t{rep.eta}\t{rep.word}\t{rep.measured}"
            f"\t{rep.lower}\t{upper}\t{rep.formula}\t{ok}"
        )
    _emit(config, lines)
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_USAGE


def _cmd_bench(config: RunConfig) -> int:
    lines = ["n\tworkers\trep\tseconds\tops"]
    for n in range(config.n_min, config.n_max + 1):
        word = random_word(random.Random(config.seed * 31 + n), n)
        for workers in config.worker_list:
            for rep in range(config.reps):
                start = time.perf_counter()
                if workers > 1:
                    list_decode_parallel(
                        word, config.eta, workers, max_list=config.max_list
                    )
                    ops = "-"
                else:
                    counter = CostCounter()
                    list_decode(
                        word, config.eta,
                        max_list=config.max_list, counter=counter,
                    )
                    ops = str(counter.ops)
                elapsed = time.perf_counter() - start
                lines.append(f"{n}\t{workers}\t{rep}\t{elapsed:.3f}\t{ops}")
    _emit(config, lines)
    return EXIT_OK


_COMMANDS = {
    "decode": _cmd_decode,
    "oracle": _cmd_oracle,
    "member": _cmd_member,
    "gen": _cmd_gen,
    "kissing": _cmd_kissing,
    "lower-bound": _cmd_lower_bound,
    "rm-mindist": _cmd_rm_mindist,
    "bounds": _cmd_bounds,
    "bench": _cmd_bench,
}


def run(config: RunConfig) -> int:
    return _COMMANDS[config.subcommand](config)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _worker_list(text: str) -> tuple[int, ...]:
    values = tuple(int(part) for part in text.split(","))
    if not values or any(v < 1 for v in values):
        raise ValueError("workers must be positive integers")
    return values


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bwlist",
        description="Exact list decoding of Barnes-Wall lattices over Z[i].",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="vector file ('-' for stdin, default)")
        p.add_argument("--output", help="output file ('-' for stdout, default)")

    p = sub.add_parser("decode", help="list-decode a received word")
    p.add_argument("--eta", type=parse_rational, required=True,
                   help="relative squared radius, e.g. 1/2")
    p.add_argument("--n", type=int, help="expected level of the input vector")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-list", type=int, dest="max_list",
                   help="abort (exit 2) if any list exceeds this size")
    add_io(p)

    p = sub.add_parser("oracle", help="decode by exhaustive enumeration")
    p.add_argument("--eta", type=parse_rational, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"refuse levels above this (default {DEFAULT_CAP})")
    add_io(p)

    p = sub.add_parser("member", help="test lattice membership")
    p.add_argument("--n", type=int)
    add_io(p)

    p = sub.add_parser("gen", help="print the level-n generator matrix")
    p.add_argument("n", type=int)
    p.add_argument("--output")

    p = sub.add_parser("kissing", help="minimum squared norm and its count")
    p.add_argument("n", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--output")

    p = sub.add_parser("lower-bound",
                       help="crafted word with many equidistant members")
    p.add_argument("n", type=int)
    p.add_argument("eps", type=parse_rational)
    p.add_argument("--output")

    p = sub.add_parser("rm-mindist",
                       help="Reed-Muller minimum distance by enumeration")
    p.add_argument("n", type=int, help="number of variables")
    p.add_argument("degree", type=int)
    p.add_argument("--output")

    p = sub.add_parser("bounds", help="validate list-size bounds empirically"
                       " (exit 1 if any check fails)")
    p.add_argument("n", type=int)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("bench", help="time decodes over a level range")
    p.add_argument("--n-min", type=int, dest="n_min", default=4)
    p.add_argument("--n-max", type=int, dest="n_max", default=8)
    p.add_argument("--eta", type=parse_rational, required=True)
    p.add_argument("--workers", type=_worker_list, dest="worker_list",
                   default=(1,), help="comma-separated list, e.g. 1,4")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-list", type=int, dest="max_list")
    p.add_argument("--output")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = RunConfig.__dataclass_fields__
    kwargs = {
        name: getattr(args, name)
        for name in fields
        if hasattr(args, name) and getattr(args, name) is not None
    }
    return RunConfig(**kwargs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _ArgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = _config_from_args(args)
    try:
        return run(config)
    except MaxListExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAX_LIST
    except (InvariantError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
