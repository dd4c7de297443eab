"""Command line front end: mine closed itemsets, generate test data, benchmark engines.

Exit codes: 0 success, 1 I/O error, 2 parse error, 3 invalid arguments,
4 capacity exceeded, 5 benchmark digest mismatch, 141 (128 + SIGPIPE) the
reader of standard output closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

from .context import FormalContext, parse_cxt, parse_fimi
from .derive import EnumerationStats
from .errors import CapacityError, ConfigurationError, DigestMismatchError, ParseError
from .fptree import DEFAULT_DENSE_WIDTH
from .mining import ALGORITHMS, concept_digest, mine_concepts

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_CAPACITY = 4
EXIT_DIGEST = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, what the shell reports for ``cat`` in the same pipe


class _UsageError(Exception):
    pass


class _ReaderGone(Exception):
    """The reader of standard output closed the pipe (``... | head``)."""


@contextmanager
def _stdout():
    """Standard output for one command's writes; a closed pipe raises :class:`_ReaderGone`.

    Standard output is then pointed at the null device, so that the flush
    at interpreter exit has nowhere to fail and prints nothing.
    """
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _ReaderGone from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for parse errors
        raise _UsageError(message)


def generate_context(
    seed: int, num_objects: int, num_attributes: int, density: float
) -> FormalContext:
    """Random context with each incidence set independently with probability ``density``.

    Driven by numpy's PCG64 generator, so equal seeds give bit-identical
    contexts on every platform.
    """
    import numpy as np  # here, not at module level, so that mining never loads numpy

    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    incidence = rng.random((num_objects, num_attributes)) < density
    rows = [(np.flatnonzero(line) + 1).tolist() for line in incidence]
    return FormalContext(rows, num_attributes=num_attributes)


def _generate_from_args(args) -> FormalContext:
    """:func:`generate_context` for the parsed ``--seed/--objects/--attributes/--density``."""
    for name in ("seed", "objects", "attributes"):
        value = getattr(args, name)
        if value < 0:
            raise _UsageError(f"--{name} must be non-negative, got {value}")
    if not 0.0 <= args.density <= 1.0:  # false for NaN as well
        raise _UsageError(f"--density must lie in [0, 1], got {args.density}")
    return generate_context(args.seed, args.objects, args.attributes, args.density)


def _build_parser() -> _Parser:
    parser = _Parser(prog="conceptmine", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="enumerate frequent closed itemsets of a dataset")
    mine.add_argument("input", help="input file, or - for standard input")
    mine.add_argument("--format", choices=("fimi", "cxt"), default="fimi")
    mine.add_argument("--algorithm", choices=ALGORITHMS, default="lcm2")
    mine.add_argument("--min-support", type=int, default=None, help="absolute weighted count")
    mine.add_argument(
        "--min-support-ratio", type=float, default=None, help="fraction of the object count"
    )
    mine.add_argument(
        "--no-pruning", action="store_true", help="lcm2 and lcm3 only: disable rule pruning"
    )
    mine.add_argument(
        "--dense-width",
        default=None,
        help="lcm3 only: max live attributes for the FP-tree engine (integer or 'inf')",
    )
    mine.add_argument("--with-extents", action="store_true", help="append object ids per itemset")
    mine.add_argument("--sorted", action="store_true", help="sort output lines by itemset")
    mine.add_argument("--no-attr-sort", action="store_true")
    mine.add_argument("--no-merge-rows", action="store_true")
    mine.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    mine.add_argument("--stats", default=None, help="write run statistics as JSON to this file")

    gen = sub.add_parser("gen", help="generate a random context in FIMI format")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--objects", type=int, required=True)
    gen.add_argument("--attributes", type=int, required=True)
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--output", "-o", default=None)

    bench = sub.add_parser("bench", help="time several engines on one dataset and compare outputs")
    bench.add_argument("input", nargs="?", default=None, help="input file (FIMI); omit to generate")
    bench.add_argument("--format", choices=("fimi", "cxt"), default="fimi")
    bench.add_argument("--algorithms", default="cbo,lcm2", help="comma-separated engine list")
    bench.add_argument("--min-support", type=int, default=None)
    bench.add_argument("--min-support-ratio", type=float, default=None)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--dense-width", default=None)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--objects", type=int, default=None)
    bench.add_argument("--attributes", type=int, default=None)
    bench.add_argument("--density", type=float, default=None)
    return parser


def _resolve_support(args, total_objects: int) -> int:
    if args.min_support is not None and args.min_support_ratio is not None:
        raise _UsageError("give either --min-support or --min-support-ratio, not both")
    if args.min_support_ratio is not None:
        ratio = args.min_support_ratio
        if not 0.0 <= ratio <= 1.0:
            raise _UsageError(f"--min-support-ratio must lie in [0, 1], got {ratio}")
        # The ratio as written in decimal, not its binary float: 0.07 of 100
        # objects is 7, where the float product is 7.000000000000001.  Integer
        # arithmetic on repr's digits, because fractions would load decimal.
        mantissa, _, exponent = repr(ratio).partition("e")
        whole, _, decimals = mantissa.partition(".")
        scale = 10 ** (len(decimals) - int(exponent or 0))
        return -(-int(whole + decimals) * total_objects // scale)
    if args.min_support is not None:
        if args.min_support < 0:
            raise _UsageError("--min-support must be non-negative")
        return args.min_support
    return 1


def _resolve_dense_width(text: str | None):
    if text is None:
        return DEFAULT_DENSE_WIDTH
    if text.lower() in ("inf", "unlimited"):
        return None
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"--dense-width expects an integer or 'inf', got {text!r}") from None


def _read_input(path: str) -> str:
    """The input's text, decoded as UTF-8 without newline translation (the parsers end lines).

    An undecodable byte is a :class:`ParseError` on the line that holds it.
    """
    if path == "-":
        if not hasattr(sys.stdin, "buffer"):  # a text stream put in its place is decoded already
            return sys.stdin.read()
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte = data[exc.start]
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{byte:02x} is not valid UTF-8", line) from None


def _load_context(path: str, fmt: str):
    text = _read_input(path)
    return parse_fimi(text) if fmt == "fimi" else parse_cxt(text)


def _format_concept(c, with_extents: bool) -> str:
    line = " ".join([*map(str, c.intent), f"({c.support})"])
    if with_extents:
        # The tuple's repr converts ids to digits in C and frees each digit
        # string at once; a join would hold all of them (60,000 for a root).
        ids = repr(tuple(c.extent))[1:-1].replace(",", "")
        line = (line + " / " + ids).rstrip()
    return line


def _cmd_mine(args) -> int:
    ctx, remap = _load_context(args.input, args.format)
    min_support = _resolve_support(args, ctx.num_objects)
    if args.no_pruning and args.algorithm not in ("lcm2", "lcm3"):
        raise _UsageError("--no-pruning applies only to --algorithm lcm2 or lcm3")
    if args.dense_width is not None and args.algorithm != "lcm3":
        raise _UsageError("--dense-width applies only to --algorithm lcm3")
    stats = EnumerationStats()
    started = time.perf_counter()
    concepts = mine_concepts(
        ctx,
        min_support,
        algorithm=args.algorithm,
        pruning=not args.no_pruning,
        dense_width=_resolve_dense_width(args.dense_width),
        sort_attributes=not args.no_attr_sort,
        merge_rows=not args.no_merge_rows,
        with_extents=args.with_extents,
        base_remap=remap,
        stats=stats,
    )
    wall_ms = (time.perf_counter() - started) * 1000.0
    if args.sorted:
        concepts.sort(key=lambda c: c.intent)
    # One line at a time, so that no copy of the whole output is ever held.
    # The file is opened only now, so a failed run leaves none behind.
    lines = (_format_concept(c, args.with_extents) + "\n" for c in concepts)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(lines)
    else:
        with _stdout() as out:
            out.writelines(lines)
    if args.stats:
        record = stats.as_dict()
        record["wall_ms"] = wall_ms
        with open(args.stats, "w", encoding="utf-8") as out:
            out.write(json.dumps(record, indent=2) + "\n")
    total_support = sum(c.support for c in concepts)
    print(f"{len(concepts)} concepts, total support {total_support}", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    ctx = _generate_from_args(args)
    payload = "".join(" ".join(str(a) for a in row) + "\n" for row in ctx.rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(payload)
    else:
        with _stdout() as out:
            out.write(payload)
    return EXIT_OK


def bench(
    ctx: FormalContext,
    remap,
    algorithms: list[str],
    min_support: int,
    repeats: int = 3,
    dense_width=DEFAULT_DENSE_WIDTH,
) -> list[dict]:
    """Run every engine ``repeats`` times; report medians and verify identical outputs.

    Raises DigestMismatchError when two engines disagree on the concept-set
    digest: a correctness regression outranks any timing number.
    """
    import statistics  # here, not at module level, so that mining never loads it

    rows = []
    digests = {}
    for algorithm in algorithms:
        walls = []
        stats = EnumerationStats()
        concepts = []
        for _ in range(max(1, repeats)):
            stats = EnumerationStats()
            started = time.perf_counter()
            concepts = mine_concepts(
                ctx,
                min_support,
                algorithm=algorithm,
                dense_width=dense_width,
                base_remap=remap,
                stats=stats,
            )
            walls.append((time.perf_counter() - started) * 1000.0)
        digests[algorithm] = concept_digest(concepts)
        record = {
            "algorithm": algorithm,
            "wall_ms_median": round(statistics.median(walls), 3),
            "concepts": len(concepts),
        }
        record.update(stats.as_dict())
        rows.append(record)
    if len(set(digests.values())) > 1:
        raise DigestMismatchError(f"engines disagree on the concept set: {digests}")
    return rows


def _cmd_bench(args) -> int:
    if args.input is not None:
        ctx, remap = _load_context(args.input, args.format)
    else:
        if args.objects is None or args.attributes is None or args.density is None:
            raise _UsageError("bench needs an input file or --objects/--attributes/--density")
        ctx = _generate_from_args(args)
        remap = None
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    for a in algorithms:
        if a not in ALGORITHMS:
            raise _UsageError(f"unknown algorithm {a!r} in --algorithms")
    min_support = _resolve_support(args, ctx.num_objects)
    try:
        rows = bench(
            ctx,
            remap,
            algorithms,
            min_support,
            repeats=args.repeats,
            dense_width=_resolve_dense_width(args.dense_width),
        )
    except DigestMismatchError as exc:
        print(f"conceptmine: {exc}", file=sys.stderr)
        return EXIT_DIGEST
    import csv  # here, not at module level, so that mining never loads it

    fields = [
        "algorithm",
        "wall_ms_median",
        "concepts",
        "concepts_emitted",
        "recursive_calls",
        "closure_computations",
        "canonicity_failures",
        "pruning_rule_hits",
        "conditional_dbs_built",
    ]
    with _stdout() as out:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "mine":
            return _cmd_mine(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_bench(args)
    except _UsageError as exc:
        print(f"conceptmine: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"conceptmine: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (CapacityError, ConfigurationError) as exc:
        print(f"conceptmine: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except _ReaderGone:
        return EXIT_PIPE
    except OSError as exc:
        print(f"conceptmine: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
