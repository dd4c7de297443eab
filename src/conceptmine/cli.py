"""Command line front end: mine closed itemsets, generate test data, benchmark engines.

Exit codes: 0 success, 1 I/O error, 2 parse error, 3 invalid arguments,
4 capacity exceeded (including inputs too deep for the recursion limit),
5 benchmark digest mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .cbo import EnumerationStats
from .context import FormalContext, parse_cxt, parse_fimi
from .errors import CapacityError, ConfigurationError, DigestMismatchError, ParseError
from .fptree import DEFAULT_DENSE_WIDTH
from .mining import ALGORITHMS, concept_digest, mine_concepts

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_CAPACITY = 4
EXIT_DIGEST = 5


class _UsageError(Exception):
    pass


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
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    incidence = rng.random((num_objects, num_attributes)) < density
    rows = [(np.flatnonzero(line) + 1).tolist() for line in incidence]
    return FormalContext(rows, num_attributes=num_attributes)


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
    mine.add_argument("--sort-objects", action="store_true")
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
        return math.ceil(ratio * total_objects)
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
    if path == "-":
        return sys.stdin.read()
    with open(path, newline="") as f:  # no newline translation: the parsers end lines
        return f.read()


def _load_context(path: str, fmt: str):
    text = _read_input(path)
    return parse_fimi(text) if fmt == "fimi" else parse_cxt(text)


def _format_concept(c, with_extents: bool) -> str:
    parts = [str(a) for a in c.intent]
    parts.append(f"({c.support})")
    line = " ".join(parts)
    if with_extents:
        line = (line + " / " + " ".join(str(x) for x in c.extent)).rstrip()
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
        sort_objects=args.sort_objects,
        merge_rows=not args.no_merge_rows,
        with_extents=args.with_extents,
        base_remap=remap,
        stats=stats,
    )
    wall_ms = (time.perf_counter() - started) * 1000.0
    if args.sorted:
        concepts.sort(key=lambda c: c.intent)
    lines = [_format_concept(c, args.with_extents) for c in concepts]
    payload = "".join(line + "\n" for line in lines)
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)
    if args.stats:
        record = stats.as_dict()
        record["wall_ms"] = wall_ms
        Path(args.stats).write_text(json.dumps(record, indent=2) + "\n")
    total_support = sum(c.support for c in concepts)
    print(f"{len(concepts)} concepts, total support {total_support}", file=sys.stderr)
    return EXIT_OK


def _cmd_gen(args) -> int:
    ctx = generate_context(args.seed, args.objects, args.attributes, args.density)
    payload = "".join(" ".join(str(a) for a in row) + "\n" for row in ctx.rows)
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def bench(
    ctx: FormalContext,
    remap,
    algorithms: list[str],
    min_support: int,
    repeats: int = 3,
    dense_width=DEFAULT_DENSE_WIDTH,
    *,
    miner=None,
) -> list[dict]:
    """Run every engine ``repeats`` times; report medians and verify identical outputs.

    Raises DigestMismatchError when two engines disagree on the concept-set
    digest: a correctness regression outranks any timing number.
    """
    if miner is None:
        miner = mine_concepts
    rows = []
    digests = {}
    for algorithm in algorithms:
        walls = []
        stats = EnumerationStats()
        concepts = []
        for _ in range(max(1, repeats)):
            stats = EnumerationStats()
            started = time.perf_counter()
            concepts = miner(
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
        ctx = generate_context(args.seed, args.objects, args.attributes, args.density)
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
    writer = csv.DictWriter(sys.stdout, fieldnames=fields)
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
    except RecursionError:
        print("conceptmine: input too deep for the recursion limit", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"conceptmine: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
