"""Command line front end: mine closed itemsets, generate test data, benchmark engines.

Exit codes: 0 success, 1 I/O error, 2 parse error, 3 invalid arguments,
4 capacity exceeded, 5 benchmark digest mismatch, 141 (128 + SIGPIPE) the
reader of standard output closed it early.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import ExitStack, contextmanager, suppress

from .context import FormalContext, parse_cxt, parse_fimi
from .derive import EnumerationStats
from .errors import CapacityError, DigestMismatchError, ParseError
from .lcm import DEFAULT_DENSE_WIDTH
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
    if sys.stdout is None:  # the process started with standard output closed
        raise OSError("standard output is closed")
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise _ReaderGone from None


def _say(message: str) -> None:
    """Write one line to standard error; drop it if standard error is closed or broken."""
    if sys.stderr is not None:  # None when the process started with it closed
        with suppress(OSError):
            sys.stderr.write(message + "\n")
            sys.stderr.flush()


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
    # One nonzero pass over the whole table gives the incidences in row-major
    # order; row x's run ends before the first one at or past position
    # (x + 1) * num_attributes.
    flat = np.flatnonzero(incidence)
    ids = (flat % num_attributes + 1).tolist()
    ends = np.searchsorted(flat, np.arange(1, num_objects + 1) * num_attributes).tolist()
    rows = list(map(ids.__getitem__, map(slice, [0, *ends], ends)))
    return FormalContext(rows, num_attributes=num_attributes)


def _number(parse, what: str, low, high=math.inf):
    """An argparse type: ``parse(text)`` if it lies in [low, high], else a usage error."""

    def number(text: str):
        try:
            value = parse(text)
            if low <= value <= high:  # false for NaN as well
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return number


_COUNT = _number(int, "an integer >= 0", 0)
_REPEATS = _number(int, "an integer >= 1", 1)
_FRACTION = _number(float, "a number in [0, 1]", 0.0, 1.0)
_WIDTH = _number(lambda t: math.inf if t.lower() == "inf" else int(t), "an integer >= 0 or inf", 0)

# Each engine flag by the engine keyword it sets, which is also its ``args``
# name: the flag, and the engines that take the keyword.  A flag not given is
# None and passes nothing, so the engine's own default holds.
_ENGINE_FLAGS = {
    "pruning": ("--no-pruning", ("lcm2", "lcm3")),
    "dense_width": ("--dense-width", ("lcm3",)),
}


def _engine_options(args, algorithms: list[str]) -> dict:
    """Keywords of the engine flags given; refuse a flag that no engine of ``algorithms`` takes."""
    options = {}
    for keyword, (flag, engines) in _ENGINE_FLAGS.items():
        value = getattr(args, keyword, None)  # bench has no --no-pruning
        if value is not None:
            if not any(a in engines for a in algorithms):
                raise _UsageError(f"{flag} applies only to {' and '.join(engines)}")
            options[keyword] = value
    return options


def _input_arguments(command: _Parser) -> None:
    """The input and support options that ``mine`` and ``bench`` share."""
    command.add_argument("input", help="input file, or - for standard input")
    command.add_argument("--format", choices=("fimi", "cxt"), default="fimi")
    support = command.add_mutually_exclusive_group()
    support.add_argument("--min-support", type=_COUNT, help="absolute weighted count")
    support.add_argument(
        "--min-support-ratio", type=_FRACTION, help="fraction of the object count"
    )


def _mine_arguments(mine: _Parser) -> None:
    _input_arguments(mine)
    mine.add_argument("--algorithm", choices=ALGORITHMS, default="lcm2")
    mine.add_argument(
        "--no-pruning",
        dest="pruning",
        action="store_false",
        default=None,
        help="lcm2 and lcm3 only: disable rule pruning",
    )
    mine.add_argument(
        "--dense-width",
        type=_WIDTH,
        help="lcm3 only: max frequent attributes of a node on FP-trees (integer or 'inf')",
    )
    mine.add_argument("--with-extents", action="store_true", help="append object ids per itemset")
    mine.add_argument("--sorted", action="store_true", help="sort output lines by itemset")
    mine.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    mine.add_argument("--stats", default=None, help="write run statistics as JSON to this file")


def _gen_arguments(gen: _Parser) -> None:
    gen.add_argument("--seed", type=_COUNT, required=True)
    gen.add_argument("--objects", type=_COUNT, required=True)
    gen.add_argument("--attributes", type=_COUNT, required=True)
    gen.add_argument("--density", type=_FRACTION, required=True)
    gen.add_argument("--output", "-o", default=None)


def _bench_arguments(bench: _Parser) -> None:
    _input_arguments(bench)
    bench.add_argument("--algorithms", default="cbo,lcm2", help="comma-separated engine list")
    bench.add_argument("--repeats", type=_REPEATS, default=3)
    bench.add_argument("--dense-width", type=_WIDTH)


def _build_parser(command: str | None) -> _Parser:
    """The parser for a command line that starts with ``command``.

    A known command gets its own subparser only; for anything else every
    command is listed, with its summary but no arguments, for the top-level
    help and the usage error.
    """
    parser = _Parser(prog="conceptmine", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    if command in _COMMANDS:
        summary, add_arguments, _ = _COMMANDS[command]
        add_arguments(sub.add_parser(command, help=summary))
    else:
        for name, (summary, *_) in _COMMANDS.items():
            sub.add_parser(name, help=summary)
    return parser


def _resolve_support(args, total_objects: int) -> int:
    """The absolute support that the support flags give for ``total_objects`` objects."""
    if args.min_support_ratio is not None:
        # The ratio as written in decimal, not its binary float: 0.07 of 100
        # objects is 7, where the float product is 7.000000000000001.  Integer
        # arithmetic on repr's digits, because fractions would load decimal.
        mantissa, _, exponent = repr(args.min_support_ratio).partition("e")
        whole, _, decimals = mantissa.partition(".")
        scale = 10 ** (len(decimals) - int(exponent or 0))
        return -(-int(whole + decimals) * total_objects // scale)
    return 1 if args.min_support is None else args.min_support


def _read_input(path: str) -> str:
    """The input's text, decoded as UTF-8 without newline translation (the parsers end lines).

    An undecodable byte is a :class:`ParseError` on the line that holds it.
    """
    if path == "-":
        if sys.stdin is None:  # the process started with standard input closed
            raise OSError("standard input is closed")
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


def _load(args):
    """``(ctx, remap, min_support)`` of ``mine``'s or ``bench``'s input and support options."""
    text = _read_input(args.input)
    ctx, remap = parse_fimi(text) if args.format == "fimi" else parse_cxt(text)
    return ctx, remap, _resolve_support(args, ctx.num_objects)


def _format_concept(c, with_extents: bool) -> str:
    line = " ".join([*map(str, c.intent), f"({c.support})"])
    if with_extents:
        # One format pass in C: no string per id is kept (a join would hold
        # 60,000 of them for a root), and an empty extent leaves "... (0) /".
        ids = tuple(c.extent)
        line += " /" + (" %d" * len(ids)) % ids
    return line


def _create(path: str, mode: str, created: list[str]):
    """``open(path, mode)``, and ``path`` appended to ``created`` if the call made the file."""
    new = not os.path.lexists(path)
    f = open(path, mode, encoding="utf-8")
    if new:
        created.append(path)
    return f


def _one_regular_file(stats: str, output: str) -> bool:
    """Whether the stats would replace the concepts: both paths reach one regular file.

    Paths that exist are compared as files, so hard links count; an output
    that does not exist yet is compared by its resolved path.  Only a
    regular file counts: /dev/stdout given twice, say, reaches a pipe or a
    terminal.
    """
    if os.path.exists(output):
        return os.path.isfile(output) and os.path.exists(stats) and os.path.samefile(stats, output)
    return os.path.realpath(stats) == os.path.realpath(output)


def _cmd_mine(args) -> int:
    options = _engine_options(args, [args.algorithm])
    # Truthiness: an empty path names no file, and it fails when opened (exit 1).
    if args.stats and args.output and _one_regular_file(args.stats, args.output):
        raise _UsageError(f"--stats and --output name the same file: {args.output}")
    ctx, remap, min_support = _load(args)
    stats = EnumerationStats()
    with_extents = args.with_extents
    created: list[str] = []  # the files this run made, removed if it fails
    try:
        with ExitStack() as files:
            out = None
            count = total_support = 0

            def start():
                # At the first concept, so a run that fails before it leaves no
                # file.  The stats path is checked first, without truncating it.
                if args.stats is not None:
                    _create(args.stats, "a", created).close()
                if args.output is not None:
                    return files.enter_context(_create(args.output, "w", created))
                return files.enter_context(_stdout())

            def write(c) -> None:
                nonlocal out, count, total_support
                if out is None:
                    out = start()
                out.write(_format_concept(c, with_extents) + "\n")
                count += 1
                total_support += c.support

            started = time.perf_counter()
            # Unsorted, each concept is written as the engine emits it and none is kept.
            concepts = mine_concepts(
                ctx,
                min_support,
                algorithm=args.algorithm,
                with_extents=with_extents,
                base_remap=remap,
                stats=stats,
                sink=None if args.sorted else write,
                **options,
            )
            if args.sorted:
                concepts.sort(key=lambda c: c.intent)
                for c in concepts:
                    write(c)
            if out is None:  # no concept: the output is still made, empty
                start()
            wall_ms = (time.perf_counter() - started) * 1000.0
        if args.stats is not None:
            import json  # here, not at module level: only --stats needs it

            record = stats.as_dict()
            record["wall_ms"] = wall_ms
            with open(args.stats, "w", encoding="utf-8") as f:
                f.write(json.dumps(record, indent=2) + "\n")
    except BaseException:
        for path in created:
            os.remove(path)
        raise
    _say(f"{count} concepts, total support {total_support}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    ctx = generate_context(args.seed, args.objects, args.attributes, args.density)
    lines = (" ".join(map(str, row)) + "\n" for row in ctx.rows)
    with open(args.output, "w", encoding="utf-8") if args.output is not None else _stdout() as out:
        out.writelines(lines)
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

    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    rows = []
    digests = {}
    for algorithm in algorithms:
        options = {"dense_width": dense_width} if algorithm == "lcm3" else {}
        walls = []
        for _ in range(repeats):
            stats = EnumerationStats()
            started = time.perf_counter()
            concepts = mine_concepts(
                ctx, min_support, algorithm=algorithm, base_remap=remap, stats=stats, **options
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
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise _UsageError(f"--algorithms names no engine: {args.algorithms!r}")
    for a in algorithms:
        if a not in ALGORITHMS:
            raise _UsageError(f"unknown algorithm {a!r} in --algorithms")
    options = _engine_options(args, algorithms)
    ctx, remap, min_support = _load(args)
    rows = bench(ctx, remap, algorithms, min_support, repeats=args.repeats, **options)
    import csv  # here, not at module level, so that mining never loads it

    fields = ["algorithm", "wall_ms_median", "concepts", *EnumerationStats.__slots__]
    with _stdout() as out:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return EXIT_OK


_COMMANDS = {  # each command's summary, the function that adds its arguments, its handler
    "mine": ("enumerate frequent closed itemsets of a dataset", _mine_arguments, _cmd_mine),
    "gen": ("generate a random context in FIMI format", _gen_arguments, _cmd_gen),
    "bench": ("time engines on one dataset and compare outputs", _bench_arguments, _cmd_bench),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except _UsageError as exc:
        _say(f"conceptmine: {exc}")
        return EXIT_USAGE
    except ParseError as exc:
        _say(f"conceptmine: parse error: {exc}")
        return EXIT_PARSE
    except (CapacityError, MemoryError) as exc:
        _say(f"conceptmine: {str(exc) or 'out of memory'}")
        return EXIT_CAPACITY
    except DigestMismatchError as exc:
        _say(f"conceptmine: {exc}")
        return EXIT_DIGEST
    except _ReaderGone:
        return EXIT_PIPE
    except OSError as exc:
        _say(f"conceptmine: {exc}")
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
