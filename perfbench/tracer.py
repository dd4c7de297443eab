"""Run `conceptmine` in this process with spans around its public layer functions.

Usage: python3 perfbench/tracer.py SPANS_JSON mine INPUT [mine options...]

The package is imported from the checkout's ``src`` and left unedited: the
tracer rebinds module-level names (``cli.parse_fimi``, ``lcm.frequencies``,
...) to wrappers that record one span per call, so every internal call that
goes through those globals is seen. Spans are kept in memory and written to
SPANS_JSON when the CLI returns, as ``[name, start, end, parent, count_a,
count_b]`` rows where ``parent`` is the index of the enclosing span (-1 at
the top) and the counts are layer-specific work measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conceptmine import cli, fptree, lcm, mining  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0, 0])
        self._stack.append(index)
        return index

    def _close(self, index: int, count_a: int = 0, count_b: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4], span[5] = count_a, count_b
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a spanned call; ``counts(args, result)`` gives the counts."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            index = self._open(name)
            try:
                result = inner(*args, **kwargs)
            except BaseException:
                self._close(index)
                raise
            self._close(index, *(counts(args, result) if counts else ()))
            return result

        setattr(module, attr, spanned)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Replace a generator function so that each resumption is one span."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def spanned(*args, **kwargs):
            gen = inner(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(index)
                    return
                except BaseException:
                    self._close(index)
                    raise
                self._close(index)
                yield item

        setattr(module, attr, spanned)


def _preprocess_counts(args, result):
    return args[0].num_objects, result[0].num_objects


def _frequencies_counts(args, result):
    db = args[0]
    extent = args[1] if len(args) > 1 else None
    return (db.num_rows if extent is None else len(extent)), 0


def _cond_db_counts(args, result):
    return len(args[1]), result.num_rows


def _cond_tree_counts(args, result):
    return sum(len(nodes) for nodes in result.lists.values()), 0


def install(tracer: Tracer) -> None:
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_fimi", "context.parse")
    tracer.wrap(cli, "mine_concepts", "mining.mine_concepts")
    tracer.wrap(mining, "preprocess", "context.preprocess", _preprocess_counts)
    for engine in ("cbo_enumerate", "lcm2_enumerate", "lcm3_enumerate"):
        tracer.wrap_generator(mining, engine, "mining.engine")
    tracer.wrap(lcm, "frequencies", "lcm.frequencies", _frequencies_counts)
    tracer.wrap(lcm, "create_conditional_db", "lcm.cond_db", _cond_db_counts)
    tracer.wrap(lcm, "occurrence_deliver", "lcm.deliver")
    tracer.wrap(fptree, "conditional_fptree", "fptree.cond_tree", _cond_tree_counts)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
