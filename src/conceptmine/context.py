"""Formal contexts: the weighted row data model, input parsers, and preprocessing.

A context is a binary relation between objects (rows) and attributes (integer
ids 1..n).  Rows are stored as strictly ascending arraylists of attribute ids;
each row carries a positive integer weight counting how many original objects
it stands for.  The vertical view - one row bitset per attribute column plus
the weight bit-planes - is built on first use and gives the exact weighted
size of any row set by popcounts.  The columns are built in one pass over
the rows and are the only column form the context keeps.  Contexts are
treated as immutable after construction, so any number of enumeration runs
may share one.

Ingest costs the distinct rows, not the objects.  The FIMI parser splits
its text a bounded piece at a time, so per input line it keeps only the
reference to the line's row: no string of the line outlives its piece.
Per distinct line it keeps the line's text and its count; it parses each
distinct line once, converts each distinct token once, and makes each
distinct id set one list that all its lines share as their row; the
cardinalities come from the line counts.  Preprocessing maps each distinct
row once and, when it merges them, fills the groups in one pass over the
objects and turns each group into the tuple ``ObjectMerge`` keeps, so each
object id is held once; as it keeps every object with its weight, it reads
the cardinalities off its input.  Only the constructor, for input from
outside, converts ids to int, checks and counts rows, for
``build_complete_fptree`` too; the package builds its own contexts
unchecked through ``_of_normal_rows``, and only ``validate()`` recounts a
built context.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, filterfalse, islice

from .bits import mask_of
from .errors import ParseError


class FormalContext:
    """Weighted object/attribute incidence table.

    Invariants: every row is strictly ascending with int ids in 1..num_attributes,
    every weight is an int >= 1, and ``attr_cardinality[y]`` is the weighted
    number of rows containing ``y`` (index 0 is unused padding).  Equal rows
    share one list object, however they were written, so rows must not be
    modified in place, and ``distinct_rows`` holds each row object once, in
    order of first occurrence (derived on first use unless the builder set it).
    """

    def __init__(
        self,
        rows: Iterable[Iterable[int]],
        weights: Sequence[int] | None = None,
        num_attributes: int | None = None,
        object_names: Sequence[str] | None = None,
        attr_names: Sequence[str] | None = None,
    ):
        """Check the rows, weights and attribute count given, and sum the columns.

        Each id becomes an int (numpy's too) before the lookup, where 1.0
        would equal 1.  A row is interned by its ascending ids alone, so equal
        rows share one list however they are written, and each distinct row
        is checked and counted once.
        """
        normal: dict[tuple[int, ...], list[int]] = {}  # ascending ids -> their row
        shared: list[list[int]] = []
        for row in rows:
            try:
                ids = tuple(sorted(set(map(operator.index, row))))
            except TypeError:
                raise ValueError(f"attribute ids must be integers, got {row!r}") from None
            same = normal.get(ids)
            if same is None:
                same = normal[ids] = list(ids)
            shared.append(same)
        distinct = list(normal.values())
        if weights is None:
            weights = [1] * len(shared)
        else:
            # Weights index the weight bit-planes: integers only, numpy's stored as int.
            try:
                weights = list(map(operator.index, weights))
            except TypeError:
                raise ValueError("row weights must be integers") from None
            if len(weights) != len(shared):
                raise ValueError("weights and rows differ in length")
            if weights and min(weights) < 1:
                raise ValueError("row weights must be positive")
        highest = max((row[-1] for row in distinct if row), default=0)
        try:
            num_attributes = highest if num_attributes is None else operator.index(num_attributes)
        except TypeError:
            raise ValueError(f"num_attributes must be an integer, got {num_attributes!r}") from None
        if num_attributes < 0:
            raise ValueError(f"num_attributes must be non-negative, got {num_attributes}")
        if highest > num_attributes:
            raise ValueError(f"attribute id {highest} exceeds declared count {num_attributes}")
        lowest = min((row[0] for row in distinct if row), default=1)
        if lowest < 1:
            raise ValueError(f"attribute id {lowest} out of range (ids start at 1)")
        summed: dict[int, int] = {}  # id of a distinct row -> its total weight
        for row, w in zip(shared, weights):
            summed[id(row)] = summed.get(id(row), 0) + w
        card = [0] * (num_attributes + 1)
        for row in distinct:
            w = summed[id(row)]
            for a in row:
                card[a] += w
        self.rows: list[list[int]] = shared
        self.weights: list[int] = weights
        self.num_attributes = num_attributes
        self.attr_cardinality = card
        self.distinct_rows = distinct
        self.object_names = list(object_names) if object_names is not None else None
        self.attr_names = list(attr_names) if attr_names is not None else None

    @classmethod
    def _of_normal_rows(
        cls, rows: list[list[int]], weights: list[int], attr_cardinality: list[int]
    ) -> "FormalContext":
        """A context that keeps its arguments as they are, without a copy, check or count.

        The caller vouches for every invariant: the rows strictly ascending
        with ids in 1..len(attr_cardinality)-1, equal rows one shared list,
        the weights positive ints, and ``attr_cardinality`` their weighted
        column counts.
        """
        ctx = cls.__new__(cls)
        ctx.rows = rows
        ctx.weights = weights
        ctx.num_attributes = len(attr_cardinality) - 1
        ctx.attr_cardinality = attr_cardinality
        ctx.object_names = ctx.attr_names = None
        return ctx

    @property
    def num_objects(self) -> int:
        return len(self.rows)

    @cached_property
    def distinct_rows(self) -> list[list[int]]:
        """Each row object of ``rows`` once, in order of first occurrence."""
        return list(dict(zip(map(id, self.rows), self.rows)).values())

    @cached_property
    def total_weight(self) -> int:
        return sum(self.weights)

    @cached_property
    def row_masks(self) -> list[int]:
        """Rows as bitmasks, attribute k at bit k-1."""
        return [mask_of(row) for row in self.rows]

    @cached_property
    def columns(self) -> list[int]:
        """For each attribute, its rows as a bitset (row x at bit x).

        One pass over the rows sets each row's bit in one byte array per
        attribute; index 0 is unused padding.
        """
        size = (self.num_objects + 7) >> 3
        bufs = [bytearray(size) for _ in range(self.num_attributes + 1)]
        for x, row in enumerate(self.rows):
            at, bit = x >> 3, 1 << (x & 7)
            for a in row:
                bufs[a][at] |= bit
        return [int.from_bytes(buf, "little") for buf in bufs]

    @cached_property
    def weight_planes(self) -> list[int]:
        """Row bitsets by weight bit: plane k holds the rows whose weight has bit k set."""
        top = max(self.weights, default=0).bit_length()
        return [
            _row_bitset((x for x, w in enumerate(self.weights) if w >> k & 1), self.num_objects)
            for k in range(top)
        ]

    def weight_of(self, rows: int) -> int:
        """Exact weighted size of a row bitset: popcounts over the weight bit-planes."""
        return self.column_weights(rows, ())[1]

    def column_weights(self, rows: int, attrs: Sequence[int]) -> tuple[list[int], int]:
        """Weighted size of ``rows`` within each attribute's column, and of ``rows`` itself.

        Plane k of the weights contributes the popcount of its rows ANDed with
        a column, shifted left by k.  When every weight is 1 there is one
        plane, and each attribute costs one AND and one popcount.  Bits of
        ``rows`` beyond the last object count nothing.
        """
        planes = self.weight_planes
        columns = self.columns
        if len(planes) == 1:  # every weight is 1
            part = rows & planes[0]
            return [(part & columns[a]).bit_count() for a in attrs], part.bit_count()
        cols = [columns[a] for a in attrs]
        counts = [0] * len(cols)
        weight = 0
        for k, plane in enumerate(planes):
            part = rows & plane  # the rows whose weight has bit k set
            if part:
                weight += part.bit_count() << k
                counts = [n + ((part & col).bit_count() << k) for n, col in zip(counts, cols)]
        return counts, weight

    def validate(self) -> None:
        """Recheck every structural invariant by rescanning the rows."""
        assert len(self.weights) == len(self.rows)
        card = [0] * (self.num_attributes + 1)
        for row, w in zip(self.rows, self.weights):
            assert w >= 1
            assert all(b > a for a, b in zip(row, row[1:])), "row not strictly ascending"
            assert all(1 <= a <= self.num_attributes for a in row), "attribute id out of range"
            for a in row:
                card[a] += w
        assert card == self.attr_cardinality, "stored cardinalities disagree with rescan"
        assert list(map(id, self.distinct_rows)) == list(dict.fromkeys(map(id, self.rows)))
        assert len(self.distinct_rows) == len(set(map(tuple, self.rows))), "equal rows unshared"

    def __repr__(self) -> str:  # pragma: no cover
        return f"FormalContext({self.num_objects} objects, {self.num_attributes} attributes)"


def _row_bitset(rows: Iterable[int], num_rows: int) -> int:
    buf = bytearray((num_rows + 7) >> 3)
    for x in rows:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


class Frozen:
    """Base of the immutable value classes, whose fields are their ``__slots__``.

    Instances compare, hash, print and pickle by ``_values()`` (every field,
    unless a class derives some), and equal only instances of the same class;
    assigning or deleting a field raises ``AttributeError``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):  # pickle and copy would restore the fields by assignment
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AttributeRemap(Frozen):
    """Bijection between dense working attribute ids and the caller's original ids.

    ``new_to_old[k-1]`` is the original id of working attribute k.  The
    constructor derives its partial inverse ``old_to_new`` (an original id is
    absent when the attribute was removed).
    """

    __slots__ = ("new_to_old", "old_to_new")

    def __init__(self, new_to_old: tuple[int, ...]):
        object.__setattr__(self, "new_to_old", new_to_old)
        object.__setattr__(self, "old_to_new", {old: new for new, old in enumerate(new_to_old, 1)})

    def _values(self) -> tuple:  # the inverse is derived: not compared, hashed or restored
        return (self.new_to_old,)

    def to_original(self, ids: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.new_to_old[a - 1] for a in ids))

    def original_of(self, new_id: int) -> int:
        return self.new_to_old[new_id - 1]


def compose_remaps(first: AttributeRemap, second: AttributeRemap) -> AttributeRemap:
    """Remap for applying ``first`` then ``second`` (ids of second map back through first)."""
    return AttributeRemap(tuple(map(first.original_of, second.new_to_old)))


class ObjectMerge(Frozen):
    """For each retained row, the original object indices merged into it."""

    __slots__ = ("groups",)

    def __init__(self, groups: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "groups", groups)

    def to_original(self, row_indices: Iterable[int]) -> tuple[int, ...]:
        # Each group is ascending, so timsort merges them as runs.
        return tuple(sorted(chain.from_iterable(map(self.groups.__getitem__, row_indices))))


def _decimal(text: str) -> int | None:
    """``text`` read as ASCII decimal digits, else None."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            pass
    return None


def _item_id(token: str) -> int:
    item = _decimal(token)
    if item is not None:
        return item
    if token[0] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise ParseError(f"negative item id {token}")
    raise ParseError(f"expected an integer item id, got {token!r}")


# Characters split into lines at a time.  A piece's line strings are the only
# line strings alive beyond the distinct lines, so they bound what parsing
# holds per input line; a piece costs a few Python steps plus one per new
# distinct line, nothing next to the splitting and counting of its lines.
# Parsing the 60,000 short lines of the sessions benchmark peaks at 1.8 MB
# (tracemalloc) at this size, at 1.7 MB and about the same speed at 4,096,
# and at 4.0 MB and no faster at 262,144.
_PIECE = 1 << 16


def _pieces(text: str) -> Iterator[list[str]]:
    """The lines of ``text`` a piece at a time, split at ``\n`` only, each ``\r`` kept.

    Unlike ``str.splitlines``, form feeds, vertical tabs, the Unicode line and
    paragraph separators and the like stay inside their line.  A final
    newline does not start an extra empty line.  A piece holds whole lines:
    it runs from where the last one stopped to the first ``\n`` at least
    ``_PIECE`` characters on, or to the end.
    """
    pos, size = 0, len(text)
    while pos < size:
        end = text.find("\n", pos + _PIECE)
        if end < 0:  # the last piece, whose final newline ends no empty line
            end = size - 1 if text[-1] == "\n" else size
        yield text[pos:end].split("\n")
        pos = end + 1


def _item_ids(line: str, id_of: dict[str, int]) -> tuple[int, ...]:
    """The ascending distinct ids of one FIMI line.

    Each token not yet in ``id_of`` is converted there.  Tokens are converted
    in line order: an error names the line's first bad token.
    """
    tokens = line.split()  # a trailing "\r" is whitespace to split()
    try:
        ids = set(map(id_of.__getitem__, tokens))
    except KeyError:  # the line has new tokens
        for token in filterfalse(id_of.__contains__, tokens):
            id_of[token] = _item_id(token)
        ids = set(map(id_of.__getitem__, tokens))
    return tuple(sorted(ids))


def parse_fimi(source: str) -> tuple[FormalContext, AttributeRemap]:
    """Parse a FIMI transaction file: one whitespace-separated id list per line.

    Lines end at ``\n`` (a trailing ``\r`` is dropped) and item ids are ASCII
    decimal numbers.  Blank lines are empty rows.  Duplicate ids within a line
    are collapsed.  Observed ids are renumbered densely (ascending) to 1..k;
    the remap records the original ids.  The source is decoded text; the
    command line decodes its input as UTF-8.

    The source is split a bounded piece at a time, so per input line only
    the reference to its row is kept: no string of the line outlives its
    piece.  Per distinct line its text and its count are kept.  Each
    distinct line is parsed once, each distinct token converted once, and
    each distinct id set renumbered once into the one list that every line
    of that set shares as its row; the cardinalities come from the line
    counts.
    """
    id_of: dict[str, int] = {}  # every token seen -> its id
    tallies: dict[tuple[int, ...], list[int]] = {}  # ascending original ids -> their row
    row_of: dict[str, list[int]] = {}  # distinct line -> its row
    counts: Counter[str] = Counter()  # distinct line -> its lines, in order of its first
    rows: list[list[int]] = []
    for lines in _pieces(source):
        seen = len(counts)
        counts.update(lines)
        for line in islice(counts, seen, None):  # the piece's new distinct lines
            try:
                raw = _item_ids(line, id_of)
            except ParseError as exc:
                raise ParseError(str(exc), len(rows) + lines.index(line) + 1) from None
            row = tallies.get(raw)
            if row is None:
                # Sized exactly, where a list built by appends is over-allocated;
                # renumbered in place once every id is known.
                row = tallies[raw] = list(raw)
            row_of[line] = row
        rows.extend(map(row_of.__getitem__, lines))
    remap = AttributeRemap(tuple(sorted(set(id_of.values()))))
    for row in tallies.values():
        row[:] = map(remap.old_to_new.__getitem__, row)
    card = [0] * (len(remap.new_to_old) + 1)
    for line, count in counts.items():
        for a in row_of[line]:
            card[a] += count
    ctx = FormalContext._of_normal_rows(rows, [1] * len(rows), card)
    ctx.distinct_rows = list(tallies.values())
    return ctx, remap


def parse_cxt(source: str) -> tuple[FormalContext, AttributeRemap]:
    """Parse a Burmeister .cxt file.

    Layout: "B" header, an optional name line, object count, attribute count,
    a blank line, object names, attribute names, then one '.'/'X' line per
    object; only blank lines may follow the last.  Counts are ASCII decimal
    digits; any other line right after the header is the name line, and so
    is a count there when two more counts follow it.  Names are kept on the
    returned context.  The source is decoded text, as for :func:`parse_fimi`.
    """
    lines = [line.removesuffix("\r") for piece in _pieces(source) for line in piece]
    pos = 0

    def take(what: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of input, expected {what}", len(lines) + 1)
        line = lines[pos]
        pos += 1
        return line

    header = take("header 'B'").strip()
    if header != "B":
        raise ParseError(f"expected header 'B', got {header!r}", pos)
    # The optional name line is present when the next line is no count, or
    # when three counts follow: without a name the third is the blank line.
    ahead = [_decimal(line.strip()) for line in lines[pos : pos + 3]]
    if ahead and (ahead[0] is None or len(ahead) == 3 and None not in ahead):
        pos += 1
    counts_line = take("object count")
    num_objects = _decimal(counts_line.strip())
    if num_objects is None:
        raise ParseError(f"expected object count, got {counts_line!r}", pos)
    attr_line = take("attribute count")
    num_attributes = _decimal(attr_line.strip())
    if num_attributes is None:
        raise ParseError(f"expected attribute count, got {attr_line!r}", pos)
    blank = take("blank separator line")
    if blank.strip():
        raise ParseError(f"expected a blank line before the name block, got {blank!r}", pos)
    object_names = [take("object name") for _ in range(num_objects)]
    attr_names = [take("attribute name") for _ in range(num_attributes)]
    rows: list[list[int]] = []
    for i in range(num_objects):
        line = take("incidence row").strip()
        if len(line) != num_attributes:
            raise ParseError(
                f"incidence row has {len(line)} entries, expected {num_attributes}", pos
            )
        row = []
        for j, ch in enumerate(line, start=1):
            if ch == "X":
                row.append(j)
            elif ch != ".":
                raise ParseError(f"illegal incidence character {ch!r}", pos)
        rows.append(row)
    for n, line in enumerate(lines[pos:], pos + 1):
        if line.strip():
            raise ParseError(f"unexpected line after the last incidence row: {line!r}", n)
    ctx = FormalContext(
        rows, num_attributes=num_attributes, object_names=object_names, attr_names=attr_names
    )
    return ctx, AttributeRemap(tuple(range(1, num_attributes + 1)))


def preprocess(
    ctx: FormalContext, min_support: int = 0
) -> tuple[FormalContext, AttributeRemap, ObjectMerge]:
    """Clean, sort, and weight a context before enumeration.

    Attributes with weighted cardinality below ``min_support`` are removed
    (at 0 none is: the empty ones stay, and sort last), the rest renumbered
    1..n in descending cardinality order (ties by ascending original id), the
    one order for every engine: ``cbo`` walks it mirrored, as ``lcm3``'s
    FP-trees do, and no engine measured faster in input order.  Every object
    is kept: a row that is empty, from the start or through attribute removal,
    maps to the empty row, so the total weight is conserved and the merge
    groups partition the objects.  Identical rows merge with summed weights
    when that leaves at most half as many rows as objects; otherwise each
    object keeps its row and weight.  Rows are ordered by descending weight,
    and the returned remap/merge translate results back to the input ids.
    The cardinalities are the input's, read through the remap: no recount.
    """
    if not min_support >= 0:  # false for NaN as well
        raise ValueError("min_support must be non-negative")
    retained = [
        a for a in range(1, ctx.num_attributes + 1) if ctx.attr_cardinality[a] >= min_support
    ]
    retained.sort(key=lambda a: (-ctx.attr_cardinality[a], a))
    remap = AttributeRemap(tuple(retained))
    old_to_new = remap.old_to_new

    # Each distinct row is mapped once, and gets the group of its mapped row.
    # ``ctx`` holds every row, so rows are keyed by id.  A removed attribute
    # maps to None and new ids start at 1, so ``filter(None, ...)`` drops
    # exactly the removed ones, in C.
    group_of: dict[int, int] = {}  # id of a row of ctx -> its group
    mapped_group: dict[tuple[int, ...], int] = {}
    rows: list[list[int]] = []
    for row in ctx.distinct_rows:
        mapped = tuple(sorted(filter(None, map(old_to_new.get, row))))
        at = group_of[id(row)] = mapped_group.setdefault(mapped, len(rows))
        if at == len(rows):
            rows.append(list(mapped))
    # Merging saves rows, but a merged weight w adds bit-planes up to its top
    # bit to every weighted popcount: it pays only when it halves the rows.
    merged = 2 * len(rows) <= ctx.num_objects
    if merged:  # one pass over the objects fills the groups
        groups: list = [[] for _ in rows]  # lists while filled, then tuples
        for x, at in enumerate(map(group_of.__getitem__, map(id, ctx.rows))):
            groups[at].append(x)
        # Each group becomes its tuple, and its list goes as it does: the
        # object ids are held once, not in the lists and the tuples at once.
        for at, group in enumerate(groups):
            groups[at] = tuple(group)
        if ctx.total_weight == ctx.num_objects:  # every weight is 1
            weights = list(map(len, groups))
        else:
            weights = [sum(map(ctx.weights.__getitem__, group)) for group in groups]
    else:  # one row per object, each its own group
        rows = list(map(rows.__getitem__, map(group_of.__getitem__, map(id, ctx.rows))))
        weights = ctx.weights

    # Heaviest rows first (stably): the weight bit-planes above plane 0 then
    # span only the low row bits, which keeps weighted popcounts cheap.
    order = sorted(range(len(rows)), key=weights.__getitem__, reverse=True)
    rows = list(map(rows.__getitem__, order))
    weights = list(map(weights.__getitem__, order))
    # Every object is kept with its weight, so each retained attribute keeps its cardinality.
    card = [0, *(ctx.attr_cardinality[a] for a in retained)]
    new_ctx = FormalContext._of_normal_rows(rows, weights, card)
    merge = ObjectMerge(tuple(map(groups.__getitem__, order)) if merged else tuple(zip(order)))
    return new_ctx, remap, merge
