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

Ingest costs the distinct rows, not the objects: the FIMI parser counts its
lines once, parses each distinct line once, and makes each distinct id set
one list that all its lines share as their row; the cardinalities come from
the line multiplicities.  Preprocessing maps each distinct row once and
fills the merged groups in one pass over the objects.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain

from .bits import mask_of
from .errors import ParseError


class FormalContext:
    """Weighted object/attribute incidence table.

    Invariants: every row is strictly ascending with ids in 1..num_attributes,
    every weight is an int >= 1, and ``attr_cardinality[y]`` is the weighted
    number of rows containing ``y`` (index 0 is unused padding).  Equal rows
    share one list object, so rows must not be modified in place, and
    ``distinct_rows`` holds each row object once, in order of first occurrence.
    """

    def __init__(
        self,
        rows: Iterable[Iterable[int]],
        weights: Sequence[int] | None = None,
        num_attributes: int | None = None,
        object_names: Sequence[str] | None = None,
        attr_names: Sequence[str] | None = None,
    ):
        # Equal input rows normalise to one shared list, so the id checks and the
        # cardinality count run once per distinct row.
        distinct: dict[tuple, list[int]] = {}
        shared: list[list[int]] = []
        for row in rows:
            key = tuple(row)
            normal = distinct.get(key)
            if normal is None:
                normal = distinct[key] = sorted(set(key))
            shared.append(normal)
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
        summed: dict[int, int] = {}  # id of a row in ``distinct`` -> its total weight
        for row, w in zip(shared, weights):
            summed[id(row)] = summed.get(id(row), 0) + w
        unique = list(distinct.values())
        totals = [summed[id(row)] for row in unique]
        self._store(shared, weights, unique, totals, num_attributes, object_names, attr_names)

    @classmethod
    def _of_normal_rows(
        cls,
        rows: list[list[int]],
        weights: list[int],
        distinct_rows: list[list[int]],
        distinct_weights: Iterable[int],
        num_attributes: int,
    ) -> "FormalContext":
        """A context that keeps ``rows`` and ``weights`` as they are, without a copy.

        The rows must be normal already: strictly ascending, equal rows one
        shared list, and ``distinct_rows`` each row object once, in order of
        first occurrence, with the total weight of its objects aligned in
        ``distinct_weights``; the weights must be positive ints.  The checks
        and the cardinality count then need no pass over the objects.
        """
        ctx = cls.__new__(cls)
        ctx._store(rows, weights, distinct_rows, distinct_weights, num_attributes, None, None)
        return ctx

    def _store(
        self,
        rows: list[list[int]],
        weights: list[int],
        distinct_rows: list[list[int]],
        distinct_weights: Iterable[int],
        num_attributes: int | None,
        object_names: Sequence[str] | None,
        attr_names: Sequence[str] | None,
    ) -> None:
        """Check the distinct rows, count the cardinalities from them, and set every field."""
        highest = max((row[-1] for row in distinct_rows if row), default=0)
        if num_attributes is None:
            num_attributes = highest
        elif highest > num_attributes:
            raise ValueError(f"attribute id {highest} exceeds declared count {num_attributes}")
        lowest = min((row[0] for row in distinct_rows if row), default=1)
        if lowest < 1:
            raise ValueError(f"attribute id {lowest} out of range (ids start at 1)")
        card = [0] * (num_attributes + 1)
        for row, w in zip(distinct_rows, distinct_weights):
            for a in row:
                card[a] += w
        self.rows: list[list[int]] = rows
        self.weights: list[int] = weights
        self.distinct_rows: list[list[int]] = distinct_rows
        self.num_attributes = num_attributes
        self.attr_cardinality = card
        self.object_names = list(object_names) if object_names is not None else None
        self.attr_names = list(attr_names) if attr_names is not None else None

    @property
    def num_objects(self) -> int:
        return len(self.rows)

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
        a column, shifted left by k.
        """
        columns = self.columns
        cols = [columns[a] for a in attrs]
        counts = [0] * len(cols)
        weight = 0
        for k, plane in enumerate(self.weight_planes):
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"FormalContext({self.num_objects} objects, {self.num_attributes} attributes)"


def _row_bitset(rows: Iterable[int], num_rows: int) -> int:
    buf = bytearray((num_rows + 7) >> 3)
    for x in rows:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


class Frozen:
    """Base of the immutable value classes, whose fields are their ``__slots__``.

    Instances compare and hash by their fields, and equal only instances of
    the same class; assigning or deleting a field raises ``AttributeError``.
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

    ``new_to_old[k-1]`` is the original id of working attribute k; ``old_to_new``
    is the partial inverse (an original id is absent when the attribute was
    removed).
    """

    __slots__ = ("new_to_old", "old_to_new")

    def __init__(self, new_to_old: tuple[int, ...], old_to_new: dict[int, int]):
        object.__setattr__(self, "new_to_old", new_to_old)
        object.__setattr__(self, "old_to_new", old_to_new)

    @classmethod
    def identity(cls, n: int) -> "AttributeRemap":
        ids = tuple(range(1, n + 1))
        return cls(ids, {a: a for a in ids})

    def to_original(self, ids: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(self.new_to_old[a - 1] for a in ids))

    def original_of(self, new_id: int) -> int:
        return self.new_to_old[new_id - 1]


def compose_remaps(first: AttributeRemap, second: AttributeRemap) -> AttributeRemap:
    """Remap for applying ``first`` then ``second`` (ids of second map back through first)."""
    new_to_old = tuple(first.new_to_old[mid - 1] for mid in second.new_to_old)
    old_to_new = {}
    for old, mid in first.old_to_new.items():
        final = second.old_to_new.get(mid)
        if final is not None:
            old_to_new[old] = final
    return AttributeRemap(new_to_old, old_to_new)


class ObjectMerge(Frozen):
    """For each retained row, the original object indices merged into it."""

    __slots__ = ("groups",)

    def __init__(self, groups: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "groups", groups)

    def to_original(self, row_indices: Iterable[int]) -> tuple[int, ...]:
        # Each group is ascending, so timsort merges them as runs.
        return tuple(sorted(chain.from_iterable(map(self.groups.__getitem__, row_indices))))


def _lines(text: str) -> list[str]:
    """Split input into lines at ``\n`` only, dropping one trailing ``\r`` per line.

    Unlike ``str.splitlines``, form feeds, vertical tabs, the Unicode line and
    paragraph separators and the like stay inside their line.  A final
    newline does not start an extra empty line.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return lines


def _item_id(token: str) -> int:
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than the interpreter converts
            pass
    elif token[0] == "-" and token[1:].isascii() and token[1:].isdigit():
        raise ParseError(f"negative item id {token}")
    raise ParseError(f"expected an integer item id, got {token!r}")


def _item_ids(line: str, known: dict[int, int]) -> tuple[int, ...]:
    """The ascending distinct ids of one FIMI line, each added to ``known``.

    An id already in ``known`` is returned as the int object stored there, so
    that lines share their ids instead of holding one int object per token.
    """
    ids = {_item_id(token) for token in line.split()}
    return tuple(sorted(map(known.setdefault, ids, ids)))


def parse_fimi(source: str) -> tuple[FormalContext, AttributeRemap]:
    """Parse a FIMI transaction file: one whitespace-separated id list per line.

    Lines end at ``\n`` (a trailing ``\r`` is dropped) and item ids are ASCII
    decimal numbers.  Blank lines are empty rows.  Duplicate ids within a line
    are collapsed.  Observed ids are renumbered densely (ascending) to 1..k;
    the remap records the original ids.  Each distinct line is parsed once,
    and each distinct id set renumbered once into the one list that every
    line of that set shares as its row; the cardinalities come from the
    line multiplicities, counted once.  The source is decoded text; the
    command line decodes its input as UTF-8.
    """
    lines = _lines(source)
    multiplicity = Counter(lines)  # distinct lines in order of first occurrence
    known: dict[int, int] = {}  # every id seen, to itself
    parsed: dict[str, tuple[int, ...]] = {}  # line text -> ascending distinct ids
    for line in multiplicity:
        try:
            parsed[line] = _item_ids(line, known)
        except ParseError as exc:
            raise ParseError(str(exc), lines.index(line) + 1) from None
    ordered = sorted(known)
    old_to_new = {old: new for new, old in enumerate(ordered, start=1)}
    tallies: dict[tuple[int, ...], list] = {}  # id set -> [its row, number of its lines]
    row_of: dict[str, list[int]] = {}  # line text -> its row
    for line, raw in parsed.items():
        tally = tallies.get(raw)
        if tally is None:
            row = list(raw)  # sized exactly, where a list built by appends is over-allocated
            row[:] = map(old_to_new.__getitem__, row)
            tally = tallies[raw] = [row, 0]
        tally[1] += multiplicity[line]
        row_of[line] = tally[0]
    rows = list(map(row_of.__getitem__, lines))
    distinct = [row for row, _ in tallies.values()]
    counts = [count for _, count in tallies.values()]
    ctx = FormalContext._of_normal_rows(rows, [1] * len(rows), distinct, counts, len(ordered))
    return ctx, AttributeRemap(tuple(ordered), old_to_new)


def _count(line: str) -> int | None:
    """A .cxt count: ASCII decimal digits, with surrounding whitespace; else None."""
    text = line.strip()
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than the interpreter converts
            pass
    return None


def parse_cxt(source: str) -> tuple[FormalContext, AttributeRemap]:
    """Parse a Burmeister .cxt file.

    Layout: "B" header, an optional name line, object count, attribute count,
    a blank line, object names, attribute names, then one '.'/'X' line per
    object.  Counts are ASCII decimal digits; any other line right after the
    header is the name line, and so is a count there when two more counts
    follow it.  Names are kept on the returned context.  The source is
    decoded text, as for :func:`parse_fimi`.
    """
    lines = _lines(source)
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
    ahead = [_count(line) for line in lines[pos : pos + 3]]
    if ahead and (ahead[0] is None or len(ahead) == 3 and None not in ahead):
        pos += 1
    counts_line = take("object count")
    num_objects = _count(counts_line)
    if num_objects is None:
        raise ParseError(f"expected object count, got {counts_line!r}", pos)
    attr_line = take("attribute count")
    num_attributes = _count(attr_line)
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
    ctx = FormalContext(
        rows, num_attributes=num_attributes, object_names=object_names, attr_names=attr_names
    )
    return ctx, AttributeRemap.identity(num_attributes)


def preprocess(
    ctx: FormalContext,
    min_support: int = 0,
    *,
    sort_attributes: bool = True,
    merge_rows: bool = True,
) -> tuple[FormalContext, AttributeRemap, ObjectMerge]:
    """Clean, sort, and weight a context before enumeration.

    Empty attributes and attributes with weighted cardinality below
    ``min_support`` are removed, the rest renumbered 1..n in descending
    cardinality order (ties by ascending original id).  Originally empty rows
    are dropped; rows that merely become empty through attribute removal are
    kept so no support weight is lost.  Identical rows merge with summed
    weights, and rows are ordered by descending weight.  The returned
    remap/merge translate results back to the input ids.
    """
    if min_support < 0:
        raise ValueError("min_support must be non-negative")
    threshold = max(1, min_support)
    retained = [
        a for a in range(1, ctx.num_attributes + 1) if ctx.attr_cardinality[a] >= threshold
    ]
    if sort_attributes:
        retained.sort(key=lambda a: (-ctx.attr_cardinality[a], a))
    old_to_new = {old: new for new, old in enumerate(retained, start=1)}
    remap = AttributeRemap(tuple(retained), old_to_new)

    # Each distinct row is mapped once, and gets the group of its mapped row;
    # then one pass over the objects fills the groups.  ``ctx`` holds every
    # row, so rows are keyed by id.  An originally empty row carries no
    # support for any itemset: its objects go to the last group (index -1),
    # which is dropped.
    group_of: dict[int, int] = {}  # id of a row of ctx -> its group
    mapped_group: dict[tuple[int, ...], int] = {}
    rows: list[list[int]] = []
    for row in ctx.distinct_rows:
        at = -1
        if row:
            mapped = tuple(sorted(old_to_new[a] for a in row if a in old_to_new))
            at = mapped_group.setdefault(mapped, len(rows))
            if at == len(rows):
                rows.append(list(mapped))
        group_of[id(row)] = at
    groups: list[list[int]] = [[] for _ in range(len(rows) + 1)]
    for x, at in enumerate(map(group_of.__getitem__, map(id, ctx.rows))):
        groups[at].append(x)
    groups.pop()
    if merge_rows and ctx.total_weight == ctx.num_objects:  # every weight is 1
        weights = list(map(len, groups))
    elif merge_rows:
        weights = [sum(map(ctx.weights.__getitem__, group)) for group in groups]
    else:  # one group per object, in object order
        owners = sorted((x, at) for at, group in enumerate(groups) for x in group)
        rows = [rows[at] for _, at in owners]
        weights = [ctx.weights[x] for x, _ in owners]
        groups = [[x] for x, _ in owners]

    # Heaviest rows first (stably): the weight bit-planes above plane 0 then
    # span only the low row bits, which keeps weighted popcounts cheap.
    order = sorted(range(len(rows)), key=lambda r: -weights[r])
    rows = [rows[r] for r in order]
    weights = [weights[r] for r in order]
    if merge_rows:
        new_ctx = FormalContext._of_normal_rows(rows, weights, rows, weights, len(retained))
    else:
        new_ctx = FormalContext(rows, weights, num_attributes=len(retained))
    merge = ObjectMerge(tuple(tuple(groups[r]) for r in order))
    return new_ctx, remap, merge
