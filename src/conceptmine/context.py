"""Formal contexts: the weighted row data model, input parsers, and preprocessing.

A context is a binary relation between objects (rows) and attributes (integer
ids 1..n).  Rows are stored as strictly ascending arraylists of attribute ids;
each row carries a positive integer weight counting how many original objects
it stands for.  The vertical view - one row bitset per attribute column plus
the weight bit-planes - is built on first use and gives the exact weighted
size of any row set by popcounts.  Contexts are treated as immutable after
construction, so any number of enumeration runs may share one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

from .bits import mask_of
from .errors import ParseError


def _as_text(source: str | bytes | IO) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    data = source.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


class FormalContext:
    """Weighted object/attribute incidence table.

    Invariants: every row is strictly ascending with ids in 1..num_attributes,
    every weight is >= 1, and ``attr_cardinality[y]`` is the weighted number of
    rows containing ``y`` (index 0 is unused padding).  Equal rows share one
    list object, so rows must not be modified in place.
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
        # cardinality count below run once per distinct row.
        distinct: dict[tuple, list[int]] = {}
        self.rows: list[list[int]] = []
        for row in rows:
            key = tuple(row)
            normal = distinct.get(key)
            if normal is None:
                normal = distinct[key] = sorted(set(key))
            self.rows.append(normal)
        if weights is None:
            self.weights = [1] * len(self.rows)
        else:
            self.weights = list(weights)
            if len(self.weights) != len(self.rows):
                raise ValueError("weights and rows differ in length")
        highest = max((row[-1] for row in distinct.values() if row), default=0)
        if num_attributes is None:
            num_attributes = highest
        elif highest > num_attributes:
            raise ValueError(f"attribute id {highest} exceeds declared count {num_attributes}")
        self.num_attributes = num_attributes
        self.object_names = list(object_names) if object_names is not None else None
        self.attr_names = list(attr_names) if attr_names is not None else None

        lowest = min((row[0] for row in distinct.values() if row), default=1)
        if lowest < 1:
            raise ValueError(f"attribute id {lowest} out of range (ids start at 1)")
        summed: dict[int, int] = {}  # id of a row in ``distinct`` -> its total weight
        for row, w in zip(self.rows, self.weights):
            if w < 1:
                raise ValueError("row weights must be positive")
            summed[id(row)] = summed.get(id(row), 0) + w
        card = [0] * (num_attributes + 1)
        for row in distinct.values():
            w = summed[id(row)]
            for a in row:
                card[a] += w
        self.attr_cardinality = card

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
    def attribute_extents(self) -> list[list[int]]:
        """For each attribute, the ascending list of row indices containing it."""
        cols: list[list[int]] = [[] for _ in range(self.num_attributes + 1)]
        for x, row in enumerate(self.rows):
            for a in row:
                cols[a].append(x)
        return cols

    @cached_property
    def columns(self) -> list[int]:
        """For each attribute, its rows as a bitset (row x at bit x)."""
        return [_row_bitset(rows, self.num_objects) for rows in self.attribute_extents]

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
        planes = self.weight_planes
        if len(planes) == 1:
            return rows.bit_count()  # every weight is 1
        return sum((rows & plane).bit_count() << k for k, plane in enumerate(planes))

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

    def __repr__(self) -> str:  # pragma: no cover
        return f"FormalContext({self.num_objects} objects, {self.num_attributes} attributes)"


def _row_bitset(rows: Iterable[int], num_rows: int) -> int:
    buf = bytearray((num_rows + 7) >> 3)
    for x in rows:
        buf[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class AttributeRemap:
    """Bijection between dense working attribute ids and the caller's original ids.

    ``new_to_old[k-1]`` is the original id of working attribute k; ``old_to_new``
    is the partial inverse (an original id is absent when the attribute was
    removed).
    """

    new_to_old: tuple[int, ...]
    old_to_new: dict[int, int]

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


@dataclass(frozen=True)
class ObjectMerge:
    """For each retained row, the original object indices merged into it."""

    groups: tuple[tuple[int, ...], ...]

    def to_original(self, row_indices: Iterable[int]) -> tuple[int, ...]:
        out: list[int] = []
        for r in row_indices:
            out.extend(self.groups[r])
        return tuple(sorted(out))


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


def parse_fimi(source: str | bytes | IO) -> tuple[FormalContext, AttributeRemap]:
    """Parse a FIMI transaction file: one whitespace-separated id list per line.

    Lines end at ``\n`` (a trailing ``\r`` is dropped) and item ids are ASCII
    decimal numbers.  Blank lines are empty rows.  Duplicate ids within a line
    are collapsed.  Observed ids are renumbered densely (ascending) to 1..k;
    the remap records the original ids.  Each distinct line is parsed, and
    each distinct id set renumbered, once; equal rows share one list.
    """
    lines = _lines(_as_text(source))
    parsed: dict[str, tuple[int, ...]] = {}  # line text -> ascending distinct ids
    for line in dict.fromkeys(lines):  # distinct lines in order of first occurrence
        try:
            parsed[line] = tuple(sorted({_item_id(token) for token in line.split()}))
        except ParseError as exc:
            raise ParseError(str(exc), lines.index(line) + 1) from None
    ordered = sorted(set().union(*parsed.values()))
    old_to_new = {old: new for new, old in enumerate(ordered, start=1)}
    renumbered = {raw: [old_to_new[a] for a in raw] for raw in set(parsed.values())}
    row_of = {line: renumbered[raw] for line, raw in parsed.items()}
    ctx = FormalContext(list(map(row_of.__getitem__, lines)), num_attributes=len(ordered))
    return ctx, AttributeRemap(tuple(ordered), old_to_new)


def parse_cxt(source: str | bytes | IO) -> tuple[FormalContext, AttributeRemap]:
    """Parse a Burmeister .cxt file.

    Layout: "B" header, an optional name line, object count, attribute count,
    a blank line, object names, attribute names, then one '.'/'X' line per
    object.  Names are kept on the returned context.
    """
    lines = _lines(_as_text(source))
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
    counts_line = take("object count")
    try:
        num_objects = int(counts_line.strip())
    except ValueError:
        # the optional context-name line was present; counts start next
        counts_line = take("object count")
        try:
            num_objects = int(counts_line.strip())
        except ValueError:
            raise ParseError(f"expected object count, got {counts_line!r}", pos) from None
    attr_line = take("attribute count")
    try:
        num_attributes = int(attr_line.strip())
    except ValueError:
        raise ParseError(f"expected attribute count, got {attr_line!r}", pos) from None
    if num_objects < 0 or num_attributes < 0:
        raise ParseError("counts must be non-negative", pos)
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
    sort_objects: bool = False,
    merge_rows: bool = True,
) -> tuple[FormalContext, AttributeRemap, ObjectMerge]:
    """Clean, sort, and weight a context before enumeration.

    Empty attributes and attributes with weighted cardinality below
    ``min_support`` are removed, the rest renumbered 1..n in descending
    cardinality order (ties by ascending original id).  Originally empty rows
    are dropped; rows that merely become empty through attribute removal are
    kept so no support weight is lost.  Identical rows merge with summed
    weights, and rows are ordered by descending weight (``sort_objects``
    orders rows of equal weight by descending length).  The returned
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

    # One pass over the objects.  Each distinct row is mapped once and gets
    # the slot of its mapped row (a fresh slot per object without merging).
    # ``seen`` holds every row it keys by id.
    seen: dict[int, tuple[list[int], list[int], int]] = {}  # id -> (row, mapped, slot)
    slot_of: dict[tuple[int, ...], int] = {}
    rows: list[list[int]] = []
    weights: list[int] = []
    groups: list[list[int]] = []
    for x, (row, w) in enumerate(zip(ctx.rows, ctx.weights)):
        if not row:
            continue  # originally empty rows carry no support for any itemset
        hit = seen.get(id(row))
        if hit is None:
            mapped = sorted(old_to_new[a] for a in row if a in old_to_new)
            hit = seen[id(row)] = (row, mapped, slot_of.setdefault(tuple(mapped), len(rows)))
        _, mapped, at = hit
        if at == len(rows) or not merge_rows:
            at = len(rows)
            rows.append(mapped)
            weights.append(0)
            groups.append([])
        weights[at] += w
        groups[at].append(x)

    # Heaviest rows first (stably): the weight bit-planes above plane 0 then
    # span only the low row bits, which keeps weighted popcounts cheap.
    # ``sort_objects`` breaks weight ties by descending length.
    if sort_objects:
        order = sorted(range(len(rows)), key=lambda r: (-weights[r], -len(rows[r])))
    else:
        order = sorted(range(len(rows)), key=lambda r: -weights[r])
    new_ctx = FormalContext(
        [rows[r] for r in order], [weights[r] for r in order], num_attributes=len(retained)
    )
    merge = ObjectMerge(tuple(tuple(groups[r]) for r in order))
    return new_ctx, remap, merge
