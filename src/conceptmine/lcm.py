"""The LCM2 engine: occurrence deliver, conditional databases, and rule pruning.

The recursion follows the same canonical generation tree as Close-by-One, but
closures and canonicity are decided from attribute frequencies: within the
current extent, an attribute belongs to the closure exactly when its weighted
frequency equals the extent weight.  The databases are vertical: an extent is
a row bitset, an attribute's frequency is the weighted popcount of the extent
ANDed with its column (:meth:`FormalContext.column_weights`), and an attribute
is full exactly when its column covers the extent.  Each node's conditional
database is its extent plus the live attributes - constant, empty and
infrequent ones dropped - split at the anchor into suffix candidates and the
prefix attributes that later canonicity checks need.  Occurrence deliver
fills every child extent (bucket) with one AND per suffix attribute.  The
canonicity test runs first and stops at the smallest violator, as in
In-Close.  Children are expanded right to left, largest attribute first.

Pruning reuses failed canonicity tests: when descending into attribute i
forced some earlier attribute j into the closure, the rule "i adds j" skips
the closure for i again anywhere below the current node until j itself is
descended into or the node is left.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator

from .bits import RowSet, set_bits
from .context import FormalContext
from .derive import Concept, EnumerationStats, closure
from .errors import PruningSoundnessError


@dataclass
class ConditionalDatabase:
    """The context restricted to one extent, reduced to its live attributes.

    The extent is a row bitset of the source context.  Live attributes occur
    in the extent without covering it and reach the minimum support; they are
    split at the anchor into suffix attributes above it (candidates for
    deeper recursion) and prefix attributes below it.  A prefix attribute
    enters a child's closure exactly when its column covers the child extent,
    which is all the later canonicity checks need.
    """

    ctx: FormalContext
    anchor: int
    prefix_attrs: tuple[int, ...]
    suffix_attrs: tuple[int, ...]
    extent: RowSet
    extent_weight: int

    @property
    def num_rows(self) -> int:
        return len(self.extent)

    def validate(self) -> None:
        ctx = self.ctx
        assert ctx.weight_of(self.extent) == self.extent_weight
        assert all(a < self.anchor for a in self.prefix_attrs)
        assert all(a > self.anchor for a in self.suffix_attrs)
        for a in self.prefix_attrs + self.suffix_attrs:
            count = ctx.weight_of(self.extent & ctx.columns[a])
            assert 0 < count < self.extent_weight, f"live attribute {a} full or empty"


def occurrence_deliver(
    db: ConditionalDatabase, targets: Iterable[int] | None = None
) -> dict[int, RowSet]:
    """Fill one bucket per target attribute: the extent ANDed with its column.

    ``targets`` defaults to all suffix attributes.
    """
    extent = db.extent
    columns = db.ctx.columns
    attrs = db.suffix_attrs if targets is None else targets
    return {a: RowSet(extent & columns[a]) for a in attrs}


def frequencies(db: ConditionalDatabase, extent: int | None = None) -> tuple[dict[int, int], int]:
    """Weighted frequency of every live attribute (prefix and suffix) plus the extent weight.

    Restricted to the ``extent`` row bitset when given; attributes that do not
    occur there are left out.
    """
    attrs = db.prefix_attrs + db.suffix_attrs
    counts, weight = db.ctx.column_weights(db.extent if extent is None else extent, attrs)
    return {a: n for a, n in zip(attrs, counts) if n}, weight


def create_conditional_db(
    db: ConditionalDatabase,
    extent: int,
    anchor: int,
    min_support: int = 0,
    *,
    counted: tuple[dict[int, int], int] | None = None,
) -> ConditionalDatabase:
    """Project ``db`` onto an extent for recursion below ``anchor``.

    Full, empty, and infrequent attributes are dropped; live attributes below
    the anchor move into the prefix.  ``counted`` is ``frequencies(db, extent)``
    when the caller already has it.
    """
    counts, extent_weight = counted if counted is not None else frequencies(db, extent)
    threshold = max(1, min_support)
    kept = [a for a in sorted(counts) if threshold <= counts[a] < extent_weight]
    split = bisect_left(kept, anchor)
    return ConditionalDatabase(
        ctx=db.ctx,
        anchor=anchor,
        prefix_attrs=tuple(kept[:split]),
        suffix_attrs=tuple(kept[split:]),
        extent=RowSet(extent),
        extent_weight=extent_weight,
    )


class _Rule:
    __slots__ = ("left", "right", "alive")

    def __init__(self, left: int, right: int):
        self.left = left
        self.right = right
        self.alive = True


class PruneRuleStore:
    """Stack of "i adds j" rules with per-call frames.

    Rules die in two ways: the whole frame is popped when its call returns, or
    a rule is tombstoned early when some call descends with its right side as
    the anchor (the right side is then inside the closed set, so the recorded
    failure no longer applies).
    """

    def __init__(self):
        self._rules: list[_Rule] = []
        self._frames: list[int] = []
        self._left_alive: dict[int, int] = {}
        self._by_right: dict[int, list[_Rule]] = {}

    def __len__(self) -> int:
        return sum(1 for r in self._rules if r.alive)

    def push_frame(self) -> None:
        self._frames.append(len(self._rules))

    def pop_frame(self) -> None:
        mark = self._frames.pop()
        for rule in self._rules[mark:]:
            if rule.alive:
                rule.alive = False
                self._decrement(rule.left)
        del self._rules[mark:]

    def record_failure(self, left: int, right: int) -> None:
        if right >= left:
            raise ValueError("a rule's right side must be below its left side")
        rule = _Rule(left, right)
        self._rules.append(rule)
        self._left_alive[left] = self._left_alive.get(left, 0) + 1
        self._by_right.setdefault(right, []).append(rule)

    def remove_rules_by_right_side(self, right: int) -> None:
        for rule in self._by_right.pop(right, ()):
            if rule.alive:
                rule.alive = False
                self._decrement(rule.left)

    def should_skip(self, attr: int) -> bool:
        return self._left_alive.get(attr, 0) > 0

    def _decrement(self, left: int) -> None:
        remaining = self._left_alive[left] - 1
        if remaining:
            self._left_alive[left] = remaining
        else:
            del self._left_alive[left]


def root_database(ctx: FormalContext) -> ConditionalDatabase:
    """Wrap a context as the anchor-0 conditional database over all of its rows."""
    live = tuple(a for a in range(1, ctx.num_attributes + 1) if ctx.attr_cardinality[a] > 0)
    return ConditionalDatabase(
        ctx=ctx,
        anchor=0,
        prefix_attrs=(),
        suffix_attrs=live,
        extent=RowSet((1 << ctx.num_objects) - 1),
        extent_weight=ctx.total_weight,
    )


class _Runner:
    """State for one enumeration run: options, counters, rule store."""

    def __init__(
        self,
        ctx: FormalContext,
        min_support: int,
        *,
        pruning: bool,
        stats: EnumerationStats,
        with_extents: bool,
        check_pruning: bool,
        node_inspector: Callable | None,
        fp_engine=None,
    ):
        self.ctx = ctx
        self.min_support = min_support
        self.min_weight = max(1, min_support)
        self.stats = stats
        self.with_extents = with_extents
        self.check_pruning = check_pruning
        self.node_inspector = node_inspector
        self.rules = PruneRuleStore() if pruning else None
        self.fp_engine = fp_engine

    def run(self) -> Iterator:
        st = self.stats
        ctx = self.ctx
        if ctx.total_weight < self.min_support:
            return
        db = root_database(ctx)
        violator = yield from self._generate(db, db.extent, (), 0)
        assert violator == 0  # the root cannot fail the canonicity test
        if self.rules is not None:
            assert len(self.rules) == 0, "rule store not empty after the root call"
        if self.min_support == 0 and ctx.num_attributes > 0:
            n = ctx.num_attributes
            if not any(len(row) == n for row in ctx.rows):
                # No object carries every attribute, so the full intent closes the
                # lattice with an empty extent; counted as one (virtual) visit.
                st.recursive_calls += 1
                st.concepts_emitted += 1
                yield Concept(tuple(range(1, n + 1)), 0, () if self.with_extents else None)

    def _generate(self, db: ConditionalDatabase, extent, closed: tuple[int, ...], anchor: int):
        st = self.stats
        st.recursive_calls += 1
        st.closure_computations += 1
        if self.rules is not None:
            self.rules.remove_rules_by_right_side(anchor)
        # Canonicity first, stopping at the smallest live attribute below the
        # anchor whose column covers the extent.  Chained, not concatenated: a
        # copy of the live attributes per call is quadratic on wide rows.
        columns = self.ctx.columns
        for a in chain(db.prefix_attrs, db.suffix_attrs):
            if a >= anchor:
                break
            if columns[a] & extent == extent:
                st.canonicity_failures += 1
                return a
        counts, extent_weight = frequencies(db, extent)
        closed = _merge_into(
            closed, (a for a in db.suffix_attrs if a > anchor and counts.get(a) == extent_weight)
        )
        st.concepts_emitted += 1
        yield self._emit(closed, extent_weight, extent)

        child_db = create_conditional_db(
            db, extent, anchor, self.min_weight, counted=(counts, extent_weight)
        )
        st.conditional_dbs_built += 1
        if not child_db.suffix_attrs:
            return 0
        if self.fp_engine is not None and self.fp_engine.accepts(child_db):
            yield from self.fp_engine.mine(child_db, closed, self)
            return 0
        buckets = occurrence_deliver(child_db)
        if self.node_inspector is not None:
            weight_of = self.ctx.weight_of
            self.node_inspector(closed, {a: weight_of(rows) for a, rows in buckets.items()})
        if self.rules is not None:
            self.rules.push_frame()
        for a in reversed(child_db.suffix_attrs):
            if self.rules is not None and self.rules.should_skip(a):
                st.pruning_rule_hits += 1
                if self.check_pruning:
                    self._assert_skip_sound(closed, a)
                continue
            violator = yield from self._generate(
                child_db, buckets[a], _insert(closed, a), a
            )
            if violator and self.rules is not None:
                self.rules.record_failure(a, violator)
        if self.rules is not None:
            self.rules.pop_frame()
        return 0

    def _emit(self, closed: tuple[int, ...], weight: int, extent: int) -> Concept:
        """A Concept with the row ids of ``extent`` when asked."""
        extent_ids = tuple(set_bits(extent)) if self.with_extents else None
        return Concept(closed, weight, extent_ids)

    def _assert_skip_sound(self, closed: tuple[int, ...], attr: int) -> None:
        result = closure(self.ctx, closed + (attr,))
        in_closed = set(closed)
        if not any(a < attr and a not in in_closed for a in result):
            raise PruningSoundnessError(
                f"rule store skipped attribute {attr} under {closed}, "
                f"but its closure {result} passes the canonicity test"
            )


def _merge_into(closed: tuple[int, ...], extra: Iterable[int]) -> tuple[int, ...]:
    extra = tuple(extra)
    if not extra:
        return closed
    return tuple(sorted(closed + extra))


def _insert(closed: tuple[int, ...], a: int) -> tuple[int, ...]:
    return tuple(sorted(closed + (a,)))


def lcm2_enumerate(
    ctx: FormalContext,
    min_support: int = 0,
    *,
    pruning: bool = True,
    stats: EnumerationStats | None = None,
    with_extents: bool = False,
    check_pruning: bool = False,
    node_inspector: Callable | None = None,
) -> Iterator:
    """Enumerate frequent closed attribute sets of a preprocessed context.

    Yields one Concept per closed set with weighted support >= min_support,
    in the context's own attribute and row ids.  ``check_pruning``
    recomputes the closure for every rule-store skip and raises if the skip
    was unsound (slow; verification only).  ``node_inspector`` is called per
    inner node with the intent and the delivered bucket weights.
    """
    runner = _Runner(
        ctx,
        min_support,
        pruning=pruning,
        stats=stats if stats is not None else EnumerationStats(),
        with_extents=with_extents,
        check_pruning=check_pruning,
        node_inspector=node_inspector,
    )
    yield from runner.run()
