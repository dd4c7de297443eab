"""The LCM engines: occurrence deliver, conditional databases, rule pruning, FP-trees.

LCM2 follows the same canonical generation tree as Close-by-One, but
closures and canonicity are decided from attribute frequencies: within the
current extent, an attribute belongs to the closure exactly when its weighted
frequency equals the extent weight.  The databases are vertical: an extent is
a row bitset, an attribute's frequency is the weighted popcount of the extent
ANDed with its column (:meth:`FormalContext.column_weights`), and an attribute
is full exactly when its column covers the extent.  A context whose weights
are all 1, as every unmerged input is, counts with one AND and one popcount
per attribute; only merged rows pay the loop over the weight bit-planes.
Each node's conditional database is its extent plus its attributes, held
once as an ascending tuple and split at the anchor into suffix candidates and
the prefix attributes that later canonicity checks need.  As in LCM ver. 2, a
node counts only its tail: the attributes of its parent's database at or
above its anchor.  One pass over those counts gives the closure (the full
attributes) and tells whether any other attribute is frequent.  A node with
no such attribute is a leaf, and as in LCM ver. 2 it builds no database: its
database would be the empty one.  Otherwise ``create_conditional_db(db,
extent, anchor, min_weight, counted)`` takes the same counts for the suffix,
with full, empty and infrequent attributes dropped.  The attributes below
the anchor are carried into the prefix uncounted: the parent's canonicity
test has just shown that none of them covers the extent, and one that does
not reach the minimum support there can cover no delivered bucket either.
Frequencies come as a list aligned with the counted attributes, so the
child's database keeps its attributes in order without a sort.
``occurrence_deliver(db)`` fills every child extent (bucket) with one AND
per suffix attribute, as ascending ``(attribute, bucket)`` pairs.  The
canonicity test stops at the smallest violator, as in In-Close.  Children
are expanded right to left, largest attribute first.  As in Close-by-One,
each node's intent is an attribute bitmask, turned into ids only when the
node is emitted.

Pruning reuses failed canonicity tests: when descending into attribute i
forced some earlier attribute j into the closure, the rule "i adds j" skips
the closure for i again anywhere below the current node until j itself is
descended into or the node is left.

LCM3 runs the same traversal until a node's frequent attributes fit
within ``dense_width``, then mines the whole subtree on complete FP-trees.
Only a node whose frequent suffix fits can engage, so only such a node
counts its prefix too, for the number of frequent prefix attributes;
elsewhere the prefix stays uncounted, as in LCM2.  The FP-trees come from
:mod:`conceptmine.fptree`: ``tree_of_rows`` files the rows of the node's
extent bitset, each row's mask projected onto the suffix attributes as its
path and whole as its inner, as it does for :func:`build_complete_fptree`.
Lists act as the delivered buckets, conditional trees replace conditional
databases, and each list's intersection of inners, which the extension step
takes as it sums the list, is the child's intent: closure and canonicity
are read off it.  Inside such a subtree the generation order is
mirrored - children add attributes in descending id order, because a
conditional tree only spans attributes more frequent than its key - and the
subtree still owns exactly the closed sets whose closure adds no attribute
below the engagement anchor.  Each node's extent bitset is carried down.
Before a conditional tree is built, the candidate attributes (below the key
and outside the closure) are counted on the columns within the child extent
and the paths are projected onto the frequent ones, as LCM ver. 3 builds
conditional databases from frequent items only; the inners stay whole rows.

The engine is one generator whose frames are closures, as ``cbo``'s are:
its locals are the run's state (options, counters, rule store), and its
nested ``node`` and ``tree`` frames run on the explicit stack of
:func:`conceptmine.derive.depth_first`, one frame per node or conditional
tree, so depth costs no Python recursion.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Callable, Iterator

from . import fptree
from .bits import RowSet, ids_of, mask_of, set_bits
from .context import FormalContext
from .derive import Concept, EnumerationStats, closure, depth_first
from .errors import ConfigurationError, PruningSoundnessError
from .fptree import DEFAULT_DENSE_WIDTH, tree_of_rows


class ConditionalDatabase:
    """The context restricted to one extent, reduced for the subtree below an anchor.

    The extent is a row bitset of the source context.  The attributes are
    held once, ascending, in ``attrs``; ``split`` divides them at the anchor
    into prefix attributes below it and suffix attributes above it.  Suffix
    attributes (candidates for deeper recursion) were counted: they occur in
    the extent without covering it and reach the minimum support.  Prefix
    attributes do not cover the extent; they are carried down uncounted, so
    some may be infrequent in the extent or absent from it.  A prefix
    attribute enters a child's closure exactly when its column covers the
    child extent, which is all the later canonicity checks need, and an
    infrequent one never does.
    """

    __slots__ = ("ctx", "anchor", "attrs", "split", "extent", "extent_weight")

    def __init__(
        self,
        ctx: FormalContext,
        anchor: int,
        attrs: tuple[int, ...],
        extent: RowSet,
        extent_weight: int,
    ):
        self.ctx = ctx
        self.anchor = anchor
        self.attrs = attrs
        self.split = bisect_left(attrs, anchor)
        self.extent = extent
        self.extent_weight = extent_weight

    @property
    def prefix_attrs(self) -> tuple[int, ...]:
        return self.attrs[: self.split]

    @property
    def suffix_attrs(self) -> tuple[int, ...]:
        return self.attrs[self.split :]

    @property
    def num_rows(self) -> int:
        return len(self.extent)

    def validate(self) -> None:
        attrs = self.attrs
        counts, weight = self.ctx.column_weights(self.extent, attrs)
        assert weight == self.extent_weight
        assert all(a < b for a, b in zip(attrs, attrs[1:])), "attributes not ascending"
        assert all(a < self.anchor for a in self.prefix_attrs)
        assert all(a > self.anchor for a in self.suffix_attrs)
        for i, (a, count) in enumerate(zip(attrs, counts)):
            if i < self.split:
                assert count < weight, f"prefix attribute {a} full"
            else:
                assert 0 < count < weight, f"suffix attribute {a} full or empty"


def occurrence_deliver(db: ConditionalDatabase) -> list[tuple[int, RowSet]]:
    """Fill one bucket per suffix attribute, ascending: ``(a, extent & column a)`` pairs."""
    extent = db.extent
    columns = db.ctx.columns
    return [(a, RowSet(extent & columns[a])) for a in db.suffix_attrs]


def frequencies(
    db: ConditionalDatabase, extent: int, attrs: tuple[int, ...]
) -> tuple[list[int], int]:
    """Weighted frequency of each of ``attrs`` within the ``extent`` row bitset, and its weight.

    The counts are aligned with ``attrs``; an attribute that does not occur
    in the extent counts 0.
    """
    return db.ctx.column_weights(extent, attrs)


def create_conditional_db(
    db: ConditionalDatabase,
    extent: int,
    anchor: int,
    min_weight: int,
    counted: tuple[list[int], int],
) -> ConditionalDatabase:
    """Project ``db`` onto an extent for recursion below ``anchor``.

    Only the tail is counted: ``counted`` is ``frequencies(db, extent,
    tail)`` for the attributes of ``db`` at or above the anchor, of which the
    full, empty and infrequent ones are dropped; ``min_weight`` must be at
    least 1, so that an empty one is infrequent.  Those below the anchor move
    into the prefix uncounted, so the caller must know that none of them
    covers the extent; a canonicity test that passed has shown it.
    """
    attrs = db.attrs
    cut = bisect_left(attrs, anchor)
    counts, extent_weight = counted
    suffix = (a for a, n in zip(attrs[cut:], counts) if min_weight <= n < extent_weight)
    return ConditionalDatabase(
        db.ctx, anchor, (*attrs[:cut], *suffix), RowSet(extent), extent_weight
    )


class PruneRuleStore:
    """Stack of "i adds j" rules with per-call frames; only live rules are held.

    Rules die in two ways: the whole frame is popped when its call returns, or
    every rule with a given right side dies when some call descends with that
    right side as the anchor (it is then inside the closed set, so the
    recorded failures no longer apply).  Rules are kept by right side as
    ``(frame depth, left)`` in recording order, so the innermost frame's rules
    are at the tail of each list; each frame lists the right sides it used.
    """

    def __init__(self):
        self._frames: list[list[int]] = []
        self._left_alive: dict[int, int] = {}
        self._by_right: dict[int, list[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return sum(self._left_alive.values())

    def push_frame(self) -> None:
        self._frames.append([])

    def pop_frame(self) -> None:
        depth = len(self._frames)
        by_right = self._by_right
        for right in self._frames.pop():
            rules = by_right.get(right)
            while rules and rules[-1][0] == depth:
                self._decrement(rules.pop()[1])
            if rules == []:
                del by_right[right]

    def record_failure(self, left: int, right: int) -> None:
        if right >= left:
            raise ValueError("a rule's right side must be below its left side")
        depth = len(self._frames)
        rules = self._by_right.setdefault(right, [])
        if not rules or rules[-1][0] != depth:
            self._frames[-1].append(right)
        rules.append((depth, left))
        self._left_alive[left] = self._left_alive.get(left, 0) + 1

    def remove_rules_by_right_side(self, right: int) -> None:
        for _, left in self._by_right.pop(right, ()):
            self._decrement(left)

    def should_skip(self, attr: int) -> bool:
        return attr in self._left_alive

    def _decrement(self, left: int) -> None:
        remaining = self._left_alive[left] - 1
        if remaining:
            self._left_alive[left] = remaining
        else:
            del self._left_alive[left]


def root_database(ctx: FormalContext) -> ConditionalDatabase:
    """Wrap a context as the anchor-0 conditional database over all of its rows."""
    live = tuple(a for a in range(1, ctx.num_attributes + 1) if ctx.attr_cardinality[a] > 0)
    return ConditionalDatabase(ctx, 0, live, RowSet((1 << ctx.num_objects) - 1), ctx.total_weight)


def _assert_skip_sound(ctx: FormalContext, closed: int, attr: int) -> None:
    """Raise unless the closure of ``closed`` plus ``attr`` fails the canonicity test."""
    intent = ids_of(closed)
    result = closure(ctx, intent + (attr,))
    if not any(a < attr and not closed >> (a - 1) & 1 for a in result):
        raise PruningSoundnessError(
            f"rule store skipped attribute {attr} under {intent}, "
            f"but its closure {result} passes the canonicity test"
        )


def _lcm(
    ctx: FormalContext,
    min_support: int,
    dense_width: int | float,
    pruning: bool,
    stats: EnumerationStats,
    with_extents: bool,
    check_pruning: bool,
    node_inspector: Callable | None,
) -> Iterator[Concept]:
    """One enumeration run; its locals are the run's state, its frames the nested generators.

    A node frame runs each child's entry step - the call count, the rules
    retired by its anchor, the canonicity test - before it yields the child's
    frame, so that the rule store holds a failed child's rule before the next
    sibling is tried.  Without ``pruning`` no rule is recorded, so the store
    stays empty.  Intents are attribute bitmasks.  ``dense_width`` 0 never
    engages the FP-trees (LCM2).
    """
    if ctx.total_weight < min_support:
        return
    min_weight = max(1, min_support)
    columns = ctx.columns
    rules = PruneRuleStore()

    def emit(closed: int, weight: int, extent: int) -> Concept:
        """Count a concept and build it, with the row ids of ``extent`` when asked."""
        stats.concepts_emitted += 1
        return Concept(ids_of(closed), weight, tuple(set_bits(extent)) if with_extents else None)

    def node(db: ConditionalDatabase, extent, closed: int, anchor: int):
        """The frame of a node that passed its canonicity test: emit it, then its children.

        ``closed`` is the parent's intent; the attributes of ``db`` that cover
        ``extent``, the anchor among them, complete it.  A leaf, whose counts
        show no frequent attribute outside the closure, builds no database.
        """
        tail = db.attrs[bisect_left(db.attrs, anchor) :]
        counts, extent_weight = frequencies(db, extent, tail)
        # One pass closes the node and tells whether it has children: a full
        # attribute joins the closure, any other frequent one is a suffix
        # attribute of the child database.
        has_children = False
        for a, n in zip(tail, counts):
            if n == extent_weight:
                closed |= 1 << (a - 1)
            elif n >= min_weight:
                has_children = True
        yield emit(closed, extent_weight, extent)

        # A leaf's database is the empty one: counted, but not built.
        stats.conditional_dbs_built += 1
        if not has_children:
            return
        child_db = create_conditional_db(db, extent, anchor, min_weight, (counts, extent_weight))
        del counts  # a frame lives as long as its subtree: keep only what the children need
        if len(child_db.suffix_attrs) <= dense_width:
            # Only here can the FP-trees engage, and whether they do depends on
            # the frequent prefix, so only here is the prefix counted.
            counts = frequencies(child_db, extent, child_db.prefix_attrs)[0]
            frequent = sum(n >= min_weight for n in counts)
            del counts
            if frequent + len(child_db.suffix_attrs) <= dense_width:
                # The subtree is mined on a complete FP-tree of the extent.  Its
                # paths are the suffix attributes: a row without one feeds no
                # deeper extent.
                suffix_mask = mask_of(child_db.suffix_attrs)
                fp = tree_of_rows(ctx, set_bits(extent), suffix_mask)
                yield tree(fp, extent, closed, suffix_mask)
                return
        # Taken from the end, largest attribute first: a popped list shrinks,
        # so the frame holds only the buckets still to be tried.
        buckets = occurrence_deliver(child_db)
        if node_inspector is not None:
            weight_of = ctx.weight_of
            node_inspector(ids_of(closed), {a: weight_of(rows) for a, rows in buckets})
        rules.push_frame()
        while buckets:
            a, child = buckets.pop()
            if rules.should_skip(a):
                stats.pruning_rule_hits += 1
                if check_pruning:
                    _assert_skip_sound(ctx, closed, a)
                continue
            stats.recursive_calls += 1
            stats.closure_computations += 1
            rules.remove_rules_by_right_side(a)
            # Canonicity: ``b`` stops at the smallest live attribute below ``a``
            # whose column covers the child extent, else at ``a`` itself.
            for b in child_db.attrs:
                if b >= a or columns[b] & child == child:
                    break
            if b < a:
                stats.canonicity_failures += 1
                if pruning:
                    rules.record_failure(a, b)
            else:
                yield node(child_db, child, closed, a)
        rules.pop_frame()

    def tree(fp: fptree.CompleteFpTree, extent: int, closed: int, suffix_mask: int):
        # ``extent`` is the row bitset of the node and ``closed`` its intent.
        # The inners are whole rows, so each list's intersection is its child's
        # intent.
        if node_inspector is not None:
            node_inspector(ids_of(closed), {a: fp.totals[a] for a in sorted(fp.lists)})
        for attr in sorted(fp.lists):
            stats.recursive_calls += 1
            stats.closure_computations += 1
            inter = fp.inters[attr]
            # Violators: what the closure adds outside the suffix attributes up to
            # ``attr``.  That is exactly the frequent prefix attributes of the
            # engagement database and the suffix attributes above ``attr``: every
            # list is frequent in its extent, so no infrequent attribute is in its
            # intersection, and every row of a list carries the node's intent, so
            # ``inter`` holds ``closed``.
            if inter & ~closed & ~(suffix_mask & ((1 << attr) - 1)):
                stats.canonicity_failures += 1
                continue
            child = extent & columns[attr]
            yield emit(inter, fp.totals[attr], child)
            # Count the candidates on the columns, so that the conditional tree
            # is built from the frequent attributes outside the closure only;
            # with no candidate the tree is empty and nothing is counted.
            keep = fp.path_mask & ((1 << (attr - 1)) - 1) & ~inter
            if keep:
                candidates = ids_of(keep)
                counts, _ = ctx.column_weights(child, candidates)
                keep = mask_of(a for a, n in zip(candidates, counts) if n >= min_weight)
            # Through the module: perfbench/tracer.py rebinds the name there.
            sub = fptree.conditional_fptree(fp, attr, keep)
            stats.conditional_dbs_built += 1
            if sub.lists:
                yield tree(sub, child, inter, suffix_mask)

    if ctx.num_objects:
        db = root_database(ctx)
        # The root's entry step: it has no attribute below its anchor, so it
        # cannot fail the canonicity test.
        stats.recursive_calls += 1
        stats.closure_computations += 1
        yield from depth_first(node(db, db.extent, 0, 0))
        assert len(rules) == 0, "rule store not empty after the root call"
    if min_support == 0:
        n = ctx.num_attributes
        if not any(len(row) == n for row in ctx.rows):
            # No object carries every attribute (or there is no object), so the
            # full intent closes the lattice with an empty extent; counted as
            # one (virtual) visit.
            stats.recursive_calls += 1
            yield emit((1 << n) - 1, 0, 0)


def lcm2_enumerate(ctx: FormalContext, min_support: int = 0, **options) -> Iterator[Concept]:
    """LCM2: :func:`lcm3_enumerate` with ``dense_width`` 0, which never engages the FP-trees."""
    return lcm3_enumerate(ctx, min_support, 0, **options)


def lcm3_enumerate(
    ctx: FormalContext,
    min_support: int = 0,
    dense_width: int | float | None = DEFAULT_DENSE_WIDTH,
    *,
    pruning: bool = True,
    stats: EnumerationStats | None = None,
    with_extents: bool = False,
    check_pruning: bool = False,
    node_inspector: Callable | None = None,
) -> Iterator[Concept]:
    """Enumerate frequent closed attribute sets of a preprocessed context.

    LCM with the hybrid representation: row bitsets wide, complete FP-trees
    narrow.  Yields one Concept per closed set with weighted support >=
    min_support, in the context's own attribute and row ids; the output is
    identical for every ``dense_width``.  ``dense_width`` 0 disables the
    FP-trees entirely (LCM2); ``None`` (or ``math.inf``) engages them at every
    node.  ``check_pruning`` recomputes the closure for every rule-store skip
    and raises if the skip was unsound (slow; verification only).
    ``node_inspector`` is called per inner node with the intent and the
    delivered bucket weights.
    """
    if min_support < 0:
        raise ValueError("min_support must be non-negative")
    if dense_width is None:
        dense_width = math.inf
    elif dense_width != math.inf:
        try:
            dense_width = operator.index(dense_width)
        except TypeError:
            raise ConfigurationError(
                f"dense_width must be an integer or math.inf, got {dense_width!r}"
            ) from None
        if dense_width < 0:
            raise ConfigurationError("dense_width must be non-negative")
    stats = stats if stats is not None else EnumerationStats()
    return _lcm(
        ctx, min_support, dense_width, pruning, stats, with_extents, check_pruning, node_inspector
    )
