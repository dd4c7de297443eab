"""The LCM engines: occurrence deliver, conditional databases, rule pruning, FP-trees.

LCM2 follows the same canonical generation tree as Close-by-One, but
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
canonicity test stops at the smallest violator, as in In-Close.  Children
are expanded right to left, largest attribute first.

Pruning reuses failed canonicity tests: when descending into attribute i
forced some earlier attribute j into the closure, the rule "i adds j" skips
the closure for i again anywhere below the current node until j itself is
descended into or the node is left.

LCM3 runs the same traversal until a node's live attribute universe fits
within ``dense_width``, then mines the whole subtree on complete FP-trees
(:mod:`conceptmine.fptree`): the tree is built from the rows of the node's
extent bitset, each row's mask cut to the live attributes; lists act as the
delivered buckets, conditional trees replace conditional databases, and
canonicity is read off the inner intersections.  Inside such a subtree the
generation order is mirrored - children add attributes in descending id
order, because a conditional tree only spans attributes more frequent than
its key - and the subtree still owns exactly the closed sets whose closure
adds no attribute below the engagement anchor.  Each node's extent bitset is
carried down.  Before a conditional tree is built, the candidate attributes
(below the key and outside the closure) are counted on the columns within
the child extent and the paths are projected onto the frequent ones, as LCM
ver. 3 builds conditional databases from frequent items only; the inner
bit-arrays keep every live attribute for the closure and canonicity
readings.

Both traversals run on the explicit stack of
:func:`conceptmine.derive.depth_first`, one frame per node or conditional
tree, so depth costs no Python recursion.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from itertools import chain

from . import fptree
from .bits import RowSet, ids_of, mask_of, set_bits
from .context import FormalContext
from .derive import Concept, EnumerationStats, closure, depth_first
from .errors import ConfigurationError, PruningSoundnessError
from .fptree import DEFAULT_DENSE_WIDTH, MAX_DENSE_WIDTH, CompleteFpTree, FpNode


class ConditionalDatabase:
    """The context restricted to one extent, reduced to its live attributes.

    The extent is a row bitset of the source context.  Live attributes occur
    in the extent without covering it and reach the minimum support; they are
    split at the anchor into suffix attributes above it (candidates for
    deeper recursion) and prefix attributes below it.  A prefix attribute
    enters a child's closure exactly when its column covers the child extent,
    which is all the later canonicity checks need.
    """

    __slots__ = ("ctx", "anchor", "prefix_attrs", "suffix_attrs", "extent", "extent_weight")

    def __init__(
        self,
        ctx: FormalContext,
        anchor: int,
        prefix_attrs: tuple[int, ...],
        suffix_attrs: tuple[int, ...],
        extent: RowSet,
        extent_weight: int,
    ):
        self.ctx = ctx
        self.anchor = anchor
        self.prefix_attrs = prefix_attrs
        self.suffix_attrs = suffix_attrs
        self.extent = extent
        self.extent_weight = extent_weight

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
    return ConditionalDatabase(
        ctx=ctx,
        anchor=0,
        prefix_attrs=(),
        suffix_attrs=live,
        extent=RowSet((1 << ctx.num_objects) - 1),
        extent_weight=ctx.total_weight,
    )


class _Runner:
    """State for one enumeration run: options, counters, rule store.

    A node frame runs each child's entry step - the call count, the rules
    retired by its anchor, the canonicity test - before it yields the child's
    frame, so that the rule store holds a failed child's rule before the next
    sibling is tried.  ``dense_width`` 0 never engages the FP-trees (LCM2).
    """

    def __init__(
        self,
        ctx: FormalContext,
        min_support: int,
        dense_width: int | float,
        rules: PruneRuleStore | None,
        stats: EnumerationStats,
        with_extents: bool,
        check_pruning: bool,
        node_inspector: Callable | None,
    ):
        self.ctx = ctx
        self.min_support = min_support
        self.min_weight = max(1, min_support)
        self.dense_width = dense_width
        self.rules = rules
        self.stats = stats
        self.with_extents = with_extents
        self.check_pruning = check_pruning
        self.node_inspector = node_inspector

    def run(self) -> Iterator[Concept]:
        st = self.stats
        ctx = self.ctx
        if ctx.total_weight < self.min_support:
            return
        db = root_database(ctx)
        # The root's entry step: it has no attribute below its anchor, so it
        # cannot fail the canonicity test.
        st.recursive_calls += 1
        st.closure_computations += 1
        yield from depth_first(self._node(db, db.extent, (), 0))
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

    def _node(self, db: ConditionalDatabase, extent, closed: tuple[int, ...], anchor: int):
        """The frame of a node that passed its canonicity test: emit it, then its children."""
        st = self.stats
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
        del counts  # a frame lives as long as its subtree: keep only what the children need
        if not child_db.suffix_attrs:
            return
        if len(child_db.suffix_attrs) + len(child_db.prefix_attrs) <= self.dense_width:
            yield self._tree_root(child_db, closed)
            return
        # Taken from the end, largest attribute first: a popped list shrinks,
        # so the frame holds only the buckets still to be tried.
        buckets = list(occurrence_deliver(child_db).items())
        if self.node_inspector is not None:
            weight_of = self.ctx.weight_of
            self.node_inspector(closed, {a: weight_of(rows) for a, rows in buckets})
        columns = self.ctx.columns
        rules = self.rules
        if rules is not None:
            rules.push_frame()
        while buckets:
            a, child = buckets.pop()
            if rules is not None and rules.should_skip(a):
                st.pruning_rule_hits += 1
                if self.check_pruning:
                    self._assert_skip_sound(closed, a)
                continue
            st.recursive_calls += 1
            st.closure_computations += 1
            if rules is not None:
                rules.remove_rules_by_right_side(a)
            # Canonicity: ``b`` stops at the smallest live attribute below ``a``
            # whose column covers the child extent, else at ``a`` itself.
            # Chained, not concatenated: a copy per child is quadratic on wide rows.
            for b in chain(child_db.prefix_attrs, child_db.suffix_attrs):
                if b >= a or columns[b] & child == child:
                    break
            if b < a:
                st.canonicity_failures += 1
                if rules is not None:
                    rules.record_failure(a, b)
            else:
                yield self._node(child_db, child, _merge_into(closed, (a,)), a)
        if rules is not None:
            rules.pop_frame()

    def _tree_root(self, db: ConditionalDatabase, closed: tuple[int, ...]):
        """The frame that mines ``db``'s subtree on a complete FP-tree of its extent."""
        suffix_mask = mask_of(db.suffix_attrs)
        prefix_mask = mask_of(db.prefix_attrs)
        live_mask = suffix_mask | prefix_mask
        width = db.suffix_attrs[-1]
        tree = CompleteFpTree(width, path_mask=suffix_mask)
        lists = tree.lists
        row_masks = self.ctx.row_masks
        weights = self.ctx.weights
        for x in set_bits(db.extent):
            mask = row_masks[x]
            path = mask & suffix_mask
            if path:  # rows without live suffix attributes feed no deeper extent
                into = lists.get(path.bit_length())
                if into is None:
                    into = lists[path.bit_length()] = {}
                node = into.get(path)
                if node is None:
                    into[path] = FpNode(path, weights[x], mask & live_mask)
                else:
                    node.weight += weights[x]
                    node.inner &= mask
        tree._extend(width)
        return self._tree(tree, db.extent, 0, closed, suffix_mask, prefix_mask)

    def _tree(
        self,
        tree: CompleteFpTree,
        extent: int,
        found: int,
        closed: tuple[int, ...],
        suffix_mask: int,
        prefix_mask: int,
    ):
        # ``extent`` is the row bitset of the node; every list of ``tree`` is
        # frequent within it and outside its closure ``found``.
        st = self.stats
        columns = self.ctx.columns
        if self.node_inspector is not None:
            self.node_inspector(
                _merge_into(closed, ids_of(found & suffix_mask)),
                {a: tree.totals[a] for a in sorted(tree.lists)},
            )
        for attr in sorted(tree.lists):
            st.recursive_calls += 1
            st.closure_computations += 1
            inter = -1
            for node in tree.lists[attr].values():
                inter &= node.inner
            # Violators: prefix attributes of the engagement database, or live
            # attributes above this one that the closure pulled in unasked.
            above = suffix_mask & ~((1 << attr) - 1)
            if inter & ~found & (prefix_mask | above):
                st.canonicity_failures += 1
                continue
            new_found = inter & suffix_mask
            child = extent & columns[attr]
            st.concepts_emitted += 1
            yield self._emit(_merge_into(closed, ids_of(new_found)), tree.totals[attr], child)
            # Count the candidates on the columns, so that the conditional tree
            # is built from the frequent attributes outside the closure only;
            # with no candidate the tree is empty and nothing is counted.
            keep = tree.path_mask & ((1 << (attr - 1)) - 1) & ~inter
            if keep:
                candidates = ids_of(keep)
                counts, _ = self.ctx.column_weights(child, candidates)
                keep = mask_of(a for a, n in zip(candidates, counts) if n >= self.min_weight)
            # Through the module: perfbench/tracer.py rebinds the name there.
            sub = fptree.conditional_fptree(tree, attr, keep=keep)
            st.conditional_dbs_built += 1
            if sub.lists:
                yield self._tree(sub, child, new_found, closed, suffix_mask, prefix_mask)

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


def lcm2_enumerate(
    ctx: FormalContext,
    min_support: int = 0,
    *,
    pruning: bool = True,
    stats: EnumerationStats | None = None,
    with_extents: bool = False,
    check_pruning: bool = False,
    node_inspector: Callable | None = None,
) -> Iterator[Concept]:
    """Enumerate frequent closed attribute sets of a preprocessed context.

    Yields one Concept per closed set with weighted support >= min_support,
    in the context's own attribute and row ids.  ``check_pruning``
    recomputes the closure for every rule-store skip and raises if the skip
    was unsound (slow; verification only).  ``node_inspector`` is called per
    inner node with the intent and the delivered bucket weights.
    """
    return lcm3_enumerate(
        ctx,
        min_support,
        0,
        pruning=pruning,
        stats=stats,
        with_extents=with_extents,
        check_pruning=check_pruning,
        node_inspector=node_inspector,
    )


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
    """LCM with the hybrid representation: row bitsets wide, complete FP-trees narrow.

    Identical concept output to :func:`lcm2_enumerate` for every
    ``dense_width``.  ``dense_width`` 0 disables the FP-trees entirely;
    ``None`` (or ``math.inf``) engages them at every node.
    """
    if dense_width is None:
        dense_width = math.inf
    elif not math.isinf(dense_width):
        dense_width = int(dense_width)
        if dense_width < 0:
            raise ConfigurationError("dense_width must be non-negative")
        if dense_width > MAX_DENSE_WIDTH:
            raise ConfigurationError(
                f"dense_width {dense_width} exceeds the bit-array capacity {MAX_DENSE_WIDTH}"
            )
    rules = PruneRuleStore() if pruning else None
    stats = stats if stats is not None else EnumerationStats()
    runner = _Runner(
        ctx, min_support, dense_width, rules, stats, with_extents, check_pruning, node_inspector
    )
    return runner.run()
