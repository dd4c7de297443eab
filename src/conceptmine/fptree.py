"""Complete FP-trees with inner intersections, and the LCM3 hybrid engine.

A complete FP-tree stores no parent pointers: every node carries its whole
root path as a bit-array, so the tree degenerates into per-attribute node
lists.  A node lives in the list of the least-frequent attribute of its path
(the highest id under the cardinality ordering).  After the extension step,
list a holds every row containing a, grouped by the row's projection onto
attributes up to a; the group weight is the bucket size and the "inner"
bit-array - the intersection of all grouped rows over the full universe - is
the interior intersection that closure and canonicity checks need.  The
intersection of the inners of one whole list is therefore a closed set, and
extending a list with its key removed yields the conditional tree for that
attribute.

All bit-arrays are plain Python integers (attribute k at bit k-1); equality,
intersection and the key lookup are single int operations.

The LCM3 engine runs the vertical bitset recursion of :mod:`conceptmine.lcm`
until a node's live attribute universe fits within ``dense_width``, then
hands the whole subtree to the tree engine: the tree is built from the rows
of the node's extent bitset, each row's mask cut to the live attributes;
lists act as the delivered buckets, conditional trees replace conditional
databases, and canonicity is read off the inner intersections.  The engine
carries each node's extent bitset down the recursion.  Before it builds a
conditional tree it counts the candidate attributes - those below the key
and outside the closure - on the columns within the child extent, and
projects the paths onto the frequent ones, as LCM ver. 3 builds conditional
databases from frequent items only.  Infrequent and closure attributes thus
never get lists, while the inner bit-arrays keep every live attribute for
the closure and canonicity readings.  Emitted extents are the carried
bitsets.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from .bits import ids_of, mask_of, set_bits
from .context import FormalContext
from .derive import EnumerationStats
from .errors import ConfigurationError
from .lcm import ConditionalDatabase, _Runner

DEFAULT_DENSE_WIDTH = 128
# Conditional trees copy node bit-arrays freely; beyond this width the
# bitset path is always the better representation.
MAX_DENSE_WIDTH = 1 << 16


class FpNode:
    __slots__ = ("path_set", "weight", "inner")

    def __init__(self, path_set: int, weight: int, inner: int):
        self.path_set = path_set
        self.weight = weight
        self.inner = inner

    def path_attrs(self) -> tuple[int, ...]:
        return ids_of(self.path_set)

    def inner_attrs(self) -> tuple[int, ...]:
        return ids_of(self.inner)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FpNode(path={self.path_attrs()}, weight={self.weight}, inner={self.inner_attrs()})"


class CompleteFpTree:
    """Per-attribute node lists over a dense universe 1..width.

    ``lists[a]`` maps path bit-arrays to nodes (the bit-array is the node
    identity); ``totals[a]`` is the weighted size of list a.  ``path_mask``
    limits which attributes participate in path sets - attributes outside it
    (the prefix attributes of a conditional database, and in the engine's
    conditional trees the infrequent and closure attributes) appear only
    inside ``inner`` bit-arrays.
    """

    def __init__(self, width: int, path_mask: int | None = None):
        self.width = width
        self.path_mask = path_mask if path_mask is not None else (1 << width) - 1
        self.lists: dict[int, dict[int, FpNode]] = {}
        self.totals: dict[int, int] = {}

    def attributes(self) -> list[int]:
        return sorted(self.lists)

    def list_nodes(self, attr: int) -> list[FpNode]:
        return list(self.lists.get(attr, {}).values())

    def list_weight(self, attr: int) -> int:
        return self.totals.get(attr, 0)

    def _push(self, path: int, weight: int, inner: int) -> None:
        key = path.bit_length()  # highest set bit = least frequent attribute
        nodes = self.lists.get(key)
        if nodes is None:
            nodes = self.lists[key] = {}
            self.totals[key] = 0
        node = nodes.get(path)
        if node is None:
            nodes[path] = FpNode(path, weight, inner)
        else:
            node.weight += weight
            node.inner &= inner
        self.totals[key] += weight

    def _extend(self, start_key: int) -> None:
        # Walk the lists from the least frequent attribute upward; every node
        # spawns or merges a parent with its own key removed.  Lists created
        # along the way have strictly smaller keys, so a plain countdown sees
        # them all.
        for key in range(start_key, 0, -1):
            nodes = self.lists.get(key)
            if not nodes:
                continue
            for node in nodes.values():
                parent = node.path_set ^ (1 << (key - 1))
                if parent:
                    self._push(parent, node.weight, node.inner)

    def validate(self) -> None:
        for key, nodes in self.lists.items():
            total = 0
            for path, node in nodes.items():
                assert path == node.path_set
                assert path.bit_length() == key, "node filed under the wrong list"
                assert node.path_set & node.inner == node.path_set, "path_set not within inner"
                assert node.weight >= 1
                total += node.weight
            assert total == self.totals[key]


def build_complete_fptree(
    rows: Iterable[Iterable[int]],
    weights: Sequence[int] | None = None,
    *,
    width: int | None = None,
) -> CompleteFpTree:
    """Build the fully extended tree for weighted rows over a dense universe.

    The initial step files each row under its least-frequent attribute,
    merging equal rows by weight; the extension step then propagates every
    node toward the root, summing weights and intersecting inners.  Rows must
    be non-empty.
    """
    masks = []
    for row in rows:
        mask = 0
        for a in row:
            if a < 1:
                raise ValueError(f"attribute id {a} out of range")
            mask |= 1 << (a - 1)
        if mask == 0:
            raise ValueError("rows must be non-empty")
        masks.append(mask)
    if width is None:
        width = max((m.bit_length() for m in masks), default=0)
    elif any(m.bit_length() > width for m in masks):
        raise ValueError(f"row attribute exceeds universe width {width}")
    if weights is None:
        weights = [1] * len(masks)
    tree = CompleteFpTree(width)
    for mask, w in zip(masks, weights):
        tree._push(mask, w, mask)
    tree._extend(width)
    return tree


def conditional_fptree(
    tree: CompleteFpTree, attr: int, *, keep: int | None = None
) -> CompleteFpTree:
    """Extract the conditional tree for ``attr``: its list extended with the key removed.

    The result spans only attributes more frequent than ``attr``.  ``keep`` is
    a bit-array of the attributes the caller counted as frequent and outside
    the closure; the list's paths are projected onto it before the extension,
    so no other attribute gets a list.  Without ``keep`` every attribute on
    the list's paths gets one, whatever its weight.
    """
    path_mask = tree.path_mask & ((1 << (attr - 1)) - 1)
    if keep is not None:
        path_mask &= keep
    sub = CompleteFpTree(attr - 1, path_mask=path_mask)
    for node in tree.lists.get(attr, {}).values():
        parent = node.path_set & path_mask
        if parent:
            sub._push(parent, node.weight, node.inner)
    sub._extend(attr - 1)
    return sub


def intent_of_list(tree: CompleteFpTree, attr: int) -> tuple[tuple[int, ...], int]:
    """Intersect the inner intersections of one list: a closed set plus its support."""
    nodes = tree.lists.get(attr)
    if not nodes:
        raise ValueError(f"list for attribute {attr} is empty")
    inter = -1
    for node in nodes.values():
        inter &= node.inner
    return ids_of(inter), tree.totals[attr]


class _FpEngine:
    """Subtree miner over complete FP-trees, engaged by the bitset recursion.

    Inside an engaged subtree the generation order is mirrored: children add
    attributes in descending id order (most frequent last), because a
    conditional tree only spans attributes more frequent than its key.  The
    subtree still owns exactly the closed sets whose closure adds no attribute
    below the engagement anchor, which the inner intersections expose
    directly, so the global enumeration stays complete and duplicate-free.
    """

    def __init__(self, dense_width: int | None):
        self.dense_width = dense_width

    def accepts(self, db: ConditionalDatabase) -> bool:
        if self.dense_width is None:
            return True
        return len(db.suffix_attrs) + len(db.prefix_attrs) <= self.dense_width

    def mine(self, db: ConditionalDatabase, closed: tuple[int, ...], runner: _Runner) -> Iterator:
        suffix_mask = mask_of(db.suffix_attrs)
        prefix_mask = mask_of(db.prefix_attrs)
        live_mask = suffix_mask | prefix_mask
        width = db.suffix_attrs[-1]
        tree = CompleteFpTree(width, path_mask=suffix_mask)
        row_masks = runner.ctx.row_masks
        weights = runner.ctx.weights
        for x in set_bits(db.extent):
            mask = row_masks[x]
            if mask & suffix_mask:  # rows without live suffix attributes feed no deeper extent
                tree._push(mask & suffix_mask, weights[x], mask & live_mask)
        tree._extend(width)
        yield from self._mine(tree, db.extent, 0, closed, suffix_mask, prefix_mask, runner)

    def _mine(
        self,
        tree: CompleteFpTree,
        extent: int,
        found: int,
        closed: tuple[int, ...],
        suffix_mask: int,
        prefix_mask: int,
        runner: _Runner,
    ) -> Iterator:
        # ``extent`` is the row bitset of the node; every list of ``tree`` is
        # frequent within it and outside its closure ``found``.
        st = runner.stats
        columns = runner.ctx.columns
        if runner.node_inspector is not None:
            runner.node_inspector(
                _merge_ids(closed, found & suffix_mask),
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
            yield runner._emit(_merge_ids(closed, new_found), tree.totals[attr], child)
            # Count the candidates on the columns, so that the conditional tree
            # is built from the frequent attributes outside the closure only.
            candidates = ids_of(tree.path_mask & ((1 << (attr - 1)) - 1) & ~inter)
            counts, _ = runner.ctx.column_weights(child, candidates)
            keep = mask_of(a for a, n in zip(candidates, counts) if n >= runner.min_weight)
            sub = conditional_fptree(tree, attr, keep=keep)
            st.conditional_dbs_built += 1
            if sub.lists:
                yield from self._mine(
                    sub, child, new_found, closed, suffix_mask, prefix_mask, runner
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
) -> Iterator:
    """LCM with the hybrid representation: row bitsets wide, complete FP-trees narrow.

    Identical concept output to :func:`conceptmine.lcm.lcm2_enumerate` for
    every ``dense_width``.  ``dense_width`` 0 disables the tree engine
    entirely; ``None`` (or ``math.inf``) engages it at every node.
    """
    if dense_width is not None and math.isinf(dense_width):
        dense_width = None
    if dense_width is not None:
        dense_width = int(dense_width)
        if dense_width < 0:
            raise ConfigurationError("dense_width must be non-negative")
        if dense_width > MAX_DENSE_WIDTH:
            raise ConfigurationError(
                f"dense_width {dense_width} exceeds the bit-array capacity {MAX_DENSE_WIDTH}"
            )
    fp_engine = _FpEngine(dense_width) if dense_width != 0 else None
    runner = _Runner(
        ctx,
        min_support,
        pruning=pruning,
        stats=stats if stats is not None else EnumerationStats(),
        with_extents=with_extents,
        check_pruning=check_pruning,
        node_inspector=node_inspector,
        fp_engine=fp_engine,
    )
    yield from runner.run()


def _merge_ids(closed: tuple[int, ...], mask: int) -> tuple[int, ...]:
    return tuple(sorted(closed + ids_of(mask)))
