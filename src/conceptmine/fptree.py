"""Complete FP-trees with inner intersections.

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

Each list maps path bit-arrays to ``(weight, inner)`` tuples, so a tree holds
no node objects, and the extension step takes each list's total weight and
intersection of inners as it walks it.  Every tree comes from the one
constructor: ``tree_of_rows(ctx, rows, path_mask)`` hands it rows of a
checked context, for :func:`build_complete_fptree` and the LCM3 engine
alike, and ``conditional_fptree(tree, attr, keep)`` one list, its paths
projected onto the attributes of ``keep``.

All bit-arrays are plain Python integers (attribute k at bit k-1); equality,
intersection and the key lookup are single int operations.  The LCM3 engine
that mines on these trees lives in :mod:`conceptmine.lcm`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .bits import ids_of
from .context import FormalContext


class CompleteFpTree:
    """Per-attribute node lists over the attributes of ``path_mask``.

    ``lists[a]`` maps path bit-arrays to ``(weight, inner)`` tuples (the
    bit-array is the node identity); ``totals[a]`` is the weighted size of
    list a and ``inters[a]`` the intersection of its inners, both filled by
    the extension step.  ``path_mask`` limits which attributes participate
    in path sets - attributes outside it (the prefix attributes of a
    conditional database, and in the engine's conditional trees the
    infrequent and closure attributes) appear only inside inner bit-arrays.
    ``nodes`` are ``(path, (weight, inner))`` pairs: each path is projected
    onto ``path_mask``, empty ones are dropped and equal ones merged (weights
    summed, inners intersected), then the tree is extended.  A negative
    ``path_mask`` raises :class:`ValueError`.
    """

    def __init__(self, path_mask: int, nodes: Iterable):
        if path_mask < 0:
            raise ValueError(f"path_mask must be non-negative, got {path_mask}")
        self.path_mask = path_mask
        self.lists: dict[int, dict[int, tuple[int, int]]] = {}
        self.totals: dict[int, int] = {}
        self.inters: dict[int, int] = {}
        lists = self.lists
        for path, node in nodes:
            path &= path_mask
            if path:
                into = lists.get(path.bit_length())
                if into is None:
                    into = lists[path.bit_length()] = {}
                above = into.get(path)
                into[path] = node if above is None else (above[0] + node[0], above[1] & node[1])
        self._extend()

    def attributes(self) -> list[int]:
        return sorted(self.lists)

    def list_weight(self, attr: int) -> int:
        return self.totals.get(attr, 0)

    def _extend(self) -> None:
        # Walk the lists from the least frequent attribute upward; every node
        # spawns or merges a parent with its own key removed.  Lists exist only
        # at keys in ``path_mask`` and those created along the way have smaller
        # keys, so a countdown over its set bits sees them all, each one
        # complete when it is reached: its total and intersection are taken there.
        lists = self.lists
        totals = self.totals
        inters = self.inters
        live = self.path_mask
        while live:
            key = live.bit_length()
            bit = 1 << (key - 1)
            live ^= bit
            nodes = lists.get(key)
            if not nodes:
                continue
            total = 0
            inter = -1
            for path, node in nodes.items():
                weight, inner = node
                total += weight
                inter &= inner
                parent = path ^ bit
                if parent:
                    into = lists.get(parent.bit_length())
                    if into is None:
                        into = lists[parent.bit_length()] = {}
                    above = into.get(parent)
                    into[parent] = node if above is None else (above[0] + weight, above[1] & inner)
            totals[key] = total
            inters[key] = inter

    def validate(self) -> None:
        for key, nodes in self.lists.items():
            total = 0
            inter = -1
            for path, (weight, inner) in nodes.items():
                assert path.bit_length() == key, "node filed under the wrong list"
                assert path & inner == path, "path_set not within inner"
                assert weight >= 1
                total += weight
                inter &= inner
            assert total == self.totals[key]
            assert inter == self.inters[key], "list intersection differs from its inners"


def tree_of_rows(ctx: FormalContext, rows: Iterable[int], path_mask: int) -> CompleteFpTree:
    """The tree over ``path_mask`` of the rows at ``rows``, each row's mask its path and inner."""
    masks, weights = ctx.row_masks, ctx.weights
    return CompleteFpTree(path_mask, ((masks[x], (weights[x], masks[x])) for x in rows))


def build_complete_fptree(
    rows: Iterable[Iterable[int]],
    weights: Sequence[int] | None = None,
    *,
    width: int | None = None,
) -> CompleteFpTree:
    """Build the fully extended tree for weighted rows over a dense universe.

    The rows and weights are checked as :class:`FormalContext` checks them,
    with ``width`` as its attribute count (by default the highest id), and
    rows must be non-empty.  The initial step files each row under its
    least-frequent attribute, merging equal rows by weight; the extension
    step then propagates every node toward the root, summing weights and
    intersecting inners.
    """
    ctx = FormalContext(rows, weights, width)
    if not all(ctx.distinct_rows):
        raise ValueError("rows must be non-empty")
    return tree_of_rows(ctx, range(ctx.num_objects), (1 << ctx.num_attributes) - 1)


def conditional_fptree(tree: CompleteFpTree, attr: int, keep: int) -> CompleteFpTree:
    """Extract the conditional tree for ``attr``: its list extended with the key removed.

    The result spans only attributes more frequent than ``attr``.  ``keep`` is
    a bit-array of the attributes to give lists (the engine passes those it
    counted as frequent and outside the closure, and ``tree.path_mask`` keeps
    every one); the list's paths are projected onto it before the extension,
    and an empty ``keep`` gives the empty tree at once.
    """
    path_mask = tree.path_mask & ((1 << (attr - 1)) - 1) & keep
    return CompleteFpTree(path_mask, tree.lists.get(attr, {}).items() if path_mask else ())


def intent_of_list(tree: CompleteFpTree, attr: int) -> tuple[tuple[int, ...], int]:
    """One list's intersection of inners, taken by the extension: a closed set plus its support."""
    if not tree.lists.get(attr):
        raise ValueError(f"list for attribute {attr} is empty")
    return ids_of(tree.inters[attr]), tree.totals[attr]
