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

All bit-arrays are plain Python integers (attribute k at bit k-1); equality,
intersection and the key lookup are single int operations.  The LCM3 engine
that mines on these trees lives in :mod:`conceptmine.lcm`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .bits import ids_of

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
        # The hot loops (``_extend``, ``conditional_fptree``, the LCM3 engine's
        # tree root) inline this step; the totals are summed by ``_extend``.
        key = path.bit_length()  # highest set bit = least frequent attribute
        nodes = self.lists.get(key)
        if nodes is None:
            nodes = self.lists[key] = {}
        node = nodes.get(path)
        if node is None:
            nodes[path] = FpNode(path, weight, inner)
        else:
            node.weight += weight
            node.inner &= inner

    def _extend(self, start_key: int) -> None:
        # Walk the lists from the least frequent attribute upward; every node
        # spawns or merges a parent with its own key removed.  Lists exist only
        # at keys in ``path_mask`` and those created along the way have smaller
        # keys, so a countdown over its set bits sees them all, each one
        # complete when it is reached: its total is summed there.
        lists = self.lists
        totals = self.totals
        live = self.path_mask & ((1 << start_key) - 1)
        while live:
            key = live.bit_length()
            bit = 1 << (key - 1)
            live ^= bit
            nodes = lists.get(key)
            if not nodes:
                continue
            total = 0
            for path, node in nodes.items():
                weight = node.weight
                total += weight
                parent = path ^ bit
                if parent:
                    into = lists.get(parent.bit_length())
                    if into is None:
                        into = lists[parent.bit_length()] = {}
                    above = into.get(parent)
                    if above is None:
                        into[parent] = FpNode(parent, weight, node.inner)
                    else:
                        above.weight += weight
                        above.inner &= node.inner
            totals[key] = total

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
    elif len(weights) != len(masks):
        raise ValueError("weights and rows differ in length")
    elif any(w < 1 for w in weights):
        raise ValueError("row weights must be positive")
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
    so no other attribute gets a list, and an empty ``keep`` gives the empty
    tree at once.  Without ``keep`` every attribute on the list's paths gets
    one, whatever its weight.
    """
    path_mask = tree.path_mask & ((1 << (attr - 1)) - 1)
    if keep is not None:
        path_mask &= keep
    sub = CompleteFpTree(attr - 1, path_mask=path_mask)
    if not path_mask:
        return sub
    lists = sub.lists
    for path, node in tree.lists.get(attr, {}).items():
        path &= path_mask
        if path:
            into = lists.get(path.bit_length())
            if into is None:
                into = lists[path.bit_length()] = {}
            existing = into.get(path)
            if existing is None:
                into[path] = FpNode(path, node.weight, node.inner)
            else:
                existing.weight += node.weight
                existing.inner &= node.inner
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
