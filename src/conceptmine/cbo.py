"""Close-by-One enumeration with the prefix canonicity test, on the mirrored order.

Each closed set is generated from exactly one parent: after adding attribute y
and closing, the result is kept only when no attribute above y sneaked into
the closure; its children add the attributes below y, in ascending order.
This is CbO on attribute a read as n + 1 - a, LCM's order: at min support 1 or
more it visits the nodes that ``lcm3`` visits on FP-trees from the root
(``dense_width=None``).  Each node is a frame on the explicit stack of
:func:`conceptmine.derive.depth_first`.

As in the paper, an extent is a set of objects: a child's extent is the
intersection A ∩ {i}↓ of its parent's extent with attribute i's column, and
its closure intersects the rows of that extent.  Extents and columns are
``frozenset``s of row indices, so the intersection runs in C over the smaller
set; the closure stays a loop of row-mask ANDs.  A child's weight is its size
when every row weighs 1, and otherwise the sum of its rows' weights.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bits import ids_of, set_bits
from .context import FormalContext, check_min_support
from .derive import Concept, EnumerationStats, depth_first


def cbo_enumerate(
    ctx: FormalContext,
    min_support: int = 0,
    *,
    with_extents: bool = False,
    stats: EnumerationStats | None = None,
) -> Iterator:
    check_min_support(min_support)
    st = stats if stats is not None else EnumerationStats()
    if ctx.total_weight < min_support:
        return
    n = ctx.num_attributes
    masks = ctx.row_masks
    columns = [frozenset(set_bits(column)) for column in ctx.columns]
    weights = ctx.weights
    row_weight = weights.__getitem__
    unit = weights.count(1) == len(weights)
    full = (1 << n) - 1

    def generate(extent: frozenset[int], extent_weight: int, B: int, y: int) -> Iterator:
        st.recursive_calls += 1
        st.closure_computations += 1
        D = full
        for x in extent:
            D &= masks[x]
        above = full >> y << y  # attributes strictly above y
        if D & above != B & above:
            st.canonicity_failures += 1
            return
        st.concepts_emitted += 1
        yield Concept(ids_of(D), extent_weight, tuple(sorted(extent)) if with_extents else None)
        # Any order visits the same nodes; ascending emits the largest extents while the
        # caller's concept list is short (last, their translation raises the peak memory).
        for i in range(1, y):
            if D >> (i - 1) & 1:
                continue
            child = extent & columns[i]
            child_weight = len(child) if unit else sum(map(row_weight, child))
            if child_weight < min_support:
                continue
            yield generate(child, child_weight, D | (1 << (i - 1)), i)

    yield from depth_first(generate(frozenset(range(ctx.num_objects)), ctx.total_weight, 0, n + 1))
