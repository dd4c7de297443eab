"""Close-by-One enumeration with the prefix canonicity test.

Each closed set is generated from exactly one parent: after adding attribute i
and closing, the result is kept only when no attribute below i sneaked into
the closure.  Children are explored in ascending attribute order, which gives
reproducible traces; the order does not affect the emitted set.  Each node is
a frame on the explicit stack of :func:`conceptmine.derive.depth_first`.

As in the paper, an extent is a set of objects: a child's extent is the
intersection A ∩ {i}↓ of its parent's extent with attribute i's column, and
its closure intersects the rows of that extent.  Extents and columns are
``frozenset``s of row indices, so the intersection runs in C over the smaller
set; the closure stays a loop of row-mask ANDs.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bits import ids_of, set_bits
from .context import FormalContext
from .derive import Concept, EnumerationStats, depth_first


def cbo_enumerate(
    ctx: FormalContext,
    min_support: int = 0,
    *,
    with_extents: bool = False,
    stats: EnumerationStats | None = None,
) -> Iterator:
    st = stats if stats is not None else EnumerationStats()
    if ctx.total_weight < min_support:
        return
    n = ctx.num_attributes
    masks = ctx.row_masks
    row_weight = ctx.weights.__getitem__
    columns = [frozenset(set_bits(column)) for column in ctx.columns]
    full = (1 << n) - 1

    def generate(extent: frozenset[int], extent_weight: int, B: int, y: int) -> Iterator:
        st.recursive_calls += 1
        st.closure_computations += 1
        D = full
        for x in extent:
            D &= masks[x]
        below = (1 << (y - 1)) - 1 if y else 0  # attributes strictly under y
        if D & below != B & below:
            st.canonicity_failures += 1
            return
        st.concepts_emitted += 1
        yield Concept(ids_of(D), extent_weight, tuple(sorted(extent)) if with_extents else None)
        for i in range(y + 1, n + 1):
            if D >> (i - 1) & 1:
                continue
            child = extent & columns[i]
            child_weight = sum(map(row_weight, child))
            if child_weight < min_support:
                continue
            yield generate(child, child_weight, D | (1 << (i - 1)), i)

    yield from depth_first(generate(frozenset(range(ctx.num_objects)), ctx.total_weight, 0, 0))
