"""Close-by-One enumeration with the prefix canonicity test.

Each closed set is generated from exactly one parent: after adding attribute i
and closing, the result is kept only when no attribute below i sneaked into
the closure.  Children are explored in ascending attribute order, which gives
reproducible traces; the order does not affect the emitted set.  Each node is
a frame on the explicit stack of :func:`conceptmine.derive.depth_first`.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bits import ids_of
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
    weights = ctx.weights
    columns = ctx.attribute_extents
    full = (1 << n) - 1

    def generate(extent: list[int], extent_weight: int, B: int, y: int) -> Iterator:
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
        yield Concept(ids_of(D), extent_weight, tuple(extent) if with_extents else None)
        have = set(extent)
        for i in range(y + 1, n + 1):
            if D >> (i - 1) & 1:
                continue
            child: list[int] = []
            child_weight = 0
            for x in columns[i]:
                if x in have:
                    child.append(x)
                    child_weight += weights[x]
            if child_weight < min_support:
                continue
            yield generate(child, child_weight, D | (1 << (i - 1)), i)

    yield from depth_first(generate(list(range(ctx.num_objects)), ctx.total_weight, 0, 0))
