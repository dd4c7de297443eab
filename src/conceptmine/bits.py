"""Bitset helpers shared by every engine.

Attribute sets are Python ints with attribute k at bit k-1; row sets (extents)
are Python ints with row x at bit x.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class RowSet(int):
    """A row bitset whose ``len()`` is its number of rows."""

    __slots__ = ()
    __len__ = int.bit_count


def mask_of(ids: Iterable[int]) -> int:
    """Attribute ids (from 1) as a bitmask."""
    m = 0
    for a in ids:
        m |= 1 << (a - 1)
    return m


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, ascending from 0."""
    text = format(mask, "b")[::-1]
    at = text.find("1")
    while at >= 0:
        yield at
        at = text.find("1", at + 1)


def ids_of(mask: int) -> tuple[int, ...]:
    """Inverse of :func:`mask_of`: the ascending attribute ids of a bitmask."""
    return tuple(at + 1 for at in set_bits(mask))
