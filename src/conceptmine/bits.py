"""Bitset helpers shared by every engine.

Attribute sets are Python ints with attribute k at bit k-1; row sets (extents)
are Python ints with row x at bit x.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, count
from operator import add


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


# At most this many set bits are taken off one at a time; a denser mask is
# decoded from its binary text.
_SPARSE_BITS = 16


def _positions(mask: int, first: int) -> Iterable[int]:
    if mask < 0:
        raise ValueError(f"bitmask must be non-negative, got {mask}")
    if mask.bit_count() > _SPARSE_BITS:
        # The bits, lowest first, split at each set bit into runs of zeros: the
        # i-th set bit (from 0) sits after the zeros of runs 0..i and i set
        # bits.  Every step runs in C, with no Python step per bit, and the
        # text costs one pass over the mask however many bits are set.
        runs = format(mask, "b")[::-1].split("1")
        runs.pop()  # the text after the highest set bit
        return map(add, accumulate(map(len, runs)), count(first))
    # Few set bits: take the lowest one off at a time.  Each step costs one
    # pass over the mask, so a wide mask is cheaper this way than as text.
    first -= 1
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() + first)
        mask ^= low
    return out


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, ascending from 0.

    A negative ``mask`` raises :class:`ValueError`.
    """
    return iter(_positions(mask, 0))


def ids_of(mask: int) -> tuple[int, ...]:
    """Inverse of :func:`mask_of`: the ascending attribute ids of a bitmask.

    A negative ``mask`` raises :class:`ValueError`.
    """
    return tuple(_positions(mask, 1))
