"""Bitset helpers shared by every engine.

Attribute sets are Python ints with attribute k at bit k-1; row sets (extents)
are Python ints with row x at bit x.
"""

from __future__ import annotations

from itertools import accumulate, count
from operator import add
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


def _positions(mask: int, first: int) -> Iterator[int]:
    # The bits, lowest first, split at each set bit into runs of zeros: the
    # i-th set bit (from 0) sits after the zeros of runs 0..i and i set bits.
    # Every step runs in C, with no generator step per bit.
    runs = format(mask, "b")[::-1].split("1")
    runs.pop()  # the text after the highest set bit ("0" alone for mask 0)
    return map(add, accumulate(map(len, runs)), count(first))


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative int, ascending from 0."""
    return _positions(mask, 0)


def ids_of(mask: int) -> tuple[int, ...]:
    """Inverse of :func:`mask_of`: the ascending attribute ids of a bitmask."""
    return tuple(_positions(mask, 1))
