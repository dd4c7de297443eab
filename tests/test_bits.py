import random

import pytest

from conceptmine.bits import RowSet, ids_of, mask_of, set_bits


def test_mask_and_ids_round_trip():
    assert mask_of([1, 3, 4]) == 0b1101
    assert ids_of(0b1101) == (1, 3, 4)
    assert mask_of([]) == 0 and ids_of(0) == ()
    ids = (1, 64, 65, 300)
    assert ids_of(mask_of(ids)) == ids


def test_set_bits_ascending_from_zero():
    assert list(set_bits(0)) == []
    assert list(set_bits(0b1)) == [0]
    assert list(set_bits((1 << 70) | 0b1010)) == [1, 3, 70]
    rng = random.Random(5)
    for _ in range(200):
        mask = rng.getrandbits(rng.randrange(1, 400)) | rng.getrandbits(8) << rng.randrange(400)
        want = [at for at in range(mask.bit_length()) if mask >> at & 1]
        assert list(set_bits(mask)) == want
        assert ids_of(mask) == tuple(at + 1 for at in want)


def test_negative_masks_raise():
    # Python's binary text of a negative int is its magnitude with a sign, and
    # taking off the lowest set bit of one never reaches 0.
    for mask in (-1, -6):
        with pytest.raises(ValueError, match="non-negative"):
            ids_of(mask)
    with pytest.raises(ValueError, match="non-negative"):
        set_bits(-5)


@pytest.mark.parametrize("width", [1, 64, 183, 500, 20_000])
def test_decoding_matches_a_bit_by_bit_reference(width):
    # Sparse masks are decoded one set bit at a time and dense ones from their
    # binary text; both must give the bits in ascending order at every count,
    # across the switch between them.
    rng = random.Random(width)
    masks = [(1 << width) - 1]
    for bits in range(41):
        for _ in range(3):
            if bits <= width:
                masks.append(sum(1 << at for at in rng.sample(range(width), bits)))
    for mask in masks:
        want = [at for at in range(width) if mask >> at & 1]
        assert list(set_bits(mask)) == want, (width, mask.bit_count())
        assert ids_of(mask) == tuple(at + 1 for at in want), (width, mask.bit_count())


def test_rowset_len_is_row_count():
    rows = RowSet(0b10110)
    assert len(rows) == 3 and rows == 0b10110
    assert len(RowSet(0)) == 0
