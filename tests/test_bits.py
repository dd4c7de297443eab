import random

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


def test_rowset_len_is_row_count():
    rows = RowSet(0b10110)
    assert len(rows) == 3 and rows == 0b10110
    assert len(RowSet(0)) == 0
