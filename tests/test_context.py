import pytest

from conceptmine import (
    FormalContext,
    ParseError,
    compose_remaps,
    down,
    parse_cxt,
    parse_fimi,
    preprocess,
)
from conceptmine.context import AttributeRemap

from conftest import K1_ROWS, random_context


def test_parse_fimi_basic():
    ctx, remap = parse_fimi("1 2 3\n1 3\n2 3\n3 4\n")
    assert ctx.rows == [[1, 2, 3], [1, 3], [2, 3], [3, 4]]
    assert ctx.num_attributes == 4
    assert ctx.weights == [1, 1, 1, 1]
    assert remap.new_to_old == (1, 2, 3, 4)


def test_parse_fimi_empty_input():
    ctx, remap = parse_fimi("")
    assert ctx.num_objects == 0
    assert ctx.num_attributes == 0
    assert remap.new_to_old == ()


def test_parse_fimi_dedup_and_dense_remap():
    ctx, remap = parse_fimi("2 2 2\n")
    assert ctx.rows == [[1]]
    assert ctx.num_attributes == 1
    assert ctx.weights == [1]
    assert remap.new_to_old == (2,)
    assert remap.old_to_new == {2: 1}


def test_parse_fimi_sparse_ids_keep_gaps_through_remap():
    ctx, remap = parse_fimi("5 17\n3\n")
    assert ctx.rows == [[2, 3], [1]]
    assert remap.to_original((1, 2, 3)) == (3, 5, 17)


def test_parse_fimi_blank_line_is_empty_row():
    ctx, _ = parse_fimi("1 2\n\n2\n")
    assert ctx.rows == [[1, 2], [], [2]]


def test_parse_fimi_rejects_bad_tokens():
    with pytest.raises(ParseError, match="line 2"):
        parse_fimi("1 2\n3 x\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_fimi("-4\n")


CXT_MINIMAL = "B\n\n1\n1\n\nobj\nattr\nX\n"


def test_parse_cxt_minimal():
    ctx, remap = parse_cxt(CXT_MINIMAL)
    assert ctx.rows == [[1]]
    assert ctx.object_names == ["obj"]
    assert ctx.attr_names == ["attr"]
    assert remap.new_to_old == (1,)


def test_parse_cxt_empty_row():
    ctx, _ = parse_cxt("B\n\n1\n1\n\nobj\nattr\n.\n")
    assert ctx.rows == [[]]


def test_parse_cxt_grid():
    ctx, _ = parse_cxt("B\n\n2\n2\n\no1\no2\na1\na2\nX.\n.X\n")
    assert ctx.rows == [[1], [2]]


def test_parse_cxt_named_header():
    ctx, _ = parse_cxt("B\nmy context\n1\n2\n\no1\na1\na2\n.X\n")
    assert ctx.rows == [[2]]


def test_parse_cxt_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="expected header"):
        parse_cxt("Z\n\n1\n1\n\no\na\nX\n")
    with pytest.raises(ParseError):
        parse_cxt("B\n\n1\n2\n\no\na1\na2\nX\n")  # row shorter than attribute count
    with pytest.raises(ParseError, match="illegal"):
        parse_cxt("B\n\n1\n1\n\no\na\n?\n")


def test_preprocess_k1_attribute_order():
    ctx = FormalContext(K1_ROWS)
    pre, remap, merge = preprocess(ctx, 0)
    # Recount cardinalities by rescanning the raw rows.
    card = {a: sum(1 for row in K1_ROWS if a in row) for a in (1, 2, 3, 4)}
    assert card == {1: 2, 2: 2, 3: 4, 4: 1}
    # Descending cardinality, ties by ascending original id: 3,1,2,4.
    assert remap.new_to_old == (3, 1, 2, 4)
    assert remap.old_to_new == {3: 1, 1: 2, 2: 3, 4: 4}
    assert pre.num_objects == 4  # nothing merges
    assert [pre.attr_cardinality[a] for a in (1, 2, 3, 4)] == [4, 2, 2, 1]


def test_preprocess_merges_identical_rows():
    ctx = FormalContext([[1], [1], [1]])
    pre, _, merge = preprocess(ctx, 0)
    assert pre.rows == [[1]]
    assert pre.weights == [3]
    assert merge.groups == ((0, 1, 2),)


def test_preprocess_min_support_drops_infrequent_attribute():
    ctx = FormalContext(K1_ROWS)
    pre, remap, _ = preprocess(ctx, 2)
    # attribute 4 has cardinality 1 < 2; row {3,4} collapses to {3}
    assert 4 not in remap.old_to_new
    assert remap.new_to_old == (3, 1, 2)
    # renumbered rows: {3,4} -> {1}; no two rows identical afterwards
    assert sorted(map(tuple, pre.rows)) == [(1,), (1, 2), (1, 2, 3), (1, 3)]
    assert pre.total_weight == 4


def test_preprocess_drops_empty_rows_keeps_rows_emptied_by_filtering():
    ctx = FormalContext([[1], [], [2], [2]], num_attributes=2)
    pre, remap, merge = preprocess(ctx, 2)
    # attribute 1 (cardinality 1) goes; its row stays as an empty row with weight
    assert remap.new_to_old == (2,)
    assert sorted(map(tuple, pre.rows)) == [(), (1,)]
    assert pre.total_weight == 3  # the originally empty row is gone
    assert set().union(*merge.groups) == {0, 2, 3}


def test_preprocess_orders_rows_by_descending_weight():
    ctx = FormalContext([[1], [2], [1, 2], [2], [1, 2], [2]])
    pre, _, merge = preprocess(ctx, 0, sort_attributes=False)
    assert pre.rows == [[2], [1, 2], [1]]
    assert pre.weights == [3, 2, 1]
    assert merge.groups == ((1, 3, 5), (2, 4), (0,))


def test_preprocess_object_sort():
    ctx = FormalContext([[1], [1, 2], [1, 2, 3]])
    pre, _, merge = preprocess(ctx, 0, sort_objects=True, sort_attributes=False)
    assert [len(r) for r in pre.rows] == [3, 2, 1]
    assert merge.groups == ((2,), (1,), (0,))


def test_preprocess_no_merge_option():
    ctx = FormalContext([[1], [1]])
    pre, _, merge = preprocess(ctx, 0, merge_rows=False)
    assert pre.weights == [1, 1]
    assert merge.groups == ((0,), (1,))


def test_remap_round_trip_property():
    for i in range(25):
        ctx = random_context(i)
        _, remap, _ = preprocess(ctx, i % 3)
        for new_id, old_id in enumerate(remap.new_to_old, start=1):
            assert remap.old_to_new[old_id] == new_id


def test_weight_conservation_property():
    for i in range(25):
        ctx = random_context(i)
        pre, _, _ = preprocess(ctx, 0)
        nonempty = sum(1 for row in ctx.rows if row)
        assert pre.total_weight == nonempty


def test_cardinality_monotone_after_sort():
    for i in range(25):
        ctx = random_context(i)
        pre, _, _ = preprocess(ctx, i % 4)
        cards = pre.attr_cardinality[1:]
        assert all(a >= b for a, b in zip(cards, cards[1:]))
        pre.validate()


def test_support_preservation_property():
    # Weighted extents agree with the raw context for every subset of retained
    # attributes (brute force over small attribute universes).
    from itertools import combinations

    for i in range(12):
        ctx = random_context(i)
        if ctx.num_attributes > 10:
            continue
        pre, remap, _ = preprocess(ctx, 0)
        attrs = range(1, pre.num_attributes + 1)
        for size in (1, 2, 3):
            for B in combinations(attrs, size):
                original = remap.to_original(B)
                assert down(pre, B).weighted_size == down(ctx, original).weighted_size


def test_compose_remaps():
    first = AttributeRemap((5, 9, 12), {5: 1, 9: 2, 12: 3})
    second = AttributeRemap((3, 1), {3: 1, 1: 2})
    composed = compose_remaps(first, second)
    assert composed.new_to_old == (12, 5)
    assert composed.old_to_new == {12: 1, 5: 2}
    assert 9 not in composed.old_to_new


def test_context_validate_catches_bad_cardinalities():
    ctx = FormalContext([[1, 2]])
    ctx.attr_cardinality[1] = 7
    with pytest.raises(AssertionError):
        ctx.validate()


def test_columns_and_weight_planes_k1():
    ctx = FormalContext(K1_ROWS, weights=[1, 2, 3, 4])
    assert ctx.columns[1:] == [0b0011, 0b0101, 0b1111, 0b1000]
    assert ctx.weight_planes == [0b0101, 0b0110, 0b1000]  # weights 1, 2, 3, 4
    assert ctx.weight_of(0b1111) == ctx.total_weight == 10
    assert ctx.weight_of(ctx.columns[2]) == 4
    assert ctx.weight_of(0) == 0


def test_weight_of_matches_down_property():
    # The popcount over weight bit-planes equals the summed row weights.
    for i in range(25):
        ctx = random_context(i)
        pre, _, _ = preprocess(ctx, 0)
        for a in range(1, pre.num_attributes + 1):
            assert pre.weight_of(pre.columns[a]) == pre.attr_cardinality[a]
        for a, b in zip(range(1, pre.num_attributes), range(2, pre.num_attributes + 1)):
            rows = pre.columns[a] & pre.columns[b]
            assert pre.weight_of(rows) == down(pre, (a, b)).weighted_size


def test_weight_of_empty_context():
    ctx = FormalContext([], num_attributes=0)
    assert ctx.columns == [0] and ctx.weight_planes == []
    assert ctx.weight_of(0) == 0
