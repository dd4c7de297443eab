import random
from itertools import combinations

import pytest

from conceptmine import (
    FormalContext,
    ParseError,
    compose_remaps,
    down,
    mine_concepts,
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


@pytest.mark.parametrize(
    "text, rows",
    [
        ("1 2\n3\n", [[1, 2], [3]]),
        ("1 2\n3", [[1, 2], [3]]),
        ("1 2\r\n3\r\n", [[1, 2], [3]]),
        ("1 2\r\n3", [[1, 2], [3]]),
        ("1\n\n", [[1], []]),
        ("\n", [[]]),
    ],
)
def test_parse_fimi_line_endings(text, rows):
    assert parse_fimi(text)[0].rows == rows


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_fimi_breaks_lines_only_at_newline(sep):
    ctx, _ = parse_fimi(f"1 2{sep}3\n4\n")
    assert ctx.rows == [[1, 2, 3], [4]]


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "\u00b2"])
def test_parse_fimi_accepts_only_ascii_decimal_ids(token):
    with pytest.raises(ParseError) as caught:
        parse_fimi(f"1 2\n5 {token}\n")
    assert str(caught.value) == f"line 2: expected an integer item id, got {token!r}"


def test_parse_fimi_overlong_id_is_a_parse_error():
    # beyond the interpreter's limit on digits converted by int()
    with pytest.raises(ParseError, match="line 1: expected an integer item id"):
        parse_fimi("9" * 5000 + "\n")


def test_parse_fimi_negative_id_message():
    with pytest.raises(ParseError, match="line 1: negative item id -4"):
        parse_fimi("-4\n")


def test_parse_fimi_bad_token_on_repeated_line_reports_first_line():
    with pytest.raises(ParseError, match="line 4"):
        parse_fimi("1 2\n5\n1 2\n7 y\n1 2\n7 y\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_fimi("1\n3 x\n1\n3 x\n")


def _duplicate_heavy_fimi(seed: int) -> tuple[str, list[set[int]]]:
    """FIMI text of equal, permuted-equal and blank lines, and the id set of each line."""
    rng = random.Random(seed)
    patterns = [rng.sample([2, 5, 8, 13, 21, 34], rng.randint(1, 5)) for _ in range(7)]
    lines, items = [], []
    for _ in range(300):
        if rng.random() < 0.08:
            lines.append(rng.choice(["", "  ", "\t"]))
            items.append(set())
            continue
        tokens = [str(a) for a in rng.choice(patterns)]
        tokens += rng.sample(tokens, rng.randint(0, 1))  # a repeated id
        rng.shuffle(tokens)
        lines.append(rng.choice([" ", "  ", "\t"]).join(tokens))
        items.append({int(t) for t in tokens})
    return "\n".join(lines), items  # the final line has no newline


def _reference_concepts(items: list[set[int]], min_support: int):
    """Every closed id set with support >= min_support, by brute force over the rows."""
    universe = sorted(set().union(*items))
    found = set()
    for size in range(len(universe) + 1):
        for intent in combinations(universe, size):
            extent = tuple(x for x, row in enumerate(items) if row.issuperset(intent))
            closed = set(universe).intersection(*(items[x] for x in extent))
            if closed == set(intent) and len(extent) >= min_support:
                found.add((intent, len(extent), extent))
    return found


@pytest.mark.parametrize("seed", [0, 1])
def test_parse_fimi_duplicate_heavy_matches_line_by_line_reference(seed):
    text, items = _duplicate_heavy_fimi(seed)
    ctx, remap = parse_fimi(text)
    ordered = sorted(set().union(*items))
    assert remap.new_to_old == tuple(ordered)
    assert remap.old_to_new == {old: new for new, old in enumerate(ordered, start=1)}
    assert ctx.rows == [sorted(remap.old_to_new[a] for a in row) for row in items]
    assert ctx.weights == [1] * len(items)
    assert ctx.attr_cardinality == [0] + [sum(a in row for row in items) for a in ordered]
    ctx.validate()
    # equal rows share one list
    assert len({id(row) for row in ctx.rows}) == len({tuple(row) for row in ctx.rows})

    engines = [
        ("naive", {}),
        ("cbo", {}),
        ("lcm2", {}),
        ("lcm2", {"pruning": False, "merge_rows": False}),
        ("lcm3", {"dense_width": 0, "sort_objects": True}),
        ("lcm3", {}),
    ]
    for s in (0, 1, 40):
        want = _reference_concepts(items, s)
        for algorithm, options in engines:
            mined = mine_concepts(
                ctx, s, algorithm=algorithm, with_extents=True, base_remap=remap, **options
            )
            got = {(c.intent, c.support, c.extent) for c in mined}
            assert got == want, (algorithm, options, s)


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


def test_parse_cxt_crlf_and_separators_inside_names():
    ctx, _ = parse_cxt("B\r\n\r\n2\r\n1\r\n\r\no\x0c1\r\no\u20282\r\na\x1c\r\nX\r\n.\r\n")
    assert ctx.object_names == ["o\x0c1", "o\u20282"]
    assert ctx.attr_names == ["a\x1c"]
    assert ctx.rows == [[1], []]


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


def _reference_preprocess(ctx, min_support, sort_attributes, sort_objects, merge_rows):
    """Rows, weights and groups of ``preprocess``, mapping and merging object by object."""
    threshold = max(1, min_support)
    retained = [a for a in range(1, ctx.num_attributes + 1) if ctx.attr_cardinality[a] >= threshold]
    if sort_attributes:
        retained.sort(key=lambda a: (-ctx.attr_cardinality[a], a))
    new = {old: k for k, old in enumerate(retained, start=1)}
    kept = [
        (x, sorted(new[a] for a in row if a in new), w)
        for x, (row, w) in enumerate(zip(ctx.rows, ctx.weights))
        if row
    ]
    if sort_objects:
        kept.sort(key=lambda item: (-len(item[1]), item[0]))
    merged: dict = {}
    for x, mapped, w in kept:
        key = tuple(mapped) if merge_rows else x
        row, weight, group = merged.get(key, (mapped, 0, []))
        merged[key] = (row, weight + w, group + [x])
    ordered = sorted(merged.values(), key=lambda item: -item[1])
    return [r for r, _, _ in ordered], [w for _, w, _ in ordered], [tuple(g) for _, _, g in ordered]


def test_preprocess_matches_object_by_object_reference():
    rng = random.Random(5)
    for i in range(30):
        patterns = [rng.sample(range(1, 9), rng.randint(0, 6)) for _ in range(rng.randint(1, 6))]
        rows = [list(rng.choice(patterns)) for _ in range(rng.randint(1, 40))]
        if i % 2:  # fresh lists, equal rows not shared
            ctx = FormalContext(rows, weights=[rng.randint(1, 4) for _ in rows], num_attributes=8)
        else:
            ctx, _ = parse_fimi("".join(" ".join(map(str, row)) + "\n" for row in rows))
        for s in (0, 3, 8):
            for sort_attributes in (True, False):
                for sort_objects in (True, False):
                    for merge_rows in (True, False):
                        options = (sort_attributes, sort_objects, merge_rows)
                        pre, _, merge = preprocess(
                            ctx,
                            s,
                            sort_attributes=sort_attributes,
                            sort_objects=sort_objects,
                            merge_rows=merge_rows,
                        )
                        want = _reference_preprocess(ctx, s, *options)
                        assert (pre.rows, pre.weights, list(merge.groups)) == want, (i, s, options)
                        pre.validate()


def test_context_from_generator_of_fresh_lists():
    # Each fresh list is freed once read, so the next fresh one may take its
    # id; a memo keyed on the ids of lists it does not hold would mix them up.
    shared = [4]
    ctx = FormalContext(shared if x % 2 else [x % 3 + 1] for x in range(12))
    assert ctx.rows == [[1], [4], [3], [4], [2], [4]] * 2
    assert ctx.attr_cardinality == [0, 2, 2, 2, 6]
    ctx = FormalContext(([2, 1, 2] for _ in range(6)))
    assert ctx.rows == [[1, 2]] * 6
    assert ctx.attr_cardinality == [0, 6, 6]
    ctx.validate()


def test_context_rejects_bad_rows_and_weights():
    with pytest.raises(ValueError, match="out of range"):
        FormalContext([[1], [0, 1], [1]])
    with pytest.raises(ValueError, match="exceeds"):
        FormalContext([[1], [5], [1]], num_attributes=4)
    with pytest.raises(ValueError, match="positive"):
        FormalContext([[1], [1], [1]], weights=[1, 0, 1])
    with pytest.raises(ValueError, match="differ in length"):
        FormalContext([[1], [1]], weights=[1])


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
