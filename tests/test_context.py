import functools
import random
import sys
import tracemalloc
from itertools import combinations

import pytest

from conceptmine import (
    Concept,
    EnumerationStats,
    FormalContext,
    ParseError,
    build_complete_fptree,
    cbo_enumerate,
    closure,
    compose_remaps,
    context,
    down,
    enumerate_naive,
    lcm2_enumerate,
    lcm3_enumerate,
    mine_concepts,
    parse_cxt,
    parse_fimi,
    preprocess,
)
from conceptmine.bits import set_bits
from conceptmine.context import AttributeRemap

from conftest import EMPTY_COLUMNS_CXT, K1_ROWS, random_context, weighted_context


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2\n3 ١\n", "expected an integer item id, got '١'"),
        ("1 2\n-3\n", "negative item id -3"),
        ("1 2\n4 " + "7" * 5000 + " 5\n", f"expected an integer item id, got '{'7' * 5000}'"),
        ("1 2\n1 x 2\n", "expected an integer item id, got 'x'"),
        ("1\t2\r\n7\tx\t8\r\n", "expected an integer item id, got 'x'"),
        ("\t1\t2\t\r\n3\t-5\r\n", "negative item id -5"),
    ],
)
def test_parse_fimi_errors_name_the_token_after_an_all_digit_line(text, message):
    # Line 1 holds only digit tokens and line 2 a bad one: the one-pass
    # conversion of digit lines leaves every message and line number as the
    # token-by-token path gives them.
    with pytest.raises(ParseError) as caught:
        parse_fimi(text)
    assert str(caught.value) == f"line 2: {message}"
    assert caught.value.line == 2


def test_parse_fimi_bad_token_on_repeated_line_reports_first_line():
    with pytest.raises(ParseError, match="line 4"):
        parse_fimi("1 2\n5\n1 2\n7 y\n1 2\n7 y\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_fimi("1\n3 x\n1\n3 x\n")
    # CRLF lines, the same line with either ending, an unterminated last line
    for text, line in [
        ("1 2\r\n3 x\r\n3 x\r\n", 2),
        ("1 2\r\n3 x\n3 x\r\n", 2),
        ("3 x\r\n1\n3 x\r\n", 1),
        ("1\n1\n1\n1 2 x\r", 4),
    ]:
        with pytest.raises(ParseError) as caught:
            parse_fimi(text)
        assert str(caught.value) == f"line {line}: expected an integer item id, got 'x'"


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
        ("lcm2", {"pruning": False}),
        ("lcm3", {"dense_width": 0}),
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


def _written_differently(seed: int) -> tuple[str, list[list[int]]]:
    """Duplicate-heavy FIMI text in which equal id sets are written differently.

    Lines repeat a few id sets in shuffled token order, with repeated ids,
    runs of spaces and tabs, ``\r\n`` or ``\n`` endings, and blank lines.
    Returns the text and the ids of each line as written.
    """
    rng = random.Random(seed)
    patterns = [rng.sample([3, 7, 11, 400, 1000, 65536], rng.randint(1, 4)) for _ in range(5)]
    text, written = [], []
    for _ in range(400):
        ids = [] if rng.random() < 0.1 else list(rng.choice(patterns))
        ids += rng.sample(ids, min(len(ids), rng.randint(0, 2)))  # repeated ids
        rng.shuffle(ids)
        line = "".join(rng.choice([" ", "  ", "\t", " \t "]) + str(a) for a in ids)
        text.append(line + rng.choice(["", " ", "  "]) + rng.choice(["\n", "\r\n"]))
        written.append(ids)
    return "".join(text), written


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parse_fimi_equals_the_context_of_its_id_lists(seed):
    text, written = _written_differently(seed)
    ctx, remap = parse_fimi(text)
    want = FormalContext([[remap.old_to_new[a] for a in ids] for ids in written])
    assert ctx.rows == want.rows
    assert ctx.weights == want.weights
    assert ctx.attr_cardinality == want.attr_cardinality
    assert ctx.num_attributes == want.num_attributes == len(remap.new_to_old)
    ctx.validate()
    # Equal rows share one list, however their lines were written.
    assert len({id(row) for row in ctx.rows}) == len({tuple(row) for row in ctx.rows})
    assert len(ctx.distinct_rows) == len({tuple(row) for row in ctx.rows})

    for s in (0, 1, 30, 120, 10_000):
        pre, _, merge = preprocess(ctx, s)
        assert (pre.rows, pre.weights, list(merge.groups)) == _reference_preprocess(ctx, s), s
        pre.validate()


def test_parse_fimi_peak_memory_stays_near_the_text_size():
    # The 1,200-row staircase: 720,600 ids in 2.78 MB of text.  Each distinct
    # line becomes one shared list of shared ids; holding every line again as
    # a tuple of fresh ints, or normalising the rows a second time, would
    # take the peak past the bound.
    text = "".join(" ".join(map(str, range(1, i + 1))) + "\n" for i in range(1, 1201))
    tracemalloc.start()
    try:
        ctx, _ = parse_fimi(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.num_objects == ctx.num_attributes == 1200
    assert peak < 8 * len(text), (peak, len(text))


def _reference_parse_fimi(text: str) -> tuple[list[list[int]], list[int]]:
    """Plain FIMI parsing: each line's renumbered ids, and the original ids in order.

    Lines end at ``\n`` with one trailing ``\r`` dropped; each token goes
    through ``int``; a line's ids are deduplicated; ids are renumbered densely.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    items = [{int(t) for t in line.split()} for line in lines]
    ordered = sorted(set().union(*items))
    new = {old: k for k, old in enumerate(ordered, start=1)}
    return [sorted(map(new.__getitem__, ids)) for ids in items], ordered


def _varied_fimi(rng: random.Random, num_lines: int) -> str:
    """FIMI text of repeated lines, mixed endings, odd whitespace and zero-padded ids."""
    patterns = [rng.sample(range(1, 40), rng.randint(0, 6)) for _ in range(12)]
    out = []
    for _ in range(num_lines):
        roll = rng.random()
        if out and roll < 0.3:
            out.append(rng.choice(out))  # the same line, as written
            continue
        ids = list(rng.choice(patterns)) if roll < 0.9 else []
        ids += rng.sample(ids, min(len(ids), rng.randint(0, 2)))  # repeated ids
        rng.shuffle(ids)
        tokens = [f"{a:03d}" if rng.random() < 0.15 else str(a) for a in ids]  # 007 next to 7
        seps = [" ", "  ", "\t", "\x0c", " \t"]
        line = "".join(rng.choice(seps) + t for t in tokens) + rng.choice(["", " ", "\t"])
        out.append(line + rng.choice(["\n", "\n", "\r\n"]))
    text = "".join(out)
    return text[:-1] if rng.random() < 0.5 else text  # maybe an unterminated last line


def _assert_parses_as_reference(text: str) -> None:
    ctx, remap = parse_fimi(text)
    rows, ordered = _reference_parse_fimi(text)
    assert ctx.rows == rows
    assert remap.new_to_old == tuple(ordered)
    assert remap.old_to_new == {old: k for k, old in enumerate(ordered, start=1)}
    assert ctx.weights == [1] * len(rows)
    card = [sum(k in row for row in rows) for k in range(1, len(ordered) + 1)]
    assert ctx.attr_cardinality == [0, *card]
    # One shared list per id set, and the distinct rows in order of first line.
    first_row = {}
    for row in ctx.rows:
        assert first_row.setdefault(tuple(row), row) is row
    assert ctx.distinct_rows == list(map(list, first_row))
    assert list(map(id, ctx.distinct_rows)) == list(map(id, first_row.values()))
    ctx.validate()


@pytest.mark.parametrize("piece", [1, 3, 16, 100])
@pytest.mark.parametrize("seed", range(4))
def test_parse_fimi_matches_a_plain_reference_across_pieces(monkeypatch, piece, seed):
    # Small pieces put piece boundaries inside lines, at "\r\n" and at the end.
    monkeypatch.setattr(context, "_PIECE", piece)
    rng = random.Random(seed)
    for num_lines in (0, 1, 2, 5, 40, 300):
        _assert_parses_as_reference(_varied_fimi(rng, num_lines))
    for text in ("", "\n", "\n\n", "\r\n", "7", "7\r", "1 2\n\n", "007 7 0\r\n\r\n3"):
        _assert_parses_as_reference(text)


def test_parse_fimi_matches_a_plain_reference_on_text_of_many_pieces():
    text = _varied_fimi(random.Random(5), 24_000)
    assert len(text) > 3 * context._PIECE
    _assert_parses_as_reference(text)


@pytest.mark.parametrize("piece", [1, 4, None])
@pytest.mark.parametrize("seed", range(3))
def test_parse_fimi_error_names_the_first_line_of_the_bad_token(monkeypatch, piece, seed):
    if piece is not None:
        monkeypatch.setattr(context, "_PIECE", piece)
    rng = random.Random(seed)
    lines = _varied_fimi(rng, 60).split("\n")
    bad = rng.randrange(len(lines))
    lines[bad] = lines[bad].removesuffix("\r") + " x" + rng.choice(["", "\r"])
    # the bad line again further on, as written
    for at in sorted(rng.sample(range(bad + 1, len(lines) + 1), min(3, len(lines) - bad))):
        lines.insert(at, lines[bad])
    with pytest.raises(ParseError) as caught:
        parse_fimi("\n".join(lines))
    assert caught.value.line == bad + 1
    assert str(caught.value) == f"line {bad + 1}: expected an integer item id, got 'x'"


def test_parse_fimi_keeps_no_string_per_input_line():
    # 60,000 lines drawn from 200 distinct ones, as in a duplicate-heavy log:
    # the parse keeps one row reference per line, not the line's text.
    rng = random.Random(0)
    distinct = [" ".join(map(str, rng.sample(range(100), rng.randint(1, 6)))) for _ in range(200)]
    lines = [rng.choice(distinct) for _ in range(60_000)]
    text = "\n".join(lines) + "\n"
    one_string_per_line = sys.getsizeof(lines) + sum(map(sys.getsizeof, text.split("\n")))
    del lines
    tracemalloc.start()
    try:
        ctx, _ = parse_fimi(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.num_objects == 60_000
    assert peak < one_string_per_line, (peak, one_string_per_line)


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


@pytest.mark.parametrize(
    "source",
    [
        "B\n2020\n1\n1\n\no\na\nX\n",  # a name made only of digits
        "B\n\n1\n1\n\no\na\nX\n",  # the usual empty name line
        "B\n1\n1\n\no\na\nX\n",  # no name line at all
    ],
)
def test_parse_cxt_name_line_told_apart_from_counts(source):
    ctx, _ = parse_cxt(source)
    assert ctx.rows == [[1]]
    assert (ctx.object_names, ctx.attr_names) == (["o"], ["a"])


def test_parse_cxt_digit_name_keeps_count_errors():
    with pytest.raises(ParseError) as caught:
        parse_cxt("B\n2020\n1\n1\nx\no\na\nX\n")  # no blank line after the counts
    assert str(caught.value) == "line 5: expected a blank line before the name block, got 'x'"
    with pytest.raises(ParseError) as caught:
        parse_cxt("B\n2020\n1\nx\n\no\na\nX\n")  # two counts only: no name line
    assert str(caught.value) == "line 4: expected a blank line before the name block, got 'x'"


@pytest.mark.parametrize("text", ["0_2", "+2", "\uff12", "1_0", "-1"])
def test_parse_cxt_counts_are_ascii_decimal(text):
    # Not a count, so right after the header it is the optional name line.
    ctx, _ = parse_cxt(f"B\n{text}\n1\n1\n\no\na\nX\n")
    assert ctx.rows == [[1]]
    with pytest.raises(ParseError) as caught:
        parse_cxt(f"B\nname\n{text}\n1\n\no\na\nX\n")
    assert str(caught.value) == f"line 3: expected object count, got {text!r}"
    with pytest.raises(ParseError) as caught:
        parse_cxt(f"B\n\n1\n{text}\n\no\na\nX\n")
    assert str(caught.value) == f"line 4: expected attribute count, got {text!r}"


def test_parse_cxt_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="expected header"):
        parse_cxt("Z\n\n1\n1\n\no\na\nX\n")
    with pytest.raises(ParseError):
        parse_cxt("B\n\n1\n2\n\no\na1\na2\nX\n")  # row shorter than attribute count
    with pytest.raises(ParseError, match="illegal"):
        parse_cxt("B\n\n1\n1\n\no\na\n?\n")


@pytest.mark.parametrize(
    "source, message",
    [
        ("", "line 1: unexpected end of input, expected header 'B'"),
        ("B\n", "line 2: unexpected end of input, expected object count"),
        ("B\n\n2\n2\n\no1\n", "line 7: unexpected end of input, expected object name"),
        (
            "B\n\n2\n2\n\no1\no2\na\nb\nX.\n",  # the second row is missing
            "line 11: unexpected end of input, expected incidence row",
        ),
    ],
)
def test_parse_cxt_refuses_truncated_input(source, message):
    with pytest.raises(ParseError) as caught:
        parse_cxt(source)
    assert str(caught.value) == message


def test_parse_cxt_refuses_lines_after_the_last_row():
    # Two objects declared and three rows given: the third is not mined silently.
    with pytest.raises(ParseError) as caught:
        parse_cxt("B\n\n2\n2\n\no1\no2\na\nb\nX.\n.X\n\n XX\n\n")
    assert str(caught.value) == "line 13: unexpected line after the last incidence row: ' XX'"
    assert parse_cxt("B\n\n2\n2\n\no1\no2\na\nb\nX.\n.X\n \n\t\n")[0].rows == [[1], [2]]


def test_parse_cxt_crlf_and_separators_inside_names():
    ctx, _ = parse_cxt("B\r\n\r\n2\r\n1\r\n\r\no\x0c1\r\no\u20282\r\na\x1c\r\nX\r\n.\r\n")
    assert ctx.object_names == ["o\x0c1", "o\u20282"]
    assert ctx.attr_names == ["a\x1c"]
    assert ctx.rows == [[1], []]


CXT_LINE_ENDS = [
    (
        "B\r\n\r\n2\r\n1\r\n\r\no\x0c1\r\no\u20282\r\na\x1c\r\nX\r\n.\r\n",
        (["o\x0c1", "o\u20282"], ["a\x1c"], [[1], []]),
    ),
    # A name line, blank and "\r"-holding names, and no final newline.
    (
        "B\nctx\u2028name\n3\n2\n\n\r\no\rp\x0c\n\na1\n\x0ca2\r\nX.\r\n..\n.X",
        (["", "o\rp\x0c", ""], ["a1", "\x0ca2"], [[1], [], [2]]),
    ),
    # Only blank lines follow the last row, and they are accepted.
    ("B\n\n1\n3\n\n\u2028\nx\r\ny\n\n.X.\r\n\r\n\n", (["\u2028"], ["x", "y", ""], [[2]])),
]


@pytest.mark.parametrize("piece", [1, 3, 16, None])
def test_parse_cxt_splits_lines_alike_across_pieces(monkeypatch, piece):
    # parse_cxt takes its lines from the pieces parse_fimi reads: small pieces
    # put piece boundaries inside names, at "\r\n" and at the end.
    if piece is not None:
        monkeypatch.setattr(context, "_PIECE", piece)
    for text, (object_names, attr_names, rows) in CXT_LINE_ENDS:
        ctx, _ = parse_cxt(text)
        assert ctx.object_names == object_names, text
        assert ctx.attr_names == attr_names, text
        assert ctx.rows == rows, text


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


def test_preprocess_keeps_empty_rows_and_rows_emptied_by_filtering():
    ctx = FormalContext([[1], [], [2], [2]], num_attributes=2)
    pre, remap, merge = preprocess(ctx, 2)
    # attribute 1 (cardinality 1) goes; its row joins the originally empty row
    assert remap.new_to_old == (2,)
    assert sorted(map(tuple, pre.rows)) == [(), (1,)]
    assert pre.total_weight == 4
    assert sorted(x for group in merge.groups for x in group) == [0, 1, 2, 3]


def test_preprocess_keeps_empty_attributes_last_only_at_support_0():
    ctx = FormalContext([[2], [2, 4], [4], [4]], num_attributes=5)
    pre, remap, _ = preprocess(ctx, 0)
    # 1, 3 and 5 are in no row: at support 0 they stay, after 4 and 2, by id
    assert remap.new_to_old == (4, 2, 1, 3, 5)
    assert [pre.attr_cardinality[a] for a in range(1, 6)] == [3, 2, 0, 0, 0]
    assert pre.num_attributes == 5
    pre, remap, _ = preprocess(ctx, 1)
    assert remap.new_to_old == (4, 2)
    assert pre.num_attributes == 2


@pytest.mark.parametrize("algorithm", ["naive", "cbo", "lcm2", "lcm3"])
def test_mined_bottom_spans_the_empty_attributes_once(algorithm):
    ctx, remap = parse_cxt(EMPTY_COLUMNS_CXT)
    stats = EnumerationStats()
    mined = mine_concepts(
        ctx, 0, algorithm=algorithm, with_extents=True, base_remap=remap, stats=stats
    )
    assert stats.concepts_emitted == len(mined)  # the engine made the bottom, no patch did
    assert sorted(mined, key=lambda c: c.intent) == [
        Concept((), 4, (0, 1, 2, 3)),
        Concept((1,), 2, (0, 2)),
        Concept((1, 2, 3, 4), 0, ()),
        Concept((1, 3), 1, (0,)),
        Concept((3,), 2, (0, 1)),
    ]


def test_mine_concepts_sink_sees_the_list_in_order():
    # With a sink, mine_concepts keeps nothing and returns None; the sink gets
    # the list form's concepts one by one, in its order, with equal counters.
    engines = [("naive", {}), ("cbo", {}), ("lcm2", {})]
    engines += [("lcm3", {"dense_width": width}) for width in (0, 4, None)]
    contexts = [random_context(i) for i in range(12)] + [weighted_context(s) for s in range(24)]
    for ctx in contexts:
        for s in (0, 1, 3):
            for algorithm, options in engines:
                for with_extents in (False, True):
                    kw = dict(algorithm=algorithm, with_extents=with_extents, **options)
                    listed, streamed = EnumerationStats(), EnumerationStats()
                    want = mine_concepts(ctx, s, stats=listed, **kw)
                    got = []
                    assert mine_concepts(ctx, s, stats=streamed, sink=got.append, **kw) is None
                    assert got == want, (algorithm, options, s, with_extents)
                    assert streamed == listed, (algorithm, options, s, with_extents)


def test_engines_make_the_bottom_of_the_preprocessed_context():
    # Run on preprocess(ctx, 0) and mapped back with nothing added or removed,
    # every engine gives the concepts of ctx itself, the bottom over the
    # attributes that no row holds included.
    engines = [
        enumerate_naive,
        cbo_enumerate,
        lcm2_enumerate,
        functools.partial(lcm2_enumerate, pruning=False),
        *(functools.partial(lcm3_enumerate, dense_width=w) for w in (0, 1, 4, None)),
    ]
    contexts = [parse_cxt(EMPTY_COLUMNS_CXT)[0], FormalContext([], num_attributes=3)]
    contexts += [weighted_context(seed) for seed in (4, 9, 11, 17, 24, 27)]
    for i, ctx in enumerate(contexts):
        want = set(enumerate_naive(ctx, 0, with_extents=True))
        pre, remap, merge = preprocess(ctx, 0)
        assert pre.num_attributes == ctx.num_attributes, i
        for engine in engines:
            got = [
                Concept(remap.to_original(c.intent), c.support, merge.to_original(c.extent))
                for c in engine(pre, 0, with_extents=True)
            ]
            assert len(got) == len(want) and set(got) == want, (i, engine)


def test_preprocess_orders_rows_by_descending_weight():
    # Attribute 2 (cardinality 5) becomes 1, attribute 1 (cardinality 3) becomes 2.
    ctx = FormalContext([[1], [2], [1, 2], [2], [1, 2], [2]])
    pre, _, merge = preprocess(ctx, 0)
    assert pre.rows == [[1], [1, 2], [2]]
    assert pre.weights == [3, 2, 1]
    assert merge.groups == ((1, 3, 5), (2, 4), (0,))


def test_preprocess_object_sort():
    # Rows of equal weight keep their input order.
    ctx = FormalContext([[1], [1, 2], [1, 2, 3]])
    pre, _, merge = preprocess(ctx, 0)
    assert [len(r) for r in pre.rows] == [1, 2, 3]
    assert merge.groups == ((0,), (1,), (2,))


def _reference_preprocess(ctx, min_support):
    """Rows, weights and groups of ``preprocess``, mapping and merging object by object.

    Equal mapped rows merge when the distinct ones number at most half the objects.
    """
    threshold = max(1, min_support)
    retained = [a for a in range(1, ctx.num_attributes + 1) if ctx.attr_cardinality[a] >= threshold]
    retained.sort(key=lambda a: (-ctx.attr_cardinality[a], a))
    new = {old: k for k, old in enumerate(retained, start=1)}
    kept = [
        (x, sorted(new[a] for a in row if a in new), w)
        for x, (row, w) in enumerate(zip(ctx.rows, ctx.weights))
    ]
    merge_rows = 2 * len({tuple(mapped) for _, mapped, _ in kept}) <= len(kept)
    merged: dict = {}
    for x, mapped, w in kept:
        key = tuple(mapped) if merge_rows else x
        row, weight, group = merged.get(key, (mapped, 0, []))
        merged[key] = (row, weight + w, group + [x])
    ordered = sorted(merged.values(), key=lambda item: -item[1])
    return [r for r, _, _ in ordered], [w for _, w, _ in ordered], [tuple(g) for _, _, g in ordered]


def test_preprocess_matches_object_by_object_reference():
    # Rows from a few patterns mostly merge; with as many patterns as rows
    # most do not, though equal rows remain.
    rng = random.Random(5)
    sides = set()
    for i in range(60):
        m = rng.randint(1, 40)
        k = m if i % 4 >= 2 else rng.randint(1, 6)
        patterns = [rng.sample(range(1, 9), rng.randint(0, 6)) for _ in range(k)]
        rows = [list(rng.choice(patterns)) for _ in range(m)]
        if i % 2:  # fresh lists, equal rows not shared
            ctx = FormalContext(rows, weights=[rng.randint(1, 4) for _ in rows], num_attributes=8)
        else:
            ctx, _ = parse_fimi("".join(" ".join(map(str, row)) + "\n" for row in rows))
        for s in (0, 3, 8):
            pre, _, merge = preprocess(ctx, s)
            want = _reference_preprocess(ctx, s)
            assert (pre.rows, pre.weights, list(merge.groups)) == want, (i, s)
            pre.validate()
            equal_rows = len(pre.distinct_rows) < pre.num_objects
            sides.add((pre.num_objects < ctx.num_objects, equal_rows))
    assert sides >= {(True, False), (False, True), (False, False)}


def test_unmerged_preprocess_equals_the_constructor_built_context():
    # Unmerged preprocessing keeps its shared mapped rows as they are; the
    # public constructor, which normalises every row again, must agree.
    # Both corpora hold contexts on each side of the merge rule.
    contexts = [random_context(i) for i in range(40)] + [weighted_context(s) for s in range(120)]
    unmerged_with_equal_rows = 0
    for i, ctx in enumerate(contexts):
        for s in (0, 1, 3):
            pre, _, _ = preprocess(ctx, s)
            built = FormalContext(pre.rows, pre.weights, num_attributes=pre.num_attributes)
            assert pre.rows == built.rows and pre.weights == built.weights, (i, s)
            assert pre.distinct_rows == built.distinct_rows, (i, s)
            assert pre.attr_cardinality == built.attr_cardinality, (i, s)
            pre.validate()
            if pre.num_objects == ctx.num_objects > len(pre.distinct_rows):
                unmerged_with_equal_rows += 1
    assert unmerged_with_equal_rows > 0


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


def test_equal_rows_share_one_list_however_written():
    ctx = FormalContext([[1, 2], [2, 1], [1, 1, 2]])
    assert ctx.rows == [[1, 2]] * 3
    assert ctx.rows[0] is ctx.rows[1] is ctx.rows[2]
    assert ctx.distinct_rows == [[1, 2]]
    assert ctx.attr_cardinality == [0, 3, 3]
    ctx.validate()
    # validate() refuses equal rows that are separate lists.
    unshared = FormalContext._of_normal_rows([[1, 2], [1, 2]], [1, 1], [0, 2, 2])
    with pytest.raises(AssertionError, match="unshared"):
        unshared.validate()


def test_context_rejects_bad_rows_and_weights():
    with pytest.raises(ValueError, match="out of range"):
        FormalContext([[1], [0, 1], [1]])
    with pytest.raises(ValueError, match="exceeds"):
        FormalContext([[1], [5], [1]], num_attributes=4)
    with pytest.raises(ValueError, match="positive"):
        FormalContext([[1], [1], [1]], weights=[1, 0, 1])
    with pytest.raises(ValueError, match="differ in length"):
        FormalContext([[1], [1]], weights=[1])
    # Ids and the count index bits: a float or a string is no id, not even
    # one equal to the id of an earlier row.
    for rows in ([[1.0]], [["1"]], [[2], [1, 2.5]], [[1], [1.0]]):
        with pytest.raises(ValueError, match="attribute ids must be integers"):
            FormalContext(rows)
    with pytest.raises(ValueError, match="num_attributes must be an integer"):
        FormalContext([[1]], num_attributes=2.0)
    # A negative count is refused as such, not blamed on an id no row holds.
    with pytest.raises(ValueError, match="^num_attributes must be non-negative, got -1$"):
        FormalContext([], num_attributes=-1)
    with pytest.raises(ValueError, match="^num_attributes must be non-negative, got -1$"):
        build_complete_fptree([], width=-1)


def test_context_weights_must_be_integers():
    # A float weight has no bit-planes: it is refused at construction, not mid-run.
    with pytest.raises(ValueError, match="integers"):
        FormalContext([[1, 2], [2]], weights=[2.0, 1])
    np = pytest.importorskip("numpy")
    ctx = FormalContext([[1, 2], [2]], weights=np.array([2, 1]))
    assert ctx.weights == [2, 1] and all(type(w) is int for w in ctx.weights)
    for algorithm in ("cbo", "lcm2", "lcm3"):
        mined = mine_concepts(ctx, 1, algorithm=algorithm)
        assert {(c.intent, c.support) for c in mined} == {((2,), 3), ((1, 2), 2)}
    # numpy ids and counts are stored as int too: a numpy int's shift would
    # wrap, and attribute 70 would drop out of its row's mask.
    ctx = FormalContext([[np.int64(70), np.int64(2)], [np.int64(70)]])
    assert ctx.row_masks == [1 << 69 | 2, 1 << 69]
    assert {type(a) for row in ctx.rows for a in row} == {type(m) for m in ctx.row_masks} == {int}
    assert closure(ctx, (70,)) == (70,)
    plain = FormalContext([[70, 2], [70]])
    for engine in (cbo_enumerate, lcm2_enumerate, lcm3_enumerate):
        assert set(engine(ctx, with_extents=True)) == set(engine(plain, with_extents=True))
    ctx = FormalContext([[1]], num_attributes=np.int64(70))
    assert type(ctx.num_attributes) is int and ctx.num_attributes == 70


def test_preprocess_merges_only_when_that_halves_the_rows():
    # 2 distinct rows of 4 objects, exactly half: merged, weights summed.
    pre, _, merge = preprocess(FormalContext([[1], [2], [1], [2]]), 0)
    assert pre.rows == [[1], [2]]
    assert pre.weights == [2, 2]
    assert merge.groups == ((0, 2), (1, 3))
    # The rule counts mapped rows: all four empty once filtering drops every attribute.
    pre, _, merge = preprocess(FormalContext([[1], [2], [3], [4]]), 2)
    assert pre.rows == [[]]
    assert pre.weights == [4]
    assert merge.groups == ((0, 1, 2, 3),)
    # 3 distinct rows of 5 objects: one row per object, with its own weight
    # and group, heaviest first; equal rows still share one list.  Attributes
    # 2 and 3 (cardinality 3) become 1 and 2, attribute 1 (cardinality 2) 3.
    ctx = FormalContext([[1], [2], [1], [2], [3]], weights=[1, 2, 1, 1, 3])
    pre, _, merge = preprocess(ctx, 0)
    assert pre.rows == [[2], [1], [3], [3], [1]]
    assert pre.weights == [3, 2, 1, 1, 1]
    assert merge.groups == ((4,), (1,), (0,), (2,), (3,))
    assert pre.rows[2] is pre.rows[3] and pre.distinct_rows == [[2], [1], [3]]
    pre.validate()


def test_remap_round_trip_property():
    for i in range(25):
        ctx = random_context(i)
        _, remap, _ = preprocess(ctx, i % 3)
        for new_id, old_id in enumerate(remap.new_to_old, start=1):
            assert remap.old_to_new[old_id] == new_id


def test_weight_conservation_property():
    # Every object is kept: empty rows, original or emptied by filtering, too,
    # on both sides of the merge rule.
    corpus = [random_context(i) for i in range(25)] + [weighted_context(i) for i in range(120)]
    for ctx in corpus:
        for s in (0, 1, 3):
            pre, _, merge = preprocess(ctx, s)
            assert pre.total_weight == ctx.total_weight
            objects = [x for group in merge.groups for x in group]
            assert sorted(objects) == list(range(ctx.num_objects))


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
    first = AttributeRemap((5, 9, 12))
    second = AttributeRemap((3, 1))
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


def test_columns_equal_the_rows_holding_each_attribute():
    wide = FormalContext([list(range(1, 20_001)), [1, 2], [1, 3], [4]])
    for ctx in [wide] + [weighted_context(seed) for seed in range(120)]:
        want = [0] * (ctx.num_attributes + 1)
        for x, row in enumerate(ctx.rows):
            for a in row:
                want[a] |= 1 << x
        assert ctx.columns == want
    assert wide.columns[1] == 0b0111 and wide.columns[5] == 0b0001


def test_columns_memory_is_the_size_of_the_bitsets():
    # The 1,200-row staircase holds 720,600 incidences; per-attribute lists of
    # row indices kept beside the bitsets would take about 29 times their size.
    ctx = FormalContext([list(range(1, i + 1)) for i in range(1, 1201)])
    tracemalloc.start()
    try:
        columns = ctx.columns
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(map(sys.getsizeof, columns))
    assert kept <= 1.5 * size, (kept, size)
    assert peak <= 4 * size, (peak, size)


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


def _counted_contexts():
    """Unit-weight and weighted contexts, as built and as preprocessed (merged or not)."""
    duplicated = FormalContext([[1, 2], [2, 3], [1, 2], [3], [1, 2], [2, 3], [], [3]] * 3)
    contexts = [
        FormalContext([], num_attributes=0),
        FormalContext([], num_attributes=3),
        FormalContext([[]] * 4, num_attributes=2),
        FormalContext(K1_ROWS),
        FormalContext(K1_ROWS, weights=[1, 2, 3, 4]),
        duplicated,
    ]
    contexts += [random_context(i) for i in range(30)]
    contexts += [weighted_context(seed) for seed in range(60)]
    contexts += [preprocess(ctx, 0)[0] for ctx in contexts[3:]]
    return contexts


def test_column_weights_equal_the_per_row_sums():
    rng = random.Random(5)
    planes = set()
    for ctx in _counted_contexts():
        m, n = ctx.num_objects, ctx.num_attributes
        planes.add(min(len(ctx.weight_planes), 2))
        everything = (1 << m) - 1
        row_sets = [0, everything, *ctx.columns[1:], *(rng.getrandbits(m) for _ in range(4))]
        # Bits past the last object belong to no row and weigh nothing.
        row_sets += [rows | rng.getrandbits(8) << m for rows in row_sets[:4]]
        attr_lists = [(), tuple(range(1, n + 1)), tuple(rng.sample(range(1, n + 1), n // 2))]
        for rows in row_sets:
            members = [x for x in set_bits(rows) if x < m]
            weight = sum(ctx.weights[x] for x in members)
            assert ctx.weight_of(rows) == weight
            for attrs in attr_lists:
                counts = [sum(ctx.weights[x] for x in members if a in ctx.rows[x]) for a in attrs]
                assert ctx.column_weights(rows, attrs) == (counts, weight), (ctx.rows, rows, attrs)
    assert planes == {0, 1, 2}  # no rows, every weight 1, and weights above 1


def test_weight_of_empty_context():
    ctx = FormalContext([], num_attributes=0)
    assert ctx.columns == [0] and ctx.weight_planes == []
    assert ctx.weight_of(0) == 0
