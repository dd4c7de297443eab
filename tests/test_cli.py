import json

import pytest

from conceptmine import concept_digest, mine_concepts, parse_fimi
from conceptmine.cli import bench, generate_context, main

from conftest import concept_set

K1_TEXT = "1 2 3\n1 3\n2 3\n3 4\n"


def run_cli(args):
    return main(args)


def test_mine_lcm2_k1(tmp_path, capsys):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert run_cli(["mine", str(data), "--algorithm", "lcm2", "--min-support", "2"]) == 0
    out = capsys.readouterr()
    assert sorted(out.out.splitlines()) == ["1 3 (2)", "2 3 (2)", "3 (4)"]
    assert "3 concepts" in out.err


def test_mine_sorted_flag_and_output_file(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    target = tmp_path / "out.txt"
    assert run_cli(["mine", str(data), "--min-support", "2", "--sorted", "-o", str(target)]) == 0
    assert target.read_text().splitlines() == ["1 3 (2)", "2 3 (2)", "3 (4)"]


def test_mine_invalid_ratio_exits_3(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert run_cli(["mine", str(data), "--min-support-ratio", "1.1"]) == 3


def test_mine_both_support_flags_exit_3(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    code = run_cli(["mine", str(data), "--min-support", "1", "--min-support-ratio", "0.5"])
    assert code == 3


def test_mine_ratio_uses_ceiling(tmp_path, capsys):
    data = tmp_path / "k1.dat"
    data.write_text("1\n1\n1 2\n2\n2\n")
    assert run_cli(["mine", str(data), "--min-support-ratio", "0.5", "--sorted"]) == 0
    # ceil(0.5 * 5) = 3: the empty itemset and both singletons reach support 3
    assert capsys.readouterr().out.splitlines() == ["(5)", "1 (3)", "2 (3)"]


def test_mine_empty_input(tmp_path, capsys):
    data = tmp_path / "empty.dat"
    data.write_text("")
    assert run_cli(["mine", str(data), "--min-support", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_mine_missing_file_exits_1(tmp_path):
    assert run_cli(["mine", str(tmp_path / "nope.dat")]) == 1


def test_mine_parse_error_exits_2(tmp_path, capsys):
    data = tmp_path / "bad.dat"
    data.write_text("1 2\nfoo\n")
    assert run_cli(["mine", str(data)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_mine_file_lines_end_only_at_newline(tmp_path, capsys):
    data = tmp_path / "cr.dat"
    data.write_bytes(b"1\r2\r\n1 2\n")
    assert run_cli(["mine", str(data), "--min-support", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 2 (2)"]


@pytest.mark.parametrize("token", ["1_0", "+3", "-4"])
def test_mine_bad_item_id_exits_2(tmp_path, capsys, token):
    data = tmp_path / "bad.dat"
    data.write_text(f"1 2\n2 {token}\n")
    assert run_cli(["mine", str(data)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_mine_algorithm_specific_flags_rejected(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert run_cli(["mine", str(data), "--algorithm", "cbo", "--no-pruning"]) == 3
    assert run_cli(["mine", str(data), "--algorithm", "lcm2", "--dense-width", "4"]) == 3
    # lcm3 runs the rule store in its wide phase, so it takes --no-pruning
    assert run_cli(["mine", str(data), "--algorithm", "lcm3", "--no-pruning"]) == 0


def test_mine_naive_capacity_exits_4(tmp_path):
    data = tmp_path / "wide.dat"
    data.write_text(" ".join(str(a) for a in range(1, 26)) + "\n")
    assert run_cli(["mine", str(data), "--algorithm", "naive", "--min-support", "1"]) == 4


def test_mine_dense_width_capacity_exits_4(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    code = run_cli(["mine", str(data), "--algorithm", "lcm3", "--dense-width", "1000000"])
    assert code == 4


def test_mine_too_deep_exits_4(tmp_path, capsys):
    # A 1,200-attribute staircase (row i = {1..i}) recurses past Python's limit.
    data = tmp_path / "staircase.dat"
    data.write_text("".join(" ".join(map(str, range(1, i + 1))) + "\n" for i in range(1, 1201)))
    assert run_cli(["mine", str(data), "--algorithm", "cbo", "-o", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "recursion limit" in err


def test_mine_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(K1_TEXT))
    assert run_cli(["mine", "-", "--min-support", "2", "--sorted"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 3 (2)", "2 3 (2)", "3 (4)"]


def test_mine_stats_json_keys(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    stats_path = tmp_path / "stats.json"
    assert run_cli(["mine", str(data), "--min-support", "1", "--stats", str(stats_path)]) == 0
    record = json.loads(stats_path.read_text())
    assert list(record) == [
        "concepts_emitted",
        "recursive_calls",
        "closure_computations",
        "canonicity_failures",
        "pruning_rule_hits",
        "conditional_dbs_built",
        "wall_ms",
    ]


def test_mine_with_extents(tmp_path, capsys):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert run_cli(["mine", str(data), "--min-support", "2", "--with-extents", "--sorted"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["1 3 (2) / 0 1", "2 3 (2) / 0 2", "3 (4) / 0 1 2 3"]


def test_mine_cxt_input(tmp_path, capsys):
    data = tmp_path / "k1.cxt"
    data.write_text("B\n\n4\n4\n\no1\no2\no3\no4\na\nb\nc\nd\nXXX.\nX.X.\n.XX.\n..XX\n")
    code = run_cli(["mine", str(data), "--format", "cxt", "--min-support", "2", "--sorted"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["1 3 (2)", "2 3 (2)", "3 (4)"]


def test_mine_no_attr_sort_same_concepts(tmp_path, capsys):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert run_cli(["mine", str(data), "--min-support", "1", "--sorted"]) == 0
    sorted_run = capsys.readouterr().out
    assert run_cli(["mine", str(data), "--min-support", "1", "--sorted", "--no-attr-sort"]) == 0
    unsorted_run = capsys.readouterr().out
    assert sorted_run == unsorted_run


def test_permutation_invariance(tmp_path, capsys):
    data = tmp_path / "a.dat"
    data.write_text(K1_TEXT)
    shuffled = tmp_path / "b.dat"
    shuffled.write_text("3 4\n2 3\n1 2 3\n1 3\n")
    outputs = []
    for path in (data, shuffled):
        assert run_cli(["mine", str(path), "--min-support", "1", "--sorted"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_gen_deterministic(capsys):
    assert run_cli(["gen", "--seed", "11", "--objects", "8", "--attributes", "6", "--density", "0.4"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["gen", "--seed", "11", "--objects", "8", "--attributes", "6", "--density", "0.4"]) == 0
    assert capsys.readouterr().out == first
    ctx, _ = parse_fimi(first)
    assert ctx.num_objects == 8


def test_generate_density_extremes():
    empty = generate_context(3, 5, 4, 0.0)
    assert all(row == [] for row in empty.rows)
    full = generate_context(3, 5, 4, 1.0)
    assert all(row == [1, 2, 3, 4] for row in full.rows)
    assert concept_set(mine_concepts(full, 0)) == {((1, 2, 3, 4), 5)}


def test_generate_same_seed_same_context():
    a = generate_context(99, 20, 10, 0.3)
    b = generate_context(99, 20, 10, 0.3)
    assert a.rows == b.rows


def test_bench_csv(tmp_path, capsys):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    code = run_cli(
        ["bench", str(data), "--algorithms", "cbo,lcm2", "--min-support", "1", "--repeats", "1"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("algorithm,wall_ms_median,concepts")
    assert len(lines) == 3
    assert lines[1].startswith("cbo,") and lines[2].startswith("lcm2,")


def test_bench_generated_single_config(capsys):
    code = run_cli(
        [
            "bench",
            "--algorithms",
            "lcm2",
            "--objects",
            "40",
            "--attributes",
            "10",
            "--density",
            "0.2",
            "--seed",
            "5",
            "--min-support",
            "2",
            "--repeats",
            "1",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_bench_digest_mismatch_exits_5(tmp_path, capsys, monkeypatch):
    import conceptmine.cli as cli_module

    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)

    real = cli_module.mine_concepts

    def faulty(ctx, min_support, *, algorithm, **kw):
        concepts = real(ctx, min_support, algorithm=algorithm, **kw)
        if algorithm == "lcm2":
            concepts = concepts[:-1]  # drop a concept: simulated regression
        return concepts

    monkeypatch.setattr(cli_module, "mine_concepts", faulty)
    code = run_cli(["bench", str(data), "--algorithms", "cbo,lcm2", "--min-support", "1"])
    assert code == 5
    assert "disagree" in capsys.readouterr().err


def test_bench_bad_dense_width_exits_4(tmp_path, capsys):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    code = run_cli(["bench", str(data), "--algorithms", "lcm3", "--dense-width", "-1"])
    assert code == 4
    assert "non-negative" in capsys.readouterr().err


def test_bench_function_checks_digests(k1):
    rows = bench(k1, None, ["cbo", "lcm2", "lcm3"], 1, repeats=1)
    assert [r["algorithm"] for r in rows] == ["cbo", "lcm2", "lcm3"]
    assert all(r["concepts"] == 5 for r in rows)


def test_concept_digest_order_independent(k1):
    a = mine_concepts(k1, 1, algorithm="cbo")
    b = list(reversed(mine_concepts(k1, 1, algorithm="lcm2")))
    assert concept_digest(a) == concept_digest(b)


def test_attribute_relabeling_invariance(tmp_path, capsys):
    # Relabeling attribute ids by a bijection and un-mapping afterwards gives
    # the same itemsets; dense parse-time remapping makes this a pure rename.
    relabel = {1: 40, 2: 17, 3: 5, 4: 23}
    rows = [[relabel[a] for a in row] for row in ([1, 2, 3], [1, 3], [2, 3], [3, 4])]
    text = "".join(" ".join(map(str, sorted(r))) + "\n" for r in rows)
    data = tmp_path / "relabeled.dat"
    data.write_text(text)
    assert run_cli(["mine", str(data), "--min-support", "1", "--sorted"]) == 0
    got = capsys.readouterr().out.splitlines()
    expected = set()
    for c in mine_concepts(parse_fimi(K1_TEXT)[0], 1):
        intent = " ".join(map(str, sorted(relabel[a] for a in c.intent)))
        expected.add((intent + f" ({c.support})").strip())
    assert set(got) == expected
