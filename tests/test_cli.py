import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conceptmine import concept_digest, mine_concepts, parse_fimi
from conceptmine.cli import _resolve_support, bench, generate_context, main

from conftest import concept_set

K1_TEXT = "1 2 3\n1 3\n2 3\n3 4\n"
ROOT = Path(__file__).resolve().parent.parent


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
    # 0.07 * 100 is 7.000000000000001 in floats; the threshold is still 7.
    data.write_text("1 2\n" * 7 + "3\n" * 93)
    assert run_cli(["mine", str(data), "--min-support-ratio", "0.07", "--sorted"]) == 0
    assert capsys.readouterr().out.splitlines() == ["(100)", "1 2 (7)", "3 (93)"]


def test_support_ratio_is_exact_on_the_decimal_ratio():
    # The threshold is ceil(R * objects) for R as written, exponent forms included.
    rng = random.Random(5)
    ratios = [0.0, 1.0, 0.07, 0.14, 0.27, 0.54, 0.55, 0.56, 1e-05, 1.5e-07, 5e-324, 1 / 3]
    ratios += [round(rng.random(), rng.randint(1, 8)) for _ in range(500)]
    ratios += [rng.random() * 10 ** -rng.randint(1, 300) for _ in range(500)]
    for ratio in ratios:
        for total in (0, 1, 7, 100, 60_000, 10**9 + 7):
            args = argparse.Namespace(min_support=None, min_support_ratio=ratio)
            expected = math.ceil(Fraction(repr(ratio)) * total)
            assert _resolve_support(args, total) == expected, (ratio, total)


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


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "fmt, text, line",
    [
        pytest.param("fimi", b"1 2\n1 \xff\n", 2, id="fimi"),
        pytest.param("cxt", b"B\n\n2\n1\n\no1\no\xff2\na\nX\n.\n", 7, id="cxt"),
    ],
)
@pytest.mark.parametrize("command", ["mine", "bench"])
def test_non_utf8_input_exits_2(tmp_path, capsys, monkeypatch, command, fmt, text, line, source):
    if source == "file":
        path = tmp_path / "bad.dat"
        path.write_bytes(text)
        target = str(path)
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
        target = "-"
    assert run_cli([command, target, "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err == f"conceptmine: parse error: line {line}: byte 0xff is not valid UTF-8\n"


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


def test_failed_mine_leaves_no_output_file(tmp_path):
    data = tmp_path / "wide.dat"
    data.write_text(" ".join(str(a) for a in range(1, 26)) + "\nfoo\n")
    target = tmp_path / "out.txt"
    assert run_cli(["mine", str(data), "-o", str(target)]) == 2
    data.write_text(" ".join(str(a) for a in range(1, 26)) + "\n")
    assert run_cli(["mine", str(data), "--algorithm", "naive", "-o", str(target)]) == 4
    assert not target.exists()


def test_mine_dense_width_capacity_exits_4(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    code = run_cli(["mine", str(data), "--algorithm", "lcm3", "--dense-width", "1000000"])
    assert code == 4


def test_mine_deep_staircase(tmp_path, capsys):
    # A 1,200-attribute staircase (row i = {1..i}) is a chain 1,200 concepts
    # deep, far past Python's default recursion limit of 1,000.
    data = tmp_path / "staircase.dat"
    data.write_text("".join(" ".join(map(str, range(1, i + 1))) + "\n" for i in range(1, 1201)))
    assert run_cli(["mine", str(data), "--algorithm", "lcm2", "--sorted"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [" ".join(map(str, range(1, k + 1))) + f" ({1201 - k})" for k in range(1, 1201)]


@pytest.mark.skipif(sys.platform == "win32", reason="SIGPIPE exit status")
def test_mine_reader_closing_the_pipe_exits_141(tmp_path):
    # One root extent of 250,000 ids: far more output than a pipe buffers.
    data = tmp_path / "big.dat"
    data.write_text("1\n2\n" * 125_000)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "conceptmine", "mine", str(data), "--with-extents"]
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


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


def test_mine_cxt_count_not_in_ascii_digits_exits_2(monkeypatch, capsys):
    # int() would read "0_2" as 2 and mine two objects.
    monkeypatch.setattr("sys.stdin", io.StringIO("B\n\n0_2\n1\n\na\nb\nx\nX\nX\n"))
    assert run_cli(["mine", "-", "--format", "cxt"]) == 2
    assert "line 3: expected object count, got '0_2'" in capsys.readouterr().err


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


def assert_usage_error(args, capsys, flag):
    assert run_cli(args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err and "Traceback" not in err


def test_gen_negative_objects_exits_3(capsys):
    args = ["gen", "--seed", "1", "--objects", "-1", "--attributes", "3", "--density", "0.5"]
    assert_usage_error(args, capsys, "--objects")


def test_gen_negative_seed_exits_3(capsys):
    args = ["gen", "--seed", "-1", "--objects", "4", "--attributes", "3", "--density", "0.5"]
    assert_usage_error(args, capsys, "--seed")


def test_gen_nan_density_exits_3(capsys):
    args = ["gen", "--seed", "1", "--objects", "4", "--attributes", "3", "--density", "nan"]
    assert_usage_error(args, capsys, "--density")


def test_bench_density_above_one_exits_3(capsys):
    args = ["bench", "--objects", "10", "--attributes", "3", "--density", "2"]
    assert_usage_error(args, capsys, "--density")


def test_gen_negative_attributes_exits_3(capsys):
    args = ["gen", "--seed", "1", "--objects", "4", "--attributes", "-2", "--density", "0.5"]
    assert_usage_error(args, capsys, "--attributes")


def test_generate_context_keeps_value_error():
    for density in (float("nan"), -0.1, 2.0):
        with pytest.raises(ValueError):
            generate_context(1, 4, 3, density)


def test_format_concept_lines():
    from conceptmine.cli import _format_concept
    from conceptmine.derive import Concept

    assert _format_concept(Concept((), 4, ()), False) == "(4)"
    assert _format_concept(Concept((), 4, ()), True) == "(4) /"
    assert _format_concept(Concept((1, 20), 0, ()), True) == "1 20 (0) /"
    assert _format_concept(Concept((3,), 2, (0, 11)), True) == "3 (2) / 0 11"
    for extent in ((7,), tuple(range(60_000))):  # a 1-tuple's repr ends in ",)"
        line = _format_concept(Concept((3,), len(extent), extent), True)
        assert line == f"3 ({len(extent)}) / " + " ".join(map(str, extent))


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


def test_importing_the_cli_leaves_numpy_unloaded():
    # numpy is needed only to generate contexts; mining must not pay its import.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, conceptmine.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT).returncode == 0


def test_importing_the_cli_leaves_unused_modules_unloaded():
    # Only `bench` needs the first three, and hashlib loads OpenSSL. The rest
    # cost every run its cold start: dataclasses alone pulls in inspect, ast,
    # dis and tokenize. -S keeps a site .pth hook from importing any of them
    # before conceptmine does.
    unused = {"hashlib", "statistics", "csv", "dataclasses", "inspect", "ast", "typing", "pathlib"}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys, conceptmine.cli; print(sorted({unused!r} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Reports the peak RSS of the command in its arguments, from a process of its
# own: on Linux a child's peak RSS includes that of the process that started
# it, and the test process is larger than `mine`.
PEAK_RSS_KB = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
if status:
    sys.exit(f"wait status {status}")
print(usage.ru_maxrss)
"""


@pytest.mark.skipif(
    not hasattr(os, "wait4") or sys.platform != "linux", reason="peak RSS in KB from os.wait4"
)
def test_mine_memory_does_not_follow_the_output(tmp_path):
    # Duplicate-heavy rows: few concepts, but extents of up to 40,000 ids.
    rng = random.Random(7)
    distinct = [sorted(rng.sample(range(1, 41), rng.randint(3, 6))) for _ in range(60)]
    data = tmp_path / "sessions.dat"
    data.write_text("".join(" ".join(map(str, rng.choice(distinct))) + "\n" for _ in range(40_000)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "out.txt"
    peak_kb = []
    for flags in ([], ["--with-extents"]):
        args = ["mine", str(data), "--min-support", "1", *flags, "-o", str(out)]
        argv = [sys.executable, "-c", PEAK_RSS_KB, sys.executable, "-m", "conceptmine", *args]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        peak_kb.append(int(done.stdout))
    output_bytes = out.stat().st_size
    assert output_bytes > 1_000_000
    assert (peak_kb[1] - peak_kb[0]) * 1024 < 2 * output_bytes, (peak_kb, output_bytes)


@pytest.mark.skipif(
    not hasattr(os, "wait4") or sys.platform != "linux", reason="peak RSS in KB from os.wait4"
)
def test_mine_memory_on_a_deep_input_stays_near_the_parse(tmp_path):
    # The 800-row staircase is a chain of 800 nested concepts, so 800 node
    # frames are on the stack at once; the rule store and the frames must not
    # grow with the square of that depth.
    data = tmp_path / "staircase.dat"
    data.write_text("".join(" ".join(map(str, range(1, i + 1))) + "\n" for i in range(1, 801)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    peak_kb = []
    # --min-support 801 leaves nothing to mine: parse and preprocess only.
    for flags in (["--min-support", "801"], ["--algorithm", "lcm2"]):
        args = ["mine", str(data), *flags, "-o", str(tmp_path / "out.txt")]
        argv = [sys.executable, "-c", PEAK_RSS_KB, sys.executable, "-m", "conceptmine", *args]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        peak_kb.append(int(done.stdout))
    assert (peak_kb[1] - peak_kb[0]) < 12 * 1024, peak_kb


@pytest.mark.parametrize("algorithm", ["lcm2", "lcm3"])
def test_benchmark_tracer_sees_the_engine_layers(tmp_path, algorithm):
    # perfbench/tracer.py rebinds module-level functions; a refactor that calls
    # them by another route would leave the traced layers empty.
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    spans = tmp_path / "spans.json"
    args = ["mine", str(data), "--algorithm", algorithm]
    layers = {"mining.engine", "lcm.frequencies", "lcm.cond_db", "lcm.deliver"}
    if algorithm == "lcm3":
        args += ["--dense-width", "2"]
        layers.add("fptree.cond_tree")
    done = subprocess.run(
        [sys.executable, "perfbench/tracer.py", str(spans), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    names = {span[0] for span in json.loads(spans.read_text())}
    assert layers <= names, layers - names
