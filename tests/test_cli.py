import argparse
import errno
import importlib.util
import inspect
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conceptmine import concept_digest, mine_concepts, parse_fimi
from conceptmine.cbo import cbo_enumerate
from conceptmine.cli import (
    _ENGINE_FLAGS,
    _build_parser,
    _engine_options,
    _resolve_support,
    _UsageError,
    bench,
    generate_context,
    main,
)
from conceptmine.derive import enumerate_naive
from conceptmine.lcm import lcm3_enumerate
from conceptmine.mining import ALGORITHMS

from conftest import EMPTY_COLUMNS_CXT, concept_set

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


@pytest.mark.parametrize(
    "argv, listed",
    [
        (["--help"], ["mine", "gen", "bench", "enumerate frequent closed itemsets"]),
        (["mine", "--help"], ["--min-support-ratio", "--with-extents", "--stats"]),
        (["gen", "--help"], ["--seed", "--objects", "--attributes", "--density", "--output"]),
        (["bench", "--help"], ["--algorithms", "--repeats", "--dense-width", "--min-support"]),
    ],
)
def test_help_lists_commands_and_their_options(capsys, argv, listed):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert all(word in out for word in listed), out


@pytest.mark.parametrize(
    "argv", [[], ["mine"], ["frob"], ["--bogus"], ["gen", "--seed", "1"], ["mine", "x", "--bogus"]]
)
def test_usage_errors_exit_3(capsys, argv):
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("conceptmine: ")


def test_mine_empty_input(tmp_path, capsys):
    data = tmp_path / "empty.dat"
    data.write_text("")
    assert run_cli(["mine", str(data), "--min-support", "1"]) == 0
    assert capsys.readouterr().out == ""


def test_mine_missing_file_exits_1(tmp_path):
    assert run_cli(["mine", str(tmp_path / "nope.dat")]) == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mine", "--algorithm", "cbo", "--no-pruning"], "--no-pruning"),
        (["mine", "--algorithm", "lcm3", "--dense-width", "x"], "--dense-width"),
        (["mine", "--min-support", "1", "--min-support-ratio", "0.5"], "--min-support-ratio"),
        (["bench", "--algorithms", ","], "--algorithms"),
        (["mine", "--algorithm", "lcm3", "--dense-width", "-1"], "--dense-width"),
        (["bench", "--algorithms", "lcm3", "--dense-width", "-1"], "--dense-width"),
        (["mine", "--stats", "same.txt", "-o", "./same.txt"], "--stats"),
        (["bench", "--algorithms", "cbo,frob"], "--algorithms"),
        (["mine", "--min-support", "-1"], "--min-support"),
        (["mine", "--min-support", "abc"], "--min-support"),
        (["bench", "--repeats", "x"], "--repeats"),
        (["mine", "--min-support-ratio", "nan"], "--min-support-ratio"),
    ],
)
def test_options_are_checked_before_the_input_is_read(tmp_path, capsys, argv, flag):
    # The input is missing (exit 1), but the options' own fault is found first.
    command, *options = argv
    assert_usage_error([command, str(tmp_path / "nope.dat"), *options], capsys, flag)


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


@pytest.mark.parametrize(
    "algorithm, option",
    [
        ("cbo", {"pruning": False}),
        ("naive", {"check_pruning": True}),
        ("cbo", {"node_inspector": lambda intent, buckets: None}),
        ("lcm2", {"dense_width": 4}),
    ],
)
def test_mine_concepts_refuses_an_option_its_engine_does_not_take(k1, algorithm, option):
    # mine_concepts forwards engine keywords unchanged, so none is ignored quietly.
    with pytest.raises(TypeError):
        mine_concepts(k1, 1, algorithm=algorithm, **option)


def test_every_engine_keyword_the_cli_passes_is_a_parameter_of_the_engine():
    # A flag declared for an engine that does not take its keyword would fail
    # only at run time.  lcm2 is lcm3_enumerate with dense_width 0, so it is
    # checked through lcm3_enumerate's signature.
    engines = {
        "naive": enumerate_naive,
        "cbo": cbo_enumerate,
        "lcm2": lcm3_enumerate,
        "lcm3": lcm3_enumerate,
    }
    assert set(engines) == set(ALGORITHMS)
    passed = set()
    for algorithm, engine in engines.items():
        for keyword in _ENGINE_FLAGS:
            try:
                options = _engine_options(argparse.Namespace(**{keyword: 0}), [algorithm])
            except _UsageError:
                continue
            assert set(options) <= set(inspect.signature(engine).parameters), (algorithm, options)
            passed.update(options)
    assert passed == set(_ENGINE_FLAGS)


def test_every_engine_flag_parses_into_its_keyword():
    # A table entry whose flag no add_argument declares would pass nothing and
    # refuse nothing; the signature check above cannot see that.
    mine = _build_parser("mine")
    for keyword, (flag, engines) in _ENGINE_FLAGS.items():
        try:
            args = mine.parse_args(["mine", "in.dat", flag])
        except _UsageError:  # the flag takes a value
            args = mine.parse_args(["mine", "in.dat", flag, "1"])
        assert list(_engine_options(args, list(engines))) == [keyword], flag
    # bench declares one engine flag, and it is a table entry too.
    args = _build_parser("bench").parse_args(["bench", "in.dat", "--dense-width", "1"])
    assert _ENGINE_FLAGS["dense_width"][0] == "--dense-width"
    assert _engine_options(args, ["lcm3"]) == {"dense_width": 1}


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


def test_failed_mine_keeps_an_existing_output_file(tmp_path):
    data = tmp_path / "wide.dat"
    data.write_text(" ".join(str(a) for a in range(1, 26)) + "\n")
    target = tmp_path / "out.txt"
    target.write_text("earlier run\n")
    assert run_cli(["mine", str(data), "--algorithm", "naive", "-o", str(target)]) == 4
    assert target.read_text() == "earlier run\n"


def test_mine_without_concepts_makes_empty_output(tmp_path, capsys):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    target = tmp_path / "out.txt"
    stats_path = tmp_path / "stats.json"
    args = ["mine", str(data), "--min-support", "5", "-o", str(target), "--stats", str(stats_path)]
    assert run_cli(args) == 0
    assert target.read_text() == ""
    assert json.loads(stats_path.read_text())["concepts_emitted"] == 0
    assert capsys.readouterr().err == "0 concepts, total support 0\n"


def test_failure_while_writing_removes_the_files_the_run_made(tmp_path, monkeypatch, capsys):
    import conceptmine.cli as cli_module

    real = cli_module._format_concept
    calls = []

    def failing(c, with_extents):
        calls.append(c)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(c, with_extents)

    monkeypatch.setattr(cli_module, "_format_concept", failing)
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    target = tmp_path / "out.txt"
    stats_path = tmp_path / "stats.json"
    args = ["mine", str(data), "-o", str(target), "--stats", str(stats_path)]
    assert run_cli(args) == 1
    assert capsys.readouterr().err == "conceptmine: disk full\n"
    assert not target.exists() and not stats_path.exists()
    # Files that were there before stay: the output truncated, the stats unchanged.
    target.write_text("earlier run\n")
    stats_path.write_text("earlier stats\n")
    calls.clear()
    assert run_cli(args) == 1
    assert "earlier run" not in target.read_text()
    assert stats_path.read_text() == "earlier stats\n"


def test_unwritable_stats_or_output_leaves_no_file(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    target = tmp_path / "out.txt"
    stats_path = tmp_path / "stats.json"
    missing = tmp_path / "missing" / "x"
    assert run_cli(["mine", str(data), "-o", str(target), "--stats", str(missing)]) == 1
    assert not target.exists()
    assert run_cli(["mine", str(data), "-o", str(missing), "--stats", str(stats_path)]) == 1
    assert not stats_path.exists()
    # An empty path names no file: it fails like a missing one, not as "unset".
    assert run_cli(["mine", str(data), "-o", "", "--stats", str(stats_path)]) == 1
    assert not stats_path.exists()
    assert run_cli(["mine", str(data), "-o", str(target), "--stats", ""]) == 1
    assert not target.exists()
    assert run_cli(["mine", str(data), "-o", "", "--stats", ""]) == 1
    gen = ["gen", "--seed", "1", "--objects", "3", "--attributes", "3", "--density", "0.5"]
    assert run_cli([*gen, "-o", ""]) == 1


def test_failed_output_keeps_existing_stats_file(tmp_path):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    stats_path = tmp_path / "run.json"
    stats_path.write_text("earlier run\n")
    missing = tmp_path / "missing" / "out.txt"
    assert run_cli(["mine", str(data), "-o", str(missing), "--stats", str(stats_path)]) == 1
    assert stats_path.read_text() == "earlier run\n"


def test_stats_and_output_on_one_file_are_refused(tmp_path, capsys):
    # The stats would replace the concepts; F, a path through "." and a
    # symlink to F all name F, and F keeps its bytes.
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    same = tmp_path / "same.txt"
    same.write_text("earlier run\n")
    link = tmp_path / "link.txt"
    link.symlink_to(same)
    for stats_path in (str(same), f"{tmp_path}/./same.txt", str(link)):
        args = ["mine", str(data), "--stats", stats_path, "-o", str(same)]
        assert_usage_error(args, capsys, "--stats")
        assert same.read_text() == "earlier run\n"


def test_stats_and_output_on_two_hard_links_of_one_file_are_refused(tmp_path, capsys):
    # Hard links are one file under two names that resolve to different paths.
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    same = tmp_path / "same.txt"
    same.write_text("earlier run\n")
    link = tmp_path / "hard.txt"
    os.link(same, link)
    args = ["mine", str(data), "--stats", str(link), "-o", str(same)]
    assert_usage_error(args, capsys, "--stats")
    assert same.read_text() == "earlier run\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_stats_and_output_may_share_a_pipe(tmp_path):
    # Only a regular file is refused: on a pipe the stats follow the concepts.
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "conceptmine", "mine", str(data), "--min-support", "2"]
    argv += ["--stats", "/dev/stdout", "-o", "/dev/stdout"]
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stderr
    concepts, _, stats = done.stdout.partition("{")
    assert sorted(concepts.splitlines()) == ["1 3 (2)", "2 3 (2)", "3 (4)"]
    assert json.loads("{" + stats)["concepts_emitted"] == 3


def test_mine_dense_width_has_no_capacity(tmp_path, capsys):
    # No width is too large: a million engages the FP-trees wherever inf does.
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    outputs = []
    for width in ("1000000", "inf"):
        assert run_cli(["mine", str(data), "--algorithm", "lcm3", "--dense-width", width]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("command", [["mine", "-"], ["bench", "-"]])
def test_closed_stdin_is_an_io_error(monkeypatch, capsys, command):
    monkeypatch.setattr(sys, "stdin", None)  # what ``python -m conceptmine mine - <&-`` sees
    assert run_cli(command) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "conceptmine: standard input is closed\n"


@pytest.mark.parametrize(
    "command",
    [
        ["mine", "k1.dat"],
        ["bench", "k1.dat"],
        ["gen", "--seed", "1", "--objects", "3", "--attributes", "3", "--density", "0.5"],
    ],
)
def test_closed_stdout_is_an_io_error(tmp_path, monkeypatch, capsys, command):
    (tmp_path / "k1.dat").write_text(K1_TEXT)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdout", None)  # what ``python -m conceptmine mine FILE >&-`` sees
    assert run_cli(command) == 1
    assert capsys.readouterr().err == "conceptmine: standard output is closed\n"


class _BadStream(io.StringIO):
    """A standard error whose descriptor is closed: every write fails."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [None, _BadStream()], ids=["none", "ebadf"])
def test_closed_stderr_changes_no_exit_code(tmp_path, monkeypatch, capsys, stderr):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    out = tmp_path / "out.txt"
    monkeypatch.setattr(sys, "stderr", stderr)
    assert run_cli(["mine", str(data), "--min-support", "1", "--sorted", "-o", str(out)]) == 0
    assert out.read_text() == "1 2 3 (1)\n1 3 (2)\n2 3 (2)\n3 (4)\n3 4 (1)\n"
    bad = tmp_path / "bad.dat"
    bad.write_text("1 x\n")
    assert run_cli(["mine", str(bad)]) == 2
    assert run_cli(["mine", str(data), "--bogus"]) == 3
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("algorithm", ["naive", "cbo", "lcm2", "lcm3"])
def test_mine_support_0_bottom_spans_the_empty_columns(tmp_path, capsys, algorithm):
    # b and d are in no row: the bottom holds all four attributes, once, and no object.
    data = tmp_path / "empty_columns.cxt"
    data.write_text(EMPTY_COLUMNS_CXT)
    args = ["mine", str(data), "--format", "cxt", "--min-support", "0", "--algorithm", algorithm]
    stats = tmp_path / "stats.json"
    assert run_cli([*args, "--sorted", "--with-extents", "--stats", str(stats)]) == 0
    assert json.loads(stats.read_text())["concepts_emitted"] == 5  # the engine's own bottom
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "(4) / 0 1 2 3",
        "1 (2) / 0 2",
        "1 2 3 4 (0) /",
        "1 3 (1) / 0",
        "3 (2) / 0 1",
    ]
    assert err == "5 concepts, total support 9\n"
    assert run_cli(args) == 0
    assert capsys.readouterr().out.count("1 2 3 4 (0)\n") == 1


def test_mine_cxt_name_of_digits(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("B\n2020\n1\n1\n\no\na\nX\n"))
    assert run_cli(["mine", "-", "--format", "cxt"]) == 0
    assert capsys.readouterr().out == "1 (1)\n"


def test_mine_cxt_count_not_in_ascii_digits_exits_2(monkeypatch, capsys):
    # int() would read "0_2" as 2 and mine two objects.
    monkeypatch.setattr("sys.stdin", io.StringIO("B\n\n0_2\n1\n\na\nb\nx\nX\nX\n"))
    assert run_cli(["mine", "-", "--format", "cxt"]) == 2
    assert "line 3: expected object count, got '0_2'" in capsys.readouterr().err


def test_mine_cxt_cut_short_exits_2(monkeypatch, capsys):
    # The second of two declared rows is missing.
    monkeypatch.setattr("sys.stdin", io.StringIO("B\n\n2\n2\n\no1\no2\na\nb\nX.\n"))
    assert run_cli(["mine", "-", "--format", "cxt"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 11: unexpected end of input, expected incidence row" in err


def test_mine_cxt_row_past_the_object_count_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("B\n\n2\n2\n\no1\no2\na\nb\nX.\n.X\nXX\n"))
    assert run_cli(["mine", "-", "--format", "cxt", "--min-support", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "line 12: unexpected line after the last incidence row: 'XX'" in err


def test_mine_no_attr_sort_exits_3(tmp_path, capsys):
    # Every engine mines in the one attribute order, so the option is gone.
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert run_cli(["mine", str(data), "--no-attr-sort"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "conceptmine: unrecognized arguments: --no-attr-sort\n"


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


@pytest.mark.parametrize("seed", [0, 7, 424242])
@pytest.mark.parametrize(
    "shape", [(0, 5, 0.5), (6, 0, 0.5), (9, 4, 0.0), (9, 4, 1.0), (1, 30, 0.3), (40, 13, 0.2)]
)
def test_generate_context_rows_equal_the_per_row_construction(seed, shape):
    import numpy as np

    num_objects, num_attributes, density = shape
    rng = np.random.Generator(np.random.PCG64(seed))
    incidence = rng.random((num_objects, num_attributes)) < density
    want = [(np.flatnonzero(line) + 1).tolist() for line in incidence]
    ctx = generate_context(seed, num_objects, num_attributes, density)
    assert ctx.rows == want
    assert ctx.num_objects == num_objects and ctx.num_attributes == num_attributes
    assert all(type(a) is int for row in ctx.rows for a in row)


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


def test_gen_density_above_one_exits_3(capsys):
    args = ["gen", "--seed", "1", "--objects", "10", "--attributes", "3", "--density", "2"]
    assert_usage_error(args, capsys, "--density")


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_repeats_below_one_exits_3(tmp_path, capsys, repeats):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert_usage_error(["bench", str(data), "--repeats", repeats], capsys, "--repeats")


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


def _repr_formatted(c, with_extents):
    """A concept's line as an earlier, repr-based formatter wrote it."""
    line = " ".join([*map(str, c.intent), f"({c.support})"])
    if with_extents:
        ids = repr(tuple(c.extent))[1:-1].replace(",", "")
        line = (line + " / " + ids).rstrip()
    return line


def test_format_concept_bytes_match_the_repr_formula():
    from conceptmine.cli import _format_concept
    from conceptmine.derive import Concept

    concepts = [
        Concept((1, 20), 0, ()),  # an empty extent
        Concept((), 5, (0, 1, 2, 3, 9)),  # an empty intent
        Concept((), 0, ()),
        Concept((4,), 1, (7,)),  # a single id
        Concept((2, 3, 1_000_000), 60_000, tuple(range(0, 120_000, 2))),  # 60,000 ids
    ]
    for c in concepts:
        for with_extents in (False, True):
            got = _format_concept(c, with_extents).encode()
            assert got == _repr_formatted(c, with_extents).encode(), (c.intent, with_extents)


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


def _pipe_gen_into_stdin(monkeypatch, capsys, seed, num_objects, num_attributes, density):
    """Run ``gen`` and make its output the next command's standard input, as ``gen | bench -``."""
    args = ["--seed", str(seed), "--objects", str(num_objects), "--attributes", str(num_attributes)]
    assert run_cli(["gen", *args, "--density", str(density)]) == 0
    data = capsys.readouterr().out.encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))


def test_bench_generated_single_config(monkeypatch, capsys):
    _pipe_gen_into_stdin(monkeypatch, capsys, 5, 40, 10, 0.2)
    code = run_cli(["bench", "-", "--algorithms", "lcm2", "--min-support", "2", "--repeats", "1"])
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


def test_bench_bad_dense_width_exits_3(tmp_path, capsys):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    args = ["bench", str(data), "--algorithms", "lcm3", "--dense-width", "-1"]
    assert_usage_error(args, capsys, "--dense-width")


def test_bench_dense_width_without_lcm3_exits_3(tmp_path, capsys):
    # As mine does, bench refuses an option that no engine it runs would read.
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    for algorithms in ("cbo", "cbo,lcm2"):
        args = ["bench", str(data), "--algorithms", algorithms, "--dense-width", "-1"]
        assert_usage_error(args, capsys, "--dense-width")
    args = ["bench", str(data), "--algorithms", "lcm2,lcm3", "--dense-width", "4"]
    assert run_cli(args) == 0


@pytest.mark.parametrize("algorithms", [",", "", " , "])
def test_bench_empty_algorithm_list_exits_3(tmp_path, capsys, algorithms):
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert run_cli(["bench", str(data), "--algorithms", algorithms]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "--algorithms" in err  # no header-only CSV


@pytest.mark.parametrize(
    "option", [["--objects", "40"], ["--attributes", "10"], ["--density", "0.2"], ["--seed", "0"]]
)
def test_bench_refuses_generator_options_as_unknown_exits_3(tmp_path, capsys, option):
    # Only gen generates data; bench reads its input as mine does and knows
    # none of gen's options.
    data = tmp_path / "k1.dat"
    data.write_text(K1_TEXT)
    assert_usage_error(["bench", str(data), *option], capsys, option[0])
    with pytest.raises(SystemExit):
        main(["bench", "--help"])
    assert option[0] not in capsys.readouterr().out


@pytest.mark.parametrize("density", [0.2, 0.5])
@pytest.mark.parametrize("seed", [0, 7, 424242])
def test_piped_gen_output_benches_like_the_library(monkeypatch, capsys, seed, density):
    import csv

    algorithms = ["cbo", "lcm2", "lcm3"]
    _pipe_gen_into_stdin(monkeypatch, capsys, seed, 60, 12, density)
    assert run_cli(["bench", "-", "--algorithms", ",".join(algorithms), "--repeats", "1"]) == 0
    got = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    want = bench(generate_context(seed, 60, 12, density), None, algorithms, 1, repeats=1)
    assert len(got) == len(want) == len(algorithms)
    for row, record in zip(got, want):
        del row["wall_ms_median"], record["wall_ms_median"]
        assert row == {name: str(value) for name, value in record.items()}


def test_gen_unallocatable_table_exits_4(monkeypatch, capsys):
    # 10^15 float64 draws ask numpy for 7.1 PiB, past the 128 TiB a process
    # can map by default on x86-64 Linux, so numpy fails before it allocates.
    args = ["gen", "--seed", "0", "--objects", "10000000000", "--attributes", "100000"]
    assert run_cli([*args, "--density", "0.1"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("conceptmine: Unable to allocate") and "Traceback" not in err

    def refuse(*_):
        raise MemoryError

    monkeypatch.setattr("conceptmine.cli.generate_context", refuse)
    assert run_cli(["gen", "--seed", "0", "--objects", "1", "--attributes", "1", "--density", "0"]) == 4
    assert capsys.readouterr() == ("", "conceptmine: out of memory\n")


def test_bench_function_checks_digests(k1):
    rows = bench(k1, None, ["cbo", "lcm2", "lcm3"], 1, repeats=1)
    assert [r["algorithm"] for r in rows] == ["cbo", "lcm2", "lcm3"]
    assert all(r["concepts"] == 5 for r in rows)
    with pytest.raises(ValueError, match="repeats must be at least 1"):
        bench(k1, None, ["cbo"], 1, repeats=0)
    with pytest.raises(ValueError, match="unknown algorithm 'frob'"):
        mine_concepts(k1, 1, algorithm="frob")


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
    unused = {
        "hashlib", "statistics", "csv", "dataclasses", "inspect", "ast", "typing", "pathlib", "json"
    }
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


def peak_rss_kb(args: list[str]) -> int:
    """The peak RSS in KB of ``python -m conceptmine ARGS``, which must exit 0."""
    if not hasattr(os, "wait4") or sys.platform != "linux":
        pytest.skip("peak RSS in KB from os.wait4")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", PEAK_RSS_KB, sys.executable, "-m", "conceptmine", *args]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_mine_memory_does_not_follow_the_output(tmp_path):
    # Duplicate-heavy rows: few concepts, but extents of up to 40,000 ids.
    rng = random.Random(7)
    distinct = [sorted(rng.sample(range(1, 41), rng.randint(3, 6))) for _ in range(60)]
    data = tmp_path / "sessions.dat"
    data.write_text("".join(" ".join(map(str, rng.choice(distinct))) + "\n" for _ in range(40_000)))
    out = tmp_path / "out.txt"
    peak_kb = [
        peak_rss_kb(["mine", str(data), "--min-support", "1", *flags, "-o", str(out)])
        for flags in ([], ["--with-extents"])
    ]
    output_bytes = out.stat().st_size
    assert output_bytes > 1_000_000
    assert (peak_kb[1] - peak_kb[0]) * 1024 < 2 * output_bytes, (peak_kb, output_bytes)


def test_mine_memory_does_not_follow_the_concept_count(tmp_path):
    # The contranominal scale of n objects (object i has every attribute but i)
    # has 2**n concepts: 8,192 at n=13 and 131,072 at n=17.  Streamed, the
    # second run peaks within a few MB of the first; a kept list adds 22 MB.
    peak_kb = []
    for n in (13, 17):
        data = tmp_path / f"contranominal{n}.dat"
        data.write_text("".join(
            " ".join(str(a) for a in range(1, n + 1) if a != i) + "\n" for i in range(1, n + 1)
        ))
        args = ["mine", str(data), "--algorithm", "lcm2", "--min-support", "0"]
        peak_kb.append(peak_rss_kb([*args, "-o", str(tmp_path / "out.txt")]))
    assert (tmp_path / "out.txt").read_text().count("\n") == 2**17
    assert peak_kb[1] - peak_kb[0] < 4 * 1024, peak_kb


def test_mine_memory_on_a_deep_input_stays_near_the_parse(tmp_path):
    # The 800-row staircase is a chain of 800 nested concepts, so 800 node
    # frames are on the stack at once; the rule store and the frames must not
    # grow with the square of that depth.
    data = tmp_path / "staircase.dat"
    data.write_text("".join(" ".join(map(str, range(1, i + 1))) + "\n" for i in range(1, 801)))
    # --min-support 801 leaves nothing to mine: parse and preprocess only.
    peak_kb = [
        peak_rss_kb(["mine", str(data), *flags, "-o", str(tmp_path / "out.txt")])
        for flags in (["--min-support", "801"], ["--algorithm", "lcm2"])
    ]
    assert (peak_kb[1] - peak_kb[0]) < 12 * 1024, peak_kb


@pytest.mark.parametrize("algorithm", ["cbo", "lcm2", "lcm3"])
def test_benchmark_tracer_sees_the_engine_layers(tmp_path, algorithm):
    # perfbench/tracer.py rebinds module-level functions; a refactor that calls
    # them by another route would leave the traced layers empty.  Every
    # 3-subset of 5 attributes: at width 4 lcm3 delivers at the root and
    # builds conditional trees with nodes below it.
    data = tmp_path / "c53.dat"
    data.write_text("".join(f"{a} {b} {c}\n" for a, b, c in itertools.combinations(range(1, 6), 3)))
    spans = tmp_path / "spans.json"
    args = ["mine", str(data), "--algorithm", algorithm]
    layers = {"context.parse", "context.preprocess", "mining.mine_concepts", "mining.engine"}
    if algorithm != "cbo":
        layers |= {"lcm.frequencies", "lcm.cond_db", "lcm.deliver"}
    if algorithm == "lcm3":
        args += ["--dense-width", "4"]
        layers.add("fptree.cond_tree")
    done = subprocess.run(
        [sys.executable, "perfbench/tracer.py", str(spans), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans.read_text())
    names = {span[0] for span in spans}
    assert layers <= names, layers - names
    # The benchmark's layer metrics read the count columns, which the tracer
    # takes from the layers' arguments and results.
    counts = {name: [span[4:] for span in spans if span[0] == name] for name in names}
    if algorithm != "cbo":
        assert any(a > 0 for a, _ in counts["lcm.frequencies"])
        assert any(a > 0 for a, _ in counts["lcm.cond_db"])
        # Rows in and rows out: a conditional database keeps its whole extent.
        assert all(a == b for a, b in counts["lcm.cond_db"]), counts["lcm.cond_db"]
    if algorithm == "lcm3":
        assert any(nodes > 0 for nodes, _ in counts["fptree.cond_tree"])
    # perfbench/run.py takes the translation time as mining.mine_concepts less
    # the preprocess and engine spans, so those must run inside it.
    for span in spans:
        if span[0] in ("context.preprocess", "mining.engine"):
            ancestors = []
            parent = span[3]
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][3]
            assert "mining.mine_concepts" in ancestors, (span, ancestors)


def _perfbench_module(monkeypatch, name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: a dataclass looks its own module up there.
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache in the benchmark's tree
    spec.loader.exec_module(module)
    return module


def test_benchmark_seed_0_outputs_and_lcm_counters_match_the_record(tmp_path, monkeypatch):
    # In-process, the check perfbench/run.py makes at seed 0: every engine
    # writes the recorded output, and lcm2 and lcm3 repeat the recorded
    # counters.  cbo's recorded counters predate its mirrored attribute order
    # and stay out until they are re-recorded (ROADMAP direction 1a).
    workloads = _perfbench_module(monkeypatch, "workloads")
    bench_run = _perfbench_module(monkeypatch, "run")
    expected = json.loads(bench_run.EXPECTED.read_text())
    for name, gen in workloads.GENERATORS.items():
        record = expected[name]
        workload = gen(0)
        data = tmp_path / f"{name}.dat"
        data.write_text(workloads.to_fimi(workload.rows))
        for engine in bench_run.ENGINES:
            out, stats = tmp_path / f"{name}.{engine}.out", tmp_path / f"{name}.{engine}.json"
            args = ["mine", str(data), "--algorithm", engine, *workload.mine_args]
            assert run_cli([*args, "-o", str(out), "--stats", str(stats)]) == 0, (name, engine)
            digest = bench_run.output_digest(out)
            assert digest == (record["digest"], record["concepts"]), (name, engine)
            if engine != "cbo":
                counts = json.loads(stats.read_text())
                counters = {k: counts[k] for k in bench_run.COUNTERS}
                assert counters == record["counters"][engine], (name, engine)


@pytest.mark.parametrize("algorithm", ["lcm2", "lcm3"])
def test_benchmark_tracer_sees_every_lcm_layer_on_seed_0_basket(tmp_path, monkeypatch, algorithm):
    # The layer routes on a real workload at lcm3's default width, as the
    # traced benchmark run reads them: a refactor that calls a layer by
    # another route leaves its metric at 0 instead of failing.
    workloads = _perfbench_module(monkeypatch, "workloads")
    workload = workloads.GENERATORS["basket"](0)
    data, spans = tmp_path / "basket.dat", tmp_path / "spans.json"
    data.write_text(workloads.to_fimi(workload.rows))
    args = ["mine", str(data), "--algorithm", algorithm, *workload.mine_args]
    done = subprocess.run(
        [sys.executable, "perfbench/tracer.py", str(spans), *args, "-o", str(tmp_path / "out")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(spans.read_text())
    calls = Counter(span[0] for span in spans)
    rows_in = sum(span[4] for span in spans if span[0] == "lcm.cond_db")
    assert calls["lcm.deliver"] > 0 and calls["lcm.frequencies"] > 0 and rows_in > 0, calls
    if algorithm == "lcm3":
        assert calls["fptree.cond_tree"] > 0, calls
