"""Differential tests on structured worst-case families.

Staircases (row i = {1..i}) have only n concepts but about n^2/2 canonicity
failures, contranominal scales (row i = all attributes but i) have all 2^n
attribute sets as concepts, duplicate-heavy weighted rows exercise
caller-given weights on both sides of preprocessing's row-merge rule, and a
single very wide row gives every node thousands of live attributes.  Every
engine must agree, and agree with the exhaustive oracle where the context has
at most 24 attributes.
"""

import inspect
import math
import random
import sys
import time

import pytest

from conceptmine import FormalContext, enumerate_naive, mine_concepts, preprocess
from conceptmine.fptree import DEFAULT_DENSE_WIDTH

from conftest import concept_set

ENGINES = [
    ("cbo", {}),
    ("lcm2", {"pruning": True}),
    ("lcm2", {"pruning": False}),
    ("lcm3", {"dense_width": 0}),
    ("lcm3", {"dense_width": 4}),
    ("lcm3", {}),
    ("lcm3", {"dense_width": None}),
]


def staircase(n: int) -> FormalContext:
    return FormalContext([list(range(1, i + 1)) for i in range(1, n + 1)])


def contranominal(n: int) -> FormalContext:
    return FormalContext([[a for a in range(1, n + 1) if a != i] for i in range(1, n + 1)])


def duplicate_heavy(seed: int, scattered: int = 0) -> FormalContext:
    """400 weighted rows drawn from 8 patterns, the last ``scattered`` of them
    random attribute sets instead."""
    rng = random.Random(seed)
    patterns = [sorted(rng.sample(range(1, 13), rng.randint(1, 8))) for _ in range(8)]
    rows = [patterns[min(rng.randrange(8), rng.randrange(8))] for _ in range(400 - scattered)]
    rows += [sorted(rng.sample(range(1, 13), rng.randint(1, 8))) for _ in range(scattered)]
    return FormalContext(rows, weights=[rng.randint(1, 9) for _ in rows], num_attributes=12)


def assert_engines_agree(ctx, supports, want):
    for s in supports:
        for algorithm, engine_options in ENGINES:
            mined = mine_concepts(ctx, s, algorithm=algorithm, **engine_options)
            got = concept_set(mined)
            assert got == want(s), (algorithm, engine_options, s)


@pytest.mark.parametrize("n", [100, 200])
def test_staircase_all_engines(n):
    # The concepts are the prefixes {1..k}, each carried by rows k..n.
    def want(s):
        return {(tuple(range(1, k + 1)), n - k + 1) for k in range(1, n + 1) if n - k + 1 >= s}

    assert_engines_agree(staircase(n), (0, n // 4), want)


def test_staircase_deeper_than_the_recursion_limit_all_engines():
    # The chain of 300 concepts is deeper than the 100 frames left to Python,
    # so an engine that recursed per level would raise RecursionError.
    n = 300
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        assert_engines_agree(
            staircase(n),
            (0,),
            lambda s: {(tuple(range(1, k + 1)), n - k + 1) for k in range(1, n + 1)},
        )
    finally:
        sys.setrecursionlimit(limit)


def test_staircase_oracle_small():
    ctx = staircase(14)
    full = concept_set(enumerate_naive(ctx, 0))
    assert_engines_agree(ctx, (0, 5), lambda s: {c for c in full if c[1] >= s})


def test_contranominal_scale_all_engines():
    ctx = contranominal(10)
    full = concept_set(enumerate_naive(ctx, 0))
    assert len(full) == 2**10
    assert_engines_agree(ctx, (0, 1, 4), lambda s: {c for c in full if c[1] >= s})


@pytest.mark.parametrize("merges", [True, False])
def test_duplicate_heavy_weighted_all_engines(merges):
    # Preprocessing merges 400 rows of 8 patterns; with 300 of them scattered,
    # it keeps every object's row and weight, the 100 equal-pattern rows too.
    for seed in range(3):
        ctx = duplicate_heavy(seed, scattered=0 if merges else 300)
        pre, _, _ = preprocess(ctx, 0)
        assert (pre.num_objects < ctx.num_objects) == merges
        assert len(ctx.distinct_rows) < ctx.num_objects
        full = concept_set(enumerate_naive(ctx, 0))
        total = ctx.total_weight
        assert_engines_agree(
            ctx, (0, 1, total // 10, total // 2), lambda s: {c for c in full if c[1] >= s}
        )


def test_staircase_lcm2_not_asymptotically_worse_than_cbo():
    ctx = staircase(200)

    def best_time(algorithm):
        times = []
        for _ in range(2):
            started = time.perf_counter()
            mine_concepts(ctx, 0, algorithm=algorithm)
            times.append(time.perf_counter() - started)
        return min(times)

    cbo_s = best_time("cbo")
    lcm2_s = best_time("lcm2")
    assert lcm2_s <= 5 * cbo_s + 0.5, (lcm2_s, cbo_s)


def wide_row(width: int = 20_000) -> FormalContext:
    # One row over every attribute plus three narrow rows.
    return FormalContext([list(range(1, width + 1)), [1, 2], [1, 3], [4]])


def best_time(ctx, algorithm, support=0, **options):
    times = []
    for _ in range(2):
        started = time.perf_counter()
        mine_concepts(ctx, support, algorithm=algorithm, **options)
        times.append(time.perf_counter() - started)
    return min(times)


def test_single_wide_row_all_engines():
    narrow = {((), 4), ((1,), 3), ((1, 2), 2), ((1, 3), 2), ((4,), 2)}
    wide = (tuple(range(1, 20_001)), 1)

    def want(s):
        return narrow | {wide} if s <= 1 else narrow

    ctx = wide_row()
    assert [len(want(s)) for s in (0, 1, 2)] == [6, 6, 5]
    assert_engines_agree(ctx, (0, 1, 2), want)
    # After preprocessing at s=2 only the four narrow attributes remain, within
    # the exhaustive oracle's attribute cap.
    assert concept_set(mine_concepts(ctx, 2, algorithm="naive")) == want(2)


def test_single_wide_row_no_engine_asymptotically_worse_than_cbo():
    ctx = wide_row()
    cbo_s = best_time(ctx, "cbo", 1)
    for algorithm, engine_options in ENGINES:
        if algorithm != "cbo":
            engine_s = best_time(ctx, algorithm, 1, **engine_options)
            assert engine_s <= 5 * cbo_s + 0.5, (algorithm, engine_options, engine_s, cbo_s)


@pytest.mark.parametrize("dense_width", [DEFAULT_DENSE_WIDTH, math.inf])
def test_staircase_lcm3_not_asymptotically_worse_than_cbo(dense_width):
    ctx = staircase(200)
    cbo_s = best_time(ctx, "cbo")
    lcm3_s = best_time(ctx, "lcm3", dense_width=dense_width)
    assert lcm3_s <= 5 * cbo_s + 0.5, (lcm3_s, cbo_s)


def test_contranominal_lcm_not_asymptotically_worse_than_cbo():
    # No canonicity failure, no rule hit and no dropped attribute: every LCM
    # feature is pure cost on this family.
    ctx = contranominal(14)
    cbo_s = best_time(ctx, "cbo")
    for algorithm in ("lcm2", "lcm3"):
        engine_s = best_time(ctx, algorithm)
        assert engine_s <= 3 * cbo_s + 0.25, (algorithm, engine_s, cbo_s)
