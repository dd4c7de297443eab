import ast
import copy
import pickle
import re
from pathlib import Path

import pytest

import conceptmine
from conceptmine import (
    AttributeRemap,
    CapacityError,
    Concept,
    EnumerationStats,
    FormalContext,
    ObjectMerge,
    closure,
    down,
    enumerate_naive,
    up,
)
from conceptmine.cli import generate_context

from conftest import K1_CONCEPTS, concept_set, random_context


def test_value_classes_compare_by_value_and_refuse_assignment():
    a, b = Concept((1, 3), 2, (0, 1)), Concept((1, 3), 2, (0, 1))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Concept((1, 3), 2) and a != ((1, 3), 2, (0, 1))
    assert repr(a) == "Concept(intent=(1, 3), support=2, extent=(0, 1))"
    assert copy.copy(a) == pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.support = 3
    with pytest.raises(AttributeError):
        del a.extent
    # The `--stats` JSON order, as the README lists it.
    assert list(EnumerationStats().as_dict()) == [
        "concepts_emitted",
        "recursive_calls",
        "closure_computations",
        "canonicity_failures",
        "pruning_rule_hits",
        "conditional_dbs_built",
    ]
    assert EnumerationStats(1, pruning_rule_hits=2).as_dict()["pruning_rule_hits"] == 2
    stats = EnumerationStats(1, 2, 3, 4, 5, 6)
    assert stats == EnumerationStats(1, 2, 3, 4, 5, 6) and stats != EnumerationStats()
    # Another type is never equal, not even a dict of the same counters.
    assert stats != stats.as_dict() and not stats == (1, 2, 3, 4, 5, 6)
    assert repr(stats) == (
        "EnumerationStats(concepts_emitted=1, recursive_calls=2, closure_computations=3, "
        "canonicity_failures=4, pruning_rule_hits=5, conditional_dbs_built=6)"
    )
    remap = AttributeRemap((5, 9))
    assert remap == AttributeRemap((5, 9)) and remap.old_to_new == {5: 1, 9: 2}
    assert hash(remap) == hash(AttributeRemap((5, 9)))
    assert repr(remap) == "AttributeRemap(new_to_old=(5, 9))"
    assert remap != AttributeRemap((9, 5))
    assert copy.copy(remap) == pickle.loads(pickle.dumps(remap)) == remap
    assert ObjectMerge(((0, 2), (1,))) == ObjectMerge(((0, 2), (1,)))
    assert ObjectMerge(((0, 2), (1,))) != ObjectMerge(((0,), (1, 2)))
    with pytest.raises(AttributeError):
        remap.old_to_new = {}


def test_package_exports_are_sorted_unique_and_bound():
    # A stale entry would break only ``from conceptmine import *``.
    names = conceptmine.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(conceptmine, name)] == []


def test_sources_parse_at_the_python_floor():
    # Parses every source at pyproject's requires-python floor, on whichever
    # Python runs the suite: grammar newer than the floor, such as ``except*``
    # or PEP 695 generics, is a SyntaxError.  Library APIs newer than the floor
    # are not caught, and ``feature_version`` is best effort: from 3.12 on it
    # lets PEP 701's f-strings through (3.11 refuses them in any case).
    root = Path(__file__).resolve().parent.parent
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    version = tuple(map(int, floor.groups()))
    paths = [path for top in ("src", "tests", "perfbench") for path in (root / top).rglob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_up_on_k1(k1):
    assert up(k1, [0, 1]) == (1, 3)
    assert up(k1, []) == (1, 2, 3, 4)
    assert up(k1, [3]) == (3, 4)


def test_down_on_k1(k1):
    assert down(k1, [3]).members == (0, 1, 2, 3)
    assert down(k1, [3]).weighted_size == 4
    assert down(k1, []).members == (0, 1, 2, 3)
    assert down(k1, [1, 4]).members == ()
    assert down(k1, [1, 4]).weighted_size == 0


def test_closure_on_k1(k1):
    assert closure(k1, []) == (3,)
    assert closure(k1, [2]) == (2, 3)
    assert closure(k1, [1, 4]) == (1, 2, 3, 4)  # empty extent closes to everything


def test_bounds_errors(k1):
    with pytest.raises(IndexError):
        up(k1, [99])
    with pytest.raises(IndexError):
        down(k1, [5])


def test_weighted_down():
    ctx = FormalContext([[1, 2], [2]], weights=[3, 2])
    assert down(ctx, [2]).weighted_size == 5
    assert down(ctx, [1, 2]).weighted_size == 3
    # numpy ids are taken as int: a numpy int mask cannot meet a 70-bit row.
    np = pytest.importorskip("numpy")
    wide = FormalContext([[2, 70], [2], [3, 70]], weights=[3, 2, 1])
    assert down(wide, [np.int64(70)]) == down(wide, [70])
    assert down(wide, [np.int64(70)]).weighted_size == 4
    assert down(wide, [np.int64(3)]).members == (2,)
    assert closure(wide, [np.int64(3)]) == (3, 70)


def test_naive_k1_full(k1):
    assert concept_set(enumerate_naive(k1, 0)) == K1_CONCEPTS


def test_naive_k1_min_support_2(k1):
    assert concept_set(enumerate_naive(k1, 2)) == {((3,), 4), ((1, 3), 2), ((2, 3), 2)}


def test_naive_visits_every_subset(k1):
    stats = EnumerationStats()
    list(enumerate_naive(k1, 0, stats=stats))
    assert stats.recursive_calls == 16  # all subsets of a 4-attribute universe
    assert stats.closure_computations == 16


def test_naive_capacity_cap(k1):
    wide = FormalContext([[a] for a in range(1, 26)])
    with pytest.raises(CapacityError):
        list(enumerate_naive(wide, 0))
    # the cap is configurable in both directions
    with pytest.raises(CapacityError):
        list(enumerate_naive(k1, 0, max_attributes=3))
    assert len(list(enumerate_naive(k1, 0, max_attributes=4))) == 6


def test_naive_extents(k1):
    by_intent = {c.intent: c.extent for c in enumerate_naive(k1, 0, with_extents=True)}
    assert by_intent[(3,)] == (0, 1, 2, 3)
    assert by_intent[(1, 3)] == (0, 1)
    assert by_intent[(1, 2, 3, 4)] == ()


def test_closure_laws_and_galois_properties():
    # extensivity, monotony, idempotency, and the antitone law for down().
    import random

    rng = random.Random(42)
    for i in range(30):
        ctx = random_context(i)
        n = ctx.num_attributes
        if n == 0:
            continue
        for _ in range(20):
            B = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            D = tuple(sorted(set(B) | set(rng.sample(range(1, n + 1), rng.randint(0, n)))))
            cB, cD = closure(ctx, B), closure(ctx, D)
            assert set(B) <= set(cB)
            assert set(cB) <= set(cD)  # B <= D implies closure(B) <= closure(D)
            assert closure(ctx, cB) == cB
            assert set(down(ctx, D).members) <= set(down(ctx, B).members)


def test_naive_equals_direct_subset_sweep():
    # Self-consistency: the recursive walk finds exactly the closed subsets
    # that a flat loop over all bitmasks finds.
    from itertools import combinations

    for i in (0, 3, 7):
        ctx = random_context(i)
        n = ctx.num_attributes
        if n > 10:
            continue
        direct = set()
        for size in range(n + 1):
            for B in combinations(range(1, n + 1), size):
                if closure(ctx, B) == B:
                    direct.add((B, down(ctx, B).weighted_size))
        assert concept_set(enumerate_naive(ctx, 0)) == direct


def test_full_density_single_concept():
    ctx = generate_context(1, 6, 5, 1.0)
    assert concept_set(enumerate_naive(ctx, 0)) == {((1, 2, 3, 4, 5), 6)}
