import functools
import json
import math
import random
from pathlib import Path

import pytest

from conceptmine import (
    EnumerationStats,
    FormalContext,
    PruneRuleStore,
    PruningSoundnessError,
    cbo_enumerate,
    closure,
    create_conditional_db,
    down,
    enumerate_naive,
    frequencies,
    lcm2_enumerate,
    lcm3_enumerate,
    mine_concepts,
    occurrence_deliver,
    parse_fimi,
    preprocess,
    root_database,
)
from conceptmine import lcm as lcm_module
from conceptmine.bits import RowSet, set_bits

from conftest import K1_ROWS, K1_WORKING_CONCEPTS, concept_set, random_context, weighted_context


def k1_root_db():
    return root_database(FormalContext([[1, 2, 3], [1, 3], [2, 3], [3, 4]]))


def members(rows):
    return list(set_bits(rows))


def test_occurrence_deliver_k1_root():
    # Root node after closing {3}: live children are 1, 2, 4.
    root = k1_root_db()
    db = create_conditional_db(root, root.extent, 0, [1, 2, 4])
    # Ascending pairs: the engine pops the largest attribute first.
    assert [a for a, _ in occurrence_deliver(db)] == [1, 2, 4]
    buckets = dict(occurrence_deliver(db))
    weight_of = db.ctx.weight_of
    assert members(buckets[1]) == [0, 1] and weight_of(buckets[1]) == 2
    assert members(buckets[2]) == [0, 2] and weight_of(buckets[2]) == 2
    assert members(buckets[4]) == [3] and weight_of(buckets[4]) == 1
    assert len(buckets[4]) == 1  # a bucket's len() is its row count


def test_occurrence_deliver_single_row():
    db = root_database(FormalContext([[1, 2]]))
    buckets = dict(occurrence_deliver(db))
    assert members(buckets[1]) == members(buckets[2]) == [0]


def test_occurrence_deliver_weighted_rows():
    db = root_database(FormalContext([[1, 2], [1], [2]], weights=[3, 5, 6]))
    buckets = dict(occurrence_deliver(db))
    assert list(buckets) == [1, 2]  # one bucket per suffix attribute
    assert members(buckets[1]) == [0, 1] and db.ctx.weight_of(buckets[1]) == 8
    assert members(buckets[2]) == [0, 2] and db.ctx.weight_of(buckets[2]) == 9


def test_frequencies_k1_root():
    db = k1_root_db()
    assert frequencies(db, db.extent, db.attrs) == ([2, 2, 4, 1], 4)


def test_frequencies_counts_interior_intersections():
    # Conditional database built below: prefix attributes {1, 2}, suffix {5}.
    # The prefix attributes stand where interior intersections stood in a
    # row-merging database, and frequencies counts them like the suffix ones.
    base = root_database(FormalContext([[1, 4], [2, 4], [1, 2, 4, 5]]))
    db = create_conditional_db(base, base.extent, 3, [5])
    assert db.attrs == (1, 2, 5)
    assert frequencies(db, db.extent, db.attrs) == ([2, 2, 1], 3)
    assert frequencies(db, RowSet(0b110), db.attrs) == ([1, 2, 1], 2)
    assert frequencies(db, RowSet(0b010), db.attrs) == ([0, 1, 0], 1)  # zeros stay aligned
    assert frequencies(db, RowSet(0b110), db.suffix_attrs) == ([1], 2)


def test_frequencies_empty_db():
    db = root_database(FormalContext([], num_attributes=0))
    assert frequencies(db, db.extent, db.attrs) == ([], 0)


def test_create_conditional_db_steps():
    """The prefix is carried uncounted, the suffix taken as given; ``split`` is the cut."""
    # Rows 0-2 share attribute 4; attribute 3 occurs only in row 3.
    base = root_database(FormalContext([[1, 4], [2, 4], [1, 2, 4, 5], [3]]))
    db = create_conditional_db(base, RowSet(0b111), 4, [5])
    assert db.attrs[: db.split] == (1, 2, 3)  # 3 is absent from the extent, yet carried
    assert db.suffix_attrs == (5,)
    assert db.split == 3
    assert members(db.extent) == [0, 1, 2] and db.num_rows == 3
    assert db.ctx.weight_of(db.extent) == 3
    db.validate()
    # Nothing is recounted: full attribute 4 stays when the caller keeps it.
    assert create_conditional_db(base, RowSet(0b111), 4, [4, 5]).suffix_attrs == (4, 5)


def test_conditional_database_validate_checks_the_order_and_the_split():
    base = root_database(FormalContext([[1, 4], [2, 4], [1, 2, 4, 5], [3]]))
    db = create_conditional_db(base, RowSet(0b111), 4, [5])
    assert (db.attrs, db.split) == ((1, 2, 3, 5), 3)
    db.attrs = (2, 1, 3, 5)
    with pytest.raises(AssertionError, match="ascending"):
        db.validate()
    db.attrs, db.split = (1, 2, 3, 5), 2
    with pytest.raises(AssertionError, match="suffix attribute 3 full or empty"):
        db.validate()
    db.attrs, db.split = (1, 2, 4, 5), 3
    with pytest.raises(AssertionError, match="prefix attribute 4 full"):
        db.validate()


def test_create_conditional_db_drops_infrequent():
    # Attribute 5 occurs once: at min support 1 the root delivers it, at 2 the
    # node's count drops it, and it reaches no delivered bucket.
    ctx = FormalContext([[1, 4], [2, 4], [1, 2, 4, 5]])
    for min_support in (1, 2):
        seen = []
        list(lcm2_enumerate(ctx, min_support, node_inspector=lambda b, w: seen.append(w)))
        assert seen
        assert any(5 in buckets for buckets in seen) == (min_support == 1)


def test_create_conditional_db_mid_tree_node():
    # K1 at the node with intent {1,3}: extent rows 0 and 1, anchor 1.
    root = k1_root_db()
    extent = RowSet(0b11)
    db = create_conditional_db(root, extent, 1, [2])
    assert db.suffix_attrs == (2,)
    assert [(a, members(rows)) for a, rows in occurrence_deliver(db)] == [(2, [0])]
    assert db.ctx.weight_of(db.extent) == 2


def test_create_conditional_db_single_row():
    root = k1_root_db()
    extent = RowSet(0b1)
    # a one-row extent has every attribute full or empty: the suffix is empty
    db = create_conditional_db(root, extent, 0, [])
    assert db.attrs == () and db.split == 0
    assert db.ctx.weight_of(db.extent) == 1


def test_prune_rule_store_should_skip():
    store = PruneRuleStore()
    store.push_frame()
    store.record_failure(4, 1)
    assert store.should_skip(4)
    assert not store.should_skip(1)
    store.pop_frame()
    assert not store.should_skip(4)
    assert len(store) == 0


def test_prune_rule_store_right_side_removal():
    store = PruneRuleStore()
    store.push_frame()
    store.record_failure(4, 1)
    store.record_failure(5, 2)
    store.remove_rules_by_right_side(1)
    assert not store.should_skip(4)
    assert store.should_skip(5)
    store.pop_frame()
    assert len(store) == 0


def test_prune_rule_store_frames_are_independent():
    store = PruneRuleStore()
    store.push_frame()
    store.record_failure(4, 1)
    store.push_frame()
    store.record_failure(6, 2)
    store.pop_frame()
    assert not store.should_skip(6)
    assert store.should_skip(4)
    store.pop_frame()


def test_prune_rule_store_matches_a_brute_force_model():
    # The model is a plain list of (frame depth, left, right) rules.
    rng = random.Random(11)
    for _ in range(300):
        store, model, depth = PruneRuleStore(), [], 0
        for _ in range(rng.randint(1, 60)):
            op = rng.random()
            if depth == 0 or op < 0.25:
                store.push_frame()
                depth += 1
            elif op < 0.45:
                store.pop_frame()
                model = [r for r in model if r[0] != depth]
                depth -= 1
            elif op < 0.8:
                left = rng.randint(2, 9)
                right = rng.randint(1, left - 1)
                store.record_failure(left, right)
                model.append((depth, left, right))
            else:
                right = rng.randint(1, 9)
                store.remove_rules_by_right_side(right)
                model = [r for r in model if r[2] != right]
            assert len(store) == len(model)
            for attr in range(11):
                assert store.should_skip(attr) == any(r[1] == attr for r in model)
            # Only live rules are held.
            assert sum(map(len, store._by_right.values())) == len(model)
        while depth:
            store.pop_frame()
            depth -= 1
        assert len(store) == 0 and not store._by_right
        assert not any(store.should_skip(attr) for attr in range(11))


def test_prune_rule_store_rejects_bad_rule():
    store = PruneRuleStore()
    store.push_frame()
    with pytest.raises(ValueError):
        store.record_failure(2, 3)


def test_lcm2_matches_oracle_on_k1(k1):
    pre, _, _ = preprocess(k1, 0)
    assert concept_set(lcm2_enumerate(pre, 0)) == K1_WORKING_CONCEPTS


def test_lcm2_min_support_2(k1):
    pre, _, _ = preprocess(k1, 2)
    # Attribute 4 is dropped; 3, 1, 2 become the working ids 1, 2, 3.
    expected = {((1,), 4), ((1, 2), 2), ((1, 3), 2)}
    assert concept_set(lcm2_enumerate(pre, 2)) == expected


def test_lcm2_pruning_only_removes_calls(k1):
    for i in range(30):
        ctx = random_context(i)
        pre, _, _ = preprocess(ctx, 0)
        on, off = EnumerationStats(), EnumerationStats()
        with_rules = concept_set(lcm2_enumerate(pre, 0, pruning=True, stats=on))
        without = concept_set(lcm2_enumerate(pre, 0, pruning=False, stats=off))
        assert with_rules == without
        assert on.recursive_calls <= off.recursive_calls


# Hand-built so a stored rule fires: closure({4}) = {1,3,4} records "4 adds 1",
# which later skips the child {3,4} under the node {3}.
PRUNING_ROWS = [[1, 3, 4], [2, 3], [2], [1]]


def test_lcm2_pruning_strictly_reduces_calls():
    ctx = FormalContext(PRUNING_ROWS)
    on, off = EnumerationStats(), EnumerationStats()
    a = concept_set(lcm2_enumerate(ctx, 0, pruning=True, stats=on, check_pruning=True))
    b = concept_set(lcm2_enumerate(ctx, 0, pruning=False, stats=off))
    assert a == b
    assert on.pruning_rule_hits > 0
    assert on.recursive_calls < off.recursive_calls


def test_check_pruning_raises_on_an_unsound_skip(k1, monkeypatch):
    # A rule store that skips every child: the first skip whose closure
    # passes the canonicity test raises.
    monkeypatch.setattr(lcm_module.PruneRuleStore, "should_skip", lambda self, attr: True)
    with pytest.raises(PruningSoundnessError, match=r"skipped attribute 4 under \(1,\)"):
        mine_concepts(k1, 1, algorithm="lcm2", check_pruning=True)


def test_lcm2_stats_identity():
    for i in range(20):
        ctx = random_context(i)
        pre, _, _ = preprocess(ctx, 1)
        stats = EnumerationStats()
        concepts = list(lcm2_enumerate(pre, 1, stats=stats))
        assert stats.concepts_emitted == len(concepts)
        assert stats.recursive_calls == stats.concepts_emitted + stats.canonicity_failures


def test_lcm2_oracle_equivalence_random():
    for i in range(40):
        ctx = random_context(i)
        for s in (0, 1, 2, 3):
            pre, _, _ = preprocess(ctx, s)
            got = concept_set(lcm2_enumerate(pre, s, check_pruning=True))
            assert got == concept_set(enumerate_naive(pre, s)), (i, s)
    # Raw weighted contexts, unpreprocessed: empty rows, attributes in no row,
    # and contexts with no objects, whose only concept at support 0 is the
    # full intent (or the empty one when there is no attribute either).
    engines = {"lcm2": functools.partial(lcm2_enumerate, check_pruning=True)}
    for width in (0, 4, math.inf):
        engines[f"lcm3/{width}"] = functools.partial(
            lcm3_enumerate, dense_width=width, check_pruning=True
        )
    for seed in range(300):
        ctx = weighted_context(seed)
        for s in (0, 1, 2, 3):
            want = set(enumerate_naive(ctx, s, with_extents=True))
            for name, engine in engines.items():
                stats = EnumerationStats()
                got = list(engine(ctx, s, with_extents=True, stats=stats))
                assert set(got) == want, (seed, s, name)
                assert stats.concepts_emitted == len(got), (seed, s, name)
                assert stats.recursive_calls == len(got) + stats.canonicity_failures


PINNED = json.loads((Path(__file__).parent / "lcm_pinned_stats.json").read_text())


def test_lcm_stats_pinned_on_a_fixed_corpus():
    # Counting only a node's tail must leave every tree and every counter as
    # they were, FP-tree engagement at every width included.
    assert PINNED["fields"] == list(EnumerationStats.__slots__)
    engines = [
        functools.partial(lcm2_enumerate, pruning=True),
        functools.partial(lcm2_enumerate, pruning=False),
        *(functools.partial(lcm3_enumerate, dense_width=w) for w in (1, 4, 10, math.inf)),
    ]
    assert len(engines) == len(PINNED["configs"])
    for entry in PINNED["entries"]:
        corpus = random_context if entry["corpus"] == "random" else weighted_context
        support = entry["support"]
        pre, _, _ = preprocess(corpus(entry["seed"]), support)
        for engine, config, want in zip(engines, PINNED["configs"], entry["stats"]):
            stats = EnumerationStats()
            list(engine(pre, support, stats=stats))
            got = [getattr(stats, field) for field in PINNED["fields"]]
            assert got == want, (entry["corpus"], entry["seed"], support, config)


def test_lcm_run_state_lives_in_the_run():
    # Runs advanced in turn, one concept each, share no rule store and no
    # counter: each yields the concepts, in the order, and the counters of the
    # same run made alone.  Two of them mine the same context with pruning.
    first = preprocess(random_context(2), 1)[0]
    second = preprocess(random_context(15), 1)[0]
    runs = [
        (functools.partial(lcm2_enumerate, check_pruning=True), first),
        (functools.partial(lcm3_enumerate, dense_width=4), second),
        (lcm2_enumerate, first),
    ]
    alone = []
    for engine, ctx in runs:
        stats = EnumerationStats()
        alone.append((list(engine(ctx, 1, stats=stats)), stats))
    assert alone[0][1].pruning_rule_hits > 0 and alone[1][1].pruning_rule_hits > 0
    together = [([], EnumerationStats()) for _ in runs]
    pending = [
        (engine(ctx, 1, stats=stats), concepts)
        for (engine, ctx), (concepts, stats) in zip(runs, together)
    ]
    while pending:
        for run in list(pending):
            concept = next(run[0], None)
            if concept is None:
                pending.remove(run)
            else:
                run[1].append(concept)
    assert together == alone


def test_lcm_nodes_count_only_their_tail(monkeypatch):
    # Spied through the module, as perfbench/tracer.py does: a node counts its
    # tail within its extent, and only a node with a frequent extension then
    # builds its child database, whose suffix those counts pick; a leaf
    # builds none.
    events = []
    frequencies_of = lcm_module.frequencies
    create = lcm_module.create_conditional_db

    def spy_frequencies(db, extent, attrs):
        counted = frequencies_of(db, extent, attrs)
        events.append(("count", extent, db.attrs, attrs, counted))
        return counted

    def spy_create(db, extent, anchor, suffix):
        child = create(db, extent, anchor, suffix)
        events.append(("db", extent, anchor, list(suffix), child))
        return child

    monkeypatch.setattr(lcm_module, "frequencies", spy_frequencies)
    monkeypatch.setattr(lcm_module, "create_conditional_db", spy_create)
    contexts = [random_context(i) for i in range(60)] + [weighted_context(s) for s in range(120)]
    leaves = 0
    for i, ctx in enumerate(contexts):
        for s in (0, 1, 2):
            pre, _, _ = preprocess(ctx, s)
            for engine in (lcm2_enumerate, functools.partial(lcm3_enumerate, dense_width=4)):
                events.clear()
                concepts = list(engine(pre, s))
                for event in events:
                    if event[0] == "db":
                        event[-1].validate()
                if engine is not lcm2_enumerate:
                    continue
                # LCM2 counts once per emitted concept; the top concept with an
                # empty extent is emitted uncounted.
                counts = sum(event[0] == "count" for event in events)
                assert counts == sum(c.support > 0 for c in concepts), (i, s)
                for event, after in zip(events, [*events[1:], None]):
                    if event[0] == "db":
                        continue
                    _, extent, db_attrs, attrs, (ns, weight) = event
                    assert attrs == db_attrs[len(db_attrs) - len(attrs) :], (i, s, attrs)
                    # A database follows a count exactly when the counts show a
                    # frequent attribute that does not cover the extent, and
                    # those attributes are its suffix.
                    expected = [a for a, n in zip(attrs, ns) if max(1, s) <= n < weight]
                    builds = after is not None and after[0] == "db"
                    assert builds == bool(expected), (i, s, ns, weight)
                    leaves += not builds
                    if builds:
                        _, db_extent, anchor, suffix, _ = after
                        assert suffix == expected, (i, s, ns, weight)
                        assert db_extent == extent, (i, s)
                        assert all(a >= anchor for a in attrs), (i, s, anchor, attrs)
                for before, event in zip([None, *events], events):
                    if event[0] == "db":
                        assert before is not None and before[0] == "count", (i, s)
    assert leaves


def test_lcm2_bucket_faithfulness_via_inspector(k1):
    pre, _, _ = preprocess(k1, 0)
    seen = []
    list(lcm2_enumerate(pre, 0, node_inspector=lambda b, w: seen.append((b, w))))
    assert seen
    for intent, weights_by_attr in seen:
        for attr, weight in weights_by_attr.items():
            assert weight == down(pre, intent + (attr,)).weighted_size


def test_mine_concepts_inspector_sees_original_ids():
    # Sparse original ids: parse_fimi renumbers them 1..5, preprocess again.
    originals = (3, 5, 8, 11, 17)
    rng = random.Random(3)
    for trial in range(6):
        rows = [sorted(rng.sample(originals, rng.randint(1, 4))) for _ in range(12)]
        raw = FormalContext(rows)
        ctx, remap = parse_fimi("".join(" ".join(map(str, row)) + "\n" for row in rows))
        for algorithm, options in (("lcm2", {}), ("lcm3", {"dense_width": 6})):
            seen = []
            mine_concepts(
                ctx,
                1,
                algorithm=algorithm,
                base_remap=remap,
                node_inspector=lambda intent, buckets: seen.append((intent, buckets)),
                **options,
            )
            assert seen, (trial, algorithm)
            for intent, buckets in seen:
                assert set(intent) <= set(originals), (trial, algorithm, intent)
                assert set(buckets) <= set(originals), (trial, algorithm, buckets)
                for attr, weight in buckets.items():
                    assert weight == down(raw, intent + (attr,)).weighted_size


def test_lcm2_interior_intersection_canonicity():
    # A prefix attribute is full in a conditional database exactly when it
    # belongs to the closure of the node's intent in the source context.
    for i in (1, 5, 9, 13):
        ctx = random_context(i)
        pre, _, _ = preprocess(ctx, 1)
        db = root_database(pre)
        counts, weight = frequencies(db, db.extent, db.attrs)
        live = [a for a, n in zip(db.attrs, counts) if 0 < n < weight]
        if len(live) < 2:
            continue
        anchor = live[len(live) // 2]
        child = create_conditional_db(db, db.extent, anchor, [a for a in live if a >= anchor])
        for extent_attr, rows in occurrence_deliver(child):
            sub_counts, sub_weight = frequencies(child, rows, child.attrs)
            sub_counts = dict(zip(child.attrs, sub_counts))
            closed = closure(pre, (extent_attr,))
            for p in child.attrs[: child.split]:
                assert (sub_counts[p] == sub_weight) == (p in closed)
                assert (pre.columns[p] & rows == rows) == (p in closed)


def test_lcm2_extents(k1):
    pre, _, merge = preprocess(k1, 0)
    by_intent = {}
    for c in lcm2_enumerate(pre, 0, with_extents=True):
        by_intent[c.intent] = merge.to_original(c.extent)
    # Working ids: 3, 1, 2, 4 become 1, 2, 3, 4.
    assert by_intent[(1,)] == (0, 1, 2, 3)
    assert by_intent[(1, 2)] == (0, 1)
    assert by_intent[(1, 2, 3, 4)] == ()


@pytest.mark.parametrize(
    ("engine", "min_support"),
    [
        pytest.param(engine, value, id=engine.__name__ + suffix)
        for value, suffix in ((-1, ""), (math.nan, "-nan"))
        for engine in (enumerate_naive, cbo_enumerate, lcm2_enumerate, lcm3_enumerate, preprocess)
    ],
)
def test_engines_reject_a_negative_min_support(engine, min_support):
    # At -1 an engine that tested ``min_support == 0`` would drop the support-0
    # bottom.  NaN fails every comparison, so a ``< 0`` test let it through, and
    # naive then found no concept where the others found the top one.
    ctx = FormalContext([[1, 2], [2, 3], [1]])
    with pytest.raises(ValueError, match="min_support must be non-negative"):
        list(engine(ctx, min_support))


def test_preprocessing_options_never_change_the_concept_set():
    # Preprocessing merges random_context 0, 5 and 9 and weighted_context 7;
    # it keeps one row per object of random_context 14 (equal rows included)
    # and of K1.
    contexts = [random_context(i) for i in (0, 5, 9, 14)]
    contexts += [weighted_context(7), FormalContext(K1_ROWS)]
    merged = [preprocess(ctx, 1)[0].num_objects < ctx.num_objects for ctx in contexts]
    assert merged == [True, True, True, False, True, False]
    # Each context is mined again with attribute a relabelled n + 1 - a, which
    # reverses the order of attributes of equal cardinality.
    for i, ctx in enumerate(contexts):
        oracle = concept_set(enumerate_naive(ctx, 1))
        n = ctx.num_attributes
        mirrored = FormalContext(
            [[n + 1 - a for a in row] for row in ctx.rows], ctx.weights, num_attributes=n
        )
        for algorithm in ("cbo", "lcm2", "lcm3"):
            assert concept_set(mine_concepts(ctx, 1, algorithm=algorithm)) == oracle, (i, algorithm)
            got = {
                (tuple(sorted(n + 1 - a for a in c.intent)), c.support)
                for c in mine_concepts(mirrored, 1, algorithm=algorithm)
            }
            assert got == oracle, (i, "mirrored", algorithm)

