from conceptmine import EnumerationStats, cbo_enumerate, enumerate_naive

from conftest import K1_CONCEPTS, concept_set, random_context


def test_cbo_matches_oracle_on_k1(k1):
    assert concept_set(cbo_enumerate(k1, 0)) == K1_CONCEPTS


def test_cbo_stats_identity_on_k1(k1):
    stats = EnumerationStats()
    concepts = list(cbo_enumerate(k1, 0, stats=stats))
    assert stats.concepts_emitted == 6 == len(concepts)
    assert stats.recursive_calls == stats.concepts_emitted + stats.canonicity_failures


def test_cbo_nothing_frequent(k1):
    assert list(cbo_enumerate(k1, 5)) == []  # weighted |X| is 4


def test_cbo_completeness_on_random_contexts():
    for i in range(40):
        ctx = random_context(i)
        for s in (0, 1, 2):
            assert concept_set(cbo_enumerate(ctx, s)) == concept_set(enumerate_naive(ctx, s))


def test_cbo_closure_count_bounds():
    for i in range(10):
        ctx = random_context(i)
        stats = EnumerationStats()
        concepts = list(cbo_enumerate(ctx, 0, stats=stats))
        assert len(concepts) <= stats.closure_computations <= 2 ** ctx.num_attributes


def test_cbo_apriori_monotonicity():
    for i in range(10):
        ctx = random_context(i)
        previous = None
        for s in (0, 1, 2, 3):
            current = concept_set(cbo_enumerate(ctx, s))
            if previous is not None:
                assert current <= previous
            previous = current


def test_cbo_emits_each_intent_once():
    for i in range(20):
        ctx = random_context(i)
        intents = [c.intent for c in cbo_enumerate(ctx, 0)]
        assert len(intents) == len(set(intents))


def test_cbo_extents(k1):
    by_intent = {c.intent: c.extent for c in cbo_enumerate(k1, 0, with_extents=True)}
    assert by_intent[(2, 3)] == (0, 2)
    assert by_intent[(3,)] == (0, 1, 2, 3)
