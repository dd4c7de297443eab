import pytest

from conceptmine import EnumerationStats, cbo_enumerate, enumerate_naive, lcm3_enumerate, preprocess
from conceptmine.bits import ids_of
from conceptmine.derive import Concept, depth_first

from conftest import K1_CONCEPTS, concept_set, random_context, weighted_context


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


def list_scan_cbo(ctx, min_support=0, *, with_extents=False, stats=None):
    """CbO with list extents: each child scans its attribute's rows for members.

    A child that adds y is canonical when its closure adds nothing above y, and
    its own children try the attributes below y in ascending order.
    """
    st = stats if stats is not None else EnumerationStats()
    if ctx.total_weight < min_support:
        return
    n = ctx.num_attributes
    masks = ctx.row_masks
    weights = ctx.weights
    columns = [[] for _ in range(n + 1)]
    for x, row in enumerate(ctx.rows):
        for a in row:
            columns[a].append(x)
    full = (1 << n) - 1

    def generate(extent, extent_weight, B, y):
        st.recursive_calls += 1
        st.closure_computations += 1
        D = full
        for x in extent:
            D &= masks[x]
        above = full >> y << y
        if D & above != B & above:
            st.canonicity_failures += 1
            return
        st.concepts_emitted += 1
        yield Concept(ids_of(D), extent_weight, tuple(extent) if with_extents else None)
        have = set(extent)
        for i in range(1, y):
            if D >> (i - 1) & 1:
                continue
            child = []
            child_weight = 0
            for x in columns[i]:
                if x in have:
                    child.append(x)
                    child_weight += weights[x]
            if child_weight < min_support:
                continue
            yield generate(child, child_weight, D | (1 << (i - 1)), i)

    yield from depth_first(generate(list(range(ctx.num_objects)), ctx.total_weight, 0, n + 1))


def weight_case(ctx):
    """The weights of a context: cbo counts a child when every weight is 1, else sums it."""
    heavy = sum(w > 1 for w in ctx.weights)
    if not ctx.num_objects:
        return "no objects"
    if not heavy:
        return "every weight 1"
    return "some weight above 1" if 2 * heavy <= ctx.num_objects else "most weights above 1"


@pytest.mark.parametrize("with_extents", [False, True])
def test_cbo_equals_the_list_scan_reference(with_extents):
    seen = set()
    for seed in range(120):
        ctx = weighted_context(seed)
        seen.add(weight_case(ctx))
        if [] in ctx.rows:
            seen.add("empty row")
        if len(ctx.distinct_rows) < ctx.num_objects:
            seen.add("repeated row")
        if 0 in ctx.attr_cardinality[1:]:
            seen.add("unused attribute")
        for s in range(4):
            got_stats, want_stats = EnumerationStats(), EnumerationStats()
            got = list(cbo_enumerate(ctx, s, with_extents=with_extents, stats=got_stats))
            want = list(list_scan_cbo(ctx, s, with_extents=with_extents, stats=want_stats))
            assert got == want, (seed, s)
            assert got_stats == want_stats, (seed, s)
            for c in got:
                if with_extents:
                    assert type(c.extent) is tuple
                    assert list(c.extent) == sorted(set(c.extent))
                else:
                    assert c.extent is None
    assert seen == {
        "no objects",
        "empty row",
        "repeated row",
        "unused attribute",
        "every weight 1",
        "some weight above 1",
        "most weights above 1",
    }


@pytest.mark.parametrize("with_extents", [False, True])
def test_cbo_equals_the_list_scan_reference_on_preprocessed_contexts(with_extents):
    # The CLI mines preprocessed contexts: identical rows merged into one
    # heavier row where that halves the rows, rows in descending weight,
    # attributes by cardinality.
    seen = set()
    for seed in range(60):
        for ctx in (weighted_context(seed), random_context(seed)):
            for s in range(4):
                pre, _, _ = preprocess(ctx, s)
                assert pre.weights == sorted(pre.weights, reverse=True)
                seen.add(weight_case(pre))
                got_stats, want_stats = EnumerationStats(), EnumerationStats()
                got = list(cbo_enumerate(pre, s, with_extents=with_extents, stats=got_stats))
                want = list(list_scan_cbo(pre, s, with_extents=with_extents, stats=want_stats))
                assert got == want, (seed, s)
                assert got_stats == want_stats, (seed, s)
    assert seen == {"no objects", "every weight 1", "some weight above 1", "most weights above 1"}


def test_cbo_walks_the_tree_of_lcm3s_fp_trees():
    # The paper's claim: LCM is CbO plus speed-up features.  With FP-trees from
    # the root, lcm3 generates children in mirrored order, as cbo does, so both
    # visit the same nodes.  Support 0 is left out: there cbo also visits
    # children with an empty extent, which no FP-tree list holds.
    for make in (random_context, weighted_context):
        for seed in range(80):
            ctx = make(seed)
            for s in (1, 2, 3, 5):
                got, want = EnumerationStats(), EnumerationStats()
                cbo = concept_set(cbo_enumerate(ctx, s, stats=got))
                lcm3 = concept_set(lcm3_enumerate(ctx, s, None, stats=want))
                assert cbo == lcm3, (make.__name__, seed, s)
                assert (got.recursive_calls, got.canonicity_failures) == (
                    want.recursive_calls,
                    want.canonicity_failures,
                ), (make.__name__, seed, s)
