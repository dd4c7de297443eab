import functools
import math
import operator
import random

import pytest

from conceptmine import (
    CompleteFpTree,
    ConfigurationError,
    EnumerationStats,
    FormalContext,
    build_complete_fptree,
    closure,
    conditional_fptree,
    down,
    enumerate_naive,
    intent_of_list,
    lcm2_enumerate,
    lcm3_enumerate,
    preprocess,
)
from conceptmine.bits import ids_of
from conceptmine.cli import generate_context

from conftest import K1_WORKING_CONCEPTS, concept_set, random_context, weighted_context

# K1 renumbered by descending cardinality (attribute 1 = most frequent).
K1_DENSE = [[1, 2, 3], [1, 2], [1, 3], [1, 4]]


def nodes_of(tree, attr):
    return [(ids_of(path), w, ids_of(inner)) for path, (w, inner) in tree.lists[attr].items()]


def test_build_initial_and_extension_steps():
    tree = build_complete_fptree(K1_DENSE)
    tree.validate()
    assert nodes_of(tree, 1) == [((1,), 4, (1,))]
    assert nodes_of(tree, 2) == [((1, 2), 2, (1, 2))]
    assert nodes_of(tree, 3) == [((1, 2, 3), 1, (1, 2, 3)), ((1, 3), 1, (1, 3))]
    assert nodes_of(tree, 4) == [((1, 4), 1, (1, 4))]


def test_build_merges_identical_rows():
    tree = build_complete_fptree([[3, 4, 5], [1, 3, 4, 5], [3, 4, 5]])
    assert nodes_of(tree, 5)[0] == ((3, 4, 5), 2, (3, 4, 5))  # the two equal rows share a node


def test_build_rejects_empty_rows():
    with pytest.raises(ValueError):
        build_complete_fptree([[1], []])
    # The rows are checked as FormalContext checks them, width as its count.
    with pytest.raises(ValueError, match="out of range"):
        build_complete_fptree([[1], [0, 2]])
    with pytest.raises(ValueError, match="attribute ids must be integers"):
        build_complete_fptree([[1], [1.5, 2]])
    with pytest.raises(ValueError, match="exceeds declared count 2"):
        build_complete_fptree([[1], [1, 3]], width=2)


def test_build_rejects_bad_weights():
    # zip would drop the third row, and weights below 1 break validate().
    with pytest.raises(ValueError, match="differ in length"):
        build_complete_fptree([[1], [1, 2], [2]], weights=[1, 1])
    for bad in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            build_complete_fptree([[1], [1, 2], [2]], weights=[1, bad, 1])
    # As FormalContext reads them: a float or a string is no weight.
    for bad in (1.5, "2"):
        with pytest.raises(ValueError, match="must be integers"):
            build_complete_fptree([[1], [1, 2], [2]], weights=[1, bad, 1])


def test_tree_rejects_a_negative_path_mask():
    # The extension counts the mask's bits down to 0, which a negative int never reaches.
    for bad in (-1, -6):
        with pytest.raises(ValueError, match="non-negative"):
            CompleteFpTree(bad, [(3, (1, 3))])


def test_conditional_tree_on_attribute_3():
    tree = build_complete_fptree(K1_DENSE)
    cond = conditional_fptree(tree, 3, tree.path_mask)
    assert nodes_of(cond, 1) == [((1,), 2, (1, 3))]
    assert nodes_of(cond, 2) == [((1, 2), 1, (1, 2, 3))]
    cond.validate()


def test_conditional_tree_trivial_cases():
    single = build_complete_fptree([[1]])
    assert conditional_fptree(single, 1, single.path_mask).lists == {}
    tree = build_complete_fptree(K1_DENSE)
    assert conditional_fptree(tree, 1, tree.path_mask).lists == {}  # the most frequent attribute
    # an attribute with no list yields an empty tree as well
    sparse = build_complete_fptree([[1, 2]], width=5)
    assert conditional_fptree(sparse, 4, sparse.path_mask).lists == {}


def test_intent_of_list_values():
    tree = build_complete_fptree(K1_DENSE)
    assert intent_of_list(tree, 1) == ((1,), 4)
    assert intent_of_list(tree, 3) == ((1, 3), 2)
    assert intent_of_list(tree, 4) == ((1, 4), 1)
    with pytest.raises(ValueError):
        intent_of_list(conditional_fptree(tree, 1, tree.path_mask), 1)
    # numpy rows are taken as int rows: a numpy mask would drop attribute 70.
    np = pytest.importorskip("numpy")
    tree = build_complete_fptree(np.array([[1, 70], [2, 70]]))
    assert intent_of_list(tree, 70) == ((70,), 2)
    assert tree.path_mask == (1 << 70) - 1


def test_list_weights_equal_attribute_cardinalities():
    for i in range(30):
        ctx = generate_context(2000 + i, 5 + i % 20, 2 + i % 15, (0.3, 0.5, 0.7)[i % 3])
        rows = [r for r in ctx.rows if r]
        if not rows:
            continue
        tree = build_complete_fptree(rows, width=ctx.num_attributes)
        tree.validate()
        sub = FormalContext(rows, num_attributes=ctx.num_attributes)
        for a in tree.attributes():
            assert tree.list_weight(a) == sub.attr_cardinality[a]


def test_intent_of_list_matches_closure():
    for i in range(20):
        ctx = generate_context(2500 + i, 4 + i % 18, 2 + i % 14, 0.5)
        rows = [r for r in ctx.rows if r]
        if not rows:
            continue
        sub = FormalContext(rows, num_attributes=ctx.num_attributes)
        tree = build_complete_fptree(rows, width=ctx.num_attributes)
        for a in tree.attributes():
            intent, support = intent_of_list(tree, a)
            assert intent == closure(sub, (a,))
            assert support == down(sub, (a,)).weighted_size


def test_node_inner_is_row_partition_intersection():
    # Reference partition: list a groups rows by their projection onto 1..a.
    for i in range(12):
        ctx = generate_context(2700 + i, 4 + i % 16, 2 + i % 10, 0.4)
        rows = [r for r in ctx.rows if r]
        if not rows:
            continue
        tree = build_complete_fptree(rows, width=ctx.num_attributes)
        for a in tree.attributes():
            groups = {}
            for row in rows:
                head = tuple(x for x in row if x <= a)
                if head and head[-1] == a:
                    entry = groups.setdefault(head, [0, set(range(1, ctx.num_attributes + 1))])
                    entry[0] += 1
                    entry[1] &= set(row)
            nodes = {ids_of(p): (w, set(ids_of(inner))) for p, (w, inner) in tree.lists[a].items()}
            assert nodes == {head: (w, inner) for head, (w, inner) in groups.items()}


def test_conditional_chain_equals_restricted_build():
    # Extracting the conditional tree must equal building a tree from the
    # restricted and projected rows directly.
    for i in range(10):
        ctx = generate_context(2900 + i, 6 + i % 14, 3 + i % 10, 0.5)
        rows = [r for r in ctx.rows if r]
        tree = build_complete_fptree(rows, width=ctx.num_attributes)
        for a in list(tree.attributes()):
            cond = conditional_fptree(tree, a, tree.path_mask)
            projected = [[x for x in row if x < a] for row in rows if a in row]
            projected = [r for r in projected if r]
            if not projected:
                assert cond.lists == {}
                continue
            rebuilt = build_complete_fptree(projected, width=a - 1)
            got = {k: {p: w for p, (w, _) in nodes.items()} for k, nodes in cond.lists.items()}
            want = {k: {p: w for p, (w, _) in nodes.items()} for k, nodes in rebuilt.lists.items()}
            assert got == want


def test_conditional_tree_with_keep_matches_grouped_rows():
    # List k of conditional_fptree(tree, attr, keep) groups the weighted rows
    # containing attr and k by their projection onto keep and 1..k; the inner
    # is the intersection of the whole rows of a group.
    rng = random.Random(11)
    for i in range(40):
        width = rng.randrange(2, 14)
        rows = [
            sorted(rng.sample(range(1, width + 1), rng.randrange(1, width + 1)))
            for _ in range(rng.randrange(1, 30))
        ]
        weights = [rng.randrange(1, 4) for _ in rows]
        tree = build_complete_fptree(rows, weights, width=width)
        for attr in range(1, width + 1):
            assert conditional_fptree(tree, attr, 0).lists == {}
            keep = rng.getrandbits(attr - 1)
            cond = conditional_fptree(tree, attr, keep)
            cond.validate()
            want = {}
            for row, w in zip(rows, weights):
                if attr not in row:
                    continue
                kept = [a for a in row if a < attr and keep >> (a - 1) & 1]
                for k in kept:
                    head = tuple(a for a in kept if a <= k)
                    entry = want.setdefault(k, {}).setdefault(head, [0, set(row)])
                    entry[0] += w
                    entry[1] &= set(row)
            got = {
                k: {ids_of(p): [w, set(ids_of(inner))] for p, (w, inner) in nodes.items()}
                for k, nodes in cond.lists.items()
            }
            assert got == want, (i, attr, keep)
            assert cond.totals == {k: sum(e[0] for e in g.values()) for k, g in want.items()}


def test_constructor_projects_paths_and_cuts_inners():
    # Paths projected onto a path mask narrower than the inners, which the
    # caller cut to a wider live mask.  List k must group the rows whose
    # projected path holds k by that path up to k.
    rng = random.Random(17)
    for i in range(60):
        width = rng.randrange(2, 16)
        live = rng.getrandbits(width) | 1 << (width - 1)
        path_mask = live & rng.getrandbits(width)
        base = [rng.getrandbits(width) for _ in range(rng.randrange(1, 8))]
        # Rows that differ only outside the path mask collide once projected;
        # rows outside it altogether have an empty path and are dropped.
        rows = [m ^ (rng.getrandbits(width) & ~path_mask) for m in base for _ in range(3)]
        rows += [rng.getrandbits(width) & ~path_mask for _ in range(3)]
        rows = [m for m in rows if m]
        weights = [rng.randrange(1, 5) for _ in rows]
        inners = [(w, m & live) for w, m in zip(weights, rows)]
        tree = CompleteFpTree(path_mask, zip(rows, inners))
        tree.validate()
        want = {}
        for m, w in zip(rows, weights):
            path = m & path_mask
            for k in ids_of(path):
                entry = want.setdefault(k, {}).setdefault(path & ((1 << k) - 1), [0, -1])
                entry[0] += w
                entry[1] &= m & live
        got = {k: {p: list(node) for p, node in nodes.items()} for k, nodes in tree.lists.items()}
        assert got == want, i
        for k in range(1, width + 1):
            held = [(w, m & live) for m, w in zip(rows, weights) if (m & path_mask) >> (k - 1) & 1]
            assert tree.list_weight(k) == sum(w for w, _ in held), (i, k)
            if held:
                inter = functools.reduce(operator.and_, (inner for _, inner in held))
                assert tree.inters[k] == inter, (i, k)


def test_lcm3_matches_oracle_on_k1(k1):
    pre, _, _ = preprocess(k1, 0)
    assert concept_set(lcm3_enumerate(pre, 0, None)) == K1_WORKING_CONCEPTS


def test_lcm3_dense_width_zero_degenerates_to_lcm2(k1):
    for i in range(15):
        ctx = random_context(i)
        pre, _, _ = preprocess(ctx, 1)
        s2, s3 = EnumerationStats(), EnumerationStats()
        two = list(lcm2_enumerate(pre, 1, stats=s2))
        three = list(lcm3_enumerate(pre, 1, 0, stats=s3))
        assert two == three  # same traversal, same order, same concepts
        assert s2.as_dict() == s3.as_dict()


def test_lcm3_output_invariant_across_dense_widths():
    for i in range(25):
        ctx = random_context(i)
        for s in (0, 1, 2):
            pre, _, _ = preprocess(ctx, s)
            reference = concept_set(lcm2_enumerate(pre, s))
            for width in (0, 2, 4, None):
                got = concept_set(lcm3_enumerate(pre, s, width))
                assert got == reference, (i, s, width)


def test_lcm3_stats_identity():
    for i in range(15):
        ctx = random_context(i)
        pre, _, _ = preprocess(ctx, 1)
        stats = EnumerationStats()
        concepts = list(lcm3_enumerate(pre, 1, 4, stats=stats))
        assert stats.concepts_emitted == len(concepts)
        assert stats.recursive_calls == stats.concepts_emitted + stats.canonicity_failures


def test_lcm3_takes_any_large_dense_width_and_rejects_a_negative_one(k1):
    pre, _, _ = preprocess(k1, 0)
    assert list(lcm3_enumerate(pre, 0, 1 << 20)) == list(lcm3_enumerate(pre, 0, None))
    with pytest.raises(ConfigurationError):
        list(lcm3_enumerate(k1, 0, -1))


@pytest.mark.parametrize("width", [-0.5, 4.7, math.nan, -math.inf, "4"])
def test_lcm3_rejects_a_dense_width_that_is_not_an_integer(k1, width):
    with pytest.raises(ConfigurationError, match="integer"):
        list(lcm3_enumerate(k1, 0, width))


def test_lcm3_accepts_inf_dense_width(k1):
    import math

    pre, _, _ = preprocess(k1, 0)
    assert concept_set(lcm3_enumerate(pre, 0, math.inf)) == K1_WORKING_CONCEPTS


def test_lcm3_extents_match_oracle():
    from conceptmine import mine_concepts

    for i in (2, 6, 11):
        ctx = random_context(i)
        oracle = {c.intent: c.extent for c in enumerate_naive(ctx, 1, with_extents=True)}
        mined = mine_concepts(ctx, 1, algorithm="lcm3", dense_width=None, with_extents=True)
        assert {c.intent: c.extent for c in mined} == oracle
    # Weighted rows with empty ones, no objects, unused attributes: the
    # pipeline's top concept holds every object and the full weight as mined.
    for seed in range(200):
        ctx = weighted_context(seed)
        for s in (0, 1, 2, 3):
            oracle = set(enumerate_naive(ctx, s, with_extents=True))
            for algorithm in ("cbo", "lcm2", "lcm3"):
                mined = mine_concepts(ctx, s, algorithm=algorithm, with_extents=True)
                assert len(mined) == len(oracle), (seed, s, algorithm)
                assert set(mined) == oracle, (seed, s, algorithm)


def survey_like(seed: int) -> FormalContext:
    """Dense categorical records with exact implications, a small mushroom-like table.

    80 objects answer 6 questions with 3 values each, mostly as one of 3
    prototypes do; each value of the first 3 questions implies a coarse bucket.
    """
    rng = random.Random(seed)
    features, values = 6, 3
    prototypes = [[rng.randrange(values) for _ in range(features)] for _ in range(3)]
    rows = []
    for _ in range(80):
        proto = rng.choice(prototypes)
        answers = [v if rng.random() < 0.7 else rng.randrange(values) for v in proto]
        row = [f * values + v + 1 for f, v in enumerate(answers)]
        row += [features * values + 1 + 2 * f + answers[f] // 2 for f in range(3)]
        rows.append(row)
    return FormalContext(rows)


# EnumerationStats.as_dict() values of lcm3 on survey_like(0), recorded with
# the conditional trees built by extending whole lists and deleting the
# infrequent ones afterwards; building them reduced must not move a counter.
SURVEY_LIKE_STATS = {
    (1, 4): (657, 1496, 1496, 839, 1325, 657),
    (1, 128): (657, 1046, 1046, 389, 0, 657),
    (1, None): (657, 1046, 1046, 389, 0, 657),
    (5, 4): (469, 688, 688, 219, 247, 469),
    (5, 128): (469, 520, 520, 51, 0, 469),
    (5, None): (469, 520, 520, 51, 0, 469),
    (16, 4): (203, 235, 235, 32, 58, 203),
    (16, 128): (203, 208, 208, 5, 0, 203),
    (16, None): (203, 208, 208, 5, 0, 203),
}


def test_lcm3_with_extents_matches_lcm2_on_dense_implications():
    from conceptmine import mine_concepts

    for seed in range(3):
        ctx = survey_like(seed)
        for s in (1, 5, 16):
            reference = {
                (c.intent, c.support, c.extent)
                for c in mine_concepts(ctx, s, algorithm="lcm2", with_extents=True)
            }
            for width in (4, 128, math.inf):
                stats = EnumerationStats()
                mined = mine_concepts(
                    ctx, s, algorithm="lcm3", dense_width=width, with_extents=True, stats=stats
                )
                assert {(c.intent, c.support, c.extent) for c in mined} == reference
                if seed == 0:
                    key = (s, None if math.isinf(width) else width)
                    assert tuple(stats.as_dict().values()) == SURVEY_LIKE_STATS[key]


def test_lcm3_mines_without_node_objects(monkeypatch):
    # Lists hold (weight, inner) tuples keyed by path; the FP phase must still run.
    from conceptmine import fptree, mine_concepts

    original = fptree.conditional_fptree
    built = []

    def counted(tree, attr, keep):
        sub = original(tree, attr, keep)
        built.append(len(sub.lists))
        return sub

    for seed in range(2):
        ctx = survey_like(seed)
        reference = concept_set(mine_concepts(ctx, 1, algorithm="lcm2"))
        with monkeypatch.context() as patched:
            patched.setattr(fptree, "conditional_fptree", counted)
            for width in (4, 128, math.inf):
                built.clear()
                mined = mine_concepts(ctx, 1, algorithm="lcm3", dense_width=width)
                assert concept_set(mined) == reference
                assert sum(built) > 0  # the FP-tree phase ran and built non-empty trees


def test_engine_conditional_trees_hold_frequent_non_closed_lists(monkeypatch):
    # Wrap the module-level builder the engine calls and check every tree it returns.
    from conceptmine import fptree, mine_concepts

    original = fptree.conditional_fptree
    built = []

    def checked(tree, attr, keep):
        sub = original(tree, attr, keep)
        sub.validate()
        closure_bits = -1
        for _, inner in tree.lists[attr].values():
            closure_bits &= inner
        for key in sub.lists:
            assert sub.totals[key] >= min_weight, (attr, key)
            assert not closure_bits >> (key - 1) & 1, (attr, key)
        built.append(len(sub.lists))
        return sub

    monkeypatch.setattr(fptree, "conditional_fptree", checked)
    contexts = [survey_like(seed) for seed in range(2)] + [random_context(i) for i in range(12)]
    for ctx in contexts:
        for s in (0, 2, 6):
            min_weight = max(1, s)
            for width in (4, 128, None):
                mine_concepts(ctx, s, algorithm="lcm3", dense_width=width)
    assert sum(built) > 1000  # the engine built many non-empty trees through the wrapper


def test_engine_list_intersections_are_the_rows_intersections(monkeypatch):
    # The engine's inners are whole rows, so the intersection of a list is the
    # AND of the rows it holds: the child's intent.  The engine emits a child
    # (here with its row ids) just before it asks for the child's conditional
    # tree, so the spy knows the rows of every tree it returns.  A root tree's
    # rows are those of the engaged node, whose concept comes just before the
    # first child of the tree; a root tree none of whose lists is descended
    # into goes unchecked.
    from conceptmine import fptree

    original = fptree.conditional_fptree
    rows_of = {}
    emitted = []
    checked = []

    def check(tree, rows):
        rows_of[id(tree)] = tree, rows  # held, so that no later tree reuses its id
        for key, inter in tree.inters.items():
            held = [m for m in rows if m >> (key - 1) & 1]
            assert inter == functools.reduce(operator.and_, held), key
        checked.append(len(tree.inters))

    def spy(tree, attr, keep):
        masks = pre.row_masks
        if id(tree) not in rows_of:
            check(tree, [masks[x] for x in emitted[-2].extent])
        child_rows = [masks[x] for x in emitted[-1].extent]
        assert child_rows == [m for m in rows_of[id(tree)][1] if m >> (attr - 1) & 1]
        sub = original(tree, attr, keep)
        check(sub, child_rows)
        return sub

    monkeypatch.setattr(fptree, "conditional_fptree", spy)
    for seed in range(40):
        for ctx in (random_context(seed), weighted_context(seed)):
            for s in (0, 1, 2):
                pre, _, _ = preprocess(ctx, s)
                for width in (1, 4, math.inf):
                    emitted.clear()
                    rows_of.clear()
                    for concept in lcm3_enumerate(pre, s, width, with_extents=True):
                        emitted.append(concept)
    assert sum(checked) > 1000
