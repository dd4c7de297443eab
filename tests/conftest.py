import random

import pytest

from conceptmine import FormalContext
from conceptmine.cli import generate_context

# 4 objects x 4 attributes; cardinalities 2,2,4,1 so attribute 3 dominates.
K1_ROWS = [[1, 2, 3], [1, 3], [2, 3], [3, 4]]

# Exhaustively checked: the six closed sets of K1 with weighted supports.
K1_CONCEPTS = {
    ((3,), 4),
    ((1, 3), 2),
    ((2, 3), 2),
    ((3, 4), 1),
    ((1, 2, 3), 1),
    ((1, 2, 3, 4), 0),
}

# K1_CONCEPTS in the working ids of ``preprocess(K1, 0)``, which renumbers the
# attributes 3, 1, 2, 4 (descending cardinality) as 1, 2, 3, 4.
K1_WORKING_CONCEPTS = {
    ((1,), 4),
    ((1, 2), 2),
    ((1, 3), 2),
    ((1, 4), 1),
    ((1, 2, 3), 1),
    ((1, 2, 3, 4), 0),
}

# Three objects and a blank one over attributes a..d, of which b and d are in no row.
EMPTY_COLUMNS_CXT = "B\n\n4\n4\n\no1\no2\no3\no4\na\nb\nc\nd\nX.X.\n..X.\nX...\n....\n"


@pytest.fixture
def k1():
    return FormalContext(K1_ROWS)


def concept_set(concepts):
    return {(c.intent, c.support) for c in concepts}


def random_context(i: int) -> FormalContext:
    """Deterministic mixed-size corpus entry: <=30 objects, <=12 attributes."""
    m = 4 + (i * 7) % 27
    n = 2 + (i * 5) % 11
    density = (0.05, 0.1, 0.25, 0.5)[i % 4]
    return generate_context(1000 + i, m, n, density)


def weighted_context(seed: int) -> FormalContext:
    """Weighted rows drawn from a few patterns, so rows repeat; some contexts
    have no objects, some rows are empty, and some attributes are in no row."""
    rng = random.Random(seed)
    used = rng.randint(0, 8)
    patterns = [sorted(rng.sample(range(1, used + 1), rng.randint(0, used))) for _ in range(5)]
    patterns.append([])
    m = rng.choice((0, 1, 2, rng.randint(3, 30)))
    rows = [rng.choice(patterns) for _ in range(m)]
    weights = [rng.randint(1, 4) for _ in rows]
    return FormalContext(rows, weights, num_attributes=used + rng.randint(0, 3))
