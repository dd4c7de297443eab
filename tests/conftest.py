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
