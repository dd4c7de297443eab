"""Concept-forming operators and the exhaustive closed-set enumerator.

``up`` maps an object set to the attributes shared by all its rows, ``down``
maps an attribute set to the objects whose rows contain it, and their
composition is the closure operator.  ``enumerate_naive`` walks all 2^n
attribute subsets and keeps the closed ones; it is the deliberately simple
ground truth the fast engines are tested against.  ``depth_first`` is the
explicit-stack driver every fast engine runs its generation tree on.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator

from .bits import ids_of
from .context import FormalContext, Frozen
from .errors import CapacityError


class ObjectSet(Frozen):
    """Ascending object indices plus the sum of their weights."""

    __slots__ = ("members", "weighted_size")

    def __init__(self, members: tuple[int, ...], weighted_size: int):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "weighted_size", weighted_size)

    def __len__(self) -> int:
        return len(self.members)


class Concept(Frozen):
    """Ascending attribute ids, their weighted support, and the object ids when asked."""

    __slots__ = ("intent", "support", "extent")

    def __init__(
        self, intent: tuple[int, ...], support: int, extent: tuple[int, ...] | None = None
    ):
        object.__setattr__(self, "intent", intent)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "extent", extent)


class EnumerationStats:
    """Traversal counters shared by every engine.

    For CbO and the LCM engines every recursive call either emits a concept or
    fails the canonicity test, so concepts_emitted + canonicity_failures equals
    recursive_calls.
    """

    __slots__ = (  # the order of as_dict() and of ``--stats``
        "concepts_emitted",
        "recursive_calls",
        "closure_computations",
        "canonicity_failures",
        "pruning_rule_hits",
        "conditional_dbs_built",
    )

    def __init__(
        self,
        concepts_emitted: int = 0,
        recursive_calls: int = 0,
        closure_computations: int = 0,
        canonicity_failures: int = 0,
        pruning_rule_hits: int = 0,
        conditional_dbs_built: int = 0,
    ):
        self.concepts_emitted = concepts_emitted
        self.recursive_calls = recursive_calls
        self.closure_computations = closure_computations
        self.canonicity_failures = canonicity_failures
        self.pruning_rule_hits = pruning_rule_hits
        self.conditional_dbs_built = conditional_dbs_built

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if type(other) is not EnumerationStats:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        fields = ", ".join(f"{name}={value}" for name, value in self.as_dict().items())
        return f"EnumerationStats({fields})"


def depth_first(root: Iterator) -> Iterator[Concept]:
    """Run a depth-first traversal of frames on an explicit stack.

    A frame is a generator that yields ``Concept``s, which are passed on, and
    child frames, which are run to exhaustion before their parent resumes.
    Only the top frame is ever resumed, so depth costs no Python recursion
    and a resumption costs the same at any depth.
    """
    stack = [root]
    while stack:
        for item in stack[-1]:
            if type(item) is Concept:
                yield item
            else:
                stack.append(item)
                break
        else:
            stack.pop()


def up(ctx: FormalContext, objects: Iterable[int]) -> tuple[int, ...]:
    """Attributes shared by every object in the set; the full set for no objects."""
    full = (1 << ctx.num_attributes) - 1
    inter = full
    masks = ctx.row_masks
    for x in objects:
        if not 0 <= x < ctx.num_objects:
            raise IndexError(f"object index {x} out of range")
        inter &= masks[x]
        if inter == 0:
            break
    return ids_of(inter)


def down(ctx: FormalContext, attrs: Iterable[int]) -> ObjectSet:
    """Objects whose rows contain every given attribute; all objects for the empty set."""
    want = 0
    for a in map(operator.index, attrs):  # numpy's ids as int, whose shifts cannot overflow
        if not 1 <= a <= ctx.num_attributes:
            raise IndexError(f"attribute id {a} out of range")
        want |= 1 << (a - 1)
    members = []
    weight = 0
    for x, mask in enumerate(ctx.row_masks):
        if mask & want == want:
            members.append(x)
            weight += ctx.weights[x]
    return ObjectSet(tuple(members), weight)


def closure(ctx: FormalContext, attrs: Iterable[int]) -> tuple[int, ...]:
    """up(down(attrs)); the full attribute set when the extent is empty."""
    return up(ctx, down(ctx, attrs).members)


def enumerate_naive(
    ctx: FormalContext,
    min_support: int = 0,
    *,
    max_attributes: int = 24,
    with_extents: bool = False,
    stats: EnumerationStats | None = None,
) -> Iterator[Concept]:
    """Visit every attribute subset recursively and emit the closed, frequent ones.

    Refuses contexts wider than ``max_attributes`` (the walk is 2^n).  No
    pruning, no memoization: this is the oracle every other engine must match.
    """
    if min_support < 0:
        raise ValueError("min_support must be non-negative")
    n = ctx.num_attributes
    if n > max_attributes:
        raise CapacityError(
            f"context has {n} attributes; the exhaustive enumerator is capped at {max_attributes}"
        )
    st = stats if stats is not None else EnumerationStats()
    masks = ctx.row_masks
    weights = ctx.weights

    def visit(subset: int, y: int) -> Iterator[Concept]:
        st.recursive_calls += 1
        st.closure_computations += 1
        closed = (1 << n) - 1  # empty extent closes to the full attribute set
        weight = 0
        extent: list[int] = []
        for x, mask in enumerate(masks):
            if mask & subset == subset:
                closed &= mask
                weight += weights[x]
                if with_extents:
                    extent.append(x)
        if closed == subset and weight >= min_support:
            st.concepts_emitted += 1
            yield Concept(ids_of(subset), weight, tuple(extent) if with_extents else None)
        for i in range(y + 1, n + 1):
            yield from visit(subset | (1 << (i - 1)), i)

    yield from visit(0, 0)
