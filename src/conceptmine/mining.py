"""End-to-end mining pipeline: preprocess, run an engine, restore original ids.

Every engine works in the preprocessed context's ids; the pipeline maps
intents and extents back to the caller's ids in one place.  Preprocessing
drops originally-empty rows and empty/infrequent attributes.  Both removals
can only affect the two boundary concepts - the empty intent (whose support
must count the dropped empty rows) and, at min_support 0, the full intent
(which must span every original attribute) - so the pipeline patches exactly
those two after the engine run.  Everything in between maps 1:1 through the
attribute remap and object merge.
"""

from __future__ import annotations

from collections.abc import Iterable

from .cbo import cbo_enumerate
from .context import AttributeRemap, FormalContext, ObjectMerge, compose_remaps, preprocess
from .derive import Concept, EnumerationStats, enumerate_naive
from .fptree import DEFAULT_DENSE_WIDTH
from .lcm import lcm2_enumerate, lcm3_enumerate

ALGORITHMS = ("naive", "cbo", "lcm2", "lcm3")


def mine_concepts(
    ctx: FormalContext,
    min_support: int = 1,
    *,
    algorithm: str = "lcm2",
    pruning: bool = True,
    dense_width: int | float | None = DEFAULT_DENSE_WIDTH,
    sort_attributes: bool = True,
    merge_rows: bool = True,
    with_extents: bool = False,
    base_remap: AttributeRemap | None = None,
    stats: EnumerationStats | None = None,
    check_pruning: bool = False,
    node_inspector=None,
) -> list[Concept]:
    """Mine all closed attribute sets of ``ctx`` with weighted support >= min_support.

    Returns concepts with intents in the caller's original attribute ids
    (through ``base_remap`` when the context itself was densified at parse
    time) and extents, when requested, as original object indices.
    ``node_inspector`` (``lcm2``/``lcm3`` only) is called per inner node with
    the intent and a dict of the delivered bucket weights by attribute, all in
    original ids.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if min_support < 0:
        raise ValueError("min_support must be non-negative")
    stats = stats if stats is not None else EnumerationStats()

    pre, remap, merge = preprocess(
        ctx, min_support, sort_attributes=sort_attributes, merge_rows=merge_rows
    )
    full_remap = compose_remaps(base_remap, remap) if base_remap is not None else remap
    total_weight = ctx.total_weight
    dropped_weight = total_weight - pre.total_weight

    inspector = None
    if node_inspector is not None:

        def inspector(intent: tuple[int, ...], buckets: dict[int, int]) -> None:
            node_inspector(
                full_remap.to_original(intent),
                {full_remap.original_of(a): w for a, w in buckets.items()},
            )

    if algorithm == "naive":
        raw = enumerate_naive(pre, min_support, with_extents=with_extents, stats=stats)
    elif algorithm == "cbo":
        raw = cbo_enumerate(pre, min_support, with_extents=with_extents, stats=stats)
    else:
        options = dict(
            pruning=pruning,
            stats=stats,
            with_extents=with_extents,
            check_pruning=check_pruning,
            node_inspector=inspector,
        )
        if algorithm == "lcm2":
            raw = lcm2_enumerate(pre, min_support, **options)
        else:
            raw = lcm3_enumerate(pre, min_support, dense_width, **options)
    concepts = [_translate(c, full_remap, merge) for c in raw]

    if dropped_weight > 0 and total_weight >= min_support:
        # Empty rows were dropped, so the empty intent's support lost their
        # weight (and the concept disappears entirely when nothing else closes
        # to the empty set).
        all_objects = tuple(range(ctx.num_objects)) if with_extents else None
        for at, c in enumerate(concepts):
            if c.intent == ():
                concepts[at] = Concept((), total_weight, all_objects)
                break
        else:
            concepts.append(Concept((), total_weight, all_objects))

    if min_support == 0 and pre.num_attributes < ctx.num_attributes:
        # Some attribute was dropped, so no object can carry the full original
        # attribute set: the bottom concept is the whole of it with support 0.
        if base_remap is not None:
            bottom = tuple(sorted(base_remap.new_to_old))
        else:
            bottom = tuple(range(1, ctx.num_attributes + 1))
        concepts = [c for c in concepts if c.support > 0]
        concepts.append(Concept(bottom, 0, () if with_extents else None))

    return concepts


def _translate(c: Concept, remap: AttributeRemap, merge: ObjectMerge) -> Concept:
    extent = merge.to_original(c.extent) if c.extent is not None else None
    return Concept(remap.to_original(c.intent), c.support, extent)


def concept_digest(concepts: Iterable[Concept]) -> str:
    """Order-independent hash of a concept set (intents plus supports)."""
    import hashlib  # here, not at module level: it loads OpenSSL, which mining never needs

    lines = sorted(f"{' '.join(map(str, c.intent))}:{c.support}" for c in concepts)
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
