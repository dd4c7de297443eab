"""End-to-end mining pipeline: preprocess, run an engine, restore original ids.

Every engine works in the preprocessed context's ids; the pipeline maps
intents and extents back to the caller's ids in one place.  Preprocessing
keeps every object, so the engine's root - the closure of the empty intent -
has the full weight and every object.  It drops only the attributes below
min_support, so at min_support 0 it keeps the empty ones and the engine's
full intent is the bottom concept over every original attribute.  Every
concept then maps 1:1 through the attribute remap and object merge, whether
or not preprocessing merged identical rows.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .cbo import cbo_enumerate
from .context import AttributeRemap, FormalContext, ObjectMerge, compose_remaps, preprocess
from .derive import Concept, EnumerationStats, enumerate_naive
from .lcm import lcm2_enumerate, lcm3_enumerate

ALGORITHMS = ("naive", "cbo", "lcm2", "lcm3")


def mine_concepts(
    ctx: FormalContext,
    min_support: int = 1,
    *,
    algorithm: str = "lcm2",
    with_extents: bool = False,
    base_remap: AttributeRemap | None = None,
    stats: EnumerationStats | None = None,
    node_inspector=None,
    sink: Callable[[Concept], object] | None = None,
    **options,
) -> list[Concept] | None:
    """Mine all closed attribute sets of ``ctx`` with weighted support >= min_support.

    Every engine mines the context as :func:`preprocess` orders it, by
    descending attribute cardinality; no option changes that order.
    Returns concepts with intents in the caller's original attribute ids
    (through ``base_remap`` when the context itself was densified at parse
    time) and extents, when requested, as original object indices.
    ``node_inspector`` is called per inner node with the intent and a dict of
    the delivered bucket weights by attribute, all in original ids.  It and
    every other keyword go to the engine: ``pruning``, ``check_pruning`` and
    ``node_inspector`` to ``lcm2`` and ``lcm3``, ``dense_width`` to ``lcm3``
    only, ``max_attributes`` to ``naive``.  An engine refuses a keyword it
    does not take with TypeError.

    Without a ``sink`` the concepts are returned as a list, in the engine's
    order.  With one, ``sink`` is called with each translated concept as the
    engine yields it, in the same order, nothing is kept and the call returns
    None; an exception that ``sink`` raises stops the engine and propagates.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")

    pre, remap, merge = preprocess(ctx, min_support)
    full_remap = compose_remaps(base_remap, remap) if base_remap is not None else remap

    if node_inspector is not None:

        def inspector(intent: tuple[int, ...], buckets: dict[int, int]) -> None:
            node_inspector(
                full_remap.to_original(intent),
                {full_remap.original_of(a): w for a, w in buckets.items()},
            )

        options["node_inspector"] = inspector

    # Looked up at each call, not in a table: perfbench/tracer.py rebinds these names.
    if algorithm == "naive":
        engine = enumerate_naive
    elif algorithm == "cbo":
        engine = cbo_enumerate
    elif algorithm == "lcm2":
        engine = lcm2_enumerate
    else:
        engine = lcm3_enumerate
    raw = engine(pre, min_support, with_extents=with_extents, stats=stats, **options)
    concepts = None
    if sink is None:
        concepts = []
        sink = concepts.append
    for c in raw:
        sink(_translate(c, full_remap, merge))
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
