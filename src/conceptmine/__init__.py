"""Frequent closed itemset / formal concept enumeration toolkit.

Four engines over one data model: an exhaustive oracle, Close-by-One, LCM2
(occurrence deliver plus conditional databases and rule pruning), and LCM3
(complete FP-trees with inner intersections for the dense parts).
"""

from .cbo import cbo_enumerate
from .context import (
    AttributeRemap,
    FormalContext,
    ObjectMerge,
    compose_remaps,
    parse_cxt,
    parse_fimi,
    preprocess,
)
from .derive import Concept, EnumerationStats, ObjectSet, closure, down, enumerate_naive, up
from .errors import (
    CapacityError,
    DigestMismatchError,
    ParseError,
    PruningSoundnessError,
)
from .fptree import (
    CompleteFpTree,
    build_complete_fptree,
    conditional_fptree,
    intent_of_list,
)
from .lcm import (
    ConditionalDatabase,
    PruneRuleStore,
    create_conditional_db,
    frequencies,
    lcm2_enumerate,
    lcm3_enumerate,
    occurrence_deliver,
    root_database,
)
from .mining import concept_digest, mine_concepts

__all__ = [
    "AttributeRemap",
    "CapacityError",
    "CompleteFpTree",
    "Concept",
    "ConditionalDatabase",
    "DigestMismatchError",
    "EnumerationStats",
    "FormalContext",
    "ObjectMerge",
    "ObjectSet",
    "ParseError",
    "PruneRuleStore",
    "PruningSoundnessError",
    "build_complete_fptree",
    "cbo_enumerate",
    "closure",
    "compose_remaps",
    "concept_digest",
    "conditional_fptree",
    "create_conditional_db",
    "down",
    "enumerate_naive",
    "frequencies",
    "intent_of_list",
    "lcm2_enumerate",
    "lcm3_enumerate",
    "mine_concepts",
    "occurrence_deliver",
    "parse_cxt",
    "parse_fimi",
    "preprocess",
    "root_database",
    "up",
]

__version__ = "0.1.0"
