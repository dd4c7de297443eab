"""Seeded generators for the benchmark workloads.

Usage: python3 perfbench/workloads.py basket|survey|sessions SEED OUTPUT

writes the workload as a FIMI file to OUTPUT and prints one JSON line with
its row count, the options it is mined with and the numpy version.

Every generator takes a seed, draws from numpy's PCG64 stream (as
``conceptmine gen`` does) and returns FIMI rows: lists of non-negative item
ids. The program under test only ever sees the FIMI file written from them.

Unlike ``conceptmine gen``, whose independent Bernoulli tables make every
recursion end at the first canonicity test, these inputs hold exact
implications, as real data does, so the LCM features (canonicity failures,
rule pruning, interior intersections, FP-tree engagement) have work to do.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    rows: list[list[int]]
    mine_args: list[str]  # support and output options passed to `conceptmine mine`


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


def _exact_draws(rng: np.random.Generator, probs: np.ndarray, size: int) -> list[int]:
    """``size`` category ids in random order, each appearing about probs[k] * size times.

    Fixing the multiplicities instead of sampling them keeps the supports of
    the planted structures, and so the concept count, steady across seeds.
    """
    counts = np.floor(probs * size).astype(int)
    short = size - int(counts.sum())
    counts[np.argsort(probs * size - counts)[::-1][:short]] += 1
    return rng.permutation(np.repeat(np.arange(len(probs)), counts)).tolist()


def basket(seed: int) -> Workload:
    """Quest-style market baskets (Agrawal & Srikant, 1994) over an item taxonomy.

    Each transaction combines two planted patterns, each item kept at 80%,
    with Zipf-popular noise items. Every item implies its category (item i implies
    1000 + i // 20), the generalised items of Srikant & Agrawal's taxonomies.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    num_items, num_patterns, num_rows = 1000, 300, 1000
    popularity = _zipf_probs(num_items, 1.0)
    # The patterns are drawn once from a fixed stream and their weights are
    # fixed by rank. The seed draws only which rows hold which patterns, which
    # pattern items they drop and their noise items, so the concept count
    # barely moves from seed to seed.
    fixed = np.random.Generator(np.random.PCG64(0))
    patterns = [
        fixed.choice(num_items, size=3 + k % 5, replace=False)
        for k in range(num_patterns)
    ]
    slots = _exact_draws(rng, _zipf_probs(num_patterns, 0.5), 2 * num_rows)
    rows = []
    for r in range(num_rows):
        items: set[int] = set()
        for k in slots[2 * r : 2 * r + 2]:
            pattern = patterns[k]
            items.update(pattern[rng.random(len(pattern)) < 0.8].tolist())
        items.update(rng.choice(num_items, size=rng.poisson(4), p=popularity).tolist())
        items.update({1000 + i // 20 for i in items})
        rows.append(sorted(items))
    return Workload(rows, ["--min-support", "20"])


def survey(seed: int) -> Workload:
    """Dense categorical records, mushroom-like, with exact coarse/fine implications.

    Objects answer 16 questions with 5 values each, drawn from 6 latent
    classes at 70% purity: in each class, 70% of the members give the class's
    answer to a question and the rest answer evenly across the 5 values. Each of the first 8 questions also has a coarse
    bucket implied exactly by its fine value (v implies bucket v // 2).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    num_rows, features, values, classes, purity = 1500, 16, 5, 6, 0.7
    coarse_base = features * values
    # The class prototypes are drawn once from a fixed stream, class sizes are
    # equal, and in every class each question keeps exactly `purity` of its
    # prototype answers, with the other answers spread evenly over the values.
    # The seed draws only who is in which class and who deviates where, so the
    # concept count stays within about 2% across seeds.
    prototypes = np.random.Generator(np.random.PCG64(0)).integers(0, values, size=(classes, features))
    labels = rng.permutation(np.arange(num_rows) % classes)
    answers = np.empty((num_rows, features), dtype=int)
    even = np.full(values, 1.0 / values)
    for c in range(classes):
        members = np.flatnonzero(labels == c)
        kept = round(purity * len(members))
        for f in range(features):
            order = rng.permutation(members)
            answers[order[:kept], f] = prototypes[c, f]
            answers[order[kept:], f] = _exact_draws(rng, even, len(members) - kept)
    rows = []
    for line in answers.tolist():
        items = [f * values + v for f, v in enumerate(line)]
        items += [coarse_base + f * 3 + line[f] // 2 for f in range(8)]
        rows.append(sorted(items))
    return Workload(rows, ["--min-support", "150"])


def sessions(seed: int) -> Workload:
    """Web sessions: many exact duplicate rows, so weighted row merging dominates.

    Rows are drawn with Zipf(1.1) from 2,000 page sets over 300
    Zipf-popular pages, and mined with extents, which makes parsing, merging,
    extent translation and writing the output carry the load.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    num_pages, num_sets, num_rows = 300, 2000, 60000
    page_popularity = _zipf_probs(num_pages, 1.0)
    page_sets = [
        sorted(set(rng.choice(num_pages, size=2 + k % 7, p=page_popularity).tolist()))
        for k in range(num_sets)
    ]
    rows = [page_sets[k] for k in _exact_draws(rng, _zipf_probs(num_sets, 1.1), num_rows)]
    return Workload(rows, ["--min-support-ratio", "0.01", "--with-extents"])


GENERATORS = {"basket": basket, "survey": survey, "sessions": sessions}


def to_fimi(rows: list[list[int]]) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Write a benchmark workload as FIMI.")
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("seed", type=int)
    parser.add_argument("output", type=Path)
    args = parser.parse_args(argv)
    workload = GENERATORS[args.workload](args.seed)
    args.output.write_text(to_fimi(workload.rows))
    print(json.dumps({"rows": len(workload.rows), "mine_args": workload.mine_args,
                      "numpy": np.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
