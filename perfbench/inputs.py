"""Seeded inputs of the three workloads.

The same seed gives the same inputs, and seed 0 gives the inputs named in
the benchmark's README.  A seed changes the inputs without changing how
much work they carry, so timings taken on different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from syndetic import generators

CORPUS_WIDTHS = (1_000, 3_000, 10_000, 30_000, 100_000)


def corpus(seed: int) -> list[tuple]:
    """The 52-instance acceptance corpus as (name, set, radius, steps).

    This is the generator logic of ``tests/test_acceptance.py::build_corpus``,
    and seed 0 gives exactly that corpus.  Another seed keeps every width,
    block, gap, period and residue set and moves each window start within
    the same range [-200, 200), so the work per pass stays the same.
    """
    instances = []

    def start(lo: int) -> int:
        k = len(instances)
        return (lo + 200 + 137 * seed * (k + 1)) % 400 - 200

    for i in range(26):
        rng = np.random.default_rng(5000 + i)
        w = CORPUS_WIDTHS[i % len(CORPUS_WIDTHS)]
        lo = start(int(rng.integers(-200, 200)))
        block = int(rng.integers(1, 40))
        gap = int(rng.integers(1, 3))
        s = generators.striped_set((lo, lo + w), block, gap)
        instances.append((f"striped-{i}", s, gap, 1 + i % 2))
    for i in range(26):
        rng = np.random.default_rng(7000 + i)
        w = CORPUS_WIDTHS[i % len(CORPUS_WIDTHS)]
        lo = start(int(rng.integers(-200, 200)))
        period = int(rng.integers(2, 7))
        mode = i % 3
        if mode == 0:
            residues, radius = list(range(period)), 1
        elif mode == 1:
            drop = int(rng.integers(0, period))
            residues = [r for r in range(period) if r != drop] or [0]
            radius = 2
        else:
            residues, radius = list(range(0, period, 2)), 2
        s = generators.periodic_set((lo, lo + w), period, residues)
        instances.append((f"periodic-{i}", s, radius, 1 + i % 2))
    return instances


def corpus_fingerprint(instances: list[tuple]) -> str:
    h = hashlib.sha256()
    for name, s, radius, steps in instances:
        h.update(f"{name} {s.lo} {s.hi} {radius} {steps}\n".encode())
        h.update(np.packbits(s.mask).tobytes())
    return h.hexdigest()


# cli-large: striped_set((lo, lo + 1_000_000), 5, 2) with r=2 and k=2
CLI_WIDTH = 1_000_000
CLI_BLOCK = 5
CLI_GAP = 2
CLI_RADIUS = 2
CLI_STEPS = 2


def cli_window(seed: int) -> tuple[int, int]:
    """The seed moves the window by less than 1000, so every seed writes
    numbers of the same length and the files keep their size."""
    lo = 389 * seed % 1000
    return lo, lo + CLI_WIDTH


# vdw: W(1,1..10) and W(1..10,2) as in the acceptance test, then W(2,3),
# W(3,3) and W(2,4); W(1,2) is run once.  The value is the expected W.
VDW_EXPECTED = {
    **{(1, t): t for t in range(1, 11)},
    **{(c, 2): c + 1 for c in range(2, 11)},
    (2, 3): 9,
    (3, 3): 27,
    (2, 4): 35,
}
# W(2,5) = 178 is out of reach of the budget, so this search measures the
# cost per node at a fixed node count
CAPPED = (2, 5)
CAPPED_BUDGET = 2_000_000
CAPPED_N = 178


def vdw_searches(seed: int) -> list[tuple[int, int]]:
    """The exhaustive searches in a seeded order; the set never changes."""
    order = sorted(VDW_EXPECTED)
    random.Random(seed).shuffle(order)
    return order
