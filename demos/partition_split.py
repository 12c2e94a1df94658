"""Partition regularity at work: split a large set, find the large cell.

Splits a striped set into residue-class cells and asks the extractor
which cell stays piecewise syndetic, sweeping shift radii until the
best run length appears.
"""

import numpy as np

from syndetic import (
    WindowSet1D,
    find_nontrivial_ap,
    is_ps_at_scale,
    partition_extract,
    ps_scale_1d,
    striped_set,
)

s = striped_set((0, 400), 6, 2)
print("input:", s, "| run at radius 2:", ps_scale_1d(s, 2))

members = s.members().tolist()
cells = [
    WindowSet1D.from_members(0, 400, [m for m in members if m % 3 == r])
    for r in range(3)
]
for r, cell in enumerate(cells):
    print(f"  cell {r} (residue {r} mod 3): {cell.count} members")

got = partition_extract(s, cells, 2)
print("extracted cell:", got.index, "| witness scale:", got.scale,
      "| run starts at", got.start)
print("per-cell best runs:", got.scores)
assert is_ps_at_scale(cells[got.index], got.scale) is not None

# A random 4-way split: whichever cell wins, its witness re-verifies.
rng = np.random.default_rng(3)
labels = rng.integers(0, 4, size=len(members))
random_split = [
    WindowSet1D.from_members(0, 400, [m for m, l in zip(members, labels) if l == c])
    for c in range(4)
]
got = partition_extract(s, random_split, 2)
print("\nrandom split winner:", got.index, "| scale:", got.scale)

# The winning cell is still rich enough to contain progressions.
pair = find_nontrivial_ap(random_split[got.index], got.scale.radius, 1)
print("a verified 2-term progression inside it:", pair)
