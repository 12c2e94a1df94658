"""Deterministic example-set generators for tests, demos, and the CLI.

Every generator is a pure function of (kind, params, seed): equal inputs
give bit-identical sets.  The structured kinds (periodic, thick-blocks,
ps-striped) ignore the seed; random-sparse derives all randomness from it.
Every generated window is nonempty with int64 bounds, so that the set has
a document; any other window is a ``WindowError``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import KINDS
from .windows import WindowSet1D, check_window

__all__ = [
    "KINDS",
    "gen_example",
    "periodic_set",
    "thick_blocks_set",
    "striped_set",
    "random_sparse_set",
]


def _window(params: dict) -> tuple[int, int]:
    try:
        lo, hi = params["window"]
    except (KeyError, TypeError, ValueError):
        raise ValueError("params must carry window=(lo, hi)") from None
    return check_window(int(lo), int(hi))


def periodic_set(window: tuple[int, int], period: int, residues: Iterable[int]) -> WindowSet1D:
    """All m in the window with m mod period in ``residues``."""
    lo, hi = check_window(*window)
    period = int(period)
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    res = sorted({int(r) for r in residues})
    if any(r < 0 or r >= period for r in res):
        raise ValueError(f"residues must lie in [0, {period}), got {res}")
    # lo + i and lo % period + i agree mod period, and the latter stays
    # in int64 wherever the window lies
    grid = np.arange(hi - lo, dtype=np.int64) + lo % period
    mask = np.isin(grid % period, np.asarray(res, dtype=np.int64))
    return WindowSet1D(lo, hi, mask)


def thick_blocks_set(window: tuple[int, int], block: int, gap: int) -> WindowSet1D:
    """Blocks of linearly growing length at linearly growing distances.

    Block j fills block*(j+1) integers and is followed by gap*(j+1) missing
    ones, so runs of every length eventually appear while the gaps grow
    without bound: thick-like but not syndetic.
    """
    lo, hi = check_window(*window)
    block = int(block)
    gap = int(gap)
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    mask = np.zeros(hi - lo, dtype=bool)
    pos = lo
    j = 0
    while pos < hi:
        end = min(pos + block * (j + 1), hi)
        mask[pos - lo : end - lo] = True
        pos = end + gap * (j + 1)
        j += 1
    return WindowSet1D(lo, hi, mask)


def striped_set(window: tuple[int, int], block: int, gap: int) -> WindowSet1D:
    """Periodic blocks whose consecutive-member gaps never exceed ``gap``.

    The pattern repeats with period block + gap - 1: ``block`` members, then
    gap - 1 missing integers, so the jump between the last member of one
    block and the first of the next is exactly ``gap``.  The shifted union
    at radius >= gap therefore covers a run spanning nearly the window.
    """
    lo, hi = check_window(*window)
    block = int(block)
    gap = int(gap)
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if gap < 1:
        raise ValueError(f"gap must be >= 1, got {gap}")
    period = block + gap - 1
    rel = np.arange(hi - lo, dtype=np.int64) % period
    return WindowSet1D(lo, hi, rel < block)


def random_sparse_set(window: tuple[int, int], density: float, seed: int) -> WindowSet1D:
    """Independent seeded coin flips at the given density."""
    lo, hi = check_window(*window)
    density = float(density)
    if not (0.0 < density <= 1.0):
        raise ValueError(f"density must lie in (0, 1], got {density}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    mask = rng.random(hi - lo) < density
    return WindowSet1D(lo, hi, mask)


def gen_example(kind: str, params: dict, seed: int) -> WindowSet1D:
    """Dispatch to one generator kind; see KINDS for the valid names."""
    lo, hi = _window(params)
    known = {k for k in params if k != "window"}
    if kind == "periodic":
        _expect(kind, known, {"period", "residues"})
        return periodic_set((lo, hi), params["period"], params["residues"])
    if kind == "thick-blocks":
        _expect(kind, known, {"block", "gap"})
        return thick_blocks_set((lo, hi), params["block"], params["gap"])
    if kind == "ps-striped":
        _expect(kind, known, {"block", "gap"})
        return striped_set((lo, hi), params["block"], params["gap"])
    if kind == "random-sparse":
        _expect(kind, known, {"density"})
        return random_sparse_set((lo, hi), params["density"], seed)
    raise ValueError(f"unknown generator kind {kind!r}; expected one of {KINDS}")


def _expect(kind: str, given: set, wanted: set) -> None:
    if given != wanted:
        raise ValueError(
            f"{kind} takes params {sorted(wanted)} plus window, got {sorted(given)}"
        )
