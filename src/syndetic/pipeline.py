"""Constructive pipeline from a 1D piecewise syndetic set to a 2D set of
arithmetic-progression pairs, with a re-checkable certificate.

The chain is: pick the shift radius's union and its longest run; compute
the index span forced by the van der Waerden number; collect all (start,
step) pairs whose whole probe progression lands in the union; label every
pair with the first (shift, stride, offset) triple whose sub-progression
verifies inside the input set; keep the label class with the best 2D
scale; push it through the affine map (start, step) -> (start +
offset*step + shift, stride*step).  Every pair (a, d) of the image then
satisfies a + i*d in S for i = 0..steps, which the certificate module
re-derives from scratch.

All stages are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import VERSION_TAG, FgCertificate, set_digest
from .vdw import (
    DEFAULT_BUDGET,
    BudgetExhaustedError,
    Coloring,
    find_mono_ap,
    search_exceeds,
    vdw_span,
)
from .windows import (
    PAIR_BOX_CELLS,
    Scale,
    WindowSet1D,
    WindowSet2D,
    block_rows,
    box_mask,
    contains_interval,
    feasible_block,
    first_member,
    is_ps_at_scale,
    max_run_length,
    progressions_in,
    ps_scale_1d,
    ps_scale_2d,
    shifted_union_1d,
    term_views,
)

__all__ = [
    "ConstructionError",
    "ScalePreconditionError",
    "PhiSearchError",
    "PartitionError",
    "ColorTriple",
    "AffineMap2D",
    "APPair",
    "PairSet",
    "PartitionWitness",
    "progression_pairs",
    "color_classes",
    "pigeonhole_extract",
    "affine_image",
    "fg_construct",
    "find_nontrivial_ap",
    "partition_extract",
]


class ConstructionError(RuntimeError):
    """The pipeline cannot proceed on this input."""


class ScalePreconditionError(ConstructionError):
    """Input set misses the required largeness scale; names the shortfall."""

    def __init__(self, radius: int, required: int, achieved: int):
        super().__init__(
            f"input is not piecewise syndetic at radius {radius} with run "
            f"length >= {required} (achieved {achieved})"
        )
        self.radius = radius
        self.required = required
        self.achieved = achieved


class PhiSearchError(ConstructionError):
    """No verified triple exists for a pair, so the span was not a valid
    van der Waerden witness for this input; or a constructed result failed
    its own re-check."""


class PartitionError(ValueError):
    """The given cells do not partition the input set."""


@dataclass(frozen=True)
class ColorTriple:
    """Label of a pair: probe start + (offset + i*stride)*step + shift
    must be a member of the input set for i = 0..steps."""

    offset: int
    stride: int
    shift: int

    def sort_key(self) -> tuple[int, int, int]:
        # label assignment scans shift-major, so "least triple" means this
        return (self.shift, self.stride, self.offset)


@dataclass(frozen=True)
class AffineMap2D:
    """(first, second) -> (first + shear*second + shift, scale*second)."""

    shear: int
    shift: int
    scale: int

    def __post_init__(self) -> None:
        if self.scale == 0:
            raise ValueError("scale must be nonzero")


@dataclass(frozen=True)
class APPair:
    """Value-space progression start and step; consumers verify membership."""

    start: int
    step: int


@dataclass(frozen=True)
class PairSet:
    """Pairs whose whole probe progression lies in the shifted union.

    ``boundary_excluded`` counts box pairs that were dropped because some
    probe left the union's window; near the boundary the set is therefore
    conservative, never optimistic.
    """

    pairs: WindowSet2D
    boundary_excluded: int


@dataclass(frozen=True)
class PartitionWitness:
    """Cell index plus the re-verified scale it achieves."""

    index: int
    scale: Scale
    start: int
    scores: tuple[int, ...]


def progression_pairs(
    s: WindowSet1D, radius: int, span: int, box: tuple[int, int, int, int]
) -> PairSet:
    """All (start, step) pairs in the box whose probes start + i*step for
    i = 0..span are members of the shifted union at this radius.  A box
    whose ``feasible_block`` is None is refused before anything is
    allocated; ``progressions_in`` gives the pairs, and the pairs of the
    box off its ``block_rows`` are the excluded ones."""
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span}")
    x_lo, x_hi, y_lo, y_hi = (int(v) for v in box)
    u = shifted_union_1d(s, radius)
    window, coefs = (u.lo, u.hi), range(span + 1)
    if feasible_block(window, box, coefs, 0) is None:
        raise ConstructionError(
            f"box {box} lies entirely outside the feasible probing range of "
            f"window [{u.lo}, {u.hi}) at span {span}"
        )
    member = progressions_in(u, box, coefs)
    pairs = WindowSet2D._adopt(x_lo, x_hi, y_lo, y_hi, member)
    # the rows are at most the mask's, which progressions_in has sized
    kept = sum(b - a for _, a, b in block_rows(window, box, coefs, 0))
    return PairSet(pairs=pairs, boundary_excluded=pairs.mask.size - kept)


def color_classes(
    s: WindowSet1D,
    pairs: WindowSet2D,
    *,
    radius: int,
    span: int,
    steps: int,
) -> dict[ColorTriple, WindowSet2D]:
    """Partition the pair set by its least verified triple.

    A pair's label is the least triple (shift-major, then stride, then
    offset) whose sub-progression verifies by membership in s.
    Only nonempty classes appear as keys, so the values partition the
    input and their cardinalities sum to its count.

    The pairs must be progression pairs of s at (radius, span): any outside
    the box's one ``feasible_block`` for the union raise ValueError.  Per
    shift, ``term_views`` pads s once; a triple is steps + 1 ANDs over it.
    """
    x_lo, _, y_lo, _ = box = pairs.box
    block = feasible_block((s.lo - radius, s.hi - 1), box, range(span + 1), 0)
    xa, xb, ya, yb = block = block or (x_lo, x_lo, y_lo, y_lo)
    inside = (slice(xa - x_lo, xb - x_lo), slice(ya - y_lo, yb - y_lo))
    rows = np.array(pairs.mask[inside].T)
    if strays := pairs.count - int(np.count_nonzero(rows)):
        raise ValueError(f"{strays} of the pairs have a probe outside the union's window")
    ok = box_mask((xb - xa, yb - ya)).T
    terms = [(d, o) for d in range(1, span // steps + 1) for o in range(span - steps * d + 1)]
    out: dict[ColorTriple, WindowSet2D] = {}
    for shift in range(1, radius + 1):
        if not rows.any():
            break
        views = term_views(s, block, range(span + 1), shift)
        for stride, offset in terms:
            np.logical_and(rows, views[offset], out=ok)
            for view in views[offset + stride : offset + steps * stride + 1 : stride]:
                ok &= view
            if ok.any():
                cls = box_mask(pairs.mask.shape)
                cls[inside] = ok.T
                out[ColorTriple(offset, stride, shift)] = WindowSet2D._adopt(*box, cls)
                # ok is within rows, so this clears exactly ok
                rows ^= ok
                if not rows.any():
                    break
    hit = first_member(block, rows.T)
    if hit is not None:
        raise PhiSearchError(
            "no verified triple for pair ({}, {}); span {} is not a valid "
            "van der Waerden witness here".format(*hit, span)
        )
    return out


def pigeonhole_extract(
    classes: dict[ColorTriple, WindowSet2D],
    radius_2d: int,
    workers: int = 1,
) -> tuple[ColorTriple, WindowSet2D, int]:
    """Class with the best 2D scale at radius_2d; ties go to the least
    triple.  Returns (triple, class, achieved scale).

    Classes are scored in triple order, and only while they can still win:
    the shifted union of a class on a w x h box lies in a box of
    (w + radius_2d - 1) x (h + radius_2d - 1) cells, so its score is at
    most min(w, h) + radius_2d - 1.  A class whose cap does not exceed the
    best score so far would at most tie with an earlier triple, so it is
    not scored.  The result is the one scoring every class would give.

    Scoring is sequential.  ``workers`` is validated but changes neither
    speed nor result; it stays only because the benchmark's stage replay
    passes it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not classes:
        raise ValueError("no classes to extract from")
    best, best_score = None, 0
    for triple, cls in sorted(classes.items(), key=lambda kv: kv[0].sort_key()):
        x_lo, x_hi, y_lo, y_hi = cls.box
        cap = min(x_hi - x_lo, y_hi - y_lo) + radius_2d - 1
        if cap <= best_score:
            continue
        score = ps_scale_2d(cls, radius_2d)
        if score > best_score:
            best, best_score = (triple, cls), score
    # a nonempty class scores at least 1, and the cap is never below 1, so
    # a score of 0 means that every class was scored and found empty
    if best is None:
        raise ValueError("all classes are empty")
    return (*best, best_score)


def affine_image(m: WindowSet2D, amap: AffineMap2D) -> WindowSet2D:
    """Image of the set under the map, on the bounding box of the images.

    The map is injective for nonzero scale, so the image count equals the
    preimage count.  An empty set has no bounding box and is refused.
    """
    mask = m.mask
    cols = np.flatnonzero(mask.any(axis=0))
    if cols.size == 0:
        raise ValueError("cannot map an empty set: its image has no bounding box")
    # each column y moves as a whole: x by shear*y + shift, to row scale*y
    ys = (m.y_lo + cols).tolist()
    firsts = mask[:, cols].argmax(axis=0).tolist()
    ends = (mask.shape[0] - mask[::-1, cols].argmax(axis=0)).tolist()
    dxs = [m.x_lo + amap.shear * y + amap.shift for y in ys]
    vs = [amap.scale * y for y in ys]
    u_lo = min(dx + f for dx, f in zip(dxs, firsts))
    u_hi = max(dx + e for dx, e in zip(dxs, ends))
    v_lo, v_hi = min(vs), max(vs) + 1
    out = box_mask((u_hi - u_lo, v_hi - v_lo))
    for j, f, e, dx, v in zip(cols.tolist(), firsts, ends, dxs, vs):
        out[dx + f - u_lo : dx + e - u_lo, v - v_lo] = mask[f:e, j]
    return WindowSet2D._adopt(u_lo, u_hi, v_lo, v_hi, out)


def _auto_box(run_start: int, run_len: int, span: int) -> tuple[int, int, int, int]:
    """Box over the run starting at run_start: at most ``PAIR_BOX_CELLS``
    cells, with step rows within +-16."""
    half = max(1, min(16, (run_len - 1) // (2 * max(span, 1))))
    rows = 2 * half + 1
    width = max(1, min(run_len, PAIR_BOX_CELLS // rows))
    return (run_start, run_start + width, -half, half + 1)


def _forced_span(radius: int, steps: int, budget: int) -> int:
    """W(radius, steps + 1) - 1 from an exhaustive search, which is not run
    when it surely needs more than budget nodes."""
    if not search_exceeds(radius, steps + 1, budget):
        sw = vdw_span(radius, steps, budget)
        if sw.exhaustive:
            return sw.span
    raise BudgetExhaustedError(
        f"van der Waerden search for {radius} colors and {steps + 1} terms "
        f"exhausted its budget of {budget} nodes"
    )


def fg_construct(
    s: WindowSet1D,
    radius: int,
    steps: int,
    radius_2d: int | None = None,
    budget: int = DEFAULT_BUDGET,
    *,
    min_length: int = 1,
) -> FgCertificate:
    """Run the whole construction and return its certificate.

    radius_2d defaults to the computed span, which bounds how far the
    affine map distorts shifts.  The certified box is always a window over
    the leftmost longest run of the shifted union, capped at
    ``PAIR_BOX_CELLS`` cells with step rows within +-16.  To certify another
    box, run the public stages on it (progression_pairs, color_classes,
    pigeonhole_extract, affine_image).  scale_out is the chosen class's
    pigeonhole score when its map is a translation (offset 0, stride 1),
    else the image's.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    if radius_2d is not None and radius_2d < 1:
        raise ValueError(f"radius_2d must be >= 1, got {radius_2d}")
    u = shifted_union_1d(s, radius)
    length_in = max_run_length(u)
    if length_in < min_length:
        raise ScalePreconditionError(radius, min_length, length_in)
    span = _forced_span(radius, steps, budget)
    if radius_2d is None:
        radius_2d = span
    box = _auto_box(contains_interval(u, length_in), length_in, span)
    ps = progression_pairs(s, radius, span, box)
    if ps.pairs.count == 0:
        raise ConstructionError(f"no progression pairs inside box {box}")
    classes = color_classes(s, ps.pairs, radius=radius, span=span, steps=steps)
    triple, chosen, score = pigeonhole_extract(classes, radius_2d)
    image = affine_image(
        chosen,
        AffineMap2D(shear=triple.offset, shift=triple.shift, scale=triple.stride),
    )
    if (image.mask & ~progressions_in(s, image.box, range(steps + 1))).any():
        raise PhiSearchError("constructed pair fails its membership re-check")
    # ps_scale_2d depends on the points alone, so a translation keeps it
    translated = (triple.offset, triple.stride) == (0, 1)
    length_out = score if translated else ps_scale_2d(image, radius_2d)
    return FgCertificate(
        lo=s.lo,
        hi=s.hi,
        digest=set_digest(s),
        radius=radius,
        steps=steps,
        radius_2d=radius_2d,
        version=VERSION_TAG,
        span=span,
        span_exhaustive=True,
        offset=triple.offset,
        stride=triple.stride,
        shift=triple.shift,
        pair_box=box,
        pair_count=ps.pairs.count,
        class_count=chosen.count,
        ap_pairs=image,
        length_in=length_in,
        length_out=length_out,
    )


def find_nontrivial_ap(s: WindowSet1D, radius: int, steps: int) -> APPair:
    """A verified progression start, start+d, ..., start+steps*d in s with
    d != 0.

    Requires the shifted union at this radius to contain a run at least as
    long as W(radius, steps+1), which is searched for under DEFAULT_BUDGET
    nodes; the error names the required length.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    need = _forced_span(radius, steps, DEFAULT_BUDGET) + 1
    u = shifted_union_1d(s, radius)
    run_start = contains_interval(u, need)
    if run_start is None:
        raise ScalePreconditionError(radius, need, max_run_length(u))
    # each union member's color is its least shift t with p + t in s
    hits = progressions_in(s, (run_start, run_start + need, 1, radius + 1), range(1, 2))
    found = hits.any(axis=1)
    if not found.all():
        j = int(np.flatnonzero(~found)[0])
        raise PhiSearchError(f"union member {run_start + j} has no witnessing shift")
    values = (hits.argmax(axis=1) + 1).tolist()
    mono = find_mono_ap(Coloring(tuple(values), radius), steps + 1)
    if mono is None:
        raise PhiSearchError(
            f"no monochromatic progression in a window of {need} positions; "
            f"the computed van der Waerden number is wrong"
        )
    a = run_start + mono.ap.start + mono.color
    d = mono.ap.step
    if not progressions_in(s, (a, a + 1, d, d + 1), range(steps + 1))[0, 0]:
        raise PhiSearchError("returned pair fails its membership re-check")
    return APPair(start=a, step=d)


def partition_extract(
    s: WindowSet1D, cells: list[WindowSet1D], radius: int
) -> PartitionWitness:
    """Cell achieving the best scale over a sweep of shift radii.

    The sweep covers radii 1..4*radius.  Scales are monotone in
    the radius, so each cell's best run length shows up at the top radius;
    the witness reports the least radius that already achieves it.  Ties
    between cells go to the least index.  The returned witness is
    re-verified before being returned.
    """
    if not cells:
        raise PartitionError("no cells given")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    covered = np.zeros(s.width, dtype=bool)
    for cell in cells:
        if (cell.lo, cell.hi) != (s.lo, s.hi):
            raise PartitionError(
                f"cell window [{cell.lo}, {cell.hi}) differs from "
                f"[{s.lo}, {s.hi})"
            )
        if (covered & cell.mask).any():
            raise PartitionError("cells are not a disjoint cover of the set")
        covered |= cell.mask
    if not np.array_equal(covered, s.mask):
        raise PartitionError("cells are not a disjoint cover of the set")
    top = 4 * radius
    scores = tuple(ps_scale_1d(cell, top) for cell in cells)
    best = max(range(len(cells)), key=lambda i: (scores[i], -i))
    if scores[best] == 0:
        raise PartitionError("every cell is empty; no positive scale exists")
    chosen = cells[best]
    length = scores[best]
    found_radius = top
    for r in range(1, top + 1):
        if ps_scale_1d(chosen, r) == length:
            found_radius = r
            break
    witness = is_ps_at_scale(chosen, Scale(found_radius, length))
    if witness is None:
        raise PhiSearchError("partition witness fails its own re-verification")
    return PartitionWitness(
        index=best, scale=Scale(found_radius, length), start=witness.start,
        scores=scores,
    )
