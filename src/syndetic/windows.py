"""Finite-window integer sets with exact largeness predicates.

A window set stores full membership information for a half-open integer
window (an interval in Z, a box in Z^2) and nothing outside it.  Largeness
notions that are asymptotic on infinite sets -- thickness, piecewise
syndeticity -- become scale-indexed predicates here: each check fixes a
shift radius and a run length and returns an explicit witness on success.

Memory layout: a 2D mask is indexed ``[x - x_lo, y - y_lo]``, starts
first, but stored step-major (Fortran order), so that the start axis is
contiguous.  The pipeline's boxes are thousands of starts wide and at most
33 steps tall, so numpy's inner loops then run thousands of cells at a
time, not at most 33.  ``box_mask`` allocates every 2D mask the package
builds; ``WindowSet2D`` adopts the construction's uncopied, copies others.

One doubling dilation builds the shifted union in Z and in Z^2 alike:
the union of shifts by 1..r marks where a side-r interval or square meets
the set.

Boundary policy: a scalar query (``WindowSet1D.contains``) outside the
window raises :class:`WindowError`.  ``progressions_in`` is the one box
probe: it ANDs ``term_views``, one strided view of the set per
coefficient, a term outside the window absent, so scans and recounts near
a boundary are conservative, never optimistic.  Only ``color_classes``
reads shifted terms, through ``term_views`` directly.  ``feasible_block``
is the one clip of a box to the starts whose terms all land, their least
sub-box, O(1) in Python ints and exact at any bound: the probe,
``progression_pairs``'s refusal, ``color_classes`` (once per call) and
the verifier use it, and ``block_rows`` walks its rows one at a time.

All set values are immutable after construction and every operation is a
pure function, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "PAIR_BOX_CELLS",
    "WindowError",
    "Scale",
    "PSWitness1D",
    "WindowSet1D",
    "WindowSet2D",
    "box_mask",
    "check_window",
    "fits_int64",
    "progressions_in",
    "term_views",
    "feasible_block",
    "block_rows",
    "first_member",
    "run_edges",
    "contains_interval",
    "max_run_length",
    "shifted_union_1d",
    "is_ps_at_scale",
    "ps_scale_1d",
    "shifted_union_2d",
    "ps_scale_2d",
]


# construct's pair boxes fit in this many cells; the verifier refuses more
PAIR_BOX_CELLS = 200_000


class WindowError(ValueError):
    """Invalid window bounds, or a membership query outside the window."""


@dataclass(frozen=True)
class Scale:
    """Largeness scale: the union of shifts by 1..radius must contain a run
    of ``length`` consecutive integers (a length x length square in 2D)."""

    radius: int
    length: int

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError(f"scale radius must be >= 1, got {self.radius}")
        if self.length < 1:
            raise ValueError(f"scale length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class PSWitness1D:
    """Leftmost start of a qualifying run inside the shifted union."""

    start: int
    scale: Scale


def _as_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def fits_int64(*values: int) -> bool:
    """Whether numpy can hold every value as an int64: window bounds and
    widths must, before any array is built from them."""
    return all(-(2**63) <= v < 2**63 for v in values)


def _bounds(lo, hi) -> tuple[int, int]:
    """The bounds of a nonempty window, as Python ints."""
    lo = _as_int("lo", lo)
    hi = _as_int("hi", hi)
    if lo >= hi:
        raise WindowError(f"window [{lo}, {hi}) is empty")
    return lo, hi


def check_window(lo, hi) -> tuple[int, int]:
    """The bounds of a nonempty window whose bounds are int64 values, as a
    set document needs them.  A set made here may reach past int64: the
    shifted union reaches ``radius`` below its set's window."""
    lo, hi = _bounds(lo, hi)
    if not fits_int64(lo, hi):
        raise WindowError(f"window [{lo}, {hi}) leaves the int64 range")
    return lo, hi


def box_mask(shape) -> np.ndarray:
    """An empty mask in the step-major layout every ``WindowSet2D`` keeps
    (moot in 1D); every 2D mask the package builds starts here."""
    return np.zeros(shape, dtype=bool, order="F")


class _WindowSet:
    """The body a 1D and a 2D set share: a read-only mask, and equality
    and hashing keyed on the class's ``_extent`` (its bounds) and mask, so
    a 1D set never equals a 2D one."""

    __slots__ = ("_mask",)

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self._mask))

    def is_empty(self) -> bool:
        return not self._mask.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._extent() == other._extent() and bool(
            np.array_equal(self._mask, other._mask)
        )

    def __hash__(self):
        return hash((self._extent(), self._mask.tobytes()))


class WindowSet1D(_WindowSet):
    """Subset of the integer window [lo, hi), one bit per integer."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int, mask: np.ndarray):
        lo, hi = _bounds(lo, hi)
        arr = np.array(mask, dtype=bool, copy=True)
        if arr.shape != (hi - lo,):
            raise WindowError(
                f"mask of shape {arr.shape} does not fit window [{lo}, {hi})"
            )
        arr.setflags(write=False)
        self.lo = lo
        self.hi = hi
        self._mask = arr

    @classmethod
    def from_members(cls, lo: int, hi: int, members: Iterable[int]) -> "WindowSet1D":
        lo, hi = _bounds(lo, hi)
        arr = np.zeros(hi - lo, dtype=bool)
        pts = np.asarray(list(members), dtype=np.int64)
        if pts.size:
            if ((pts < lo) | (pts >= hi)).any():
                bad = pts[(pts < lo) | (pts >= hi)][0]
                raise WindowError(f"member {bad} outside window [{lo}, {hi})")
            arr[pts - lo] = True
        return cls(lo, hi, arr)

    def _extent(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def members(self) -> np.ndarray:
        """All members in increasing order, as absolute integers."""
        return np.flatnonzero(self._mask).astype(np.int64) + self.lo

    def contains(self, m: int) -> bool:
        if not self.lo <= m < self.hi:
            raise WindowError(f"query {m} outside window [{self.lo}, {self.hi})")
        return bool(self._mask[m - self.lo])

    def __repr__(self) -> str:
        return f"WindowSet1D([{self.lo}, {self.hi}), count={self.count})"


class WindowSet2D(_WindowSet):
    """Subset of the integer box [x_lo, x_hi) x [y_lo, y_hi), its mask
    indexed [x - x_lo, y - y_lo] and stored step-major."""

    __slots__ = ("x_lo", "x_hi", "y_lo", "y_hi")

    def __init__(self, x_lo: int, x_hi: int, y_lo: int, y_hi: int, mask: np.ndarray):
        x_lo = _as_int("x_lo", x_lo)
        x_hi = _as_int("x_hi", x_hi)
        y_lo = _as_int("y_lo", y_lo)
        y_hi = _as_int("y_hi", y_hi)
        if x_lo >= x_hi or y_lo >= y_hi:
            raise WindowError(
                f"box [{x_lo}, {x_hi}) x [{y_lo}, {y_hi}) is empty"
            )
        arr = np.array(mask, dtype=bool, copy=True, order="F")
        if arr.shape != (x_hi - x_lo, y_hi - y_lo):
            raise WindowError(
                f"mask of shape {arr.shape} does not fit box "
                f"[{x_lo}, {x_hi}) x [{y_lo}, {y_hi})"
            )
        arr.setflags(write=False)
        self.x_lo, self.x_hi, self.y_lo, self.y_hi, self._mask = x_lo, x_hi, y_lo, y_hi, arr

    @classmethod
    def _adopt(cls, x_lo: int, x_hi: int, y_lo: int, y_hi: int, mask: np.ndarray):
        """The set on a mask the package just built for it, read-only, uncopied."""
        mask.setflags(write=False)
        self = object.__new__(cls)
        self.x_lo, self.x_hi, self.y_lo, self.y_hi, self._mask = x_lo, x_hi, y_lo, y_hi, mask
        return self

    @property
    def box(self) -> tuple[int, int, int, int]:
        return (self.x_lo, self.x_hi, self.y_lo, self.y_hi)

    def _extent(self) -> tuple[int, int, int, int]:
        return self.box

    def points(self) -> np.ndarray:
        """Members as an (n, 2) int64 array, sorted lexicographically."""
        idx = np.argwhere(self._mask).astype(np.int64)
        idx[:, 0] += self.x_lo
        idx[:, 1] += self.y_lo
        return idx

    def __repr__(self) -> str:
        return (
            f"WindowSet2D([{self.x_lo}, {self.x_hi}) x [{self.y_lo}, {self.y_hi}), "
            f"count={self.count})"
        )


def progressions_in(s: WindowSet1D, box, coefs: range) -> np.ndarray:
    """Over the box [x_lo, x_hi) x [y_lo, y_hi) of starts x and steps y,
    whether x + c*y is a member of s for every c in the nonempty range
    coefs, as a mask indexed [x - x_lo, y - y_lo].  A term outside the
    window is absent.  Only the box's ``feasible_block`` is probed, O(1)
    Python work and O(block area * terms) numpy work: its rows are the AND
    of at most width + 1 ``term_views``, as distinct coefficients spread a
    nonzero step's terms by |y| or more and a zero step repeats its first
    term; step row by step row, as over starts numpy would buffer the views
    of c = +-1 through a temporary."""
    block = feasible_block((s.lo, s.hi), box, coefs, 0)
    x_lo, x_hi, y_lo, y_hi = map(int, box)
    out = box_mask((x_hi - x_lo, y_hi - y_lo))
    if block is not None:
        xa, xb, ya, yb = block
        rows = out[xa - x_lo : xb - x_lo, ya - y_lo : yb - y_lo].T
        rows[...] = True
        for view in term_views(s, block, coefs[: s.width + 1], 0):
            rows &= view
    return out


def term_views(s: WindowSet1D, block, coefs: range, shift: int) -> list[np.ndarray]:
    """Per c in coefs, whether x + shift + c*y is in s (absent outside the
    window), as a view indexed [y - ya, x - xa] over the nonempty block, a
    box (xa, xb, ya, yb).  The views stride over the mask or, when they
    reach past the window, over one copy of just the cells they read, absent
    past it.  ``progressions_in`` reads them at shift 0; ``color_classes``
    per shift."""
    xa, xb, ya, yb = block
    nx, j, w = xb - xa, xa + int(shift) - s.lo, s.width
    # row y of coefficient c reads the nx cells of the mask from j + c*y on
    first = [j + c * y for c in (coefs[0], coefs[-1]) for y in (ya, yb - 1)]
    lo, hi = min(first), max(first) + nx
    cells = s.mask
    if lo < 0 or hi > w:
        a, b = max(lo, 0), max(lo, 0, min(hi, w))
        cells = np.zeros(hi - lo, dtype=bool)
        cells[a - lo : b - lo] = s.mask[a:b]
        j -= lo
    return [np.ndarray((yb - ya, nx), bool, cells, j + c * ya, (c, 1)) for c in coefs]


def feasible_block(window, box, coefs: range, shift: int):
    """The least sub-box (xa, xb, ya, yb) of the box [x_lo, x_hi) x [y_lo,
    y_hi) that holds every start x of every step row y whose terms x +
    shift + c*y, c in the nonempty range coefs, all land in the window
    [lo, hi); None if there is none.  In Python ints and O(1), so exact at
    any bound.

    On each half-line of steps (y >= 0 and y < 0) the least and greatest
    terms come from fixed coefficients cm and cM, so a row keeps a start
    under linear cuts in y, and the rows form one interval: a row's lower
    end is convex in y and its upper end concave, so their least lower and
    greatest upper end lie at the interval's ends or at y = 0.
    """
    L, H, x_lo, x_hi, y_lo, y_hi, c0, c1 = _clip_terms(window, box, coefs, shift)
    if x_lo >= x_hi:
        return None
    # the rows of each half that keep a start, lower half first; when both
    # keep one they meet at y = 0, as the rows form one interval
    spans = []
    for ya, yb, cm, cM in ((y_lo, min(y_hi, 0), c1, c0), (max(y_lo, 0), y_hi, c0, c1)):
        # L - cm*y < x_hi, x_lo < H - cM*y and L - cm*y < H - cM*y
        for k, m in ((-cm, x_hi - L - 1), (cM, H - x_lo - 1), (cM - cm, H - L - 1)):
            ya, yb = _rows_where(k, m, ya, yb)
        if ya < yb:
            spans += (ya, yb)
    if not spans:
        return None
    ya, yb = spans[0], spans[-1]
    ends = [
        _row_ends(y, L, H, x_lo, x_hi, c0, c1)
        for y in (ya, min(max(ya, 0), yb - 1), yb - 1)
    ]
    return min(a for a, _ in ends), max(b for _, b in ends), ya, yb


def block_rows(window, box, coefs: range, shift: int):
    """(y, a, b) for each step row y of the box's ``feasible_block``: a <=
    x < b are the starts whose terms all land, and every row of the block
    keeps one.  Lazy, so a tall block builds no list."""
    block = feasible_block(window, box, coefs, shift)
    if block is None:
        return
    L, H, x_lo, x_hi, _, _, c0, c1 = _clip_terms(window, box, coefs, shift)
    for y in range(block[2], block[3]):
        yield (y, *_row_ends(y, L, H, x_lo, x_hi, c0, c1))


def _clip_terms(window, box, coefs: range, shift: int) -> tuple:
    """(L, H, x_lo, x_hi, y_lo, y_hi, c0, c1) in Python ints: a start x
    of step row y keeps its terms in the window [lo, hi) iff L <= x +
    c*y < H for c = c0 and c = c1, the least and greatest coefficient."""
    if not coefs:
        raise ValueError("coefs is empty")
    lo, hi, x_lo, x_hi, y_lo, y_hi, shift = map(int, (*window, *box, shift))
    c0, c1 = sorted((coefs[0], coefs[-1]))
    return lo - shift, hi - shift, x_lo, x_hi, y_lo, y_hi, c0, c1


def _row_ends(y: int, L: int, H: int, x_lo: int, x_hi: int, c0: int, c1: int):
    """The starts a <= x < b of step row y whose least and greatest terms
    land; the row keeps none when a >= b."""
    return max(x_lo, L - min(c0 * y, c1 * y)), min(x_hi, H - max(c0 * y, c1 * y))


def _rows_where(k: int, m: int, ya: int, yb: int) -> tuple[int, int]:
    """The rows y of [ya, yb) with k*y <= m, as one interval."""
    if k > 0:
        yb = min(yb, m // k + 1)
    elif k < 0:
        ya = max(ya, -(m // -k))
    elif m < 0:
        yb = ya
    return ya, yb


def first_member(box, mask: np.ndarray) -> tuple[int, int] | None:
    """Lexicographically least (x, y) marked in a mask indexed from the
    box's lower corner, or None if the mask is empty."""
    # most masks are empty, and flatnonzero copies a step-major mask
    if not mask.any():
        return None
    hits = np.flatnonzero(mask)
    # row-major order is lexicographic order on (x, y)
    x, y = divmod(int(hits[0]), mask.shape[1])
    return (box[0] + x, box[2] + y)


# ---------------------------------------------------------------------------
# 1D predicates


def run_edges(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the maximal runs of a 1D boolean mask, in
    order; run j covers mask indices [starts[j], ends[j])."""
    padded = np.zeros(mask.size + 2, dtype=bool)
    padded[1:-1] = mask
    # the edges alternate, a start then its end, since the padding is absent
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2]


def contains_interval(s: WindowSet1D, length: int) -> int | None:
    """Leftmost start of a run of ``length`` consecutive members, if any.

    A length larger than the window width yields None, not an error.
    """
    length = _as_int("length", length)
    if length < 1:
        raise ValueError(f"interval length must be >= 1, got {length}")
    starts, ends = run_edges(s.mask)
    long_enough = np.flatnonzero(ends - starts >= length)
    if long_enough.size == 0:
        return None
    return s.lo + int(starts[long_enough[0]])


def max_run_length(s: WindowSet1D) -> int:
    """Length of the longest run of consecutive members; 0 if empty."""
    starts, ends = run_edges(s.mask)
    return int((ends - starts).max(initial=0))


def shifted_union_1d(s: WindowSet1D, radius: int) -> WindowSet1D:
    """Union of the shifted copies S-1, ..., S-radius, on the window where
    at least one probe lands inside S's window: [lo-radius, hi-1).

    m is a member iff m+t is a member of s for some t in 1..radius.
    """
    sq = _union_of_shifts(s.mask, radius)
    return WindowSet1D(s.lo - int(radius), s.hi - 1, sq)


def is_ps_at_scale(s: WindowSet1D, scale: Scale) -> PSWitness1D | None:
    """Piecewise-syndeticity check at one scale, with an explicit witness.

    Present iff the union of shifts by 1..scale.radius contains a run of
    scale.length consecutive integers; returns that run's leftmost start.
    """
    u = shifted_union_1d(s, scale.radius)
    start = contains_interval(u, scale.length)
    if start is None:
        return None
    return PSWitness1D(start=start, scale=scale)


def ps_scale_1d(s: WindowSet1D, radius: int) -> int:
    """Largest run length achieved by the shifted union at this radius."""
    return max_run_length(shifted_union_1d(s, radius))


# ---------------------------------------------------------------------------
# 2D predicates


def shifted_union_2d(m: WindowSet2D, radius: int) -> WindowSet2D:
    """Union of shifts of m by (t1, t2) for t1, t2 in 1..radius.

    (x, y) is a member iff (x+t1, y+t2) is a member of m for some shift
    pair; the result box is [x_lo-radius, x_hi-1) x [y_lo-radius, y_hi-1).
    """
    sq, r = _union_of_shifts(m.mask, radius), int(radius)
    return WindowSet2D._adopt(m.x_lo - r, m.x_hi - 1, m.y_lo - r, m.y_hi - 1, sq)


def _union_of_shifts(mask: np.ndarray, radius: int) -> np.ndarray:
    """The shifted union's mask, 1D or 2D: cell i marks whether the
    side-radius cube at i + 1 meets the mask, on radius - 1 more cells per
    axis, from radius cells below.  With the mask padded by radius - 1
    empty cells on each side, the corners of side-1 cubes that meet it are
    its own members; each OR step (the mirror of the erosion in
    ``ps_scale_2d``) grows the side by at most the side so far, doubling
    up to radius, in O(size * log radius)."""
    radius = _as_int("radius", radius)
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    pad = radius - 1
    sq = box_mask([n + 2 * pad for n in mask.shape])
    sq[tuple([slice(pad, pad + n) for n in mask.shape])] = mask
    side = 1
    while side < radius:
        step = min(side, radius - side)
        sq, side = _square_by(np.logical_or, sq, step), side + step
    return sq


def _square_by(op, sq: np.ndarray, b: int) -> np.ndarray:
    """Cell i of a 1D or 2D array combined by op with every cell i + b*e,
    e in {0, 1}^ndim, on an array b cells shorter on each axis.  If sq
    marks the corners of side-a cubes and b <= a, those cubes tile a
    side-(a+b) cube.  So with logical_and, corners of full side-a cubes
    become corners of full side-(a+b) cubes (erosion); with logical_or,
    corners of side-a cubes that meet a set become those of side-(a+b)
    cubes that meet it (dilation).  An offset past the edge of sq leaves
    an empty array."""
    sq = op(sq[:-b], sq[b:])
    if sq.ndim == 2:
        sq = op(sq[:, :-b], sq[:, b:])
    return sq


def ps_scale_2d(m: WindowSet2D, radius: int) -> int:
    """Largest side of a filled square inside the 2D shifted union; 0 if
    the set is empty.

    Doubles the side while a full square remains, then adds the halves
    back in descending order, keeping each one that leaves a full square.
    Every offset added is at most the side reached so far (the b <= a
    invariant of ``_square_by``), so the search is exact and costs
    O(area * log side).
    """
    sq = shifted_union_2d(m, radius).mask
    if not sq.any():
        return 0
    side = 1
    while (grown := _square_by(np.logical_and, sq, side)).any():
        sq, side = grown, 2 * side
    step = side // 2
    while step:
        if (grown := _square_by(np.logical_and, sq, step)).any():
            sq, side = grown, side + step
        step //= 2
    return side
