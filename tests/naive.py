"""Brute-force reference implementations used as independent oracles.

Everything here is written from the definitions with plain loops and sets,
deliberately sharing no code with the package.
"""

from __future__ import annotations

import itertools


def points_in_box(x_lo: int, x_hi: int, y_lo: int, y_hi: int, points):
    """The arguments of a 2D window set over the box that holds exactly
    these points: the four bounds, then the mask as nested lists indexed
    [x - x_lo][y - y_lo]."""
    pts = set(points)
    for x, y in pts:
        if not (x_lo <= x < x_hi and y_lo <= y < y_hi):
            raise ValueError(f"point ({x}, {y}) outside the box")
    mask = [[(x, y) in pts for y in range(y_lo, y_hi)] for x in range(x_lo, x_hi)]
    return x_lo, x_hi, y_lo, y_hi, mask


def shifted_union_1d(members: set[int], lo: int, hi: int, radius: int):
    """Returns (member set, out_lo, out_hi) for the union of shifts 1..radius."""
    out = set()
    for m in range(lo - radius, hi - 1):
        for t in range(1, radius + 1):
            if lo <= m + t < hi and (m + t) in members:
                out.add(m)
                break
    return out, lo - radius, hi - 1


def contains_interval(members: set[int], lo: int, hi: int, length: int):
    for a in range(lo, hi - length + 1):
        if all((a + i) in members for i in range(length)):
            return a
    return None


def progression_in(members: set[int], a: int, d: int, terms: int) -> bool:
    """a + i*d is a member for every i < terms."""
    return all(a + i * d in members for i in range(terms))


def max_run(members: set[int], lo: int, hi: int) -> int:
    best = cur = 0
    for m in range(lo, hi):
        cur = cur + 1 if m in members else 0
        best = max(best, cur)
    return best


def runs(members: set[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """Maximal runs [a, b) of consecutive members, in order."""
    out = []
    m = lo
    while m < hi:
        if m in members:
            a = m
            while m < hi and m in members:
                m += 1
            out.append((a, m))
        else:
            m += 1
    return out


def ps_scale_1d(members: set[int], lo: int, hi: int, radius: int) -> int:
    u, ulo, uhi = shifted_union_1d(members, lo, hi, radius)
    return max_run(u, ulo, uhi)


def shifted_union_2d(pts: set[tuple[int, int]], box, radius: int):
    x_lo, x_hi, y_lo, y_hi = box
    out = set()
    for x in range(x_lo - radius, x_hi - 1):
        for y in range(y_lo - radius, y_hi - 1):
            hit = False
            for t1 in range(1, radius + 1):
                for t2 in range(1, radius + 1):
                    if (
                        x_lo <= x + t1 < x_hi
                        and y_lo <= y + t2 < y_hi
                        and (x + t1, y + t2) in pts
                    ):
                        hit = True
                        break
                if hit:
                    break
            if hit:
                out.add((x, y))
    return out, (x_lo - radius, x_hi - 1, y_lo - radius, y_hi - 1)


def contains_square(pts: set[tuple[int, int]], box, side: int):
    x_lo, x_hi, y_lo, y_hi = box
    for x in range(x_lo, x_hi - side + 1):
        for y in range(y_lo, y_hi - side + 1):
            if all((x + i, y + j) in pts for i in range(side) for j in range(side)):
                return (x, y)
    return None


def max_square(pts: set[tuple[int, int]], box) -> int:
    best = 0
    side = 1
    while contains_square(pts, box, side) is not None:
        best = side
        side += 1
    return best


def ps_scale_2d(pts: set[tuple[int, int]], box, radius: int) -> int:
    if not pts:
        return 0
    u, ubox = shifted_union_2d(pts, box, radius)
    return max_square(u, ubox)


def find_mono_ap(values: tuple[int, ...], terms: int):
    """Least (step, start) monochromatic progression, or None."""
    n = len(values)
    if terms == 1:
        return (0, 1, values[0]) if n else None
    for step in range(1, (n - 1) // (terms - 1) + 1 if n else 0):
        for start in range(0, n - (terms - 1) * step):
            c = values[start]
            if all(values[start + j * step] == c for j in range(1, terms)):
                return (start, step, c)
    return None


def least_extremal(colors: int, terms: int):
    """(W(colors, terms), least longest progression-free coloring), by a
    plain depth-first walk over every coloring with position 0 pinned to 1."""
    best: list[int] = []

    def grow(seq: list[int]) -> None:
        nonlocal best
        if len(seq) > len(best):
            best = list(seq)
        for c in range(1, (colors if seq else 1) + 1):
            seq.append(c)
            if find_mono_ap(tuple(seq), terms) is None:
                grow(seq)
            seq.pop()

    grow([])
    return len(best) + 1, tuple(best)


def every_coloring_has_mono_ap(colors: int, terms: int, n: int) -> bool:
    for values in itertools.product(range(1, colors + 1), repeat=n):
        if find_mono_ap(values, terms) is None:
            return False
    return True


def progression_pairs(members: set[int], lo: int, hi: int, radius: int, span: int, box):
    """Pairs whose probes all land inside the union window and in the union."""
    u, ulo, uhi = shifted_union_1d(members, lo, hi, radius)
    x_lo, x_hi, y_lo, y_hi = box
    hits = set()
    excluded = 0
    for a in range(x_lo, x_hi):
        for d in range(y_lo, y_hi):
            probes = [a + i * d for i in range(span + 1)]
            if any(not (ulo <= p < uhi) for p in probes):
                excluded += 1
                continue
            if all(p in u for p in probes):
                hits.add((a, d))
    return hits, excluded


def feasible_rows(window, box, coefs: range, shift: int) -> list:
    """(y, a, b) per step row y of the box that keeps a start: a <= x < b
    are the starts whose terms x + shift + c*y, c in the nonempty range
    coefs, all land in the window [lo, hi).  One row at a time, from the
    least and greatest term of each row."""
    lo, hi = window
    x_lo, x_hi, y_lo, y_hi = box
    c0, c1 = sorted((coefs[0], coefs[-1]))
    rows = []
    for y in range(y_lo, y_hi):
        a = max(x_lo, lo - shift - min(c0 * y, c1 * y))
        b = min(x_hi, hi - shift - max(c0 * y, c1 * y))
        if a < b:
            rows.append((y, a, b))
    return rows


def verified_triple(members: set[int], lo: int, hi: int, a: int, d: int,
                    radius: int, span: int, steps: int):
    """Least (shift, stride, offset) whose sub-progression verifies in S."""
    for shift in range(1, radius + 1):
        for stride in range(1, span // steps + 1):
            for offset in range(0, span - steps * stride + 1):
                good = True
                for i in range(steps + 1):
                    p = a + (offset + i * stride) * d + shift
                    if not (lo <= p < hi and p in members):
                        good = False
                        break
                if good:
                    return (offset, stride, shift)
    return None


def vdw_search(colors: int, terms: int, budget: int):
    """(deepest progression-free prefix found first, nodes, budget ran out)
    of a restricted-growth walk that spends one node per attempted
    placement and stops before the attempt that would pass the budget."""

    def closes(seq: list[int]) -> bool:
        i = len(seq) - 1
        c = seq[i]
        for step in range(1, i // (terms - 1) + 1):
            j = 1
            while j < terms and seq[i - j * step] == c:
                j += 1
            if j == terms:
                return True
        return False

    seq: list[int] = []
    tops = [0]  # tops[i]: the largest color in seq[:i]
    best: list[int] = []
    nodes = 0
    color = 1  # the next color to try at position len(seq)
    while True:
        if color > min(colors, 1 + tops[-1]):
            if not seq:
                return best, nodes, False
            tops.pop()
            color = seq.pop() + 1
            continue
        if nodes >= budget:
            return best, nodes, True
        nodes += 1
        seq.append(color)
        if closes(seq):
            seq.pop()
            color += 1
        else:
            tops.append(max(tops[-1], color))
            if len(seq) > len(best):
                best = list(seq)
            color = 1
