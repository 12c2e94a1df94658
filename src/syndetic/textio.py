"""Plain-text serialization of window sets, colorings, and search results.

All formats are line based with space-separated fields.  Lines starting
with ``#`` and blank lines are ignored on input.  Writers emit a canonical
form (maximal runs, sorted rows) so that equal values serialize to equal
bytes.
"""

from __future__ import annotations

import numpy as np

from .vdw import Coloring, VdwResult
from .windows import WindowSet1D, WindowSet2D, run_edges

__all__ = [
    "SetFormatError",
    "canonical_int",
    "significant_lines",
    "dump_window1d",
    "load_window1d",
    "dump_window2d",
    "load_window2d",
    "dump_coloring",
    "dump_vdw_result",
]


class SetFormatError(ValueError):
    """Malformed set or result document; message names the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def significant_lines(text: str):
    """(line number, stripped line) for every line that is not blank or a
    ``#`` comment: the comment grammar of every line-based document."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def canonical_int(field: str) -> int:
    """The integer a field spells in the one form the writers emit, so that
    parsed documents re-serialize to the same bytes; ValueError otherwise."""
    value = int(field)
    if str(value) != field:
        raise ValueError(f"non-canonical integer {field!r}")
    return value


def _ints(lineno: int, fields: list[str], expect: int, what: str) -> list[int]:
    if len(fields) != expect:
        raise SetFormatError(lineno, f"{what} expects {expect} fields, got {len(fields)}")
    out = []
    for f in fields:
        try:
            out.append(canonical_int(f))
        except ValueError:
            raise SetFormatError(lineno, f"malformed integer {f!r}") from None
    return out


def dump_window1d(s: WindowSet1D) -> str:
    starts, ends = run_edges(s.mask)
    lines = [f"window1d {s.lo} {s.hi}"]
    lines += [
        f"run {a} {b}" for a, b in zip((starts + s.lo).tolist(), (ends + s.lo).tolist())
    ]
    return "\n".join(lines) + "\n"


def load_window1d(text: str) -> WindowSet1D:
    lines = significant_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise SetFormatError(0, "empty document") from None
    tok = header.split()
    if tok[0] != "window1d":
        raise SetFormatError(lineno, f"expected window1d header, got {tok[0]!r}")
    lo, hi = _ints(lineno, tok[1:], 2, "window1d")
    if lo >= hi:
        raise SetFormatError(lineno, f"window [{lo}, {hi}) is empty")
    mask = np.zeros(hi - lo, dtype=bool)
    for lineno, line in lines:
        tok = line.split()
        if tok[0] != "run":
            raise SetFormatError(lineno, f"expected run line, got {tok[0]!r}")
        a, b = _ints(lineno, tok[1:], 2, "run")
        if a >= b:
            raise SetFormatError(lineno, f"run [{a}, {b}) is empty")
        if a < lo or b > hi:
            raise SetFormatError(lineno, f"run [{a}, {b}) leaves window [{lo}, {hi})")
        mask[a - lo : b - lo] = True
    return WindowSet1D(lo, hi, mask)


def dump_window2d(m: WindowSet2D) -> str:
    lines = [f"window2d {m.x_lo} {m.x_hi} {m.y_lo} {m.y_hi}"]
    for iy in range(m.y_hi - m.y_lo):
        starts, ends = run_edges(m.mask[:, iy])
        for a, b in zip(starts.tolist(), ends.tolist()):
            lines.append(f"rowrun {m.y_lo + iy} {m.x_lo + a} {m.x_lo + b}")
    return "\n".join(lines) + "\n"


def load_window2d(text: str) -> WindowSet2D:
    lines = significant_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise SetFormatError(0, "empty document") from None
    tok = header.split()
    if tok[0] != "window2d":
        raise SetFormatError(lineno, f"expected window2d header, got {tok[0]!r}")
    x_lo, x_hi, y_lo, y_hi = _ints(lineno, tok[1:], 4, "window2d")
    if x_lo >= x_hi or y_lo >= y_hi:
        raise SetFormatError(lineno, "box is empty")
    mask = np.zeros((x_hi - x_lo, y_hi - y_lo), dtype=bool)
    for lineno, line in lines:
        tok = line.split()
        if tok[0] == "pt":
            x, y = _ints(lineno, tok[1:], 2, "pt")
            if not (x_lo <= x < x_hi and y_lo <= y < y_hi):
                raise SetFormatError(lineno, f"point ({x}, {y}) leaves the box")
            mask[x - x_lo, y - y_lo] = True
        elif tok[0] == "rowrun":
            y, a, b = _ints(lineno, tok[1:], 3, "rowrun")
            if a >= b:
                raise SetFormatError(lineno, f"rowrun [{a}, {b}) is empty")
            if not (y_lo <= y < y_hi) or a < x_lo or b > x_hi:
                raise SetFormatError(lineno, f"rowrun y={y} [{a}, {b}) leaves the box")
            mask[a - x_lo : b - x_lo, y - y_lo] = True
        else:
            raise SetFormatError(lineno, f"expected pt or rowrun, got {tok[0]!r}")
    return WindowSet2D(x_lo, x_hi, y_lo, y_hi, mask)


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
