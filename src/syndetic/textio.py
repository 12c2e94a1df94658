"""Plain-text serialization of 1D window sets, colorings, and search results.

All formats are line based with space-separated fields.  Lines starting
with ``#`` and blank lines are ignored on input.  Writers emit a canonical
form (maximal runs, sorted rows) so that equal values serialize to equal
bytes.  A block of lines exactly in that form is read in one pass
(``writer_rows``); anything else goes line by line, with the same results
and the same errors.
"""

from __future__ import annotations

import re

import numpy as np

from .vdw import Coloring, VdwResult
from .windows import WindowSet1D, run_edges

__all__ = [
    "SetFormatError",
    "canonical_int",
    "significant_lines",
    "writer_rows",
    "fits_int64",
    "allocate",
    "dump_window1d",
    "load_window1d",
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


# The one integer grammar: the decimal form ``str(int)`` writes.
_INT = "(?:0|-?[1-9][0-9]*)"
_CANONICAL_INT = re.compile(_INT)
# The same grammar capped at 18 digits, so every value fits int64 (the bulk
# conversion saturates instead of failing); longer fields go line by line.
_INT_CAPPED = _INT.replace("*", "{0,17}")


def canonical_int(field: str) -> int:
    """The integer a field spells in the one form the writers emit, so that
    parsed documents re-serialize to the same bytes; ValueError otherwise."""
    if _CANONICAL_INT.fullmatch(field) is None:
        raise ValueError(f"non-canonical integer {field!r}")
    return int(field)


def writer_rows(block: str, key: str, width: int) -> np.ndarray | None:
    """The fields of a block of ``<key> <int> ... <int>`` lines, as an
    (n, width) int64 array, when every line is exactly as the writers emit
    it: single spaces, canonical integers, each line ended by ``\\n``, no
    comments or blank lines.  None otherwise, so that the line loop reads
    the block and names any bad line."""
    line = rf"{key}(?: {_INT_CAPPED}){{{width}}}\n"
    # the first line, then a newline not followed by a writer line; the
    # search skips from newline to newline and makes no object per line
    if not re.match(line, block) or re.search(rf"\n(?!\Z|{line})", block):
        return None
    fields = np.fromstring(block.replace(key, ""), dtype=np.int64, sep=" ")
    return fields.reshape(-1, width)


def fits_int64(*values: int) -> bool:
    """Whether numpy can hold every value as an int64: window bounds and
    widths read from a document must, before any array is built from them."""
    return all(-(2**63) <= v < 2**63 for v in values)


def allocate(shape, dtype, error: ValueError) -> np.ndarray:
    """Zeroed cells for a window or box read from a document; ``error`` when
    numpy refuses the shape as too large to allocate."""
    try:
        return np.zeros(shape, dtype)
    except (MemoryError, ValueError):
        raise error from None


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


def _window1d_header(lineno: int, header: str) -> tuple[int, int, np.ndarray]:
    """The window's bounds and a zeroed cover count: per cell, the number of
    runs that start there less the number that end there, so that runs may
    overlap or come in any order."""
    tok = header.split()
    if tok[0] != "window1d":
        raise SetFormatError(lineno, f"expected window1d header, got {tok[0]!r}")
    lo, hi = _ints(lineno, tok[1:], 2, "window1d")
    if lo >= hi:
        raise SetFormatError(lineno, f"window [{lo}, {hi}) is empty")
    if not fits_int64(lo, hi):
        raise SetFormatError(lineno, f"window [{lo}, {hi}) leaves the int64 range")
    too_wide = SetFormatError(lineno, f"window [{lo}, {hi}) is too wide to allocate")
    return lo, hi, allocate(hi - lo + 1, np.int32, too_wide)


def load_window1d(text: str) -> WindowSet1D:
    # writer form: the header alone, then writer-form run lines to the end
    start = text.find("\nrun ") + 1
    runs = writer_rows(text[start:], "run", 2) if start else None
    head = list(significant_lines(text[:start])) if runs is not None else []
    if len(head) == 1:
        lo, hi, cover = _window1d_header(*head[0])
        a, b = runs[:, 0], runs[:, 1]
        if (a < b).all() and (a >= lo).all() and (b <= hi).all():
            np.add.at(cover, a - lo, np.int32(1))
            np.add.at(cover, b - lo, np.int32(-1))
            np.cumsum(cover, out=cover)
            return WindowSet1D(lo, hi, cover[:-1] > 0)
    lines = significant_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise SetFormatError(0, "empty document") from None
    lo, hi, cover = _window1d_header(lineno, header)
    for lineno, line in lines:
        tok = line.split()
        if tok[0] != "run":
            raise SetFormatError(lineno, f"expected run line, got {tok[0]!r}")
        a, b = _ints(lineno, tok[1:], 2, "run")
        if a >= b:
            raise SetFormatError(lineno, f"run [{a}, {b}) is empty")
        if a < lo or b > hi:
            raise SetFormatError(lineno, f"run [{a}, {b}) leaves window [{lo}, {hi})")
        cover[a - lo] += 1
        cover[b - lo] -= 1
    if len(head) == 1:
        raise RuntimeError("bulk run check rejected runs the line loop accepts")
    np.cumsum(cover, out=cover)
    return WindowSet1D(lo, hi, cover[:-1] > 0)


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
