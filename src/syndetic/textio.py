"""Plain-text serialization of 1D window sets, and ``Lines``, the one
reader of line documents: set documents here and certificates in
``certificate``.  The vdW result document is written by ``vdw``.

All formats are line based with space-separated fields.  Lines starting
with ``#`` and blank lines are ignored on input.  Writers emit a canonical
form (maximal runs, sorted rows) so that equal values serialize to equal
bytes.  A document's block of integer rows is written in one vectorized
pass (``dump_rows``), and read in one pass when it is exactly in that form
(``writer_rows``) and line by line otherwise; one row check per document
serves both paths and names the first bad line.
"""

from __future__ import annotations

import re

import numpy as np

from .windows import WindowError, WindowSet1D, check_window, run_edges

__all__ = [
    "SetFormatError",
    "canonical_int",
    "writer_rows",
    "allocate",
    "Lines",
    "dump_rows",
    "dump_window1d",
    "load_window1d",
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


def dump_rows(key: str, *columns: np.ndarray) -> str:
    """One ``<key> <int> ... <int>`` line per row of the int64 columns, in
    the form ``writer_rows`` reads back: the bytes of an f-string per row,
    written in one vectorized pass.

    Every row is laid out in one fixed-width uint8 matrix: the key, then
    per field a space, a sign cell and the digits, right-aligned, with NUL
    in every unused cell.  Digits come from repeated division of the uint64
    magnitudes, negated in two's complement so that -2**63 is exact, and
    one boolean compress drops the padding.
    """
    fields = []
    for column in columns:
        values = np.asarray(column, dtype=np.int64)
        negative = values < 0
        magnitude = values.view(np.uint64).copy()
        np.negative(magnitude, out=magnitude, where=negative)
        fields.append((negative, magnitude, len(str(magnitude.max(initial=0)))))
    head = key.encode("ascii")
    width = len(head) + sum(2 + digits for *_, digits in fields) + 1
    out = np.zeros((len(fields[0][0]), width), dtype=np.uint8)
    out[:, : len(head)] = np.frombuffer(head, dtype=np.uint8)
    at = len(head)
    ten = np.uint64(10)
    for negative, q, digits in fields:
        out[:, at] = ord(" ")
        out[:, at + 1] = negative * np.uint8(ord("-"))
        last = at + 1 + digits
        for j in range(last, at + 1, -1):
            r = q // ten
            digit = (q - r * ten).astype(np.uint8) + np.uint8(ord("0"))
            if j < last:
                # a leading zero is padding; the last digit is always kept
                digit *= q != 0
            out[:, j] = digit
            q = r
        at = last + 1
    out[:, -1] = ord("\n")
    return out[out != 0].tobytes().decode("ascii")


def allocate(zeros, error: ValueError) -> np.ndarray:
    """``zeros()``, the zeroed cells for a window or box read from a
    document; ``error`` when numpy refuses them as too large to allocate."""
    try:
        return zeros()
    except (MemoryError, ValueError):
        raise error from None


_BLOCK = object()


class Lines:
    """The significant lines of a document, read in order by a reader that
    knows the document's grammar.  Every error is ``error(lineno, message)``,
    the document's own format error.

    A document has one block of ``<key> <int> ... <int>`` lines, ``width``
    integers each: from the first line that starts with ``key`` up to the
    first ``stop`` line after it, or to the end when ``stop`` is None.  When
    that block is in writer form it stands in the lines as one placeholder,
    which ``rows`` reads in one pass; any other read expands it into its
    lines first, so errors name the same line either way.
    """

    def __init__(
        self, text: str, error: type[ValueError], key: str, width: int, stop: str | None
    ):
        self.error, self.key, self.width, self.stop = error, key, width, stop
        self.pos = 0
        start = text.find(f"\n{key} ") + 1
        end = len(text) if stop is None else text.find(f"\n{stop}\n", start) + 1
        self.block = text[start:end]
        self.bulk = writer_rows(self.block, key, width) if start and end else None
        if self.bulk is None:
            self.lines = list(significant_lines(text))
        else:
            head = text[:start]
            first = len(head.splitlines()) + 1
            after = first + self.bulk.shape[0] - 1
            self.lines = [
                *significant_lines(head),
                (first, _BLOCK),
                *((n + after, line) for n, line in significant_lines(text[end:])),
            ]
        if not self.lines:
            raise error(0, "empty document")

    def peek(self) -> tuple[int, str] | None:
        if self.pos >= len(self.lines):
            return None
        first, item = self.lines[self.pos]
        if item is _BLOCK:
            self.lines[self.pos : self.pos + 1] = [
                (n + first - 1, line) for n, line in significant_lines(self.block)
            ]
        return self.lines[self.pos]

    def next(self, what: str) -> tuple[int, str]:
        item = self.peek()
        if item is None:
            last = self.lines[-1][0]
            raise self.error(last, f"unexpected end of document, wanted {what}")
        self.pos += 1
        return item

    def literal(self, expected: str) -> None:
        lineno, line = self.next(expected)
        if line != expected:
            raise self.error(lineno, f"expected {expected!r}, got {line!r}")

    def keyed(self, key: str, nfields: int) -> list[str]:
        lineno, line = self.next(f"{key} line")
        tok = line.split()
        if tok[0] != key:
            raise self.error(lineno, f"expected key {key!r}, got {tok[0]!r}")
        if len(tok) - 1 != nfields:
            message = f"{key} expects {nfields} fields, got {len(tok) - 1}"
            raise self.error(lineno, message)
        self.lastline = lineno
        return tok[1:]

    def keyed_ints(self, key: str, nfields: int) -> list[int]:
        out = []
        for f in self.keyed(key, nfields):
            try:
                out.append(canonical_int(f))
            except ValueError:
                message = f"malformed integer {f!r} in {key}"
                raise self.error(self.lastline, message) from None
        return out

    def rows(self, check) -> np.ndarray:
        """The block as an (n, width) int64 array: the placeholder's rows if
        it is next, else the ``key`` lines up to the ``stop`` line, which is
        left to the reader.  ``check(rows)`` gives the index and message of
        the first row that breaks the document's rules, or None.  The line
        loop checks the rows before a malformed line first, so the error
        names the first bad line on both paths."""
        fault = None
        if self.pos < len(self.lines) and self.lines[self.pos][1] is _BLOCK:
            first = self.lines[self.pos][0]
            self.pos += 1
            rows = self.bulk
            linenos = range(first, first + len(rows))
        else:
            read, linenos = [], []
            try:
                while (item := self.peek()) is not None and item[1] != self.stop:
                    read.append(self.keyed_ints(self.key, self.width))
                    linenos.append(self.lastline)
            except self.error as exc:
                fault = exc
            # Python ints: a field may leave int64 until the check has passed
            rows = np.array(read, dtype=object).reshape(-1, self.width)
        bad = check(rows)
        if bad is not None:
            raise self.error(linenos[bad[0]], bad[1])
        if fault is not None:
            raise fault
        return rows.astype(np.int64, copy=False)


def dump_window1d(s: WindowSet1D) -> str:
    check_window(s.lo, s.hi)
    starts, ends = run_edges(s.mask)
    return f"window1d {s.lo} {s.hi}\n" + dump_rows("run", starts + s.lo, ends + s.lo)


def load_window1d(text: str) -> WindowSet1D:
    lines = Lines(text, SetFormatError, "run", 2, None)
    try:
        lo, hi = check_window(*lines.keyed_ints("window1d", 2))
    except WindowError as exc:
        raise SetFormatError(lines.lastline, str(exc)) from None
    window = f"window [{lo}, {hi})"
    too_wide = SetFormatError(lines.lastline, f"{window} is too wide to allocate")
    # per cell, the number of runs that start there less the number that
    # end there, so that runs may overlap or come in any order
    cover = allocate(lambda: np.zeros(hi - lo + 1, np.int32), too_wide)

    def check(runs):
        a, b = runs[:, 0], runs[:, 1]
        bad = np.flatnonzero((a >= b) | (a < lo) | (b > hi))
        if bad.size == 0:
            return None
        i = bad[0]
        a, b = runs[i].tolist()
        if a >= b:
            return i, f"run [{a}, {b}) is empty"
        return i, f"run [{a}, {b}) leaves {window}"

    runs = lines.rows(check)
    np.add.at(cover, runs[:, 0] - lo, np.int32(1))
    np.add.at(cover, runs[:, 1] - lo, np.int32(-1))
    np.cumsum(cover, out=cover)
    return WindowSet1D._adopt(lo, hi, cover[:-1] > 0)
