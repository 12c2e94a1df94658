"""Certificate data model, bit-exact serialization, and an independent
verifier.

A certificate transcribes one run of the construction pipeline.  Every
claim it carries is recomputable from the serialized input set alone, and
``verify_fg`` does exactly that: it re-derives each claim from first
principles using only the window-set primitives and a local van der
Waerden recomputation.  It never calls into the pipeline module.

Document grammar (strict order, decimal integers, ``#`` lines ignored)::

    fgcert v1
    input
    window1d <lo> <hi>
    digest sha256:<hex>
    params
    r <radius>
    k <steps>
    r2d <radius_2d>
    version <tag>
    vdw
    span <span>
    exhaustive <0|1>
    triple
    offset <offset>
    stride <stride>
    shift <shift>
    mtilde
    window2d <x_lo> <x_hi> <y_lo> <y_hi>
    pt <x> <y>            # zero or more, strictly increasing (x, y)
    claims
    pair_box <x_lo> <x_hi> <y_lo> <y_hi>
    pair_count <n>
    class_count <n>
    scale_in <length>
    scale_out <length>

The input digest is sha256 over the canonical text serialization of the
input set (header plus maximal runs), which binds the certificate to the
set without embedding it twice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .textio import canonical_int, dump_window1d, significant_lines, writer_rows
from .vdw import vdw_number
from .windows import (
    Scale,
    WindowSet1D,
    WindowSet2D,
    is_ps_at_scale,
    ps_scale_2d,
    shifted_union_1d,
)

__all__ = [
    "VERSION_TAG",
    "CertificateError",
    "CertificateParseError",
    "DigestMismatchError",
    "FgCertificate",
    "Verdict",
    "set_digest",
    "serialize",
    "parse",
    "verify_fg",
]

VERSION_TAG = "syndetic-0.1.0"

HEADER = "fgcert v1"


class CertificateError(ValueError):
    pass


class CertificateParseError(CertificateError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DigestMismatchError(CertificateError):
    """The certificate does not bind to the given input set.  This is a
    refusal to judge, not a fail verdict."""


@dataclass(frozen=True)
class FgCertificate:
    """Transcript of one pipeline run; see the module docstring for the
    wire format."""

    lo: int
    hi: int
    digest: str
    radius: int
    steps: int
    radius_2d: int
    version: str
    span: int
    span_exhaustive: bool
    offset: int
    stride: int
    shift: int
    pair_box: tuple[int, int, int, int]
    pair_count: int
    class_count: int
    ap_pairs: WindowSet2D
    length_in: int
    length_out: int

    def with_field(self, **kwargs) -> "FgCertificate":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class Verdict:
    passed: bool
    failed_claim: str | None = None
    detail: str = ""
    notes: tuple[str, ...] = ()


def set_digest(s: WindowSet1D) -> str:
    return hashlib.sha256(dump_window1d(s).encode("ascii")).hexdigest()


def serialize(cert: FgCertificate) -> str:
    pts = cert.ap_pairs.points()
    lines = [
        HEADER,
        "input",
        f"window1d {cert.lo} {cert.hi}",
        f"digest sha256:{cert.digest}",
        "params",
        f"r {cert.radius}",
        f"k {cert.steps}",
        f"r2d {cert.radius_2d}",
        f"version {cert.version}",
        "vdw",
        f"span {cert.span}",
        f"exhaustive {int(cert.span_exhaustive)}",
        "triple",
        f"offset {cert.offset}",
        f"stride {cert.stride}",
        f"shift {cert.shift}",
        "mtilde",
        "window2d {} {} {} {}".format(*cert.ap_pairs.box),
    ]
    lines.extend(f"pt {x} {y}" for x, y in pts.tolist())
    lines.append("claims")
    lines.append("pair_box {} {} {} {}".format(*cert.pair_box))
    lines.append(f"pair_count {cert.pair_count}")
    lines.append(f"class_count {cert.class_count}")
    lines.append(f"scale_in {cert.length_in}")
    lines.append(f"scale_out {cert.length_out}")
    return "\n".join(lines) + "\n"


_PT_BLOCK = object()


class _Reader:
    """The significant lines of a certificate, in order.  A ``pt`` block in
    writer form stands in ``lines`` as one placeholder holding its rows
    (``pt_rows``); any other read expands it into its lines first."""

    def __init__(self, text: str):
        self.pos = 0
        # a writer-form block: from the first line starting "pt " up to the
        # first "claims" line after it, every line in writer form
        start = text.find("\npt ") + 1
        end = text.find("\nclaims\n", start) + 1 if start else 0
        self.block = text[start:end]
        self.pts = writer_rows(self.block, "pt", 2) if end else None
        if self.pts is None:
            self.lines = list(significant_lines(text))
            return
        head = text[:start]
        first = len(head.splitlines()) + 1
        after = first + self.pts.shape[0] - 1
        self.lines = [
            *significant_lines(head),
            (first, _PT_BLOCK),
            *((n + after, line) for n, line in significant_lines(text[end:])),
        ]

    def peek(self) -> tuple[int, str] | None:
        if self.pos >= len(self.lines):
            return None
        first, item = self.lines[self.pos]
        if item is _PT_BLOCK:
            self.lines[self.pos : self.pos + 1] = [
                (n + first - 1, line) for n, line in significant_lines(self.block)
            ]
        return self.lines[self.pos]

    def pt_rows(self) -> np.ndarray | None:
        """The rows of the writer-form pt block if it is next, else None."""
        if self.pos < len(self.lines) and self.lines[self.pos][1] is _PT_BLOCK:
            return self.pts
        return None

    def next(self, what: str) -> tuple[int, str]:
        item = self.peek()
        if item is None:
            last = self.lines[-1][0] if self.lines else 0
            raise CertificateParseError(last, f"unexpected end of document, wanted {what}")
        self.pos += 1
        return item

    def literal(self, expected: str) -> None:
        lineno, line = self.next(expected)
        if line != expected:
            raise CertificateParseError(lineno, f"expected {expected!r}, got {line!r}")

    def keyed(self, key: str, nfields: int) -> list[str]:
        lineno, line = self.next(f"{key} line")
        tok = line.split()
        if tok[0] != key:
            raise CertificateParseError(lineno, f"expected key {key!r}, got {tok[0]!r}")
        if len(tok) - 1 != nfields:
            raise CertificateParseError(
                lineno, f"{key} expects {nfields} fields, got {len(tok) - 1}"
            )
        self.lastline = lineno
        return tok[1:]

    def keyed_ints(self, key: str, nfields: int) -> list[int]:
        fields = self.keyed(key, nfields)
        out = []
        for f in fields:
            try:
                out.append(canonical_int(f))
            except ValueError:
                raise CertificateParseError(
                    self.lastline, f"malformed integer {f!r} in {key}"
                ) from None
        return out


def _rows_fit(rows: np.ndarray, bx: list[int]) -> bool:
    """Every row lies in the box and the rows strictly increase as (x, y)."""
    x, y = rows[:, 0], rows[:, 1]
    dx, dy = np.diff(x), np.diff(y)
    return bool(
        ((x >= bx[0]) & (x < bx[1]) & (y >= bx[2]) & (y < bx[3])).all()
        and ((dx > 0) | ((dx == 0) & (dy > 0))).all()
    )


def _read_pts(r: _Reader, bx: list[int]) -> list[tuple[int, int]]:
    pts: list[tuple[int, int]] = []
    while True:
        item = r.peek()
        if item is None:
            raise CertificateParseError(
                r.lines[-1][0], "unexpected end of document inside mtilde"
            )
        if item[1] == "claims":
            return pts
        x, y = r.keyed_ints("pt", 2)
        if not (bx[0] <= x < bx[1] and bx[2] <= y < bx[3]):
            raise CertificateParseError(r.lastline, f"pt ({x}, {y}) leaves the box")
        if pts and (x, y) <= pts[-1]:
            raise CertificateParseError(
                r.lastline, "pt lines must be strictly increasing"
            )
        pts.append((x, y))


def parse(text: str) -> FgCertificate:
    """Exact inverse of serialize; rejects unknown keys, missing fields,
    reordered fields, and malformed integers, naming the line."""
    r = _Reader(text)
    if r.peek() is None:
        raise CertificateParseError(0, "empty document")
    r.literal(HEADER)
    r.literal("input")
    lo, hi = r.keyed_ints("window1d", 2)
    if lo >= hi:
        raise CertificateParseError(r.lastline, f"window [{lo}, {hi}) is empty")
    (digest_field,) = r.keyed("digest", 1)
    if not digest_field.startswith("sha256:"):
        raise CertificateParseError(r.lastline, "digest must start with sha256:")
    digest = digest_field[len("sha256:"):]
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        raise CertificateParseError(r.lastline, "digest is not 64 hex digits")
    r.literal("params")
    (radius,) = r.keyed_ints("r", 1)
    (steps,) = r.keyed_ints("k", 1)
    (radius_2d,) = r.keyed_ints("r2d", 1)
    if radius < 1 or steps < 1 or radius_2d < 1:
        raise CertificateParseError(r.lastline, "r, k, r2d must all be >= 1")
    (version,) = r.keyed("version", 1)
    r.literal("vdw")
    (span,) = r.keyed_ints("span", 1)
    if span < 1:
        raise CertificateParseError(r.lastline, "span must be >= 1")
    (exh,) = r.keyed_ints("exhaustive", 1)
    if exh not in (0, 1):
        raise CertificateParseError(r.lastline, "exhaustive must be 0 or 1")
    r.literal("triple")
    (offset,) = r.keyed_ints("offset", 1)
    (stride,) = r.keyed_ints("stride", 1)
    (shift,) = r.keyed_ints("shift", 1)
    if offset < 0 or stride < 1 or shift < 1:
        raise CertificateParseError(
            r.lastline, "triple needs offset >= 0, stride >= 1, shift >= 1"
        )
    r.literal("mtilde")
    bx = r.keyed_ints("window2d", 4)
    if bx[0] >= bx[1] or bx[2] >= bx[3]:
        raise CertificateParseError(r.lastline, "mtilde box is empty")
    rows = r.pt_rows()
    if rows is not None and _rows_fit(rows, bx):
        r.pos += 1
        ap_pairs = WindowSet2D.from_arrays(*bx, rows[:, 0], rows[:, 1])
    else:
        pts = _read_pts(r, bx)
        if rows is not None:
            raise RuntimeError("bulk pt check rejected a block the line loop accepts")
        ap_pairs = WindowSet2D.from_points(*bx, pts)
    r.literal("claims")
    pair_box = tuple(r.keyed_ints("pair_box", 4))
    if pair_box[0] >= pair_box[1] or pair_box[2] >= pair_box[3]:
        raise CertificateParseError(r.lastline, "pair_box is empty")
    (pair_count,) = r.keyed_ints("pair_count", 1)
    (class_count,) = r.keyed_ints("class_count", 1)
    if pair_count < 0 or class_count < 0:
        raise CertificateParseError(r.lastline, "counts must be >= 0")
    (length_in,) = r.keyed_ints("scale_in", 1)
    (length_out,) = r.keyed_ints("scale_out", 1)
    if length_in < 1 or length_out < 0:
        raise CertificateParseError(
            r.lastline, "scale_in must be >= 1 and scale_out >= 0"
        )
    extra = r.peek()
    if extra is not None:
        raise CertificateParseError(extra[0], f"trailing content {extra[1]!r}")
    return FgCertificate(
        lo=lo,
        hi=hi,
        digest=digest,
        radius=radius,
        steps=steps,
        radius_2d=radius_2d,
        version=version,
        span=span,
        span_exhaustive=bool(exh),
        offset=offset,
        stride=stride,
        shift=shift,
        pair_box=pair_box,
        pair_count=pair_count,
        class_count=class_count,
        ap_pairs=ap_pairs,
        length_in=length_in,
        length_out=length_out,
    )


def _fail(claim: str, detail: str, notes: list[str]) -> Verdict:
    return Verdict(passed=False, failed_claim=claim, detail=detail, notes=tuple(notes))


def _recount_pairs(u: WindowSet1D, box: tuple[int, int, int, int], span: int) -> int:
    """Brute recount of progression pairs over the box, straight from the
    definition: start + i*step must be a union member for i = 0..span."""
    x_lo, x_hi, y_lo, y_hi = box
    starts = np.arange(x_lo, x_hi, dtype=np.int64)
    total = 0
    for step in range(y_lo, y_hi):
        ok = np.ones(starts.shape, dtype=bool)
        for i in range(span + 1):
            ok &= u.members_at(starts + i * step, outside="false")
            if not ok.any():
                break
        total += int(ok.sum())
    return total


def verify_fg(
    cert: FgCertificate, s: WindowSet1D, *, vdw_budget: int = 5_000_000
) -> Verdict:
    """Re-derive every claim of the certificate from the input set alone.

    Claims are checked in a fixed order and the verdict names the first
    violation:

    1. input_scale   -- the input is piecewise syndetic at (r, scale_in)
    2. ap_membership -- every pair (a, d) satisfies a + i*d in S, i <= k
    3. output_scale  -- the pair set achieves scale_out at radius r2d
    4. vdw_witness   -- span matches a local recomputation (advisory when
                        either side is non-exhaustive)
    5. triple_range  -- the triple lies in its declared ranges
    6. pair_preimage -- every pair pulls back through the affine map to a
                        progression pair over the declared box
    7. pair_count    -- brute recount over the box matches
    8. class_count   -- the pair set's cardinality matches

    A digest or window mismatch raises DigestMismatchError instead of
    returning a verdict.
    """
    if (cert.lo, cert.hi) != (s.lo, s.hi):
        raise DigestMismatchError(
            f"certificate window [{cert.lo}, {cert.hi}) does not match input "
            f"[{s.lo}, {s.hi})"
        )
    if cert.digest != set_digest(s):
        raise DigestMismatchError("certificate digest does not match input set")
    notes: list[str] = []

    if is_ps_at_scale(s, Scale(cert.radius, cert.length_in)) is None:
        return _fail(
            "input_scale",
            f"no run of length {cert.length_in} at radius {cert.radius}",
            notes,
        )

    pts = cert.ap_pairs.points()
    if pts.shape[0] == 0:
        return _fail("ap_membership", "certificate carries no pairs", notes)
    ok = np.ones(pts.shape[0], dtype=bool)
    for i in range(cert.steps + 1):
        ok &= s.members_at(pts[:, 0] + i * pts[:, 1], outside="false")
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        return _fail(
            "ap_membership",
            f"pair ({pts[j, 0]}, {pts[j, 1]}) leaves the set",
            notes,
        )

    achieved = ps_scale_2d(cert.ap_pairs, cert.radius_2d)
    if achieved < cert.length_out:
        return _fail(
            "output_scale",
            f"claimed {cert.length_out}, recomputed {achieved}",
            notes,
        )

    if cert.span_exhaustive:
        res = vdw_number(cert.radius, cert.steps + 1, vdw_budget)
        if res.exhaustive:
            if res.n - 1 != cert.span:
                return _fail(
                    "vdw_witness",
                    f"claimed span {cert.span}, recomputed {res.n - 1}",
                    notes,
                )
        else:
            notes.append(
                f"vdw recomputation exhausted {vdw_budget} nodes; span unchecked"
            )
    else:
        notes.append("span declared non-exhaustive; treated as advisory")

    if not (
        1 <= cert.shift <= cert.radius
        and cert.stride >= 1
        and cert.offset >= 0
        and cert.offset + cert.steps * cert.stride <= cert.span
    ):
        return _fail(
            "triple_range",
            f"triple (offset={cert.offset}, stride={cert.stride}, "
            f"shift={cert.shift}) leaves its ranges",
            notes,
        )

    u = shifted_union_1d(s, cert.radius)
    if (pts[:, 1] % cert.stride != 0).any():
        j = int(np.flatnonzero(pts[:, 1] % cert.stride != 0)[0])
        return _fail(
            "pair_preimage",
            f"pair step {pts[j, 1]} is not a multiple of stride {cert.stride}",
            notes,
        )
    pre_step = pts[:, 1] // cert.stride
    pre_start = pts[:, 0] - cert.offset * pre_step - cert.shift
    bx = cert.pair_box
    in_box = (
        (pre_start >= bx[0])
        & (pre_start < bx[1])
        & (pre_step >= bx[2])
        & (pre_step < bx[3])
    )
    if not in_box.all():
        j = int(np.flatnonzero(~in_box)[0])
        return _fail(
            "pair_preimage",
            f"preimage ({pre_start[j]}, {pre_step[j]}) leaves the pair box",
            notes,
        )
    ok = np.ones(pts.shape[0], dtype=bool)
    for i in range(cert.span + 1):
        ok &= u.members_at(pre_start + i * pre_step, outside="false")
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        return _fail(
            "pair_preimage",
            f"preimage ({pre_start[j]}, {pre_step[j]}) is not a progression pair",
            notes,
        )

    recount = _recount_pairs(u, cert.pair_box, cert.span)
    if recount != cert.pair_count:
        return _fail(
            "pair_count", f"claimed {cert.pair_count}, recounted {recount}", notes
        )

    if cert.ap_pairs.count != cert.class_count:
        return _fail(
            "class_count",
            f"claimed {cert.class_count}, certificate carries "
            f"{cert.ap_pairs.count} pairs",
            notes,
        )

    return Verdict(passed=True, notes=tuple(notes))
