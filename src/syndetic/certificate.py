"""Certificate data model, bit-exact serialization, and an independent
verifier.

A certificate transcribes one run of the construction pipeline.  Every
claim it carries is recomputable from the serialized input set alone, and
``verify_fg`` does exactly that: it re-derives each claim from first
principles using only the window-set primitives and a local van der
Waerden recomputation.  It never calls into the pipeline module.  The
pair box's progression pairs come from one probe of its feasible block,
refused over ``PAIR_BOX_CELLS`` cells: more than ``construct`` emits.

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

``serialize`` and ``parse`` both walk ``_LAYOUT``, the one statement of
the key order and of each integer key's field and least value.  ``parse``
reads the document through ``textio.Lines``, the one line reader, and
states the ``pt`` rules once, as a check on the block's rows: inside the
``window2d`` box and strictly increasing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .textio import Lines, allocate, dump_rows, dump_window1d
from .vdw import search_exceeds, vdw_number
from .windows import (
    PAIR_BOX_CELLS,
    Scale,
    WindowError,
    WindowSet1D,
    WindowSet2D,
    block_rows,
    box_mask,
    check_window,
    feasible_block,
    first_member,
    fits_int64,
    is_ps_at_scale,
    progressions_in,
    ps_scale_2d,
    shifted_union_1d,
)

__all__ = [
    "VERSION_TAG",
    "CertificateError",
    "CertificateParseError",
    "DigestMismatchError",
    "FgCertificate",
    "RefusalError",
    "Verdict",
    "set_digest",
    "serialize",
    "parse",
    "verify_fg",
]

VERSION_TAG = "syndetic-0.1.0"

HEADER = "fgcert v1"

# The document after its header, in order: each section line and its keys.
# An integer key is (key, field, floor): one integer that fills that
# FgCertificate field and may not be less than floor.  The walks of
# serialize and parse treat each other key by name.
_LAYOUT = (
    ("input", ("window1d", "digest")),
    (
        "params",
        (("r", "radius", 1), ("k", "steps", 1), ("r2d", "radius_2d", 1), "version"),
    ),
    ("vdw", (("span", "span", 1), "exhaustive")),
    (
        "triple",
        (("offset", "offset", 0), ("stride", "stride", 1), ("shift", "shift", 1)),
    ),
    ("mtilde", ("window2d",)),
    (
        "claims",
        (
            "pair_box",
            ("pair_count", "pair_count", 0),
            ("class_count", "class_count", 0),
            ("scale_in", "length_in", 1),
            ("scale_out", "length_out", 0),
        ),
    ),
)


class CertificateError(ValueError):
    pass


class CertificateParseError(CertificateError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class RefusalError(CertificateError):
    """The verifier declines to judge: a refusal, not a fail verdict."""


class DigestMismatchError(RefusalError):
    """The certificate does not bind to the given input set."""


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
    named = {
        "window1d": (cert.lo, cert.hi),
        "digest": (f"sha256:{cert.digest}",),
        "version": (cert.version,),
        "exhaustive": (int(cert.span_exhaustive),),
        "window2d": cert.ap_pairs.box,
        "pair_box": cert.pair_box,
    }
    out = [f"{HEADER}\n"]
    for section, keys in _LAYOUT:
        out.append(f"{section}\n")
        for key in keys:
            if isinstance(key, tuple):
                key, field, _ = key
                values = (getattr(cert, field),)
            else:
                values = named[key]
            out.append(" ".join(map(str, (key, *values))) + "\n")
            if key == "window2d":
                pts = cert.ap_pairs.points()
                out.append(dump_rows("pt", pts[:, 0], pts[:, 1]))
    return "".join(out)


def parse(text: str) -> FgCertificate:
    """Exact inverse of serialize; rejects unknown keys, missing fields,
    reordered fields, malformed integers and values out of range, naming
    the line."""
    r = Lines(text, CertificateParseError, "pt", 2, "claims")

    def fault(message: str) -> CertificateParseError:
        return CertificateParseError(r.lastline, message)

    r.literal(HEADER)
    fields = {}
    for section, keys in _LAYOUT:
        r.literal(section)
        for key in keys:
            if isinstance(key, tuple):
                key, field, floor = key
                (fields[field],) = r.keyed_ints(key, 1)
                if fields[field] < floor:
                    raise fault(f"{key} must be >= {floor}")
            elif key == "window1d":
                try:
                    fields["lo"], fields["hi"] = check_window(*r.keyed_ints(key, 2))
                except WindowError as exc:
                    raise fault(str(exc)) from None
            elif key == "digest":
                (digest,) = r.keyed(key, 1)
                if not digest.startswith("sha256:"):
                    raise fault("digest must start with sha256:")
                fields["digest"] = digest = digest[len("sha256:"):]
                if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
                    raise fault("digest is not 64 hex digits")
            elif key == "version":
                (fields["version"],) = r.keyed(key, 1)
            elif key == "exhaustive":
                (exh,) = r.keyed_ints(key, 1)
                if exh not in (0, 1):
                    raise fault("exhaustive must be 0 or 1")
                fields["span_exhaustive"] = bool(exh)
            elif key == "window2d":
                fields["ap_pairs"] = _read_pairs(r)
            else:
                fields["pair_box"] = box = tuple(r.keyed_ints(key, 4))
                if box[0] >= box[1] or box[2] >= box[3]:
                    raise fault("pair_box is empty")
    extra = r.peek()
    if extra is not None:
        raise CertificateParseError(extra[0], f"trailing content {extra[1]!r}")
    return FgCertificate(**fields)


def _read_pairs(r: Lines) -> WindowSet2D:
    """The ``window2d`` box and the ``pt`` block after it: every pair inside
    the box, strictly increasing."""
    bx = r.keyed_ints("window2d", 4)
    if bx[0] >= bx[1] or bx[2] >= bx[3]:
        raise CertificateParseError(r.lastline, "mtilde box is empty")
    too_wide = CertificateParseError(r.lastline, "mtilde box is too wide to allocate")
    if not fits_int64(bx[1] - bx[0], bx[3] - bx[2]):
        raise too_wide
    if not fits_int64(*bx):
        raise CertificateParseError(r.lastline, "mtilde box leaves the int64 range")

    def check(pts):
        x, y = pts[:, 0], pts[:, 1]
        inside = (x >= bx[0]) & (x < bx[1]) & (y >= bx[2]) & (y < bx[3])
        rising = np.ones(len(pts), dtype=bool)
        dx, dy = np.diff(x), np.diff(y)
        rising[1:] = (dx > 0) | ((dx == 0) & (dy > 0))
        bad = np.flatnonzero(~(inside & rising))
        if bad.size == 0:
            return None
        i = bad[0]
        if not inside[i]:
            return i, "pt ({}, {}) leaves the box".format(*pts[i].tolist())
        return i, "pt lines must be strictly increasing"

    rows = r.rows(check)
    mask = allocate(lambda: box_mask((bx[1] - bx[0], bx[3] - bx[2])), too_wide)
    mask[rows[:, 0] - bx[0], rows[:, 1] - bx[2]] = True
    return WindowSet2D._adopt(*bx, mask)


def _pair_block(u: WindowSet1D, box: tuple[int, int, int, int], span: int):
    """The box's ``feasible_block`` for the union u, empty if it has no
    cell, and its progression pairs: start + i*step in u for i = 0..span.
    Whatever box the certificate declares, a block over ``PAIR_BOX_CELLS``
    is refused before anything is allocated."""
    coefs = range(span + 1)
    xa, xb, ya, yb = block = feasible_block((u.lo, u.hi), box, coefs, 0) or (0, 0, 0, 0)
    area = (xb - xa) * (yb - ya)
    if area > PAIR_BOX_CELLS:
        raise RefusalError(
            f"the pair box's feasible block has {area} cells, "
            f"over the {PAIR_BOX_CELLS} the verifier probes"
        )
    return block, progressions_in(u, block, coefs)


def verify_fg(
    cert: FgCertificate, s: WindowSet1D, *, vdw_budget: int = 5_000_000
) -> Verdict:
    """Re-derive every claim of the certificate from the input set alone.

    Claims are checked in a fixed order, one stream of (claim, detail)
    pairs from ``_claims``, and the verdict names the first violation:

    1. input_scale   -- the input is piecewise syndetic at (r, scale_in)
    2. ap_membership -- every pair (a, d) satisfies a + i*d in S, i <= k
    3. output_scale  -- the pair set achieves scale_out at radius r2d
    4. vdw_witness   -- span matches a local recomputation (advisory when
                        either side is non-exhaustive; not run when it
                        surely needs more than vdw_budget nodes)
    5. triple_range  -- the triple lies in its declared ranges
    6. pair_preimage -- every pair pulls back through the affine map to a
                        progression pair over the declared box
    7. pair_count    -- brute recount over the box matches
    8. class_count   -- the pair set's cardinality matches

    Two refusals raise instead of returning a verdict.  A digest or window
    mismatch raises DigestMismatchError before claim 1.  A pair box whose
    feasible block is over ``PAIR_BOX_CELLS`` cells raises RefusalError,
    its base, once claim 6 has checked every pair's stride and placed every
    preimage in the box, and before claim 6 checks the progression pairs.
    """
    if (cert.lo, cert.hi) != (s.lo, s.hi):
        raise DigestMismatchError(
            f"certificate window [{cert.lo}, {cert.hi}) does not match input "
            f"[{s.lo}, {s.hi})"
        )
    if cert.digest != set_digest(s):
        raise DigestMismatchError("certificate digest does not match input set")
    notes: list[str] = []
    for claim, detail in _claims(cert, s, vdw_budget, notes):
        if detail is not None:
            return Verdict(False, claim, detail, tuple(notes))
    return Verdict(passed=True, notes=tuple(notes))


def _claims(cert: FgCertificate, s: WindowSet1D, vdw_budget: int, notes: list[str]):
    """The claims of ``verify_fg`` in its order, as (claim, detail) pairs
    whose detail is None when the claim holds.  Each claim ends with one
    pair, and a claim with several checks also yields at each earlier one
    that fails.  The caller stops at the first detail, so a claim may rely
    on every claim before it: claim 6 divides by the stride that claim 5
    checked.  Notes are appended to ``notes`` as they arise."""
    witness = is_ps_at_scale(s, Scale(cert.radius, cert.length_in))
    detail = f"no run of length {cert.length_in} at radius {cert.radius}"
    yield "input_scale", detail if witness is None else None

    pairs = cert.ap_pairs
    if pairs.is_empty():
        yield "ap_membership", "certificate carries no pairs"
    ok = progressions_in(s, pairs.box, range(cert.steps + 1))
    hit = first_member(pairs.box, pairs.mask & ~ok)
    yield "ap_membership", (
        None if hit is None else "pair ({}, {}) leaves the set".format(*hit)
    )

    achieved = ps_scale_2d(pairs, cert.radius_2d)
    detail = f"claimed {cert.length_out}, recomputed {achieved}"
    yield "output_scale", detail if achieved < cert.length_out else None

    detail = None
    if cert.span_exhaustive:
        n = None
        if cert.radius == 1 and vdw_budget >= 1:
            # W(1, k + 1) = k + 1, with no coloring of k positions built; a
            # budget below 1 still goes to vdw_number, which refuses it
            n = cert.steps + 1
        elif not search_exceeds(cert.radius, cert.steps + 1, vdw_budget):
            res = vdw_number(cert.radius, cert.steps + 1, vdw_budget)
            n = res.n if res.exhaustive else None
        if n is None:
            notes.append(
                f"vdw recomputation exhausted {vdw_budget} nodes; span unchecked"
            )
        elif n - 1 != cert.span:
            detail = f"claimed span {cert.span}, recomputed {n - 1}"
    else:
        notes.append("span declared non-exhaustive; treated as advisory")
    yield "vdw_witness", detail

    in_range = (
        1 <= cert.shift <= cert.radius
        and cert.stride >= 1
        and cert.offset >= 0
        and cert.offset + cert.steps * cert.stride <= cert.span
    )
    triple = f"(offset={cert.offset}, stride={cert.stride}, shift={cert.shift})"
    yield "triple_range", None if in_range else f"triple {triple} leaves its ranges"

    u = shifted_union_1d(s, cert.radius)
    # failures are named in pt order, which is row-major order on the mask;
    # the columns whose step is a multiple of stride are every stride-th
    # one from `first` (a stride past the box leaves at most one)
    x_lo, x_hi, y_lo, y_hi = pairs.box
    first = min((-y_lo) % cert.stride, y_hi - y_lo)
    every = min(cert.stride, y_hi - y_lo)
    off_stride = np.ones(y_hi - y_lo, dtype=bool)
    off_stride[first::every] = False
    hit = first_member(pairs.box, pairs.mask & off_stride) if off_stride.any() else None
    if hit is not None:
        detail = f"pair step {hit[1]} is not a multiple of stride {cert.stride}"
        yield "pair_preimage", detail
    # on those columns, as preimage steps p, a pair (x, stride*p) pulls
    # back to (x - d, p) with d = offset*p + shift, whose start is the one
    # term c = -offset of the progression x - shift + c*p
    cols = pairs.mask[:, first::every]
    p_lo = (y_lo + first) // cert.stride
    pre = (x_lo, x_hi, p_lo, p_lo + cols.shape[1])
    term = range(-cert.offset, 1 - cert.offset)

    def unpulled(ok, why):
        # the first pair whose preimage is not marked in ok, and why
        hit = first_member(pre, cols & ~ok)
        if hit is not None:
            start = hit[0] - cert.offset * hit[1] - cert.shift
            return f"preimage ({start}, {hit[1]}) {why}"

    # one walk over the preimage rows marks the preimages in the pair box,
    # and keeps each row for the progression-pair check, which may only
    # clip the box once that check has passed
    bx_lo, bx_hi, by_lo, by_hi = cert.pair_box
    ys = (max(p_lo, by_lo), min(pre[3], by_hi))
    inbox, rows = box_mask(cols.shape), []
    for p, a, b in block_rows((bx_lo, bx_hi), (x_lo, x_hi, *ys), term, -cert.shift):
        inbox[a - x_lo : b - x_lo, p - p_lo] = True
        rows.append((p, a, b))
    pulled = unpulled(inbox, "leaves the pair box")
    if pulled is not None:
        yield "pair_preimage", pulled
    (xa, xb, ya, yb), found = _pair_block(u, cert.pair_box, cert.span)
    paired = box_mask(cols.shape)
    for p, a, b in rows:
        d = cert.offset * p + cert.shift
        a, b = max(a, xa + d), min(b, xb + d)
        if ya <= p < yb and a < b:
            paired[a - x_lo : b - x_lo, p - p_lo] = found[a - d - xa : b - d - xa, p - ya]
    yield "pair_preimage", unpulled(paired, "is not a progression pair")

    recount = int(np.count_nonzero(found))
    detail = f"claimed {cert.pair_count}, recounted {recount}"
    yield "pair_count", detail if recount != cert.pair_count else None

    detail = f"claimed {cert.class_count}, certificate carries {pairs.count} pairs"
    yield "class_count", detail if pairs.count != cert.class_count else None
