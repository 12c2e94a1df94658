import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import naive
from syndetic import certificate
from syndetic.certificate import (
    CertificateParseError,
    DigestMismatchError,
    FgCertificate,
    RefusalError,
    Verdict,
    parse,
    serialize,
    set_digest,
    verify_fg,
    _pair_block,
)
from syndetic.generators import periodic_set, striped_set
from syndetic.pipeline import fg_construct
from syndetic.windows import WindowSet1D, WindowSet2D, progressions_in, shifted_union_1d

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def striped_input():
    return striped_set((0, 120), 5, 2)


@pytest.fixture(scope="module")
def striped_cert(striped_input):
    return fg_construct(striped_input, 2, 2)


class TestSerializeParse:
    def test_round_trip(self, striped_cert):
        assert parse(serialize(striped_cert)) == striped_cert

    def test_bytes_are_deterministic(self, striped_cert):
        assert serialize(striped_cert) == serialize(striped_cert)

    def test_golden_file_parses_and_matches_pipeline(self, striped_input, striped_cert):
        golden = (DATA / "striped_5_2_w120.fgcert").read_text()
        assert parse(golden) == striped_cert
        assert serialize(striped_cert) == golden

    def test_parse_adopts_the_mtilde_mask(self):
        # the r = k = 2 certificate of a striped set with window2d widened
        # to 2000 x 2000 cells: parse holds one mask of the box, not two
        cert = fg_construct(striped_set((0, 200), 5, 2), 2, 2)
        lines = serialize(cert).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("window2d "))
        _, x_lo, _, y_lo, _ = lines[at].split()
        lines[at] = f"window2d {x_lo} {int(x_lo) + 2000} {y_lo} {int(y_lo) + 2000}"
        text = "\n".join(lines) + "\n"
        tracemalloc.start()
        try:
            mask = parse(text).ap_pairs.mask
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.shape == (2000, 2000) and mask.sum() == cert.ap_pairs.count
        assert mask.flags.f_contiguous and not mask.flags.writeable
        assert peak < 1.5 * mask.nbytes

    def test_empty_document(self):
        with pytest.raises(CertificateParseError, match="empty document"):
            parse("")

    def test_corrupted_line_names_line_number(self, striped_cert):
        lines = serialize(striped_cert).splitlines()
        lines[5] = "radius 2"
        with pytest.raises(CertificateParseError) as err:
            parse("\n".join(lines) + "\n")
        assert err.value.lineno == 6

    def test_field_reordering_rejected(self, striped_cert):
        lines = serialize(striped_cert).splitlines()
        lines[5], lines[6] = lines[6], lines[5]
        with pytest.raises(CertificateParseError):
            parse("\n".join(lines) + "\n")

    def test_malformed_integer_rejected(self, striped_cert):
        # int() accepts all but the first spelling; only canonical ones parse
        good = serialize(striped_cert)
        for old, new in [
            ("\nspan 8\n", "\nspan eight\n"),
            ("\nr 2\n", "\nr \u0662\n"),
            ("\nr 2\n", "\nr 0_2\n"),
            ("\nr 2\n", "\nr +2\n"),
            ("\nr 2\n", "\nr 02\n"),
            ("\npt 0 0\n", "\npt -0 0\n"),
            ("\npair_count 1352\n", "\npair_count 1_352\n"),
        ]:
            doc = good.replace(old, new)
            assert doc != good
            with pytest.raises(CertificateParseError, match="malformed integer"):
                parse(doc)

    @pytest.mark.parametrize("x_hi", [10**18, 10**20])
    @pytest.mark.parametrize("tail", ["\n", "\t\n"])
    def test_mtilde_box_too_wide_to_allocate(self, striped_cert, x_hi, tail):
        # a writer-form pt block is read in bulk; a tab at each line end
        # forces the line loop
        lines = serialize(striped_cert).splitlines()
        at = lines.index("mtilde") + 1
        fields = lines[at].split()
        fields[2] = str(x_hi)
        lines[at] = " ".join(fields)
        with pytest.raises(CertificateParseError) as err:
            parse(tail.join(lines) + tail)
        assert str(err.value) == f"line {at + 1}: mtilde box is too wide to allocate"

    @pytest.mark.parametrize(
        "header,pt",
        [
            ("window2d 10000000000000000000 10000000000000000003 0 3",
             "pt 10000000000000000001 1"),
            ("window2d 0 3 -9223372036854775809 -9223372036854775806",
             "pt 1 -9223372036854775808"),
            ("window2d 9223372036854775805 9223372036854775808 0 1",
             "pt 9223372036854775806 0"),
        ],
    )
    def test_mtilde_box_outside_int64(self, striped_cert, header, pt):
        # a pt beyond int64 has 19 or more digits, so the line loop reads it
        lines = serialize(striped_cert).splitlines()
        at = lines.index("mtilde") + 1
        lines[at : lines.index("claims")] = [header, pt]
        with pytest.raises(CertificateParseError) as err:
            parse("\n".join(lines) + "\n")
        assert str(err.value) == f"line {at + 1}: mtilde box leaves the int64 range"

    def test_unknown_key_rejected(self, striped_cert):
        doc = serialize(striped_cert).replace("pair_count", "pair_total")
        with pytest.raises(CertificateParseError):
            parse(doc)

    def test_truncated_document_rejected(self, striped_cert):
        lines = serialize(striped_cert).splitlines()
        with pytest.raises(CertificateParseError, match="unexpected end"):
            parse("\n".join(lines[:-1]) + "\n")

    def test_trailing_content_rejected(self, striped_cert):
        with pytest.raises(CertificateParseError, match="trailing"):
            parse(serialize(striped_cert) + "extra 1\n")

    def test_unsorted_points_rejected(self, striped_cert):
        lines = serialize(striped_cert).splitlines()
        first = lines.index("mtilde") + 2
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        with pytest.raises(CertificateParseError, match="strictly increasing"):
            parse("\n".join(lines) + "\n")

    def test_comments_ignored_but_counted(self, striped_cert):
        doc = "# produced by a run\n" + serialize(striped_cert)
        assert parse(doc) == striped_cert

    @pytest.mark.parametrize(
        "key,value,message",
        [
            (key, floor - 1, f"{key} must be >= {floor}")
            for key, floor in [
                ("r", 1), ("k", 1), ("r2d", 1), ("span", 1),
                ("offset", 0), ("stride", 1), ("shift", 1),
                ("pair_count", 0), ("class_count", 0), ("scale_in", 1), ("scale_out", 0),
            ]
        ]
        + [("exhaustive", 2, "exhaustive must be 0 or 1")],
    )
    def test_value_out_of_range_names_its_own_line(self, striped_cert, key, value, message):
        lines = serialize(striped_cert).splitlines()
        at = next(i for i, line in enumerate(lines) if line.split()[0] == key)
        lines[at] = f"{key} {value}"
        with pytest.raises(CertificateParseError) as err:
            parse("\n".join(lines) + "\n")
        assert err.value.lineno == at + 1
        assert str(err.value) == f"line {at + 1}: {message}"

    @pytest.mark.parametrize(
        "window,message",
        [
            ("0 100000000000000000000",
             "window [0, 100000000000000000000) leaves the int64 range"),
            ("5 5", "window [5, 5) is empty"),
        ],
    )
    def test_window_follows_the_set_header_rule(self, striped_cert, window, message):
        lines = serialize(striped_cert).splitlines()
        lines[2] = f"window1d {window}"
        with pytest.raises(CertificateParseError) as err:
            parse("\n".join(lines) + "\n")
        assert str(err.value) == f"line 3: {message}"

    @given(st.data())
    def test_round_trip_at_the_extremes(self, data):
        # every integer at its floor or far past int64, and every bound at
        # either end of the int64 range
        draw = data.draw

        def value(floor):
            return draw(st.sampled_from([floor, floor + 1]) | st.integers(2**64, 2**80))

        def interval(most):
            width = draw(st.integers(1, most))
            lo = draw(st.sampled_from([-(2**63), 2**63 - 1 - width]))
            return lo, lo + width

        (x_lo, x_hi), (y_lo, y_hi) = interval(6), interval(6)
        shape = (x_hi - x_lo, y_hi - y_lo)
        bits = draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
        cert = FgCertificate(
            *interval(2**64 - 1),
            digest=draw(st.text("0123456789abcdef", min_size=64, max_size=64)),
            radius=value(1),
            steps=value(1),
            radius_2d=value(1),
            version=draw(st.text("abcxyz0123456789.-_", min_size=1, max_size=20)),
            span=value(1),
            span_exhaustive=draw(st.booleans()),
            offset=value(0),
            stride=value(1),
            shift=value(1),
            pair_box=(*interval(2**64 - 1), *interval(2**64 - 1)),
            pair_count=value(0),
            class_count=value(0),
            ap_pairs=WindowSet2D(x_lo, x_hi, y_lo, y_hi, np.reshape(bits, shape)),
            length_in=value(1),
            length_out=value(0),
        )
        doc = serialize(cert)
        assert parse(doc) == cert
        assert serialize(parse(doc)) == doc

    def test_documented_grammars_match_the_writer(self, striped_cert):
        # the README block and the module docstring list the keys serialize
        # writes, in its order, with the pt block as one line
        import syndetic.certificate as certificate

        def keys(block):
            firsts = [line.split()[0] for line in block.splitlines() if line.strip()]
            return [k for k, prev in zip(firsts, [None, *firsts]) if not k == prev == "pt"]

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme[readme.index("```\nfgcert v1\n") + 4 :]
        grammar = certificate.__doc__[certificate.__doc__.index("::\n\n") + 4 :]
        written = keys(serialize(striped_cert))
        assert written.count("pt") == 1
        assert keys(block[: block.index("```")]) == written
        assert keys(grammar[: grammar.index("\n\n")]) == written


class TestVerify:
    def test_pipeline_certificate_passes(self, striped_cert, striped_input):
        verdict = verify_fg(striped_cert, striped_input)
        assert verdict.passed
        assert verdict.failed_claim is None

    def test_periodic_certificate_passes(self):
        s = periodic_set((0, 300), 3, [0, 1])
        cert = fg_construct(s, 2, 2)
        assert verify_fg(cert, s).passed

    def test_perturbed_point_fails_membership(self, striped_cert, striped_input):
        pts = [tuple(p) for p in striped_cert.ap_pairs.points().tolist()]
        s = striped_input
        idx = next(
            i
            for i, (a, d) in enumerate(pts)
            if any(
                not (s.lo <= a + 1 + j * d < s.hi and s.contains(a + 1 + j * d))
                for j in range(striped_cert.steps + 1)
            )
        )
        pts[idx] = (pts[idx][0] + 1, pts[idx][1])
        box = striped_cert.ap_pairs.box
        moved = WindowSet2D(*naive.points_in_box(
            box[0], max(box[1], pts[idx][0] + 1), box[2], box[3], set(pts)
        ))
        bad = striped_cert.with_field(ap_pairs=moved)
        verdict = verify_fg(bad, striped_input)
        assert not verdict.passed
        assert verdict.failed_claim == "ap_membership"

    def test_inflated_output_scale_fails(self, striped_cert, striped_input):
        bad = striped_cert.with_field(length_out=striped_cert.length_out + 1)
        verdict = verify_fg(bad, striped_input)
        assert not verdict.passed
        assert verdict.failed_claim == "output_scale"

    def test_inflated_input_scale_fails(self, striped_cert, striped_input):
        bad = striped_cert.with_field(length_in=striped_cert.length_in + 1)
        verdict = verify_fg(bad, striped_input)
        assert not verdict.passed
        assert verdict.failed_claim == "input_scale"

    def test_wrong_span_fails_when_exhaustive(self, striped_cert, striped_input):
        bad = striped_cert.with_field(span=striped_cert.span + 1)
        verdict = verify_fg(bad, striped_input)
        assert not verdict.passed
        assert verdict.failed_claim == "vdw_witness"

    def test_non_exhaustive_span_is_advisory(self, striped_cert, striped_input):
        soft = striped_cert.with_field(
            span_exhaustive=False, span=striped_cert.span + 1
        )
        # a wrong span alone no longer fails claim 4, but the triple and
        # preimage claims still pin down the construction
        verdict = verify_fg(soft, striped_input)
        assert verdict.notes
        assert "advisory" in verdict.notes[0]

    def test_digest_mismatch_is_refusal(self, striped_cert):
        other = striped_set((0, 120), 5, 3)
        with pytest.raises(DigestMismatchError):
            verify_fg(striped_cert, other)

    def test_window_mismatch_is_refusal(self, striped_cert):
        other = striped_set((0, 121), 5, 2)
        with pytest.raises(DigestMismatchError):
            verify_fg(striped_cert, other)

    def test_wrong_pair_count_fails(self, striped_cert, striped_input):
        bad = striped_cert.with_field(pair_count=striped_cert.pair_count - 1)
        assert verify_fg(bad, striped_input).failed_claim == "pair_count"

    def test_wrong_class_count_fails(self, striped_cert, striped_input):
        bad = striped_cert.with_field(class_count=striped_cert.class_count + 1)
        assert verify_fg(bad, striped_input).failed_claim == "class_count"

    def test_empty_pair_set_fails_ap_membership(self, striped_cert, striped_input):
        pairs = striped_cert.ap_pairs
        empty = WindowSet2D(*pairs.box, np.zeros_like(pairs.mask))
        bad = striped_cert.with_field(ap_pairs=empty)
        want = Verdict(False, "ap_membership", "certificate carries no pairs")
        assert verify_fg(bad, striped_input) == want

    def test_preimage_left_of_the_feasible_block_is_not_a_progression_pair(self):
        # the pair (3, -1) lies in s, and its preimage (2, -1) in the pair
        # box, but row -1 keeps starts from 6 on only: its terms 2 - c for
        # c <= span leave the union's window
        s = WindowSet1D.from_members(0, 300, range(300))
        cert = fg_construct(s, 2, 2).with_field(
            ap_pairs=WindowSet2D(3, 4, -1, 0, np.ones((1, 1), bool)),
            class_count=1, length_out=1, offset=0, stride=1, shift=1, pair_box=(0, 100, -1, 0),
        )
        verdict = verify_fg(cert, s)
        assert (verdict.failed_claim, verdict.detail) == (
            "pair_preimage", "preimage (2, -1) is not a progression pair"
        )

    def test_widened_pair_box_gets_a_verdict(self, striped_cert, striped_input):
        # starts outside the union's window, and steps too long for it, hold
        # no pair; the recount skips them however wide the declared box is
        x_lo, _, y_lo, y_hi = striped_cert.pair_box
        wide = striped_cert.with_field(pair_box=(x_lo, 10**18, y_lo, y_hi))
        assert verify_fg(wide, striped_input).passed
        huge = striped_cert.with_field(
            pair_box=(-(10**20), 10**20, -(10**12), 10**12)
        )
        verdict = verify_fg(huge, striped_input)
        s, r, span = striped_input, striped_cert.radius, striped_cert.span
        reach = (s.width + r - 2) // span
        margin = (s.lo - r - 3, s.hi + 2, -reach - 3, reach + 4)
        members = set(s.members().tolist())
        hits, _ = naive.progression_pairs(members, s.lo, s.hi, r, span, margin)
        assert verdict.failed_claim == "pair_count"
        assert verdict.detail == (
            f"claimed {striped_cert.pair_count}, recounted {len(hits)}"
        )

    @pytest.mark.parametrize(
        "fields,claim",
        [
            ({"steps": 10**15}, "ap_membership"),
            ({"span": 10**15, "span_exhaustive": False}, "pair_preimage"),
        ],
    )
    def test_huge_term_count_fails_quickly(self, fields, claim):
        # at most width + 1 terms are probed: a nonzero step leaves the
        # window by then, and a zero step repeats its first term
        s = striped_set((0, 200), 5, 2)
        bad = fg_construct(s, 2, 2).with_field(**fields)
        t0 = time.perf_counter()
        verdict = verify_fg(bad, s)
        assert time.perf_counter() - t0 < 1.0
        assert verdict.failed_claim == claim

    def test_one_color_span_builds_no_coloring(self):
        # W(1, k + 1) = k + 1 is read off, so a declared k costs no memory:
        # the one-color certificate cut to its step-0 column, with k = span
        s = striped_set((0, 200), 5, 2)
        cert = fg_construct(s, 1, 1)
        pairs = cert.ap_pairs
        column = pairs.mask[:, -pairs.y_lo : 1 - pairs.y_lo]
        x_lo, x_hi = cert.pair_box[:2]
        members = shifted_union_1d(s, 1).members()
        k = 10**6
        cut = cert.with_field(
            steps=k,
            span=k,
            ap_pairs=WindowSet2D(pairs.x_lo, pairs.x_hi, 0, 1, column),
            pair_count=int(((members >= x_lo) & (members < x_hi)).sum()),
            class_count=int(column.sum()),
            length_out=0,
        )
        tracemalloc.start()
        try:
            verdict = verify_fg(cut, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == Verdict(passed=True)
        assert peak < 2**20

    @given(
        st.sampled_from([0, 20 - 2**63, 2**63 - 51]),
        st.integers(-20, 20),
        st.lists(st.booleans(), min_size=1, max_size=30),
        st.integers(1, 3),
        st.integers(1, 4),
        st.tuples(st.integers(-60, 60), st.integers(1, 60)),
        st.tuples(st.integers(-20, 20), st.integers(1, 40)),
    )
    def test_recount_matches_naive(self, base, lo, bits, radius, span, xs, ys):
        # windows reach both ends of int64, and boxes reach well past the
        # union's window on every side
        s = WindowSet1D(base + lo, base + lo + len(bits), bits)
        box = (base + xs[0], base + xs[0] + xs[1], ys[0], ys[0] + ys[1])
        members = set(s.members().tolist())
        hits, _ = naive.progression_pairs(members, s.lo, s.hi, radius, span, box)
        u = shifted_union_1d(s, radius)
        _, found = _pair_block(u, box, span)
        assert np.count_nonzero(found) == len(hits)

    def test_verify_makes_two_probes(self, monkeypatch):
        # one for ap_membership, and one of the pair box's feasible block,
        # which claims 6 and 7 both read: construct's pair box holds at most
        # 200,000 cells, and so does that block
        s = striped_set((0, 100_000), 5, 2)
        cert = fg_construct(s, 2, 2)
        calls = []

        def counted(*args):
            calls.append(args[1])
            return progressions_in(*args)

        monkeypatch.setattr(certificate, "progressions_in", counted)
        assert verify_fg(cert, s).passed
        assert len(calls) == 2

    def test_pair_box_over_the_cap_is_refused_at_once(self):
        # the one-color pair box widened to +-10^18: its feasible block is
        # about 32,000 starts by 64,000 steps, refused before it is probed
        s = striped_set((0, 32_000), 5, 2)
        cert = fg_construct(s, 1, 1)
        wide = cert.with_field(pair_box=(-(10**18), 10**18, -(10**18), 10**18))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            refusal = "has 2047968000 cells, over the 200000 the verifier probes"
            with pytest.raises(RefusalError, match=refusal):
                verify_fg(wide, s)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 4 * 2**20

    def test_refusal_and_notes_keep_their_places(self, striped_cert, striped_input):
        # the widened box of the test above: claims before claim 6, and
        # claim 6's pull-back into the box, fail before the refusal; claim 7
        # comes after it, and a digest mismatch before every claim
        s = striped_set((0, 32_000), 5, 2)
        edge = 10**18
        wide = fg_construct(s, 1, 1).with_field(pair_box=(-edge, edge, -edge, edge))
        refusal = "has 2047968000 cells, over the 200000 the verifier probes"
        for cert in (wide, wide.with_field(pair_count=wide.pair_count + 1)):
            with pytest.raises(RefusalError, match=refusal) as refused:
                verify_fg(cert, s)
            assert refused.type is RefusalError
        verdict = verify_fg(wide.with_field(length_in=wide.length_in + 10**6), s)
        assert verdict.failed_claim == "input_scale"
        # offset 0, stride 1 and shift 1: a pair (x, p) pulls back to (x - 1, p)
        assert (wide.offset, wide.stride, wide.shift) == (0, 1, 1)
        least = int(wide.ap_pairs.points()[:, 0].min()) - 1
        cut = wide.with_field(pair_box=(least + 1, edge, -edge, edge))
        want = Verdict(False, "pair_preimage", "preimage (-1, 0) leaves the pair box")
        assert verify_fg(cut, s) == want
        flipped = ("0" if wide.digest[0] != "0" else "1") + wide.digest[1:]
        with pytest.raises(DigestMismatchError):
            verify_fg(wide.with_field(digest=flipped), s)
        # a note made by claim 4 rides on a later claim's failure
        advisory = striped_cert.with_field(
            span_exhaustive=False, pair_count=striped_cert.pair_count + 1
        )
        assert verify_fg(advisory, striped_input) == Verdict(
            False,
            "pair_count",
            f"claimed {striped_cert.pair_count + 1}, recounted {striped_cert.pair_count}",
            ("span declared non-exhaustive; treated as advisory",),
        )

    def test_claims_stream_in_the_documented_order(self, striped_cert, striped_input):
        # on a passing certificate every claim yields, in the order that
        # verify_fg's docstring lists, and none yields a detail
        order = re.findall(r"^ +\d\. (\w+) +--", verify_fg.__doc__, re.M)
        assert len(order) == 8
        stream = list(certificate._claims(striped_cert, striped_input, 5_000_000, []))
        names = [claim for claim, _ in stream]
        assert list(dict.fromkeys(names)) == order
        assert names == sorted(names, key=order.index)
        assert [detail for _, detail in stream] == [None] * len(stream)

    def test_one_off_stride_pair_fails_pair_preimage(self, striped_cert, striped_input):
        # (1, 1) is a progression pair of the set, but its step is odd; the
        # even step of (0, 2) is on stride
        bad = striped_cert.with_field(
            ap_pairs=WindowSet2D(*naive.points_in_box(0, 2, 1, 3, [(0, 2), (1, 1)])),
            stride=2, offset=0, shift=1, length_out=0,
        )
        want = ("pair_preimage", "pair step 1 is not a multiple of stride 2")
        verdict = verify_fg(bad, striped_input)
        assert (verdict.failed_claim, verdict.detail) == want
        assert first_probe_failure(bad, striped_input) == want

    def test_out_of_range_triple_fails(self, striped_cert, striped_input):
        bad = striped_cert.with_field(shift=striped_cert.radius + 1)
        assert verify_fg(bad, striped_input).failed_claim in (
            "triple_range",
            "pair_preimage",
        )

    def test_verifier_never_imports_the_pipeline(self):
        import ast

        import syndetic.certificate as certificate

        tree = ast.parse(Path(certificate.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "pipeline" not in (node.module or "")
            if isinstance(node, ast.Import):
                assert all("pipeline" not in a.name for a in node.names)


def naive_pair_count(s, radius, span, box):
    """The progression pairs of the box, counted by the per-point oracle
    over the box clipped to a margin past the union's window: a start
    outside it, or a step too long for it, holds none."""
    reach = (s.width + radius - 2) // span
    margin = (s.lo - radius - 3, s.hi + 2, -reach - 3, reach + 4)
    clipped = [max(box[0], margin[0]), min(box[1], margin[1])]
    clipped += [max(box[2], margin[2]), min(box[3], margin[3])]
    members = set(s.members().tolist())
    hits, _ = naive.progression_pairs(members, s.lo, s.hi, radius, span, clipped)
    return len(hits)


def first_probe_failure(cert, s):
    """(claim, detail) of the first ap_membership or pair_preimage failure,
    recomputed point by point in pt order from the definitions, or None."""
    members = set(s.members().tolist())
    union, _, _ = naive.shifted_union_1d(members, s.lo, s.hi, cert.radius)
    pts = [tuple(p) for p in cert.ap_pairs.points().tolist()]
    for a, d in pts:
        if not naive.progression_in(members, a, d, cert.steps + 1):
            return "ap_membership", f"pair ({a}, {d}) leaves the set"
    for _, d in pts:
        if d % cert.stride:
            return "pair_preimage", (
                f"pair step {d} is not a multiple of stride {cert.stride}"
            )
    pre = [
        (a - cert.offset * (d // cert.stride) - cert.shift, d // cert.stride)
        for a, d in pts
    ]
    bx = cert.pair_box
    for x, p in pre:
        if not (bx[0] <= x < bx[1] and bx[2] <= p < bx[3]):
            return "pair_preimage", f"preimage ({x}, {p}) leaves the pair box"
    for x, p in pre:
        if not naive.progression_in(union, x, p, cert.span + 1):
            return "pair_preimage", f"preimage ({x}, {p}) is not a progression pair"
    return None


class TestVerdictDetails:
    """Each failing membership or preimage branch names the same pair as a
    per-point recomputation: the first failing one in pt order, which for
    the preimage branches is the order of the image.  Past those branches,
    the pair count fails exactly when a per-point recount differs."""

    BRANCHES = (
        "leaves the set",
        "is not a multiple of stride",
        "leaves the pair box",
        "is not a progression pair",
    )

    @pytest.mark.parametrize(
        "s", [striped_set((0, 120), 5, 2), periodic_set((0, 90), 3, [0, 1])]
    )
    def test_details_match_per_point_recomputation(self, s):
        rng = np.random.default_rng(20261018)
        cert = fg_construct(s, 2, 2)
        k, span = cert.steps, cert.span
        members = set(s.members().tolist())
        x_lo, x_hi, y_lo, y_hi = cert.ap_pairs.box
        box = (x_lo - 6, x_hi + 6, y_lo - 3, y_hi + 3)
        cells = [(a, d) for a in range(box[0], box[1]) for d in range(box[2], box[3])]
        valid = [c for c in cells if naive.progression_in(members, *c, k + 1)]
        invalid = [c for c in cells if not naive.progression_in(members, *c, k + 1)]
        seen = dict.fromkeys((*self.BRANCHES, "pair_count"), 0)
        recounts = {}
        for _ in range(80):
            triple = {}
            if rng.random() < 0.5:
                stride = int(rng.integers(1, span // k + 1))
                triple = dict(
                    stride=stride,
                    offset=int(rng.integers(0, span - k * stride + 1)),
                    shift=int(rng.integers(1, cert.radius + 1)),
                )
            stride = triple.get("stride", cert.stride)
            pts = [c for c in valid if rng.random() < rng.uniform(0.05, 0.9)]
            if rng.random() < 0.5:
                pts = [c for c in pts if c[1] % stride == 0]
            if rng.random() < 0.3:
                pts += [invalid[i] for i in rng.integers(0, len(invalid), size=2)]
            if not pts:
                continue
            pair_box = cert.pair_box
            if rng.random() < 0.4:
                cut = rng.integers(0, 12, size=4).tolist()
                pair_box = (
                    pair_box[0] + cut[0], pair_box[1] - cut[1],
                    pair_box[2] + cut[2] // 3, pair_box[3] - cut[3] // 3,
                )
            elif rng.random() < 0.5:
                pair_box = (-1000, 1000, -100, 100)
            elif rng.random() < 0.5:
                # bounds past int64, around the pairs or clear of them
                far = [-(2**63) - 5, 2**63 + 5, 2**64]
                pair_box = [
                    (far[0], far[1], far[0], far[1]),
                    (far[1], far[2], y_lo, y_hi),
                    (x_lo, x_hi, far[1], far[2]),
                    (far[0], x_lo + 3, far[0], y_lo + 1),
                ][rng.integers(0, 4)]
            bad = cert.with_field(
                ap_pairs=WindowSet2D(*naive.points_in_box(*box, pts)),
                pair_box=pair_box,
                length_out=0,
                **triple,
            )
            verdict = verify_fg(bad, s)
            want = first_probe_failure(bad, s)
            if want is None:
                assert verdict.failed_claim not in ("ap_membership", "pair_preimage")
                if pair_box not in recounts:
                    recounts[pair_box] = naive_pair_count(s, bad.radius, span, pair_box)
                recount = recounts[pair_box]
                if recount != bad.pair_count:
                    detail = f"claimed {bad.pair_count}, recounted {recount}"
                    assert (verdict.failed_claim, verdict.detail) == ("pair_count", detail)
                    seen["pair_count"] += 1
                else:
                    assert verdict.failed_claim != "pair_count"
                continue
            assert (verdict.failed_claim, verdict.detail) == want
            seen[next(b for b in self.BRANCHES if b in want[1])] += 1
        assert all(seen.values()), seen


class TestDigest:
    def test_digest_tracks_membership(self):
        a = WindowSet1D.from_members(0, 50, [1, 2, 3])
        b = WindowSet1D.from_members(0, 50, [1, 2, 4])
        assert set_digest(a) != set_digest(b)
        assert set_digest(a) == set_digest(WindowSet1D.from_members(0, 50, [3, 2, 1]))

    def test_digest_tracks_window(self):
        a = WindowSet1D.from_members(0, 50, [1])
        b = WindowSet1D.from_members(0, 51, [1])
        assert set_digest(a) != set_digest(b)
