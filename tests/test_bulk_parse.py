"""Writer-form blocks are read in one pass; every other document line by
line.  Both paths must give the same objects and the same errors."""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from syndetic.certificate import CertificateParseError, parse, serialize
from syndetic.generators import periodic_set, striped_set
from syndetic.pipeline import fg_construct
from syndetic.textio import (
    SetFormatError,
    canonical_int,
    dump_window1d,
    load_window1d,
    writer_rows,
)
from syndetic.windows import WindowSet1D


def loop_only(text: str) -> str:
    """The same document with a tab ending every line: no line is in writer
    form any more, so it is read line by line, with the same line numbers."""
    return text.replace("\n", "\t\n")


def outcome(load, text: str):
    """The loaded value, or the class and message of a format error; any
    other exception escapes and fails the test."""
    try:
        return load(text)
    except (CertificateParseError, SetFormatError) as exc:
        return type(exc), str(exc)


class TestWriterRows:
    def test_writer_block(self):
        rows = writer_rows("pt 0 -1\npt 12 3\n", "pt", 2)
        assert rows.dtype == np.int64
        assert rows.tolist() == [[0, -1], [12, 3]]

    def test_eighteen_digits_convert_exactly(self):
        big = "9" * 18
        rows = writer_rows(f"run -{big} {big}\n", "run", 2)
        assert rows.tolist() == [[-int(big), int(big)]]

    @pytest.mark.parametrize(
        "block",
        [
            "",
            "pt 1 2",
            "pt 1 2\npt 3 4",
            " pt 1 2\n",
            "pt 1  2\n",
            "pt 1 2 \n",
            "pt 1 2\t\n",
            "pt 1 2\r\n",
            "pt 1 2\n\npt 3 4\n",
            "pt 1 2\n# note\npt 3 4\n",
            "pt 1\n",
            "pt 1 2 3\n",
            "run 1 2\n",
            "pt -0 1\n",
            "pt 01 1\n",
            "pt +1 1\n",
            "pt 1_0 1\n",
            "pt ٢ 1\n",
            f"pt {'1' * 19} 1\n",
        ],
    )
    def test_anything_else_is_left_to_the_line_loop(self, block):
        assert writer_rows(block, "pt", 2) is None


@given(st.text(alphabet="0123456789-+_ ٢x", max_size=6))
def test_canonical_int_is_the_form_str_writes(field):
    try:
        expected = int(field) if str(int(field)) == field else None
    except ValueError:
        expected = None
    try:
        got = canonical_int(field)
    except ValueError:
        got = None
    assert got == expected


@cache
def base_certificates() -> tuple[str, ...]:
    sets = [striped_set((0, 24), 2, 1), periodic_set((0, 40), 3, [0, 1])]
    return tuple(serialize(fg_construct(s, 2, 2)) for s in sets)


sets_1d = st.builds(
    lambda lo, width, pick: WindowSet1D.from_members(
        lo, lo + width, [lo + i for i in pick if i < width]
    ),
    st.integers(-50, 50),
    st.integers(1, 60),
    st.sets(st.integers(0, 59)),
)

# Replacement fields: canonical integers, the non-canonical spellings int()
# accepts, and other keys.  The large integers come from a fixed list, so a
# window or box an edit produces is either a few hundred wide at most or at
# least 9 * 10**17 wide, which numpy refuses at once: a test never asks for
# a width that a machine could start to allocate.
LARGE = [10**18, 10**19, 10**25]
tokens = st.one_of(
    st.integers(-3, 130).map(str),
    st.sampled_from([str(v) for n in LARGE for v in (n, -n)]),
    st.sampled_from(
        ["-0", "01", "+1", "1_0", "٢", "x", "pt", "run", "claims", "window2d"]
    ),
)


@st.composite
def edited(draw, text: str) -> str:
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["replace", "delete", "swap", "duplicate"]))
        if kind == "replace":
            fields = lines[i].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(tokens)
            lines[i] = " ".join(fields)
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
    return "\n".join(lines) + "\n"


class TestFuzzedDocuments:
    @given(st.sampled_from(base_certificates()).flatmap(edited))
    def test_certificate_edits(self, text):
        got = outcome(parse, text)
        assert got == outcome(parse, loop_only(text))
        if not isinstance(got, tuple):
            assert serialize(got) == text

    @given(sets_1d.map(dump_window1d).flatmap(edited))
    def test_set_edits(self, text):
        assert outcome(load_window1d, text) == outcome(load_window1d, loop_only(text))


class TestSetHead:
    """Only a document whose run lines all follow the header in writer form
    is read in bulk; the line loop reads the rest."""

    def test_second_header(self):
        with pytest.raises(SetFormatError) as err:
            load_window1d("window1d 0 10\nwindow1d 0 10\nrun 1 2\n")
        assert str(err.value) == "line 2: expected key 'run', got 'window1d'"

    def test_run_line_before_the_writer_block(self):
        s = load_window1d("# set\nwindow1d 0 10\n run 1 2\nrun 4 6\n")
        assert s == WindowSet1D.from_members(0, 10, [1, 4, 5])

    def test_comments_before_the_header(self):
        s = load_window1d("# set\n\n#\nwindow1d -5 10\nrun -5 -3\nrun 0 2\n")
        assert s == WindowSet1D.from_members(-5, 10, [-5, -4, 0, 1])


class TestPtBlockOutOfPlace:
    """A writer-form pt block that the reader meets outside the mtilde block
    is read as lines, so errors name the same line as before."""

    def test_missing_mtilde_header(self):
        lines = base_certificates()[0].splitlines()
        at = lines.index("mtilde")
        del lines[at : at + 2]
        with pytest.raises(CertificateParseError) as err:
            parse("\n".join(lines) + "\n")
        assert err.value.lineno == at + 1
        assert str(err.value).startswith(f"line {at + 1}: expected 'mtilde', got 'pt ")

    def test_pt_block_and_claims_first(self):
        lines = base_certificates()[0].splitlines()
        mtilde, claims = lines.index("mtilde"), lines.index("claims")
        # fgcert v1, the pt block, the claims, then input .. window2d
        doc = lines[:1] + lines[mtilde + 2 :] + lines[1 : mtilde + 2]
        with pytest.raises(CertificateParseError) as err:
            parse("\n".join(doc) + "\n")
        assert str(err.value) == f"line 2: expected 'input', got {lines[mtilde + 2]!r}"
        assert claims > mtilde + 2


@pytest.fixture(scope="module")
def large():
    """The 1e6-wide striped set and its r=k=2 certificate, as documents."""
    s = striped_set((0, 1_000_000), 5, 2)
    return dump_window1d(s), serialize(fg_construct(s, 2, 2))


def corrupt(text: str, key: str, edit):
    """Apply ``edit`` to the lines of ``text`` at the middle line starting
    with ``key``; returns the document and that line's number."""
    lines = text.splitlines()
    block = [i for i, line in enumerate(lines) if line.startswith(key + " ")]
    i = block[len(block) // 2]
    edit(lines, i)
    return "\n".join(lines) + "\n", i + 1


class TestLargeDocuments:
    def test_bulk_and_loop_agree(self, large):
        set_text, cert_text = large
        s = load_window1d(set_text)
        assert s == load_window1d(loop_only(set_text))
        assert dump_window1d(s) == set_text
        cert = parse(cert_text)
        assert cert == parse(loop_only(cert_text))
        assert serialize(cert) == cert_text

    def test_non_canonical_run_field(self, large):
        def edit(lines, i):
            lines[i] = lines[i].replace("run ", "run 0", 1)

        text, lineno = corrupt(large[0], "run", edit)
        field = text.splitlines()[lineno - 1].split()[1]
        with pytest.raises(SetFormatError) as err:
            load_window1d(text)
        assert str(err.value) == f"line {lineno}: malformed integer {field!r} in run"

    @pytest.mark.parametrize(
        "run,message",
        [
            ("run 999998 1000001", "run [999998, 1000001) leaves window [0, 1000000)"),
            ("run -1 3", "run [-1, 3) leaves window [0, 1000000)"),
            ("run 7 7", "run [7, 7) is empty"),
        ],
    )
    def test_bad_run(self, large, run, message):
        def edit(lines, i):
            lines[i] = run

        text, lineno = corrupt(large[0], "run", edit)
        with pytest.raises(SetFormatError) as err:
            load_window1d(text)
        assert str(err.value) == f"line {lineno}: {message}"

    def test_non_canonical_pt_field(self, large):
        def edit(lines, i):
            lines[i] = lines[i].replace("pt ", "pt +", 1)

        text, lineno = corrupt(large[1], "pt", edit)
        field = text.splitlines()[lineno - 1].split()[1]
        with pytest.raises(CertificateParseError) as err:
            parse(text)
        assert str(err.value) == f"line {lineno}: malformed integer {field!r} in pt"

    def test_pt_out_of_order(self, large):
        def edit(lines, i):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]

        text, lineno = corrupt(large[1], "pt", edit)
        with pytest.raises(CertificateParseError) as err:
            parse(text)
        assert str(err.value) == (
            f"line {lineno + 1}: pt lines must be strictly increasing"
        )

    @pytest.mark.parametrize("side", ["x_lo", "x_hi", "y_lo", "y_hi"])
    def test_pt_outside_the_box(self, large, side):
        x_lo, x_hi, y_lo, y_hi = parse(large[1]).ap_pairs.box
        lines = large[1].splitlines()
        block = [i for i, line in enumerate(lines) if line.startswith("pt ")]
        xs = {i: int(lines[i].split()[1]) for i in block}
        # keep the order, so that only the box check fails: x out of the box
        # on the first or the last line, y at the start or end of a column
        mid = {"x_lo": block[0], "x_hi": block[-1]}.get(side)
        if side == "y_lo":
            mid = next(i for i in block[len(block) // 2 :] if xs[i - 1] < xs[i])
        if side == "y_hi":
            mid = next(i for i in block[len(block) // 2 :] if xs[i] < xs[i + 1])
        x, y = {
            "x_lo": (x_lo - 1, y_lo),
            "x_hi": (x_hi, y_lo),
            "y_lo": (xs[mid], y_lo - 1),
            "y_hi": (xs[mid], y_hi),
        }[side]
        lines[mid] = f"pt {x} {y}"
        with pytest.raises(CertificateParseError) as err:
            parse("\n".join(lines) + "\n")
        assert str(err.value) == f"line {mid + 1}: pt ({x}, {y}) leaves the box"
        # line by line, a malformed field after the bad line is not named
        if mid < block[-1]:
            lines[block[-1]] = lines[block[-1]].replace("pt ", "pt +", 1)
        with pytest.raises(CertificateParseError) as err:
            parse(loop_only("\n".join(lines) + "\n"))
        assert str(err.value) == f"line {mid + 1}: pt ({x}, {y}) leaves the box"
