import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import naive
from syndetic.textio import (
    SetFormatError,
    dump_rows,
    dump_window1d,
    load_window1d,
)
from syndetic.vdw import (
    Coloring,
    VdwResult,
    dump_coloring,
    dump_vdw_result,
    vdw_number,
)
from syndetic.windows import WindowSet1D

sets_1d = st.builds(
    lambda lo, width, pick: WindowSet1D.from_members(
        lo, lo + width, [lo + i for i in pick if i < width]
    ),
    st.integers(-50, 50),
    st.integers(1, 60),
    st.sets(st.integers(0, 59)),
)

# the same, with windows at both ends of the int64 range
sets_1d_edges = st.builds(
    lambda lo, width, pick: WindowSet1D.from_members(
        lo, lo + width, [lo + i for i in pick if i < width]
    ),
    st.one_of(
        st.integers(-50, 50),
        st.integers(-(2**63), -(2**63) + 10),
        st.integers(2**63 - 71, 2**63 - 61),
    ),
    st.integers(1, 60),
    st.sets(st.integers(0, 59)),
)

# where a field gains a digit or a sign: 0, -1, +-10**k, +-(10**k - 1)
# and the two ends of int64
EDGES = [-(2**63), 2**63 - 1, 0, -1] + [
    sign * v for k in range(1, 19) for v in (10**k, 10**k - 1) for sign in (1, -1)
]
int64s = st.one_of(st.sampled_from(EDGES), st.integers(-(2**63), 2**63 - 1))
# (n, width) blocks of 1 to 4 columns, empty ones included
blocks = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.tuples(*[int64s] * width), max_size=20).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, width)
    )
)


def fstring_rows(key, block):
    # the reference writer: one f-string per row
    return "".join(
        f"{key} " + " ".join(str(v) for v in row) + "\n" for row in block.tolist()
    )


class TestDumpRows:
    @given(blocks, st.sampled_from(["run", "pt", "k"]))
    @example(np.array(EDGES, dtype=np.int64).reshape(-1, 1), "run")
    @example(np.array(EDGES, dtype=np.int64).reshape(-1, 2), "pt")
    @example(np.zeros((0, 2), dtype=np.int64), "pt")
    def test_matches_fstring_rows(self, block, key):
        # the columns are strided views, as serialize passes them
        assert dump_rows(key, *block.T) == fstring_rows(key, block)


class TestWindow1DFormat:
    def test_canonical_runs(self):
        s = WindowSet1D.from_members(-2, 8, [-2, -1, 3, 5, 6])
        assert dump_window1d(s) == "window1d -2 8\nrun -2 0\nrun 3 4\nrun 5 7\n"

    def test_empty_set(self):
        assert dump_window1d(WindowSet1D.from_members(0, 4, [])) == "window1d 0 4\n"

    @given(sets_1d_edges)
    def test_dump_matches_fstring_lines(self, s):
        runs = naive.runs(set(s.members().tolist()), s.lo, s.hi)
        lines = [f"window1d {s.lo} {s.hi}"] + [f"run {a} {b}" for a, b in runs]
        assert dump_window1d(s) == "\n".join(lines) + "\n"

    @given(sets_1d)
    def test_round_trip(self, s):
        assert load_window1d(dump_window1d(s)) == s

    @given(sets_1d)
    def test_dump_is_deterministic(self, s):
        assert dump_window1d(s) == dump_window1d(s)

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nwindow1d 0 6\n# another\nrun 1 3\n\n"
        assert load_window1d(text) == WindowSet1D.from_members(0, 6, [1, 2])

    def test_overlapping_runs_union(self):
        text = "window1d 0 6\nrun 0 3\nrun 2 5\n"
        assert load_window1d(text) == WindowSet1D.from_members(0, 6, range(5))

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("", 0),
            ("run 0 1\n", 1),
            ("window1d 5 5\n", 1),
            ("window1d 0 five\n", 1),
            ("window1d 0 4\nrun 0\n", 2),
            ("window1d 0 4\nrun 2 2\n", 2),
            ("window1d 0 4\nrun 2 2\nrun x 3\n", 2),
            ("window1d 0 4\nrun 0 5\n", 2),
            ("window1d 0 4\npt 1 1\n", 2),
            ("# lead\nwindow1d 0 4\nrun x 2\n", 3),
            ("window1d 0 1_0\n", 1),
            ("window1d -0 4\n", 1),
            ("window1d 0 \u0664\n", 1),
            ("window1d 0 4\nrun +2 3\n", 2),
            ("window1d 0 40\nrun 2 05\n", 2),
        ],
    )
    def test_errors_name_the_line(self, text, lineno):
        with pytest.raises(SetFormatError) as err:
            load_window1d(text)
        assert err.value.lineno == lineno


# Widths numpy refuses at once; a test never asks for a width that a
# machine could start to allocate.
E18 = 10**18


class TestTooWideToAllocate:
    @pytest.mark.parametrize(
        "text,lineno",
        [
            (f"window1d 0 {E18}\nrun 1 2\n", 1),  # writer form: bulk read
            (f"window1d 0 {E18}\nrun 1 2\t\n", 1),  # line by line
            (f"# lead\nwindow1d -{E18} {E18}\n", 2),
            (f"window1d {-(2**63)} {2**63 - 1}\nrun 0 1\n", 1),
        ],
    )
    def test_window1d(self, text, lineno):
        with pytest.raises(SetFormatError) as err:
            load_window1d(text)
        assert err.value.lineno == lineno
        assert str(err.value).endswith(") is too wide to allocate")


class TestResultFormats:
    def test_coloring_lines(self):
        c = Coloring((1, 2, 1), 2)
        assert dump_coloring(c) == "coloring 2 3\n1 2 1\n"

    def test_empty_coloring(self):
        assert dump_coloring(Coloring((), 3)) == "coloring 3 0\n"

    def test_vdw_result_document(self):
        res = vdw_number(2, 3)
        doc = dump_vdw_result(res)
        lines = doc.splitlines()
        assert lines[0] == "n 9"
        assert lines[1] == "exhaustive 1"
        assert lines[2].startswith("budget_spent ")
        assert lines[3] == "coloring 2 8"
        assert len(lines[4].split()) == 8
