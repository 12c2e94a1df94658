import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import naive
from syndetic import windows
from syndetic.windows import (
    PSWitness1D,
    Scale,
    WindowError,
    WindowSet1D,
    WindowSet2D,
    block_rows,
    contains_interval,
    feasible_block,
    first_member,
    is_ps_at_scale,
    max_run_length,
    progressions_in,
    ps_scale_1d,
    ps_scale_2d,
    shifted_union_1d,
    shifted_union_2d,
)
from syndetic.certificate import parse, serialize, set_digest
from syndetic.generators import striped_set
from syndetic.pipeline import (
    AffineMap2D,
    APPair,
    affine_image,
    color_classes,
    fg_construct,
    find_nontrivial_ap,
    partition_extract,
)
from syndetic.textio import dump_window1d

# small windowed sets for property tests
sets_1d = st.builds(
    lambda lo, width, pick: WindowSet1D.from_members(
        lo, lo + width, [lo + i for i in pick if i < width]
    ),
    st.integers(-20, 20),
    st.integers(1, 40),
    st.sets(st.integers(0, 39)),
)

sets_2d = st.builds(
    lambda xlo, ylo, wx, wy, pick: WindowSet2D(*naive.points_in_box(
        xlo, xlo + wx, ylo, ylo + wy,
        [(xlo + i, ylo + j) for i, j in pick if i < wx and j < wy],
    )),
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.integers(1, 10),
    st.integers(1, 10),
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))),
)


class TestWindowSet1D:
    def test_rejects_empty_window(self):
        with pytest.raises(WindowError):
            WindowSet1D.from_members(5, 5, [])
        with pytest.raises(WindowError):
            WindowSet1D.from_members(7, 3, [])

    def test_rejects_member_outside_window(self):
        with pytest.raises(WindowError):
            WindowSet1D.from_members(0, 5, [5])

    def test_out_of_window_query_raises(self):
        s = WindowSet1D.from_members(0, 5, [1])
        assert s.contains(1) and not s.contains(2)
        with pytest.raises(WindowError):
            s.contains(-1)
        with pytest.raises(WindowError):
            s.contains(5)

    def test_mask_is_immutable(self):
        # the set copies the caller's array, contiguous or strided, into a
        # contiguous mask of its own that is read-only
        for given in (np.ones(4, bool), np.ones(8, bool)[::2]):
            s = WindowSet1D(0, 4, given)
            given[0] = False
            assert s.count == 4 and s.mask.flags.c_contiguous
            with pytest.raises(ValueError):
                s.mask[0] = False

    def test_adopt_refuses_a_mask_of_another_shape(self):
        with pytest.raises(
            WindowError, match=r"mask of shape \(3,\) does not fit window \[0, 4\)"
        ):
            WindowSet1D._adopt(0, 4, np.ones(3, bool))

    def test_equality_and_members(self):
        a = WindowSet1D.from_members(-2, 3, [-2, 0])
        b = WindowSet1D.from_members(-2, 3, [0, -2])
        assert a == b
        assert a.members().tolist() == [-2, 0]
        assert a.count == 2

    @pytest.mark.parametrize(
        "lo, hi",
        [(2**63, 2**63 + 3), (2**63 - 3, 2**63), (-(2**63) - 1, -(2**63) + 2)],
    )
    def test_window_outside_int64_has_no_document(self, lo, hi):
        # a set may reach past int64, as the shifted union of a set at
        # -2**63 does, but it has no set document and so no digest
        s = WindowSet1D(lo, hi, np.ones(hi - lo, dtype=bool))
        with pytest.raises(WindowError, match="leaves the int64 range"):
            dump_window1d(s)
        with pytest.raises(WindowError, match="leaves the int64 range"):
            set_digest(s)

    def test_set_at_int64_min_keeps_its_answers(self):
        # the shifted union reaches below -2**63; each predicate built on
        # it answers as for any other window
        s = striped_set((INT64_MIN, INT64_MIN + 300), 5, 2)
        u = shifted_union_1d(s, 2)
        assert (u.lo, u.hi, u.count) == (INT64_MIN - 2, INT64_MIN + 299, 300)
        assert is_ps_at_scale(s, Scale(2, 50)).start == INT64_MIN - 2
        assert ps_scale_1d(s, 2) == 300
        assert find_nontrivial_ap(s, 2, 2) == APPair(INT64_MIN, 1)
        w = partition_extract(s, [s], 2)
        assert (w.index, w.scale, w.start) == (0, Scale(8, 306), INT64_MIN - 8)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def int64_windows(draw):
    """A small set on a window anywhere in int64, often at either end;
    hi may be 2**63, so that INT64_MAX itself can be a member."""
    width = draw(st.integers(1, 40))
    lo = draw(
        st.one_of(
            st.integers(INT64_MIN, INT64_MAX + 1 - width),
            st.sampled_from([INT64_MIN, INT64_MAX + 1 - width, INT64_MAX - width]),
        )
    )
    pick = draw(st.sets(st.integers(0, width - 1)))
    return WindowSet1D.from_members(lo, lo + width, [lo + i for i in pick])


@st.composite
def windows_and_probes(draw):
    s = draw(int64_windows())
    near = st.integers(max(s.lo - 3, INT64_MIN), min(s.hi + 3, INT64_MAX))
    edges = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX - 1, INT64_MAX])
    anywhere = st.integers(INT64_MIN, INT64_MAX)
    probes = draw(st.lists(st.one_of(near, edges, anywhere), max_size=30))
    return s, probes


class TestContains:
    @example((WindowSet1D.from_members(0, 5, [0, 4]), [-3, 0, 4, 5]))
    @given(windows_and_probes())
    def test_matches_set_oracle(self, case):
        s, probes = case
        members = set(s.members().tolist())
        # the scalar query agrees inside the window and raises outside it
        for p in probes:
            if s.lo <= p < s.hi:
                assert s.contains(p) == (p in members)
            else:
                with pytest.raises(WindowError):
                    s.contains(p)


@st.composite
def probe_boxes(draw):
    """A set anywhere in int64, a box of starts that may lie past the
    window on either side, steps of either sign, an arithmetic range of
    coefficients of either sign (at times longer than the window) and a
    shift of either sign."""
    s = draw(int64_windows())
    wx, wy = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    x_lo = draw(st.integers(max(INT64_MIN, s.lo - 60), min(INT64_MAX - wx, s.hi + 50)))
    y_lo = draw(st.integers(-10, 10))
    first = draw(st.integers(-12, 12))
    every = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    count = draw(st.one_of(st.integers(1, 6), st.integers(s.width, s.width + 3)))
    shift = draw(st.integers(-20, 20))
    box = (x_lo, x_lo + wx, y_lo, y_lo + wy)
    return s, box, range(first, first + every * count, every), shift


class TestProgressionsIn:
    @example((WindowSet1D.from_members(0, 10, [2, 4, 6, 8]), (1, 4, -3, 4), range(4), 1))
    @example((WindowSet1D(INT64_MIN, INT64_MIN + 3, [True] * 3), (INT64_MIN, INT64_MIN + 5, -2, 3),
              range(-1, 9), 2))
    @example((WindowSet1D(INT64_MAX - 3, INT64_MAX, [True] * 3), (INT64_MAX - 6, INT64_MAX, -2, 3),
              range(3, -7, -1), -1))
    @given(probe_boxes())
    def test_matches_naive(self, case):
        s, (x_lo, x_hi, y_lo, y_hi), coefs, shift = case
        members = set(s.members().tolist())
        box = (x_lo, x_hi, y_lo, y_hi)
        # x + c*y is in s translated by -shift iff x + shift + c*y is in s
        got = progressions_in(WindowSet1D(s.lo - shift, s.hi - shift, s.mask), box, coefs)
        # x + shift + c*y for c in coefs is a progression in i with step coefs.step*y
        want = [
            [
                naive.progression_in(
                    members, x + shift + coefs[0] * y, coefs.step * y, len(coefs)
                )
                for y in range(y_lo, y_hi)
            ]
            for x in range(x_lo, x_hi)
        ]
        assert got.tolist() == want

    def test_zero_and_negative_steps(self):
        s = WindowSet1D.from_members(0, 10, [2, 4, 6, 8])
        got = progressions_in(s, (2, 9, -2, 3), range(4))
        # column y = -2 holds the progression 8, 6, 4, 2; y = 0 every member
        assert got[:, 0].tolist() == [False] * 6 + [True]
        assert got[:, 2].tolist() == [x in (2, 4, 6, 8) for x in range(2, 9)]
        assert got[:, 4].tolist() == [True] + [False] * 6
        assert not got[:, [1, 3]].any()
        moved = WindowSet1D(s.lo - 1, s.hi - 1, s.mask)
        for terms, want in ((4, True), (5, False)):
            assert progressions_in(moved, (1, 2, 2, 3), range(terms))[0, 0] == want

    def test_terms_capped_at_width(self):
        # 10**15 terms: a nonzero step leaves the window, a zero step repeats
        s = WindowSet1D.from_members(0, 50, range(50))
        got = progressions_in(s, (0, 50, -1, 2), range(10**15))
        assert got[:, 1].all() and not got[:, [0, 2]].any()

    def test_empty_coefs_rejected(self):
        with pytest.raises(ValueError):
            progressions_in(WindowSet1D.from_members(0, 3, range(3)), (0, 1, 0, 1), range(0))

    @pytest.mark.parametrize("coefs, shift", [
        (range(9), 0), (range(-3, 6), 4), (range(5, 8), -7), (range(7, -2, -1), 10**15),
    ])
    def test_padding_bounded_by_width(self, coefs, shift):
        # only rows and starts whose terms can land are probed, so a box
        # 10**18 wide costs a few copies of the window, not of the box
        s = WindowSet1D.from_members(-5_000, 5_000, range(-5_000, 5_000))
        box = (-(10**18), 10**18, -3, 4)
        moved = WindowSet1D(s.lo - shift, s.hi - shift, s.mask)
        tracemalloc.start()
        try:
            block = windows.feasible_block((s.lo, s.hi), box, coefs, shift)
            ok = progressions_in(moved, block, coefs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block's rows, plus a padded copy of at most three widths
        assert ok.shape[0] < 2 * s.width and ok.shape[1] == box[3] - box[2]
        assert peak < s.width * (box[3] - box[2] + 3)

    def test_views_past_the_window_copy_only_what_they_read(self):
        # a block at the left end of a 10**6-wide set reads 3 cells past it:
        # the views' copy holds the cells they read, not the whole set
        s = WindowSet1D.from_members(0, 10**6, range(0, 10**6, 2))
        tracemalloc.start()
        try:
            views = windows.term_views(s, (-3, 100, -1, 2), range(3), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096
        for c, view in enumerate(views):
            want = [[0 <= x + c * y and (x + c * y) % 2 == 0 for x in range(-3, 100)]
                    for y in (-1, 0, 1)]
            assert view.tolist() == want


@st.composite
def clip_cases(draw):
    """A window at either end of int64 or near 0, a shift of either sign,
    a box of starts that may pass the feasible starts on every side, rows
    past the reach on both sides, and coefficient ranges of either sign,
    one coefficient among them."""
    width = draw(st.integers(1, 20))
    lo = draw(st.sampled_from([INT64_MIN, -10, INT64_MAX + 1 - width])) + draw(
        st.integers(0, 5)
    )
    shift = draw(st.one_of(st.integers(-20, 20), st.sampled_from([INT64_MIN, INT64_MAX])))
    x_lo = lo - shift + draw(st.integers(-40, 25))
    y_lo = draw(st.integers(-12, 12))
    box = (x_lo, x_lo + draw(st.integers(1, 30)), y_lo, y_lo + draw(st.integers(1, 12)))
    first = draw(st.integers(-8, 8))
    every = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    count = draw(st.one_of(st.just(1), st.integers(2, 6), st.integers(width, width + 3)))
    return (lo, lo + width), box, range(first, first + every * count, every), shift


class TestFeasibleRows:
    @given(clip_cases())
    def test_matches_per_cell_brute_force(self, case):
        (lo, hi), (x_lo, x_hi, y_lo, y_hi), coefs, shift = case
        want = []
        for y in range(y_lo, y_hi):
            xs = [
                x
                for x in range(x_lo, x_hi)
                if all(lo <= x + shift + c * y < hi for c in coefs)
            ]
            if xs:
                assert xs == list(range(xs[0], xs[-1] + 1))
                want.append((y, xs[0], xs[-1] + 1))
        got = naive.feasible_rows((lo, hi), (x_lo, x_hi, y_lo, y_hi), coefs, shift)
        assert got == want
        assert all(a < b for _, a, b in got)
        ys = [y for y, _, _ in got]
        assert not ys or ys == list(range(ys[0], ys[-1] + 1))


class TestFeasibleBlock:
    @given(clip_cases())
    def test_matches_the_row_oracle(self, case):
        window, box, coefs, shift = case
        rows = naive.feasible_rows(window, box, coefs, shift)
        got = feasible_block(window, box, coefs, shift)
        if not rows:
            assert got is None and list(block_rows(window, box, coefs, shift)) == []
            return
        ya, yb = rows[0][0], rows[-1][0] + 1
        xa, xb = min(a for _, a, _ in rows), max(b for _, _, b in rows)
        assert got == (xa, xb, ya, yb)
        # the per-row rule gives each of the block's rows its starts
        assert list(block_rows(window, box, coefs, shift)) == rows

    @given(clip_cases(), st.data())
    def test_block_is_a_box(self, case, data):
        # the probe of a box marks nothing off its block, and on the block
        # it is the probe of the block itself; the set is moved by the
        # shift, so the probe's window is the clip's at shift 0
        (lo, hi), box, coefs, shift = case
        bits = data.draw(st.lists(st.booleans(), min_size=hi - lo, max_size=hi - lo))
        moved = WindowSet1D(lo - shift, hi - shift, bits)
        got = progressions_in(moved, box, coefs)
        block = feasible_block((lo, hi), box, coefs, shift)
        if block is None:
            assert not got.any()
            return
        xa, xb, ya, yb = block
        inside = got[xa - box[0] : xb - box[0], ya - box[2] : yb - box[2]]
        assert np.count_nonzero(inside) == np.count_nonzero(got)
        assert np.array_equal(inside, progressions_in(moved, block, coefs))
        # on the full set the block's edge rows and starts each hold a pair
        full = WindowSet1D(moved.lo, moved.hi, np.ones(hi - lo, dtype=bool))
        ok = progressions_in(full, block, coefs)
        assert ok[0].any() and ok[-1].any() and ok[:, 0].any() and ok[:, -1].any()

    def test_tall_box_costs_constant_time_and_memory(self):
        # a pair box 2 * 10**12 steps tall over a 200,000-wide window: the
        # block comes without a per-row pass
        box = (0, 200_000, -(10**12), 10**12)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            block = feasible_block((0, 200_000), box, range(3), 0)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01 and peak < 64 * 1024
        assert block == (0, 200_000, -99_999, 100_000)
        # on a 2,000-wide copy the rows past +-999 keep no start, so the
        # oracle walks only the rows within +-2,000
        small = feasible_block((0, 2_000), (0, 2_000, -(10**12), 10**12), range(3), 0)
        rows = naive.feasible_rows((0, 2_000), (0, 2_000, -2_000, 2_000), range(3), 0)
        xa, xb = min(a for _, a, _ in rows), max(b for _, _, b in rows)
        assert small == (xa, xb, rows[0][0], rows[-1][0] + 1)


class TestContainsInterval:
    def test_full_window(self):
        s = WindowSet1D.from_members(0, 5, range(5))
        assert contains_interval(s, 5) == 0

    def test_no_two_consecutive(self):
        s = WindowSet1D.from_members(0, 5, [0, 2, 4])
        assert contains_interval(s, 2) is None

    def test_run_in_middle(self):
        s = WindowSet1D.from_members(0, 12, [3, 4, 5, 9])
        assert contains_interval(s, 3) == 3

    def test_longer_than_window_is_absent(self):
        s = WindowSet1D.from_members(0, 5, range(5))
        assert contains_interval(s, 6) is None

    @given(sets_1d, st.integers(1, 12))
    def test_matches_naive(self, s, length):
        members = set(s.members().tolist())
        assert contains_interval(s, length) == naive.contains_interval(
            members, s.lo, s.hi, length
        )


class TestRunScans:
    """Every reader of maximal runs against the brute-force oracles."""

    @example(lo=0, bits=[True] * 7, length=7)
    @example(lo=-3, bits=[False] * 5, length=1)
    @example(lo=4, bits=[True], length=1)
    @example(lo=4, bits=[False], length=2)
    @given(
        st.integers(-20, 20),
        st.lists(st.booleans(), min_size=1, max_size=60),
        st.integers(1, 12),
    )
    def test_matches_naive(self, lo, bits, length):
        s = WindowSet1D(lo, lo + len(bits), bits)
        members = set(s.members().tolist())
        assert max_run_length(s) == naive.max_run(members, s.lo, s.hi)
        assert contains_interval(s, length) == naive.contains_interval(
            members, s.lo, s.hi, length
        )
        runs = [
            tuple(int(v) for v in line.split()[1:])
            for line in dump_window1d(s).splitlines()[1:]
        ]
        assert runs == naive.runs(members, s.lo, s.hi)


class TestShiftedUnion1D:
    def test_singleton(self):
        s = WindowSet1D.from_members(0, 10, [5])
        u = shifted_union_1d(s, 2)
        assert (u.lo, u.hi) == (-2, 9)
        assert u.members().tolist() == [3, 4]

    def test_empty(self):
        u = shifted_union_1d(WindowSet1D.from_members(0, 10, []), 3)
        assert u.is_empty()

    def test_multiples_of_three_cover_window(self):
        s = WindowSet1D.from_members(0, 10, [0, 3, 6, 9])
        u = shifted_union_1d(s, 3)
        assert (u.lo, u.hi) == (-3, 9)
        assert u.count == u.width

    # radii past the width of sets_1d, and doubling's overlapping last step
    @given(sets_1d, st.integers(1, 50))
    def test_pointwise_matches_naive(self, s, radius):
        members = set(s.members().tolist())
        want, wlo, whi = naive.shifted_union_1d(members, s.lo, s.hi, radius)
        u = shifted_union_1d(s, radius)
        assert (u.lo, u.hi) == (wlo, whi)
        assert set(u.members().tolist()) == want


class TestPsScale1D:
    def test_empty_is_zero(self):
        assert ps_scale_1d(WindowSet1D.from_members(0, 10, []), 1) == 0

    def test_middle_run(self):
        s = WindowSet1D.from_members(0, 12, [3, 4, 5, 9])
        assert ps_scale_1d(s, 1) == 3

    @given(sets_1d, st.integers(1, 5))
    def test_monotone_in_radius(self, s, radius):
        assert ps_scale_1d(s, radius + 1) >= ps_scale_1d(s, radius)

    @given(sets_1d, sets_1d, st.integers(1, 4))
    def test_union_superadditive(self, a, b, radius):
        # rebuild b on a's window so the union is defined
        inside = [m for m in b.members().tolist() if a.lo <= m < a.hi]
        b2 = WindowSet1D.from_members(a.lo, a.hi, inside)
        u = WindowSet1D(a.lo, a.hi, a.mask | b2.mask)
        assert ps_scale_1d(u, radius) >= max(
            ps_scale_1d(a, radius), ps_scale_1d(b2, radius)
        )

    @given(sets_1d, st.integers(1, 5))
    def test_matches_naive(self, s, radius):
        members = set(s.members().tolist())
        assert ps_scale_1d(s, radius) == naive.ps_scale_1d(
            members, s.lo, s.hi, radius
        )


class TestIsPsAtScale:
    def test_evens_at_fifty(self):
        s = WindowSet1D.from_members(0, 100, range(0, 100, 2))
        got = is_ps_at_scale(s, Scale(2, 50))
        assert got == PSWitness1D(start=-2, scale=Scale(2, 50))

    def test_single_point_cannot_reach_two(self):
        s = WindowSet1D.from_members(0, 10, [0])
        assert is_ps_at_scale(s, Scale(1, 2)) is None

    def test_full_window_is_thick(self):
        s = WindowSet1D.from_members(0, 20, range(20))
        assert is_ps_at_scale(s, Scale(1, 19)) is not None

    def test_witness_start_lies_in_union(self):
        s = WindowSet1D.from_members(0, 30, [4, 5, 6, 7, 8, 9])
        w = is_ps_at_scale(s, Scale(2, 4))
        assert w is not None
        u = shifted_union_1d(s, 2)
        assert all(u.contains(w.start + i) for i in range(4))

    @given(sets_1d, st.integers(1, 4), st.integers(1, 10), st.integers(0, 3), st.integers(0, 4))
    def test_monotone(self, s, radius, length, dr, dl):
        if is_ps_at_scale(s, Scale(radius, length)) is not None:
            weaker = Scale(radius + dr, max(1, length - dl))
            assert is_ps_at_scale(s, weaker) is not None

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            Scale(0, 5)
        with pytest.raises(ValueError):
            Scale(1, 0)


class TestWindowSet2D:
    def test_rejects_flat_box(self):
        with pytest.raises(WindowError):
            WindowSet2D(0, 0, 0, 5, np.zeros((0, 5), bool))

    def test_mask_is_immutable(self):
        # the set copies the caller's array, contiguous or strided, into a
        # step-major mask of its own that is read-only
        for given in (np.ones((3, 2), bool), np.ones((6, 4), bool)[::2, 1::2]):
            m = WindowSet2D(0, 3, 0, 2, given)
            given[0, 0] = False
            assert m.count == 6 and m.mask.flags.f_contiguous
            with pytest.raises(ValueError):
                m.mask[0, 0] = False

    def test_adopt_refuses_a_mask_of_another_shape(self):
        with pytest.raises(
            WindowError, match=r"mask of shape \(2, 3\) does not fit box \[0, 3\) x \[0, 2\)"
        ):
            WindowSet2D._adopt(0, 3, 0, 2, np.ones((2, 3), bool))

    def test_points_sorted_lexicographically(self):
        m = WindowSet2D(*naive.points_in_box(0, 4, 0, 4, [(2, 1), (0, 3), (2, 0)]))
        assert [tuple(p) for p in m.points().tolist()] == [(0, 3), (2, 0), (2, 1)]


# sets over a few bounds, so that equal pairs are common
tiny_1d = st.tuples(st.integers(-2, 2), st.integers(1, 3)).flatmap(
    lambda w: st.lists(st.booleans(), min_size=w[1], max_size=w[1]).map(
        lambda bits: WindowSet1D(w[0], w[0] + w[1], bits)
    )
)
tiny_2d = st.tuples(
    st.integers(-1, 1), st.integers(1, 2), st.integers(-1, 1), st.integers(1, 2)
).flatmap(
    lambda b: st.lists(st.booleans(), min_size=b[1] * b[3], max_size=b[1] * b[3]).map(
        lambda bits: WindowSet2D(
            b[0], b[0] + b[1], b[2], b[2] + b[3], np.reshape(bits, (b[1], b[3]))
        )
    )
)


class TestSetEquality:
    @given(st.one_of(tiny_1d, tiny_2d), st.one_of(tiny_1d, tiny_2d))
    def test_equal_exactly_when_bounds_and_masks_match(self, a, b):
        def key(s):
            bounds = (s.lo, s.hi) if isinstance(s, WindowSet1D) else s.box
            return type(s), bounds, s.mask.tolist()

        same = key(a) == key(b)
        assert (a == b) == same and (a != b) == (not same)
        assert len({a, b}) == (1 if same else 2)
        if same:
            assert hash(a) == hash(b)

    @given(tiny_1d)
    def test_a_1d_set_never_equals_a_2d_one(self, s):
        # the same bounds on x and the same mask bytes, one step row tall
        flat = WindowSet2D(s.lo, s.hi, 0, 1, s.mask[:, None])
        assert flat.mask.tobytes() == s.mask.tobytes()
        assert s != flat and flat != s


class TestShiftedUnion2D:
    def test_singleton_shift(self):
        m = WindowSet2D(*naive.points_in_box(0, 10, 0, 10, [(5, 5)]))
        u = shifted_union_2d(m, 1)
        assert [tuple(p) for p in u.points().tolist()] == [(4, 4)]

    def test_empty(self):
        m = WindowSet2D(0, 5, 0, 5, np.zeros((5, 5), bool))
        assert shifted_union_2d(m, 2).is_empty()

    def test_two_points_radius_two(self):
        m = WindowSet2D(*naive.points_in_box(0, 2, 0, 2, [(0, 0), (1, 1)]))
        u = shifted_union_2d(m, 2)
        assert u.box == (-2, 1, -2, 1)
        assert set(map(tuple, u.points().tolist())) == {
            (-2, -2), (-2, -1), (-1, -2), (-1, -1), (-1, 0), (0, -1), (0, 0),
        }

    # radii past 4 reach doubling's overlapping last step (5, 6, 7, 9)
    @given(sets_2d, st.integers(1, 9))
    def test_matches_naive(self, m, radius):
        pts = set(map(tuple, m.points().tolist()))
        want, wbox = naive.shifted_union_2d(pts, m.box, radius)
        u = shifted_union_2d(m, radius)
        assert u.box == wbox
        assert set(map(tuple, u.points().tolist())) == want


class TestPsScale2D:
    def test_empty_is_zero(self):
        assert ps_scale_2d(WindowSet2D(0, 4, 0, 4, np.zeros((4, 4), bool)), 2) == 0

    def test_full_box_side_ten(self):
        # shifted union at radius 1 is the full box translated by (-1, -1),
        # still ten integers per side
        assert ps_scale_2d(WindowSet2D(0, 10, 0, 10, np.ones((10, 10), bool)), 1) == 10

    def test_superset_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            small = rng.random((8, 8)) < 0.4
            big = small | (rng.random((8, 8)) < 0.3)
            a = WindowSet2D(0, 8, 0, 8, small)
            b = WindowSet2D(0, 8, 0, 8, big)
            assert ps_scale_2d(a, 2) <= ps_scale_2d(b, 2)

    @given(sets_2d, st.integers(1, 9))
    def test_matches_naive(self, m, radius):
        pts = set(map(tuple, m.points().tolist()))
        assert ps_scale_2d(m, radius) == naive.ps_scale_2d(pts, m.box, radius)


def _holed(wx, wy, holes):
    mask = np.ones((wx, wy), dtype=bool)
    for i, j in holes:
        if i < wx and j < wy:
            mask[i, j] = False
    return mask


# full boxes up to 12x12 with a few holes: squares span most of the box, so
# the erosion runs its doubling and its descent to the last step
near_full_2d = st.builds(
    lambda xlo, ylo, wx, wy, holes: WindowSet2D(
        xlo, xlo + wx, ylo, ylo + wy, _holed(wx, wy, holes)
    ),
    st.integers(-8, 8),
    st.integers(-8, 8),
    st.integers(1, 12),
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
)


# backgrounds with no two members next to each other in a row or column:
# any square of side 2 or more that is not inside a planted square has an
# edge outside it, and that edge has a hole
def _background(kind, wx, wy, rng):
    x, y = np.meshgrid(np.arange(wx), np.arange(wy), indexing="ij")
    mask = (x + y) % 2 == 0
    if kind == "sparse":
        mask &= rng.random((wx, wy)) < 0.5
    return mask


class TestSquareErosion:
    @given(near_full_2d, st.integers(1, 3))
    def test_near_full_matches_naive(self, m, radius):
        pts = set(map(tuple, m.points().tolist()))
        assert ps_scale_2d(m, radius) == naive.ps_scale_2d(pts, m.box, radius)

    @pytest.mark.parametrize("background", ["checkerboard", "sparse"])
    def test_planted_square(self, background):
        # every side 1..70, so 2**n - 1, 2**n and 2**n + 1 for n <= 6
        rng = np.random.default_rng(3)
        for side in range(1, 71):
            wx = side + int(rng.integers(0, 30))
            wy = side + int(rng.integers(0, 30))
            cx = int(rng.integers(0, wx - side + 1))
            cy = int(rng.integers(0, wy - side + 1))
            mask = _background(background, wx, wy, rng)
            mask[cx : cx + side, cy : cy + side] = True
            m = WindowSet2D(-5, wx - 5, 7, wy + 7, mask)
            # the shifted union at radius 1 is the set moved by (-1, -1)
            assert ps_scale_2d(m, 1) == side


# bool masks of 1 to 12 starts by 1 to 6 steps, empty ones included
masks_2d = st.tuples(st.integers(1, 12), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.booleans(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
    ).map(lambda cells: np.array(cells, dtype=bool).reshape(shape))
)


class TestStepMajorLayout:
    """2D masks are indexed [x, y] and stored step-major (Fortran order)."""

    @pytest.fixture(scope="class")
    def striped(self):
        s = striped_set((0, 300), 5, 2)
        return s, fg_construct(s, 2, 2)

    def test_producers_allocate_step_major(self, striped):
        s, cert = striped
        box = cert.pair_box
        pairs = progressions_in(s, box, range(cert.span + 1))
        assert pairs.flags.f_contiguous and pairs.shape[1] > 1
        m = WindowSet2D(*box, pairs)
        masks = [m.mask, shifted_union_2d(m, 3).mask]
        classes = color_classes(s, m, radius=2, span=cert.span, steps=2)
        masks += [c.mask for c in classes.values()]
        amap = AffineMap2D(shear=cert.offset, shift=cert.shift, scale=cert.stride)
        masks.append(affine_image(next(iter(classes.values())), amap).mask)
        masks.append(parse(serialize(cert)).ap_pairs.mask)
        for mask in masks:
            assert mask.flags.f_contiguous

    @given(masks_2d, st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4))
    def test_row_major_twin_is_the_same_set(self, mask, x_lo, y_lo, radius):
        box = (x_lo, x_lo + mask.shape[0], y_lo, y_lo + mask.shape[1])
        c = WindowSet2D(*box, np.ascontiguousarray(mask))
        f = WindowSet2D(*box, np.asfortranarray(mask))
        assert c.mask.flags.f_contiguous
        assert c == f and hash(c) == hash(f)
        assert c.points().tolist() == f.points().tolist()
        assert c.count == f.count == int(mask.sum())
        assert ps_scale_2d(c, radius) == ps_scale_2d(f, radius)

    @given(masks_2d, st.integers(-5, 5), st.integers(-5, 5))
    def test_first_member_is_the_first_in_row_major_order(self, mask, x_lo, y_lo):
        box = (x_lo, x_lo + mask.shape[0], y_lo, y_lo + mask.shape[1])
        want = next(
            (
                (x_lo + i, y_lo + j)
                for i in range(mask.shape[0])
                for j in range(mask.shape[1])
                if mask[i, j]
            ),
            None,
        )
        assert first_member(box, np.ascontiguousarray(mask)) == want
        assert first_member(box, np.asfortranarray(mask)) == want
