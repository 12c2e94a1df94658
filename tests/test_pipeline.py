import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import naive
from syndetic import pipeline
from syndetic.certificate import (
    VERSION_TAG,
    FgCertificate,
    serialize,
    set_digest,
    verify_fg,
)
from syndetic.generators import periodic_set, random_sparse_set, striped_set
from syndetic.pipeline import (
    AffineMap2D,
    APPair,
    ColorTriple,
    ConstructionError,
    PartitionError,
    PhiSearchError,
    ScalePreconditionError,
    affine_image,
    color_classes,
    fg_construct,
    find_nontrivial_ap,
    partition_extract,
    pigeonhole_extract,
    progression_pairs,
)
from syndetic.vdw import (
    DEFAULT_BUDGET,
    BudgetExhaustedError,
    Coloring,
    find_mono_ap,
    vdw_span,
)
from syndetic.windows import (
    WindowSet1D,
    WindowSet2D,
    is_ps_at_scale,
    max_run_length,
    ps_scale_1d,
    ps_scale_2d,
    shifted_union_1d,
)


def members_of(s):
    return set(s.members().tolist())


class TestProgressionPairs:
    def test_full_window_keeps_every_feasible_pair(self):
        s = WindowSet1D.from_members(0, 40, range(40))
        box = (0, 30, -3, 4)
        got = progression_pairs(s, 1, 5, box)
        want, excluded = naive.progression_pairs(members_of(s), 0, 40, 1, 5, box)
        assert set(map(tuple, got.pairs.points().tolist())) == want
        assert got.boundary_excluded == excluded
        # with a full union, membership and feasibility coincide
        area = (box[1] - box[0]) * (box[3] - box[2])
        assert got.pairs.count + got.boundary_excluded == area

    def test_empty_set_gives_empty_pairs(self):
        s = WindowSet1D.from_members(0, 40, [])
        got = progression_pairs(s, 2, 4, (0, 20, -2, 3))
        assert got.pairs.count == 0

    def test_striped_matches_naive(self):
        s = striped_set((0, 90), 5, 2)
        box = (0, 50, -4, 5)
        got = progression_pairs(s, 2, 8, box)
        want, excluded = naive.progression_pairs(members_of(s), 0, 90, 2, 8, box)
        assert set(map(tuple, got.pairs.points().tolist())) == want
        assert got.boundary_excluded == excluded

    @given(
        st.integers(-20, 20),
        st.lists(st.booleans(), min_size=1, max_size=30),
        st.integers(1, 3),
        st.integers(1, 4),
        st.tuples(st.integers(-40, 40), st.integers(1, 40)),
        st.tuples(st.integers(-12, 12), st.integers(1, 12)),
    )
    def test_matches_naive_on_any_box(self, lo, bits, radius, span, xs, ys):
        # boxes reach past the union's window on every side
        s = WindowSet1D(lo, lo + len(bits), bits)
        box = (xs[0], xs[0] + xs[1], ys[0], ys[0] + ys[1])
        want, excluded = naive.progression_pairs(
            members_of(s), s.lo, s.hi, radius, span, box
        )
        if excluded == xs[1] * ys[1]:
            with pytest.raises(ConstructionError, match="outside the feasible"):
                progression_pairs(s, radius, span, box)
            return
        got = progression_pairs(s, radius, span, box)
        assert set(map(tuple, got.pairs.points().tolist())) == want
        assert got.boundary_excluded == excluded

    def test_unreachable_box_rejected(self):
        s = WindowSet1D.from_members(0, 10, range(10))
        with pytest.raises(ConstructionError, match="outside the feasible"):
            progression_pairs(s, 1, 3, (500, 520, 1, 5))

    def test_excluded_count_over_a_tall_box(self):
        # 300 step rows over a 100-wide set: only the rows within about
        # +-33 keep a start, so the walk covers a fifth of the box's rows
        s = striped_set((0, 100), 4, 3)
        box = (-10, 110, -150, 150)
        got = progression_pairs(s, 2, 3, box)
        want, excluded = naive.progression_pairs(members_of(s), 0, 100, 2, 3, box)
        assert set(map(tuple, got.pairs.points().tolist())) == want
        assert got.boundary_excluded == excluded

    def test_tall_unreachable_box_refused_at_once(self):
        # 2 * 10**12 step rows: refused before a mask or a row walk
        s = WindowSet1D.from_members(0, 10, range(10))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ConstructionError, match="outside the feasible"):
                progression_pairs(s, 1, 3, (500, 520, -(10**12), 10**12))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.01 and peak < 64 * 1024


def naive_labels(s, pairs, radius, span, steps):
    """Per-pair least verified triple from the brute-force oracle."""
    members = members_of(s)
    return {
        (a, d): ColorTriple(*naive.verified_triple(
            members, s.lo, s.hi, a, d, radius, span, steps
        ))
        for a, d in map(tuple, pairs.points().tolist())
    }


def labels(classes):
    return {
        (a, d): triple
        for triple, cls in classes.items()
        for a, d in map(tuple, cls.points().tolist())
    }


class TestVerifiedTriple:
    """The least verified triple that color_classes assigns to each pair."""

    def test_single_shift_periodic(self):
        s = WindowSet1D.from_members(0, 60, range(60))
        pair = WindowSet2D(*naive.points_in_box(10, 11, 1, 2, [(10, 1)]))
        classes = color_classes(s, pair, radius=1, span=2, steps=2)
        assert classes == {ColorTriple(offset=0, stride=1, shift=1): pair}

    def test_zero_step_takes_least_witnessing_shift(self):
        # 11 is absent, 12 present: the constant progression at 10 needs shift 2
        s = WindowSet1D.from_members(0, 30, [4, 6, 8, 10, 12, 14, 16])
        pair = WindowSet2D(*naive.points_in_box(10, 11, 0, 1, [(10, 0)]))
        classes = color_classes(s, pair, radius=2, span=2, steps=1)
        assert classes == {ColorTriple(offset=0, stride=1, shift=2): pair}

    def test_matches_naive_scan_on_striped(self):
        s = striped_set((0, 90), 4, 2)
        pairs = progression_pairs(s, 2, 8, (0, 40, -3, 4)).pairs
        classes = color_classes(s, pairs, radius=2, span=8, steps=2)
        assert labels(classes) == naive_labels(s, pairs, 2, 8, 2)


class TestColorClasses:
    def test_empty_pairs_give_empty_map(self):
        s = WindowSet1D.from_members(0, 20, range(20))
        assert color_classes(
            s,
            WindowSet2D(0, 5, -1, 2, np.zeros((5, 3), bool)),
            radius=1,
            span=2,
            steps=2,
        ) == {}

    def test_classes_partition_the_pairs(self):
        s = striped_set((0, 120), 5, 2)
        pairs = progression_pairs(s, 2, 8, (0, 60, -3, 4)).pairs
        classes = color_classes(s, pairs, radius=2, span=8, steps=2)
        assert sum(c.count for c in classes.values()) == pairs.count
        union = np.zeros_like(pairs.mask)
        for cls in classes.values():
            assert cls.box == pairs.box
            assert not (union & cls.mask).any()
            union |= cls.mask
        assert np.array_equal(union, pairs.mask)

    def test_agrees_with_per_pair_recomputation(self):
        s = random_sparse_set((0, 150), 0.8, 31)
        pairs = progression_pairs(s, 2, 8, (10, 40, -2, 3)).pairs
        classes = color_classes(s, pairs, radius=2, span=8, steps=2)
        assert labels(classes) == naive_labels(s, pairs, 2, 8, 2)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# every (radius, steps) with a span the tests can search for: spans 1, 2,
# 3, 8, 26 and 34
LABEL_SHAPES = [(r, k) for r in (1, 2, 3) for k in (1, 2, 3) if (r, k) != (3, 3)]


@st.composite
def labelling_cases(draw):
    """A set of width at most 48 near either end of int64 or near 0, often
    dense so that the long spans keep pairs of nonzero step, and a pair box
    reaching past the shifted union's window on every side (within int64)
    and holding steps -1, 0 and 1."""
    radius, steps = draw(st.sampled_from(LABEL_SHAPES))
    width = draw(st.integers(1, 48) | st.integers(36, 48))
    bit = st.sampled_from([True] * 15 + [False]) if draw(st.booleans()) else st.booleans()
    bits = draw(st.lists(bit, min_size=width, max_size=width))
    lo = draw(st.sampled_from([INT64_MIN, -20, INT64_MAX + 1 - width]))
    lo += draw(st.integers(0, 3)) if lo == INT64_MIN else -draw(st.integers(0, 3))
    s = WindowSet1D(lo, lo + width, bits)
    x_lo = max(INT64_MIN, s.lo - radius - draw(st.integers(0, 6)))
    x_hi = min(INT64_MAX, s.hi - 1 + draw(st.integers(0, 6)))
    return s, radius, steps, (x_lo, x_hi, -draw(st.integers(1, 4)), draw(st.integers(2, 5)))


class TestLabelsAgainstTheOracle:
    # spans 34 and 26 keep pairs of step +-1 only on long runs
    @example((WindowSet1D(INT64_MAX - 47, INT64_MAX + 1, [True] * 48), 2, 3,
              (INT64_MAX - 52, INT64_MAX, -2, 3)))
    @example((WindowSet1D(-20, 28, [i % 7 != 3 for i in range(48)]), 3, 2, (-26, 30, -3, 4)))
    @given(labelling_cases())
    def test_each_pair_gets_its_least_verified_triple(self, case):
        s, radius, steps, box = case
        span = vdw_span(radius, steps).span
        try:
            pairs = progression_pairs(s, radius, span, box).pairs
        except ConstructionError:
            # a union window past the int64 end keeps no start in the box
            _, excluded = naive.progression_pairs(members_of(s), s.lo, s.hi, radius, span, box)
            assert excluded == (box[1] - box[0]) * (box[3] - box[2])
            return
        classes = color_classes(s, pairs, radius=radius, span=span, steps=steps)
        assert all(cls.box == pairs.box for cls in classes.values())
        assert sum(cls.count for cls in classes.values()) == pairs.count
        assert labels(classes) == naive_labels(s, pairs, radius, span, steps)

    @pytest.mark.parametrize("box", [
        (10**12, 10**12 + 8, -2, 3),
        (-(10**12), -(10**12) + 8, 0, 1),
        (0, 8, 10**12 - 3, 10**12),
        (99_990, 100_000, -(10**12), -(10**12) + 2),
    ])
    def test_pairs_off_the_feasible_block_are_refused_at_once(self, box):
        # pairs that are not progression pairs, 10**12 from the window or
        # with steps near 10**12: nothing is allocated towards them
        s = striped_set((0, 100_000), 5, 2)
        mask = np.zeros((box[1] - box[0], box[3] - box[2]), bool)
        tracemalloc.start()
        try:
            assert color_classes(s, WindowSet2D(*box, mask), radius=2, span=8, steps=2) == {}
            mask[-1, -1] = mask[1, 0] = True
            with pytest.raises(ValueError, match="^2 of the pairs have a probe outside"):
                color_classes(s, WindowSet2D(*box, mask), radius=2, span=8, steps=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_pairs_past_the_block_in_a_feasible_box_are_refused(self):
        # the box holds progression pairs, and one more pair whose probes
        # leave the union's window
        s = WindowSet1D.from_members(0, 40, range(40))
        ps = progression_pairs(s, 1, 2, (-5, 45, -1, 2))
        mask = ps.pairs.mask.copy()
        mask[-1, 2] = True
        with pytest.raises(ValueError, match="^1 of the pairs have a probe outside"):
            color_classes(s, WindowSet2D(*ps.pairs.box, mask), radius=1, span=2, steps=2)


def naive_extract(classes, radius_2d):
    """Every class scored by the brute-force oracle; the best score, ties
    to the least triple."""
    scores = {
        t: naive.ps_scale_2d(set(map(tuple, c.points().tolist())), c.box, radius_2d)
        for t, c in classes.items()
    }
    order = sorted(classes, key=ColorTriple.sort_key)
    best = max(order, key=lambda t: (scores[t], -order.index(t)))
    return best, classes[best], scores[best]


# classes on boxes of different shapes, up to 6 x 6; full ones reach their
# cap, so that later classes are skipped
sets_2d_small = st.builds(
    lambda xlo, ylo, wx, wy, pick: WindowSet2D(*naive.points_in_box(
        xlo, xlo + wx, ylo, ylo + wy,
        [(xlo + i, ylo + j) for i, j in pick if i < wx and j < wy],
    )),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(1, 6),
    st.integers(1, 6),
    st.one_of(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
        st.just({(i, j) for i in range(6) for j in range(6)}),
    ),
)


class TestPigeonholeExtract:
    def test_single_class(self):
        cls = WindowSet2D(*naive.points_in_box(0, 4, 0, 4, [(1, 1), (1, 2)]))
        triple = ColorTriple(0, 1, 1)
        got = pigeonhole_extract({triple: cls}, 2)
        assert got[0] == triple and got[1] == cls

    def test_empty_class_loses(self):
        full = WindowSet2D(0, 3, 0, 3, np.ones((3, 3), bool))
        got = pigeonhole_extract(
            {
                ColorTriple(0, 1, 1): WindowSet2D(0, 3, 0, 3, np.zeros((3, 3), bool)),
                ColorTriple(1, 1, 1): full,
            },
            1,
        )
        assert got[0] == ColorTriple(1, 1, 1)

    def test_tie_breaks_to_least_triple(self):
        a = WindowSet2D(*naive.points_in_box(0, 3, 0, 3, [(0, 0)]))
        got = pigeonhole_extract(
            {ColorTriple(2, 1, 1): a, ColorTriple(0, 1, 1): a, ColorTriple(0, 1, 2): a},
            1,
        )
        assert got[0] == ColorTriple(0, 1, 1)

    def test_no_classes_rejected(self):
        with pytest.raises(ValueError):
            pigeonhole_extract({}, 1)

    def test_worker_count_below_one_rejected(self):
        cls = WindowSet2D(0, 3, 0, 3, np.ones((3, 3), bool))
        with pytest.raises(ValueError, match="workers"):
            pigeonhole_extract({ColorTriple(0, 1, 1): cls}, 1, workers=0)

    def test_score_matches_brute_force_max(self):
        s = striped_set((0, 120), 6, 2)
        pairs = progression_pairs(s, 2, 8, (0, 60, -3, 4)).pairs
        classes = color_classes(s, pairs, radius=2, span=8, steps=2)
        _, chosen, score = pigeonhole_extract(classes, 3)
        brute = {
            t: naive.ps_scale_2d(set(map(tuple, c.points().tolist())), c.box, 3)
            for t, c in classes.items()
        }
        assert score == max(brute.values())
        assert brute[[t for t, c in classes.items() if c == chosen][0]] == score

    def test_class_at_its_cap_stops_later_ties(self, monkeypatch):
        # a full 3x3 class scores min(3, 3) + 2 - 1 = 4 at radius 2, the
        # most any class on that box can, so the tying class is not scored
        full = WindowSet2D(0, 3, 0, 3, np.ones((3, 3), bool))
        classes = {ColorTriple(0, 1, 1): full, ColorTriple(1, 1, 1): full}
        scored = []
        monkeypatch.setattr(
            pipeline, "ps_scale_2d", lambda m, r: scored.append(m) or ps_scale_2d(m, r)
        )
        got = pigeonhole_extract(classes, 2)
        assert got == naive_extract(classes, 2)
        assert (got[0], got[2]) == (ColorTriple(0, 1, 1), 4)
        assert len(scored) == 1

    def test_class_below_its_cap_is_beaten_at_the_cap(self):
        # a 2x2 block in a 3x3 box scores 3, one below the cap of 4; the
        # full box of a later triple reaches the cap and wins
        block = np.zeros((3, 3), bool)
        block[:2, :2] = True
        classes = {
            ColorTriple(0, 1, 1): WindowSet2D(0, 3, 0, 3, block),
            ColorTriple(0, 2, 1): WindowSet2D(0, 3, 0, 3, np.ones((3, 3), bool)),
        }
        got = pigeonhole_extract(classes, 2)
        assert got == naive_extract(classes, 2)
        assert (got[0], got[2]) == (ColorTriple(0, 2, 1), 4)

    @pytest.mark.parametrize("radius_2d", [1, 2, 3])
    def test_cap_is_per_box(self, radius_2d):
        # a full 2x6 class reaches its own cap, min(2, 6) + radius_2d - 1,
        # which is below what the later 5x5 class scores
        classes = {
            ColorTriple(0, 1, 1): WindowSet2D(0, 2, -3, 3, np.ones((2, 6), bool)),
            ColorTriple(1, 1, 1): WindowSet2D(4, 6, 0, 1, np.ones((2, 1), bool)),
            ColorTriple(0, 1, 2): WindowSet2D(-2, 3, 0, 5, np.ones((5, 5), bool)),
            ColorTriple(0, 2, 2): WindowSet2D(0, 9, 0, 2, np.ones((9, 2), bool)),
        }
        got = pigeonhole_extract(classes, radius_2d)
        assert got == naive_extract(classes, radius_2d)
        assert (got[0], got[2]) == (ColorTriple(0, 1, 2), 5 + radius_2d - 1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 7), sets_2d_small),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 4),
    )
    def test_matches_scoring_every_class(self, picks, radius_2d):
        classes = {ColorTriple(offset, 1, shift): m for offset, shift, m in picks}
        if all(m.is_empty() for m in classes.values()):
            with pytest.raises(ValueError, match="all classes are empty"):
                pigeonhole_extract(classes, radius_2d)
        else:
            assert pigeonhole_extract(classes, radius_2d) == naive_extract(
                classes, radius_2d
            )

    def test_worker_count_does_not_change_result(self):
        s = striped_set((0, 120), 6, 2)
        pairs = progression_pairs(s, 2, 8, (0, 60, -3, 4)).pairs
        classes = color_classes(s, pairs, radius=2, span=8, steps=2)
        assert pigeonhole_extract(classes, 3, workers=1) == pigeonhole_extract(
            classes, 3, workers=4
        )


class TestAffineImage:
    def test_identity_on_members(self):
        m = WindowSet2D(*naive.points_in_box(0, 5, 0, 5, [(1, 2), (3, 4)]))
        got = affine_image(m, AffineMap2D(0, 0, 1))
        assert got.points().tolist() == m.points().tolist()
        # the box always shrinks to the hull of the images
        assert got.box == (1, 4, 2, 5)

    def test_identity_exact_when_members_touch_the_box(self):
        m = WindowSet2D(*naive.points_in_box(0, 5, 0, 5, [(0, 0), (4, 4)]))
        assert affine_image(m, AffineMap2D(0, 0, 1)) == m

    def test_single_point(self):
        m = WindowSet2D(*naive.points_in_box(0, 3, 0, 3, [(1, 2)]))
        got = affine_image(m, AffineMap2D(shear=3, shift=4, scale=5))
        assert [tuple(p) for p in got.points().tolist()] == [(11, 10)]

    def test_injective_on_random_sets(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            mask = rng.random((7, 7)) < 0.5
            m = WindowSet2D(-3, 4, -3, 4, mask)
            amap = AffineMap2D(
                shear=int(rng.integers(-5, 6)),
                shift=int(rng.integers(-5, 6)),
                scale=int(rng.choice([-5, -3, -1, 1, 2, 4])),
            )
            assert affine_image(m, amap).count == m.count

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            AffineMap2D(1, 1, 0)

    def test_empty_set_keeps_transformed_hull(self):
        # an empty set has no hull to transform, so it is refused
        m = WindowSet2D(0, 3, 0, 3, np.zeros((3, 3), bool))
        with pytest.raises(ValueError, match="empty set"):
            affine_image(m, AffineMap2D(1, 0, 2))

    def test_unit_scale_orderings_match_brute_force(self):
        # scale values are only ever asserted after recomputation; check the
        # implementation agrees with the naive path on both sides of a pair
        rng = np.random.default_rng(123)
        for _ in range(10):
            m1 = WindowSet2D(0, 6, 0, 6, rng.random((6, 6)) < 0.6)
            m2 = WindowSet2D(0, 6, 0, 6, rng.random((6, 6)) < 0.6)
            amap = AffineMap2D(
                shear=int(rng.integers(-2, 3)),
                shift=int(rng.integers(-3, 4)),
                scale=int(rng.choice([-1, 1])),
            )
            got = [ps_scale_2d(affine_image(m, amap), 2) for m in (m1, m2)]
            want = [
                naive.ps_scale_2d(
                    set(map(tuple, affine_image(m, amap).points().tolist())),
                    affine_image(m, amap).box,
                    2,
                )
                for m in (m1, m2)
            ]
            assert got == want


# moves of the small 2D sets that keep them in int64, up to either end
int64_moves = (
    st.integers(-50, 50)
    | st.integers(INT64_MIN + 4, INT64_MIN + 60)
    | st.integers(INT64_MAX - 70, INT64_MAX - 10)
)


class TestFgConstruct:
    def test_full_window_tiny_case(self):
        s = WindowSet1D.from_members(0, 50, range(50))
        cert = fg_construct(s, 1, 1)
        pts = cert.ap_pairs.points()
        assert pts.shape[0] > 0
        for a, d in map(tuple, pts.tolist()):
            assert s.contains(a) and s.contains(a + d)

    def test_striped_certificate_verifies(self):
        s = striped_set((0, 300), 5, 2)
        cert = fg_construct(s, 2, 2)
        assert verify_fg(cert, s).passed

    def test_reported_output_scale_is_recomputable(self):
        s = striped_set((0, 200), 4, 2)
        cert = fg_construct(s, 2, 2)
        assert ps_scale_2d(cert.ap_pairs, cert.radius_2d) == cert.length_out

    @given(sets_2d_small, st.integers(1, 4), int64_moves, int64_moves)
    def test_output_scale_is_translation_invariant(self, m, radius, dx, dy):
        # fg_construct reuses the pigeonhole score when its map is a
        # translation; the moved set may sit at either end of int64
        moved = WindowSet2D(m.x_lo + dx, m.x_hi + dx, m.y_lo + dy, m.y_hi + dy, m.mask)
        pts = {(x + dx, y + dy) for x, y in m.points().tolist()}
        want = naive.ps_scale_2d(pts, moved.box, radius)
        assert ps_scale_2d(moved, radius) == ps_scale_2d(m, radius) == want

    def test_membership_guarantee_holds_pointwise(self):
        s = periodic_set((0, 400), 5, [0, 2, 3])
        cert = fg_construct(s, 2, 2)
        pts = cert.ap_pairs.points()
        for a, d in map(tuple, pts.tolist()):
            for i in range(cert.steps + 1):
                assert s.contains(a + i * d)

    def test_deterministic_certificates(self):
        s = striped_set((0, 250), 5, 2)
        assert serialize(fg_construct(s, 2, 2)) == serialize(fg_construct(s, 2, 2))

    def test_not_piecewise_syndetic_rejected(self):
        s = WindowSet1D.from_members(0, 100, [])
        with pytest.raises(ScalePreconditionError):
            fg_construct(s, 2, 2)

    def test_min_length_enforced(self):
        s = WindowSet1D.from_members(0, 100, [50])
        with pytest.raises(ScalePreconditionError) as err:
            fg_construct(s, 1, 1, min_length=10)
        assert err.value.required == 10

    def test_budget_exhaustion_surfaces(self):
        s = striped_set((0, 200), 5, 2)
        with pytest.raises(BudgetExhaustedError):
            fg_construct(s, 2, 2, budget=3)

    def test_one_color_span_builds_no_coloring(self):
        # the one-color answer is a depth and a node count: a coloring of
        # the 4 million positions the budget reaches peaked at 98 MB
        s = striped_set((0, 200), 5, 2)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExhaustedError) as err:
                fg_construct(s, 1, 10**12, budget=4 * 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "van der Waerden search for 1 colors and 1000000000001 terms "
            "exhausted its budget of 4000000 nodes"
        )
        assert peak < 1_000_000

    def test_radius_2d_checked_before_the_search(self, no_search):
        s = striped_set((0, 200), 5, 2)
        for radius, steps, budget in [(3, 3, DEFAULT_BUDGET), (2, 2, 1)]:
            with pytest.raises(ValueError, match="radius_2d must be >= 1, got 0"):
                fg_construct(s, radius, steps, radius_2d=0, budget=budget)

    @pytest.mark.parametrize("steps, budget", [(31, DEFAULT_BUDGET), (2, 1), (10**6, 5)])
    def test_search_past_the_node_bound_fails_at_once(self, no_search, steps, budget):
        s = striped_set((0, 200), 5, 2)
        with pytest.raises(BudgetExhaustedError) as err:
            fg_construct(s, 2, steps, budget=budget)
        assert str(err.value) == (
            f"van der Waerden search for 2 colors and {steps + 1} terms "
            f"exhausted its budget of {budget} nodes"
        )

    def test_explicit_box_respected(self):
        # fg_construct certifies its own box; another box is certified by
        # running the public stages on it
        s = striped_set((0, 300), 5, 2)
        box = (10, 60, -2, 3)
        span = vdw_span(2, 2).span
        pairs = progression_pairs(s, 2, span, box).pairs
        classes = color_classes(s, pairs, radius=2, span=span, steps=2)
        triple, chosen, _ = pigeonhole_extract(classes, span)
        image = affine_image(
            chosen,
            AffineMap2D(shear=triple.offset, shift=triple.shift, scale=triple.stride),
        )
        cert = FgCertificate(
            lo=s.lo,
            hi=s.hi,
            digest=set_digest(s),
            radius=2,
            steps=2,
            radius_2d=span,
            version=VERSION_TAG,
            span=span,
            span_exhaustive=True,
            offset=triple.offset,
            stride=triple.stride,
            shift=triple.shift,
            pair_box=box,
            pair_count=pairs.count,
            class_count=chosen.count,
            ap_pairs=image,
            length_in=max_run_length(shifted_union_1d(s, 2)),
            length_out=ps_scale_2d(image, span),
        )
        assert verify_fg(cert, s).passed
        # the bytes fg_construct wrote for this box when it took a box option
        assert hashlib.sha256(serialize(cert).encode()).hexdigest() == (
            "90c0e5cb371b9ed840618fab9ea9301cb60235fbb47af228c76cef2f39b487b1"
        )


    @pytest.mark.parametrize("t", [-(2**63), -(2**63) + 1, 2**63 - 1 - 300])
    @pytest.mark.parametrize("s, radius, steps", [
        (striped_set((0, 300), 5, 2), 2, 2),
        (periodic_set((0, 300), 5, [0, 2, 3]), 2, 2),
        (striped_set((0, 300), 4, 3), 1, 3),
    ])
    def test_translation_moves_the_certificate(self, s, radius, steps, t):
        # every construction stage commutes with moving the set by t, and
        # the moved set's shifted union may start below -2**63
        moved = WindowSet1D(s.lo + t, s.hi + t, s.mask)
        cert = fg_construct(s, radius, steps)
        x_lo, x_hi, y_lo, y_hi = cert.pair_box
        m = cert.ap_pairs
        want = cert.with_field(
            lo=s.lo + t,
            hi=s.hi + t,
            digest=set_digest(moved),
            pair_box=(x_lo + t, x_hi + t, y_lo, y_hi),
            ap_pairs=WindowSet2D(m.x_lo + t, m.x_hi + t, m.y_lo, m.y_hi, m.mask),
        )
        got = fg_construct(moved, radius, steps)
        assert got == want
        assert verify_fg(got, moved).passed


class TestFindNontrivialAP:
    def test_multiples_of_three(self):
        s = periodic_set((0, 100), 3, [0])
        assert find_nontrivial_ap(s, 3, 1) == APPair(start=0, step=3)

    def test_full_window_least_pair(self):
        s = WindowSet1D.from_members(5, 25, range(5, 25))
        assert find_nontrivial_ap(s, 1, 1) == APPair(start=5, step=1)

    def test_returned_pair_always_verifies(self):
        for seed in range(8):
            s = random_sparse_set((0, 300), 0.9, seed)
            if ps_scale_1d(s, 2) < 9:
                continue
            pair = find_nontrivial_ap(s, 2, 2)
            assert pair.step != 0
            for i in range(3):
                assert s.contains(pair.start + i * pair.step)

    def test_search_past_the_node_bound_fails_at_once(self, no_search):
        s = striped_set((0, 200), 5, 2)
        with pytest.raises(BudgetExhaustedError) as err:
            find_nontrivial_ap(s, 2, 31)
        assert str(err.value) == (
            "van der Waerden search for 2 colors and 32 terms "
            f"exhausted its budget of {DEFAULT_BUDGET} nodes"
        )

    def test_scale_precondition_names_required_length(self):
        s = periodic_set((0, 100), 3, [0])
        with pytest.raises(ScalePreconditionError) as err:
            find_nontrivial_ap(s, 1, 1)
        assert err.value.required == 2
        assert "2" in str(err.value)

    def test_short_union_refused_before_any_search(self, no_search):
        # W(3, 4) = 293 is far out of reach, but a longest run of 3 is
        # already shorter than the bound radius*steps + 1 = 10
        s = WindowSet1D.from_members(0, 10, [3])
        t0 = time.perf_counter()
        with pytest.raises(ScalePreconditionError) as err:
            find_nontrivial_ap(s, 3, 3)
        assert time.perf_counter() - t0 < 1.0
        assert (err.value.required, err.value.achieved) == (10, 3)

    @pytest.mark.parametrize("radius,steps", [(1, 1), (2, 1), (2, 3), (3, 2), (4, 4)])
    def test_refusal_bound_never_exceeds_the_vdw_number(self, radius, steps):
        # color c on positions [(c-1)*steps, c*steps): no block holds
        # steps + 1 terms, so W(radius, steps + 1) > radius*steps
        values = tuple(c for c in range(1, radius + 1) for _ in range(steps))
        assert find_mono_ap(Coloring(values, radius), steps + 1) is None


class TestPartitionExtract:
    def test_single_cell_wins_with_own_scale(self):
        s = striped_set((0, 150), 5, 2)
        got = partition_extract(s, [s], 2)
        assert got.index == 0
        assert got.scale.length == ps_scale_1d(s, got.scale.radius)
        assert is_ps_at_scale(s, got.scale) is not None

    def test_even_odd_split_of_striped_set(self):
        s = striped_set((0, 200), 6, 2)
        members = s.members().tolist()
        evens = WindowSet1D.from_members(0, 200, [m for m in members if m % 2 == 0])
        odds = WindowSet1D.from_members(0, 200, [m for m in members if m % 2 == 1])
        got = partition_extract(s, [evens, odds], 2)
        cells = [evens, odds]
        brute = [
            naive.ps_scale_1d(set(c.members().tolist()), 0, 200, 8) for c in cells
        ]
        assert got.scores == tuple(brute)
        assert got.index == max(range(2), key=lambda i: (brute[i], -i))
        assert is_ps_at_scale(cells[got.index], got.scale) is not None

    def test_scores_match_independent_recomputation(self):
        s = periodic_set((0, 240), 4, [0, 1, 2])
        members = s.members().tolist()
        cells = [
            WindowSet1D.from_members(0, 240, [m for m in members if m % 3 == r])
            for r in range(3)
        ]
        got = partition_extract(s, cells, 2)
        brute = tuple(
            naive.ps_scale_1d(set(c.members().tolist()), 0, 240, 8) for c in cells
        )
        assert got.scores == brute

    def test_witness_reverifies_on_named_cell(self):
        s = striped_set((0, 180), 4, 2)
        members = s.members().tolist()
        cells = [
            WindowSet1D.from_members(0, 180, [m for m in members if m % 4 == r])
            for r in range(4)
        ]
        got = partition_extract(s, cells, 2)
        assert is_ps_at_scale(cells[got.index], got.scale) is not None

    def test_rejects_overlapping_cells(self):
        s = WindowSet1D.from_members(0, 10, [1, 2, 3])
        a = WindowSet1D.from_members(0, 10, [1, 2])
        b = WindowSet1D.from_members(0, 10, [2, 3])
        with pytest.raises(PartitionError):
            partition_extract(s, [a, b], 1)

    def test_rejects_incomplete_cover(self):
        s = WindowSet1D.from_members(0, 10, [1, 2, 3])
        a = WindowSet1D.from_members(0, 10, [1])
        with pytest.raises(PartitionError):
            partition_extract(s, [a], 1)

    def test_rejects_a_cell_repeated_past_the_int16_range(self):
        # 65,537 copies of {0} would wrap a 16-bit count back to one
        s = WindowSet1D.from_members(0, 1, [0])
        with pytest.raises(PartitionError):
            partition_extract(s, [s] * 65_537, 1)

    def test_rejects_foreign_points(self):
        s = WindowSet1D.from_members(0, 10, [1, 2])
        a = WindowSet1D.from_members(0, 10, [1, 2, 5])
        with pytest.raises(PartitionError):
            partition_extract(s, [a], 1)
