import hashlib
import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import naive
from syndetic import vdw
from syndetic.vdw import (
    APIndex,
    Coloring,
    MonoAP,
    SpanResult,
    find_mono_ap,
    search_exceeds,
    vdw_number,
    vdw_span,
)

# the extremal W(3,3) coloring of a search over every relabelling of the
# colors; restricting the search to restricted-growth strings keeps it
W33_EXTREMAL = (
    1, 1, 2, 2, 1, 1, 2, 3, 2, 3, 3, 1, 3, 1, 1, 2, 1, 2, 2, 3, 1, 3, 3, 2, 3, 2,
)

# REANCHOR_BUDGETS[(colors, terms)][j] is the budget whose last node first
# places position 2**j, where top re-anchors and the search's plan grows.
# A shape stops short where its walk never places 2**j: (2, 3), (3, 3) and
# (2, 4) have no such position, and (4, 3) places 64 only past a million
# nodes
REANCHOR_BUDGETS = {
    (2, 3): (2, 4, 6),
    (2, 4): (2, 3, 6, 11, 39, 112),
    (2, 5): (2, 3, 6, 10, 20, 240, 3565),
    (2, 6): (2, 3, 5, 10, 20, 67, 111),
    (2, 7): (2, 3, 5, 10, 19, 37, 161),
    (3, 3): (2, 4, 6, 16, 29),
    (3, 4): (2, 3, 6, 11, 24, 54, 234),
    (3, 5): (2, 3, 6, 10, 20, 45, 90),
    (3, 6): (2, 3, 5, 10, 20, 44, 89),
    (3, 7): (2, 3, 5, 10, 19, 37, 82),
    (4, 3): (2, 4, 6, 16, 29, 748),
    (4, 4): (2, 3, 6, 11, 24, 54, 116),
    (4, 5): (2, 3, 6, 10, 20, 45, 90),
    (4, 6): (2, 3, 5, 10, 20, 44, 89),
    (4, 7): (2, 3, 5, 10, 19, 37, 82),
}


def at_reanchor_budgets(test):
    """Give ``test`` each re-anchoring budget, and the budget past it, as
    an explicit example."""
    for (colors, terms), budgets in REANCHOR_BUDGETS.items():
        for b in budgets:
            test = example(colors, terms, b)(test)
            test = example(colors, terms, b + 1)(test)
    return test


# sha256 of dump_vdw_result(vdw_number(colors, terms, budget)) for capped
# searches deeper than the naive walk is fuzzed
CAPPED_PINS = {
    (2, 5, 200_000): "312235236226fae3dc777e7db1a541211c7fece337bb3e0f28bebf6e514147c3",
    (3, 4, 100_000): "5d27b60be1c9b4e039ef300d4cab332bab7004689cae5829bd9dc1e8637a62a4",
    (4, 3, 100_000): "b41b3d924051858d90f3769b56334d8bc77e0aa6509b8e0f57cad1222c5f7f66",
    (2, 21, 10_000): "f7ad2866b72c6a6a0325cce82a619062dc6ed7f73c481ad553709a20d4c8cdc0",
    # the benchmark's capped W(2, 5): n 177
    (2, 5, 2_000_000): "b964101342636f2bf689021c7bed37f45d23886fbd49c05c7caf15fdffb413be",
}

colorings = st.builds(
    lambda r, vals: Coloring(tuple(v % r + 1 for v in vals), r),
    st.integers(1, 4),
    st.lists(st.integers(0, 3), max_size=200),
)


class TestFindMonoAP:
    def test_alternating_parity_class(self):
        c = Coloring((1, 2, 1, 2, 1, 2, 1, 2), 2)
        got = find_mono_ap(c, 3)
        assert got == MonoAP(APIndex(start=0, step=2, terms=3), color=1)

    def test_rainbow_has_no_pair(self):
        c = Coloring((1, 2, 3, 4, 5), 5)
        assert find_mono_ap(c, 2) is None

    def test_every_two_coloring_of_nine_has_triple(self):
        for values in itertools.product((1, 2), repeat=9):
            assert find_mono_ap(Coloring(values, 2), 3) is not None

    def test_more_terms_than_positions(self):
        assert find_mono_ap(Coloring((1, 1), 2), 3) is None

    def test_single_term(self):
        assert find_mono_ap(Coloring((2, 1), 2), 1) == MonoAP(APIndex(0, 1, 1), 2)
        assert find_mono_ap(Coloring((), 2), 1) is None

    @given(colorings, st.integers(1, 5))
    def test_matches_naive_least_hit(self, c, terms):
        got = find_mono_ap(c, terms)
        want = naive.find_mono_ap(c.values, terms)
        if want is None:
            assert got is None
        else:
            start, step, color = want
            assert (got.ap.start, got.ap.step, got.color) == (start, step, color)

    def test_deep_extremal_check_is_fast(self):
        # the 8,121 positions of a capped W(2, 21) search: a scan of every
        # (step, start) pair took about 1.8 s on a 2-vCPU Xeon
        coloring = vdw_number(2, 21, 10_000).extremal
        t0 = time.perf_counter()
        assert find_mono_ap(coloring, 21) is None
        assert time.perf_counter() - t0 < 0.5

    def test_random_colorings_of_nine_always_hit(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            values = tuple(int(v) for v in rng.integers(1, 3, size=9))
            assert find_mono_ap(Coloring(values, 2), 3) is not None


class TestVdwNumber:
    def test_one_color_is_terms(self):
        for terms in range(1, 11):
            assert vdw_number(1, terms).n == terms

    def test_two_terms_is_pigeonhole(self):
        for colors in range(1, 11):
            assert vdw_number(colors, 2).n == colors + 1

    def test_two_three_is_nine(self):
        res = vdw_number(2, 3)
        assert res.n == 9
        assert res.exhaustive
        assert res.extremal.n == 8
        assert find_mono_ap(res.extremal, 3) is None

    def test_agrees_with_full_enumeration_up_to_twelve(self):
        # depth of the DFS equals the largest N that admits a valid coloring
        res = vdw_number(2, 3)
        deepest = res.n - 1
        for n in range(1, 13):
            expect = n > deepest
            assert naive.every_coloring_has_mono_ap(2, 3, n) == expect

    def test_extremal_is_lexicographically_least(self):
        res = vdw_number(2, 3)
        best = None
        for values in itertools.product((1, 2), repeat=8):
            if values[0] != 1:
                continue
            if naive.find_mono_ap(values, 3) is None:
                best = values
                break
        assert res.extremal.values == best

    def test_deterministic_rerun(self):
        a = vdw_number(3, 3)
        b = vdw_number(3, 3)
        assert a == b

    def test_budget_exhaustion_keeps_a_verified_lower_bound(self):
        res = vdw_number(3, 4, budget=10)
        assert not res.exhaustive
        assert res.budget_spent == 10
        assert res.n - 1 == res.extremal.n
        assert find_mono_ap(res.extremal, 4) is None

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            vdw_number(2, 3, budget=0)
        with pytest.raises(ValueError):
            vdw_number(0, 3)
        with pytest.raises(ValueError):
            vdw_number(2, 0)

    def test_vdw_search_skipped_only_past_the_budget(self):
        # budgets on both sides of 2**(terms - 1) - 1; one color needs no search
        skipped = set()
        for colors in range(1, 4):
            for terms in range(2, 8):
                for budget in range(1, 2 ** (terms - 1) + 2):
                    if search_exceeds(colors, terms, budget):
                        skipped.add(colors)
                        res = vdw_number(colors, terms, budget)
                        assert not res.exhaustive, (colors, terms, budget)
        assert skipped == {2, 3}

    def test_monotone_in_colors_and_terms(self):
        known = {
            (1, 3): vdw_number(1, 3).n,
            (2, 3): vdw_number(2, 3).n,
            (3, 3): vdw_number(3, 3).n,
            (1, 4): vdw_number(1, 4).n,
            (2, 4): vdw_number(2, 4).n,
        }
        assert known[(1, 3)] <= known[(2, 3)] <= known[(3, 3)]
        assert known[(1, 4)] <= known[(2, 4)]
        assert known[(2, 3)] <= known[(2, 4)]


class TestRestrictedGrowth:
    @pytest.mark.parametrize(
        "colors, terms",
        [(1, t) for t in range(1, 9)]
        + [(c, 2) for c in range(2, 7)]
        + [(2, 3)]
        + [(c, 1) for c in range(2, 5)],
    )
    def test_matches_search_over_every_relabelling(self, colors, terms):
        res = vdw_number(colors, terms)
        assert (res.n, res.extremal.values) == naive.least_extremal(colors, terms)
        if terms == 1:
            # W(c, 1) = 1: the one node places color 1 and closes at once
            assert res.budget_spent == 1

    def test_three_three_extremal_is_unchanged(self):
        res = vdw_number(3, 3)
        assert res.n == 27
        assert res.extremal.values == W33_EXTREMAL

    def test_node_counts(self):
        assert vdw_number(3, 3).budget_spent == 337_640
        assert vdw_number(2, 4).budget_spent == 20_351
        assert vdw_number(10, 2).budget_spent <= 100

    @given(st.integers(2, 4), st.integers(2, 7), st.integers(1, 5_000))
    @at_reanchor_budgets
    def test_search_matches_naive_walk(self, colors, terms, budget):
        best, nodes, exhausted = vdw._search(colors, terms, budget)
        assert (best, nodes, exhausted) == naive.vdw_search(colors, terms, budget)

    def test_reanchor_budgets_first_place_their_positions(self):
        for (colors, terms), budgets in REANCHOR_BUDGETS.items():
            for j, b in enumerate(budgets):
                assert len(naive.vdw_search(colors, terms, b - 1)[0]) == 2**j
                assert len(naive.vdw_search(colors, terms, b)[0]) == 2**j + 1

    @given(st.integers(3, 4), st.integers(3, 4), st.integers(1, 20_000))
    def test_budget_limited_colorings_grow_by_one(self, colors, terms, budget):
        values = vdw_number(colors, terms, budget).extremal.values
        assert naive.find_mono_ap(values, terms) is None
        assert values[0] == 1
        for i in range(1, len(values)):
            assert values[i] <= 1 + max(values[:i])

    def test_deep_search_memory_is_quadratic_in_depth(self):
        # 2,000 nodes of W(2, 21) reach depth 1,706; a tail table with one
        # mask of i bits per step at each depth i peaked at about 13 MB
        tracemalloc.start()
        try:
            res = vdw_number(2, 21, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.n, res.exhaustive, res.budget_spent) == (1707, False, 2000)
        assert peak < 2_000_000

    def test_classes_are_allocated_on_first_use(self):
        # 10 nodes of W(2, 3000) reach depth 10; allocating every step's
        # residue classes before the first node took 1.9 s and a 109 MB
        # peak on a 2-vCPU Xeon
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            res = vdw_number(2, 3000, 10)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.n, res.exhaustive, res.budget_spent) == (11, False, 10)
        assert peak < 2_000_000
        assert elapsed < 0.5

    def test_state_is_kept_per_color_reached(self):
        # 10 nodes let in at most 11 colors; keeping state for every allowed
        # color peaked at 8.4 MB for this call, and needs about 9 GB at 10**8
        tracemalloc.start()
        try:
            res = vdw_number(10**5, 3, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        few = vdw_number(11, 3, 10)
        assert (res.n, res.extremal.values, res.exhaustive, res.budget_spent) == (
            few.n, few.extremal.values, few.exhaustive, few.budget_spent
        )


class TestCappedSearches:
    @pytest.mark.parametrize("colors, terms, budget", list(CAPPED_PINS))
    def test_result_document_is_pinned(self, colors, terms, budget):
        res = vdw_number(colors, terms, budget)
        assert not res.exhaustive
        text = vdw.dump_vdw_result(res)
        assert hashlib.sha256(text.encode()).hexdigest() == CAPPED_PINS[
            (colors, terms, budget)
        ]


class TestOneColor:
    """W(1, t) = t is answered without a search, as the search would."""

    @given(st.integers(1, 60), st.integers(1, 70))
    def test_budget_semantics(self, terms, budget):
        vdw._EXHAUSTIVE_CACHE.pop((1, terms), None)
        res = vdw_number(1, terms, budget)
        if budget >= terms:
            want = (terms, (1,) * (terms - 1), True, terms)
        else:
            want = (budget + 1, (1,) * budget, False, budget)
        assert (res.n, res.extremal.values, res.exhaustive, res.budget_spent) == want
        assert find_mono_ap(res.extremal, terms) is None

    def test_cached_result_needs_the_budget_it_cost(self):
        vdw._EXHAUSTIVE_CACHE.pop((1, 10), None)
        assert vdw_number(1, 10, 20).exhaustive
        assert not vdw_number(1, 10, 9).exhaustive
        assert vdw_number(1, 10, 10).exhaustive

    def test_a_million_terms_needs_no_search(self):
        # a search costs O(terms**2) here: hours at a million terms
        t0 = time.perf_counter()
        res = vdw_number(1, 10**6)
        assert time.perf_counter() - t0 < 2.0
        assert (res.n, res.extremal.n, res.exhaustive) == (10**6, 10**6 - 1, True)


class TestVdwSpan:
    def test_single_color(self):
        assert vdw_span(1, 2).span == 2

    @pytest.mark.parametrize("steps", range(12))
    def test_one_color_span_is_the_one_color_number(self, steps):
        for budget in range(1, 15):
            res = vdw_number(1, steps + 1, budget)
            assert vdw_span(1, steps, budget) == SpanResult(
                span=res.n - 1, exhaustive=res.exhaustive, budget_spent=res.budget_spent
            )

    @pytest.mark.parametrize("colors, steps, budget", [(0, 2, 5), (1, -1, 5), (1, 2, 0)])
    def test_argument_errors_are_those_of_vdw_number(self, colors, steps, budget):
        with pytest.raises(ValueError) as want:
            vdw_number(colors, steps + 1, budget)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            vdw_span(colors, steps, budget)

    def test_two_colors_two_steps(self):
        got = vdw_span(2, 2)
        assert got.span == 8
        assert got.exhaustive

    def test_forced_progressions_on_span(self):
        # every coloring of 0..span must contain a steps+1 term progression
        span = vdw_span(2, 2).span
        for values in itertools.product((1, 2), repeat=span + 1):
            assert naive.find_mono_ap(values, 3) is not None
