import tracemalloc

import pytest
from hypothesis import given, strategies as st

from syndetic.generators import (
    gen_example,
    periodic_set,
    random_sparse_set,
    striped_set,
    thick_blocks_set,
)
from syndetic.windows import (
    Scale,
    WindowError,
    is_ps_at_scale,
    max_run_length,
    ps_scale_1d,
)


def test_periodic_evens():
    s = periodic_set((0, 20), 2, [0])
    assert s.members().tolist() == list(range(0, 20, 2))


def test_periodic_absolute_residues():
    s = periodic_set((-5, 5), 3, [1])
    assert s.members().tolist() == [-5, -2, 1, 4]


def test_striped_design_scale():
    s = gen_example("ps-striped", {"window": (0, 100), "block": 5, "gap": 2}, 0)
    assert is_ps_at_scale(s, Scale(2, 50)) is not None


def test_striped_gap_one_is_full():
    s = striped_set((0, 30), 4, 1)
    assert s.count == 30


def test_striped_member_gaps_bounded():
    s = striped_set((0, 200), 3, 4)
    members = s.members().tolist()
    jumps = [b - a for a, b in zip(members, members[1:])]
    assert max(jumps) == 4


def test_thick_blocks_runs_grow_and_gaps_grow():
    s = thick_blocks_set((0, 500), 2, 3)
    members = s.members().tolist()
    jumps = [b - a for a, b in zip(members, members[1:])]
    gaps = sorted(j - 1 for j in jumps if j > 1)
    assert max_run_length(s) >= 6
    assert len(set(gaps)) >= 3  # gap lengths keep growing
    assert gaps == sorted(gaps)


def test_thick_blocks_not_syndetic_at_small_radius():
    s = thick_blocks_set((0, 2000), 1, 5)
    # radius 5 cannot bridge the later, longer gaps, so no long run appears
    assert ps_scale_1d(s, 5) < 100


def test_random_sparse_density_and_determinism():
    a = random_sparse_set((0, 5000), 0.3, 123)
    b = random_sparse_set((0, 5000), 0.3, 123)
    c = random_sparse_set((0, 5000), 0.3, 124)
    assert a == b
    assert a != c
    assert 0.2 < a.count / 5000 < 0.4


def test_gen_example_same_seed_identical():
    p = {"window": (0, 1000), "density": 0.5}
    assert gen_example("random-sparse", p, 9) == gen_example("random-sparse", p, 9)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("periodic", {"window": (0, 10), "period": 0, "residues": [0]}),
        ("periodic", {"window": (0, 10), "period": 3, "residues": [3]}),
        ("ps-striped", {"window": (0, 10), "block": 0, "gap": 1}),
        ("ps-striped", {"window": (0, 10), "block": 2, "gap": 0}),
        ("thick-blocks", {"window": (0, 10), "block": 1, "gap": 0}),
        ("random-sparse", {"window": (0, 10), "density": 0.0}),
        ("random-sparse", {"window": (0, 10), "density": 1.5}),
        ("periodic", {"window": (10, 10), "period": 2, "residues": [0]}),
        ("periodic", {"window": (0, 10), "period": 2}),
        ("random-sparse", {"window": (0, 10), "density": 0.5, "block": 1}),
    ],
)
def test_invalid_params_rejected(kind, params):
    with pytest.raises(ValueError):
        gen_example(kind, params, 0)


def test_negative_seed_named():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        random_sparse_set((0, 50), 0.5, -1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown generator kind"):
        gen_example("mystery", {"window": (0, 10)}, 0)


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize(
    "kind,params",
    [
        ("ps-striped", {"block": 5, "gap": 2}),
        ("periodic", {"period": 3, "residues": [0]}),
        ("thick-blocks", {"block": 1, "gap": 1}),
        ("random-sparse", {"density": 0.5}),
    ],
)
@pytest.mark.parametrize(
    "window",
    [
        (INT64_MAX, INT64_MAX + 10),
        # hi itself must be an int64 value, as in a set document
        (INT64_MAX - 2, INT64_MAX + 1),
        (-(2**63) - 1, -(2**63) + 5),
        # refused before anything of the window's width is allocated
        (2**63, 2**63 + 10**18),
    ],
)
def test_window_outside_int64_rejected(kind, params, window):
    with pytest.raises(ValueError, match="leaves the int64 range"):
        gen_example(kind, {"window": window, **params}, 0)


@pytest.mark.parametrize("make", [
    lambda w: striped_set(w, 5, 2),
    lambda w: periodic_set(w, 3, [0]),
    lambda w: thick_blocks_set(w, 1, 1),
    lambda w: random_sparse_set(w, 0.5, 0),
])
def test_direct_call_outside_int64_is_a_window_error(make):
    with pytest.raises(WindowError, match="leaves the int64 range"):
        make((2**63, 2**63 + 3))


@pytest.mark.parametrize("lo", [-(2**63), -7, 0, 5, INT64_MAX - 40])
def test_structured_sets_at_the_int64_ends(lo):
    # residues and stripes count from the window's own integers, wherever
    # the window lies
    w = (lo, lo + 40)
    assert periodic_set(w, 3, [1]).members().tolist() == [
        m for m in range(*w) if m % 3 == 1
    ]
    assert striped_set(w, 5, 3).members().tolist() == [
        m for m in range(*w) if (m - lo) % 7 < 5
    ]


INT64_MIN = -(2**63)


@st.composite
def windows(draw):
    """Windows near 0 and windows touching either int64 end."""
    width = draw(st.integers(1, 300))
    where = draw(st.sampled_from(["zero", "bottom", "top"]))
    if where == "zero":
        lo = draw(st.integers(-400, 400))
    elif where == "bottom":
        lo = INT64_MIN + draw(st.integers(0, 3))
    else:
        lo = INT64_MAX - width - draw(st.integers(0, 3))
    return lo, lo + width


def lengths(width):
    """From 1 to past the window's width, plus 10^12 and a length past int64."""
    return st.one_of(st.integers(1, 2 * width + 3), st.sampled_from([10**12, 10**20]))


@given(st.data())
def test_periodic_matches_its_definition(data):
    lo, hi = data.draw(windows())
    period = data.draw(lengths(hi - lo))
    # residues of members of the window, so that large periods hit too
    hits = data.draw(st.lists(st.integers(lo, hi - 1), max_size=4))
    others = data.draw(st.lists(st.integers(0, period - 1), max_size=3))
    res = [m % period for m in hits] + others
    s = periodic_set((lo, hi), period, res)
    assert s.members().tolist() == [m for m in range(lo, hi) if m % period in res]


@given(st.data())
def test_striped_matches_its_definition(data):
    lo, hi = data.draw(windows())
    block = data.draw(lengths(hi - lo))
    gap = data.draw(lengths(hi - lo))
    s = striped_set((lo, hi), block, gap)
    assert s.members().tolist() == [
        m for m in range(lo, hi) if (m - lo) % (block + gap - 1) < block
    ]


@pytest.mark.parametrize("make", [
    lambda w: striped_set(w, 5, 2),
    lambda w: periodic_set(w, 6, [0, 2, 4]),
    lambda w: thick_blocks_set(w, 3, 2),
])
def test_a_million_cells_build_without_a_window_wide_grid(make):
    # one byte per cell: the set adopts the mask its generator builds
    window = (0, 10**6)
    make(window)
    tracemalloc.start()
    try:
        make(window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000
