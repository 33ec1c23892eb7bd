import math

import numpy as np
import pytest
from helpers import nearest_qam, se_order_walk
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo3d.modem import build_qam, se_order, slice_pam


def test_qpsk_levels():
    c = build_qam(4)
    assert np.allclose(c.pam.level_tuple, [-1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_16qam_levels():
    c = build_qam(16)
    assert np.allclose(c.pam.level_tuple, np.array([-3, -1, 1, 3]) / math.sqrt(10))


@pytest.mark.parametrize("m", [4, 16, 64])
def test_unit_average_energy(m):
    c = build_qam(m)
    assert len(c.points) == m
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("m", [4, 16, 64])
def test_points_are_pam_product(m):
    c = build_qam(m)
    rebuilt = np.array([a + 1j * b for a in c.pam.level_tuple for b in c.pam.level_tuple])
    assert np.array_equal(c.points, rebuilt)


# 16.0 used to die in math.isqrt with a TypeError naming no argument
@pytest.mark.parametrize("m", [2, 8, 32, 256, 0, 16.0, True, np.float64(16.0), np.bool_(True),
                               [16]], ids=repr)
def test_build_qam_rejects(m):
    build_qam(np.int64(16))  # an equal NumPy integer's cache entry must not answer
    with pytest.raises(ValueError, match="order"):
        build_qam(m)


@pytest.mark.parametrize("m", [np.int64(16), np.uint8(4), np.int32(64)], ids=repr)
def test_build_qam_gives_one_object_per_order(m):
    # a NumPy integer used to get an object of its own, which passed the
    # decoders' identity check as a second "own" constellation
    assert build_qam(m) is build_qam(int(m))


def test_slice_tie_goes_to_smaller_level():
    pam = build_qam(4).pam
    assert slice_pam(0.0, pam) == pam.level_tuple[0]
    pam16 = build_qam(16).pam
    assert slice_pam(0.0, pam16) == pam16.level_tuple[1]  # -1/sqrt(10)


def test_slice_clips_to_extreme_levels():
    pam = build_qam(16).pam
    assert slice_pam(10.0, pam) == pam.level_tuple[-1]
    assert slice_pam(-10.0, pam) == pam.level_tuple[0]


def test_slice_small_perturbation():
    pam = build_qam(16).pam
    eps = 0.2 * pam.spacing
    for level in pam.level_tuple:
        assert slice_pam(level + eps, pam) == level
        assert slice_pam(level - eps, pam) == level


def test_se_order_first_element_is_slice():
    rng = np.random.default_rng(7)
    for m in (4, 16, 64):
        pam = build_qam(m).pam
        for x in rng.standard_normal(100_000 // 3) * 2.0:
            x = float(x)
            assert se_order(x, pam)[0] == slice_pam(x, pam)


def test_se_order_at_constellation_point():
    pam = build_qam(16).pam
    for level in pam.level_tuple:
        assert se_order(level, pam)[0] == level


def test_se_order_zero_estimate_16qam():
    pam = build_qam(16).pam
    s = 1 / math.sqrt(10)
    assert se_order(0.0, pam) == (-s, s, -3 * s, 3 * s)


def test_se_order_distances_nondecreasing():
    rng = np.random.default_rng(8)
    for m in (4, 16, 64):
        pam = build_qam(m).pam
        for x in rng.standard_normal(2000) * 3.0:
            order = se_order(float(x), pam)
            dists = [abs(x - lvl) for lvl in order]
            assert all(a <= b for a, b in zip(dists, dists[1:]))


def test_se_order_matches_sort_oracle():
    rng = np.random.default_rng(9)
    for m in (4, 16, 64):
        pam = build_qam(m).pam
        for x in rng.standard_normal(3000) * 2.5:
            x = float(x)
            oracle = tuple(sorted(pam.level_tuple, key=lambda lvl: (abs(x - lvl), lvl)))
            assert se_order(x, pam) == oracle


def test_se_order_returns_stored_tuples():
    pam = build_qam(16).pam
    assert pam.spacing == pam.level_tuple[1] - pam.level_tuple[0]
    stored = {id(order) for pair in pam.se_orders for order in pair}
    for x in np.linspace(-2.0, 2.0, 401):
        assert id(se_order(float(x), pam)) in stored
        assert se_order(x, pam) is se_order(float(x), pam)  # NumPy scalars too


@pytest.mark.parametrize("m", [4, 16, 64])
def test_se_order_tables_match_walk_on_random_points(m):
    pam = build_qam(m).pam
    rng = np.random.default_rng(11)
    xs = (rng.standard_normal(100_000) * 1.5).tolist()
    assert [x for x in xs if se_order(x, pam) != se_order_walk(x, pam)] == []


def _near_levels_and_midpoints(pam, ulps=40):
    """Every level and every midpoint, each with its ``ulps`` neighbouring
    floats on both sides."""
    levels = pam.level_tuple
    probes = []
    for centre in levels + tuple((a + b) / 2 for a, b in zip(levels, levels[1:])):
        probes.append(centre)
        lo = hi = centre
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            probes += (lo, hi)
    return probes


@pytest.mark.parametrize("m", [4, 16])
def test_se_order_tables_match_walk_near_levels_and_midpoints(m):
    pam = build_qam(m).pam
    probes = _near_levels_and_midpoints(pam)
    assert [x for x in probes if se_order(x, pam) != se_order_walk(x, pam)] == []


def test_se_order_64qam_near_levels_and_midpoints_nondecreasing():
    # The 64-QAM levels are uniform only up to their own rounding, so within
    # an ulp or two of a level two neighbours at rounded distances one ulp
    # apart can come in the other order than a walk over rounded distances
    # puts them; distances are nondecreasing up to that rounding.
    pam = build_qam(64).pam
    tol = math.ulp(pam.level_tuple[-1])
    for x in _near_levels_and_midpoints(pam):
        order = se_order(x, pam)
        assert order[0] == slice_pam(x, pam)
        assert sorted(order) == list(pam.level_tuple)
        dists = [abs(x - lvl) for lvl in order]
        assert all(b >= a - tol for a, b in zip(dists, dists[1:])), x


@st.composite
def near_level_or_midpoint(draw, m):
    """A point up to 64 ``math.nextafter`` steps from a PAM level or
    midpoint, or anywhere in twice the PAM range."""
    levels = build_qam(m).pam.level_tuple
    centres = levels + tuple((a + b) / 2 for a, b in zip(levels, levels[1:]))
    x = draw(st.sampled_from(centres))
    steps = draw(st.integers(-64, 64))
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return draw(st.just(x) | st.floats(2 * levels[0], 2 * levels[-1]))


@pytest.mark.parametrize("m", [4, 16])
@settings(max_examples=300)
@given(data=st.data())
def test_se_order_equals_walk_property(m, data):
    pam = build_qam(m).pam
    x = data.draw(near_level_or_midpoint(m))
    assert se_order(x, pam) == se_order_walk(x, pam)


@settings(max_examples=300)
@given(x=near_level_or_midpoint(64))
def test_se_order_64qam_within_one_ulp_of_walk_property(x):
    # the one-ulp exception in the se_order docstring: position by position,
    # the two orders' distances from x differ by at most one ulp
    pam = build_qam(64).pam
    got, want = se_order(x, pam), se_order_walk(x, pam)
    assert got[0] == want[0] and sorted(got) == sorted(want)
    tol = math.ulp(pam.level_tuple[-1])
    assert all(abs(abs(x - a) - abs(x - b)) <= tol for a, b in zip(got, want))


def test_nearest_qam_fixed_points():
    c = build_qam(16)
    for p in c.points:
        assert nearest_qam(p, c) == p


def test_nearest_qam_tie():
    c = build_qam(4)
    s = 1 / math.sqrt(2)
    assert nearest_qam(0j, c) == complex(-s, -s)


def test_nearest_qam_matches_exhaustive_argmin():
    rng = np.random.default_rng(10)
    for m in (4, 16, 64):
        c = build_qam(m)
        for _ in range(500):
            z = complex(rng.standard_normal(), rng.standard_normal()) * 1.5
            expected = c.points[int(np.argmin(np.abs(z - c.points)))]
            assert nearest_qam(z, c) == expected
