import contextvars
import copy
import gc
import math
import struct

import numpy as np
import pytest
from helpers import (
    assert_certified_ml,
    branch_oracle,
    centred_search_reference,
    column_switch_reference,
    leaf_bound,
    leaf_bound_sums,
    parallel_decisions_lockstep,
    random_branch_fixture,
    random_instance,
    se_order_walk,
    slice_index_walk,
    tree_pattern_r,
    tree_search_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo3d import build_qam, derive_rng, make_equivalent, sample_channel, snr_to_sigma2
from mimo3d.counters import OpCounters, charge_rotation
import mimo3d.decoders as decoders_module
from mimo3d.decoders import REGISTRY, get_decoder, verify_r_structure
import mimo3d.decoders.simplified as simplified_module
from mimo3d.decoders.bruteforce import ml_bruteforce
from mimo3d.decoders.simplified import (
    ALLOWED_ORDERS,
    cancel,
    column_switch,
    compute_v,
    parallel_decisions,
    simplified_ml,
    zf_estimate,
)
from mimo3d.decoders.sphere import centred_search, sd_baseline, tree_search
from mimo3d.decoders.structure import COUPLED_DIMS, REL_TOL, gram_cross, two_stage_zeros
from mimo3d.linalg import (
    RankDeficiencyError,
    gram_schmidt_qr,
    require_decodable,
    tilde_interleave,
)
from mimo3d.modem import QamConstellation, se_order

QPSK = build_qam(4)
QAM16 = build_qam(16)
SEARCH_DECODERS = ("sd-baseline", "simplified", "simplified-cs4", "simplified-cs2")
# the two-stage registry entries, by the column switch each runs
SIMPLIFIED = {"none": "simplified", "4by4": "simplified-cs4", "2by2": "simplified-cs2"}


def decide(v, r, radius, d_outer, pam, counters):
    """:func:`parallel_decisions` on the targets ``v`` themselves: with every
    tree symbol 0, each cancelled target is its entry of ``z``."""
    return parallel_decisions([0.0] * 8, r, radius, d_outer, pam, counters, v)


def complete(s, r, radius, d_leaf, pam, counters, z):
    """A ``tree_search`` leaf hook for a leaf that is complete as it is."""
    return None, None, 0.0


def all_targets(z, r, s_outer):
    """All eight cancelled targets ``z[0:8] - R[0:8, 8:16] s_outer``."""
    return np.array([cancel(z[i], r[i], s_outer) for i in range(8)])


def test_registry_names():
    assert set(REGISTRY) == {
        "bruteforce", "sd-baseline", "simplified", "simplified-cs4", "simplified-cs2",
    }
    with pytest.raises(KeyError):
        get_decoder("nope")


def test_bruteforce_noiseless():
    rng = derive_rng(200)
    s, eq, y = random_instance(rng, QPSK, None)
    res = get_decoder("bruteforce")(y, eq.h_eq, QPSK)
    assert np.array_equal(res.symbols, s)
    assert res.metric < 1e-18
    assert res.counters.tree_nodes == 4**8  # exhaustive by construction
    assert res.counters.mults == 4**8 * (16 * 16 + 16)


def test_bruteforce_refuses_large_constellations():
    rng = derive_rng(201)
    _, eq, y = random_instance(rng, QAM16, 10.0)
    with pytest.raises(ValueError):
        get_decoder("bruteforce")(y, eq.h_eq, QAM16)


def test_baseline_matches_bruteforce_qpsk():
    rng = derive_rng(202)
    decode = get_decoder("sd-baseline")
    for i in range(150):
        snr = 20.0 * i / 149
        s, eq, y = random_instance(rng, QPSK, snr)
        ref = get_decoder("bruteforce")(y, eq.h_eq, QPSK)
        res = decode(y, eq.h_eq, QPSK)
        assert abs(res.metric - ref.metric) <= 1e-9
        if not np.array_equal(res.symbols, ref.symbols):  # metric tie only
            assert abs(res.metric - ref.metric) <= 1e-12


def test_baseline_noiseless_trace():
    # S-E property: first leaf is the solution; with radius 0 every later
    # sibling probe fails immediately, so the node count is exactly
    # 16 (dive) + 16 (one pruned probe per level)
    rng = derive_rng(203)
    s, eq, y = random_instance(rng, QPSK, None)
    res = get_decoder("sd-baseline")(y, eq.h_eq, QPSK)
    assert res.metric < 1e-18
    assert np.array_equal(res.symbols, s)
    assert res.counters.leaves == 1
    assert res.counters.tree_nodes == 32


@pytest.mark.parametrize("mode", SIMPLIFIED)
def test_simplified_matches_bruteforce_qpsk(mode):
    rng = derive_rng(204)
    for i in range(100):
        snr = 20.0 * i / 99
        s, eq, y = random_instance(rng, QPSK, snr)
        ref = get_decoder("bruteforce")(y, eq.h_eq, QPSK)
        res = get_decoder(SIMPLIFIED[mode])(y, eq.h_eq, QPSK)
        assert abs(res.metric - ref.metric) <= 1e-9
        if not np.array_equal(res.symbols, ref.symbols):
            assert abs(res.metric - ref.metric) <= 1e-12


@pytest.mark.parametrize("mode", SIMPLIFIED)
def test_simplified_16qam_matches_baseline(mode):
    rng = derive_rng(205)
    baseline = get_decoder("sd-baseline")
    for i in range(40):
        snr = 8.0 + 12.0 * i / 39
        _, eq, y = random_instance(rng, QAM16, snr)
        ref = baseline(y, eq.h_eq, QAM16)
        res = get_decoder(SIMPLIFIED[mode])(y, eq.h_eq, QAM16)
        assert abs(res.metric - ref.metric) <= 1e-9


def test_simplified_64qam_high_snr():
    rng = derive_rng(206)
    qam64 = build_qam(64)
    baseline = get_decoder("sd-baseline")
    for _ in range(3):
        _, eq, y = random_instance(rng, qam64, 28.0)
        ref = baseline(y, eq.h_eq, qam64)
        res = get_decoder("simplified-cs2")(y, eq.h_eq, qam64)
        assert abs(res.metric - ref.metric) <= 1e-9


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_simplified_refuses_original_ordering(scale):
    # the two-stage decoder is ML only on the "new" ordering; an "original"
    # h_eq is refused at every channel scale instead of decoded to a silent
    # non-ML answer, and not as a RankDeficiencyError, which a sweep would
    # swallow and resample
    rng = derive_rng(225)
    baseline = get_decoder("sd-baseline")
    sigma = math.sqrt(snr_to_sigma2(5.0, QPSK))
    for _ in range(10):
        st = tilde_interleave(QPSK.points[rng.integers(0, 4, 8)])
        h = scale * sample_channel(rng)
        w = scale * sigma * rng.standard_normal(16)
        eq_new, eq_orig = make_equivalent(h, "new"), make_equivalent(h, "original")
        y = eq_new.h_eq @ st + w
        res = get_decoder("simplified-cs2")(y, eq_new.h_eq, QPSK)
        ref = baseline(y, eq_new.h_eq, QPSK)
        assert abs(res.metric - ref.metric) <= 1e-9 * ref.metric
        with pytest.raises(ValueError) as err:
            get_decoder("simplified")(eq_orig.h_eq @ st + w, eq_orig.h_eq, QPSK)
        assert not isinstance(err.value, RankDeficiencyError)


def test_simplified_refuses_channels_without_the_r_structure():
    # a generic channel with columns 4-7 orthogonal to columns 0-3 has the
    # zero Gram cross block of the "new" ordering but not the within-block
    # zeros of R; checked on the Gram block alone, the two-stage decoders
    # returned a non-ML metric on 12 of these 120 decodes
    for seed in range(40):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((16, 16))
        q, _ = np.linalg.qr(h[:, :4])
        h[:, 4:8] -= q @ (q.T @ h[:, 4:8])
        assert gram_cross(h) <= REL_TOL
        y = h @ tilde_interleave(QPSK.points[rng.integers(0, 4, 8)]) + 0.5 * rng.standard_normal(16)
        for name in ("simplified", "simplified-cs4", "simplified-cs2"):
            with pytest.raises(ValueError, match="R zero structure") as err:
                get_decoder(name)(y, h, QPSK)
            assert not isinstance(err.value, RankDeficiencyError)


def test_simplified_noiseless_single_leaf():
    # ZF-seeded tables make the first path exact; radius drops to zero and
    # no other leaf survives
    rng = derive_rng(207)
    for name in ("simplified", "simplified-cs2"):
        s, eq, y = random_instance(rng, QPSK, None)
        res = get_decoder(name)(y, eq.h_eq, QPSK)
        assert np.array_equal(res.symbols, s)
        assert res.metric < 1e-18
        assert res.counters.leaves == 1


def test_switch_modes_agree_per_instance():
    rng = derive_rng(208)
    for i in range(40):
        _, eq, y = random_instance(rng, QAM16, 6.0 + i % 10)
        metrics = [get_decoder(name)(y, eq.h_eq, QAM16).metric for name in SIMPLIFIED.values()]
        assert max(metrics) - min(metrics) <= 1e-9


def test_identity_switch_costs_exactly_the_lu_solve():
    # where the 2by2 switch keeps the identity order both decodes run the
    # same search, so the switch adds only its LU solve and slicing errors
    rng = derive_rng(234)
    kept = 0
    for _ in range(12):
        _, eq, y = random_instance(rng, QAM16, 12.0)
        if not column_switch(zf_estimate(eq.h_eq, y), eq.h_eq, "2by2", QAM16)[1].is_identity:
            continue
        kept += 1
        plain = get_decoder("simplified")(y, eq.h_eq, QAM16).counters
        switched = get_decoder("simplified-cs2")(y, eq.h_eq, QAM16).counters
        assert switched.mults == plain.mults + 1496
        assert switched.divs == plain.divs + 136
        assert (switched.tree_nodes, switched.branch_nodes, switched.leaves) == (
            plain.tree_nodes, plain.branch_nodes, plain.leaves)
    assert kept  # the precondition held on some instance


def test_cross_branch_termination_is_transparent(monkeypatch):
    # an infinite radius turns the cross-branch test off
    def no_cross_stop(s_outer, r, radius, d_outer, pam, counters, z):
        return parallel_decisions(s_outer, r, math.inf, d_outer, pam, counters, z)

    rng = derive_rng(209)
    instances = [random_instance(rng, QAM16, 4.0 + (i % 12)) for i in range(60)]
    decode = get_decoder("simplified-cs2")
    with_stop = [decode(y, eq.h_eq, QAM16) for _, eq, y in instances]
    monkeypatch.setattr("mimo3d.decoders.simplified.parallel_decisions", no_cross_stop)
    without = [decode(y, eq.h_eq, QAM16) for _, eq, y in instances]
    for on, off in zip(with_stop, without):
        assert np.array_equal(on.symbols, off.symbols)
        for k in range(4):
            assert on.counters.branch_nodes[k] <= off.counters.branch_nodes[k]
    # the test saves work on some decodes, so the two runs really differ
    assert any(on.counters.branch_nodes != off.counters.branch_nodes
               for on, off in zip(with_stop, without))


def test_visited_nodes_aggregation():
    rng = derive_rng(210)
    _, eq, y = random_instance(rng, QPSK, 5.0)
    res = get_decoder("simplified")(y, eq.h_eq, QPSK)
    c = res.counters
    assert c.visited_nodes == c.tree_nodes + max(c.branch_nodes)


def test_metric_decomposition():
    # the four-norm split of ||z - R s||^2 that justifies the two-stage
    # search, valid because R[0:4, 4:8] vanishes for the "new" ordering
    rng = derive_rng(211)
    for _ in range(30):
        s, eq, y = random_instance(rng, QAM16, 12.0)
        r, z = gram_schmidt_qr(eq.h_eq, y)
        st = tilde_interleave(QAM16.points[rng.integers(0, 16, 8)])
        a, b, c, d = st[0:4], st[4:8], st[8:12], st[12:16]
        full = np.sum((z - r @ st) ** 2)
        v = all_targets(z, r, st[8:16])
        split = (
            np.sum((v[0:4] - r[0:4, 0:4] @ a) ** 2)
            + np.sum((v[4:8] - r[4:8, 4:8] @ b) ** 2)
            + np.sum((z[8:12] - r[8:12, 8:12] @ c - r[8:12, 12:16] @ d) ** 2)
            + np.sum((z[12:16] - r[12:16, 12:16] @ d) ** 2)
        )
        assert abs(full - split) <= 1e-10


def test_compute_v_basics():
    # the s1-role targets, rows 0, 1, 4 and 5: z itself at s_outer = 0, and
    # linear in s_outer
    rng = derive_rng(212)
    _, eq, y = random_instance(rng, QPSK, 10.0)
    r, z = gram_schmidt_qr(eq.h_eq, y)
    rows = [i1 for i1, _ in COUPLED_DIMS]
    assert np.array_equal(compute_v(z, r, np.zeros(8)), z[rows])
    s1, s2 = rng.standard_normal(8), rng.standard_normal(8)
    lhs = np.array(compute_v(z, r, s1 + s2))
    rhs = np.array(compute_v(z, r, s1)) + np.array(compute_v(z, r, s2)) - z[rows]
    assert np.abs(lhs - rhs).max() < 1e-10
    assert np.array_equal(compute_v(z, r, s1), all_targets(z, r, s1)[rows])


def test_compute_v_noiseless_forward_model():
    rng = derive_rng(213)
    s, eq, y = random_instance(rng, QPSK, None)
    r, z = gram_schmidt_qr(eq.h_eq, y)
    st = tilde_interleave(s)
    v = all_targets(z, r, st[8:16])
    expected = r[0:8, 0:8] @ st[0:8]  # R12 block is (numerically) zero
    assert np.abs(v - expected).max() < 1e-10


@pytest.mark.parametrize("pam_order", [4, 16])
def test_parallel_decisions_branch_oracle(pam_order):
    pam = build_qam(pam_order).pam
    rng = derive_rng(214, pam_order)
    for _ in range(2000):
        v, r = random_branch_fixture(rng, pam)
        a_hat, b_hat, d_p = decide(v, r, math.inf, 0.0, pam, OpCounters())
        decided = [
            (a_hat[0], a_hat[2]), (a_hat[1], a_hat[3]),
            (b_hat[0], b_hat[2]), (b_hat[1], b_hat[3]),
        ]
        total = 0.0
        for b, (i1, i2) in enumerate(COUPLED_DIMS):
            sol, ref = branch_oracle(v[i1], v[i2], r[i1, i1], r[i1, i2], r[i2, i2], pam)
            s1, s2 = decided[b]
            got = (v[i1] - r[i1, i1] * s1 - r[i1, i2] * s2) ** 2 + (v[i2] - r[i2, i2] * s2) ** 2
            assert abs(got - ref) <= 1e-12
            total += ref
        assert abs(d_p - total) <= 1e-12


def test_parallel_decisions_visit_bound():
    pam = QAM16.pam
    rng = derive_rng(215)
    v, r = random_branch_fixture(rng, pam)
    counters = OpCounters()
    decide(v, r, math.inf, 0.0, pam, counters)
    assert all(n <= pam.order for n in counters.branch_nodes)


def test_parallel_decisions_relative_rank_rule():
    pam = QAM16.pam
    v, r = random_branch_fixture(derive_rng(229), pam)
    scale = 2.0**-46
    got = decide(v * scale, r * scale, math.inf, 0.0, pam, OpCounters())
    want = decide(v, r, math.inf, 0.0, pam, OpCounters())
    assert got[:2] == want[:2] and got[2] == want[2] * scale**2


def _tie_branch_fixture(rng, pam):
    """(v, R) whose slicing arguments fall exactly on PAM midpoints, with
    r12 = 0 so candidates at equal distance give equal branch distances."""
    levels = pam.level_tuple
    mids = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    r = np.zeros((16, 16))
    v = np.zeros(8)
    for i1, i2 in COUPLED_DIMS:
        r[i1, i1], r[i2, i2] = 1.0, 0.5
        v[i1] = mids[rng.integers(len(mids))]
        v[i2] = 0.5 * mids[rng.integers(len(mids))]
    return v, r


@pytest.mark.parametrize("m", [4, 16, 64])
def test_parallel_decisions_matches_lockstep_oracle(m):
    # Exact agreement with the two-pass lockstep, with a finite radius and
    # outer distance drawn so that the leaf bound fires on part of the
    # fixtures and cross-branch stopping on part of the rest; every fourth
    # fixture has exact slicing ties.
    pam = build_qam(m).pam
    rng = derive_rng(226, m)
    bounded = fired = 0
    fixtures = 2000
    for t in range(fixtures):
        make = _tie_branch_fixture if t % 4 == 3 else random_branch_fixture
        v, r = make(rng, pam)
        free = parallel_decisions_lockstep(v, r, math.inf, 0.0, pam, OpCounters())[2]
        d_outer = free * rng.uniform(0.0, 1.0)
        radius = d_outer + free * rng.uniform(0.0, 1.5)
        cross = t % 8 != 0
        got_c, want_c, plain_c = OpCounters(), OpCounters(), OpCounters()
        # radius=math.inf turns both radius tests off, as cross=False does
        got = decide(v, r, radius if cross else math.inf, d_outer, pam, got_c)
        want = parallel_decisions_lockstep(v, r, radius, d_outer, pam, want_c, cross)
        assert got == want  # a_hat, b_hat and d_p, exactly
        assert got_c == want_c  # branch_nodes, mults, divs (tree counters untouched)
        parallel_decisions_lockstep(v, r, radius, d_outer, pam, plain_c, False)
        fired += (want_c.branch_nodes, want_c.mults) != (plain_c.branch_nodes, plain_c.mults)
        if want[0] is None:  # the bound dropped the leaf: it could not beat the radius
            assert d_outer + free >= radius
            bounded += 1
    print(f"\nM={m}: the radius tests fired on {fired} of {fixtures} fixtures, "
          f"the bound on {bounded} of them")
    assert 0.1 * fixtures < fired < 0.9 * fixtures
    # each test alone fires on some of them
    assert 50 < bounded < fired - 50


def test_parallel_decisions_sums_finished_branches_in_branch_order():
    # Branch 2 stops at step 1, branches 0 and 1 at step 2.  Branch 3's
    # cross-branch test at step 2 then lands exactly on the radius with the
    # three minima summed in branch order, (p0 + p1) + p2, so it goes on;
    # summed in stopping order, (p2 + p0) + p1, they are one ulp larger.
    pam = QAM16.pam
    v = np.array([4.032, 3.232, 0.01, 0.02, 4.247, 8.0, 3.1722776601683793, 0.003])
    r = np.zeros((16, 16))
    for b, (i1, i2) in enumerate(COUPLED_DIMS):
        r[i1, i1], r[i2, i2] = 1.0, (10.0 if b < 3 else 1.0)
    radius = 46.30445035288266
    got_c, want_c = OpCounters(), OpCounters()
    got = decide(v, r, radius, 0.0, pam, got_c)
    want = parallel_decisions_lockstep(v, r, radius, 0.0, pam, want_c)
    assert got == want
    assert got_c == want_c
    assert got_c.branch_nodes == [3, 3, 2, 4]


PAMS = {m: build_qam(m).pam for m in (4, 16, 64)}


def _on_threshold(total):
    """A radius whose threshold ``radius * (1 + 1e-12)`` is ``total``
    exactly, if one lies within 4 ulps of ``total / (1 + 1e-12)``; else that
    quotient."""
    below = above = total / (1 + 1e-12)
    for _ in range(5):
        for radius in (below, above):
            if radius * (1 + 1e-12) == total:
                return radius
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
    return total / (1 + 1e-12)


@st.composite
def branch_inputs(draw):
    """(pam, v, R, d_outer, radius) for the parallel decisions.  Diagonal
    entries are drawn from powers of two as well, and v from PAM levels and
    midpoints times them, so that slicing arguments and S-E estimates land
    exactly on midpoints; with r12 = 0 candidates then tie in distance.
    In a tight case every s1 residual is exactly 0, so the leaf bound equals
    ``d_outer + d_p`` up to the order of summation.  Everything is scaled by
    a power of two, which is exact, and the radius is infinite, a share of
    the unbounded distance, within a few ulps or a few 1e-12 of the leaf
    bound on either side, one whose threshold ``radius * (1 + 1e-12)`` is a
    running sum of the bound exactly (where such a radius exists), or one
    ulp or 1e-12 above ``d_outer``."""
    pam = PAMS[draw(st.sampled_from(sorted(PAMS)))]
    levels = pam.level_tuple
    targets = levels + tuple((a + b) / 2 for a, b in zip(levels, levels[1:]))
    diag = st.sampled_from((0.25, 0.5, 1.0, 2.0)) | st.floats(0.05, 4.0)
    tight = draw(st.booleans())
    r = np.zeros((16, 16))
    v = np.zeros(8)
    for i1, i2 in COUPLED_DIMS:
        r[i1, i1], r[i2, i2] = draw(diag), draw(diag)
        if tight:  # r12 = 0 and v1 = r11 s1 for a level s1
            v[i1] = draw(st.sampled_from(levels)) * r[i1, i1]
        else:
            r[i1, i2] = draw(st.just(0.0) | st.floats(-2.0, 2.0))
        for i in (i2,) if tight else (i1, i2):
            v[i] = draw(st.sampled_from(targets).map(lambda x, d=r[i, i]: x * d)
                        | st.floats(-6.0, 6.0))
    scale = 2.0 ** draw(st.integers(-200, 200))
    v, r = v * scale, r * scale
    free = parallel_decisions_lockstep(v, r, math.inf, 0.0, pam, OpCounters())[2]
    d_outer = free * draw(st.floats(0.0, 1.0))
    radius = draw(
        st.none()  # infinite radius
        | st.floats(0.0, 1.5).map(lambda share: d_outer + free * share)
        | st.sampled_from((1 - 4e-12, 1 - 1e-12, 1 - 2**-52, 1.0, 1 + 2**-52, 1 + 1e-12))
        .map(lambda near: leaf_bound(v, r, d_outer, pam) * near)
        | st.sampled_from(leaf_bound_sums(v, r, d_outer, pam)).map(_on_threshold)
        | st.sampled_from((2**-52, 1e-12)).map(lambda gap: d_outer * (1 + gap))
    )
    return pam, v, r, d_outer, math.inf if radius is None else radius


@settings(max_examples=400)
@given(branch_inputs())
def test_parallel_decisions_equal_lockstep_property(case):
    pam, v, r, d_outer, radius = case
    got_c, want_c = OpCounters(), OpCounters()
    got = decide(v, r, radius, d_outer, pam, got_c)
    want = parallel_decisions_lockstep(v, r, radius, d_outer, pam, want_c)
    assert got == want  # a_hat, b_hat and d_p, exactly
    assert got_c == want_c


@settings(max_examples=400)
@given(branch_inputs())
def test_leaf_bound_drops_only_leaves_that_cannot_beat_the_radius(case):
    # the tree search takes a leaf only when d_outer + d_p < radius, so a
    # dropped leaf must fail that test with the unbounded decisions too
    pam, v, r, d_outer, radius = case
    if decide(v, r, radius, d_outer, pam, OpCounters())[0] is None:
        free = parallel_decisions_lockstep(v, r, math.inf, 0.0, pam, OpCounters())[2]
        assert d_outer + free >= radius


@settings(max_examples=400)
@given(branch_inputs())
def test_leaf_bound_stops_at_the_first_running_sum_past_the_radius(case):
    # the short-circuit drops exactly the leaves whose full four-term sum
    # (helpers.leaf_bound, its own slicer) is past the threshold, and a
    # dropped leaf is charged the terms it formed: 10 mults and 1 div each,
    # up to the first running sum past it
    pam, v, r, d_outer, radius = case
    counters = OpCounters()
    dropped = decide(v, r, radius, d_outer, pam, counters)[0] is None
    limit = radius * (1 + 1e-12)
    sums = leaf_bound_sums(v, r, d_outer, pam)
    assert sums == sorted(sums)  # adding a non-negative term never lowers a sum
    assert dropped == (leaf_bound(v, r, d_outer, pam) > limit)
    if dropped:
        formed = next(k + 1 for k, total in enumerate(sums) if total > limit)
        assert counters.branch_nodes == [1, 1, 1, 1]
        assert (counters.mults, counters.divs) == (10 * formed, formed)


def _pow2(draw, lo, hi):
    return 2.0 ** draw(st.integers(lo, hi))


def _floats_near(x, ulps):
    """``x``, then the floats one, two, ... ``ulps`` steps below and above it."""
    out, below, above = [x], x, x
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += (below, above)
    return out


@st.composite
def slicing_inputs(draw):
    """(pam, v, R, d_outer, radius, order_fn) for the parallel decisions,
    with each branch's estimates at an edge of the slice and S-E order
    rules: ``v2 / r22`` and, at the first S-E candidate of s2, ``(v1 - r12
    s2) / r11``, each on a level, on a midpoint that is an exact tie
    (``EXACT_TIES``), one ulp either side of a nonzero one, just inside or
    beyond an outer level, or +-0.0, each kind drawn about equally often
    (the S-E order's neighbours tie only on two 64-QAM levels).  The
    diagonal is powers of two, r12 0 or a signed power of two, and v and R
    are scaled by a power of two, so each estimate is the drawn float
    exactly.  With r12 nonzero, v1 is the float
    within 4 ulps of ``r11 e1 + r12 s2`` that gives the s1 estimate ``e1``
    exactly, where one does.  ``order_fn`` is the oracle's S-E order:
    ``se_order`` itself for 64-QAM with a ``v2 / r22`` within an ulp of a
    level, where the walk may differ, else the walk."""
    m = draw(st.sampled_from(sorted(PAMS)))
    pam = PAMS[m]
    levels = pam.level_tuple
    ties = tuple(t for t, _ in EXACT_TIES[m])
    # one ulp off 0.0 is subnormal, which no scale keeps exact
    ulp_off = tuple(math.nextafter(x, d) for x in levels + ties if x for d in (-math.inf, math.inf))
    outer = (math.nextafter(levels[0], math.inf), 1.5 * levels[0],
             math.nextafter(levels[-1], -math.inf), 1.5 * levels[-1])
    edge = st.one_of(*map(st.sampled_from, (levels, ties, ulp_off, outer, (0.0, -0.0))))
    near_level = set(levels + ulp_off[:2 * len(levels)])
    r = np.zeros((16, 16))
    v = np.zeros(8)
    near = False
    for i1, i2 in COUPLED_DIMS:
        r11, r22 = _pow2(draw, -3, 3), _pow2(draw, -3, 3)
        r12 = draw(st.sampled_from((0.0, -1.0, 1.0))) * _pow2(draw, -3, 3)
        e2, e1 = draw(edge), draw(edge)
        near |= e2 in near_level
        cross = r12 * levels[slice_index_walk(e2, pam)]
        v1 = next((x for x in _floats_near(e1 * r11 + cross, 4) if (x - cross) / r11 == e1),
                  e1 * r11 + cross)
        r[i1, i1], r[i1, i2], r[i2, i2] = r11, r12, r22
        v[i1], v[i2] = v1, e2 * r22
    scale = _pow2(draw, -60, 60)
    v, r = v * scale, r * scale
    free = parallel_decisions_lockstep(v, r, math.inf, 0.0, pam, OpCounters())[2]
    d_outer = free * draw(st.sampled_from((0.0, 0.5)) | st.floats(0.0, 1.0))
    radius = draw(st.none() | st.floats(0.0, 1.5).map(lambda share: d_outer + free * share))
    order_fn = se_order if m == 64 and near else se_order_walk
    return pam, v, r, d_outer, math.inf if radius is None else radius, order_fn


@settings(max_examples=400)
@given(slicing_inputs())
def test_parallel_decisions_slice_and_se_order_at_their_edges(case):
    # the written-out slice and S-E order against the lockstep oracle's
    # slicer and order: decisions, d_p bits and every counter
    pam, v, r, d_outer, radius, order_fn = case
    got_c, want_c = OpCounters(), OpCounters()
    got = decide(v, r, radius, d_outer, pam, got_c)
    want = parallel_decisions_lockstep(v, r, radius, d_outer, pam, want_c, order_fn=order_fn)
    assert got[:2] == want[:2]
    assert struct.pack("d", got[2]) == struct.pack("d", want[2])
    assert got_c == want_c


def test_compute_v_runs_only_for_kept_leaves(monkeypatch):
    # the s1-role targets are formed once per leaf the bound keeps, and
    # never for a dropped one
    calls = {"kept": 0, "compute_v": 0}

    def counted_decisions(*args):
        result = parallel_decisions(*args)
        calls["kept"] += result[0] is not None
        return result

    def counted_v(*args):
        calls["compute_v"] += 1
        return compute_v(*args)

    monkeypatch.setattr(simplified_module, "parallel_decisions", counted_decisions)
    monkeypatch.setattr(simplified_module, "compute_v", counted_v)
    leaves = 0
    for t in range(4):
        _, eq, y = random_instance(derive_rng(244, t), QAM16, 12.0)
        for name in ("simplified", "simplified-cs2"):
            leaves += get_decoder(name)(y, eq.h_eq, QAM16).counters.leaves
    assert calls["compute_v"] == calls["kept"]
    assert 0 < calls["kept"] < leaves  # the bound dropped some leaves


# finite floats whose products and sums stay far from overflow, with both
# zeros and exact binary fractions drawn explicitly
CANCEL_FLOATS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -0.5, 2.0**-30)),
                          st.floats(-1e6, 1e6))


@settings(max_examples=300)
@given(z_i=CANCEL_FLOATS, row=st.lists(CANCEL_FLOATS, min_size=16, max_size=16),
       s_outer=st.lists(CANCEL_FLOATS, min_size=8, max_size=8))
def test_cancel_equals_the_loop_and_numpy(z_i, row, s_outer):
    # a row's cancellation gives the ascending-k loop's bits (-0.0 is not
    # 0.0) and NumPy's z_i - R[i, 8:16] @ s within 1e-12 of the terms' size
    acc = z_i
    for k in range(8):
        acc -= row[8 + k] * s_outer[k]
    got = cancel(z_i, row, s_outer)
    assert struct.pack("d", got) == struct.pack("d", acc)
    want = z_i - np.array(row[8:]) @ np.array(s_outer)
    size = abs(z_i) + sum(abs(row[8 + k] * s_outer[k]) for k in range(8))
    assert abs(got - want) <= 1e-12 * size


@pytest.mark.parametrize("m", [4, 16])
def test_search_decoders_are_scale_free(m):
    # The rank rule is relative: h_eq and y scaled by 2^-46 or 2^46 (exact
    # in floating point) decode to the same symbols with the same counters.
    qam = build_qam(m)
    for k in range(4):
        _, eq, y = random_instance(derive_rng(227, m, k), qam, 4.0 if m == 4 else 12.0)
        for name in SEARCH_DECODERS:
            ref = get_decoder(name)(y, eq.h_eq, qam)
            for e in (-46, 46):
                res = get_decoder(name)(y * 2.0**e, eq.h_eq * 2.0**e, qam)
                assert np.array_equal(res.symbols, ref.symbols), (name, e)
                assert res.counters == ref.counters, (name, e)


@pytest.mark.parametrize("scale", [2.0**-46, 1.0, 2.0**46])
def test_equal_columns_raise_at_every_scale(scale):
    # The rank rule runs once per decode, on the whole R diagonal, and no
    # search stage checks again: a dependent column pair in the half the
    # parallel decisions read, in the tree half, or one dependent only up to
    # a relative 1e-14, is refused at the entry at any scale.
    _, eq, y = random_instance(derive_rng(228), QAM16, 12.0)
    nudge = derive_rng(229).standard_normal(16)
    nudge *= 1e-14 * np.linalg.norm(eq.h_eq[:, 0]) / np.linalg.norm(nudge)
    # all keep the zero Gram cross block of the "new" ordering; the zero
    # column makes h_eq exactly singular, which the zero-forcing solve meets
    # before any factorization
    for column in ("equal", "zero", "tree", "near"):
        h = eq.h_eq.copy()
        if column == "tree":
            h[:, 10] = h[:, 8]
        else:
            h[:, 2] = {"equal": h[:, 0], "zero": 0.0, "near": h[:, 0] + nudge}[column]
        for name in SEARCH_DECODERS:
            with pytest.raises(RankDeficiencyError):
                get_decoder(name)(y * scale, h * scale, QAM16)


def test_tree_search_relative_rank_rule():
    # both searches, on an R with the tree block's pattern
    rng = np.random.default_rng(13)
    z = rng.standard_normal(8)
    scale = 2.0**-46

    def centred(z, r):
        return centred_search(8)(z, r, QPSK.pam, OpCounters())

    def tables(z, r):
        best, _, dist = tree_search(z, r, QPSK.pam, complete, OpCounters(), None, None)
        return best, dist

    for search in (centred, tables):
        r = tree_pattern_r(rng)
        want = search(z, r)
        got = search(z * scale, r * scale)
        assert got[0] == want[0] and got[1] == want[1] * scale**2


def _zf_with_errors(base_points, deltas):
    # ZF estimate whose per-symbol slicing errors are exactly |delta|^2
    return np.array([p + d for p, d in zip(base_points, deltas)])


def test_column_switch_pair_swap_case():
    # first half more reliable (stays with the parallel stage), second pair
    # of the tree half more reliable than the first -> both halves swap pairs
    pts = QPSK.points[[0, 1, 2, 3, 0, 1, 2, 3]]
    deltas = [0.01, 0.01, 0.02, 0.02, 0.30, 0.30, 0.10, 0.10]
    s_zf = _zf_with_errors(pts, deltas)
    _, eq, _ = random_instance(derive_rng(218), QPSK, 10.0)
    h_out, plan = column_switch(s_zf, eq.h_eq, "2by2", QPSK)
    assert plan.order == (2, 3, 0, 1, 6, 7, 4, 5)
    # symbol pair p of the decode order owns columns (2p, 2p+1)
    for pos, sym in enumerate(plan.order):
        assert np.array_equal(h_out[:, 2 * pos], eq.h_eq[:, 2 * sym])
        assert np.array_equal(h_out[:, 2 * pos + 1], eq.h_eq[:, 2 * sym + 1])
    # 4by4 ignores the within-half comparison
    _, plan44 = column_switch(s_zf, eq.h_eq, "4by4", QPSK)
    assert plan44.is_identity


def test_column_switch_half_swap_cases():
    pts = QPSK.points[[0, 1, 2, 3, 0, 1, 2, 3]]
    _, eq, _ = random_instance(derive_rng(219), QPSK, 10.0)
    # second half more reliable -> halves swap
    s_zf = _zf_with_errors(pts, [0.3, 0.3, 0.2, 0.2, 0.01, 0.01, 0.02, 0.02])
    _, plan = column_switch(s_zf, eq.h_eq, "4by4", QPSK)
    assert plan.order == (4, 5, 6, 7, 0, 1, 2, 3)
    # additionally (s3, s4) more reliable than (s1, s2) -> pairs swap too
    s_zf = _zf_with_errors(pts, [0.3, 0.3, 0.2, 0.2, 0.01, 0.01, 0.02, 0.02])
    _, plan = column_switch(s_zf, eq.h_eq, "2by2", QPSK)
    assert plan.order == (6, 7, 4, 5, 2, 3, 0, 1)


QAMS = {m: build_qam(m) for m in (4, 16, 64)}
# any fixed matrix shows which columns the switch picked
SWITCH_H = np.arange(256.0).reshape(16, 16)


@st.composite
def switch_estimates(draw):
    """(constellation, ZF estimate) for the column switch.  Every real and
    imaginary part is an exact PAM level, an exact midpoint between two
    levels, beyond an outer level, +-0.0, or a random value scaled by 2^-30
    to 2^30."""
    qam = QAMS[draw(st.sampled_from(sorted(QAMS)))]
    levels = qam.pam.level_tuple
    midpoints = tuple((a + b) / 2 for a, b in zip(levels, levels[1:]))
    part = (
        st.sampled_from(levels)
        | st.sampled_from(midpoints)
        | st.builds(lambda x, sign: sign * x * levels[-1], st.floats(1.0, 8.0),
                    st.sampled_from((-1, 1)))
        | st.sampled_from((0.0, -0.0))
        | st.builds(lambda x, k: x * 2.0**k, st.floats(-1.0, 1.0), st.integers(-30, 30))
    )
    parts = draw(st.lists(part, min_size=16, max_size=16))
    return qam, np.array(parts).view(complex)


@settings(max_examples=300)
@given(switch_estimates(), st.sampled_from(("4by4", "2by2")))
def test_column_switch_equals_complex_reference(case, mode):
    # slicing errors on Python floats pick the order the complex128 formula picks
    qam, s_zf = case
    got_h, got = column_switch(s_zf, SWITCH_H, mode, qam)
    want_h, want = column_switch_reference(s_zf, SWITCH_H, mode, qam)
    assert got.order == want.order
    assert np.array_equal(got_h, want_h)


def test_all_allowed_orders_preserve_structure():
    rng = derive_rng(220)
    for _ in range(25):
        _, eq, _ = random_instance(rng, QPSK, 10.0)
        for order in ALLOWED_ORDERS:
            cols = [c for sym in order for c in (2 * sym, 2 * sym + 1)]
            h_perm = eq.h_eq[:, cols]
            r = gram_schmidt_qr(h_perm).r
            assert verify_r_structure(r, h_perm).ok
            assert two_stage_zeros(r) <= REL_TOL  # the tree block's pattern too


def test_zf_estimate_shapes_and_errors():
    _, eq, y = random_instance(derive_rng(229), QPSK, 10.0)
    s_zf = zf_estimate(eq.h_eq, y)
    # in fresh memory; wrong shapes are refused at the decoder's entry
    # (test_decoders_refuse_wrong_shapes)
    assert not np.shares_memory(s_zf, y) and not np.shares_memory(s_zf, eq.h_eq)
    h = eq.h_eq.copy()
    h[:, 2] = 0.0
    with pytest.raises(RankDeficiencyError):
        zf_estimate(h, y)


def test_zf_estimate_noiseless_and_linear():
    rng = derive_rng(221)
    s, eq, y = random_instance(rng, QPSK, None)
    h = eq.h_eq
    assert np.abs(zf_estimate(h, y) - s).max() < 1e-8
    y2 = rng.standard_normal(16)
    a, b = 0.7, -1.3
    lhs = zf_estimate(h, a * y + b * y2)
    rhs = a * zf_estimate(h, y) + b * zf_estimate(h, y2)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_tree_search_toy_trace():
    # hand-traced 4-level fixture for the table policy.  R is sqrt(2) times
    # [[1, 0, .5, 0], [0, 1, 0, .5], [0, 0, 1, 0], [0, 0, 0, 1]], so the QPSK
    # levels act as +-1; rows 2 and 3 are diagonal, row 1 couples to level 3
    # and row 0 to level 2.  z = (0.1, 0.45, -0.9, 0.25).  Built entries
    # are marked *; each costs a division, a coupled one also a mult.
    #   s3 +1* (centre .25): d = .5625
    #     s2 -1* (centre -.9): d = .5725
    #       s1 -1* (s3 = +1, centre -.05): d = 1.475
    #         s0 +1* (s2 = -1, centre .6): d = 1.635 -> leaf, radius 1.635
    #         s0 -1: d = 4.035, cut
    #       s1 +1: d = 1.675, cut
    #     s2 +1: d = 4.1825, cut
    #   s3 -1: d = 1.5625
    #     s2 -1 (cached): d = 1.5725
    #       s1 +1* (s3 = -1, centre .95): d = 1.575
    #         s0 +1 (cached): d = 1.735, cut
    #       s1 -1: d = 5.375, cut
    #     s2 +1: d = 5.1725, cut
    counters = OpCounters()
    r = math.sqrt(2.0) * np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5],
                                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    z = [0.1, 0.45, -0.9, 0.25]
    best, payload, radius = tree_search(z, r, QPSK.pam, complete, counters, None, None)
    a = QPSK.pam.level_tuple[1]
    assert best == [a, -a, -a, a]
    assert payload == (None, None)
    assert abs(radius - 1.635) < 1e-12
    assert counters.tree_nodes == 13
    assert counters.leaves == 1
    assert counters.mults == 29  # 2 per candidate, 1 per coupled entry built
    assert counters.divs == 5  # 1 per entry built


# where a tree level's conditional centre sits: on a PAM level, exactly
# halfway between two (an S-E tie), or at a random offset from a level
CENTRES = ("level", "tie", "offset")


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-40, 40), m=st.sampled_from([4, 16, 64]),
       centres=st.lists(st.sampled_from(CENTRES), min_size=8, max_size=8))
def test_table_policy_matches_centred_policy(seed, k, m, centres):
    # on an R with the tree block's pattern, scaled by 2^k, the table policy
    # runs the same search as the centred one: same nodes, leaves, symbols
    # and distance, bit for bit
    pam = QAMS[m].pam
    levels = pam.level_tuple
    rng = derive_rng(seed)
    r = tree_pattern_r(rng)
    s = [levels[j] for j in rng.integers(0, len(levels), 8)]
    z = []
    for i, kind in enumerate(centres):
        j = int(rng.integers(0, len(levels) - 1))
        if kind == "tie":
            t = (levels[j] + levels[j + 1]) / 2
        else:
            t = levels[j] + (rng.uniform(-0.5, 0.5) * pam.spacing if kind == "offset" else 0.0)
        z.append(r[i, i] * t + (r[i, i + 2] * s[i + 2] if i % 4 < 2 else 0.0))
    r, z = r * 2.0**k, np.array(z) * 2.0**k
    c = OpCounters()
    best, dist = centred_search(8)(z, r, pam, c)
    runs = [(best, dist, c.tree_nodes, c.leaves)]
    c = OpCounters()
    best, _, dist = tree_search(z, r, pam, complete, c, None, None)
    runs.append((best, dist, c.tree_nodes, c.leaves))
    assert runs[0] == runs[1]

    # every order the table policy can look up, one per (level, parent
    # value): its distances are nondecreasing, up to the rounding of the
    # centre and of acc - r_ii * level (an exact tie can come out either way
    # by a few ulps, for both policies alike)
    eps = np.finfo(float).eps
    rows, z = r.tolist(), z.tolist()
    for i in range(8):
        rii = rows[i][i]
        for parent in levels if i % 4 < 2 else (None,):
            acc = z[i] if parent is None else z[i] - rows[i][i + 2] * parent
            resid = [acc - rii * c for c in se_order(acc / rii, pam)]
            slack = 4 * eps * (abs(acc) + rii * levels[-1])
            for ra, rb in zip(resid, resid[1:]):
                assert rb * rb >= ra * ra - slack * (abs(ra) + abs(rb)) - 2 * eps * ra * ra


def _exact_ties(levels):
    """The float midpoints of neighbouring levels that are exact S-E ties,
    as far from one level as from the other, rounded, each with its lower
    level, the first in S-E order.  The middle one, 0.0, always is."""
    mids = [((a + b) / 2, a, b) for a, b in zip(levels, levels[1:])]
    return tuple((t, a) for t, a, b in mids if t - a == b - t)


EXACT_TIES = {m: _exact_ties(qam.pam.level_tuple) for m, qam in QAMS.items()}


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), m=st.sampled_from([4, 16, 64]),
       k=st.integers(-40, 40), data=st.data())
def test_centred_search_equals_the_recursive_reference(seed, n, m, k, data):
    """The generated nested loops run the recursive search node for node:
    the same best point, distance bits and counters.  R is upper triangular
    with a diagonal of ones and twos and about half its other entries zero,
    and everything is scaled by 2^k.  Level i's centre is on a PAM level or
    at a random offset from one, along the path of the levels nearest each
    centre.  At up to four levels, each of which doubles the tree, row i is
    diagonal and the centre an exact tie at every node instead: a midpoint
    from ``EXACT_TIES``, whose two levels come as siblings at exactly the
    same distance."""
    pam = QAMS[m].pam
    levels = pam.level_tuple
    offsets = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ties = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
    rng = derive_rng(seed)
    r = np.triu(rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.5), 1)
    r[np.diag_indices(n)] = 2.0 ** rng.integers(0, 2, n)
    s = [0.0] * n
    z = np.zeros(n)
    for i in reversed(range(n)):
        j = int(rng.integers(0, len(levels) - 1))
        s[i] = levels[j]
        if i in ties:
            r[i, i + 1:] = 0.0
            t, s[i] = EXACT_TIES[m][j % len(EXACT_TIES[m])]
            z[i] = r[i, i] * t
        else:
            t = levels[j] + (rng.uniform(-0.5, 0.5) * pam.spacing if offsets[i] else 0.0)
            z[i] = r[i, i] * t + r[i, i + 1:] @ s[i + 1:]
    r, z = r * 2.0**k, z * 2.0**k
    got, want = OpCounters(), OpCounters()
    best, dist = centred_search(n)(z, r, pam, got)
    ref_best, ref_dist = centred_search_reference(z, r, pam, want)
    assert best == ref_best
    assert struct.pack("d", dist) == struct.pack("d", ref_dist)
    assert got == want


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([4, 8]), m=st.sampled_from([4, 16, 64]),
       k=st.integers(-40, 40), data=st.data())
def test_tree_search_equals_the_recursive_reference(seed, n, m, k, data):
    """The generated tree search runs the recursive table search node for
    node: the same leaf calls, best point, payload, distance bits and
    counters.  R has the tree block's pattern with a diagonal of ones and
    twos, and everything is scaled by 2^k.  Level i's centre is on a PAM
    level or at a random offset from one, along the path of the levels
    nearest each centre.  At up to four levels the centre is an exact tie
    instead, a midpoint from ``EXACT_TIES`` (row i's coupling zeroed), at
    every node.  Every leaf call gets the search's ``pam`` and counters and
    the leaf stage's R and ``z`` as handed in.  The leaf hook's ``d_p``
    depends on the leaf and the radius: a squared PAM spacing at the first
    leaf, which keeps the sphere wide, then 0, a quarter of that, or
    ``radius - d_leaf``, whose total ties the radius, so that only the
    strict-improvement rule keeps the leaf found first."""
    pam = QAMS[m].pam
    levels = pam.level_tuple
    offsets = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ties = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
    rng = derive_rng(seed)
    couples = dict(COUPLED_DIMS)
    r = np.diag(2.0 ** rng.integers(0, 2, n))
    s = [0.0] * n
    z = np.zeros(n)
    for i in reversed(range(n)):
        j = int(rng.integers(0, len(levels) - 1))
        if i in couples:
            r[i, couples[i]] = 0.0 if i in ties else rng.standard_normal()
        if i in ties:
            t, s[i] = EXACT_TIES[m][j % len(EXACT_TIES[m])]
        else:
            s[i] = levels[j]
            t = levels[j] + (rng.uniform(-0.5, 0.5) * pam.spacing if offsets[i] else 0.0)
        z[i] = r[i, i] * t + r[i, i + 1:] @ s[i + 1:]
    r, z = r * 2.0**k, z * 2.0**k
    wide = (pam.spacing * 2.0**k) ** 2  # a radius that keeps about one level each side

    def hook(calls, c):
        def leaf(s, leaf_r, radius, d_leaf, leaf_pam, counters, leaf_z):
            calls.append((tuple(s), struct.pack("dd", d_leaf, radius), leaf_r, leaf_z,
                          leaf_pam is pam, counters is c))
            kind = sum(levels.index(x) * (i + 1) for i, x in enumerate(s)) % 3
            d_p = wide if radius == math.inf else (0.0, radius - d_leaf, wide / 4)[kind]
            return tuple(s), kind, d_p
        return leaf

    runs = []
    for search in (tree_search, tree_search_reference):
        calls, c = [], OpCounters()
        best, payload, dist = search(z, r, pam, hook(calls, c), c, "rows", "z")
        runs.append((best, payload, struct.pack("d", dist), c, calls))
    assert runs[0] == runs[1]
    assert {call[2:] for call in runs[0][4]} == {("rows", "z", True, True)}


@pytest.mark.parametrize("order", ["centred", "tables"])
def test_tree_search_runs_on_plain_floats(order):
    # NumPy z and R go in; every distance and symbol the searches hand out is
    # a Python float, so the per-node arithmetic never runs as NumPy scalars
    rng = derive_rng(225)
    _, eq, y = random_instance(rng, QAM16, 12.0)
    r, z = gram_schmidt_qr(eq.h_eq, y)
    if order == "centred":
        best, dist = centred_search(16)(z, r, QAM16.pam, OpCounters())
        assert type(dist) is float
        assert {type(x) for x in best} == {float}
        return
    r, z = r[8:, 8:], z[8:]  # the tree block, whose pattern the table policy needs
    seen = []

    def leaf(s, leaf_r, radius, d_leaf, pam, counters, leaf_z):
        seen.append((type(d_leaf), type(radius)))
        return None, None, 0.0

    _, _, dist = tree_search(z, r, QAM16.pam, leaf, OpCounters(), None, None)
    assert type(dist) is float
    assert seen and set(seen) == {(float, float)}


@pytest.mark.parametrize("n", [2, 6])
def test_tree_search_refuses_a_block_of_other_sizes(n):
    # a coupled row of such a block names a level it does not have
    with pytest.raises(ValueError, match=f"4 or 8 levels, not {n}"):
        tree_search(np.zeros(n), np.eye(n), QPSK.pam, complete, OpCounters(), None, None)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("arg", ["y_tilde", "h_eq"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_refuses_non_finite_input(name, arg, bad):
    rng = derive_rng(226)
    _, eq, y = random_instance(rng, QPSK, 10.0)
    h_eq = eq.h_eq.copy()
    if arg == "y_tilde":
        y[3] = bad
    else:
        h_eq[5, 2] = bad
    decode = get_decoder(name)
    with pytest.raises(ValueError, match=f"^{arg} contains NaN or inf") as info:
        decode(y, h_eq, QPSK)
    # not a RankDeficiencyError, which the sweep would swallow and resample
    assert not isinstance(info.value, RankDeficiencyError)


@pytest.mark.parametrize("scale, only_y", [(1e-170, False), (1e155, False), (1e155, True)])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_decoders_refuse_scales_outside_the_float_range(name, scale, only_y):
    # at 1e-170 the search distances lose their bits to subnormal rounding
    # (sd-baseline used to return other symbols), at 1e155 they overflow to
    # inf (the search decoders used to fail with opaque errors)
    _, eq, y = random_instance(derive_rng(231), QAM16, 12.0)
    h_eq = eq.h_eq if only_y else eq.h_eq * scale
    arg = "h_eq" if scale < 1.0 else "y_tilde"
    decode = get_decoder(name)
    with pytest.raises(ValueError, match=f"^{arg} has largest magnitude") as info:
        decode(y * scale, h_eq, QAM16)
    assert not isinstance(info.value, RankDeficiencyError)


@pytest.mark.parametrize("arg", ["y_tilde", "h_eq"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_decoders_refuse_complex_input(name, arg):
    # the right shape with a complex dtype: converting it to float would
    # drop the imaginary part, and decoders used to return a metric for it
    _, eq, y = random_instance(derive_rng(233), QPSK, 10.0)
    h_eq = eq.h_eq
    if arg == "y_tilde":
        y = y + 0.5j
    else:
        h_eq = h_eq + 0.5j
    decode = get_decoder(name)
    with pytest.raises(ValueError, match=f"^{arg} has a complex dtype") as info:
        decode(y, h_eq, QPSK)
    assert not isinstance(info.value, RankDeficiencyError)


@pytest.mark.parametrize("arg, n", [
    ("h_eq", 15), ("y_tilde", 15), ("y_tilde", 17),
    # 16 entries in another layout: a 4x4 np.vstack([Y.real, Y.imag]) of the
    # 2x4 received block used to decode silently to other symbols
    pytest.param("y_tilde", (4, 4), id="y_tilde-4x4"),
    pytest.param("y_tilde", (2, 8), id="y_tilde-2x8"),
    pytest.param("y_tilde", (1, 16), id="y_tilde-1x16"),
])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_decoders_refuse_wrong_shapes(name, arg, n):
    # n is the column count of h_eq or the shape of y_tilde
    _, eq, y = random_instance(derive_rng(230), QPSK, 10.0)
    decode = get_decoder(name)
    # a column vector is the same input, raveled
    ref = decode(y, eq.h_eq, QPSK)
    assert np.array_equal(decode(y.reshape(16, 1), eq.h_eq, QPSK).symbols, ref.symbols)
    h_eq = eq.h_eq[:, :n] if arg == "h_eq" else eq.h_eq
    if arg == "y_tilde":
        y = np.resize(y, n)
    with pytest.raises(ValueError, match=f"^{arg} has") as info:
        decode(y, h_eq, QPSK)
    assert not isinstance(info.value, RankDeficiencyError)


# right shapes for each array argument, and wrong values of every kind for
# the constellation: an order, a name, the PAM set, the points, and forged
# ones (16-QAM points on the QPSK PAM set, which used to decode to QPSK
# points, an order build_qam does not make, a copy of QPSK)
GOOD_SHAPES = {"y_tilde": ((16,), (16, 1)), "h_eq": ((16, 16),)}
BAD_CONSTELLATIONS = (16, 4.0, None, "16qam", QPSK.pam, QPSK.points,
                      QamConstellation(order=16, points=QAM16.points, pam=QPSK.pam),
                      QamConstellation(order=32, points=QAM16.points, pam=QAM16.pam),
                      copy.copy(QPSK))


@st.composite
def misuse(draw):
    """A QPSK decode input with one wrong argument: its name and the input."""
    _, eq, y = random_instance(derive_rng(235), QPSK, 10.0)
    args = {"y_tilde": y, "h_eq": eq.h_eq, "constellation": QPSK}
    arg = draw(st.sampled_from(sorted(args)))
    kind = draw(st.sampled_from(("dtype", "shape", "ragged")))
    if arg == "constellation":
        args[arg] = draw(st.sampled_from(BAD_CONSTELLATIONS))
    elif kind == "dtype":
        args[arg] = args[arg].astype(draw(st.sampled_from((bool, str, bytes, object, complex))))
    elif kind == "shape":
        shape = draw(st.lists(st.integers(0, 17), max_size=3).map(tuple)
                     .filter(lambda shape: shape not in GOOD_SHAPES[arg]))
        args[arg] = np.resize(args[arg], shape)
    else:  # nested lists, one entry a short row
        args[arg] = args[arg].tolist() + [[1.0]]
    return arg, args


@settings(max_examples=80)
@given(misuse())
def test_registry_refuses_wrong_dtypes_shapes_and_constellations(case):
    # a bool or object y_tilde used to decode, a str one to fail in NumPy, a
    # ragged one to raise NumPy's own ValueError, a constellation that is not
    # one to raise AttributeError, and a forged one to decode
    arg, args = case
    error = TypeError if arg == "constellation" else ValueError
    for name in REGISTRY:
        with pytest.raises(error, match=f"^{arg} ") as info:
            get_decoder(name)(args["y_tilde"], args["h_eq"], args["constellation"])
        assert not isinstance(info.value, RankDeficiencyError)


# (constellation order, SNR in dB).  16-QAM is drawn only at high SNR: at
# 0 dB and below, one 16-QAM decode takes up to a second.
METRIC_POINTS = ((4, -10.0), (4, 0.0), (4, 30.0), (4, 60.0), (16, 30.0), (16, 60.0))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-60, 60), point=st.sampled_from(METRIC_POINTS))
def test_search_decoders_reach_the_ml_metric_at_any_scale_and_snr(seed, k, point):
    # every search decoder reaches sd-baseline's registry metric (and brute
    # force's at QPSK) on channels scaled by 2^k
    m, snr_db = point
    qam = build_qam(m)
    rng = derive_rng(seed)
    scale = 2.0**k
    h_eq = make_equivalent(scale * sample_channel(rng), "new").h_eq
    s_tilde = tilde_interleave(qam.points[rng.integers(0, m, 8)])
    noise = scale * math.sqrt(snr_to_sigma2(snr_db, qam)) * rng.standard_normal(16)
    y = h_eq @ s_tilde + noise
    names = SEARCH_DECODERS + (("bruteforce",) if m == 4 else ())
    metrics = {name: get_decoder(name)(y, h_eq, qam).metric for name in names}
    ref = metrics["sd-baseline"]
    for name, metric in metrics.items():
        assert abs(metric - ref) <= 1e-9 * ref, (name, metrics)


# (constellation order, SNR in dB) for ill-conditioned channels; 16-QAM only
# at 20 dB and above, where one decode stays short
ILL_POINTS = ((4, 0.0), (4, 10.0), (4, 20.0), (16, 20.0), (16, 30.0))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), column=st.integers(0, 15), k=st.integers(10, 30),
       point=st.sampled_from(ILL_POINTS))
def test_search_decoders_reach_the_ml_metric_on_ill_conditioned_channels(seed, column, k, point):
    # one real column of h_eq scaled by 2^-k: cond(h_eq) from about 1e3 to
    # 5e9, and the R structure the two-stage decoder relies on still holds
    m, snr_db = point
    qam = build_qam(m)
    rng = derive_rng(seed)
    h_eq = make_equivalent(sample_channel(rng), "new").h_eq
    h_eq[:, column] *= 2.0**-k
    assert verify_r_structure(gram_schmidt_qr(h_eq).r, h_eq).ok
    s_tilde = tilde_interleave(qam.points[rng.integers(0, m, 8)])
    y = h_eq @ s_tilde + math.sqrt(snr_to_sigma2(snr_db, qam)) * rng.standard_normal(16)
    names = SEARCH_DECODERS + (("bruteforce",) if m == 4 else ())
    metrics = {name: get_decoder(name)(y, h_eq, qam).metric for name in names}
    ref = metrics["bruteforce"] if m == 4 else metrics["sd-baseline"]
    for name, metric in metrics.items():
        assert abs(metric - ref) <= 1e-9 * ref, (name, metrics)


# SNR range in dB per constellation order.  A search fault shows most where
# the sphere holds several candidates: a swapped interior S-E order entry
# made 8-11 % of 16-QAM decodes at 4-12 dB non-ML and 3-10 % of 64-QAM
# decodes at 16-24 dB.  Below 16 dB one 64-QAM decode can take seconds.
CERTIFIED_SNR = {4: (0, 40), 16: (0, 24), 64: (16, 28)}


@pytest.mark.parametrize("m", sorted(CERTIFIED_SNR))
@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-240, 240), data=st.data())
def test_search_decoders_are_certified_ml(m, seed, k, data):
    # every search decoder's answer is in the tie class of an enumeration
    # that shares no code with the search, the S-E orders or the decoders'
    # QR (helpers.ml_tie_class); power-of-two scales are exact
    snr_db = data.draw(st.integers(*CERTIFIED_SNR[m]), label="snr_db")
    qam = QAMS[m]
    _, eq, y = random_instance(derive_rng(seed), qam, float(snr_db))
    h_eq, y = eq.h_eq * 2.0**k, y * 2.0**k
    for name in SEARCH_DECODERS:
        assert_certified_ml(y, h_eq, qam, get_decoder(name)(y, h_eq, qam))


# objects one decode leaves to the cyclic GC, by decoder; a test parameter,
# not part of the test id, so that an intended change renames no test
GARBAGE = {"sd-baseline": 3, "simplified": 3, "simplified-cs4": 3, "simplified-cs2": 3}


@pytest.mark.parametrize("name", GARBAGE)
def test_per_decode_cyclic_garbage(name):
    """Pins how many gc-tracked objects one decode leaves in generation 0.

    Both searches are generated nested loops, so no decoder leaves a
    closure cycle: a decode leaves its result, the result's counters and
    their ``branch_nodes`` list.  The sweep benchmark's speed probe, which
    runs with gc enabled, reads any change in this count as a 2-3x change
    in speed.  The test goes when the probe runs with gc off (ROADMAP item
    1).
    """
    decode = get_decoder(name)
    for m, snr_db in ((4, 0.0), (16, 12.0), (64, 40.0)):
        qam = build_qam(m)
        _, eq, y = random_instance(derive_rng(232, m), qam, snr_db)
        # NumPy's linalg calls set a context variable (errstate); in a
        # context that already holds others, as under pytest, that can leave
        # new tracked HAMT nodes, so count in an empty one, as a script runs
        context = contextvars.Context()
        context.run(decode, y, eq.h_eq, qam)  # fills the per-constellation caches
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects(0))
            result = context.run(decode, y, eq.h_eq, qam)  # held, as a caller holds it
            left = len(gc.get_objects(0)) - before
        finally:
            if was_enabled:
                gc.enable()
        assert left == GARBAGE[name], (m, left)
        del result  # so the next measurement does not see it freed


def test_registry_switch_resolution():
    # the registry name is the only way to pick a switch mode: each entry
    # returns its search core's decided vector and counters
    rng = derive_rng(222)
    _, eq, y = random_instance(rng, QAM16, 10.0)
    for mode, name in SIMPLIFIED.items():
        via_name = get_decoder(name)(y, eq.h_eq, QAM16)
        counters = OpCounters()
        decided = simplified_ml(y, eq.h_eq, QAM16, mode, counters)
        assert np.array_equal(tilde_interleave(via_name.symbols), decided)
        assert via_name.counters == counters
    with pytest.raises(TypeError):
        get_decoder("simplified", "2by2")


def test_baseline_visited_nodes_far_below_worst_case():
    # worst case is sqrt(M)^16 = 65536 nodes for QPSK; at 10 dB the adaptive
    # radius prunes to a few hundred at most (observed mean ~100, recorded
    # here as a loose regression bound)
    rng = derive_rng(224)
    decode = get_decoder("sd-baseline")
    totals = []
    for _ in range(50):
        _, eq, y = random_instance(rng, QPSK, 10.0)
        totals.append(decode(y, eq.h_eq, QPSK).counters.visited_nodes)
    assert max(totals) < 2**16
    assert sum(totals) / len(totals) < 2000


def test_sd_baseline_core_signature():
    # the core works on (z, R) directly and returns the decided interleaved
    # vector; the registry entry adds the QR's charge and the metric
    rng = derive_rng(223)
    _, eq, y = random_instance(rng, QPSK, 15.0)
    r, z = gram_schmidt_qr(eq.h_eq, y)
    counters = OpCounters()
    charge_rotation(counters)
    decided = sd_baseline(z, r, QPSK, counters)
    res = get_decoder("sd-baseline")(y, eq.h_eq, QPSK)
    assert np.array_equal(tilde_interleave(res.symbols), decided)
    assert res.counters == counters


def test_ml_bruteforce_core_signature():
    # the core takes the checked input and fresh counters and returns the
    # decided interleaved vector; the registry entry adds the check and the
    # metric
    rng = derive_rng(225)
    _, eq, y = random_instance(rng, QPSK, 5.0)
    counters = OpCounters()
    decided = ml_bruteforce(y, eq.h_eq, QPSK, counters)
    res = get_decoder("bruteforce")(y, eq.h_eq, QPSK)
    assert np.array_equal(tilde_interleave(res.symbols), decided)
    assert res.counters == counters
    assert not decided.flags.writeable  # a row of the shared candidate table


@pytest.mark.parametrize("name", REGISTRY)
def test_registry_checks_the_input_once_per_decode(name, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(name)
        return require_decodable(*args)

    monkeypatch.setattr(decoders_module, "require_decodable", counted)
    _, eq, y = random_instance(derive_rng(226), QPSK, 10.0)
    decode = get_decoder(name)
    decode(y, eq.h_eq, QPSK)
    decode(y, eq.h_eq, QPSK)
    assert len(calls) == 2


@pytest.mark.parametrize("name", SEARCH_DECODERS + ("bruteforce",))
def test_registry_metric_is_the_interleaved_residual(name):
    # the reported metric reads the symbols through a dtype view; it is
    # the same float as the residual of their interleaved copy, for every
    # entry, brute force included
    rng = derive_rng(231)
    configs = ((4, 5.0),) if name == "bruteforce" else ((4, 5.0), (16, 15.0))
    for m, snr_db in configs:
        qam = QAMS[m]
        for _ in range(10):
            _, eq, y = random_instance(rng, qam, snr_db)
            res = get_decoder(name)(y, eq.h_eq, qam)
            resid = y - eq.h_eq @ tilde_interleave(res.symbols)
            assert res.metric == float(resid @ resid)


@pytest.mark.parametrize("m", [4, 16, 64])
def test_search_decoders_on_exact_ties(m):
    # noiseless y halfway between H s_a and H s_b, which differ by one PAM
    # step in one real dimension: every decoder's answer is certified ML,
    # and where s_a and s_b are ML the certified tie class holds both
    qam = QAMS[m]
    levels = qam.pam.level_tuple
    rng = derive_rng(232, m)
    names = SEARCH_DECODERS + (("bruteforce",) if m == 4 else ())
    tied = 0
    for _ in range(25):
        h_eq = make_equivalent(sample_channel(rng), "new").h_eq
        s_a = tilde_interleave(qam.points[rng.integers(0, m, 8)])
        s_b = s_a.copy()
        dim = rng.integers(16)
        k = levels.index(s_a[dim])
        up = k == 0 or (k < len(levels) - 1 and rng.integers(2))
        s_b[dim] = levels[k + 1] if up else levels[k - 1]
        y = h_eq @ ((s_a + s_b) / 2)
        for name in names:
            tie = assert_certified_ml(y, h_eq, qam, get_decoder(name)(y, h_eq, qam))
            pair = [(tie == s).all(axis=1).any() for s in (s_a, s_b)]
            assert pair[0] == pair[1], name
        tied += pair[0]
    assert tied >= 20  # the pair is the ML pair on most channels
