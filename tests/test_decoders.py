import contextvars
import gc
import math

import numpy as np
import pytest
from helpers import (
    branch_oracle,
    column_switch_reference,
    parallel_decisions_lockstep,
    random_branch_fixture,
    random_instance,
    tree_pattern_r,
    two_stage_ml_metric,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mimo3d import build_qam, derive_rng, make_equivalent, sample_channel, snr_to_sigma2
from mimo3d.counters import OpCounters
from mimo3d.decoders import REGISTRY, get_decoder, verify_r_structure
from mimo3d.decoders.bruteforce import ml_bruteforce
from mimo3d.decoders.simplified import (
    ALLOWED_ORDERS,
    column_switch,
    compute_v,
    parallel_decisions,
    simplified_ml,
    zf_estimate,
)
from mimo3d.decoders.sphere import sd_baseline, tree_search
from mimo3d.decoders.structure import COUPLED_DIMS, REL_TOL, gram_cross, two_stage_zeros
from mimo3d.linalg import RankDeficiencyError, gram_schmidt_qr, tilde_interleave
from mimo3d.modem import se_order

QPSK = build_qam(4)
QAM16 = build_qam(16)
SEARCH_DECODERS = ("sd-baseline", "simplified", "simplified-cs4", "simplified-cs2")


def test_registry_names():
    assert set(REGISTRY) == {
        "bruteforce", "sd-baseline", "simplified", "simplified-cs4", "simplified-cs2",
    }
    with pytest.raises(KeyError):
        get_decoder("nope")


def test_bruteforce_noiseless():
    rng = derive_rng(200)
    s, eq, y = random_instance(rng, QPSK, None)
    res = ml_bruteforce(y, eq.h_eq, QPSK)
    assert np.array_equal(res.symbols, s)
    assert res.metric < 1e-18
    assert res.counters.tree_nodes == 4**8  # exhaustive by construction
    assert res.counters.mults == 4**8 * (16 * 16 + 16)


def test_bruteforce_refuses_large_constellations():
    rng = derive_rng(201)
    _, eq, y = random_instance(rng, QAM16, 10.0)
    with pytest.raises(ValueError):
        ml_bruteforce(y, eq.h_eq, QAM16)


def test_baseline_matches_bruteforce_qpsk():
    rng = derive_rng(202)
    decode = get_decoder("sd-baseline")
    for i in range(150):
        snr = 20.0 * i / 149
        s, eq, y = random_instance(rng, QPSK, snr)
        ref = ml_bruteforce(y, eq.h_eq, QPSK)
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


@pytest.mark.parametrize("mode", ["none", "4by4", "2by2"])
def test_simplified_matches_bruteforce_qpsk(mode):
    rng = derive_rng(204)
    for i in range(100):
        snr = 20.0 * i / 99
        s, eq, y = random_instance(rng, QPSK, snr)
        ref = ml_bruteforce(y, eq.h_eq, QPSK)
        res = simplified_ml(y, eq.h_eq, QPSK, switch_mode=mode)
        assert abs(res.metric - ref.metric) <= 1e-9
        if not np.array_equal(res.symbols, ref.symbols):
            assert abs(res.metric - ref.metric) <= 1e-12


@pytest.mark.parametrize("mode", ["none", "4by4", "2by2"])
def test_simplified_16qam_matches_baseline(mode):
    rng = derive_rng(205)
    baseline = get_decoder("sd-baseline")
    for i in range(40):
        snr = 8.0 + 12.0 * i / 39
        _, eq, y = random_instance(rng, QAM16, snr)
        ref = baseline(y, eq.h_eq, QAM16)
        res = simplified_ml(y, eq.h_eq, QAM16, switch_mode=mode)
        assert abs(res.metric - ref.metric) <= 1e-9


def test_simplified_64qam_high_snr():
    rng = derive_rng(206)
    qam64 = build_qam(64)
    baseline = get_decoder("sd-baseline")
    for _ in range(3):
        _, eq, y = random_instance(rng, qam64, 28.0)
        ref = baseline(y, eq.h_eq, qam64)
        res = simplified_ml(y, eq.h_eq, qam64, switch_mode="2by2")
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
        res = simplified_ml(y, eq_new.h_eq, QPSK, switch_mode="2by2")
        ref = baseline(y, eq_new.h_eq, QPSK)
        assert abs(res.metric - ref.metric) <= 1e-9 * ref.metric
        with pytest.raises(ValueError) as err:
            simplified_ml(eq_orig.h_eq @ st + w, eq_orig.h_eq, QPSK)
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
    for mode in ("none", "2by2"):
        s, eq, y = random_instance(rng, QPSK, None)
        res = simplified_ml(y, eq.h_eq, QPSK, switch_mode=mode)
        assert np.array_equal(res.symbols, s)
        assert res.metric < 1e-18
        assert res.counters.leaves == 1


def test_switch_modes_agree_per_instance():
    rng = derive_rng(208)
    for i in range(40):
        _, eq, y = random_instance(rng, QAM16, 6.0 + i % 10)
        metrics = [
            simplified_ml(y, eq.h_eq, QAM16, switch_mode=mode).metric
            for mode in ("none", "4by4", "2by2")
        ]
        assert max(metrics) - min(metrics) <= 1e-9


def test_cross_branch_termination_is_transparent(monkeypatch):
    # an infinite radius turns the cross-branch test off
    def no_cross_stop(v, r, radius, d_outer, pam, counters):
        return parallel_decisions(v, r, math.inf, d_outer, pam, counters)

    rng = derive_rng(209)
    instances = [random_instance(rng, QAM16, 4.0 + (i % 12)) for i in range(60)]
    with_stop = [simplified_ml(y, eq.h_eq, QAM16, switch_mode="2by2") for _, eq, y in instances]
    monkeypatch.setattr("mimo3d.decoders.simplified.parallel_decisions", no_cross_stop)
    without = [simplified_ml(y, eq.h_eq, QAM16, switch_mode="2by2") for _, eq, y in instances]
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
    res = simplified_ml(y, eq.h_eq, QPSK)
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
        v = np.array(compute_v(z, r, st[8:16]))
        split = (
            np.sum((v[0:4] - r[0:4, 0:4] @ a) ** 2)
            + np.sum((v[4:8] - r[4:8, 4:8] @ b) ** 2)
            + np.sum((z[8:12] - r[8:12, 8:12] @ c - r[8:12, 12:16] @ d) ** 2)
            + np.sum((z[12:16] - r[12:16, 12:16] @ d) ** 2)
        )
        assert abs(full - split) <= 1e-10


def test_compute_v_basics():
    rng = derive_rng(212)
    _, eq, y = random_instance(rng, QPSK, 10.0)
    r, z = gram_schmidt_qr(eq.h_eq, y)
    assert np.array_equal(compute_v(z, r, np.zeros(8)), z[:8])
    s1, s2 = rng.standard_normal(8), rng.standard_normal(8)
    lhs = np.array(compute_v(z, r, s1 + s2))
    rhs = np.array(compute_v(z, r, s1)) + np.array(compute_v(z, r, s2)) - z[:8]
    assert np.abs(lhs - rhs).max() < 1e-10


def test_compute_v_noiseless_forward_model():
    rng = derive_rng(213)
    s, eq, y = random_instance(rng, QPSK, None)
    r, z = gram_schmidt_qr(eq.h_eq, y)
    st = tilde_interleave(s)
    v = np.array(compute_v(z, r, st[8:16]))
    expected = r[0:8, 0:8] @ st[0:8]  # R12 block is (numerically) zero
    assert np.abs(v - expected).max() < 1e-10


@pytest.mark.parametrize("pam_order", [4, 16])
def test_parallel_decisions_branch_oracle(pam_order):
    pam = build_qam(pam_order).pam
    rng = derive_rng(214, pam_order)
    for _ in range(2000):
        v, r = random_branch_fixture(rng, pam)
        a_hat, b_hat, d_p = parallel_decisions(v, r, math.inf, 0.0, pam, OpCounters())
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
    parallel_decisions(v, r, math.inf, 0.0, pam, counters)
    assert all(n <= pam.order for n in counters.branch_nodes)


def test_parallel_decisions_relative_rank_rule():
    pam = QAM16.pam
    v, r = random_branch_fixture(derive_rng(229), pam)
    scale = 2.0**-46
    got = parallel_decisions(v * scale, r * scale, math.inf, 0.0, pam, OpCounters())
    want = parallel_decisions(v, r, math.inf, 0.0, pam, OpCounters())
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
    # outer distance drawn so that cross-branch stopping fires on part of
    # the fixtures; every fourth fixture has exact slicing ties.
    pam = build_qam(m).pam
    rng = derive_rng(226, m)
    fired = 0
    fixtures = 2000
    for t in range(fixtures):
        make = _tie_branch_fixture if t % 4 == 3 else random_branch_fixture
        v, r = make(rng, pam)
        free = parallel_decisions_lockstep(v, r, math.inf, 0.0, pam, OpCounters())[2]
        d_outer = free * rng.uniform(0.0, 1.0)
        radius = d_outer + free * rng.uniform(0.0, 1.5)
        cross = t % 8 != 0
        got_c, want_c, plain_c = OpCounters(), OpCounters(), OpCounters()
        # radius=math.inf turns the cross-branch test off, as cross=False does
        got = parallel_decisions(v, r, radius if cross else math.inf, d_outer, pam, got_c)
        want = parallel_decisions_lockstep(v, r, radius, d_outer, pam, want_c, cross)
        assert got == want  # a_hat, b_hat and d_p, exactly
        assert got_c == want_c  # branch_nodes, mults, divs (tree counters untouched)
        parallel_decisions_lockstep(v, r, radius, d_outer, pam, plain_c, False)
        fired += (want_c.branch_nodes, want_c.mults) != (plain_c.branch_nodes, plain_c.mults)
    print(f"\nM={m}: cross-branch stopping fired on {fired} of {fixtures} fixtures")
    assert 0.1 * fixtures < fired < 0.9 * fixtures


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
    got = parallel_decisions(v, r, radius, 0.0, pam, got_c)
    want = parallel_decisions_lockstep(v, r, radius, 0.0, pam, want_c)
    assert got == want
    assert got_c == want_c
    assert got_c.branch_nodes == [3, 3, 2, 4]


PAMS = {m: build_qam(m).pam for m in (4, 16, 64)}


@st.composite
def branch_inputs(draw):
    """(pam, v, R, d_outer, radius) for the parallel decisions.  Diagonal
    entries are drawn from powers of two as well, and v from PAM levels and
    midpoints times them, so that slicing arguments and S-E estimates land
    exactly on midpoints; with r12 = 0 candidates then tie in distance."""
    pam = PAMS[draw(st.sampled_from(sorted(PAMS)))]
    levels = pam.level_tuple
    targets = levels + tuple((a + b) / 2 for a, b in zip(levels, levels[1:]))
    diag = st.sampled_from((0.25, 0.5, 1.0, 2.0)) | st.floats(0.05, 4.0)
    r = np.zeros((16, 16))
    v = np.zeros(8)
    for i1, i2 in COUPLED_DIMS:
        r[i1, i1], r[i2, i2] = draw(diag), draw(diag)
        r[i1, i2] = draw(st.just(0.0) | st.floats(-2.0, 2.0))
        for i in (i1, i2):
            v[i] = draw(st.sampled_from(targets).map(lambda x, d=r[i, i]: x * d)
                        | st.floats(-6.0, 6.0))
    free = parallel_decisions_lockstep(v, r, math.inf, 0.0, pam, OpCounters())[2]
    d_outer = free * draw(st.floats(0.0, 1.0))
    share = draw(st.none() | st.floats(0.0, 1.5))  # None: infinite radius
    radius = math.inf if share is None else d_outer + free * share
    return pam, v, r, d_outer, radius


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(branch_inputs())
def test_parallel_decisions_equal_lockstep_property(case):
    pam, v, r, d_outer, radius = case
    got_c, want_c = OpCounters(), OpCounters()
    got = parallel_decisions(v, r, radius, d_outer, pam, got_c)
    want = parallel_decisions_lockstep(v, r, radius, d_outer, pam, want_c)
    assert got == want  # a_hat, b_hat and d_p, exactly
    assert got_c == want_c


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
    # both policies, on an R with the tree block's pattern
    rng = np.random.default_rng(13)
    z = rng.standard_normal(8)
    scale = 2.0**-46
    for tables in (False, True):
        r = tree_pattern_r(rng)
        want = tree_search(z, r, QPSK.pam, None, OpCounters(), tables=tables)
        got = tree_search(z * scale, r * scale, QPSK.pam, None, OpCounters(), tables=tables)
        assert got[0] == want[0] and got[2] == want[2] * scale**2


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


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(switch_estimates(), st.sampled_from(("4by4", "2by2")))
def test_column_switch_equals_complex_reference(case, mode):
    # slicing errors on Python floats give the bits of the complex128 formula
    qam, s_zf = case
    got_h, got = column_switch(s_zf, SWITCH_H, mode, qam)
    want_h, want = column_switch_reference(s_zf, SWITCH_H, mode, qam)
    assert got.order == want.order
    assert got.epsilons == want.epsilons  # exactly, not approximately
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
    best, payload, radius = tree_search(
        z, r, QPSK.pam, lambda s, d, rad: (0.0, None), counters, tables=True
    )
    a = QPSK.pam.level_tuple[1]
    assert best == [a, -a, -a, a]
    assert payload is None
    assert abs(radius - 1.635) < 1e-12
    assert counters.tree_nodes == 13
    assert counters.leaves == 1
    assert counters.mults == 29  # 2 per candidate, 1 per coupled entry built
    assert counters.divs == 5  # 1 per entry built


# where a tree level's conditional centre sits: on a PAM level, exactly
# halfway between two (an S-E tie), or at a random offset from a level
CENTRES = ("level", "tie", "offset")


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
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
    runs = []
    for tables in (False, True):
        c = OpCounters()
        best, _, dist = tree_search(z, r, pam, None, c, tables=tables)
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


@pytest.mark.parametrize("order", ["centred", "tables"])
def test_tree_search_runs_on_plain_floats(order):
    # NumPy z and R go in; every distance the engine hands out is a Python
    # float, so the per-node arithmetic never runs as NumPy scalars
    rng = derive_rng(225)
    _, eq, y = random_instance(rng, QAM16, 12.0)
    r, z = gram_schmidt_qr(eq.h_eq, y)
    tables = order == "tables"
    if tables:  # the tree block, whose pattern the table policy needs
        r, z = r[8:, 8:], z[8:]
    seen = []

    def leaf(s, d_leaf, radius):
        seen.append((type(d_leaf), type(radius)))
        return 0.0, None

    _, _, dist = tree_search(z, r, QAM16.pam, leaf, OpCounters(), tables=tables)
    assert type(dist) is float
    assert seen and set(seen) == {(float, float)}


# the public decoders called directly, next to the registry names
DIRECT = {"ml_bruteforce": ml_bruteforce, "simplified_ml": simplified_ml}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("arg", ["y_tilde", "h_eq"])
@pytest.mark.parametrize("name", sorted(REGISTRY) + sorted(DIRECT))
def test_registry_refuses_non_finite_input(name, arg, bad):
    rng = derive_rng(226)
    _, eq, y = random_instance(rng, QPSK, 10.0)
    h_eq = eq.h_eq.copy()
    if arg == "y_tilde":
        y[3] = bad
    else:
        h_eq[5, 2] = bad
    decode = DIRECT.get(name) or get_decoder(name)
    with pytest.raises(ValueError, match=f"^{arg} contains NaN or inf") as info:
        decode(y, h_eq, QPSK)
    # not a RankDeficiencyError, which the sweep would swallow and resample
    assert not isinstance(info.value, RankDeficiencyError)


@pytest.mark.parametrize("scale, only_y", [(1e-170, False), (1e155, False), (1e155, True)])
@pytest.mark.parametrize("name", sorted(REGISTRY) + sorted(DIRECT))
def test_decoders_refuse_scales_outside_the_float_range(name, scale, only_y):
    # at 1e-170 the search distances lose their bits to subnormal rounding
    # (sd-baseline used to return other symbols), at 1e155 they overflow to
    # inf (the search decoders used to fail with opaque errors)
    _, eq, y = random_instance(derive_rng(231), QAM16, 12.0)
    h_eq = eq.h_eq if only_y else eq.h_eq * scale
    arg = "h_eq" if scale < 1.0 else "y_tilde"
    decode = DIRECT.get(name) or get_decoder(name)
    with pytest.raises(ValueError, match=f"^{arg} has largest magnitude") as info:
        decode(y * scale, h_eq, QAM16)
    assert not isinstance(info.value, RankDeficiencyError)


@pytest.mark.parametrize("arg, n", [("h_eq", 15), ("y_tilde", 15), ("y_tilde", 17)])
@pytest.mark.parametrize("name", sorted(REGISTRY) + sorted(DIRECT))
def test_decoders_refuse_wrong_shapes(name, arg, n):
    # n is the column count of h_eq or the length of y_tilde
    _, eq, y = random_instance(derive_rng(230), QPSK, 10.0)
    decode = DIRECT.get(name) or get_decoder(name)
    # a column vector is the same input, raveled
    ref = decode(y, eq.h_eq, QPSK)
    assert np.array_equal(decode(y.reshape(16, 1), eq.h_eq, QPSK).symbols, ref.symbols)
    h_eq = eq.h_eq[:, :n] if arg == "h_eq" else eq.h_eq
    if arg == "y_tilde":
        y = np.resize(y, n)
    with pytest.raises(ValueError, match=f"^{arg} has") as info:
        decode(y, h_eq, QPSK)
    assert not isinstance(info.value, RankDeficiencyError)


def test_simplified_refuses_unknown_switch_mode():
    # refused at the top of the decode, before the zero-forcing solve would
    # meet the exactly singular h_eq
    _, eq, y = random_instance(derive_rng(227), QPSK, 10.0)
    singular = eq.h_eq.copy()
    singular[:, 2] = 0.0
    for h_eq in (eq.h_eq, singular):
        with pytest.raises(ValueError, match="unknown switch mode '8by8'"):
            simplified_ml(y, h_eq, QPSK, switch_mode="8by8")


# (constellation order, SNR in dB).  16-QAM is drawn only at high SNR: at
# 0 dB and below, one 16-QAM decode takes up to a second.
METRIC_POINTS = ((4, -10.0), (4, 0.0), (4, 30.0), (4, 60.0), (16, 30.0), (16, 60.0))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-60, 60), point=st.sampled_from(METRIC_POINTS))
def test_search_decoders_reach_the_ml_metric_at_any_scale_and_snr(seed, k, point):
    # every search decoder reaches sd-baseline's registry metric (and brute
    # force's at QPSK) on channels scaled by 2^k, and the bare two-stage
    # search distance equals it up to rounding
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
    metrics["simplified_ml"] = simplified_ml(y, h_eq, qam, switch_mode="2by2").metric
    ref = metrics["sd-baseline"]
    for name, metric in metrics.items():
        assert abs(metric - ref) <= 1e-9 * ref, (name, metrics)


# (constellation order, SNR in dB) for ill-conditioned channels; 16-QAM only
# at 20 dB and above, where one decode stays short
ILL_POINTS = ((4, 0.0), (4, 10.0), (4, 20.0), (16, 20.0), (16, 30.0))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
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


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(seed=st.integers(0, 2**32 - 1), snr_db=st.integers(4, 24), k=st.integers(-240, 240))
def test_search_decoders_match_an_independent_16qam_oracle(seed, snr_db, k):
    # The oracle enumerates the tree stage and the four leading 2-D problems
    # in NumPy, on its own QR, so a fault that the two search decoders share
    # (the engine, the S-E order tables, slicing) at a PAM level QPSK never
    # has cannot hide behind their agreement.  Power-of-two scales are exact.
    _, eq, y = random_instance(derive_rng(seed), QAM16, float(snr_db))
    h_eq, y = eq.h_eq * 2.0**k, y * 2.0**k
    q, r = np.linalg.qr(h_eq)
    ref = two_stage_ml_metric(q.T @ y, r, np.unique(QAM16.points.real))
    for name in SEARCH_DECODERS:
        metric = get_decoder(name)(y, h_eq, QAM16).metric
        assert abs(metric - ref) <= 1e-9 * ref, (name, metric, ref)


@pytest.mark.parametrize("name, garbage", [
    ("sd-baseline", 37), ("simplified", 59), ("simplified-cs4", 59), ("simplified-cs2", 59),
])
def test_per_decode_cyclic_garbage(name, garbage):
    """Pins how many gc-tracked objects one decode leaves in generation 0.

    The search's recursive closure is a reference cycle, so what it holds is
    left to the cyclic GC, and the sweep benchmark's speed probe, which runs
    with gc enabled, reads any change in this count as a 2-3x change in
    speed.  The test goes when the probe runs with gc off (ROADMAP item 1).
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
        assert left == garbage, (m, left)
        del result  # so the next measurement does not see it freed


def test_registry_switch_resolution():
    # the registry name is the only way to pick a switch mode
    rng = derive_rng(222)
    _, eq, y = random_instance(rng, QAM16, 10.0)
    for name, mode in (("simplified", "none"), ("simplified-cs4", "4by4"),
                       ("simplified-cs2", "2by2")):
        via_name = get_decoder(name)(y, eq.h_eq, QAM16)
        direct = simplified_ml(y, eq.h_eq, QAM16, switch_mode=mode)
        assert np.array_equal(via_name.symbols, direct.symbols)
        assert via_name.counters == direct.counters
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
    # the core works on (z, R) directly; metric is the rotated-domain residual
    rng = derive_rng(223)
    s, eq, y = random_instance(rng, QPSK, 15.0)
    r, z = gram_schmidt_qr(eq.h_eq, y)
    res = sd_baseline(z, r, QPSK, OpCounters())
    direct = np.sum((y - eq.h_eq @ tilde_interleave(res.symbols)) ** 2)
    assert abs(res.metric - direct) < 1e-9


@pytest.mark.parametrize("name", SEARCH_DECODERS)
def test_registry_metric_is_the_interleaved_residual(name):
    # the reported metric reads the symbols through a dtype view; it is
    # the same float as the residual of their interleaved copy
    rng = derive_rng(231)
    for m, snr_db in ((4, 5.0), (16, 15.0)):
        qam = QAMS[m]
        for _ in range(10):
            _, eq, y = random_instance(rng, qam, snr_db)
            res = get_decoder(name)(y, eq.h_eq, qam)
            resid = y - eq.h_eq @ tilde_interleave(res.symbols)
            assert res.metric == float(resid @ resid)


@pytest.mark.parametrize("m", [4, 16])
def test_search_decoders_on_exact_ties(m):
    # noiseless y halfway between H s_a and H s_b, which differ by one PAM
    # step in one real dimension: every decoder reaches the ML metric, and
    # where s_a and s_b are the ML pair it returns one of them
    qam = QAMS[m]
    levels = qam.pam.level_tuple
    rng = derive_rng(232, m)
    names = SEARCH_DECODERS + (("bruteforce",) if m == 4 else ())
    ref_name = "bruteforce" if m == 4 else "sd-baseline"
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
        results = {name: get_decoder(name)(y, h_eq, qam) for name in names}
        ref = results[ref_name].metric
        pair_metric = float(np.sum((y - h_eq @ s_a) ** 2))
        pair_is_ml = abs(pair_metric - ref) <= 1e-9 * ref
        tied += pair_is_ml
        for name, res in results.items():
            assert abs(res.metric - ref) <= 1e-9 * ref, (name, res.metric, ref)
            if pair_is_ml:
                got = tilde_interleave(res.symbols)
                assert np.array_equal(got, s_a) or np.array_equal(got, s_b), name
    assert tied >= 20  # the pair is the ML pair on most channels
