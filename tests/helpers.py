"""Shared test utilities: random link instances with known ground truth."""

import functools
import math

import numpy as np

from mimo3d import (
    encode_direct,
    make_equivalent,
    sample_channel,
    snr_to_sigma2,
)
from mimo3d.decoders.simplified import ALLOWED_ORDERS, ColumnSwitchPlan
from mimo3d.decoders.structure import COUPLED_DIMS, REL_TOL, two_stage_zeros
from mimo3d.linalg import tilde_interleave, vec_stack
from mimo3d.modem import slice_pam


def nearest_qam(z, constellation):
    """Closest constellation point to z (componentwise PAM slicing)."""
    pam = constellation.pam
    return slice_pam(z.real, pam) + 1j * slice_pam(z.imag, pam)


def random_instance(rng, constellation, snr_db, variant="new"):
    """One transmitted codeword through one channel draw.

    Returns (true symbols, EquivalentChannel, interleaved receive vector).
    ``snr_db=None`` means noiseless.
    """
    m = constellation.order
    s_true = constellation.points[rng.integers(0, m, 8)]
    h = sample_channel(rng)
    eq = make_equivalent(h, variant)
    x = encode_direct(s_true, variant)
    y = h @ x
    if snr_db is not None:
        sigma = np.sqrt(snr_to_sigma2(snr_db, constellation))
        y = y + sigma * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    return s_true, eq, tilde_interleave(vec_stack(y))


def random_branch_fixture(rng, pam):
    """Random (v, R) with the entries the parallel decisions actually read."""
    r = np.zeros((16, 16))
    for i in range(8):
        r[i, i] = 0.05 + abs(rng.standard_normal())
    for i1, i2 in COUPLED_DIMS:
        r[i1, i2] = rng.standard_normal()
    v = rng.standard_normal(8) * rng.uniform(0.2, 3.0)
    return v, r


def tree_pattern_r(rng):
    """Random 8x8 R with the pattern of the two-stage tree block: rows 0, 1,
    4 and 5 couple only to the level two above, rows 2, 3, 6 and 7 are
    diagonal."""
    r = np.diag(0.5 + np.abs(rng.standard_normal(8)))
    for i1, i2 in COUPLED_DIMS:
        r[i1, i2] = rng.standard_normal()
    return r


def branch_oracle(v1, v2, r11, r12, r22, pam):
    """Exhaustive 2-dim PAM argmin for one parallel branch."""
    best, best_d = None, math.inf
    for s2 in pam.level_tuple:
        for s1 in pam.level_tuple:
            d = (v1 - r11 * s1 - r12 * s2) ** 2 + (v2 - r22 * s2) ** 2
            if d < best_d:
                best_d, best = d, (s1, s2)
    return best, best_d


# -- reference implementations kept from before the S-E order tables ---------
def slice_index_walk(x, pam):
    """Index of the PAM level nearest to x; ties go to the smaller level."""
    levels = pam.level_tuple
    n = len(levels)
    if x <= levels[0]:
        return 0
    if x >= levels[-1]:
        return n - 1
    k = int((x - levels[0]) // (levels[1] - levels[0]))
    k = min(k, n - 2)
    return k if (x - levels[k]) <= (levels[k + 1] - x) else k + 1


def se_order_walk(estimate, pam):
    """S-E order by a two-pointer walk outward from the sliced level, one
    comparison of rounded distances per step (tie: smaller level first)."""
    levels = pam.level_tuple
    n = len(levels)
    i0 = slice_index_walk(estimate, pam)
    out = [levels[i0]]
    lo, hi = i0 - 1, i0 + 1
    while len(out) < n:
        if lo < 0:
            out.append(levels[hi])
            hi += 1
        elif hi >= n:
            out.append(levels[lo])
            lo -= 1
        elif (estimate - levels[lo]) <= (levels[hi] - estimate):
            out.append(levels[lo])
            lo -= 1
        else:
            out.append(levels[hi])
            hi += 1
    return tuple(out)


def parallel_decisions_lockstep(v, r, radius, d_outer, pam, counters, cross_branch_stop=True):
    """The four parallel branches as a two-pass lockstep: every live branch
    takes its stop test for step j, then every still-live branch slices and
    updates, and the finished branches are summed afresh at every test."""
    c = counters
    branches = []
    for i1, i2 in COUPLED_DIMS:
        r11 = float(r[i1][i1])
        r12 = float(r[i1][i2])
        r22 = float(r[i2][i2])
        order = se_order_walk(float(v[i2]) / r22, pam)
        c.divs += 1
        branches.append((float(v[i1]), float(v[i2]), r11, r12, r22, order))

    active = [True] * 4
    p = [math.inf] * 4
    done_d = [math.inf] * 4
    tau = [0.0] * 4
    cand = [0.0] * 4
    sol1 = [None] * 4
    sol2 = [None] * 4
    for j in range(pam.order):
        for b in range(4):
            if not active[b]:
                continue
            v1, v2, r11, r12, r22, order = branches[b]
            cand[b] = order[j]
            c.branch_nodes[b] += 1
            t = v2 - r22 * cand[b]
            tau[b] = t * t
            c.mults += 2
            stop = tau[b] > p[b]
            if not stop and cross_branch_stop:
                others = 0.0
                for k in range(4):
                    if k != b and not active[k]:
                        others += done_d[k]
                stop = tau[b] + others + d_outer > radius
            if stop:
                active[b] = False
                done_d[b] = p[b]
        if not (active[0] or active[1] or active[2] or active[3]):
            break
        for b in range(4):
            if not active[b]:
                continue
            v1, v2, r11, r12, r22, order = branches[b]
            cross = r12 * cand[b]
            s1 = pam.level_tuple[slice_index_walk((v1 - cross) / r11, pam)]
            resid = v1 - r11 * s1 - cross
            d_full = resid * resid + tau[b]
            c.mults += 3
            c.divs += 1
            if d_full < p[b]:
                p[b] = d_full
                sol1[b] = s1
                sol2[b] = cand[b]
    for b in range(4):
        if active[b]:
            done_d[b] = p[b]

    d_p = done_d[0] + done_d[1] + done_d[2] + done_d[3]
    a_hat = (sol1[0], sol1[1], sol2[0], sol2[1])
    b_hat = (sol1[2], sol1[3], sol2[2], sol2[3])
    return a_hat, b_hat, d_p


def column_switch_reference(s_zf, h_eq, mode, constellation):
    """The column switch on NumPy complex scalars: each slicing error is
    ``abs(nearest_qam(v) - v) ** 2`` of a complex128 entry, and the columns
    are picked by a list built per call.  ``mode`` is "4by4" or "2by2"."""
    err = [abs(nearest_qam(v, constellation) - v) ** 2 for v in np.asarray(s_zf, dtype=complex)]
    e12, e34 = err[0] + err[1], err[2] + err[3]
    e56, e78 = err[4] + err[5], err[6] + err[7]
    e14, e58 = e12 + e34, e56 + e78
    identity, half_swap, pair_swap, pair_and_half_swap = ALLOWED_ORDERS
    if e14 < e58:
        order = identity
        if mode == "2by2" and e78 < e56:
            order = pair_swap
    else:
        order = half_swap
        if mode == "2by2" and e34 < e12:
            order = pair_and_half_swap
    plan = ColumnSwitchPlan(
        order=order,
        epsilons={"e12": e12, "e34": e34, "e14": e14, "e56": e56, "e78": e78, "e58": e58},
    )
    cols = [c for sym in order for c in (2 * sym, 2 * sym + 1)]
    return np.asarray(h_eq)[:, cols], plan


# -- an exact-ML oracle that shares no code with the search ------------------

# the (s1, s2) real dimensions of the four leading 2-D problems, written out
# here rather than read from the decoder's COUPLED_DIMS
_LEADING_PAIRS = ((0, 2), (1, 3), (4, 6), (5, 7))


@functools.cache
def _index_grid(n, width):
    """Every assignment of ``width`` indices below ``n``, one per row."""
    return np.stack(np.meshgrid(*[np.arange(n)] * width, indexing="ij"), -1).reshape(-1, width)


def two_stage_ml_metric(z, r, levels):
    """``min ||z - R s||^2`` over ``s`` in ``levels``^16, in NumPy alone.

    ``r`` must have the two-stage zero pattern, which is asserted.  Every
    assignment of the 8 tree dimensions is enumerated, and each of the four
    leading 2-D problems is solved by enumerating ``levels``^2, so nothing
    here touches the tree search, the S-E orders or PAM slicing.  Memory is
    about ``len(levels)^8 * len(levels)^2`` floats: 16-QAM at most.
    """
    assert two_stage_zeros(r) <= REL_TOL
    levels = np.asarray(levels, dtype=float)
    tree = levels[_index_grid(levels.size, 8)]  # (P^8, 8) tree assignments
    d_tree = np.sum((z[8:] - tree @ r[8:, 8:].T) ** 2, axis=1)
    v = z[:8] - tree @ r[:8, 8:].T  # targets after cancelling the tree part
    s1, s2 = levels[_index_grid(levels.size, 2)].T  # (P^2,) each
    for i1, i2 in _LEADING_PAIRS:
        e1 = v[:, i1, None] - r[i1, i1] * s1 - r[i1, i2] * s2
        e2 = v[:, i2, None] - r[i2, i2] * s2
        d_tree += np.min(e1 * e1 + e2 * e2, axis=1)
    return float(d_tree.min())
