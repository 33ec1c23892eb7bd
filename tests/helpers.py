"""Shared test utilities: random link instances with known ground truth."""

import math

import numpy as np

from mimo3d import (
    encode_direct,
    make_equivalent,
    sample_channel,
    snr_to_sigma2,
)
from mimo3d.decoders.simplified import ALLOWED_ORDERS, ColumnSwitchPlan
from mimo3d.decoders.structure import COUPLED_DIMS
from mimo3d.linalg import tilde_interleave, vec_stack
from mimo3d.modem import se_order, slice_pam


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


def leaf_bound_sums(v, r, d_outer, pam):
    """The leaf bound's running sums ``d_outer + t_0^2``, ``(d_outer + t_0^2)
    + t_1^2``, ... over the four branches in branch order, each
    ``t_b = v2 - r22 s2`` at the level nearest ``v2 / r22`` by the walk
    slicer."""
    sums = []
    bound = d_outer
    for _, i2 in COUPLED_DIMS:
        v2, r22 = float(v[i2]), float(r[i2][i2])
        t = v2 - r22 * pam.level_tuple[slice_index_walk(v2 / r22, pam)]
        bound += t * t
        sums.append(bound)
    return sums


def leaf_bound(v, r, d_outer, pam):
    """``d_outer + sum_b min_s2 (v2 - r22 s2)^2``, the full four-term sum: a
    lower bound on ``d_outer`` plus the parallel decisions' distance."""
    return leaf_bound_sums(v, r, d_outer, pam)[-1]


def parallel_decisions_lockstep(v, r, radius, d_outer, pam, counters, cross_branch_stop=True,
                                order_fn=se_order_walk):
    """The four parallel branches as a two-pass lockstep: every live branch
    takes its stop test for step j, then every still-live branch slices and
    updates, and the finished branches are summed afresh at every test.

    A leaf whose :func:`leaf_bound` exceeds ``radius`` by the relative
    margin 1e-12 returns ``(None, None, inf)`` at once, charged as step 0
    of all four branches stopping, plus 10 mults and 1 div for each bound
    term up to the first running sum past that margin.  A kept leaf is
    charged all four terms and 32 mults for its s1 targets, and its step 0
    ``s2`` terms are the bound's.  ``cross_branch_stop=False`` turns both
    radius tests off, as an infinite radius does.  The S-E order of each
    s2 comes from ``order_fn``, the walk unless a caller names another."""
    c = counters
    limit = radius * (1 + 1e-12)
    formed = 4
    if cross_branch_stop:
        sums = leaf_bound_sums(v, r, d_outer, pam)
        formed = next((k + 1 for k, total in enumerate(sums) if total > limit), 4)
    c.mults += 10 * formed
    c.divs += formed
    if cross_branch_stop and leaf_bound(v, r, d_outer, pam) > limit:
        c.branch_nodes[:] = [n + 1 for n in c.branch_nodes]
        return None, None, math.inf
    c.mults += 32
    branches = []
    for i1, i2 in COUPLED_DIMS:
        r11 = float(r[i1][i1])
        r12 = float(r[i1][i2])
        r22 = float(r[i2][i2])
        order = order_fn(float(v[i2]) / r22, pam)
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
            c.mults += 2 if j else 0  # the bound formed step 0's term
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


def centred_search_reference(z, r, pam, counters):
    """The centred sphere search as a recursive closure: at every expanded
    node of level i, ``acc = z_i - sum_k r_ik s_k`` by a loop over ascending
    k (``n - 1 - i`` mults), one division for the centre ``acc / r_ii``, and
    the children in ``se_order``, the loop cut at the first one outside the
    radius; 2 mults per evaluated child, charged after the search.  The
    radius moves on strict improvement only.  Returns ``(best_s,
    best_distance)``, as :func:`~mimo3d.decoders.sphere.centred_search`."""
    rows = np.asarray(r, dtype=float).tolist()
    z = np.asarray(z, dtype=float).ravel().tolist()
    n = len(z)
    s = [0.0] * n
    radius = math.inf
    best = None

    def descend(i, dist):
        nonlocal radius, best
        row = rows[i]
        rii = row[i]
        acc = z[i]
        for k in range(i + 1, n):
            acc -= row[k] * s[k]
        counters.mults += n - 1 - i
        children = se_order(acc / rii, pam)
        counters.divs += 1
        for cand in children:
            s[i] = cand
            counters.tree_nodes += 1
            resid = acc - rii * cand
            d_new = dist + resid * resid
            if d_new < radius:
                if i:
                    descend(i - 1, d_new)
                    continue
                counters.leaves += 1
                d_total = d_new + 0.0
                if d_total < radius:
                    radius = d_total
                    best = s.copy()
            else:
                break

    nodes = counters.tree_nodes
    descend(n - 1, 0.0)
    counters.mults += 2 * (counters.tree_nodes - nodes)
    return best, radius


def tree_search_reference(z, r, pam, leaf_fn, counters, leaf_r, leaf_z):
    """The two-stage tree search as a recursive closure over a per-decode
    table.  Level i's entry, ``acc`` and its S-E order, is built on first
    use: once per decode for a diagonal row (``acc = z_i``, one division),
    once per value of s_j for a row coupled to level j in ``COUPLED_DIMS``
    (``acc = z_i - r_ij s_j``, one mult and one division).  The children
    come in that order, the loop cut at the first one outside the radius;
    2 mults per evaluated child, charged after the search.  A leaf goes
    through ``leaf_fn(s, leaf_r, radius, d_leaf, pam, counters, leaf_z) ->
    (a, b, d_p)`` and moves the radius to ``d_leaf + d_p`` on strict
    improvement only.  Returns ``(best_s, (a, b), best_distance)``, as
    :func:`~mimo3d.decoders.sphere.tree_search`."""
    coupled = dict(COUPLED_DIMS)
    rows = np.asarray(r, dtype=float).tolist()
    z = np.asarray(z, dtype=float).ravel().tolist()
    n = len(z)
    s = [0.0] * n
    # entry of level i under parent PAM index k (0 for a diagonal row): acc
    # at 2 * (order * i + k), the S-E order one slot up; None until built
    table = [None] * (2 * pam.order * n)
    radius = math.inf
    best = best_payload = None

    def descend(i, dist):
        nonlocal radius, best, best_payload
        row = rows[i]
        rii = row[i]
        at = 2 * pam.order * i
        j = coupled.get(i)
        if j is not None:
            at += 2 * pam.level_tuple.index(s[j])
        children = table[at + 1]
        if children is None:
            acc = z[i] if j is None else z[i] - row[j] * s[j]
            children = table[at + 1] = se_order(acc / rii, pam)
            table[at] = acc
            counters.mults += j is not None
            counters.divs += 1
        else:
            acc = table[at]
        for cand in children:
            s[i] = cand
            counters.tree_nodes += 1
            resid = acc - rii * cand
            d_new = dist + resid * resid
            if d_new < radius:
                if i:
                    descend(i - 1, d_new)
                    continue
                counters.leaves += 1
                a, b, d_p = leaf_fn(s, leaf_r, radius, d_new, pam, counters, leaf_z)
                d_total = d_new + d_p
                if d_total < radius:
                    radius = d_total
                    best = s.copy()
                    best_payload = a, b
            else:
                break

    nodes = counters.tree_nodes
    descend(n - 1, 0.0)
    counters.mults += 2 * (counters.tree_nodes - nodes)
    return best, best_payload, radius


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
    plan = ColumnSwitchPlan(order)
    cols = [c for sym in order for c in (2 * sym, 2 * sym + 1)]
    return np.asarray(h_eq)[:, cols], plan


# -- an exact-ML certificate at any constellation ------------------------------

def ml_tie_class(y, h_eq, levels, metric):
    """Every ``s`` in ``levels``^16 with ``||y - H_eq s||^2`` within
    ``metric * (1 + 1e-9)``, as rows of interleaved reals, and their
    distances.

    A breadth-first Fincke-Pohst enumeration (Fincke and Pohst, Math. Comp.
    1985) in NumPy alone: ``h_eq`` is factored by its own ``np.linalg.qr``,
    and from the last level to the first every partial vector is extended
    by every level and kept while its partial distance ``||z - R s||^2``
    over the decided levels stays within the radius.  Partial distances
    only grow, so nothing within the radius is lost; nothing here touches
    the tree search, the S-E orders, PAM slicing or the decoders' QR.  Fed
    a decoder's reported metric, an empty result means the metric is too
    small, a distance below ``metric * (1 - 1e-9)`` means the answer is not
    ML, and otherwise the result is the tie class the answer must lie in.
    """
    q, r = np.linalg.qr(np.asarray(h_eq, dtype=float))
    z = q.T @ np.asarray(y, dtype=float).ravel()
    levels = np.asarray(levels, dtype=float)
    radius = metric * (1 + 1e-9)
    part = np.empty((1, 0))  # decided levels i+1 .. 15, one row per survivor
    dist = np.zeros(1)
    for i in range(15, -1, -1):
        t = (z[i] - part @ r[i, i + 1:])[:, None] - r[i, i] * levels
        d = dist[:, None] + t * t
        rows, cols = np.nonzero(d <= radius)
        part = np.column_stack([levels[cols], part[rows]])
        dist = d[rows, cols]
    return part, dist


def assert_certified_ml(y, h_eq, constellation, result):
    """``result`` is an exact-ML decode: its metric is the least distance
    ``||y - H_eq s||^2`` over the constellation, up to 1e-9 relative, and its
    symbols are in the tie class of :func:`ml_tie_class`."""
    tie, dist = ml_tie_class(y, h_eq, np.unique(constellation.points.real), result.metric)
    assert dist.size, ("no lattice point within the reported metric", result.metric)
    assert dist.min() >= result.metric * (1 - 1e-9), ("a closer point exists", dist.min(), result.metric)
    assert (tie == tilde_interleave(result.symbols)).all(axis=1).any(), "symbols outside the tie class"
    return tie
