"""Two-stage reduced-complexity ML decoder with parallel PAM decisions.

The equivalent channel of the "new" codeword ordering has an R factor whose
(1:4, 5:8) block is zero and whose two leading 4x4 diagonal blocks decouple
real from imaginary parts (see :mod:`.structure`).  The decode therefore
splits into:

* an outer depth-first tree search over the 8 real dimensions of the last
  four symbols of the decode order.  It is the shared engine
  :func:`~.sphere.tree_search` with the table policy.  The tree block of R
  has the same pattern as the leading one, so each level's conditional
  centre depends on at most one decided level.  Its exact S-E order is
  looked up from a per-decode table built on first use (no per-node
  division), and each sibling loop stops at the first child outside the
  adaptive radius;
* at each surviving leaf, as the engine's leaf hook, four *parallel
  decisions*: independent 2-dim PAM searches for (s1R,s2R), (s1I,s2I),
  (s3R,s4R), (s3I,s4I) on the interference-cancelled targets v, each a
  one-level S-E loop over the "s2-role" symbol with conditional slicing of
  the "s1-role" symbol.  Before any branch runs, an exact lower bound
  drops a leaf that cannot beat the sphere radius: the outer distance plus
  each branch's smallest ``s2`` term, which the branches decouple into
  four slices (the lower-bound pruning of Stojnic, Vikalo and Hassibi,
  "Speeding up the sphere decoder with H-infinity and SDP inspired lower
  bounds", IEEE Trans. Signal Process. 2008).  It is summed branch by
  branch and stops at the first sum past the radius; only a kept leaf
  cancels its s1-role targets.  The four branches of a kept leaf run in
  lockstep and share termination information: a branch stops when its
  ascending partial distance exceeds its own best, or when it plus the
  recorded distances of already-finished branches and the outer distance
  exceeds the sphere radius.

The worst case is sqrt(M)^8 = M^4 tree leaves with sqrt(M) candidates per
branch per leaf, i.e. O(M^4.5) against O(M^8) for plain exhaustive search.
An optional column switch permutes symbol groups (equivalently H_eq column
pairs) among the four structure-preserving orderings so that the least
reliable half, measured by the aggregate zero-forcing slicing error, lands
in the tree stage.  Both stages read the zero pattern of R; the decode
refuses an R without it (:func:`~.structure.two_stage_zeros`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..counters import charge_rotation, charge_zf_switch
from ..linalg import (
    RankDeficiencyError,
    # unused here, but a span target of the benchmark's tracer
    # (bench/tracing.py SPAN_TARGETS), which looks it up in this module
    back_substitute,  # noqa: F401
    gram_schmidt_qr,
)
from ..modem import se_order, slice_pam
from .sphere import tree_search
from .structure import COUPLED_DIMS, REL_TOL, two_stage_zeros

# a leaf is dropped only when its lower bound exceeds the radius by this
# relative margin, far above the rounding of either side (parallel_decisions)
_BOUND_SLACK = 1.0 + 1e-12

# The four decode orders that keep the R zero structure intact
# (position -> canonical symbol index, 0-based).
_IDENTITY = (0, 1, 2, 3, 4, 5, 6, 7)
_HALF_SWAP = (4, 5, 6, 7, 0, 1, 2, 3)
_PAIR_SWAP = (2, 3, 0, 1, 6, 7, 4, 5)
_PAIR_AND_HALF_SWAP = (6, 7, 4, 5, 2, 3, 0, 1)
ALLOWED_ORDERS = (_IDENTITY, _HALF_SWAP, _PAIR_SWAP, _PAIR_AND_HALF_SWAP)
# the H_eq columns of each order: symbol k owns real columns 2k and 2k + 1
_COLUMNS = {
    order: np.array([c for sym in order for c in (2 * sym, 2 * sym + 1)])
    for order in ALLOWED_ORDERS
}

@dataclass(frozen=True)
class ColumnSwitchPlan:
    """Chosen decode order."""

    order: tuple

    @property
    def is_identity(self):
        return self.order == _IDENTITY


def zf_estimate(h_eq, y):
    """Unconstrained (zero-forcing) symbol estimate ``H_eq^-1 y``.

    One LU solve (``np.linalg.solve``) of the square equivalent channel, run
    before any factorization so that the column switch can choose the decode
    order first.  ``h_eq`` and ``y`` come checked, as float arrays with
    ``y`` ravelled (:func:`~mimo3d.linalg.require_decodable`).  Returns the
    complex symbols as a dtype view of the fresh interleaved solution, so
    ``s.view(float)`` reads it back bit for bit.  Linear in ``y``.

    Raises
    ------
    RankDeficiencyError
        If ``h_eq`` is exactly singular (LU meets a zero pivot).
    """
    try:
        x = np.linalg.solve(h_eq, y)
    except np.linalg.LinAlgError as err:
        raise RankDeficiencyError("h_eq is exactly singular") from err
    return x.view(complex)


def column_switch(s_zf, h_eq, mode, constellation):
    """Pick a structure-preserving decode order from ZF reliability.

    The aggregate slicing error ``eps_jk = sum |Q(s_zf) - s_zf|^2`` over a
    symbol group measures how well the linear estimate already resolves it.
    The worse half goes to the tree stage; in ``2by2`` mode the worse pair
    inside the tree half is additionally moved toward the root, mirrored in
    the other half to keep the R structure; ``mode`` is "4by4" or "2by2",
    as a registry entry passes it.  Returns ``h_eq`` with column pairs
    permuted accordingly (``h_eq`` itself for the identity order) plus the
    plan for de-permutation.

    The eight estimates are read once into Python floats; each error is
    ``abs(complex(Q(re) - re, Q(im) - im)) ** 2``, the same bits as
    ``abs(complex(Q(v.real), Q(v.imag)) - v) ** 2`` on the complex entry
    ``v``.
    """
    s_zf = np.asarray(s_zf, dtype=complex)
    pam = constellation.pam
    err = [
        abs(complex(slice_pam(re, pam) - re, slice_pam(im, pam) - im)) ** 2
        for re, im in zip(s_zf.real.tolist(), s_zf.imag.tolist())
    ]
    e12, e34 = err[0] + err[1], err[2] + err[3]
    e56, e78 = err[4] + err[5], err[6] + err[7]
    e14, e58 = e12 + e34, e56 + e78
    if e14 < e58:
        order = _IDENTITY  # second half decoded by the tree
        if mode == "2by2" and e78 < e56:
            order = _PAIR_SWAP
    else:
        order = _HALF_SWAP  # first half decoded by the tree
        if mode == "2by2" and e34 < e12:
            order = _PAIR_AND_HALF_SWAP
    plan = ColumnSwitchPlan(order)
    if plan.is_identity:
        return h_eq, plan
    return np.asarray(h_eq).take(_COLUMNS[order], axis=1), plan


def cancel(z_i, row, s_outer):
    """``z_i - row[8] s_outer[0] - ... - row[15] s_outer[7]``: the target of
    row i < 8 of R for the tree symbols ``s_outer`` (the real 8-vector
    [c; d]), 8 mults.  Straight-line code, evaluated left to right, so it
    rounds as ``acc -= row[8 + k] * s_outer[k]`` over ascending k does.
    """
    return (z_i - row[8] * s_outer[0] - row[9] * s_outer[1] - row[10] * s_outer[2]
            - row[11] * s_outer[3] - row[12] * s_outer[4] - row[13] * s_outer[5]
            - row[14] * s_outer[6] - row[15] * s_outer[7])


def compute_v(z, r, s_outer):
    """The four s1-role targets of a leaf the bound keeps, in branch order:
    :func:`cancel` on the first row of each pair in ``COUPLED_DIMS``; the
    bound has formed the s2-role ones.  32 mults.
    """
    (a1, _), (b1, _), (c1, _), (d1, _) = COUPLED_DIMS
    return (cancel(z[a1], r[a1], s_outer), cancel(z[b1], r[b1], s_outer),
            cancel(z[c1], r[c1], s_outer), cancel(z[d1], r[d1], s_outer))


def _drop(counters, terms):
    # a leaf the bound dropped after forming ``terms`` terms, counted as
    # step 0 of all four branches stopping
    counters.branch_nodes[:] = [k + 1 for k in counters.branch_nodes]
    counters.mults += 10 * terms
    counters.divs += terms
    return None, None, math.inf


def parallel_decisions(s_outer, r, radius, d_outer, pam, counters, z):
    """Four synchronized 2-dim PAM searches; returns ``(a_hat, b_hat, d_p)``.

    Branch b solves ``min (v1 - r11 s1 - r12 s2)^2 + (v2 - r22 s2)^2`` over
    the PAM grid using the entries of R named by ``COUPLED_DIMS[b]``, on the
    targets of its two rows for the tree symbols ``s_outer``
    (:func:`cancel`): an S-E loop over s2 (ordered by the branch's own
    unconstrained estimate ``v2 / r22``, so partial distances ascend), with
    s1 obtained by slicing ``(v1 - r12 s2) / r11``.  Iteration j of all
    branches completes before iteration j+1 starts.  A branch stops when its
    partial distance exceeds its own best, or when it plus the recorded
    distances of finished branches plus ``d_outer`` exceeds ``radius``;
    ``radius=math.inf`` turns this cross-branch test off.  Cross-branch
    stopping never changes the decode outcome: it can only inflate ``d_p``
    at leaves the radius test rejects anyway.

    Before any branch runs, the leaf's lower bound ``d_outer + sum_b
    (v2 - r22 s2)^2``, with ``s2`` each branch's first S-E candidate (the
    level nearest ``v2 / r22``), is compared with the radius.  Each branch
    distance is at least its ``s2`` term, and that term is smallest at the
    nearest level, so the bound is at most ``d_outer + d_p``.  It is formed
    branch by branch (the s2-role target, its estimate and S-E order, the
    term), and the leaf returns ``(None, None, inf)`` at the first running
    sum ``((d_outer + t_a^2) + t_b^2) + ...`` that exceeds ``radius`` by the
    relative margin ``1e-12``.  Adding a non-negative term never lowers a
    rounded sum, so the running sums only grow: a leaf is dropped exactly
    when the full sum would drop it.  The search, which moves its radius
    only on a strict improvement, would have rejected it anyway: no
    decision changes.  The margin lies far above the rounding of either
    side, so rounding can only keep a leaf, never drop one.  An infinite
    radius (the first leaf) never drops a leaf, and the radius tests are
    both off.  Only a kept leaf forms its s1-role targets
    (:func:`compute_v`); its branches reuse the bound's terms at step 0.

    ``a_hat`` is [s1R, s1I, s2R, s2I] and ``b_hat`` [s3R, s3I, s4R, s4I];
    ``d_p`` is the sum of branch minima (infinite if a branch was cut off
    before any decision or the bound dropped the leaf, which only happens
    at already-hopeless leaves).
    The diagonal of ``r`` must have passed the rank rule (``gram_schmidt_qr``).
    ``s_outer``, ``r`` (rows 0-7) and ``z`` (entries 0-7) are read entry by
    entry, unconverted: the decoder hands in lists of Python floats.  NumPy
    arrays give the same bits, only more slowly.

    The stop test of a branch reads only the finished branches, and its
    slice-and-update reads only its own state, so each live branch runs its
    whole step j (stop test, then slice and update) before the next one in
    branch order; that gives what running every stop test of step j before
    any update would.  The sum of the finished branches' minima is kept
    between tests and recomputed in branch order when a branch stops, so it
    is the same float a fresh sum would give; the counters are summed
    locally and added once.
    """
    n = pam.order
    limit = radius * _BOUND_SLACK
    # the bound's four terms written out, so that a dropped leaf builds no
    # per-branch state and forms no term past the one that drops it
    (a1, a2), (b1, b2), (c1, c2), (d1, d2) = COUPLED_DIMS
    va, ra = cancel(z[a2], r[a2], s_outer), r[a2][a2]
    oa = se_order(va / ra, pam)
    ta = va - ra * oa[0]
    qa = ta * ta
    if d_outer + qa > limit:
        return _drop(counters, 1)
    vb, rb = cancel(z[b2], r[b2], s_outer), r[b2][b2]
    ob = se_order(vb / rb, pam)
    tb = vb - rb * ob[0]
    qb = tb * tb
    if d_outer + qa + qb > limit:
        return _drop(counters, 2)
    vc, rc = cancel(z[c2], r[c2], s_outer), r[c2][c2]
    oc = se_order(vc / rc, pam)
    tc = vc - rc * oc[0]
    qc = tc * tc
    if d_outer + qa + qb + qc > limit:
        return _drop(counters, 3)
    vd, rd = cancel(z[d2], r[d2], s_outer), r[d2][d2]
    od = se_order(vd / rd, pam)
    td = vd - rd * od[0]
    qd = td * td
    if d_outer + qa + qb + qc + qd > limit:
        return _drop(counters, 4)
    v1a, v1b, v1c, v1d = compute_v(z, r, s_outer)
    # one list per branch: v1, r11, r12, v2, r22, S-E order of s2, its step 0
    # term, then its state: best distance, its s1 and s2, steps once stopped
    branches = [[v1a, r[a1][a1], r[a1][a2], va, ra, oa, qa, math.inf, None, None, 0],
                [v1b, r[b1][b1], r[b1][b2], vb, rb, ob, qb, math.inf, None, None, 0],
                [v1c, r[c1][c1], r[c1][c2], vc, rc, oc, qc, math.inf, None, None, 0],
                [v1d, r[d1][d1], r[d1][d2], vd, rd, od, qd, math.inf, None, None, 0]]
    live = branches.copy()
    finished = 0.0  # sum of the finished branches' minima, in branch order
    for j in range(n):
        i = 0
        while i < len(live):
            br = live[i]
            v1, r11, r12, v2, r22, order, tau, p, _, _, _ = br
            s2 = order[j]
            if j:  # step 0 reuses the bound's term
                t = v2 - r22 * s2
                tau = t * t
            if tau > p or tau + finished + d_outer > radius:
                br[10] = j + 1
                del live[i]
                finished = 0.0
                for other in branches:
                    if other[10]:
                        finished += other[7]
                continue
            cross = r12 * s2
            s1 = slice_pam((v1 - cross) / r11, pam)
            resid = v1 - r11 * s1 - cross
            d_full = resid * resid + tau
            if d_full < p:
                br[7] = d_full
                br[8] = s1
                br[9] = s2
            i += 1
        if not live:
            break

    steps = 0
    for b, br in enumerate(branches):
        ran = br[10] or n  # a branch that never stopped ran every step
        counters.branch_nodes[b] += ran
        steps += ran
    decided = steps - (4 - len(live))  # every step but a stopping one slices s1
    counters.mults += 40 + 32 + 2 * (steps - 4) + 3 * decided  # bound, s1 targets, steps
    counters.divs += 4 + decided
    b0, b1, b2, b3 = branches
    a_hat = (b0[8], b1[8], b0[9], b1[9])
    b_hat = (b2[8], b3[8], b2[9], b3[9])
    return a_hat, b_hat, b0[7] + b1[7] + b2[7] + b3[7]


def simplified_ml(y, h_eq, constellation, switch_mode, counters):
    """Two-stage decode of one received codeword; returns the decided
    interleaved 16-vector in canonical order.

    The search core of the ``simplified*`` registry entries, which pass the
    checked input (float arrays, ``y`` ravelled), ``switch_mode`` "none",
    "4by4" or "2by2" and fresh ``counters``.  ``h_eq`` must come from the
    "new" codeword ordering.  That is checked on the R factor the decode
    runs on, against every entry either stage reads as zero, relative to
    ``max|R|`` (:func:`~.structure.two_stage_zeros`).  Any other channel
    raises :class:`ValueError`, because the decoder would return a non-ML
    answer on it.  All three switch modes return the same ML solution; they
    differ only in search effort.  Propagates
    :class:`~mimo3d.linalg.RankDeficiencyError` on degenerate channels.

    With a column switch, the zero-forcing estimate comes from one LU solve
    of ``h_eq`` (:func:`zf_estimate`), and the switch reads it to choose the
    decode order; without one, no estimate is needed.  Only the permuted
    channel ``H_eq P`` is then factored, once, in one Householder pass that
    also rotates ``y`` (:func:`~mimo3d.linalg.gram_schmidt_qr`).  The tree
    search finds its S-E orders from R and ``z`` (the table policy of
    :func:`~.sphere.tree_search`), and the decided vector is put back in
    canonical order by the switch's column map.  ``counters`` is charged
    what runs: one factorization and rotation, whatever the order
    (:func:`~mimo3d.counters.charge_rotation`), plus, with a switch, the LU
    solve and the slicing errors (:func:`~mimo3d.counters.charge_zf_switch`).
    """
    charge_rotation(counters)
    order = _IDENTITY
    if switch_mode != "none":
        s_zf = zf_estimate(h_eq, y)
        h_eq, plan = column_switch(s_zf, h_eq, switch_mode, constellation)
        order = plan.order
        charge_zf_switch(counters)
    qr = gram_schmidt_qr(h_eq, y)
    if two_stage_zeros(qr.r) > REL_TOL:
        raise ValueError("h_eq lacks the R zero structure of the 'new' codeword ordering")

    pam = constellation.pam
    rows = qr.r.tolist()
    z = qr.z.tolist()
    # What the leaf's five cells (z, counters, decide, rows, pam) and
    # tree_search's inputs hold is left to the cyclic GC with the search's
    # reference cycle, and the sweep benchmark reads a change in that count
    # as a change in speed (tests/test_decoders.py,
    # test_per_decode_cyclic_garbage), so they stay as they are.
    decide = parallel_decisions

    def leaf(s_outer, d_leaf, radius):
        a_hat, b_hat, d_p = decide(s_outer, rows, radius, d_leaf, pam, counters, z)
        return d_p, (a_hat, b_hat)

    best_outer, (a_hat, b_hat), _ = tree_search(qr.z[8:], qr.r[8:, 8:], pam, leaf, counters,
                                                tables=True)
    decided = np.empty(16)  # interleaved, canonical order: the columns undo the switch
    decided[_COLUMNS[order]] = (*a_hat, *b_hat, *best_outer)
    return decided
