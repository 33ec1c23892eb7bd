"""Two-stage reduced-complexity ML decoder with parallel PAM decisions.

The equivalent channel of the "new" codeword ordering has an R factor whose
(1:4, 5:8) block is zero and whose two leading 4x4 diagonal blocks decouple
real from imaginary parts (see :mod:`.structure`).  The decode therefore
splits into:

* an outer depth-first tree search over the 8 real dimensions of the last
  four symbols of the decode order, :func:`~.sphere.tree_search`, one
  generated function of 8 nested loops.  The tree block of R has the same
  pattern as the leading one, so each level's conditional centre depends
  on at most one decided level.  Its exact S-E order is built once per
  decode or once per value of that level (no per-node division), and each
  sibling loop stops at the first child outside the adaptive radius;
* at each surviving leaf, called by the search directly, four *parallel
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
  exceeds the sphere radius.  :func:`parallel_decisions` is written out
  from one template per part, one block per branch, with every branch's
  state in locals and the targets, slices and S-E orders inline: a leaf
  calls no package function but :func:`compute_v`, once if the bound keeps it.

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
# se_order: uncalled here, kept only for bench/tracing.py's COUNT_TARGETS, as back_substitute for SPAN_TARGETS
from ..modem import se_order, slice_pam  # noqa: F401
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


# The parts of parallel_decisions written out once per branch {b} = a, b, c,
# d, in branch order, on the rows {i1} and {i2} of its pair in COUPLED_DIMS.
# The bound's term: the s2-role target v2, the index i of the level nearest
# e = v2 / r22 and the step 0 term q.  Slicing follows slice_pam's rule; an
# estimate past an outer level takes the neighbour comparison's side.  A
# dropped leaf forms no term past the one that drops it, and is counted as
# step 0 of all four branches stopping.
_BOUND_TERM = """
    row = r[{i2}]  # cancel's chain on s_outer's locals
    v2{b}, r22{b} = (z[{i2}] - row[8] * x0 - row[9] * x1 - row[10] * x2 - row[11] * x3 - row[12] * x4
                     - row[13] * x5 - row[14] * x6 - row[15] * x7), row[{i2}]
    e{b} = v2{b} / r22{b}
    i{b} = int((e{b} - lo) // spacing) if e{b} > lo else 0
    if i{b} >= last:
        i{b} = last - 1
    if e{b} - levels[i{b}] > levels[i{b} + 1] - e{b}:
        i{b} += 1
    t = v2{b} - r22{b} * levels[i{b}]
    q{b} = t * t
    if d_outer{terms} > limit:
        nodes = counters.branch_nodes
        nodes[0], nodes[1], nodes[2], nodes[3] = nodes[0] + 1, nodes[1] + 1, nodes[2] + 1, nodes[3] + 1
        counters.mults += 10 * {k}
        counters.divs += {k}
        return None, None, math.inf"""
# a kept leaf's branch state: the S-E order o of s2 by se_order's rule, best
# distance p with its s1 and s2, and, 0 and 0.0 while the branch runs, its
# steps n and its minimum f once stopped
_STATE = """
    lower, upper = se_orders[i{b}]
    o{b} = upper if 0 < i{b} < last and e{b} - levels[i{b} - 1] > levels[i{b} + 1] - e{b} else lower
    r11{b}, r12{b}, p{b}, s1{b}, s2{b} = r[{i1}][{i1}], r[{i1}][{i2}], math.inf, None, None
    n{b}, f{b} = 0, 0.0"""
# step j of a live branch; s1 is sliced by slice_pam's rule
_STEP = """
        if not n{b}:
            s2 = o{b}[j]
            if j:  # step 0 reuses the bound's term
                t = v2{b} - r22{b} * s2
                q{b} = t * t
            if q{b} > p{b} or q{b} + finished + d_outer > radius:
                n{b}, f{b}, live = j + 1, p{b}, live - 1
                finished = fa + fb + fc + fd
            else:
                cross = r12{b} * s2
                e = (v1{b} - cross) / r11{b}
                k = int((e - lo) // spacing) if e > lo else 0
                if k >= last:
                    k = last - 1
                s1 = levels[k + 1] if e - levels[k] > levels[k + 1] - e else levels[k]
                resid = v1{b} - r11{b} * s1 - cross
                d_full = resid * resid + q{b}
                if d_full < p{b}:
                    p{b}, s1{b}, s2{b} = d_full, s1, s2"""
_PARALLEL_DECISIONS = '''
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
    branch by branch (the s2-role target, its estimate, the index of the
    nearest level, the term), and the leaf returns ``(None, None, inf)``,
    counted as step 0 of all four branches stopping, at the first running
    sum ``((d_outer + t_a^2) + t_b^2) + ...`` that exceeds ``radius`` by the
    relative margin ``1e-12``.  Adding a non-negative term never lowers a
    rounded sum, so the running sums only grow: a leaf is dropped exactly
    when the full sum would drop it.  The search, which moves its radius
    only on a strict improvement, would have rejected it anyway: no
    decision changes.  The margin lies far above the rounding of either
    side, so rounding can only keep a leaf, never drop one.  An infinite
    radius (the first leaf) never drops a leaf, and the radius tests are
    both off.  Only a kept leaf forms its s1-role targets
    (:func:`compute_v`) and its S-E orders; its branches reuse the bound's
    terms at step 0.

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
    any update would.  The function is written out from one template per
    part, one block per branch in branch order, so every branch's state is
    in locals, as are ``s_outer`` and the ``PamSet`` fields.  The s2-role
    targets are :func:`cancel`'s chain, the slices follow
    :func:`~mimo3d.modem.slice_pam`'s rule and the S-E orders
    :func:`~mimo3d.modem.se_order`'s, written inline with the same bits.  A
    finished branch's minimum joins the sum of the finished ones, kept
    between tests, as one of four terms that are 0.0 while their branch
    runs, summed in branch order when a branch stops: the same float a
    fresh sum over the finished branches would give.  The counters are
    summed locally and added once.
    """
    levels, spacing, last = pam.level_tuple, pam.spacing, pam.order - 1
    lo = levels[0]  # slice_pam's first test
    x0, x1, x2, x3, x4, x5, x6, x7 = s_outer
    limit = radius * _BOUND_SLACK{bound}
    n, se_orders = last + 1, pam.se_orders
    v1a, v1b, v1c, v1d = compute_v(z, r, s_outer){state}
    finished, live = 0.0, 4  # finished: the minima of the stopped branches
    for j in range(n):{steps}
        if not live:
            break

    steps = 0
    nodes = counters.branch_nodes
    for b, ran in enumerate((na, nb, nc, nd)):
        ran = ran or n  # a branch that never stopped ran every step
        nodes[b] += ran
        steps += ran
    decided = steps - (4 - live)  # every step but a stopping one slices s1
    counters.mults += 40 + 32 + 2 * (steps - 4) + 3 * decided  # bound, s1 targets, steps
    counters.divs += 4 + decided
    return (s1a, s1b, s2a, s2b), (s1c, s1d, s2c, s2d), pa + pb + pc + pd
'''


def _write_out():
    fields = [dict(b=b, i1=i1, i2=i2, k=k + 1, terms="".join(f" + q{x}" for x in "abcd"[:k + 1]))
              for k, (b, (i1, i2)) in enumerate(zip("abcd", COUPLED_DIMS))]
    parts = {"bound": _BOUND_TERM, "state": _STATE, "steps": _STEP}
    src = _PARALLEL_DECISIONS.format(**{name: "".join(part.format(**f) for f in fields)
                                         for name, part in parts.items()})
    space = {}
    # with this module's globals, so compute_v is looked up here at each call
    exec(src, globals(), space)
    return space["parallel_decisions"]


parallel_decisions = _write_out()


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
    search builds its S-E orders from R and ``z`` once per decode or per
    parent value (:func:`~.sphere.tree_search`) and calls this module's
    :func:`parallel_decisions` at every leaf; the decided vector is
    put back in canonical order by the switch's column map.  ``counters`` is charged
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
    rows, z = qr.r.tolist(), qr.z.tolist()  # the leaf stage's R and z
    # the leaf stage as looked up now, so a replaced global sees every leaf
    best_outer, (a_hat, b_hat), _ = tree_search(qr.z[8:], qr.r[8:, 8:], pam, parallel_decisions,
                                                counters, rows, z)
    decided = np.empty(16)  # interleaved, canonical order: the columns undo the switch
    decided[_COLUMNS[order]] = (*a_hat, *b_hat, *best_outer)
    return decided
