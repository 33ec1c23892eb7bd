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
  the "s1-role" symbol.  The four branches run in lockstep and share
  termination information: a branch stops when its ascending partial
  distance exceeds its own best, or when it plus the recorded distances of
  already-finished branches and the outer distance exceeds the sphere
  radius.

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

from ..counters import OpCounters, charge_backsolve, charge_matvec, charge_qr
from ..linalg import (
    RankDeficiencyError,
    # unused here, but a span target of the benchmark's tracer
    # (bench/tracing.py SPAN_TARGETS), which looks it up in this module
    back_substitute,  # noqa: F401
    gram_schmidt_qr,
    require_decodable,
)
from ..modem import se_order, slice_pam
from .result import DecodeResult
from .sphere import tree_search
from .structure import COUPLED_DIMS, REL_TOL, two_stage_zeros

SWITCH_MODES = ("none", "4by4", "2by2")

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
    """Chosen decode order and the reliability metrics that selected it."""

    order: tuple
    epsilons: dict

    @property
    def is_identity(self):
        return self.order == _IDENTITY


def zf_estimate(h_eq, y):
    """Unconstrained (zero-forcing) symbol estimate ``H_eq^-1 y``.

    One LU solve (``np.linalg.solve``) of the square equivalent channel, run
    before any factorization so that the column switch can choose the decode
    order first.  ``h_eq`` and ``y`` come checked, as float arrays with
    ``y`` ravelled (:func:`simplified_ml`).  Returns the complex symbols as
    a dtype view of the fresh interleaved solution, so ``s.view(float)``
    reads it back bit for bit.  Linear in ``y``.

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
    as :func:`simplified_ml` checked it.  Returns ``h_eq`` with column pairs
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
    plan = ColumnSwitchPlan(
        order=order,
        epsilons={"e12": e12, "e34": e34, "e14": e14, "e56": e56, "e78": e78, "e58": e58},
    )
    if plan.is_identity:
        return h_eq, plan
    return np.asarray(h_eq).take(_COLUMNS[order], axis=1), plan


def compute_v(z, r, s_outer):
    """Interference-cancelled targets for the four parallel branches.

    ``v = z[0:8] - R[0:8, 8:16] s_outer`` as a list of Python floats, for
    the decided tree symbols ``s_outer`` (the real 8-vector [c; d]) and the
    decode's ndarrays ``z`` and ``r``, taken as they are.  Linear in
    ``s_outer``; with ``s_outer = 0`` this is just ``z[0:8]``.
    """
    return (z[:8] - r[:8, 8:16] @ s_outer).tolist()


def parallel_decisions(v, r, radius, d_outer, pam, counters):
    """Four synchronized 2-dim PAM searches; returns ``(a_hat, b_hat, d_p)``.

    Branch b solves ``min (v1 - r11 s1 - r12 s2)^2 + (v2 - r22 s2)^2`` over
    the PAM grid using the entries of R named by ``COUPLED_DIMS[b]``: an S-E
    loop over s2 (ordered by the branch's own unconstrained estimate
    ``v2 / r22``, so partial distances ascend), with s1 obtained by slicing
    ``(v1 - r12 s2) / r11``.  Iteration j of all branches completes before
    iteration j+1 starts.  A branch stops when its partial distance exceeds
    its own best, or when it plus the recorded distances of finished
    branches plus ``d_outer`` exceeds ``radius``; ``radius=math.inf`` turns
    this cross-branch test off.  Cross-branch stopping never changes the
    decode outcome: it can only inflate ``d_p`` at leaves the radius test
    rejects anyway.

    ``a_hat`` is [s1R, s1I, s2R, s2I] and ``b_hat`` [s3R, s3I, s4R, s4I];
    ``d_p`` is the sum of branch minima (infinite if a branch was cut off
    before any decision, which only happens at already-hopeless leaves).
    The diagonal of ``r`` must have passed the rank rule (``gram_schmidt_qr``).
    ``v`` and ``r`` are read entry by entry, unconverted: the decoder hands
    in the list from :func:`compute_v` and R as nested lists of Python
    floats.  NumPy arrays give the same bits, only more slowly.

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
    # one list per branch: v1, r11, r12, v2, r22, S-E order of s2, then its
    # state: best distance, its s1 and s2, steps run once it has stopped
    branches = []
    for i1, i2 in COUPLED_DIMS:
        v2, r22 = v[i2], r[i2][i2]
        branches.append([v[i1], r[i1][i1], r[i1][i2], v2, r22,
                         se_order(v2 / r22, pam), math.inf, None, None, 0])
    live = branches.copy()
    finished = 0.0  # sum of the finished branches' minima, in branch order
    for j in range(n):
        i = 0
        while i < len(live):
            br = live[i]
            v1, r11, r12, v2, r22, order, p, _, _, _ = br
            s2 = order[j]
            t = v2 - r22 * s2
            tau = t * t
            if tau > p or tau + finished + d_outer > radius:
                br[9] = j + 1
                del live[i]
                finished = 0.0
                for other in branches:
                    if other[9]:
                        finished += other[6]
                continue
            cross = r12 * s2
            s1 = slice_pam((v1 - cross) / r11, pam)
            resid = v1 - r11 * s1 - cross
            d_full = resid * resid + tau
            if d_full < p:
                br[6] = d_full
                br[7] = s1
                br[8] = s2
            i += 1
        if not live:
            break

    steps = 0
    for b, br in enumerate(branches):
        ran = br[9] or n  # a branch that never stopped ran every step
        counters.branch_nodes[b] += ran
        steps += ran
    decided = steps - (4 - len(live))  # every step but a stopping one slices s1
    counters.mults += 2 * steps + 3 * decided
    counters.divs += 4 + decided
    b0, b1, b2, b3 = branches
    a_hat = (b0[7], b1[7], b0[8], b1[8])
    b_hat = (b2[7], b3[7], b2[8], b3[8])
    return a_hat, b_hat, b0[6] + b1[6] + b2[6] + b3[6]


def simplified_ml(y_tilde, h_eq, constellation, switch_mode="none"):
    """Full two-stage decode of one received codeword.

    ``h_eq`` must come from the "new" codeword ordering.  That is checked
    on the R factor the decode runs on, against every entry either stage
    reads as zero, relative to ``max|R|`` (:func:`~.structure.two_stage_zeros`).
    Any other channel raises :class:`ValueError`, because the decoder would
    return a non-ML answer on it.  All three switch modes return the same ML
    solution; they differ only in search effort.  Raises :class:`ValueError`
    naming the argument on input :func:`~mimo3d.linalg.require_decodable`
    refuses, and propagates :class:`~mimo3d.linalg.RankDeficiencyError` on
    degenerate channels.  An unknown ``switch_mode`` is refused first.  No
    stage checks again.

    With a column switch, the zero-forcing estimate comes from one LU solve
    of ``h_eq`` (:func:`zf_estimate`), and the switch reads it to choose the
    decode order; without one, no estimate is needed.  Only the permuted
    channel ``H_eq P`` is then factored, once, in one Householder pass that
    also rotates ``y`` (:func:`~mimo3d.linalg.gram_schmidt_qr`).  The tree
    search finds its S-E orders from R and ``z`` (the table policy of
    :func:`~.sphere.tree_search`), and the decided symbols are placed as
    Python complexes in canonical order.  The counters charge the paper's
    preprocessing sequence: QR of ``h_eq`` and rotation, plus, with a
    switch, the back-substitution of the estimate and, after a
    non-identity order, a second QR and rotation (see
    :mod:`mimo3d.counters`).

    ``metric`` is the search distance ``||z - R s||^2`` in the rotated
    domain, equal to ``||y - H_eq s||^2`` up to rounding because ``H_eq`` is
    square; the registry entries report the received-domain value.
    """
    if switch_mode not in SWITCH_MODES:
        raise ValueError(f"unknown switch mode {switch_mode!r}; expected one of {SWITCH_MODES}")
    require_decodable(y_tilde, h_eq)
    h_eq = np.asarray(h_eq, dtype=float)
    counters = OpCounters()
    y = np.asarray(y_tilde, dtype=float).ravel()

    charge_qr(counters, 16, 16)
    charge_matvec(counters, 16, 16)
    order = _IDENTITY
    if switch_mode != "none":
        s_zf = zf_estimate(h_eq, y)
        charge_backsolve(counters, 16)
        h_eq, plan = column_switch(s_zf, h_eq, switch_mode, constellation)
        order = plan.order
        counters.mults += 16  # |Q(s_zf) - s_zf|^2 over 8 complex entries
        if not plan.is_identity:
            charge_qr(counters, 16, 16)
            charge_matvec(counters, 16, 16)
    qr = gram_schmidt_qr(h_eq, y)
    if two_stage_zeros(qr.r) > REL_TOL:
        raise ValueError("h_eq lacks the R zero structure of the 'new' codeword ordering")
    z = qr.z

    pam = constellation.pam
    rows = qr.r.tolist()
    # What the leaf's six cells (z, qr, counters, decide, rows, pam) and
    # tree_search's inputs hold is left to the cyclic GC with the search's
    # reference cycle, and the sweep benchmark reads a change in that count
    # as a change in speed (tests/test_decoders.py,
    # test_per_decode_cyclic_garbage), so they stay as they are.
    decide = parallel_decisions

    def leaf(s_outer, d_leaf, radius):
        v = compute_v(z, qr.r, s_outer)
        a_hat, b_hat, d_p = decide(v, rows, radius, d_leaf, pam, counters)
        return d_p, (a_hat, b_hat)

    best_outer, payload, dist = tree_search(z[8:], qr.r[8:, 8:], pam, leaf, counters, tables=True)
    counters.mults += 64 * counters.leaves  # compute_v at every leaf
    if best_outer is None:  # unreachable: the first leaf always beats an infinite radius
        raise RuntimeError("tree search returned no candidate")

    a_hat, b_hat = payload
    decided = (*a_hat, *b_hat, *best_outer)  # re, im of each decode position
    symbols = [0j] * 8
    for pos, sym in enumerate(order):
        symbols[sym] = complex(decided[2 * pos], decided[2 * pos + 1])
    return DecodeResult(symbols=np.array(symbols), metric=dist, counters=counters)
