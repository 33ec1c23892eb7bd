"""Two-stage reduced-complexity ML decoder with parallel PAM decisions.

The equivalent channel of the "new" codeword ordering has an R factor whose
(1:4, 5:8) block is zero and whose two leading 4x4 diagonal blocks decouple
real from imaginary parts (see :mod:`.structure`).  The decode therefore
splits into:

* an outer depth-first tree search over the 8 real dimensions of the last
  four symbols of the decode order.  It is the shared engine
  :func:`~.sphere.tree_search` with the fixed-table policy: the S-E order of
  every level is built once from the zero-forcing estimate (no per-node
  division), and every child of a visited node is evaluated against the
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
in the tree stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..counters import OpCounters, charge_backsolve, charge_matvec, charge_qr
from ..linalg import (
    RankDeficiencyError,
    # unused here, but a span target of the benchmark's tracer
    # (bench/tracing.py SPAN_TARGETS), which looks it up in this module
    back_substitute,  # noqa: F401
    gram_schmidt_qr,
    require_decodable,
    require_full_rank,
)
from ..modem import se_order, slice_pam
from .result import DecodeResult
from .sphere import tree_search
from .structure import REL_TOL, gram_cross

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

# (s1-role dim, s2-role dim) of each parallel branch, 0-based real indices:
# branch 0/1 handle re/im of the first symbol pair, 2/3 of the second.
BRANCH_DIMS = ((0, 2), (1, 3), (4, 6), (5, 7))


@dataclass(frozen=True)
class ColumnSwitchPlan:
    """Chosen decode order and the reliability metrics that selected it."""

    mode: str
    order: tuple = _IDENTITY
    epsilons: dict = field(default_factory=dict)

    @property
    def is_identity(self):
        return self.order == _IDENTITY


def zf_estimate(h_eq, y):
    """Unconstrained (zero-forcing) symbol estimate ``H_eq^-1 y``.

    One LU solve (``np.linalg.solve``) of the square equivalent channel, run
    before any factorization so that the column switch can choose the decode
    order first.  ``y`` may be shaped (n,) or (n, 1).  Returns the complex
    symbols as a dtype view of the fresh interleaved solution, so
    ``s.view(float)`` reads it back bit for bit.  Linear in ``y``.

    Raises
    ------
    ValueError
        If ``h_eq`` is not square, or ``y`` does not match it.
    RankDeficiencyError
        If ``h_eq`` is exactly singular (LU meets a zero pivot).
    """
    h_eq = np.asarray(h_eq, dtype=float)
    if h_eq.ndim != 2 or h_eq.shape[0] != h_eq.shape[1]:
        raise ValueError(f"h_eq has shape {h_eq.shape}; the zero-forcing solve needs it square")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != h_eq.shape[0]:
        raise ValueError(f"y has {y.size} entries; h_eq has {h_eq.shape[0]} rows")
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
    the other half to keep the R structure.  Returns ``h_eq`` with column
    pairs permuted accordingly (``h_eq`` itself for the identity order) plus
    the plan for de-permutation.

    The eight estimates are read once into Python floats; each error is
    ``abs(complex(Q(re) - re, Q(im) - im)) ** 2``, the same bits as
    ``abs(complex(Q(v.real), Q(v.imag)) - v) ** 2`` on the complex entry
    ``v``.
    """
    if mode not in SWITCH_MODES:
        raise ValueError(f"unknown switch mode {mode!r}; expected one of {SWITCH_MODES}")
    if mode == "none":
        return h_eq, ColumnSwitchPlan(mode="none")

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
        mode=mode,
        order=order,
        epsilons={"e12": e12, "e34": e34, "e14": e14, "e56": e56, "e78": e78, "e58": e58},
    )
    if plan.is_identity:
        return h_eq, plan
    return np.asarray(h_eq).take(_COLUMNS[order], axis=1), plan


def compute_v(z_tilde, r, c, d):
    """Interference-cancelled targets for the four parallel branches.

    Given the decided tree symbols (real 4-vectors ``c`` and ``d``), removes
    their contribution from the first eight rotated receive dimensions:
    ``v = z[0:8] - R[0:8, 8:16] [c; d]``.  Linear in (c, d); with c = d = 0
    this is just ``z[0:8]``.
    """
    z = np.asarray(z_tilde, dtype=float).ravel()
    outer = np.concatenate([np.asarray(c, dtype=float).ravel(), np.asarray(d, dtype=float).ravel()])
    return z[:8] - np.asarray(r, dtype=float)[:8, 8:16] @ outer


def parallel_decisions(v, r, radius, d_outer, pam, counters):
    """Four synchronized 2-dim PAM searches; returns ``(a_hat, b_hat, d_p)``.

    Branch b solves ``min (v1 - r11 s1 - r12 s2)^2 + (v2 - r22 s2)^2`` over
    the PAM grid using the entries of R named by ``BRANCH_DIMS[b]``: an S-E
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
    The eight diagonal entries read must pass :func:`require_full_rank`.

    The stop test of a branch reads only the finished branches, and its
    slice-and-update reads only its own state, so each live branch runs its
    whole step j (stop test, then slice and update) before the next one in
    branch order; that gives what running every stop test of step j before
    any update would.  The sum of the finished branches' minima is kept
    between tests and recomputed in branch order when a branch stops, so it
    is the same float a fresh sum would give; the counters are summed
    locally and added once.
    """
    diag = [float(r[i][i]) for i in range(8)]
    require_full_rank(diag)
    n = pam.order
    # one list per branch: v1, r11, r12, v2, r22, S-E order of s2, then its
    # state: best distance, its s1 and s2, steps run once it has stopped
    branches = []
    for i1, i2 in BRANCH_DIMS:
        v2, r22 = float(v[i2]), diag[i2]
        branches.append([float(v[i1]), diag[i1], float(r[i1][i2]), v2, r22,
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
    up front, on the Gram cross block of ``h_eq`` relative to ``max|H_eq|^2``
    (one 4x16 by 16x4 product, a few microseconds against a decode of about
    half a millisecond); any other ordering raises :class:`ValueError`,
    because the decoder would return a non-ML answer on it.  All three switch
    modes return the same ML solution; they differ only in search effort.
    Raises :class:`ValueError` naming the argument when ``h_eq`` is not
    16x16, ``y_tilde`` does not hold 16 entries, or either holds a NaN or
    inf (:func:`~mimo3d.linalg.require_decodable`), and propagates
    :class:`~mimo3d.linalg.RankDeficiencyError` on degenerate channels.

    The zero-forcing estimate comes from one LU solve of ``h_eq``
    (:func:`zf_estimate`); the column switch reads it to choose the decode
    order, and only the permuted channel ``H_eq P`` is then factored, once,
    in one Householder pass that also rotates ``y``
    (:func:`~mimo3d.linalg.gram_schmidt_qr`).  Between the solve and the
    search the eight estimates are plain Python floats: the S-E table of
    each tree level is read from them in decode order, and the decided
    symbols are placed as Python complexes in canonical order.  The
    counters still charge the paper's sequence: QR of ``h_eq``, rotation,
    back-substitution, and a second QR and rotation after a non-identity
    switch (see :mod:`mimo3d.counters`).

    ``metric`` is the search distance ``||z - R s||^2`` in the rotated
    domain, equal to ``||y - H_eq s||^2`` up to rounding because ``H_eq`` is
    square; the registry entries report the received-domain value.
    """
    require_decodable(y_tilde, h_eq)
    h_eq = np.asarray(h_eq, dtype=float)
    if gram_cross(h_eq) > REL_TOL:
        raise ValueError("h_eq lacks the zero Gram cross block of the 'new' codeword ordering")
    counters = OpCounters()
    y = np.asarray(y_tilde, dtype=float).ravel()

    s_zf = zf_estimate(h_eq, y)
    # charged as the paper computes it: QR, rotation, back-substitution
    charge_qr(counters, 16, 16)
    charge_matvec(counters, 16, 16)
    charge_backsolve(counters, 16)
    if switch_mode == "none":
        plan = ColumnSwitchPlan(mode="none")
    else:
        h_eq, plan = column_switch(s_zf, h_eq, switch_mode, constellation)
        counters.mults += 16  # |Q(s_zf) - s_zf|^2 over 8 complex entries
        if not plan.is_identity:  # the paper factors H_eq P a second time
            charge_qr(counters, 16, 16)
            charge_matvec(counters, 16, 16)
    qr = gram_schmidt_qr(h_eq, y)
    z = qr.z

    pam = constellation.pam
    # tree level i decides the real or imaginary part of the symbol at
    # decode position 4 + i // 2; its table is the S-E order from that
    # part's ZF estimate
    zf = s_zf.view(float).tolist()
    tables = [se_order(zf[2 * sym + part], pam) for sym in plan.order[4:] for part in (0, 1)]
    rows = qr.r.tolist()
    # The leaf is reachable from the search's reference cycle, so what its
    # closure holds, and what tree_search is handed, is left to the cyclic
    # GC after every decode.  The sweep benchmark's speed probe absorbs
    # generation-0 collections, so its readings hang on exactly how many
    # objects that is; when a second run_sweep call fits in the benchmark's
    # time, fewer collections land in the probe and the sweep reads about
    # 2x worse (see the FOUND lines in CHANGES.md).  So the leaf and the
    # search inputs stay as they are.  Hence six cells: z (an ndarray), qr
    # (the ndarray R read through the factor tuple), counters, decide, rows
    # (one tolist) and pam; tree_search gets ndarray slices of z and R.
    # decide is looked up once per decode.
    decide = parallel_decisions

    def leaf(s_outer, d_leaf, radius):
        v = compute_v(z, qr.r, s_outer[:4], s_outer[4:])
        counters.mults += 64
        a_hat, b_hat, d_p = decide(v, rows, radius, d_leaf, pam, counters)
        return d_p, (a_hat, b_hat)

    best_outer, payload, dist = tree_search(z[8:], qr.r[8:, 8:], tables, leaf, counters)
    if best_outer is None:  # unreachable: the first leaf always beats an infinite radius
        raise RuntimeError("tree search returned no candidate")

    a_hat, b_hat = payload
    decided = (*a_hat, *b_hat, *best_outer)  # re, im of each decode position
    symbols = [0j] * 8
    for pos, sym in enumerate(plan.order):
        symbols[sym] = complex(decided[2 * pos], decided[2 * pos + 1])
    return DecodeResult(symbols=np.array(symbols), metric=dist, counters=counters)
