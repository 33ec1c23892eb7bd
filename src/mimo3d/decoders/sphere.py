"""The depth-first sphere search engine and the classical baseline on it.

Both tree decoders run the same search (Agrell, Eriksson, Vardy and Zeger,
"Closest point search in lattices", IEEE Trans. Inf. Theory 2002): a
depth-first walk of ``min ||z - R s||^2`` from the last dimension down to the
first, with an adaptive radius that shrinks at every improving leaf.  Every
node visits its children in centred Schnorr-Euchner (S-E) order, ascending
distance from the conditional (Babai) centre, so the increments along a
sibling loop are nondecreasing and the loop is cut at the first child
outside the sphere.  The two enumeration policies of :func:`tree_search`
differ only in how a node finds its centre:

* centred -- the inner product over the node's row of R and one division
  at every expanded node, for any upper-triangular R, as straight-line
  code: one generated function per level, built once per dimension;
* tables -- a per-decode table lookup, for R with the zero pattern of the
  two-stage decoder's tree block, which makes the code fast-decodable
  (Biglieri, Hong and Viterbo, "On fast-decodable space-time block codes",
  IEEE Trans. Inf. Theory 2009).  Half of its rows are diagonal, so their
  centre is fixed for the whole decode; each other row couples to a single
  diagonal one, so it has one centre per value of that level.  Each
  (level, parent value) entry is built once, on first use; no node divides.

:func:`sd_baseline` is the classical 16-level real-valued search with the
centred policy, run to completion, hence exactly ML.  The two-stage decoder
(:mod:`.simplified`) runs the table policy over its 8 tree dimensions and
hands every leaf to its parallel decisions, which first drop a leaf whose
lower bound shows it cannot beat the radius.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..linalg import complex_from_interleaved
from ..modem import se_order
from .result import DecodeResult
from .structure import COUPLED_DIMS

# the level each row of the tree block couples to; None for a diagonal row
_COUPLED_LEVEL = tuple(dict(COUPLED_DIMS).get(i) for i in range(8))


@functools.cache
def level_functions(n):
    """The ``n`` functions ``f_i(z_i, row, s) = z_i - row[i+1] * s[i+1] - ... - row[n-1] * s[n-1]``.

    Compiled once per ``n`` from integer indices only, so they call nothing.
    The chain runs left to right: it rounds as ``acc -= row[k] * s[k]`` over
    ascending k does, bit for bit, without the loop's per-term overhead.
    """
    terms = [f" - row[{k}] * s[{k}]" for k in range(n)]
    return tuple(eval("lambda z, row, s: z" + "".join(terms[i + 1:]), {}) for i in range(n))


def tree_search(z, r, pam, leaf_fn, counters, tables=False):
    """Depth-first search of ``min ||z - R s||^2`` for upper-triangular ``r``.

    ``r`` must have passed the rank rule (``gram_schmidt_qr`` output, or a
    diagonal block of it): the search divides by its diagonal unchecked.
    Every level enumerates the levels of ``pam`` in exact S-E order from its
    conditional centre ``acc / r_ii``, ``acc = z_i - sum_k r_ik s_k``, so
    the increments along a sibling loop are nondecreasing and the loop stops
    at the first child outside the radius.  ``tables`` picks how the order
    and ``acc`` are found:

    * ``False`` (centred): at every expanded node, the inner product over
      the row (``n - 1 - i`` mults) by ``level_functions(n)[i]``, a loop's
      terms in its order, hence its bits, and one division.  ``descend``
      reads ``n`` as ``len(row)``, so the tuple takes ``n``'s closure cell
      and a decode leaves no more objects to the cyclic GC (simplified_ml);
    * ``True`` (tables): looked up from a per-decode table, for an ``r``
      with the pattern of the two-stage decoder's tree block: a row i
      paired with a level j in ``COUPLED_DIMS`` couples only to it
      (``r_ij``), and every other row is diagonal.  A diagonal row's entry
      is its fixed centre ``z_i / r_ii``.  A coupled row has one entry per
      value of s_j, ``acc = z_i - r_ij s_j``.  Each entry is built on first
      use, at most once per (level, parent value), for one mult (coupled
      rows only) and one division; no node divides, and no inner product
      runs over the structural zeros of ``r``.

    Every evaluated child costs 2 mults, charged once after the search.  A
    full-depth candidate inside the radius is a leaf; ``leaf_fn(s, d_leaf,
    radius) -> (d_p, payload)`` completes it (``None``: the leaf is complete
    as it is), and the radius becomes ``d_leaf + d_p`` on strict improvement
    only, so ties keep the first solution found.  ``z`` and ``r`` are
    converted once to plain Python floats, so the per-node arithmetic (and
    ``d_leaf``, ``radius`` and the returned distance) never goes through
    NumPy scalars.

    Returns ``(best_s, best_payload, best_distance)``.
    """
    rows = np.asarray(r, dtype=float).tolist()
    z = np.asarray(z, dtype=float).ravel().tolist()
    n = len(z)
    s = [0.0] * n
    # entry of level i under parent PAM index k (0 for a diagonal row): acc
    # at 2 * (order * i + k), the S-E order one slot up; None until built.
    # The closure cycle of descend leaves the table to the cyclic GC, so it
    # is one flat list of floats and the PamSet's shared order tuples: it
    # adds no object but itself to what a decode leaves (see simplified_ml)
    table = [None] * (2 * pam.order * n) if tables else None
    levels = None if tables else level_functions(n)
    radius = math.inf
    best = best_payload = None

    def descend(i, dist):
        nonlocal radius, best, best_payload
        row = rows[i]
        rii = row[i]
        if table is None:
            acc = levels[i](z[i], row, s)
            counters.mults += len(row) - 1 - i
            children = se_order(acc / rii, pam)
            counters.divs += 1
        else:
            at = 2 * pam.order * i
            j = _COUPLED_LEVEL[i]
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
                d_p, payload = (0.0, None) if leaf_fn is None else leaf_fn(s, d_new, radius)
                d_total = d_new + d_p
                if d_total < radius:
                    radius = d_total
                    best = s.copy()
                    best_payload = payload
            else:
                break  # later siblings are at least this far

    nodes = counters.tree_nodes
    descend(n - 1, 0.0)
    counters.mults += 2 * (counters.tree_nodes - nodes)  # 2 per evaluated child
    return best, best_payload, radius


def sd_baseline(z_tilde, r, constellation, counters):
    """Exact ML search of ``min ||z - R s||^2`` over all 16 real dimensions.

    The search core of the ``sd-baseline`` registry entry, which checks the
    input, rotates it and charges the QR to ``counters`` first; ``r`` must be
    upper triangular with positive diagonal (``gram_schmidt_qr`` output).
    """
    best, _, metric = tree_search(z_tilde, r, constellation.pam, None, counters)
    return DecodeResult(
        symbols=complex_from_interleaved(best),
        metric=metric,
        counters=counters,
    )
