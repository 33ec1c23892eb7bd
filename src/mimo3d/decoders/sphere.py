"""The depth-first sphere search engine and the classical baseline on it.

Both tree decoders run the same search (Agrell, Eriksson, Vardy and Zeger,
"Closest point search in lattices", IEEE Trans. Inf. Theory 2002): a
depth-first walk of ``min ||z - R s||^2`` from the last dimension down to the
first, with an adaptive radius that shrinks at every improving leaf.  They
differ only in the enumeration policy of :func:`tree_search`:

* centred Schnorr-Euchner (S-E) order -- at each node the children are
  visited in ascending distance from the conditional (Babai) centre.  This
  costs one division per expanded node, and because the increments are then
  nondecreasing, the sibling loop is cut at the first child outside the
  sphere;
* fixed per-level lookup tables built once up front -- no division per node,
  but sibling distances are not monotone, so every child of a visited node
  is evaluated.

:func:`sd_baseline` is the classical 16-level real-valued search with the
centred policy, run to completion, hence exactly ML.  The two-stage decoder
(:mod:`.simplified`) runs the table policy over its 8 tree dimensions and
completes every leaf with its parallel decisions.
"""

from __future__ import annotations

import math

import numpy as np

from ..linalg import complex_from_interleaved, require_full_rank
from ..modem import PamSet, se_order
from .result import DecodeResult


def tree_search(z, r, order, leaf_fn, counters):
    """Depth-first search of ``min ||z - R s||^2`` for upper-triangular ``r``.

    ``r`` must have a positive diagonal (``gram_schmidt_qr`` output); a
    diagonal entry below ``RANK_TOL`` times the largest raises
    :class:`~mimo3d.linalg.RankDeficiencyError` (:func:`require_full_rank`).
    ``order`` is the enumeration policy: a :class:`~mimo3d.modem.PamSet`
    gives centred S-E order at every node (sibling loop cut at the first
    child outside the radius), a sequence of per-dimension level tuples
    gives that fixed order (every child evaluated).  A full-depth candidate
    inside the radius is a leaf; ``leaf_fn(s, d_leaf, radius) -> (d_p,
    payload)`` completes it (``None``: the leaf is complete as it is), and
    the radius becomes ``d_leaf + d_p`` on strict improvement only, so ties
    keep the first solution found.  ``z`` and ``r`` are converted once to
    plain Python floats, so the per-node arithmetic (and ``d_leaf``,
    ``radius`` and the returned distance) never goes through NumPy scalars.

    Returns ``(best_s, best_payload, best_distance)``.
    """
    rows = np.asarray(r, dtype=float).tolist()
    z = np.asarray(z, dtype=float).ravel().tolist()
    n = len(z)
    require_full_rank([rows[i][i] for i in range(n)])
    s = [0.0] * n
    centred = isinstance(order, PamSet)
    radius = math.inf
    best = best_payload = None

    def descend(i, dist):
        nonlocal radius, best, best_payload
        row = rows[i]
        acc = z[i]
        for k in range(i + 1, n):
            acc -= row[k] * s[k]
        counters.mults += n - 1 - i
        rii = row[i]
        if centred:
            children = se_order(acc / rii, order)
            counters.divs += 1
        else:
            children = order[i]
        for cand in children:
            s[i] = cand
            counters.tree_nodes += 1
            resid = acc - rii * cand
            d_new = dist + resid * resid
            counters.mults += 2
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
            elif centred:
                break  # later siblings are at least this far

    descend(n - 1, 0.0)
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
