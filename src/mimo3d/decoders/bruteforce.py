"""Exhaustive ML search, the optimality oracle for QPSK (``bruteforce``)."""

from __future__ import annotations

import functools

import numpy as np

from ..modem import build_qam

# 65536 candidates for QPSK is fine; 16-QAM would need 4.3e9.
MAX_ORDER = 4


@functools.lru_cache(maxsize=1)
def _candidates(order):
    """All M^8 symbol vectors as read-only rows of interleaved reals.

    Row k enumerates symbol indices lexicographically with s8 varying
    fastest, so the first minimum found by argmin is the lexicographically
    smallest tied candidate.
    """
    idx = np.arange(order**8)
    digits = (idx[:, None] // order ** np.arange(7, -1, -1)[None, :]) % order
    table = build_qam(order).points[digits].view(float)  # complex128 memory is interleaved
    table.flags.writeable = False
    return table


def ml_bruteforce(y, h_eq, constellation, counters):
    """Minimize ``||y - H_eq s||^2`` over the full constellation product.

    The search core of the ``bruteforce`` registry entry, which passes the
    checked input (float arrays, ``y`` ravelled) and fresh ``counters``.
    Returns the decided interleaved 16-vector, a read-only row of the
    candidate table, and charges every candidate as a tree node and a leaf
    with ``16 * 16 + 16`` mults.  Ties are broken toward the
    lexicographically smallest symbol-index vector.  Refuses constellations
    above QPSK (M^8 blowup) with :class:`ValueError`.
    """
    if constellation.order > MAX_ORDER:
        raise ValueError(
            f"brute force limited to M <= {MAX_ORDER} (M={constellation.order} needs {constellation.order**8} candidates)"
        )
    table = _candidates(constellation.order)
    resid = table @ h_eq.T
    resid -= y
    n = len(table)
    counters.tree_nodes += n
    counters.leaves += n
    counters.mults += n * (16 * 16 + 16)
    return table[int(np.argmin(np.einsum("ij,ij->i", resid, resid)))]
