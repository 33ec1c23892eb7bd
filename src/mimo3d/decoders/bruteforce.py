"""Exhaustive ML search, used as the optimality oracle for QPSK."""

from __future__ import annotations

import functools

import numpy as np

from ..counters import OpCounters
from ..linalg import require_decodable
from ..modem import build_qam
from .result import DecodeResult

# 65536 candidates for QPSK is fine; 16-QAM would need 4.3e9.
MAX_ORDER = 4


@functools.lru_cache(maxsize=1)
def _candidates(order):
    """All M^8 symbol vectors, as (complex points, interleaved reals).

    Row k enumerates symbol indices lexicographically with s8 varying
    fastest, so the first minimum found by argmin is the lexicographically
    smallest tied candidate.
    """
    const = build_qam(order)
    idx = np.arange(order**8)
    digits = (idx[:, None] // order ** np.arange(7, -1, -1)[None, :]) % order
    pts = const.points[digits]
    return pts, pts.view(float)  # complex128 memory is the interleaved layout


def ml_bruteforce(y_tilde, h_eq, constellation):
    """Minimize ``||y - H_eq s||^2`` over the full constellation product.

    Ties are broken toward the lexicographically smallest symbol-index
    vector.  Refuses constellations above QPSK (M^8 blowup) with
    :class:`ValueError`, and input as :func:`~mimo3d.linalg.require_decodable` does.
    """
    y, h_eq = require_decodable(y_tilde, h_eq, constellation)
    if constellation.order > MAX_ORDER:
        raise ValueError(
            f"brute force limited to M <= {MAX_ORDER} (M={constellation.order} needs {constellation.order**8} candidates)"
        )
    pts, real = _candidates(constellation.order)
    resid = real @ h_eq.T
    resid -= y
    metrics = np.einsum("ij,ij->i", resid, resid)
    k = int(np.argmin(metrics))
    n = real.shape[0]
    counters = OpCounters(tree_nodes=n, leaves=n, mults=n * (16 * 16 + 16))
    return DecodeResult(symbols=pts[k].copy(), metric=float(metrics[k]), counters=counters)
