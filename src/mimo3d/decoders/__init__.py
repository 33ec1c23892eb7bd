"""Decoder registry: every decoder shares one instrumentation contract.

Registry entries are callables ``fn(y_tilde, h_eq, constellation) ->
DecodeResult`` that perform their own counted preprocessing (QR, rotation,
linear estimation), so operation counts are comparable across decoders.
The reported metric is ``||y - H_eq s||^2`` for the returned symbols
(uncharged; see :mod:`mimo3d.counters`): brute force computes exactly that,
and the tree decoders' search distances are replaced by it in
:func:`_reported_metric`, the one place that computes it.  Every decoder
refuses a NaN or inf in either argument with a :class:`ValueError` that
names the argument (:func:`~mimo3d.linalg.require_finite`).

Names: ``bruteforce``, ``sd-baseline``, ``simplified``, ``simplified-cs4``,
``simplified-cs2``.  A name is the only way to pick a decoder; the last
three are :func:`simplified_ml` with ``switch_mode`` "none", "4by4" and
"2by2".

The two tree decoders run one depth-first engine,
:func:`~.sphere.tree_search`, with two enumeration policies: ``sd-baseline``
centres S-E order at every node of a 16-level search, the two-stage decoder
uses fixed per-level tables over 8 levels and completes each leaf with its
parallel decisions.
"""

from __future__ import annotations

import numpy as np

from ..counters import OpCounters, charge_matvec, charge_qr
from ..linalg import gram_schmidt_qr, require_finite, tilde_interleave
from .bruteforce import ml_bruteforce
from .result import DecodeResult
from .simplified import (
    ALLOWED_ORDERS,
    BRANCH_DIMS,
    SWITCH_MODES,
    ColumnSwitchPlan,
    column_switch,
    compute_v,
    parallel_decisions,
    simplified_ml,
    zf_estimate,
)
# sd_baseline is the search core of the "sd-baseline" entry: looked up here at
# decode time, not exported
from .sphere import sd_baseline, tree_search
from .structure import BLOCK_ZERO_POSITIONS, StructureReport, verify_r_structure

__all__ = [
    "ALLOWED_ORDERS",
    "BLOCK_ZERO_POSITIONS",
    "BRANCH_DIMS",
    "SWITCH_MODES",
    "ColumnSwitchPlan",
    "DecodeResult",
    "StructureReport",
    "column_switch",
    "compute_v",
    "get_decoder",
    "ml_bruteforce",
    "parallel_decisions",
    "simplified_ml",
    "tree_search",
    "verify_r_structure",
    "zf_estimate",
]


def _reported_metric(result, y_tilde, h_eq):
    resid = np.asarray(y_tilde, dtype=float).ravel() - h_eq @ tilde_interleave(result.symbols)
    result.metric = float(resid @ resid)
    return result


def _decode_baseline(y_tilde, h_eq, constellation):
    require_finite(y_tilde, h_eq)
    counters = OpCounters()
    q, r = gram_schmidt_qr(h_eq)
    charge_qr(counters, 16, 16)
    z = q.T @ np.asarray(y_tilde, dtype=float).ravel()
    charge_matvec(counters, 16, 16)
    result = sd_baseline(z, r, constellation, counters)
    return _reported_metric(result, y_tilde, h_eq)


def _make_simplified(mode):
    def decode(y_tilde, h_eq, constellation):
        result = simplified_ml(y_tilde, h_eq, constellation, switch_mode=mode)
        return _reported_metric(result, y_tilde, h_eq)

    decode.__name__ = f"decode_simplified_{mode}"
    return decode


REGISTRY = {
    "bruteforce": ml_bruteforce,
    "sd-baseline": _decode_baseline,
    "simplified": _make_simplified("none"),
    "simplified-cs4": _make_simplified("4by4"),
    "simplified-cs2": _make_simplified("2by2"),
}


def get_decoder(name):
    """Resolve a registry name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown decoder {name!r}; available: {sorted(REGISTRY)}") from None
