"""Decoder registry: every decoder shares one instrumentation contract.

Registry entries are callables ``fn(y_tilde, h_eq, constellation) ->
DecodeResult`` that perform their own counted preprocessing (QR, rotation,
linear estimation), so operation counts are comparable across decoders.
The reported metric is ``||y - H_eq s||^2`` for the returned symbols
(uncharged; see :mod:`mimo3d.counters`): brute force computes exactly that,
and the tree decoders' search distances are replaced by it in
:func:`_reported_metric`, the one place that computes it.  Every decoder
refuses an ``h_eq`` that is not 16x16, a ``y_tilde`` that does not hold 16
entries, and a NaN, inf or out-of-range scale in either argument, with a
:class:`ValueError` that names it (:func:`~mimo3d.linalg.require_decodable`).

Each decode runs its guards once, at the entry: that input check, the rank
rule in :func:`~mimo3d.linalg.gram_schmidt_qr` and, for the two-stage
decoder, its switch mode, the singular zero-forcing solve and
:func:`~.structure.two_stage_zeros`.  The stages take these as given.

Ties: where two candidates are equally close to ``y`` in exact arithmetic,
rounding decides between them, and different decoders may return different
members of that tie class.  Each returns one of them, and the reported
metrics agree within 1e-9 relative.

Names: ``bruteforce``, ``sd-baseline``, ``simplified``, ``simplified-cs4``,
``simplified-cs2``.  A name is the only way to pick a decoder; the last
three are :func:`~.simplified.simplified_ml` with ``switch_mode`` "none",
"4by4" and "2by2".

Public names: :func:`get_decoder`, :func:`verify_r_structure` and the types
they return, :class:`DecodeResult` and :class:`StructureReport`.  The stage
functions live in their submodules: ``simplified_ml``, ``zf_estimate``,
``column_switch``, ``compute_v`` and ``parallel_decisions`` in
:mod:`.simplified`, ``tree_search`` and ``sd_baseline`` in :mod:`.sphere`,
``ml_bruteforce`` in :mod:`.bruteforce`.  They keep those names, and this
module keeps its ``simplified_ml``, ``sd_baseline`` and ``gram_schmidt_qr``
globals, because the benchmark's tracer (``bench/tracing.py``) wraps them
where they are looked up at call time.  The two tree decoders share one
search engine (:mod:`.sphere`).
"""

from __future__ import annotations

import numpy as np

from ..counters import OpCounters, charge_matvec, charge_qr
from ..linalg import gram_schmidt_qr, require_decodable
from .bruteforce import ml_bruteforce
from .result import DecodeResult
# simplified_ml and sd_baseline are the search cores of the registry entries,
# looked up here at decode time, not exported
from .simplified import simplified_ml
from .sphere import sd_baseline
from .structure import StructureReport, verify_r_structure

__all__ = ["DecodeResult", "StructureReport", "get_decoder", "verify_r_structure"]


def _reported_metric(result, y_tilde, h_eq):
    # symbols is a fresh complex128 vector, so its float view is the
    # interleaved [re, im, ..] vector, exactly
    resid = np.asarray(y_tilde, dtype=float).ravel() - h_eq @ result.symbols.view(float)
    result.metric = float(resid @ resid)
    return result


def _decode_baseline(y_tilde, h_eq, constellation):
    require_decodable(y_tilde, h_eq)
    counters = OpCounters()
    r, z = gram_schmidt_qr(h_eq, y_tilde)
    charge_qr(counters, 16, 16)
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
