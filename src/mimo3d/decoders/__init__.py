"""Decoder registry: the one decoder API, with one instrumentation contract.

Registry entries are callables ``fn(y_tilde, h_eq, constellation) ->
DecodeResult`` that perform their own counted preprocessing (QR, rotation,
linear estimation), so operation counts are comparable across decoders.
Each checks and converts its input once, runs its search core and builds
its result.  The input check (:func:`~mimo3d.linalg.require_decodable`)
refuses, naming the argument, a ``constellation`` that is not a
:class:`~mimo3d.modem.QamConstellation` (:class:`TypeError`) and a wrong
shape or dtype, a NaN, inf or out-of-range scale in ``y_tilde`` or
``h_eq`` (:class:`ValueError`).  The reported metric is ``||y - H_eq s||^2``
for the returned symbols (uncharged; see :mod:`mimo3d.counters`): brute
force computes it over every candidate, and :func:`_result` builds both
tree decoders' results with it.

Each decode runs its guards once, at the entry: that input check, the rank
rule in :func:`~mimo3d.linalg.gram_schmidt_qr` and, for the two-stage
decoder, the singular zero-forcing solve and
:func:`~.structure.two_stage_zeros`.  The stages take these as given.

Ties: where two candidates are equally close to ``y`` in exact arithmetic,
rounding decides between them, and different decoders may return different
members of that tie class.  Each returns one of them, and the reported
metrics agree within 1e-9 relative.

Public names: the registry names, ``bruteforce``, ``sd-baseline``,
``simplified``, ``simplified-cs4`` and ``simplified-cs2`` (the last three
differ only in their column switch), resolved by :func:`get_decoder`, are
the decoder API; with them come :func:`verify_r_structure` and the types
the two return, :class:`DecodeResult` and :class:`StructureReport`.  The
search cores and stages stay where they are only as the targets the
benchmark's tracer (``bench/tracing.py``) wraps where they are looked up
at call time: this module's ``simplified_ml``, ``sd_baseline`` and
``gram_schmidt_qr``, and the stages of :mod:`.simplified` and
:mod:`.sphere`, which share one search engine.
"""

from __future__ import annotations

from ..counters import OpCounters, charge_rotation
from ..linalg import complex_from_interleaved, gram_schmidt_qr, require_decodable
from .bruteforce import ml_bruteforce
from .result import DecodeResult
# simplified_ml and sd_baseline are the search cores of the registry entries,
# looked up here at decode time, not exported
from .simplified import simplified_ml
from .sphere import sd_baseline
from .structure import StructureReport, verify_r_structure

__all__ = ["DecodeResult", "StructureReport", "get_decoder", "verify_r_structure"]


def _result(decided, counters, y, h_eq):
    # symbols is a fresh complex128 vector, so its float view is the
    # decided interleaved vector, exactly
    symbols = complex_from_interleaved(decided)
    resid = y - h_eq @ symbols.view(float)
    return DecodeResult(symbols=symbols, metric=float(resid @ resid), counters=counters)


def _decode_baseline(y_tilde, h_eq, constellation):
    y, h_eq = require_decodable(y_tilde, h_eq, constellation)
    counters = OpCounters()
    r, z = gram_schmidt_qr(h_eq, y)
    charge_rotation(counters)
    return _result(sd_baseline(z, r, constellation, counters), counters, y, h_eq)


def _make_simplified(mode):
    def decode(y_tilde, h_eq, constellation):
        y, h_eq = require_decodable(y_tilde, h_eq, constellation)
        counters = OpCounters()
        return _result(simplified_ml(y, h_eq, constellation, mode, counters), counters, y, h_eq)

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
