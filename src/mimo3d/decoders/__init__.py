"""Decoder registry: the one decoder API, with one instrumentation contract.

Registry entries are callables ``fn(y_tilde, h_eq, constellation) ->
DecodeResult`` that perform their own counted preprocessing (QR, rotation,
linear estimation), so operation counts are comparable across decoders.
One builder, :func:`_entry`, makes every entry around a search core
``core(y, h_eq, constellation, counters)`` that returns the decided
interleaved 16-vector in canonical order: the entry checks and converts
its input once, creates the counters, runs the core and builds the result,
with the metric ``||y - H_eq s||^2`` of the returned symbols computed in
that one place (uncharged; see :mod:`mimo3d.counters`).  The input check
(:func:`~mimo3d.linalg.require_decodable`) refuses, naming the argument, a
``constellation`` that ``build_qam`` did not return (:class:`TypeError`)
and a ragged array, a wrong shape or dtype, a NaN, inf or out-of-range
scale in ``y_tilde`` or ``h_eq`` (:class:`ValueError`).

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
:mod:`.sphere`, which holds both searches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..counters import OpCounters, charge_rotation
from ..linalg import complex_from_interleaved, gram_schmidt_qr, require_decodable
from .bruteforce import ml_bruteforce
# simplified_ml and sd_baseline are the search cores of the registry entries,
# looked up here at decode time, not exported
from .simplified import simplified_ml
from .sphere import sd_baseline
from .structure import StructureReport, verify_r_structure

__all__ = ["DecodeResult", "StructureReport", "get_decoder", "verify_r_structure"]


@dataclass
class DecodeResult:
    """Outcome of one codeword decode.

    ``symbols`` are the eight decoded complex symbols in canonical order
    (de-permuted if a column switch was applied) and are exact constellation
    entries, so they compare bit-exact against transmitted symbols.
    ``metric`` is the squared residual of the returned symbols in the
    received-signal domain, ``||y - H_eq s||^2``.
    """

    symbols: np.ndarray
    metric: float
    counters: OpCounters


def _entry(core):
    """The registry entry that decodes with ``core``."""

    def decode(y_tilde, h_eq, constellation):
        y, h_eq = require_decodable(y_tilde, h_eq, constellation)
        counters = OpCounters()
        # symbols is a fresh complex128 vector, so its float view is the
        # decided interleaved vector, exactly
        symbols = complex_from_interleaved(core(y, h_eq, constellation, counters))
        resid = y - h_eq @ symbols.view(float)
        return DecodeResult(symbols=symbols, metric=float(resid @ resid), counters=counters)

    return decode


def _baseline(y, h_eq, constellation, counters):
    r, z = gram_schmidt_qr(h_eq, y)
    charge_rotation(counters)
    return sd_baseline(z, r, constellation, counters)


REGISTRY = {
    "bruteforce": _entry(ml_bruteforce),
    "sd-baseline": _entry(_baseline),
    "simplified": _entry(lambda y, h, c, counters: simplified_ml(y, h, c, "none", counters)),
    "simplified-cs4": _entry(lambda y, h, c, counters: simplified_ml(y, h, c, "4by4", counters)),
    "simplified-cs2": _entry(lambda y, h, c, counters: simplified_ml(y, h, c, "2by2", counters)),
}


def get_decoder(name):
    """Resolve a registry name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown decoder {name!r}; available: {sorted(REGISTRY)}") from None
