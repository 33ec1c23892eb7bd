"""Every stage the benchmark tracer wraps is still reached through its wrapper.

``bench/tracing.py`` replaces module globals by name and times the calls
that go through them.  ``bench/selftest.py`` checks only that each global
still exists.  A change that stops calling a stage through its module
global (a local alias bound at import, an inlined body) leaves the wrapper
in place but never called, and that stage's per-layer metric silently
reads zero.  This test runs every search decoder and one small sweep under
the tracer and requires every span and count target to fire, except the
spans of :data:`UNCALLED_SPANS`.
"""

import importlib.util
from pathlib import Path

import mimo3d.sweep
from helpers import random_instance
from mimo3d import build_qam, derive_rng, get_decoder
from mimo3d.counters import OpCounters, charge_rotation
from mimo3d.decoders import REGISTRY

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

SEARCH_DECODERS = [name for name in REGISTRY if name != "bruteforce"]
# span targets that no code path calls: back_substitute stays a target only
# until the benchmark drops its per-layer metric
UNCALLED_SPANS = {"linalg.back_substitute"}


def test_every_trace_target_fires():
    qam = build_qam(16)
    config = mimo3d.sweep.SweepConfig(modulation="qpsk", snr_start=0.0, snr_stop=10.0,
                                      snr_step=5.0, trials=4,
                                      decoders=("sd-baseline", "simplified-cs2"), seed=1)
    with tracing.Tracer() as tracer:
        assert tracer.missing == []
        for t in range(4):
            _, eq, y = random_instance(derive_rng(241, t), qam, 12.0)
            for name in SEARCH_DECODERS:
                get_decoder(name)(y, eq.h_eq, qam)
        # through the module attribute, which the tracer replaced
        mimo3d.sweep.run_sweep(config)
    calls = tracer.call_counts()
    silent = {name for _, _, name in tracing.SPAN_TARGETS if not calls[name]}
    assert silent == UNCALLED_SPANS, calls
    for _, _, name in tracing.COUNT_TARGETS:
        assert tracer.counts[name + ".calls"] > 0, name


def test_sd_baseline_counts_one_se_order_call_per_expanded_node():
    # the sphere and simplified modules count se_order under one name, so a
    # baseline search that stopped calling through its module global would
    # hide behind the two-stage decoders' calls; decoded alone, each
    # expanded node is one call and one division beyond the QR's
    rotation = OpCounters()
    charge_rotation(rotation)
    qam = build_qam(16)
    decode = get_decoder("sd-baseline")
    with tracing.Tracer() as tracer:
        for t in range(3):
            _, eq, y = random_instance(derive_rng(242, t), qam, 12.0)
            before = tracer.counts["modem.se_order.calls"]
            divs = decode(y, eq.h_eq, qam).counters.divs
            assert tracer.counts["modem.se_order.calls"] - before == divs - rotation.divs, t
