"""The parts of the leaf stage that the benchmark tracer's post hook reads.

``bench/tracing.py`` counts an *improving* leaf, one whose completed
distance beats the radius it was given, from ``parallel_decisions``'
parameters 2 and 3 (``radius`` and ``d_outer``, positional or by name) and
from ``result[2]``, the leaf's ``d_p``.  A renamed or reordered parameter,
or a leaf stage no longer called through the module global, would leave
that count wrong without failing anything in the tracer.
"""

import importlib.util
import inspect
from pathlib import Path

from helpers import random_instance
from mimo3d import build_qam, derive_rng, get_decoder
from mimo3d.decoders import REGISTRY
from mimo3d.decoders.simplified import parallel_decisions

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

IMPROVING = "decoders.simplified.parallel_decisions.improving"


def test_parallel_decisions_keeps_the_parameters_the_tracer_reads():
    names = list(inspect.signature(parallel_decisions).parameters)
    assert names[2:4] == ["radius", "d_outer"]


def test_every_two_stage_decode_counts_an_improving_leaf():
    # the first leaf, at infinite radius, always improves, and no decode can
    # improve at more leaves than the tree hands to the leaf stage
    qam = build_qam(16)
    names = [name for name in REGISTRY if name.startswith("simplified")]
    with tracing.Tracer() as tracer:
        for t in range(4):
            _, eq, y = random_instance(derive_rng(245, t), qam, 12.0)
            for name in names:
                before = tracer.counts[IMPROVING]
                leaves = get_decoder(name)(y, eq.h_eq, qam).counters.leaves
                assert 1 <= tracer.counts[IMPROVING] - before <= leaves, (name, t)
    assert tracer.counts[IMPROVING] <= tracer.call_counts()["decoders.simplified.parallel_decisions"]
