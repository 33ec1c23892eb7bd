"""Self-tests of the benchmark's own checks and tracing.

    python3 bench/selftest.py

They inject faulty decoders to show that failures are counted, and check
that the traced run restores every wrapped global, counts one leaf call per
``counters.leaves`` and accounts for all traced wall time.
"""

from __future__ import annotations

import importlib
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_program()
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL_DECODE = wl.DecodeWorkload("selftest-decode", modulation=16, snr_db=12.0, instances=30)
SMALL_SWEEP = wl.SweepWorkload("selftest-sweep", modulation="qpsk", snr_start=0.0,
                               snr_stop=10.0, snr_step=5.0, trials=6)
SEED = 3


def wrong_answer(fn):
    """Decoder that moves the first decoded symbol to another point."""
    def decode(y, h_eq, constellation):
        result = fn(y, h_eq, constellation)
        points = constellation.points
        result.symbols = result.symbols.copy()
        result.symbols[0] = points[(list(points).index(result.symbols[0]) + 1) % len(points)]
        return result
    return decode


def raising(fn):
    """Decoder that raises on every other call."""
    calls = [0]

    def decode(y, h_eq, constellation):
        calls[0] += 1
        if calls[0] % 2:
            raise FloatingPointError("injected")
        return fn(y, h_eq, constellation)
    return decode


def snapshot():
    targets = tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
    globals_ = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in targets}
    return globals_, dict(wl.m3_decoders.REGISTRY)


class FailureAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.qam, cls.instances = wl.make_instances(SMALL_DECODE, SEED)

    def decode_share(self, fault=None):
        decoders = [(name, wl.m3.get_decoder(name)) for name in wl.DECODERS]
        if fault is not None:
            decoders[-1] = (decoders[-1][0], fault(decoders[-1][1]))
        stats = wl.run_decodes(self.instances, decoders, self.qam, 0)
        stats.end_to_end()  # partial timings must still summarize
        return stats.failures.share

    def sweep_share(self, fault=None):
        patches = tracing.Patches()
        try:
            if fault is not None:
                name = wl.DECODERS[-1]
                patches.set_item(wl.m3_decoders.REGISTRY, name, fault(wl.m3_decoders.REGISTRY[name]))
            stats = wl.run_sweeps(SMALL_SWEEP, SEED, 0, None, str(run.OUT_DIR), patches, max_calls=1)
        finally:
            patches.restore()
        return stats.failures.share

    def test_decode_faults_raise_failed_share(self):
        clean = self.decode_share()
        self.assertEqual(clean, 0.0)
        self.assertGreater(self.decode_share(wrong_answer), clean)
        self.assertGreater(self.decode_share(raising), clean)

    def test_sweep_faults_raise_failed_share(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        clean = self.sweep_share()
        self.assertEqual(clean, 0.0)
        self.assertGreater(self.sweep_share(wrong_answer), clean)
        self.assertGreater(self.sweep_share(raising), clean)


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.qam, cls.instances = wl.make_instances(SMALL_DECODE, SEED)
        cls.decoders = [(name, wl.m3.get_decoder(name)) for name in wl.DECODERS]
        cls.before = snapshot()
        with tracing.Tracer() as tracer:
            cls.installed = snapshot()
            cls.stats = wl.run_decodes(cls.instances, cls.decoders, cls.qam, 0, span=tracer.decode)
        cls.tracer = tracer
        cls.after = snapshot()

    def test_every_wrapped_global_is_restored(self):
        self.assertEqual(self.tracer.missing, [])
        for key, value in self.before[0].items():
            self.assertIsNot(self.installed[0][key], value, key)
            self.assertIs(self.after[0][key], value, key)
        self.assertEqual(self.after[1], self.before[1])

    def test_globals_restored_after_an_exception(self):
        with self.assertRaises(RuntimeError):
            with tracing.Tracer():
                raise RuntimeError("inside traced block")
        self.assertEqual(snapshot()[0], self.before[0])

    def test_sweep_tracing_restores_registry(self):
        before = snapshot()
        with tracing.Tracer() as tracer:
            wl.run_sweeps(SMALL_SWEEP, SEED, 0, None, str(run.OUT_DIR), tracer.patches,
                          span=tracer.span, wrap=tracer.decode_wrapper, max_calls=1)
        self.assertEqual(snapshot(), before)
        self.assertGreater(tracer.call_counts()["channel.make_equivalent"], 0)

    def test_leaf_calls_match_counters(self):
        leaves = sum(c.leaves for name in wl.DECODERS if name.startswith("simplified")
                     for c in self.stats.timings.counters[name])
        calls = self.tracer.call_counts()["decoders.simplified.parallel_decisions"]
        self.assertGreater(leaves, 0)
        self.assertEqual(calls, leaves)

    def test_self_times_and_glue_add_up_to_wall(self):
        self_s = list(self.tracer.self_s)
        self.assertTrue(all(s >= 0.0 for s in self_s))
        times = self.stats.timings.times
        decode_s = sum(t for name in times for ts in times[name] for t in ts)
        glue = self.stats.wall_s - decode_s
        self.assertAlmostEqual(sum(self_s) + glue, self.stats.wall_s, delta=0.01 * self.stats.wall_s)
        self.assertAlmostEqual(sum(self_s), self.tracer.root_seconds(), delta=1e-9 * len(self_s))


if __name__ == "__main__":
    unittest.main()
