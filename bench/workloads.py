"""Workload definitions, input generation, timed loops and output checks.

Everything here calls mimo3d only through its public API: the inputs are
drawn with ``derive_rng``, ``sample_channel``, ``make_equivalent``,
``encode_direct`` and ``transmit`` exactly as in the README, and every decode
is one registry call ``fn(y, h_eq, constellation)``.  Load is a closed loop
with one client: the next decode starts when the previous one returns.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import mimo3d as m3
from mimo3d import decoders as m3_decoders

DECODERS = ("sd-baseline", "simplified", "simplified-cs2")
METRIC_RTOL = 1e-9
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
SIDE_SWEEP_TRIALS = 20
TRACED_INSTANCES = 600  # the traced pass covers at most this many instances
MAX_REPORTED_ERRORS = 5


@dataclass(frozen=True)
class DecodeWorkload:
    """A fixed, seeded set of instances, each decoded by every decoder."""

    name: str
    modulation: int
    snr_db: float
    instances: int
    kind: str = "decode"

    def side_sweep(self):
        """A short sweep at this operating point, traced for the channel,
        code and sweep rows (instance generation is set-up here)."""
        modulation = {m: name for name, m in m3.sweep.MODULATIONS.items()}[self.modulation]
        return SweepWorkload(f"{self.name}-side", modulation, self.snr_db, self.snr_db, 1.0,
                             trials=SIDE_SWEEP_TRIALS)


@dataclass(frozen=True)
class SweepWorkload:
    """One ``run_sweep`` configuration, called repeatedly."""

    name: str
    modulation: str
    snr_start: float
    snr_stop: float
    snr_step: float
    trials: int
    kind: str = "sweep"

    def config(self, seed):
        return m3.SweepConfig(
            modulation=self.modulation, snr_start=self.snr_start, snr_stop=self.snr_stop,
            snr_step=self.snr_step, trials=self.trials, decoders=DECODERS, seed=seed, workers=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        DecodeWorkload("search-16qam-12db", modulation=16, snr_db=12.0, instances=1200),
        DecodeWorkload("pre-16qam-28db", modulation=16, snr_db=28.0, instances=3000),
        SweepWorkload("sweep-qpsk-0to20db", modulation="qpsk", snr_start=0.0,
                      snr_stop=20.0, snr_step=5.0, trials=1000),
    )
}


# -- failures ----------------------------------------------------------------
@dataclass
class Failures:
    """Attempted/failed operation counts plus the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, reason, count=1):
        self.failed += count
        if len(self.reasons) < MAX_REPORTED_ERRORS:
            self.reasons.append(reason)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons[:MAX_REPORTED_ERRORS - len(self.reasons)]

    @property
    def share(self):
        return self.failed / self.attempted if self.attempted else 1.0

    def report(self, out=sys.stderr):
        for reason in self.reasons:
            print(f"failure: {reason}", file=out)


# -- inputs ------------------------------------------------------------------
@dataclass(frozen=True)
class Instance:
    y: np.ndarray
    h_eq: np.ndarray
    y_clean: np.ndarray  # noiseless receive vector, for warm-up decodes


def make_instances(workload, seed):
    """Draw the workload's instances for ``seed`` (same seed, same inputs)."""
    qam = m3.build_qam(workload.modulation)
    sigma2 = m3.snr_to_sigma2(workload.snr_db, qam)
    out = []
    for i in range(workload.instances):
        for attempt in range(64):
            rng = m3.derive_rng(seed, i, attempt)
            s = qam.points[rng.integers(0, qam.order, 8)]
            h = m3.sample_channel(rng)
            try:
                eq = m3.make_equivalent(h, "new")
            except m3.RankDeficiencyError:
                continue
            x = m3.encode_direct(s, "new")
            clean = m3.transmit(x, h, 0.0, rng)[1]
            y = m3.transmit(x, h, sigma2, rng)[1]
            out.append(Instance(y=y, h_eq=eq.h_eq, y_clean=clean))
            break
        else:
            raise RuntimeError(f"instance {i}: no full-rank channel in 64 draws")
    return qam, out


def interleave(symbols):
    sym = np.asarray(symbols, dtype=complex).ravel()
    out = np.empty(2 * sym.size)
    out[0::2] = sym.real
    out[1::2] = sym.imag
    return out


def recomputed_metric(result, inst, qam):
    """``||y - H_eq s||^2`` of the returned symbols, or None if they are not
    eight constellation points."""
    sym = np.asarray(result.symbols)
    if sym.shape != (8,) or not np.isin(sym, qam.points).all():
        return None
    resid = inst.y - inst.h_eq @ interleave(sym)
    return float(resid @ resid)


# -- machine speed -------------------------------------------------------------
# On a shared 2-vCPU host the CPU speed drifts by 10-25 % over tens of
# seconds (other tenants, frequency changes), which moves a whole run's
# timings together.  A fixed kernel that mixes what the decoders do -- a
# depth-first search in scalar Python over a frozen 8-dim problem, plus
# small NumPy products -- is timed after every instance (every trial on the
# sweep).  Each end-to-end time is scaled by PROBE_REF_MS over the median
# kernel time of the nearby samples, i.e. reported at the speed where the
# kernel takes PROBE_REF_MS.  The kernel is benchmark code and never calls
# mimo3d, so a faster program cannot move it.
PROBE_REF_MS = 0.165  # median kernel time on the 2-vCPU x86-64 host it was tuned on
PROBE_WINDOW = 25     # samples on each side of the one nearest a timing
_PROBE_R = np.triu(np.random.default_rng(0).standard_normal((8, 8))) + 3.0 * np.eye(8)
_PROBE_ROWS = [tuple(float(x) for x in row) for row in _PROBE_R]
_PROBE_Z = [float(x) for x in np.random.default_rng(1).standard_normal(8) * 4.0]
_PROBE_LEVELS = (-3.0, -1.0, 1.0, 3.0)


def probe_kernel():
    best = [math.inf]
    s = [0.0] * 8

    def descend(level, dist):
        row = _PROBE_ROWS[level]
        acc = _PROBE_Z[level]
        for k in range(level + 1, 8):
            acc -= row[k] * s[k]
        center = acc / row[level]
        for cand in sorted(_PROBE_LEVELS, key=lambda lv: abs(center - lv)):
            s[level] = cand
            r = acc - row[level] * cand
            d = dist + r * r
            if d >= 1.5 * best[0]:
                break
            if level == 0:
                best[0] = min(best[0], d)
            else:
                descend(level - 1, d)

    descend(7, 0.0)
    v = np.asarray(_PROBE_Z)
    for _ in range(20):
        v = _PROBE_R @ np.concatenate([v[:4], v[4:]]) / 10.0
    return best[0]


class SpeedProbe:
    """Timed kernel samples and the speed factor they give each timing."""

    def __init__(self):
        self.cost = []
        self.spent = 0.0

    def sample(self):
        t0 = time.perf_counter()
        probe_kernel()
        dt = time.perf_counter() - t0
        self.cost.append(dt)
        self.spent += dt

    def overall_factor(self):
        """PROBE_REF_MS over the median kernel time of all samples: the
        machine speed over the whole timed loop."""
        return PROBE_REF_MS / 1e3 / statistics.median(self.cost) if self.cost else 1.0

    def factors(self):
        """Per sample: PROBE_REF_MS over the windowed median kernel time
        (1 everywhere when the probe never ran, as in traced passes)."""
        ref = PROBE_REF_MS / 1e3
        return [ref / statistics.median(self.cost[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])
                for j in range(len(self.cost))] or [1.0]


# -- statistics ----------------------------------------------------------------
def tail(values):
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples beyond
    it: returns ``(value, percentile, sample_count)``."""
    n = len(values)
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            best = p
    return float(np.percentile(values, best)), best, n


def counter_means(counters):
    """Mean exact operation counts over a list of OpCounters."""
    n = len(counters)
    return {
        "tree_nodes": sum(c.tree_nodes for c in counters) / n,
        "branch_nodes_max": sum(max(c.branch_nodes) for c in counters) / n,
        "leaves": sum(c.leaves for c in counters) / n,
        "mults": sum(c.mults for c in counters) / n,
        "divs": sum(c.divs for c in counters) / n,
        "visited_nodes_mean": sum(c.visited_nodes for c in counters) / n,
    }


class Timings:
    """Decode timings per decoder and slot, plus the first pass's counters.

    A slot is one instance of a decode workload, or one decode position
    within a ``run_sweep`` call; each slot holds one time per pass or call,
    and the probe sample taken nearest to it.
    """

    def __init__(self, names):
        self.times = {name: [] for name in names}     # wall seconds
        self.probe_at = {name: [] for name in names}
        self.counters = {name: [] for name in names}
        self.norm = None
        self.speed = 1.0

    def add(self, name, slot, seconds, probe_index, counters=None):
        times = self.times[name]
        while len(times) <= slot:  # slots of earlier failed decodes stay empty
            times.append([])
            self.probe_at[name].append([])
        times[slot].append(seconds)
        self.probe_at[name][slot].append(probe_index)
        if counters is not None:
            self.counters[name].append(counters)

    def finish(self, probe):
        """Scale every time by the probe factor of its slot; ``speed`` is the
        factor for the whole loop."""
        self.speed = probe.overall_factor()
        factors = probe.factors()
        last = len(factors) - 1
        self.norm = {name: [[t * factors[min(j, last)] for t, j in zip(ts, js)]
                            for ts, js in zip(self.times[name], self.probe_at[name])]
                     for name in self.times}
        return self

    def slot_ms(self, name, normalized=False):
        """Per-slot median time in ms (median over passes or calls)."""
        table = self.norm if normalized else self.times
        return [1e3 * statistics.median(ts) for ts in table[name] if ts] or [math.nan]

    def summed_ms(self, normalized=False):
        """Per slot, the decoders' median times summed, over the slots where
        every decoder has a time."""
        table = self.norm if normalized else self.times
        slots = zip(*table.values())
        return [1e3 * sum(statistics.median(ts) for ts in row) for row in slots if all(row)]

    def end_to_end(self):
        metrics = {}
        for name in self.times:
            metrics[f"{name}.decode_ms_p50"] = (statistics.median(self.slot_ms(name, True)), "ms")
            visited = [c.visited_nodes for c in self.counters[name]] or [math.nan]
            metrics[f"{name}.visited_nodes"] = (float(statistics.median(visited)), "nodes/decode")
        return metrics

    def per_layer(self):
        metrics = {}
        for name in self.times:
            ms = self.slot_ms(name)
            value, pct, n = tail(ms)
            metrics[f"{name}.decode_ms_tail"] = (value, "ms")
            metrics[f"{name}.decode_ms_tail.percentile"] = (pct, "%")
            metrics[f"{name}.decode_ms_tail.samples"] = (float(n), "count")
            metrics[f"{name}.decode_ms_p50_wall"] = (statistics.median(ms), "ms")
            all_s = [t for ts in self.times[name] for t in ts] or [math.nan]
            metrics[f"{name}.decode_ms_mean"] = (1e3 * sum(all_s) / len(all_s), "ms")
            for key, value in counter_means(self.counters[name] or [m3.OpCounters()]).items():
                metrics[f"{name}.{key}"] = (value, "count")
        return metrics


@dataclass
class DecodeStats:
    timings: Timings
    failures: Failures
    passes: int
    wall_s: float  # probe time excluded

    def end_to_end(self):
        metrics = self.timings.end_to_end()
        # throughput at the median instance: decodes per instance over the
        # median, across instances, of their summed decode time (the plain
        # ratio is dominated by a few ill-conditioned channels; see README)
        per_instance = self.timings.summed_ms(normalized=True) or [math.nan]
        metrics["decodes_per_s"] = (1e3 * len(self.timings.times) / statistics.median(per_instance), "1/s")
        return metrics


def run_decodes(instances, decoders, qam, seconds, reference=None, span=None):
    """Decode every instance with every decoder, pass after pass, until
    ``seconds`` have elapsed (at least one whole pass).

    ``decoders`` is a list of ``(name, fn)``.  ``reference`` holds the ML
    metric per instance; without it the best metric any decoder returned
    for the instance stands in (cross-decoder agreement).  ``span`` wraps
    each decode call when tracing, and then the speed probe does not run.
    Returns :class:`DecodeStats`.
    """
    timings = Timings([name for name, _ in decoders])
    failures = Failures()
    probe = SpeedProbe()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    passes = 0
    while True:
        pass_start = clock()
        for i, inst in enumerate(instances):
            metrics = {}
            for name, fn in decoders:
                failures.attempted += 1
                try:
                    t0 = clock()
                    result = fn(inst.y, inst.h_eq, qam) if span is None else span(name, fn, inst.y, inst.h_eq, qam)
                    dt = clock() - t0
                except Exception as err:  # a decoder failure is counted, never fatal
                    failures.fail(f"{name} instance {i}: {type(err).__name__}: {err}")
                    continue
                timings.add(name, i, dt, len(probe.cost), result.counters if passes == 0 else None)
                metric = recomputed_metric(result, inst, qam)
                if metric is None:
                    failures.fail(f"{name} instance {i}: symbols are not constellation points")
                    continue
                metrics[name] = metric
            if metrics:
                ml = reference[i] if reference is not None else min(metrics.values())
                for name, metric in metrics.items():
                    if metric - ml > METRIC_RTOL * ml:
                        failures.fail(f"{name} instance {i}: metric {metric!r} above ML {ml!r}")
            if span is None:
                probe.sample()
        passes += 1
        now = clock()
        if now + (now - pass_start) > deadline:
            break
    return DecodeStats(timings=timings.finish(probe), failures=failures, passes=passes,
                       wall_s=clock() - start - probe.spent)


def warm_up(instances, decoders, qam):
    """One decode per decoder on a noiseless instance (cheap on any channel)."""
    inst = instances[0]
    for _, fn in decoders:
        fn(inst.y_clean, inst.h_eq, qam)


# -- sweep ---------------------------------------------------------------------
ML_COLUMNS = 6  # decoder,snr_db,trials,symbol_errors,ser,cer


def ml_lines(csv_text):
    """The ML columns of a sweep CSV, one string per row (header dropped)."""
    return [",".join(line.split(",")[:ML_COLUMNS]) for line in csv_text.splitlines()[1:]]


def check_sweep_rows(lines, reference, failures):
    """Count rows whose ML columns mismatch the reference or, without one,
    disagree with the other decoders at the same SNR on symbol_errors."""
    failures.attempted += len(lines)
    if reference is not None:
        for got, want in zip(lines, reference):
            if got != want:
                failures.fail(f"sweep row {got!r} != reference {want!r}")
        if len(lines) != len(reference):
            failures.fail(f"sweep gave {len(lines)} rows, reference has {len(reference)}",
                          count=abs(len(lines) - len(reference)))
        return
    by_snr = {}
    for line in lines:
        dec, snr, _, errors = line.split(",")[:4]
        by_snr.setdefault(snr, []).append((dec, errors))
    for snr, rows in by_snr.items():
        values = [errors for _, errors in rows]
        mode = max(set(values), key=values.count)
        if values.count(mode) * 2 <= len(values):
            mode = None  # no majority: every row at this SNR is suspect
        for dec, errors in rows:
            if errors != mode:
                failures.fail(f"sweep {dec} at {snr} dB: symbol_errors {errors} disagrees")


@dataclass
class SweepStats:
    timings: Timings
    failures: Failures
    call_s: list      # wall seconds per run_sweep call, probe time excluded
    call_norm: list   # the same, scaled to the probe's reference speed
    resamples: int
    trials: int
    snr_points: int

    def end_to_end(self):
        metrics = self.timings.end_to_end()
        decodes = self.trials * self.snr_points * len(self.timings.times)
        metrics["decodes_per_s"] = (statistics.median(decodes / s for s in self.call_norm), "1/s")
        return metrics


def timed_registry(patches, timings, names, decodes_per_trial, wrap=None, probe=None):
    """Time every registry decode made inside ``run_sweep`` (the sweep looks
    decoders up by name when it starts) and, given a probe, sample machine
    speed after every trial.  Returns ``next_call``, to be called after each
    ``run_sweep`` call: slots restart and counters are kept from the first
    call only."""
    state = {"slot": dict.fromkeys(names, 0), "done": 0, "first": True}
    clock = time.perf_counter

    def timed(name, fn):
        call = fn if wrap is None else wrap(fn, name)

        def decode(y, h_eq, constellation):
            t0 = clock()
            result = call(y, h_eq, constellation)
            dt = clock() - t0
            slot = state["slot"][name]
            state["slot"][name] = slot + 1
            timings.add(name, slot, dt, len(probe.cost) if probe else 0,
                        result.counters if state["first"] else None)
            state["done"] += 1
            if probe is not None and state["done"] % decodes_per_trial == 0:
                probe.sample()
            return result

        return decode

    for name in names:
        patches.set_item(m3_decoders.REGISTRY, name, timed(name, m3_decoders.REGISTRY[name]))

    def next_call():
        state["first"] = False
        state["slot"] = dict.fromkeys(names, 0)

    return next_call


def run_sweeps(workload, seed, seconds, reference, out_dir, patches, span=None, wrap=None,
               max_calls=None):
    """Call ``run_sweep`` until ``seconds`` have elapsed (at least once).

    Every call is checked: its CSV (written with ``write_csv``) must give
    the reference ML columns, or cross-decoder agreement without a
    reference, and must match the first call byte for byte.  ``span`` and
    ``wrap`` add tracing around the call and around each decode; the speed
    probe runs only when untraced.
    """
    cfg = workload.config(seed)
    n_snr = len(cfg.snr_points())
    n_rows = len(DECODERS) * n_snr
    probe = SpeedProbe() if span is None else None
    timings = Timings(DECODERS)
    next_call = timed_registry(patches, timings, DECODERS, n_rows, wrap, probe)
    failures = Failures()
    csv_path = os.path.join(out_dir, f"{workload.name}-seed{seed}.csv")
    call_s, call_probes, resamples, first_csv = [], [], 0, None
    deadline = time.perf_counter() + seconds
    while True:
        spent, first_probe = (probe.spent, len(probe.cost)) if probe else (0.0, 0)
        t0 = time.perf_counter()
        try:
            if span is None:
                rows, resamples = m3.sweep.run_sweep(cfg)
            else:
                rows, resamples = span("sweep.run_sweep", m3.sweep.run_sweep, cfg)
        except Exception as err:  # the whole call failed: every row counts
            failures.attempted += n_rows
            failures.fail(f"run_sweep: {type(err).__name__}: {err}\n{traceback.format_exc()}", n_rows)
        else:
            dt = time.perf_counter() - t0
            dt -= (probe.spent - spent) if probe else 0.0
            call_s.append(dt)
            call_probes.append(range(first_probe, len(probe.cost)) if probe else range(0))
            m3.write_csv(rows, csv_path)
            with open(csv_path) as fh:
                text = fh.read()
            check_sweep_rows(ml_lines(text), reference, failures)
            if first_csv is None:
                first_csv = text
            elif text != first_csv:
                failures.fail("run_sweep output changed between identical calls")
        next_call()
        now = time.perf_counter()
        if (call_s and now + call_s[-1] > deadline) or (max_calls and len(call_s) >= max_calls) \
                or (not call_s and now > deadline):
            break
    probe = probe or SpeedProbe()
    factors = probe.factors()
    # a call's speed factor: the mean over the probe samples taken during it
    call_norm = [dt * (statistics.mean(factors[j] for j in js) if js else 1.0)
                 for dt, js in zip(call_s, call_probes)]
    return SweepStats(timings=timings.finish(probe), failures=failures,
                      call_s=call_s or [math.nan], call_norm=call_norm or [math.nan],
                      resamples=resamples, trials=cfg.trials, snr_points=n_snr)
