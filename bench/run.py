"""Benchmark of the mimo3d decoders: latency, throughput and exact ML.

Run from the root of a checkout::

    python3 bench/run.py --workload search-16qam-12db --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, untraced and traced

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
loop untraced and then once traced, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mimo3d; print(time.perf_counter() - t)"
)


def import_program():
    """Import mimo3d from this checkout's src/ and return the seconds taken.

    Exits with status 1, printing no result, if the checkout has no mimo3d
    source: an installed copy elsewhere must not stand in for the code
    under test.
    """
    if not (SRC / "mimo3d" / "__init__.py").is_file():
        sys.exit(f"error: no mimo3d source under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mimo3d

    elapsed = time.perf_counter() - t0
    if Path(mimo3d.__file__).resolve().parent != SRC / "mimo3d":
        sys.exit(f"error: imported mimo3d from {mimo3d.__file__}, not from {SRC}")
    return elapsed


def import_seconds(first):
    """Median import time: this process's import plus fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


# -- set-up ----------------------------------------------------------------
def setup_decode(workload, seed):
    import reference
    import workloads as wl

    qam, instances = wl.make_instances(workload, seed)
    wl.m3.build_generator("new")
    ref = reference.load(workload, seed)
    decoders = [(name, wl.m3.get_decoder(name)) for name in wl.DECODERS]
    wl.warm_up(instances, decoders, qam)
    return qam, instances, ref, decoders


def setup_sweep(workload, seed):
    import reference
    import workloads as wl

    warm = wl.DecodeWorkload("warm-up", wl.m3.sweep.MODULATIONS[workload.modulation], 10.0, 1)
    qam, instances = wl.make_instances(warm, seed)
    ref = reference.load(workload, seed)
    decoders = [(name, wl.m3.get_decoder(name)) for name in wl.DECODERS]
    wl.warm_up(instances, decoders, qam)
    return ref


def timed_setup(workload, seed):
    """Run the set-up SETUP_REPEATS times; return (median seconds, state)."""
    make = setup_sweep if workload.kind == "sweep" else setup_decode
    samples, state = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = make(workload, seed)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), state


# -- per-layer metrics from spans ----------------------------------------------
DECODE_LAYERS = (
    "linalg.gram_schmidt_qr", "linalg.back_substitute",
    "decoders.simplified.column_switch", "decoders.simplified.parallel_decisions",
    "decoders.simplified.compute_v", "decoders.simplified.tree_search",
    "decoders.simplified.simplified_ml", "decoders.sphere.sd_baseline",
)
TRIAL_LAYERS = ("channel.make_equivalent", "code.encode_direct", "sweep.run_sweep")


def decode_layer_metrics(tracer, decodes):
    self_s, calls, counts = tracer.self_seconds(), tracer.call_counts(), tracer.counts
    m = {f"{name}.self_ms": (1e3 * self_s.get(name, 0.0) / decodes, "ms") for name in DECODE_LAYERS}
    pd, cs = "decoders.simplified.parallel_decisions", "decoders.simplified.column_switch"
    m["linalg.gram_schmidt_qr.calls"] = (calls["linalg.gram_schmidt_qr"] / decodes, "count")
    m[f"{pd}.calls"] = (calls[pd] / decodes, "count")
    m[f"{pd}.improving_share"] = (counts[f"{pd}.improving"] / max(calls[pd], 1), "ratio")
    m[f"{cs}.nonidentity_share"] = (counts[f"{cs}.nonidentity"] / max(calls[cs], 1), "ratio")
    m["modem.se_order.calls"] = (counts["modem.se_order.calls"] / decodes, "count")
    return m


def trial_layer_metrics(tracer, trials, resamples):
    self_s = tracer.self_seconds()
    m = {f"{name}.self_ms": (1e3 * self_s.get(name, 0.0) / trials, "ms") for name in TRIAL_LAYERS}
    m["sweep.resample_share"] = (resamples / trials, "ratio")
    return m


def layer_split(tracer):
    """Share of each decoder's traced time spent in each layer's self time."""
    split = {}
    for dec, layers in tracer.self_seconds_by_decoder().items():
        total = sum(layers.values())
        split[dec] = {name: round(s / total, 4) for name, s in
                      sorted(layers.items(), key=lambda kv: -kv[1]) if total}
    return split


def trace_report(workload, seed, tracer, metrics, extra):
    """Write the per-layer numbers and the spans; return the layer shares."""
    stem = OUT_DIR / f"{workload.name}-seed{seed}"
    n_spans = tracer.write(f"{stem}-spans.npz")
    split = layer_split(tracer)
    report = dict(extra, spans=n_spans, missing_targets=tracer.missing, layer_share=split,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())})
    Path(f"{stem}-trace.json").write_text(json.dumps(report, indent=1) + "\n")
    return split


# -- workload runners ------------------------------------------------------------
def untraced_metrics(stats, setup_s):
    """End-to-end metrics; set-up time is scaled by the speed the probe saw
    over the timed loop that follows it, like the decode times."""
    metrics = stats.end_to_end()
    metrics["setup_s"] = (setup_s * stats.timings.speed, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def run_decode_workload(workload, seed, seconds, trace, state, setup_s):
    import tracing
    import workloads as wl

    qam, instances, ref, decoders = state
    stats = wl.run_decodes(instances, decoders, qam, seconds, reference=ref)
    if not trace:
        return untraced_metrics(stats, setup_s), stats.failures, \
            f"passes={stats.passes} setup_s_wall={setup_s:.4f}"

    failures = stats.failures
    metrics = stats.timings.per_layer()
    # a prefix of the instances keeps the traced pass short on seeds with
    # very hard channels; its layer shares match the whole set's
    n = min(len(instances), wl.TRACED_INSTANCES)
    with tracing.Tracer() as tracer:
        traced = wl.run_decodes(instances[:n], decoders, qam, 0, reference=ref and ref[:n],
                                span=tracer.decode)
    metrics.update(decode_layer_metrics(tracer, n * len(decoders)))
    untraced_s = sum(stats.timings.summed_ms()[:n])
    traced_s = sum(traced.timings.summed_ms())
    metrics["trace_overhead_share"] = (traced_s / untraced_s - 1.0, "ratio")
    # channel, code and sweep rows: a short traced sweep at this operating point
    side = workload.side_sweep()
    with tracing.Tracer() as side_tracer:
        side_stats = wl.run_sweeps(side, seed, 0, None, OUT_DIR, side_tracer.patches,
                                   span=side_tracer.span, wrap=side_tracer.decode_wrapper, max_calls=1)
    metrics.update(trial_layer_metrics(side_tracer, side.trials, side_stats.resamples))
    failures.merge(traced.failures)
    failures.merge(side_stats.failures)
    split = trace_report(workload, seed, tracer, metrics, {
        "traced_instances": n, "traced_decode_s": traced_s / 1e3, "untraced_decode_s": untraced_s / 1e3,
        "span_self_s": sum(tracer.self_s), "root_s": tracer.root_seconds(),
    })
    return metrics, failures, split


def run_sweep_workload(workload, seed, seconds, trace, ref, setup_s):
    import tracing
    import workloads as wl

    patches = tracing.Patches()
    try:
        stats = wl.run_sweeps(workload, seed, seconds, ref, OUT_DIR, patches)
    finally:
        patches.restore()
    if not trace:
        return untraced_metrics(stats, setup_s), stats.failures, \
            f"calls={len(stats.call_s)} setup_s_wall={setup_s:.4f}"

    failures = stats.failures
    metrics = stats.timings.per_layer()
    with tracing.Tracer() as tracer:
        traced = wl.run_sweeps(workload, seed, 0, ref, OUT_DIR, tracer.patches,
                               span=tracer.span, wrap=tracer.decode_wrapper, max_calls=1)
    decodes = traced.trials * traced.snr_points * len(wl.DECODERS)
    metrics.update(decode_layer_metrics(tracer, decodes))
    metrics.update(trial_layer_metrics(tracer, traced.trials, traced.resamples))
    metrics["trace_overhead_share"] = (traced.call_s[0] / statistics.median(stats.call_s) - 1.0, "ratio")
    failures.merge(traced.failures)
    split = trace_report(workload, seed, tracer, metrics, {
        "traced_wall_s": traced.call_s[0], "untraced_call_s": statistics.median(stats.call_s),
        "span_self_s": sum(tracer.self_s), "root_s": tracer.root_seconds(),
    })
    return metrics, failures, split


def run_one(name, seed, seconds, trace):
    import_s = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    import workloads as wl

    if name not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; expected one of {sorted(wl.WORKLOADS)} or 'all'")
    workload = wl.WORKLOADS[name]
    setup_s, state = timed_setup(workload, seed)
    setup_s += import_seconds(import_s)
    runner = run_sweep_workload if workload.kind == "sweep" else run_decode_workload
    metrics, failures, info = runner(workload, seed, seconds, trace, state, setup_s)
    failures.report()
    correct = failures.failed == 0
    # failed_share is printed, not returned as a metric: it is 0 on a correct
    # run, and the JSON carries it as failed/attempted
    print(f"# {name} seed={seed} trace={trace}" + ("" if trace else f" {info}"))
    print(f"failed_share = {failures.share:.6g} ratio ({failures.failed}/{failures.attempted})")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"{key} = {value:.6g} {unit}")
    if trace:
        for dec, shares in info.items():
            top = ", ".join(f"{k} {100 * v:.0f}%" for k, v in list(shares.items())[:4])
            print(f"# {dec}: {top}")
    result = {
        "correct": correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return correct


def run_all(seed, seconds):
    """Every workload untraced, then traced, each in its own process."""
    import workloads as wl

    ok = True
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                correct = proc.returncode == 0 and json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                correct = False
            ok = ok and correct
            print(f"# {name} trace={trace}: {'ok' if correct else 'FAILED'}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        import_program()
        return 0 if run_all(args.seed, args.seconds) else 1
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
