"""Reference ML outputs for the default seed, and their generator.

For the decode workloads the reference is the ML metric of every instance;
for the sweep it is the ML columns (decoder,snr_db,trials,symbol_errors,
ser,cer) of the CSV.  Other seeds have no reference and are checked by
cross-decoder agreement alone.

Regenerate (refuses to write unless every decoder agrees: per instance within
1e-9 relative on the metric, per SNR point on symbol_errors)::

    python3 bench/reference.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

DEFAULT_SEED = 1
REF_DIR = Path(__file__).resolve().parent / "reference"


def _path(workload):
    return REF_DIR / f"{workload.name}.json"


def load(workload, seed):
    """The reference for ``seed``, or None when the seed has none.

    Raises ValueError when the committed file does not describe this
    workload (its definition changed without regenerating the reference).
    """
    if seed != DEFAULT_SEED:
        return None
    with open(_path(workload)) as fh:
        data = json.load(fh)
    if data["workload"] != asdict(workload) or data["seed"] != seed:
        raise ValueError(f"{_path(workload)} does not match workload {workload.name!r}; regenerate it")
    return data["reference"]


def _decode_reference(workload, seed):
    import workloads as wl

    qam, instances = wl.make_instances(workload, seed)
    decoders = [(name, wl.m3.get_decoder(name)) for name in wl.DECODERS]
    out = []
    for i, inst in enumerate(instances):
        metrics = {}
        for name, fn in decoders:
            metric = wl.recomputed_metric(fn(inst.y, inst.h_eq, qam), inst, qam)
            if metric is None:
                raise SystemExit(f"instance {i}: {name} returned non-constellation symbols")
            metrics[name] = metric
        ml = min(metrics.values())
        for name, metric in metrics.items():
            if metric - ml > wl.METRIC_RTOL * ml:
                raise SystemExit(f"instance {i}: {name} metric {metric!r} above {ml!r}; not written")
        out.append(ml)
    return out


def _sweep_reference(workload, seed):
    import tempfile

    import workloads as wl

    rows, _ = wl.m3.run_sweep(workload.config(seed))
    with tempfile.TemporaryDirectory(dir=REF_DIR) as tmp:
        path = Path(tmp) / "sweep.csv"
        wl.m3.write_csv(rows, path)
        lines = wl.ml_lines(path.read_text())
    failures = wl.Failures()
    wl.check_sweep_rows(lines, None, failures)
    if failures.failed:
        failures.report()
        raise SystemExit("decoders disagree on symbol_errors; not written")
    return lines


def main(argv=None):
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), action="append")
    args = parser.parse_args(argv)
    REF_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        make = _sweep_reference if workload.kind == "sweep" else _decode_reference
        reference = make(workload, DEFAULT_SEED)
        data = {"workload": asdict(workload), "seed": DEFAULT_SEED, "reference": reference}
        _path(workload).write_text(json.dumps(data, indent=0) + "\n")
        print(f"wrote {_path(workload)} ({len(reference)} entries)")


if __name__ == "__main__":
    import run  # puts the checkout's src/ on sys.path

    run.import_program()
    sys.exit(main())
