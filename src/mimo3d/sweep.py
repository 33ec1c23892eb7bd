"""Monte-Carlo SNR sweep: decoders side by side on identical instances.

Every trial derives its own random stream from ``(seed, trial, attempt)``,
draws symbols, one quasi-static channel realization and one unit-variance
noise block, and reuses them across the whole SNR grid (noise scaled per
point).  All configured decoders therefore see exactly the same
``(symbols, channel, noise)`` per trial, results are independent of worker
scheduling, and identical configs produce byte-identical CSV output.

A decoder raising :class:`~mimo3d.linalg.RankDeficiencyError` aborts the
trial; the trial is redrawn with the next attempt index and the event is
counted.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import typing
from dataclasses import dataclass, fields

import numpy as np

from .channel import check_integer, derive_rng, make_equivalent, sample_channel, snr_to_sigma2
from .code import VARIANTS, encode_direct
from .decoders import get_decoder, verify_r_structure
from .decoders.bruteforce import MAX_ORDER
from .decoders.structure import ORIGINAL_BREAKS, REL_TOL
from .linalg import RankDeficiencyError, tilde_interleave, vec_stack
from .modem import MODULATIONS, build_qam

MAX_ATTEMPTS = 64


def check_trials_and_seed(trials, seed):
    """Refuse a run that would check nothing or that no random stream can
    seed: ``trials < 1`` or ``seed < 0``, or either not an integer (``int``
    or a NumPy integer, not ``bool``), each a :class:`ValueError`."""
    check_integer("trials", trials, 1)
    check_integer("seed", seed, 0)


@dataclass
class SweepConfig:
    modulation: str = "qpsk"
    snr_start: float = 0.0
    snr_stop: float = 20.0
    snr_step: float = 2.0
    trials: int = 1000
    decoders: tuple = ("sd-baseline", "simplified-cs2")
    seed: int = 0
    variant: str = "new"
    workers: int = 1

    def validate(self):
        if self.modulation not in MODULATIONS:
            raise ValueError(f"unknown modulation {self.modulation!r}")
        if not all(math.isfinite(x) for x in (self.snr_start, self.snr_stop, self.snr_step)):
            # a NaN or inf bound or step would make snr_points loop forever
            raise ValueError("snr_start, snr_stop and snr_step must be finite")
        if self.snr_step <= 0:
            raise ValueError("snr_step must be positive")
        if self.snr_stop < self.snr_start:
            raise ValueError("snr_stop must be >= snr_start")
        constellation = build_qam(MODULATIONS[self.modulation])
        for name, snr in (("snr_start", self.snr_start), ("snr_stop", self.snr_stop)):
            try:
                sigma2 = snr_to_sigma2(snr, constellation)
            except (OverflowError, ZeroDivisionError):  # 10^(snr/10) past the float range
                sigma2 = 0.0
            if not 0.0 < sigma2 < math.inf:
                raise ValueError(f"{name} {snr:g} dB gives no finite, positive noise variance")
        check_trials_and_seed(self.trials, self.seed)
        if isinstance(self.decoders, str):
            raise ValueError(f"decoders must be a sequence of registry names, not {self.decoders!r}")
        if not self.decoders:
            raise ValueError("need at least one decoder")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        check_integer("workers", self.workers, 1)
        for name in self.decoders:
            try:
                get_decoder(name)
            except KeyError as err:
                raise ValueError(str(err)) from None
            if self.variant == "original" and name.startswith("simplified"):
                # the two-stage decoder needs the R zero structure of the
                # "new" ordering and refuses any other; say so before the
                # first trial runs
                raise ValueError(f"decoder {name!r} requires variant 'new'")
        if MODULATIONS[self.modulation] > MAX_ORDER and "bruteforce" in self.decoders:
            raise ValueError(f"bruteforce decoder is limited to M <= {MAX_ORDER}")

    def snr_points(self):
        points = []
        k = 0
        while True:
            snr = self.snr_start + k * self.snr_step
            if snr > self.snr_stop + 1e-9:
                break
            points.append(snr)
            k += 1
        return tuple(points)


@dataclass
class SweepRow:
    """One CSV row; the fields, in order, are the CSV columns."""

    decoder: str
    snr_db: float
    trials: int
    symbol_errors: int
    ser: float
    cer: float
    mean_visited_nodes: float
    mean_mults: float
    mean_divs: float
    ci95_ser: float


CSV_HEADER = tuple(f.name for f in fields(SweepRow))


def _run_block(config, t_start, t_stop):
    m = MODULATIONS[config.modulation]
    constellation = build_qam(m)
    decoders = [get_decoder(name) for name in config.decoders]
    snrs = config.snr_points()
    sigmas = [math.sqrt(snr_to_sigma2(snr, constellation)) for snr in snrs]
    # integer tallies, so summation order cannot affect the totals: symbol
    # errors, codeword errors, visited nodes, mults, divs
    tallies = np.zeros((5, len(decoders), len(snrs)), dtype=np.int64)
    resamples = 0

    for trial in range(t_start, t_stop):
        for attempt in range(MAX_ATTEMPTS):
            rng = derive_rng(config.seed, trial, attempt)
            s_true = constellation.points[rng.integers(0, m, 8)]
            h = sample_channel(rng)
            w_unit = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            try:
                eq = make_equivalent(h, config.variant)
                x = encode_direct(s_true, config.variant)
                outcomes = []
                for snr_i, sigma in enumerate(sigmas):
                    y_tilde = tilde_interleave(vec_stack(h @ x + sigma * w_unit))
                    for dec_i, fn in enumerate(decoders):
                        outcomes.append((dec_i, snr_i, fn(y_tilde, eq.h_eq, constellation)))
            except RankDeficiencyError:
                resamples += 1
                continue
            break
        else:
            raise RuntimeError(f"trial {trial}: resample limit {MAX_ATTEMPTS} reached")
        for dec_i, snr_i, res in outcomes:
            errs = int(np.sum(res.symbols != s_true))
            c = res.counters
            tallies[:, dec_i, snr_i] += (errs, errs > 0, c.visited_nodes, c.mults, c.divs)
    return tallies, resamples


def run_sweep(config):
    """Run the sweep; returns ``(rows, resample_count)``.

    Rows come out in (decoder, snr) order.  Trial-level parallelism via
    ``config.workers``, capped at the trial count and at ``os.cpu_count()``,
    changes nothing but wall time: per-trial streams and integer
    accumulators make the result independent of scheduling.
    """
    config.validate()
    trials = config.trials
    workers = min(config.workers, trials, os.cpu_count() or 1)
    if workers <= 1:
        tallies, resamples = _run_block(config, 0, trials)
    else:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        jobs = [(config, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(len(jobs)) as pool:
            parts = pool.starmap(_run_block, jobs)
        tallies = sum(t for t, _ in parts)
        resamples = sum(n for _, n in parts)

    n_sym = 8 * trials
    rows = []
    for dec_i, name in enumerate(config.decoders):
        for snr_i, snr in enumerate(config.snr_points()):
            errors, cw_errors, visited, mults, divs = (int(t) for t in tallies[:, dec_i, snr_i])
            ser = errors / n_sym
            rows.append(SweepRow(
                decoder=name,
                snr_db=snr,
                trials=trials,
                symbol_errors=errors,
                ser=ser,
                cer=cw_errors / trials,
                mean_visited_nodes=visited / trials,
                mean_mults=mults / trials,
                mean_divs=divs / trials,
                ci95_ser=1.96 * math.sqrt(max(ser * (1.0 - ser), 0.0) / n_sym),
            ))
    return rows, resamples


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.6g}"


def write_csv(rows, path):
    """Serialize rows: header and columns from SweepRow's fields, numbers to
    6 significant digits, LF line endings."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, name)) for name in CSV_HEADER) + "\n")


def read_csv(path):
    """Parse a sweep CSV back into rows, each column as its field's type.

    Raises :class:`ValueError` naming the line when the header lacks a
    column or a row holds too few values (naming the column) or too many."""
    types = typing.get_type_hints(SweepRow)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for name in CSV_HEADER:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{path} line 1: the header has no column {name!r}")
        for rec in reader:
            if None in rec:  # DictReader's key for the values past the header
                raise ValueError(f"{path} line {reader.line_num}: more values than columns")
            for name in CSV_HEADER:
                if rec[name] is None:
                    raise ValueError(f"{path} line {reader.line_num}: no value in column {name!r}")
            rows.append(SweepRow(**{name: types[name](rec[name]) for name in CSV_HEADER}))
    return rows


def summarize(rows):
    """Aligned text report: per-decoder results and reductions vs baseline.

    The comparison section (1 - decoder/sd-baseline, per SNR) is emitted
    only when sd-baseline rows and at least one other decoder are present.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    lines = ["Per-decoder results", ""]
    lines.append(f"{'decoder':<16}{'snr_db':>8}{'ser':>12}{'cer':>12}"
                 f"{'nodes':>12}{'mults':>12}{'divs':>12}")
    for r in rows:
        lines.append(
            f"{r.decoder:<16}{r.snr_db:>8.6g}{r.ser:>12.6g}{r.cer:>12.6g}"
            f"{r.mean_visited_nodes:>12.6g}{r.mean_mults:>12.6g}{r.mean_divs:>12.6g}"
        )

    baseline = {r.snr_db: r for r in rows if r.decoder == "sd-baseline"}
    names = []
    for r in rows:
        if r.decoder != "sd-baseline" and r.decoder not in names:
            names.append(r.decoder)
    if baseline and names:
        lines += ["", "Reduction vs sd-baseline (positive = fewer operations)", ""]
        lines.append(f"{'decoder':<16}{'snr_db':>8}{'nodes %':>10}{'mults %':>10}"
                     f"{'divs %':>10}{'delta_ser':>12}")

        def reduction(value, base):
            return 100.0 * (1.0 - value / base) if base else 0.0

        for name in names:
            for r in rows:
                if r.decoder != name or r.snr_db not in baseline:
                    continue
                b = baseline[r.snr_db]
                lines.append(
                    f"{name:<16}{r.snr_db:>8.6g}"
                    f"{reduction(r.mean_visited_nodes, b.mean_visited_nodes):>10.1f}"
                    f"{reduction(r.mean_mults, b.mean_mults):>10.1f}"
                    f"{reduction(r.mean_divs, b.mean_divs):>10.1f}"
                    f"{r.ser - b.ser:>12.3g}"
                )
    return "\n".join(lines) + "\n"


def structure_sweep(trials, seed):
    """Check the R-structure claims over random channels for both variants.

    Returns ``(report_text, ok)`` where ``ok`` reflects only the "new"
    variant (the "original" ordering is expected to fail the claims in
    ``ORIGINAL_BREAKS`` and is reported as such).  One channel realization
    per trial, shared by both variants.  Raises :class:`ValueError` as
    :func:`check_trials_and_seed` does.
    """
    check_trials_and_seed(trials, seed)
    worst = {v: {} for v in VARIANTS}  # claim -> largest value, in StructureReport.checks order
    for trial in range(trials):
        rng = derive_rng(seed, trial)
        h = sample_channel(rng)
        for variant in VARIANTS:
            eq = make_equivalent(h, variant)
            rep = verify_r_structure(eq.qr.r, eq.h_eq)
            for claim, value in rep.checks.items():
                worst[variant][claim] = max(worst[variant].get(claim, 0.0), value)

    lines = [f"R-structure verification over {trials} random quasi-static channels",
             "(values are max |entry| / max |R|, Gram entries / max |H_eq|^2;"
             f" claim passes below {REL_TOL:g})", ""]
    ok = True
    for variant in VARIANTS:
        expect_fail = ORIGINAL_BREAKS if variant == "original" else ()
        lines.append(f"variant {variant}:")
        for claim, value in worst[variant].items():
            passed = value <= REL_TOL
            if claim in expect_fail:
                status = "expected-fail" if not passed else "UNEXPECTED-PASS"
            else:
                status = "pass" if passed else "FAIL"
                if variant == "new" and not passed:
                    ok = False
            lines.append(f"  {claim:<12} {value:12.3e}  {status}")
    return "\n".join(lines) + "\n", ok
