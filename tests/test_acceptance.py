"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

The heavy Monte-Carlo runs are module-scoped fixtures shared between
criteria, so the whole suite stays within a desk-scale budget.
"""

import math
import time

import numpy as np
import pytest
from helpers import branch_oracle, random_branch_fixture, random_instance

from mimo3d import build_qam, derive_rng, make_equivalent, sample_channel
from mimo3d.cli import main
from mimo3d.counters import OpCounters
from mimo3d.decoders import get_decoder, verify_r_structure
from mimo3d.decoders.simplified import parallel_decisions
from mimo3d.decoders.structure import COUPLED_DIMS
from mimo3d.sweep import SweepConfig, run_sweep

QPSK = build_qam(4)
QAM16 = build_qam(16)
SIMPLIFIED = ("simplified", "simplified-cs4", "simplified-cs2")


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def qpsk_oracle_run():
    """1000 QPSK instances spanning 0-20 dB: brute force vs everything else."""
    rng = derive_rng(9000)
    baseline = get_decoder("sd-baseline")
    start = time.perf_counter()
    records = []
    for i in range(1000):
        snr = 20.0 * i / 999
        s_true, eq, y = random_instance(rng, QPSK, snr)
        ref = get_decoder("bruteforce")(y, eq.h_eq, QPSK)
        per_mode = {name: get_decoder(name)(y, eq.h_eq, QPSK) for name in SIMPLIFIED}
        per_mode["sd-baseline"] = baseline(y, eq.h_eq, QPSK)
        records.append((s_true, ref, per_mode))
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def qam16_oracle_run():
    """200 16-QAM instances at 8-20 dB: run-to-completion SD vs switch modes."""
    rng = derive_rng(9001)
    baseline = get_decoder("sd-baseline")
    records = []
    for i in range(200):
        snr = 8.0 + 12.0 * i / 199
        s_true, eq, y = random_instance(rng, QAM16, snr)
        ref = baseline(y, eq.h_eq, QAM16)
        per_mode = {name: get_decoder(name)(y, eq.h_eq, QAM16) for name in SIMPLIFIED}
        records.append((s_true, ref, per_mode))
    return records


@pytest.fixture(scope="module")
def sweep_qpsk_0db():
    cfg = SweepConfig(
        modulation="qpsk", snr_start=0.0, snr_stop=0.0, snr_step=1.0, trials=10_000,
        decoders=("sd-baseline", "simplified", "simplified-cs2"), seed=9002,
    )
    rows, _ = run_sweep(cfg)
    return {r.decoder: r for r in rows}


@pytest.fixture(scope="module")
def sweep_16qam_8db():
    cfg = SweepConfig(
        modulation="16qam", snr_start=8.0, snr_stop=8.0, snr_step=1.0, trials=10_000,
        decoders=("sd-baseline", "simplified-cs2"), seed=9003,
    )
    rows, _ = run_sweep(cfg)
    return {r.decoder: r for r in rows}


def test_criterion_1_structure_theorems():
    trials = 10_000
    start = time.perf_counter()
    worst = 0.0
    for t in range(trials):
        eq = make_equivalent(sample_channel(derive_rng(9004, t)), "new")
        rep = verify_r_structure(eq.qr.r, eq.h_eq)
        worst = max(worst, max(rep.checks.values()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, ok,
            f"max |asserted-zero| / ||R||_max = {worst:.2e} (R blocks + Gram cross block) "
            f"over {trials} channels in {elapsed:.1f} s (< 30 s)")


def test_criterion_2_ml_optimality_qpsk(qpsk_oracle_run):
    records, elapsed = qpsk_oracle_run
    worst = max(
        abs(res.metric - ref.metric)
        for _, ref, per_mode in records
        for res in per_mode.values()
    )
    ok = worst <= 1e-9 and elapsed < 600.0
    _report(2, ok,
            f"max |metric - exhaustive minimum| = {worst:.2e} over 1000 instances x "
            f"(3 switch modes + baseline SD), 0-20 dB ({elapsed:.0f} s < 600 s)")


def test_criterion_3_ml_optimality_16qam(qam16_oracle_run):
    worst = max(
        abs(res.metric - ref.metric)
        for _, ref, per_mode in qam16_oracle_run
        for res in per_mode.values()
    )
    ok = worst <= 1e-9
    _report(3, ok,
            f"max |metric - run-to-completion SD| = {worst:.2e} over 200 16-QAM instances, 8-20 dB")


def test_criterion_4_branch_oracle():
    worst = 0.0
    checked = 0
    for pam_order, count in ((4, 5000), (16, 5000)):
        pam = build_qam(pam_order).pam
        rng = derive_rng(9005, pam_order)
        for _ in range(count):
            v, r = random_branch_fixture(rng, pam)
            a_hat, b_hat, d_p = parallel_decisions([0.0] * 8, r, math.inf, 0.0, pam, OpCounters(), v)
            decided = [
                (a_hat[0], a_hat[2]), (a_hat[1], a_hat[3]),
                (b_hat[0], b_hat[2]), (b_hat[1], b_hat[3]),
            ]
            total = 0.0
            for b, (i1, i2) in enumerate(COUPLED_DIMS):
                sol, ref = branch_oracle(v[i1], v[i2], r[i1, i1], r[i1, i2], r[i2, i2], pam)
                s1, s2 = decided[b]
                got = (v[i1] - r[i1, i1] * s1 - r[i1, i2] * s2) ** 2 + (v[i2] - r[i2, i2] * s2) ** 2
                gap = abs(got - ref)
                worst = max(worst, gap)
                if (s1, s2) != sol:
                    assert gap <= 1e-12, "branch returned a non-optimal point"
                total += ref
            worst = max(worst, abs(d_p - total))
            checked += 1
    ok = worst <= 1e-12
    _report(4, ok, f"per-branch outputs = exhaustive PAM^2 argmin on {checked} fixtures "
                   f"(max metric gap {worst:.2e} <= 1e-12)")


def test_criterion_5_complexity_bounds(qpsk_oracle_run, qam16_oracle_run):
    violations = 0
    total = 0
    for records, m in ((qpsk_oracle_run[0], 4), (qam16_oracle_run, 16)):
        root_m = math.isqrt(m)
        for _, _, per_mode in records:
            for name in SIMPLIFIED:  # bounds apply to the two-stage decoder
                c = per_mode[name].counters
                total += 1
                if c.leaves > m**4:
                    violations += 1
                if any(bn > root_m * c.leaves for bn in c.branch_nodes):
                    violations += 1
    ok = violations == 0
    _report(5, ok, f"hard bounds (leaves <= M^4, <= sqrt(M) branch candidates per leaf) "
                   f"held on all {total} instrumented decodes")


@pytest.mark.slow
def test_criterion_6_complexity_trend(sweep_qpsk_0db, sweep_16qam_8db):
    r_qpsk = (sweep_qpsk_0db["simplified-cs2"].mean_visited_nodes
              / sweep_qpsk_0db["sd-baseline"].mean_visited_nodes)
    r_16 = (sweep_16qam_8db["simplified-cs2"].mean_visited_nodes
            / sweep_16qam_8db["sd-baseline"].mean_visited_nodes)
    ok = r_qpsk <= 0.6 and r_16 <= 0.4
    _report(6, ok,
            f"mean visited nodes, simplified-cs2 / sd-baseline over 10^4 trials: "
            f"{r_qpsk:.3f} at 0 dB QPSK (need <= 0.6), {r_16:.3f} at 8 dB 16-QAM (need <= 0.4); "
            f"ordering with margin, absolute counts are baseline-implementation specific")


@pytest.mark.slow
def test_criterion_7_column_switch_benefit(sweep_qpsk_0db):
    ratio = (sweep_qpsk_0db["simplified-cs2"].mean_visited_nodes
             / sweep_qpsk_0db["simplified"].mean_visited_nodes)
    ok = ratio <= 0.85
    _report(7, ok, f"2-by-2 column switch vs no switch at 0 dB QPSK over 10^4 trials: "
                   f"node ratio {ratio:.3f} (need <= 0.85)")


def test_criterion_8_ser_equivalence(qpsk_oracle_run):
    records, _ = qpsk_oracle_run
    decision_mismatches = 0
    ties = 0
    for s_true, ref, per_mode in records:
        for res in per_mode.values():
            if not np.array_equal(res.symbols, ref.symbols):
                if abs(res.metric - ref.metric) <= 1e-9:
                    ties += 1  # distinct argmins with equal metric: SER may differ, ML-ness does not
                else:
                    decision_mismatches += 1
    ok = decision_mismatches == 0
    _report(8, ok,
            f"QPSK decisions identical to the exhaustive decoder per instance "
            f"({ties} exact metric ties), hence identical SER; the published "
            f"suboptimal-baseline SER gap is not reproduced by design and is "
            f"covered by the exact-metric criteria 2-3")


def test_criterion_9_determinism(tmp_path):
    def run(path, workers):
        rc = main([
            "sweep", "--mod", "qpsk", "--snr-start", "0", "--snr-stop", "2",
            "--snr-step", "2", "--trials", "200",
            "--decoders", "sd-baseline,simplified-cs2",
            "--seed", "424242", "--workers", str(workers), "--out", str(path),
        ])
        assert rc == 0
        return path.read_bytes()

    first = run(tmp_path / "run1.csv", 1)
    second = run(tmp_path / "run2.csv", 1)
    third = run(tmp_path / "run3.csv", 3)
    ok = first == second == third
    _report(9, ok, "identical seed + config give byte-identical CSV across "
                   "repeated runs and worker counts")
