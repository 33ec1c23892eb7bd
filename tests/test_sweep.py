import math
import multiprocessing
import os

import numpy as np
import pytest

from mimo3d import cli
from mimo3d.cli import main
from mimo3d.counters import OpCounters
from mimo3d.decoders import DecodeResult, REGISTRY
from mimo3d.linalg import RankDeficiencyError
from mimo3d.sweep import (
    CSV_HEADER,
    SweepConfig,
    SweepRow,
    read_csv,
    run_sweep,
    structure_sweep,
    summarize,
    write_csv,
)


def small_config(**overrides):
    base = dict(
        modulation="qpsk", snr_start=0.0, snr_stop=4.0, snr_step=2.0,
        trials=30, decoders=("sd-baseline", "simplified-cs2"), seed=77,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_snr_points():
    assert SweepConfig(snr_start=0, snr_stop=20, snr_step=2).snr_points() == tuple(range(0, 21, 2))
    assert SweepConfig(snr_start=5, snr_stop=5, snr_step=1).snr_points() == (5,)


@pytest.mark.parametrize("bad", [
    dict(modulation="8psk"),
    dict(snr_step=0.0),
    dict(snr_stop=-1.0),
    dict(trials=0),
    dict(decoders=("warp-drive",)),
    dict(decoders=()),
    dict(variant="original", decoders=("simplified",)),
    dict(variant="original", decoders=("sd-baseline", "simplified-cs2")),
    dict(modulation="16qam", decoders=("bruteforce",)),
    dict(workers=0),
    dict(seed=-1),
    dict(decoders=("simplified-cs8",)),
    # a non-finite bound or step would make snr_points loop forever
    dict(snr_step=math.nan),
    dict(snr_stop=math.inf),
    dict(snr_start=math.nan),
    dict(snr_start=-math.inf),
    dict(snr_step=math.inf),
    # not integers: seed=1.5 used to give the rows of seed=1, trials=10.5 to
    # fail inside range() and trials=True to run one trial
    dict(trials=10.5),
    dict(trials=True),
    dict(seed=1.5),
    dict(seed=True),
    dict(workers=1.5),
    dict(workers=True),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        small_config(**bad).validate()


def test_config_refuses_a_bare_decoder_name():
    # iterated as names, the string used to be refused as decoder 's'
    with pytest.raises(ValueError, match="^decoders must be a sequence"):
        small_config(decoders="sd-baseline").validate()


def test_rows_in_decoder_then_snr_order():
    rows, resamples = run_sweep(small_config(trials=5))
    assert resamples == 0
    assert [(r.decoder, r.snr_db) for r in rows] == [
        ("sd-baseline", 0.0), ("sd-baseline", 2.0), ("sd-baseline", 4.0),
        ("simplified-cs2", 0.0), ("simplified-cs2", 2.0), ("simplified-cs2", 4.0),
    ]
    for r in rows:
        assert 0.0 <= r.ser <= 1.0
        assert r.ser == r.symbol_errors / (8 * r.trials)


# the header documented in README.md
README_HEADER = ("decoder,snr_db,trials,symbol_errors,ser,cer,"
                 "mean_visited_nodes,mean_mults,mean_divs,ci95_ser")

# every CSV column with the type read_csv gives it
COLUMN_TYPES = {
    "decoder": str, "snr_db": float, "trials": int, "symbol_errors": int,
    "ser": float, "cer": float, "mean_visited_nodes": float, "mean_mults": float,
    "mean_divs": float, "ci95_ser": float,
}


def test_csv_format(tmp_path):
    rows, _ = run_sweep(small_config(trials=5))
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == README_HEADER
    assert len(lines) == 1 + len(rows)


def test_read_csv_round_trip(tmp_path):
    rows, _ = run_sweep(small_config(trials=7))
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    back = read_csv(path)
    assert len(back) == len(rows)
    for got, sent in zip(back, rows):
        for name, kind in COLUMN_TYPES.items():
            value, want = getattr(got, name), getattr(sent, name)
            assert type(value) is kind, name
            # floats are written to 6 significant digits
            assert value == (float(f"{want:.6g}") if kind is float else want), name


def test_same_seed_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_sweep(small_config())[0], p1)
    # NumPy integers are accepted as the same trial count and seed
    write_csv(run_sweep(small_config(trials=np.int64(30), seed=np.uint8(77)))[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    write_csv(run_sweep(small_config(trials=24, workers=1))[0], p1)
    write_csv(run_sweep(small_config(trials=24, workers=3))[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    # checked without starting a process: the fake pool records its size
    # and runs starmap inline
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            return [fn(*job) for job in jobs]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext())
    capped = run_sweep(small_config(trials=8, workers=50))
    assert sizes == [2]
    assert capped == run_sweep(small_config(trials=8, workers=1))


def test_noiseless_limit_all_decoders():
    cfg = small_config(
        snr_start=60.0, snr_stop=60.0, snr_step=1.0, trials=5,
        decoders=("bruteforce", "sd-baseline", "simplified", "simplified-cs4", "simplified-cs2"),
    )
    rows, _ = run_sweep(cfg)
    assert all(r.ser == 0.0 and r.cer == 0.0 for r in rows)


def test_all_decoders_see_identical_instances():
    seen = []

    def recorder(y_tilde, h_eq, constellation):
        seen.append((y_tilde.tobytes(), h_eq.tobytes()))
        return DecodeResult(symbols=constellation.points[np.zeros(8, int)],
                            metric=0.0, counters=OpCounters())

    REGISTRY["recorder"] = recorder
    try:
        cfg = small_config(trials=6, decoders=("recorder",), snr_stop=0.0)
        run_sweep(cfg)
        first = list(seen)
        seen.clear()
        cfg2 = small_config(trials=6, decoders=("recorder", "sd-baseline"), snr_stop=0.0)
        run_sweep(cfg2)
        assert seen == first  # same streams -> same instances, decoder list irrelevant
    finally:
        REGISTRY.pop("recorder", None)


def test_decoder_error_triggers_resample():
    calls = {"n": 0}

    def flaky(y_tilde, h_eq, constellation):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RankDeficiencyError("synthetic degenerate trial")
        return REGISTRY["simplified"](y_tilde, h_eq, constellation)

    REGISTRY["flaky"] = flaky
    try:
        cfg = small_config(trials=3, decoders=("flaky",), snr_stop=0.0)
        rows, resamples = run_sweep(cfg)
        assert resamples == 1
        assert rows[0].trials == 3
    finally:
        REGISTRY.pop("flaky", None)


def test_resample_count_does_not_depend_on_workers():
    def picky(y_tilde, h_eq, constellation):
        if h_eq[0, 0] > 0.3:
            raise RankDeficiencyError("synthetic degenerate trial")
        return REGISTRY["sd-baseline"](y_tilde, h_eq, constellation)

    REGISTRY["picky"] = picky
    try:
        runs = [run_sweep(small_config(trials=24, decoders=("picky",), workers=w))
                for w in (1, 3)]
    finally:
        REGISTRY.pop("picky", None)
    (rows_1, resamples_1), (rows_3, resamples_3) = runs
    assert resamples_1 == resamples_3 == 4
    assert rows_1 == rows_3


def test_variant_original_with_structure_free_decoders():
    cfg = small_config(variant="original", decoders=("sd-baseline",), trials=10,
                       snr_start=10.0, snr_stop=10.0)
    rows, _ = run_sweep(cfg)
    assert rows[0].ser < 0.5


GOLDEN_ROWS = [
    SweepRow("sd-baseline", 0.0, 1000, 2741, 0.3426, 0.981, 987.62, 11507.3, 793.81, 0.0104),
    SweepRow("sd-baseline", 2.0, 1000, 2214, 0.2768, 0.842, 612.56, 8752.0, 612.18, 0.0099),
    SweepRow("simplified-cs2", 0.0, 1000, 2741, 0.3426, 0.981, 222.03, 11955.6, 720.6, 0.0104),
    SweepRow("simplified-cs2", 2.0, 1000, 2214, 0.2768, 0.842, 202.74, 11668.6, 701.18, 0.0099),
]

GOLDEN_REPORT = """\
Per-decoder results

decoder           snr_db         ser         cer       nodes       mults        divs
sd-baseline            0      0.3426       0.981      987.62     11507.3      793.81
sd-baseline            2      0.2768       0.842      612.56        8752      612.18
simplified-cs2         0      0.3426       0.981      222.03     11955.6       720.6
simplified-cs2         2      0.2768       0.842      202.74     11668.6      701.18

Reduction vs sd-baseline (positive = fewer operations)

decoder           snr_db   nodes %   mults %    divs %   delta_ser
simplified-cs2         0      77.5      -3.9       9.2           0
simplified-cs2         2      66.9     -33.3     -14.5           0
"""


def test_summarize_golden_report():
    assert summarize(GOLDEN_ROWS) == GOLDEN_REPORT


def test_summarize_identical_decoder_is_zero_reduction():
    twin = [GOLDEN_ROWS[0], GOLDEN_ROWS[1]]
    twin += [SweepRow("simplified", r.snr_db, r.trials, r.symbol_errors, r.ser, r.cer,
                      r.mean_visited_nodes, r.mean_mults, r.mean_divs, r.ci95_ser)
             for r in twin[:2]]
    report = summarize(twin)
    comparison = report.split("Reduction vs sd-baseline")[1]
    checked = 0
    for line in comparison.splitlines():
        if line.startswith("simplified "):
            assert line.split()[2:5] == ["0.0", "0.0", "0.0"]
            checked += 1
    assert checked == 2


def test_summarize_omits_comparison_without_baseline():
    rows = [r for r in GOLDEN_ROWS if r.decoder != "sd-baseline"]
    assert "Reduction" not in summarize(rows)
    assert "Reduction" not in summarize(GOLDEN_ROWS[:2])  # baseline only
    with pytest.raises(ValueError):
        summarize([])


def test_structure_sweep_report():
    report, ok = structure_sweep(trials=50, seed=4)
    assert ok
    assert "expected-fail" in report
    assert report.count("pass") >= 6


@pytest.mark.parametrize("trials, seed, word", [(0, 4, "trials"), (-5, 4, "trials"),
                                                 (1, -1, "seed"), (2.5, 4, "trials"),
                                                 (True, 4, "trials"), (1, 4.0, "seed"),
                                                 (1, False, "seed")])
def test_structure_sweep_refuses_empty_run_and_negative_seed(trials, seed, word):
    # a run over no channel would report success without checking anything
    with pytest.raises(ValueError, match=word):
        structure_sweep(trials=trials, seed=seed)


def test_ser_decreases_with_snr():
    # statistical sanity, pinned by the seed: +6 dB must help an ML decoder
    cfg = SweepConfig(modulation="qpsk", snr_start=4.0, snr_stop=10.0, snr_step=6.0,
                      trials=10_000, decoders=("simplified-cs2",), seed=11)
    rows, _ = run_sweep(cfg)
    assert rows[1].ser < rows[0].ser


def test_cli_sweep_and_summarize(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    rc = main([
        "sweep", "--mod", "qpsk", "--snr-start", "0", "--snr-stop", "2",
        "--snr-step", "2", "--trials", "8", "--decoders", "sd-baseline,simplified-cs2",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "wrote 4 rows" in captured.out

    rc = main(["summarize", "--in", str(out)])
    assert rc == 0
    assert "Reduction vs sd-baseline" in capsys.readouterr().out


def test_cli_rejects_switch_flag(tmp_path, capsys):
    # the switch mode is part of the decoder name, e.g. simplified-cs2
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--snr-start", "0", "--snr-stop", "0", "--snr-step", "1",
            "--trials", "1", "--decoders", "simplified", "--seed", "3",
            "--switch", "2by2", "--out", str(tmp_path / "cli.csv"),
        ])
    assert exc.value.code == 2
    assert "--switch" in capsys.readouterr().err
    assert not (tmp_path / "cli.csv").exists()


# argparse keeps the last value of a repeated option, so a case appends its own
SWEEP_ARGV = ["sweep", "--snr-start", "0", "--snr-stop", "0", "--snr-step", "1",
              "--trials", "1", "--decoders", "simplified", "--seed", "3", "--out", "cli.csv"]


@pytest.mark.parametrize("argv, word", [
    (SWEEP_ARGV + ["--decoders", ""], "decoder"),
    (SWEEP_ARGV + ["--decoders", "warp-drive"], "warp-drive"),
    (SWEEP_ARGV + ["--trials", "0"], "trials"),
    (SWEEP_ARGV + ["--snr-step", "0"], "snr_step"),
    (SWEEP_ARGV + ["--seed", "-1"], "seed"),
    (["verify-structure", "--trials", "0", "--seed", "1"], "trials"),
    (["verify-structure", "--trials", "-5", "--seed", "1"], "trials"),
    (["verify-structure", "--trials", "3", "--seed", "-1"], "seed"),
    (["summarize", "--in", "header-only.csv"], "no rows"),
    (["summarize", "--in", "missing.csv"], "missing.csv"),
    (["summarize", "--in", "no-trials.csv"], "line 1: the header has no column 'trials'"),
    (["summarize", "--in", "short-row.csv"], "line 2: no value in column 'symbol_errors'"),
    (["summarize", "--in", "long-row.csv"], "line 2: more values than columns"),
    # no finite, positive noise variance: these used to die with a traceback
    # on OverflowError and ZeroDivisionError
    (SWEEP_ARGV + ["--snr-stop", "4000"], "snr_stop 4000 dB"),
    (SWEEP_ARGV + ["--snr-start", "-4000"], "snr_start -4000 dB"),
])
def test_cli_reports_bad_arguments_as_usage_errors(argv, word, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_csv([], "header-only.csv")
    no_trials = [name for name in CSV_HEADER if name != "trials"]
    (tmp_path / "no-trials.csv").write_text(
        ",".join(no_trials) + "\nsd-baseline,0,1,0.125,1,20,300,20,0.2\n")
    (tmp_path / "short-row.csv").write_text(",".join(CSV_HEADER) + "\nsd-baseline,0,1\n")
    (tmp_path / "long-row.csv").write_text(
        ",".join(CSV_HEADER) + "\nsd-baseline,0,300,1,0.125,1,20,300,20,0.2,7\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert word in captured.err and captured.out == ""
    assert not (tmp_path / "cli.csv").exists()


@pytest.mark.parametrize("out", ["no/such/dir/x.csv", "."])
def test_cli_refuses_an_unwritable_out_before_the_sweep(out, tmp_path, monkeypatch, capsys):
    # a directory, or a file in a missing directory, is refused before the
    # first trial, not after the whole sweep when write_csv opens it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_sweep", lambda config: pytest.fail("the sweep ran"))
    with pytest.raises(SystemExit) as exc:
        main(SWEEP_ARGV + ["--out", out])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"--out {out}" in captured.err and captured.out == ""


def test_cli_lets_decode_errors_propagate(tmp_path, monkeypatch):
    # only argument and input validation is a usage error
    def broken(y_tilde, h_eq, constellation):
        raise ValueError("synthetic decode failure")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(REGISTRY, "broken", broken)
    with pytest.raises(ValueError, match="synthetic decode failure"):
        main(SWEEP_ARGV + ["--decoders", "broken"])
    assert not (tmp_path / "cli.csv").exists()


def test_cli_verify_structure(capsys):
    rc = main(["verify-structure", "--trials", "40", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "r12_block" in out and "expected-fail" in out
