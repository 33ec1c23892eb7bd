"""Command-line front end: sweep, verify-structure, summarize."""

from __future__ import annotations

import argparse
import sys

from .code import VARIANTS
from .sweep import (
    MODULATIONS,
    SweepConfig,
    check_trials_and_seed,
    read_csv,
    run_sweep,
    structure_sweep,
    summarize,
    write_csv,
)

SNR_DEFINITION = """\
SNR definition (fixed for all decoders): average received signal energy per
receive antenna per channel use over noise energy per complex sample,

    SNR = E * trace(G^T G) / (2 T) / (2 sigma^2),

with E the mean constellation symbol energy (1 by construction), G the 32x16
code generator (trace(G^T G) = 32), T = 4 channel uses and sigma^2 the noise
variance per real dimension.  Hence sigma^2 = 2 / 10^(snr_db / 10).
"""


def _add_sweep_parser(sub):
    p = sub.add_parser(
        "sweep",
        help="Monte-Carlo SNR sweep, CSV output",
        epilog=SNR_DEFINITION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--mod", choices=sorted(MODULATIONS), default="qpsk")
    p.add_argument("--snr-start", type=float, required=True)
    p.add_argument("--snr-stop", type=float, required=True)
    p.add_argument("--snr-step", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--decoders", required=True,
                   help="comma-separated registry names, e.g. sd-baseline,simplified-cs2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="new")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    return p


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mimo3d",
        description="3D MIMO code link simulation and decoder comparison",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sweep = _add_sweep_parser(sub)

    p_verify = sub.add_parser("verify-structure",
                              help="check the R-matrix zero structure over random channels")
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)

    p_sum = sub.add_parser("summarize", help="text report from a sweep CSV")
    p_sum.add_argument("--in", dest="in_path", required=True)

    args = parser.parse_args(argv)
    command_parser = {"sweep": p_sweep, "verify-structure": p_verify, "summarize": p_sum}

    # argument and input errors become usage errors (exit 2, message on
    # stderr, nothing written); a ValueError raised while decoding propagates
    try:
        if args.command == "sweep":
            config = SweepConfig(
                modulation=args.mod,
                snr_start=args.snr_start,
                snr_stop=args.snr_stop,
                snr_step=args.snr_step,
                trials=args.trials,
                decoders=tuple(name.strip() for name in args.decoders.split(",") if name.strip()),
                seed=args.seed,
                variant=args.variant,
                workers=args.workers,
            )
            config.validate()
        elif args.command == "verify-structure":
            check_trials_and_seed(args.trials, args.seed)
        else:
            report = summarize(read_csv(args.in_path))
    except ValueError as err:
        command_parser[args.command].error(str(err))

    if args.command == "sweep":
        rows, resamples = run_sweep(config)
        write_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
        if resamples:
            print(f"note: {resamples} degenerate trials resampled", file=sys.stderr)
        return 0

    if args.command == "verify-structure":
        report, ok = structure_sweep(args.trials, args.seed)
        print(report, end="")
        return 0 if ok else 1

    print(report, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
