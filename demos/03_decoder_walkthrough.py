"""Decode one noisy codeword with all three decoders and compare the work.

Shows the zero-forcing estimate, the column-switch decision, the exact
metric agreement between the exhaustive search, the classical sphere
decoder and the two-stage decoder, and what each one paid for it.
"""

import numpy as np

import mimo3d as m3
from mimo3d.decoders.simplified import column_switch, zf_estimate
from mimo3d.linalg import tilde_interleave, vec_stack

SNR_DB = 8.0

qam = m3.build_qam(4)
rng = m3.derive_rng(42)

symbols = qam.points[rng.integers(0, 4, 8)]
h = m3.sample_channel(rng)
eq = m3.make_equivalent(h, "new")
x = m3.encode_direct(symbols, "new")
sigma2 = m3.snr_to_sigma2(SNR_DB, qam)
_, y_tilde = m3.transmit(x, h, sigma2, rng)

print(f"QPSK at {SNR_DB} dB, sigma^2 = {sigma2:.3f}")
print("transmitted:", symbols)

s_zf = zf_estimate(eq.h_eq, y_tilde)
print("\nzero-forcing estimate:", np.round(s_zf, 3))
_, plan = column_switch(s_zf, eq.h_eq, "2by2", qam)
print("column-switch decode order:", plan.order)
print("group reliabilities:", {k: f"{v:.3f}" for k, v in plan.epsilons.items()})

print(f"\n{'decoder':<16}{'metric':>12}{'visited':>9}{'mults':>9}{'divs':>7}  errors")
for name in ("bruteforce", "sd-baseline", "simplified", "simplified-cs4", "simplified-cs2"):
    res = m3.get_decoder(name)(y_tilde, eq.h_eq, qam)
    errs = int(np.sum(res.symbols != symbols))
    c = res.counters
    print(f"{name:<16}{res.metric:>12.6f}{c.visited_nodes:>9}{c.mults:>9}{c.divs:>7}  {errs}")

truth = float(np.sum((y_tilde - eq.h_eq @ tilde_interleave(symbols)) ** 2))
print(f"\nmetric of the transmitted symbols: {truth:.6f}")
print("(the ML metric can undercut it; that is what a symbol error is)")
