"""Visualize the R-factor zero structure that makes the code fast-decodable.

For the "new" symbol ordering, the QR of the equivalent channel has
R[0:4, 4:8] = 0 (first symbol pair decouples from the second) plus
real/imaginary decoupling inside the two leading diagonal blocks.  The
original ordering loses the block-zero property; permuting whole column
groups keeps it.
"""

import numpy as np

import mimo3d as m3
from mimo3d.decoders.simplified import ALLOWED_ORDERS
from mimo3d.linalg import gram_schmidt_qr


def mask(r, tol=1e-9):
    scale = np.abs(r).max()
    return "\n".join(
        " ".join("x" if abs(v) > tol * scale else "." for v in row) for row in r
    )


rng = m3.derive_rng(7)
h = m3.sample_channel(rng)

for variant in ("new", "original"):
    eq = m3.make_equivalent(h, variant)
    rep = m3.verify_r_structure(eq.qr.r, eq.h_eq)
    print(f"--- variant {variant} ---")
    print(mask(eq.qr.r))
    print("claims:", {k: f"{v:.1e}" for k, v in rep.checks.items()},
          "-> ok" if rep.ok else "-> violated (expected for original)")
    print()

# every allowed column permutation preserves the pattern
eq = m3.make_equivalent(h, "new")
for order in ALLOWED_ORDERS:
    cols = [c for sym in order for c in (2 * sym, 2 * sym + 1)]
    h_perm = eq.h_eq[:, cols]
    ok = m3.verify_r_structure(gram_schmidt_qr(h_perm).r, h_perm).ok
    print("decode order", order, "->", "structure ok" if ok else "BROKEN")
