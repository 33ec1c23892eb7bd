"""Walk through the code construction and its real-valued equivalent model.

Eight QAM symbols turn into a 4x4 codeword (two Golden codewords in an
Alamouti arrangement), and the complex link Y = H X + W becomes the real
16x16 system y~ = H_eq s~ + w~ that the decoders operate on.
"""

import numpy as np

import mimo3d as m3

np.set_printoptions(precision=3, suppress=True, linewidth=120)

# --- constellation -----------------------------------------------------------
qam = m3.build_qam(16)
print("16-QAM PAM levels:", np.array(qam.pam.level_tuple))
print("average symbol energy:", np.mean(np.abs(qam.points) ** 2))

# --- encoding ----------------------------------------------------------------
rng = m3.derive_rng(2024)
symbols = qam.points[rng.integers(0, 16, 8)]
print("\ninformation symbols:\n", symbols)

x = m3.encode_direct(symbols, "new")
print("\ncodeword (rows = tx antennas, cols = channel uses):\n", x)
print("codeword energy per entry:", np.mean(np.abs(x) ** 2))

# the same encoding as one linear map: 32x16 generator acting on
# interleaved (re, im) symbol parts
g = m3.build_generator("new")
lhs = g @ m3.tilde_interleave(symbols)
rhs = m3.tilde_interleave(m3.vec_stack(x))
print("\ngenerator vs direct formula, max |diff|:", np.abs(lhs - rhs).max())
print("G^T G == 2 I:", np.abs(g.T @ g - 2 * np.eye(16)).max() < 1e-12)

# --- real-valued equivalent channel ------------------------------------------
h = m3.sample_channel(rng)
eq = m3.make_equivalent(h, "new")
y = h @ x
consistency = np.abs(
    m3.tilde_interleave(m3.vec_stack(y)) - eq.h_eq @ m3.tilde_interleave(symbols)
).max()
print("\ncomplex path vs real equivalent model, max |diff|:", consistency)

# the "new" symbol ordering is just a relabeling of the original code
swapped = m3.permute_symbols(symbols, "new", "original")
same = np.array_equal(m3.encode_direct(symbols, "new"), m3.encode_direct(swapped, "original"))
print("new codeword == original codeword of swapped symbols:", same)
