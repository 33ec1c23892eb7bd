"""The 3D MIMO space-time block code for 4x2 transmission.

Eight information symbols are encoded into a 4x4 codeword (4 transmit
antennas, T = 4 channel uses) by first forming two Golden codewords and then
arranging them in an Alamouti pattern:

    X = [ G1  -G2* ]
        [ G2   G1* ]

The code is full rate (rate 2) for two receive antennas.  Two symbol
orderings of the same code are supported:

* ``"original"``: G1 carries (s1, s2, s3, s4) and G2 carries (s5, ..., s8).
* ``"new"``: the positions of (s3, s4) and (s5, s6) are exchanged, i.e.
  G1 carries (s1, s2, s5, s6) and G2 carries (s3, s4, s7, s8).

The two variants transmit the same codewords up to a relabeling of the
inputs, so error performance is identical; the "new" ordering is the one
whose equivalent-channel R factor has the zero structure the fast decoder
exploits (see :mod:`mimo3d.decoders.structure`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import tilde_interleave, vec_stack

#: Golden-ratio constants of the underlying Golden code.
THETA = (1.0 + math.sqrt(5.0)) / 2.0
THETA_BAR = 1.0 - THETA
ALPHA = 1.0 + 1j * (1.0 - THETA)
ALPHA_BAR = 1.0 + 1j * (1.0 - THETA_BAR)
SCALE = 1.0 / math.sqrt(5.0)

VARIANTS = ("new", "original")

N_SYMBOLS = 8
BLOCK_LEN = 4


def _golden_block(u1, u2, u3, u4):
    # 2x2 Golden codeword of four symbols (scaling applied by the caller)
    return np.array(
        [
            [ALPHA * (u1 + THETA * u2), ALPHA * (u3 + THETA * u4)],
            [1j * ALPHA_BAR * (u3 + THETA_BAR * u4), ALPHA_BAR * (u1 + THETA_BAR * u2)],
        ]
    )


def encode_direct(s, variant="new"):
    """Encode 8 complex symbols into the 4x4 codeword matrix.

    Rows are transmit antennas, columns are channel uses.  Includes the
    1/sqrt(5) Golden-code scaling; with unit-energy symbols every codeword
    entry has unit average energy.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown codeword variant {variant!r}; expected one of {VARIANTS}")
    s = np.asarray(s, dtype=complex).ravel()
    if s.size != N_SYMBOLS:
        raise ValueError(f"expected {N_SYMBOLS} symbols, got {s.size}")
    if variant == "original":
        g1 = _golden_block(s[0], s[1], s[2], s[3])
        g2 = _golden_block(s[4], s[5], s[6], s[7])
    else:
        g1 = _golden_block(s[0], s[1], s[4], s[5])
        g2 = _golden_block(s[2], s[3], s[6], s[7])
    x = np.empty((4, 4), dtype=complex)
    x[:2, :2] = g1
    x[:2, 2:] = -g2.conj()
    x[2:, :2] = g2
    x[2:, 2:] = g1.conj()
    x *= SCALE
    return x


@functools.lru_cache(maxsize=None)
def build_generator(variant="new"):
    """32x16 real generator matrix G with ``tilde(vec(X)) = G @ tilde(s)``.

    Column 2j holds the codeword response to ``s_j = 1`` and column 2j+1 the
    response to ``s_j = i`` (both interleaved re/im), i.e. the columns are
    the weight matrices of the real and imaginary part of each symbol.  The
    matrix is derived by encoding basis vectors rather than transcribed by
    hand (:func:`encode_direct` refuses an unknown variant).  Cached and
    returned read-only.
    """
    cols = []
    basis = np.zeros(N_SYMBOLS, dtype=complex)
    for j in range(N_SYMBOLS):
        basis[j] = 1.0
        cols.append(tilde_interleave(vec_stack(encode_direct(basis, variant))))
        basis[j] = 1j
        cols.append(tilde_interleave(vec_stack(encode_direct(basis, variant))))
        basis[j] = 0.0
    g = np.column_stack(cols)
    g.flags.writeable = False
    return g
