"""Quasi-static Rayleigh channel, AWGN and the equivalent real model.

One channel realization is held constant over one codeword (T = 4 uses) and
redrawn independently for the next codeword; the fast decoder's R-structure
results require exactly this quasi-static behavior.

SNR convention (fixed for every decoder in this package): SNR is the average
received signal energy per receive antenna per channel use divided by the
noise energy per complex sample, computed analytically from E|h|^2 = 1,
unit-energy symbols and the generator column norms:

    signal power / rx antenna / use = energy * trace(G^T G) / (2 T)
    SNR = signal power / (2 sigma^2)

where sigma^2 is the noise variance per real dimension.  For this code
trace(G^T G) = 32 and T = 4, so sigma^2 = 2 / SNR_linear.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .code import BLOCK_LEN, build_generator
from .linalg import check_expand_matrix, gram_schmidt_qr, tilde_interleave, vec_stack

N_RX = 2


def check_integer(name, value, low):
    """Raise :class:`ValueError` naming ``name`` unless ``value`` is an
    ``int`` or a NumPy integer, not ``bool``, and at least ``low``."""
    # bool is an int, but True as a count, seed or stream id is a mistake
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def derive_rng(seed, *stream_ids):
    """Deterministic, independent random stream for (seed, stream ids).

    Identical arguments always reproduce identical draws; distinct stream
    ids give statistically independent sequences.  Used to make Monte-Carlo
    trials reproducible and order-independent.  The seed and every stream id
    must be a non-negative integer (:func:`check_integer`).
    """
    check_integer("seed", seed, 0)
    for i, x in enumerate(stream_ids):
        check_integer(f"stream_ids[{i}]", x, 0)
    ids = tuple(int(x) for x in stream_ids)
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + ids))


def sample_channel(rng):
    """Draw a 2x4 channel with i.i.d. CN(0, 1) entries (E|h|^2 = 1)."""
    re = rng.standard_normal((N_RX, 4))
    im = rng.standard_normal((N_RX, 4))
    return (re + 1j * im) / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class EquivalentChannel:
    """Real equivalent channel ``h_eq = (I_T kron check(H)) G`` plus its QR."""

    h_eq: np.ndarray  # 16x16 real

    @functools.cached_property
    def qr(self):
        """``gram_schmidt_qr(h_eq)``, computed on first access and then kept:
        ``.r`` is the R factor (no ``y`` is rotated, so ``.z`` is None).

        Raises :class:`~mimo3d.linalg.RankDeficiencyError` for a degenerate
        realization.
        """
        return gram_schmidt_qr(self.h_eq)


def make_equivalent(h, variant="new"):
    """Build the equivalent channel of a 2x4 realization for a codeword ordering.

    ``h_eq = (I_T kron check(H)) G`` is formed as one batched product: the
    8x16 row group t of ``G`` (channel use t) is multiplied by the 4x8
    ``check(H)``, without building the Kronecker product.  Its QR (``.qr``)
    is computed on first use; the decoders factor ``h_eq`` themselves, so a
    caller that only hands ``h_eq`` to a decoder never pays for it.
    """
    try:
        shape = np.shape(h)
    except ValueError as err:  # a ragged nesting, such as [[1] * 4, [1] * 3]
        raise ValueError(f"h is not a rectangular array: {err}") from None
    if shape != (N_RX, 4):
        raise ValueError(f"h has shape {shape}; the equivalent channel needs 2x4")
    g = build_generator(variant)
    h_eq = (check_expand_matrix(h) @ g.reshape(BLOCK_LEN, -1, g.shape[1])).reshape(16, 16)
    return EquivalentChannel(h_eq=h_eq)


def transmit(x, h, sigma2, rng):
    """Pass a codeword through the channel and add complex AWGN.

    Noise entries are i.i.d. complex Gaussian with variance ``2 * sigma2``
    per complex sample (``sigma2`` per real dimension).  Returns the 2x4
    received matrix and its interleaved real form (noise is added in the
    complex domain and then interleaved, so the real-model statistics are
    exact).
    """
    w = np.sqrt(sigma2) * (rng.standard_normal((N_RX, 4)) + 1j * rng.standard_normal((N_RX, 4)))
    y = h @ x + w
    return y, tilde_interleave(vec_stack(y))


def snr_to_sigma2(snr_db, constellation):
    """Per-real-dimension noise variance for a target SNR in dB.

    Uses the module-level SNR convention (see module docstring).  The mean
    symbol energy is taken from ``constellation`` (1 by construction) and
    the transmit power from the code generator's column norms.
    """
    generator = build_generator("new")
    energy = float(np.mean(np.abs(constellation.points) ** 2))
    signal_power = energy * float(np.trace(generator.T @ generator)) / (2.0 * BLOCK_LEN)
    return signal_power / (2.0 * 10.0 ** (snr_db / 10.0))
