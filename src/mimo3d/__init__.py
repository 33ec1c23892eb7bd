"""3D MIMO space-time block code: encoding, link simulation, fast ML decoding.

The 3D MIMO code stacks two Golden codewords in an Alamouti pattern,
transmitting eight symbols from four antennas over four channel uses to two
receive antennas (full rate 2).  This package implements the whole chain at
desk scale: the codeword and its 32x16 generator, the real-valued equivalent
channel model, a quasi-static Rayleigh Monte-Carlo harness, and three
instrumented decoders -- an exhaustive ML oracle, a classical
Schnorr-Euchner sphere decoder, and a two-stage simplified decoder that
reaches the ML solution in O(M^4.5) worst case by exploiting the zero
structure of the equivalent channel's R factor.
"""

from .channel import (
    EquivalentChannel,
    derive_rng,
    make_equivalent,
    sample_channel,
    snr_to_sigma2,
    transmit,
)
from .code import (
    ALPHA,
    ALPHA_BAR,
    SCALE,
    THETA,
    THETA_BAR,
    VARIANTS,
    build_generator,
    encode_direct,
)
from .counters import OpCounters
from .decoders import (
    DecodeResult,
    StructureReport,
    column_switch,
    compute_v,
    get_decoder,
    ml_bruteforce,
    parallel_decisions,
    simplified_ml,
    verify_r_structure,
    zf_estimate,
)
from .linalg import (
    QRFactors,
    RankDeficiencyError,
    check_expand_matrix,
    complex_from_interleaved,
    gram_schmidt_qr,
    tilde_interleave,
    vec_stack,
)
from .modem import PamSet, QamConstellation, build_qam, nearest_qam, se_order, slice_pam
from .sweep import (
    SweepConfig,
    SweepRow,
    read_csv,
    run_sweep,
    structure_sweep,
    summarize,
    write_csv,
)

__version__ = "0.1.0"
