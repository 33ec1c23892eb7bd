import math

import numpy as np

from mimo3d.code import (
    ALPHA,
    ALPHA_BAR,
    SCALE,
    THETA,
    THETA_BAR,
    build_generator,
    encode_direct,
)
from mimo3d.linalg import tilde_interleave, vec_stack

# exchanges (s3, s4) with (s5, s6), 0-based: the "new" ordering's symbols in
# the original ordering's positions
NEW_TO_ORIGINAL = [0, 1, 4, 5, 2, 3, 6, 7]


def _random_symbols(rng, n=8):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_golden_constants():
    assert abs(THETA - 1.6180339887) < 1e-10
    assert abs(THETA * THETA_BAR + 1.0) < 1e-12
    assert ALPHA == 1 + 1j * (1 - THETA)
    assert ALPHA_BAR == 1 + 1j * (1 - THETA_BAR)
    assert abs(SCALE - 1 / math.sqrt(5)) < 1e-15


def test_encode_zero_symbols():
    for variant in ("new", "original"):
        assert np.array_equal(encode_direct(np.zeros(8), variant), np.zeros((4, 4)))


def test_first_entry_for_unit_symbol():
    s = np.zeros(8, dtype=complex)
    s[0] = 1.0
    x = encode_direct(s, "new")
    assert abs(x[0, 0] - (1 - 0.6180339887j) / math.sqrt(5)) < 1e-10
    assert abs(x[0, 0] - ALPHA * SCALE) < 1e-15


def _literal_original(s):
    # entry-by-entry transcription of the original codeword display,
    # kept independent of the Alamouti-of-Golden assembly in code.py
    s1, s2, s3, s4, s5, s6, s7, s8 = s
    a, ab, t, tb = ALPHA, ALPHA_BAR, THETA, THETA_BAR
    ac, abc = a.conjugate(), ab.conjugate()

    def c(x):
        return x.conjugate()

    x = np.array([
        [a * (s1 + t * s2), a * (s3 + t * s4), -ac * (c(s5) + t * c(s6)), -ac * (c(s7) + t * c(s8))],
        [1j * ab * (s3 + tb * s4), ab * (s1 + tb * s2), 1j * abc * (c(s7) + tb * c(s8)), -abc * (c(s5) + tb * c(s6))],
        [a * (s5 + t * s6), a * (s7 + t * s8), ac * (c(s1) + t * c(s2)), ac * (c(s3) + t * c(s4))],
        [1j * ab * (s7 + tb * s8), ab * (s5 + tb * s6), -1j * abc * (c(s3) + tb * c(s4)), abc * (c(s1) + tb * c(s2))],
    ])
    return SCALE * x


def _literal_new(s):
    s1, s2, s3, s4, s5, s6, s7, s8 = s
    a, ab, t, tb = ALPHA, ALPHA_BAR, THETA, THETA_BAR
    ac, abc = a.conjugate(), ab.conjugate()

    def c(x):
        return x.conjugate()

    x = np.array([
        [a * (s1 + t * s2), a * (s5 + t * s6), -ac * (c(s3) + t * c(s4)), -ac * (c(s7) + t * c(s8))],
        [1j * ab * (s5 + tb * s6), ab * (s1 + tb * s2), 1j * abc * (c(s7) + tb * c(s8)), -abc * (c(s3) + tb * c(s4))],
        [a * (s3 + t * s4), a * (s7 + t * s8), ac * (c(s1) + t * c(s2)), ac * (c(s5) + t * c(s6))],
        [1j * ab * (s7 + tb * s8), ab * (s3 + tb * s4), -1j * abc * (c(s5) + tb * c(s6)), abc * (c(s1) + tb * c(s2))],
    ])
    return SCALE * x


def test_encode_matches_literal_transcription():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = _random_symbols(rng)
        assert np.abs(encode_direct(s, "original") - _literal_original(s)).max() < 1e-14
        assert np.abs(encode_direct(s, "new") - _literal_new(s)).max() < 1e-14


def test_new_is_original_of_swapped_symbols():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = _random_symbols(rng)
        swapped = s[NEW_TO_ORIGINAL]
        assert np.array_equal(encode_direct(s, "new"), encode_direct(swapped, "original"))


def test_permute_symbols():
    s = np.arange(1, 9, dtype=complex)
    assert np.array_equal(s[NEW_TO_ORIGINAL], [1, 2, 5, 6, 3, 4, 7, 8])
    # involution: the same exchange maps the original ordering back to the new one
    assert np.array_equal(s[NEW_TO_ORIGINAL][NEW_TO_ORIGINAL], s)


def test_generator_matches_direct_encoding():
    rng = np.random.default_rng(13)
    for variant in ("new", "original"):
        for _ in range(100):
            s = _random_symbols(rng)
            via_g = build_generator(variant) @ tilde_interleave(s)
            direct = tilde_interleave(vec_stack(encode_direct(s, variant)))
            assert np.abs(via_g - direct).max() < 1e-12


def test_generator_variant_column_block_swap():
    g_new = build_generator("new")
    g_orig = build_generator("original")
    # symbols (s3,s4) <-> (s5,s6) own real columns 4..7 and 8..11
    perm = list(range(16))
    perm[4:8], perm[8:12] = perm[8:12], perm[4:8]
    assert np.array_equal(g_new, g_orig[:, perm])


def test_generator_gram_is_twice_identity():
    # one-time numeric fixture: the generator has orthogonal columns of
    # squared norm 2, certifying the energy normalization
    for variant in ("new", "original"):
        g = build_generator(variant)
        assert np.abs(g.T @ g - 2.0 * np.eye(16)).max() < 1e-12


def test_encode_linearity_over_reals():
    rng = np.random.default_rng(14)
    for _ in range(20):
        s, t = _random_symbols(rng), _random_symbols(rng)
        a, b = rng.standard_normal(2)
        lhs = encode_direct(a * s + b * t, "new")
        rhs = a * encode_direct(s, "new") + b * encode_direct(t, "new")
        assert np.abs(lhs - rhs).max() < 1e-12


def test_codeword_energy_invariant_under_variant():
    rng = np.random.default_rng(15)
    for _ in range(20):
        s = _random_symbols(rng)
        e_new = np.sum(np.abs(encode_direct(s, "new")) ** 2)
        e_orig = np.sum(np.abs(encode_direct(s, "original")) ** 2)
        assert abs(e_new - e_orig) < 1e-12
