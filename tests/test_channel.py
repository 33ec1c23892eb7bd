import numpy as np
import pytest

from mimo3d import (
    build_qam,
    channel,
    derive_rng,
    encode_direct,
    make_equivalent,
    sample_channel,
    snr_to_sigma2,
    transmit,
)
from mimo3d.code import build_generator
from mimo3d.decoders import verify_r_structure
from mimo3d.decoders.structure import REL_TOL
from mimo3d.linalg import check_expand_matrix, gram_schmidt_qr, tilde_interleave, vec_stack


def test_channel_unit_average_power():
    rng = derive_rng(100)
    draws = np.array([sample_channel(rng) for _ in range(20_000)])
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02


def test_rng_determinism():
    a = derive_rng(42, 7).standard_normal(32)
    b = derive_rng(42, 7).standard_normal(32)
    assert np.array_equal(a, b)
    c = derive_rng(42, 8).standard_normal(32)
    assert not np.array_equal(a, c)


def test_rng_streams_uncorrelated():
    x = derive_rng(42, 0).standard_normal(20_000)
    y = derive_rng(42, 1).standard_normal(20_000)
    rho = np.corrcoef(x, y)[0, 1]
    assert abs(rho) < 0.02


def test_equivalent_channel_matches_complex_path():
    rng = derive_rng(101)
    for variant in ("new", "original"):
        for _ in range(50):
            h = sample_channel(rng)
            eq = make_equivalent(h, variant)
            # the definition, with the Kronecker product formed explicitly
            kron = np.kron(np.eye(4), check_expand_matrix(h)) @ build_generator(variant)
            assert np.abs(eq.h_eq - kron).max() < 1e-12
            s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            lhs = eq.h_eq @ tilde_interleave(s)
            rhs = tilde_interleave(vec_stack(h @ encode_direct(s, variant)))
            assert np.abs(lhs - rhs).max() < 1e-10


def test_equivalent_channel_gram_zero_block():
    rng = derive_rng(102)
    h = sample_channel(rng)
    eq = make_equivalent(h, "new")
    cross = eq.h_eq[:, 0:4].T @ eq.h_eq[:, 4:8]
    assert np.abs(cross).max() < 1e-9 * np.abs(eq.qr.r).max()
    # the original symbol ordering does not have this orthogonality
    eq_orig = make_equivalent(h, "original")
    rep = verify_r_structure(eq_orig.qr.r, eq_orig.h_eq)
    assert rep.gram_cross > REL_TOL


def test_variants_give_different_zero_pattern():
    rng = derive_rng(103)
    h = sample_channel(rng)
    eq_new, eq_orig = make_equivalent(h, "new"), make_equivalent(h, "original")
    rep_new = verify_r_structure(eq_new.qr.r, eq_new.h_eq)
    rep_orig = verify_r_structure(eq_orig.qr.r, eq_orig.h_eq)
    assert rep_new.ok
    assert rep_orig.r12_block > REL_TOL


def test_transmit_noiseless():
    rng = derive_rng(104)
    c = build_qam(4)
    s = c.points[rng.integers(0, 4, 8)]
    h = sample_channel(rng)
    x = encode_direct(s, "new")
    _, y_tilde = transmit(x, h, 0.0, rng)
    eq = make_equivalent(h, "new")
    assert np.abs(y_tilde - eq.h_eq @ tilde_interleave(s)).max() < 1e-12


def test_transmit_noise_variance():
    rng = derive_rng(105)
    h = np.zeros((2, 4), dtype=complex)  # isolate the noise
    x = np.zeros((4, 4), dtype=complex)
    sigma2 = 0.37
    samples = []
    for _ in range(12_500):  # 1e5 complex noise draws
        y, _ = transmit(x, h, sigma2, rng)
        samples.append(y)
    w = np.array(samples)
    per_complex = np.mean(np.abs(w) ** 2)
    assert abs(per_complex - 2 * sigma2) < 0.02 * 2 * sigma2
    assert abs(np.var(w.real) - sigma2) < 0.02 * sigma2


def test_transmit_reproducible():
    c = build_qam(4)
    s = c.points[[0, 1, 2, 3, 0, 1, 2, 3]]
    h = sample_channel(derive_rng(106))
    x = encode_direct(s, "new")
    y1, t1 = transmit(x, h, 0.5, derive_rng(107, 1))
    y2, t2 = transmit(x, h, 0.5, derive_rng(107, 1))
    assert np.array_equal(y1, y2)
    assert np.array_equal(t1, t2)


def test_snr_db_arithmetic():
    c = build_qam(16)
    s1 = snr_to_sigma2(10.0, c)
    s2 = snr_to_sigma2(10.0 - 10 * np.log10(2), c)
    assert abs(s2 / s1 - 2.0) < 1e-12  # doubling sigma2 costs 3.010 dB


def test_snr_reference_value():
    # with trace(G^T G) = 32, T = 4 and unit symbol energy: sigma2(0 dB) = 2
    assert abs(snr_to_sigma2(0.0, build_qam(4)) - 2.0) < 1e-12


def test_make_equivalent_caches_qr():
    eq = make_equivalent(sample_channel(derive_rng(108)), "new")
    r = eq.qr.r
    assert np.abs(r.T @ r - eq.h_eq.T @ eq.h_eq).max() < 1e-9


def test_make_equivalent_factors_lazily(monkeypatch):
    # the QR runs on first access of eq.qr, once, through the module global
    calls = []

    def counting_qr(a):
        calls.append(a)
        return gram_schmidt_qr(a)

    monkeypatch.setattr(channel, "gram_schmidt_qr", counting_qr)
    eq = make_equivalent(sample_channel(derive_rng(108)), "new")
    assert calls == []
    first = eq.qr
    assert eq.qr is first
    assert len(calls) == 1 and calls[0] is eq.h_eq


@pytest.mark.parametrize("variant", ["new", "original"])
def test_equivalent_channel_shape(variant):
    eq = make_equivalent(sample_channel(derive_rng(109)), variant)
    assert eq.h_eq.shape == (16, 16)
