import math

import numpy as np
import pytest

from mimo3d.linalg import (
    QRFactors,
    RankDeficiencyError,
    back_substitute,
    check_expand_matrix,
    complex_from_interleaved,
    gram_schmidt_qr,
    require_full_rank,
    tilde_interleave,
    vec_stack,
)


def test_check_expand_values():
    # a 1x1 input is the scalar expansion a+ib -> [[a, -b], [b, a]]
    assert np.array_equal(check_expand_matrix([[1 + 0j]]), np.eye(2))
    assert np.array_equal(check_expand_matrix([[1j]]), [[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(check_expand_matrix([[3 - 2j]]), [[3.0, 2.0], [-2.0, 3.0]])


def test_check_expand_is_ring_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        lhs = check_expand_matrix([[a * b]])
        rhs = check_expand_matrix([[a]]) @ check_expand_matrix([[b]])
        assert np.abs(lhs - rhs).max() < 1e-12


def test_check_expand_matrix_blocks():
    assert np.array_equal(check_expand_matrix([[1j]]), [[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(check_expand_matrix(np.eye(2)), np.eye(4))


def test_check_expand_matrix_matches_complex_multiply():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    lhs = check_expand_matrix(h) @ tilde_interleave(v)
    rhs = tilde_interleave(h @ v)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_tilde_interleave_values():
    assert np.array_equal(tilde_interleave([1 + 2j]), [1.0, 2.0])
    assert np.array_equal(tilde_interleave([1j, -1j]), [0.0, 1.0, 0.0, -1.0])


def test_tilde_interleave_roundtrip():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert np.array_equal(complex_from_interleaved(tilde_interleave(v)), v)
    # signed zeros, subnormals and huge parts survive bit for bit, and no
    # result shares memory with its argument
    parts = np.array([-0.0, 0.0, 5e-324, -1e-310, 1e300, -1e300, 0.7071067811865476, -0.0])
    v = parts.copy().view(complex)
    flat = tilde_interleave(v)
    assert flat.tobytes() == parts.tobytes()
    back = complex_from_interleaved(flat)
    assert back.tobytes() == v.tobytes()
    assert not np.shares_memory(flat, v)
    assert not np.shares_memory(back, flat)
    # a column vector and a plain list read the same
    assert complex_from_interleaved(flat.reshape(-1, 1)).tobytes() == v.tobytes()
    assert complex_from_interleaved(parts.tolist()).tobytes() == v.tobytes()


def test_vec_stack():
    assert np.array_equal(vec_stack([[1, 2], [3, 4]]), [1, 3, 2, 4])
    assert np.array_equal(vec_stack([[5], [6]]), [5, 6])
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(vec_stack(m).reshape(4, 3).T, m)  # vec then reshape round-trips


def test_gram_schmidt_identity():
    r, z = gram_schmidt_qr(np.eye(4), [1.0, -2.0, 3.0, -4.0])
    assert np.array_equal(r, np.eye(4))
    assert np.array_equal(z, [1.0, -2.0, 3.0, -4.0])
    assert gram_schmidt_qr(np.eye(4)).z is None


def test_gram_schmidt_single_column():
    r, z = gram_schmidt_qr(np.array([[3.0], [4.0]]), [1.0, 2.0])
    assert np.allclose(r, [[5.0]])
    assert np.allclose(z, [2.2])  # <(0.6, 0.8), (1, 2)>


def _check_factor(a, y, r, z, tol):
    # R^T R = A^T A and R^T z = A^T y hold for A = Q R, z = Q^T y with any
    # orthonormal Q, and pin down the positive-diagonal R and z
    scale = np.abs(a).max()
    assert np.abs(r.T @ r - a.T @ a).max() <= tol * scale**2
    assert np.abs(r.T @ z - a.T @ y).max() <= tol * scale * np.abs(y).max()
    assert (np.diag(r) > 0).all()
    assert np.array_equal(np.tril(r, -1), np.zeros_like(r))  # exact zeros below


def test_gram_schmidt_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        a = rng.standard_normal((16, 16))
        y = rng.standard_normal(16)
        r, z = gram_schmidt_qr(a, y)
        _check_factor(a, y, r, z, 1e-12)
        # Q is square, so the rotation keeps the norm
        assert abs(np.linalg.norm(z) - np.linalg.norm(y)) <= 1e-12 * np.linalg.norm(y)
        # without y: the same factor, up to the rounding of the wider pass
        assert np.abs(gram_schmidt_qr(a).r - r).max() <= 1e-12 * np.abs(r).max()


def test_gram_schmidt_tall_matrix():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((7, 4))
    y = rng.standard_normal(7)
    r, z = gram_schmidt_qr(a, y)
    _check_factor(a, y, r, z, 1e-12)
    # z is the projection of y on range(A) in the basis Q: ||z|| <= ||y||
    x = np.linalg.lstsq(a, y, rcond=None)[0]
    assert abs(np.linalg.norm(z) - np.linalg.norm(a @ x)) <= 1e-12


def test_qr_contract_ill_conditioned():
    # kappa = 1e8: classical Gram-Schmidt loses orthogonality here; the
    # Householder factor must keep R^T R = A^T A to rounding in A^T A and
    # rotate y by an orthonormal Q
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    v, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    a = u @ np.diag(np.logspace(0, -8, 16)) @ v.T
    y = rng.standard_normal(16)
    r, z = gram_schmidt_qr(a, y)
    _check_factor(a, y, r, z, 1e-14)
    assert abs(np.linalg.norm(z) - np.linalg.norm(y)) <= 1e-14
    # the singular values of R are those of A, down to the smallest
    assert np.abs(np.linalg.svd(r, compute_uv=False) / np.logspace(0, -8, 16) - 1.0).max() <= 1e-7


def test_gram_schmidt_rank_deficiency():
    a = np.ones((4, 2))
    with pytest.raises(RankDeficiencyError):
        gram_schmidt_qr(a)


@pytest.mark.parametrize("scale", [2.0**-46, 2.0**46])
def test_gram_schmidt_rank_rule_is_relative(scale):
    rng = np.random.default_rng(14)
    a = rng.standard_normal((16, 16))
    y = rng.standard_normal(16)
    r, z = gram_schmidt_qr(a * scale, y * scale)
    want = gram_schmidt_qr(a, y)
    assert np.array_equal(r, want.r * scale)
    assert np.array_equal(z, want.z * scale)
    a[:, 5] = a[:, 2]
    with pytest.raises(RankDeficiencyError):
        gram_schmidt_qr(a * scale, y * scale)


@pytest.mark.parametrize("diag", [[math.nan, 1.0], [1.0, math.nan], [math.nan] * 3])
def test_rank_rule_fails_nan_entries(diag):
    # min and max skip a NaN that is not first; the rule must not
    with pytest.raises(RankDeficiencyError):
        require_full_rank(diag)


def test_gram_schmidt_result_type():
    assert isinstance(gram_schmidt_qr(np.eye(3)), QRFactors)
    assert isinstance(gram_schmidt_qr(np.eye(3), np.ones(3)), QRFactors)


def test_back_substitute():
    r = np.array([[2.0, 1.0], [0.0, 4.0]])
    x = back_substitute(r, np.array([4.0, 8.0]))
    assert isinstance(x, np.ndarray)
    assert np.allclose(r @ x, [4.0, 8.0])
    rng = np.random.default_rng(12)
    for _ in range(50):
        r = np.triu(rng.standard_normal((16, 16))) + 4.0 * np.eye(16)
        x = rng.standard_normal(16)
        assert np.abs(back_substitute(r, r @ x) - x).max() <= 1e-12
