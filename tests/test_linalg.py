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


def test_vec_stack():
    assert np.array_equal(vec_stack([[1, 2], [3, 4]]), [1, 3, 2, 4])
    assert np.array_equal(vec_stack([[5], [6]]), [5, 6])
    m = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(vec_stack(m).reshape(4, 3).T, m)  # vec then reshape round-trips


def test_gram_schmidt_identity():
    q, r = gram_schmidt_qr(np.eye(4))
    assert np.array_equal(q, np.eye(4))
    assert np.array_equal(r, np.eye(4))


def test_gram_schmidt_single_column():
    q, r = gram_schmidt_qr(np.array([[3.0], [4.0]]))
    assert np.allclose(q, [[0.6], [0.8]])
    assert np.allclose(r, [[5.0]])


def test_gram_schmidt_random_matrices():
    rng = np.random.default_rng(5)
    eye = np.eye(16)
    for _ in range(1000):
        a = rng.standard_normal((16, 16))
        q, r = gram_schmidt_qr(a)
        assert np.abs(q.T @ q - eye).max() <= 1e-10
        assert np.abs(q @ r - a).max() <= 1e-9
        assert (np.diag(r) >= 0).all()
        assert np.array_equal(np.tril(r, -1), np.zeros((16, 16)))  # exact zeros below


def test_qr_contract_ill_conditioned():
    # kappa = 1e8: classical Gram-Schmidt loses orthogonality here (about
    # 8e-2); the factor must stay orthonormal and keep the Gram-Schmidt form
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    v, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    a = u @ np.diag(np.logspace(0, -8, 16)) @ v.T
    q, r = gram_schmidt_qr(a)
    assert np.linalg.norm(q.T @ q - np.eye(16), 2) <= 1e-12
    assert np.abs(q @ r - a).max() <= 1e-14
    assert (np.diag(r) > 0).all()
    assert np.array_equal(np.tril(r, -1), np.zeros((16, 16)))  # exact zeros below
    # r[j, k] = <q_j, a_k> on and above the diagonal
    assert np.abs(np.triu(q.T @ a) - r).max() <= 1e-14


def test_gram_schmidt_rank_deficiency():
    a = np.ones((4, 2))
    with pytest.raises(RankDeficiencyError):
        gram_schmidt_qr(a)


@pytest.mark.parametrize("scale", [2.0**-46, 2.0**46])
def test_gram_schmidt_rank_rule_is_relative(scale):
    rng = np.random.default_rng(14)
    a = rng.standard_normal((16, 16))
    q, r = gram_schmidt_qr(a * scale)
    assert np.array_equal(q, gram_schmidt_qr(a).q)
    assert np.array_equal(r, gram_schmidt_qr(a).r * scale)
    a[:, 5] = a[:, 2]
    with pytest.raises(RankDeficiencyError):
        gram_schmidt_qr(a * scale)


@pytest.mark.parametrize("diag", [[math.nan, 1.0], [1.0, math.nan], [math.nan] * 3])
def test_rank_rule_fails_nan_entries(diag):
    # min and max skip a NaN that is not first; the rule must not
    with pytest.raises(RankDeficiencyError):
        require_full_rank(diag)


def test_gram_schmidt_result_type():
    out = gram_schmidt_qr(np.eye(3))
    assert isinstance(out, QRFactors)


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
