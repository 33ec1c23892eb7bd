"""Real/complex conversion operators and small dense QR kernels.

The complex MIMO model ``Y = H X + W`` is turned into an equivalent
real-valued model by three operators:

* ``check_expand_matrix`` maps each complex entry ``a + ib`` to the 2x2
  real block ``[[a, -b], [b, a]]`` that acts on interleaved (re, im) pairs
  exactly the way the scalar acts on complex numbers.
* ``tilde_interleave`` turns a complex vector into the interleaved real
  vector ``[x1_re, x1_im, ..., xn_re, xn_im]``.
* ``vec_stack`` stacks matrix columns into one vector.

Together they give ``tilde(vec(H X)) = (I_T kron check(H)) tilde(vec(X))``,
which is what everything downstream (equivalent channel, QR, decoders)
operates on.  The QR decomposition is the unique thin one with a positive
diagonal in R, computed by LAPACK's Householder QR: the off-diagonal entries
of R are the inner products ``<q_j, h_k>`` of the orthonormal columns with
the *original* columns, and the diagonal holds the residual norms, the same
factor classical Gram-Schmidt defines but with Q orthonormal to rounding
even on ill-conditioned matrices (Golub and Van Loan, *Matrix
Computations*, section 5.2).  The decoders rely on exactly this form of R.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# An R diagonal entry below this fraction of the largest one is treated as
# rank deficiency.  The rule is relative, so it holds at any channel scale;
# for random fading channels it is a probability-zero event and the trial is
# redrawn.
RANK_TOL = 1e-12


class RankDeficiencyError(ValueError):
    """A matrix handed to QR is numerically rank deficient."""


class QRFactors(NamedTuple):
    q: np.ndarray  # (m, n), orthonormal columns
    r: np.ndarray  # (n, n), upper triangular, nonnegative diagonal


def check_expand_matrix(m):
    """Blockwise 2x2 real expansion of a complex m-by-n matrix.

    The (j, k) 2x2 block of the result is ``[[a, -b], [b, a]]`` for
    ``m[j, k] = a + ib``, so the output is 2m-by-2n and satisfies
    ``check_expand_matrix(m) @ tilde_interleave(v) == tilde_interleave(m @ v)``.
    """
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    out = np.empty((2 * rows, 2 * cols))
    out[0::2, 0::2] = m.real
    out[0::2, 1::2] = -m.imag
    out[1::2, 0::2] = m.imag
    out[1::2, 1::2] = m.real
    return out


def tilde_interleave(v):
    """Interleave real and imaginary parts: [x1, .., xn] -> [x1_re, x1_im, ..]."""
    v = np.asarray(v, dtype=complex).ravel()
    out = np.empty(2 * v.size)
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def complex_from_interleaved(v):
    """Inverse of :func:`tilde_interleave`."""
    v = np.asarray(v, dtype=float).ravel()
    return v[0::2] + 1j * v[1::2]


def vec_stack(m):
    """Stack the columns of a matrix into one vector (column-major)."""
    return np.asarray(m).T.ravel()


def gram_schmidt_qr(a):
    """Thin QR of a tall matrix with independent columns, positive diagonal.

    Returns ``QRFactors(q, r)`` with ``a = q @ r``, orthonormal columns in
    ``q`` and the unique upper-triangular ``r`` with a positive diagonal:
    ``r[j, j] = ||residual_j||`` and ``r[j, k] = <q_j, a[:, k]>`` for j < k,
    the factor Gram-Schmidt defines.  It is computed by LAPACK (Householder,
    ``np.linalg.qr``), then the rows of ``r`` and the columns of ``q`` whose
    diagonal entry is negative change sign.  Entries below the diagonal are
    exact zeros.

    Raises
    ------
    RankDeficiencyError
        If a diagonal entry of ``r`` falls below ``RANK_TOL`` times the
        largest one (:func:`require_full_rank`).
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if m < n:
        raise ValueError("need at least as many rows as columns")
    q, r = np.linalg.qr(a)
    sign = np.copysign(1.0, r.diagonal())
    q *= sign
    r *= sign[:, None]
    require_full_rank(r.diagonal().tolist())
    return QRFactors(q, r)


def require_full_rank(diag):
    """Raise :class:`RankDeficiencyError` unless every entry of ``diag``, the
    diagonal (or part of it) of an R factor, is positive and at least
    ``RANK_TOL`` times the largest entry: ``r_jj < RANK_TOL * max_k r_kk``
    is rank deficiency at any scale.  A NaN entry fails the rule."""
    top = max(diag)
    floor = RANK_TOL * top
    # the common case, without a Python-level loop; min and max skip a NaN
    # that is not first, the sum is NaN if any entry is
    total = sum(diag)
    if min(diag) >= floor > 0.0 and total == total:
        return
    for j, d in enumerate(diag):
        if not (d > 0.0 and d >= floor):  # also true for a NaN entry or floor
            raise RankDeficiencyError(
                f"column {j} numerically dependent (R diagonal {d:.3e}, largest {top:.3e})"
            )


def require_finite(y_tilde, h_eq):
    """Raise :class:`ValueError` naming the argument that holds a NaN or inf.

    Deliberately not a :class:`RankDeficiencyError`, which the sweep would
    swallow and resample."""
    for name, value in (("y_tilde", y_tilde), ("h_eq", h_eq)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} contains NaN or inf; the decoders need finite input")


def back_substitute(r, z):
    """Solve ``r @ x = z`` for upper-triangular ``r``.

    Runs on plain Python floats (one ``tolist`` per argument); returns an
    ndarray.
    """
    rows = np.asarray(r, dtype=float).tolist()
    x = np.asarray(z, dtype=float).ravel().tolist()
    n = len(rows)
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = x[i]
        for k in range(i + 1, n):
            acc -= row[k] * x[k]
        x[i] = acc / row[i]
    return np.array(x)
