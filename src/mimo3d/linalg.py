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
operates on.  The QR factor is the unique one with a positive diagonal in R,
computed by one LAPACK Householder pass: the off-diagonal entries of R are
the inner products ``<q_j, h_k>`` of the orthonormal columns with the
*original* columns, and the diagonal holds the residual norms, the same
factor classical Gram-Schmidt defines but accurate to rounding even on
ill-conditioned matrices (Golub and Van Loan, *Matrix Computations*, section
5.2).  The decoders rely on exactly this form of R.  Q itself is never
formed: the pass runs over the augmented matrix ``[A | y]``, whose last
column comes out as the rotated receive vector ``z = Q^T y`` (section 5.3).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .modem import build_qam

# An R diagonal entry below this fraction of the largest one is treated as
# rank deficiency.  The rule is relative, so it holds at any channel scale;
# for random fading channels it is a probability-zero event and the trial is
# redrawn.
RANK_TOL = 1e-12

MAX_SCALE = 2.0**256  # the input scale bound of require_decodable


class RankDeficiencyError(ValueError):
    """A matrix handed to QR is numerically rank deficient."""


class QRFactors(NamedTuple):
    r: np.ndarray  # (n, n), upper triangular, positive diagonal
    z: np.ndarray | None  # (n,), Q^T y; None when no y was given


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
    return np.array(v, dtype=complex).ravel().view(float)


def complex_from_interleaved(v):
    """Inverse of :func:`tilde_interleave`: [x1_re, x1_im, ..] -> [x1, ..].

    A dtype view of a fresh float copy, so every part comes back bit for bit
    (a -0.0, a subnormal, a huge value) and the result never shares memory
    with ``v``.  ``v`` must hold an even number of entries.
    """
    return np.array(v, dtype=float).ravel().view(complex)


def vec_stack(m):
    """Stack the columns of a matrix into one vector (column-major)."""
    return np.asarray(m).T.ravel()


def gram_schmidt_qr(a, y=None):
    """R factor of a tall matrix with independent columns, and ``Q^T y``.

    Returns ``QRFactors(r, z)``: the unique upper-triangular ``r`` with a
    positive diagonal and ``a = Q r`` for some ``Q`` with orthonormal
    columns, ``r[j, j] = ||residual_j||`` and ``r[j, k] = <q_j, a[:, k]>``
    for j < k, the factor Gram-Schmidt defines; and ``z = Q^T y``, or None
    without ``y``.  One LAPACK Householder pass (``np.linalg.qr``, raw mode)
    factors ``[a | y]``; Q is never formed.  Rows of ``r`` and entries of
    ``z`` whose diagonal entry came out negative change sign.  Entries below
    the diagonal are exact zeros.

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
    if y is not None:
        aug = np.empty((m, n + 1))
        aug[:, :n] = a
        aug[:, n] = np.asarray(y, dtype=float).ravel()
        a = aug
    # raw mode returns the factored matrix transposed: R^T in its lower
    # triangle, and the rotated y in row n
    h, _ = np.linalg.qr(a, mode="raw")
    r = h[:n, :n].T.copy()
    r[_strictly_lower(n)] = 0.0  # the Householder vectors
    sign = np.copysign(1.0, r.diagonal())
    r *= sign[:, None]
    require_full_rank(r.diagonal().tolist())
    return QRFactors(r, None if y is None else h[n, :n] * sign)


@functools.cache
def _strictly_lower(n):
    # built once per size: np.tri costs more than the rest of the clean-up
    return np.tri(n, k=-1, dtype=bool)


def require_full_rank(diag):
    """Raise :class:`RankDeficiencyError` unless every entry of ``diag``, the
    diagonal of an R factor, is positive and at least ``RANK_TOL`` times the
    largest entry: ``r_jj < RANK_TOL * max_k r_kk`` is rank deficiency at
    any scale.  A NaN entry fails the rule.  Runs once per decode, in
    :func:`gram_schmidt_qr`."""
    top = max(diag)
    floor = RANK_TOL * top
    for j, d in enumerate(diag):
        if not (d > 0.0 and d >= floor):  # also true for a NaN entry or floor
            raise RankDeficiencyError(
                f"column {j} numerically dependent (R diagonal {d:.3e}, largest {top:.3e})"
            )


def require_decodable(y_tilde, h_eq, constellation):
    """Check one decode's input and return it as float arrays ``(y, h_eq)``,
    ``y`` ravelled: the only conversion a decode makes.  Raises
    :class:`TypeError` unless ``constellation`` is the object
    :func:`~mimo3d.modem.build_qam` returns for its order, not a copy or a
    forgery, and :class:`ValueError` naming the argument that is ragged, has
    the wrong shape, a dtype other than real float or integer, a NaN or inf,
    or a scale the decoders cannot run on.

    ``h_eq`` must be 16x16 and ``y_tilde`` of shape (16,) or (16, 1): any
    other layout of 16 entries, such as a 4x4 block of real and imaginary
    rows, would ravel to a wrong order and decode silently to other symbols.
    Both are the real interleaved model (:func:`tilde_interleave`,
    :func:`check_expand_matrix`): a complex dtype, even with zero imaginary
    parts, is refused, because converting it to float would drop the
    imaginary parts, and so is a bool, str, bytes or object one.  The search
    distances are squares of entries at the scale of the input, which
    overflow from about 1e154 and lose bits below about 1e-154, so
    ``max|h_eq|`` must lie within ``[2^-256, 2^256]`` and ``max|y_tilde|``
    be at most ``2^256``.  Not a :class:`RankDeficiencyError`, which the
    sweep would swallow and resample."""
    try:
        forged = constellation is not build_qam(constellation.order)
    except (AttributeError, TypeError, ValueError):  # no order, or not a supported one
        forged = True
    if forged:
        raise TypeError(f"constellation must be build_qam(M)'s own, not {constellation!r:.40}")
    try:
        y_tilde = np.asarray(y_tilde)
        h_eq = np.asarray(h_eq)
    except ValueError as err:  # a ragged nesting, such as [[1.0] * 16, [2.0]]
        name = "h_eq" if isinstance(y_tilde, np.ndarray) else "y_tilde"
        raise ValueError(f"{name} is not a rectangular array: {err}") from None
    if h_eq.shape != (16, 16):
        raise ValueError(f"h_eq has shape {h_eq.shape}; the decoders need 16x16")
    if y_tilde.shape not in ((16,), (16, 1)):
        raise ValueError(f"y_tilde has shape {y_tilde.shape}; the decoders need (16,) or (16, 1)")
    for name, value, low, need in (("y_tilde", y_tilde, 0.0, "at most 2^256"),
                                   ("h_eq", h_eq, 1.0 / MAX_SCALE, "within [2^-256, 2^256]")):
        if value.dtype.kind == "c":
            raise ValueError(f"{name} has a complex dtype; the decoders need the real "
                             "interleaved model")
        if value.dtype.kind not in "fiu":
            raise ValueError(f"{name} has dtype {value.dtype}; the decoders need real numbers")
        top = float(np.abs(value, dtype=float).max())
        if not top < np.inf:  # also true for NaN
            raise ValueError(f"{name} contains NaN or inf; the decoders need finite input")
        if not low <= top <= MAX_SCALE:
            raise ValueError(f"{name} has largest magnitude {top:.3e}; the decoders need {need}")
    return y_tilde.astype(float, copy=False).ravel(), h_eq.astype(float, copy=False)


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
