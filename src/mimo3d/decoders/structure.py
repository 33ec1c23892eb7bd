"""Zero-structure checks on the equivalent channel and its R factor.

For the "new" codeword ordering over a quasi-static channel, the
Gram-Schmidt R factor of the 16x16 equivalent channel satisfies:

* the (rows 1-4, cols 5-8) block is null -- the first two symbols are
  uncorrelated with the second two in the rotated receive signal;
* inside the leading 4x4 block, entries (1,2), (1,4), (2,3), (3,4) vanish --
  real and imaginary parts of the first symbol pair decouple;
* the second 4x4 diagonal block has the same pattern.

These reduce the joint 8-symbol ML search to the two-stage decoder.  The
same inner products vanish already at the Gram level, ``<h_j, h_k> = 0`` for
columns j = 1..4, k = 5..8, which is what the checks below measure.  Every
check is relative to its own scale (``max|R|`` for entries of R,
``max|H_eq|^2`` for Gram entries), so it holds at any channel scale.
:func:`verify_r_structure` is report-only.  The original symbol ordering
keeps the real/imaginary decoupling but breaks the claims named in
``ORIGINAL_BREAKS``.

The two-stage decoder's guard is :func:`two_stage_zeros`, run on the R
factor it decodes with: it checks every entry that either stage reads as
zero.  That covers the leading 8x8 block above and the same pattern in the
trailing 8x8 block, the tree stage's (rows 9-12 null in columns 13-16, and
the within-block zeros of both 4x4 diagonal blocks).  A Gram cross check
alone does not suffice: a channel with the zero Gram cross block but
without the within-block zeros decodes to a non-ML answer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

REL_TOL = 1e-9

# The claims the original codeword ordering breaks on a generic channel; it
# keeps the two within-block patterns.
ORIGINAL_BREAKS = ("r12_block", "gram_cross")

# The only coupled (row, column) pairs inside an 8x8 diagonal block of R, in
# block coordinates.  In the leading block, pair b is parallel branch b,
# (s1-role dim, s2-role dim): branches 0/1 handle re/im of the first symbol
# pair, 2/3 of the second.  The tree search looks them up in the trailing one.
COUPLED_DIMS = ((0, 2), (1, 3), (4, 6), (5, 7))


def _two_stage_zero_mask():
    block = np.triu(np.ones((8, 8), dtype=bool), k=1)
    for i, j in COUPLED_DIMS:
        block[i, j] = False
    mask = np.zeros((16, 16), dtype=bool)
    mask[:8, :8] = mask[8:, 8:] = block
    return mask


# every entry of the 16x16 R that the two-stage decoder reads as zero
_TWO_STAGE_ZEROS = _two_stage_zero_mask()


def _relative(value, scale):
    return value / scale if scale > 0 else value


def two_stage_zeros(r):
    """Largest ``|r_jk|`` over the entries of the 16x16 R factor that the
    two-stage decoder reads as zero, relative to ``max|R|``: outside the
    pairs ``COUPLED_DIMS``, the strictly upper triangle of both 8x8 diagonal
    blocks.  At or below ``REL_TOL`` both stages of the decode are exact
    ML on ``r``; above it they can return a non-ML answer."""
    r = np.asarray(r, dtype=float)
    return _relative(float(np.abs(r[_TWO_STAGE_ZEROS]).max()), float(np.abs(r).max()))


def gram_cross(h_eq):
    """Largest ``|<h_j, h_k>|`` over real columns j = 0..3, k = 4..7 of
    ``h_eq``, relative to ``max|H_eq|^2``: zero up to rounding for the "new"
    codeword ordering, of order one for the original ordering."""
    h_eq = np.asarray(h_eq, dtype=float)
    cross = float(np.abs(h_eq[:, 0:4].T @ h_eq[:, 4:8]).max())
    return _relative(cross, float(np.abs(h_eq).max()) ** 2)


@dataclass(frozen=True)
class StructureReport:
    """Largest relative violation per claim; a claim holds at or below
    ``REL_TOL``."""

    r12_block: float   # max |R[0:4, 4:8]| / max |R|
    r11_zeros: float   # max |R[0:4, 0:4]| over its asserted zeros, / max |R|
    r22_zeros: float   # same pattern in R[4:8, 4:8]
    gram_cross: float  # gram_cross(h_eq)

    @property
    def checks(self):
        """Every claim by name, in field order."""
        return asdict(self)

    @property
    def ok(self):
        return all(v <= REL_TOL for v in self.checks.values())


def verify_r_structure(r, h_eq):
    """Measure the asserted-zero entries of ``r``, the R factor of ``h_eq``,
    and the Gram cross block of ``h_eq``.

    Entries of R are measured relative to ``max|R|``, the Gram block by
    :func:`gram_cross`; a claim holds at or below ``REL_TOL``.  Never raises;
    callers decide what a failure means: for the "new" ordering it is a bug
    or a non-quasi-static channel, for the original ordering a failure of
    the claims in ``ORIGINAL_BREAKS`` is the expected outcome.
    """
    r = np.asarray(r, dtype=float)
    r_max = float(np.abs(r).max())
    r12 = float(np.abs(r[0:4, 4:8]).max())
    r11 = float(np.abs(r[0:4, 0:4][_TWO_STAGE_ZEROS[0:4, 0:4]]).max())
    r22 = float(np.abs(r[4:8, 4:8][_TWO_STAGE_ZEROS[4:8, 4:8]]).max())
    return StructureReport(
        r12_block=_relative(r12, r_max),
        r11_zeros=_relative(r11, r_max),
        r22_zeros=_relative(r22, r_max),
        gram_cross=gram_cross(h_eq),
    )
