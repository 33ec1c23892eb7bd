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
:func:`verify_r_structure` is report-only; the original symbol ordering is
expected to violate the block-zero claim.  :func:`gram_cross` alone is the
guard the two-stage decoder runs on its input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Asserted-zero strictly-upper positions inside a 4x4 diagonal block.
BLOCK_ZERO_POSITIONS = ((0, 1), (0, 3), (1, 2), (2, 3))

REL_TOL = 1e-9


def _relative(value, scale):
    return value / scale if scale > 0 else value


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

    variant: str
    r12_block: float          # max |R[0:4, 4:8]| / max |R|
    r11_zeros: float          # max over BLOCK_ZERO_POSITIONS in R[0:4, 0:4], / max |R|
    r22_zeros: float          # same pattern in R[4:8, 4:8]
    gram_cross: float | None  # gram_cross(h_eq), if h_eq given

    @property
    def checks(self):
        out = {
            "r12_block": self.r12_block,
            "r11_zeros": self.r11_zeros,
            "r22_zeros": self.r22_zeros,
        }
        if self.gram_cross is not None:
            out["gram_cross"] = self.gram_cross
        return out

    @property
    def ok(self):
        return all(v <= REL_TOL for v in self.checks.values())

    @property
    def expected_ok(self):
        return self.variant == "new"


def verify_r_structure(r, variant="new", h_eq=None):
    """Measure the asserted-zero entries of R (and optionally the Gram block).

    Entries of R are measured relative to ``max|R|``, the Gram block by
    :func:`gram_cross`; a claim holds at or below ``REL_TOL``.  Never raises;
    callers decide what a failure means (for variant "new" it is a bug or a
    non-quasi-static channel, for "original" it is the expected outcome of
    the block claim).
    """
    r = np.asarray(r, dtype=float)
    r_max = float(np.abs(r).max())
    r12 = float(np.abs(r[0:4, 4:8]).max())
    r11 = max(abs(float(r[i, j])) for i, j in BLOCK_ZERO_POSITIONS)
    r22 = max(abs(float(r[4 + i, 4 + j])) for i, j in BLOCK_ZERO_POSITIONS)
    return StructureReport(
        variant=variant,
        r12_block=_relative(r12, r_max),
        r11_zeros=_relative(r11, r_max),
        r22_zeros=_relative(r22, r_max),
        gram_cross=None if h_eq is None else gram_cross(h_eq),
    )
