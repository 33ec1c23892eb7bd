"""Square QAM constellations, PAM decomposition, slicing and S-E ordering.

A square M-QAM symbol is two independent sqrt(M)-PAM symbols, one on the
real axis and one on the imaginary axis.  Constellations are normalized to
unit average symbol energy, which pins the SNR definition used by the
channel module.

Schnorr-Euchner (S-E) orders (Agrell, Eriksson, Vardy and Zeger, "Closest
point search in lattices", IEEE Trans. Inf. Theory 2002) are not built per
call.  On a uniform grid the order from an estimate depends only on the
nearest level and on which side of it the estimate lies: after the nearest
level it alternates between the two sides, starting with the nearer
neighbour, until one side runs out.  :func:`build_qam` therefore stores the
order of every (nearest level, side) pair in the :class:`PamSet`, and
:func:`se_order` only picks one of those shared tuples.

Tie handling is deterministic, so decoder outputs are bit-reproducible: an
estimate exactly halfway between two levels slices to the smaller one, and
levels at exactly equal distance from it are ordered smaller first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

MODULATIONS = {"qpsk": 4, "16qam": 16, "64qam": 64}


@dataclass(frozen=True, eq=False)
class PamSet:
    """Ascending, zero-symmetric, uniformly spaced PAM levels.

    ``se_orders[i]`` is the pair of S-E orders whose nearest level is
    ``level_tuple[i]``: lower neighbour first, then upper neighbour first
    (the same tuple twice for the two outermost levels).
    """

    order: int
    level_tuple: tuple  # ascending
    spacing: float
    se_orders: tuple = field(repr=False)


@dataclass(frozen=True, eq=False)
class QamConstellation:
    """Unit-average-energy square QAM as the product of a PamSet with itself."""

    order: int
    points: np.ndarray  # (M,), re-major then im order
    pam: PamSet


def _se_orders(level_tuple):
    """For every level i, its S-E orders with the lower and with the upper
    neighbour first: the levels sorted by exact distance from a point a
    quarter spacing below (``4 * (j - i) + 1``) or above (``- 1``) level i,
    in units of a quarter spacing.  Those distances are distinct odd
    integers, so the sort has no ties."""
    n = len(level_tuple)
    return tuple(
        tuple(
            tuple(level_tuple[j] for j in sorted(range(n), key=lambda j: abs(4 * (j - i) + side)))
            for side in (1, -1)
        )
        for i in range(n)
    )


def build_qam(m):
    """Build a unit-energy square M-QAM constellation, M in {4, 16, 64}.

    PAM levels are the odd integers {+-1, +-3, ...} scaled by
    ``1 / sqrt(2 (M - 1) / 3)``, which makes the mean of |point|^2 exactly 1.
    Point k is ``levels[k // n] + 1j * levels[k % n]`` with ``n = sqrt(M)``.
    The PAM set carries its spacing and its S-E order tables.  Built once
    per order and shared, with read-only ``points``; a NumPy integer order
    gets the equal ``int``'s object, and a float, bool or unhashable one a
    ValueError.
    """
    try:
        return _build_qam(m)
    except TypeError:  # an unhashable order, such as [16], never reaches the cache
        raise ValueError(f"constellation order must be an integer, not {m!r}") from None


@functools.lru_cache(maxsize=None, typed=True)  # so 16.0 never hits np.int64(16)'s entry
def _build_qam(m):
    if type(m) is not int:  # runs once per order and type; an int call is a cache hit
        if isinstance(m, np.integer):
            return _build_qam(int(m))
        raise ValueError(f"constellation order must be an integer, not {m!r}")
    if m not in MODULATIONS.values():
        raise ValueError(f"unsupported constellation order {m}; expected one of {tuple(MODULATIONS.values())}")
    n = math.isqrt(m)
    scale = 1.0 / math.sqrt(2.0 * (m - 1) / 3.0)
    level_tuple = tuple((2 * k - (n - 1)) * scale for k in range(n))
    pam = PamSet(
        order=n,
        level_tuple=level_tuple,
        spacing=level_tuple[1] - level_tuple[0],
        se_orders=_se_orders(level_tuple),
    )
    points = np.array([a + 1j * b for a in level_tuple for b in level_tuple])
    points.flags.writeable = False
    return QamConstellation(order=m, points=points, pam=pam)


def slice_pam(x, pam):
    """Quantize x to the nearest PAM level (tie toward the smaller level)."""
    levels = pam.level_tuple
    if x <= levels[0]:
        return levels[0]
    if x >= levels[-1]:
        return levels[-1]
    k = min(int((x - levels[0]) // pam.spacing), pam.order - 2)
    return levels[k] if (x - levels[k]) <= (levels[k + 1] - x) else levels[k + 1]


def se_order(estimate, pam):
    """All PAM levels ordered by ascending distance from the estimate.

    This is the Schnorr-Euchner visiting order for one decoding dimension:
    the first element is ``slice_pam(estimate)``, and the partial distances
    ``|estimate - level|`` are nondecreasing along the sequence.  The
    estimate is sliced to its nearest level i, one comparison
    ``(estimate - l[i-1]) <= (l[i+1] - estimate)`` picks the nearer
    neighbour, and the stored order for that pair is returned; nothing is
    allocated.

    Ties: an exact halfway estimate slices to the smaller level, and of two
    levels at exactly equal distance the smaller comes first.  Past the
    first comparison the order is that of an exactly uniform grid, so it
    differs from a walk comparing every pair of rounded distances only
    where the rounding of the levels themselves decides: for 64-QAM, within
    an ulp or two of a level, two levels whose rounded distances differ by
    one ulp can come in the other order.
    """
    levels = pam.level_tuple
    if estimate <= levels[0]:
        return pam.se_orders[0][0]
    last = pam.order - 1
    if estimate >= levels[last]:
        return pam.se_orders[last][0]
    i = min(int((estimate - levels[0]) // pam.spacing), last - 1)
    if (estimate - levels[i]) > (levels[i + 1] - estimate):
        i += 1
    lower_first, upper_first = pam.se_orders[i]
    if i == 0 or i == last or (estimate - levels[i - 1]) <= (levels[i + 1] - estimate):
        return lower_first
    return upper_first
