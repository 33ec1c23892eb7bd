"""Operation counters shared by every decoder.

Counting convention (applied uniformly; this is the single place where it
is defined):

* ``mults`` counts scalar real multiplications executed by the decoding
  formulas: dot-product terms, squarings and scalings.  ``divs`` counts
  scalar real divisions (QR normalizations, back-substitution,
  sphere-decoder centering, slicing arguments).  Additions, comparisons,
  square roots and table lookups are free.
* Preprocessing is charged to the decoder that performs it: QR of an m-by-n
  matrix costs ``m * n**2`` mults and ``m * n`` divs (the Gram-Schmidt
  count, whichever routine computes the factor), the rotation
  ``z = Q^T y`` costs ``m * n`` mults, and a back-substitution costs
  ``n (n - 1) / 2`` mults plus ``n`` divs.
* A *visited node* is one candidate assignment: at a tree level
  (``tree_nodes``) or at one step of a parallel decision branch
  (``branch_nodes``).  The reported aggregate is
  ``tree_nodes + max(branch_nodes)``, i.e. the branches run concurrently
  and only the slowest one adds latency.
* ``leaves`` counts full-depth tree candidates that survived the radius
  test (for the two-stage decoder: one per parallel-decision invocation).
* Vectorized implementations (the exhaustive search) charge the same
  formula counts analytically; the final metric report recomputed for
  cross-decoder comparison is not charged to anyone.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OpCounters:
    tree_nodes: int = 0
    branch_nodes: list = field(default_factory=lambda: [0, 0, 0, 0])
    leaves: int = 0
    mults: int = 0
    divs: int = 0

    @property
    def visited_nodes(self):
        """Latency proxy: tree nodes plus the busiest parallel branch."""
        return self.tree_nodes + max(self.branch_nodes)


def charge_qr(counters, m, n):
    counters.mults += m * n * n
    counters.divs += m * n


def charge_matvec(counters, m, n):
    counters.mults += m * n


def charge_backsolve(counters, n):
    counters.mults += n * (n - 1) // 2
    counters.divs += n
