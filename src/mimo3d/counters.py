"""Operation counters shared by every decoder.

Counting convention (applied uniformly; this is the single place where it
is defined):

* ``mults`` counts scalar real multiplications executed by the decoding
  formulas: dot-product terms, squarings and scalings.  ``divs`` counts
  scalar real divisions (QR normalizations, LU multipliers,
  back-substitution, sphere-decoder centering, slicing arguments).
  Additions, comparisons, square roots, pivoting and table lookups are free.
* Every charge follows what the code runs, and preprocessing is charged to
  the decoder that runs it.  :func:`charge_rotation`: the one factorization
  of a decode, a QR of the 16x16 channel, ``16 * 16**2`` mults and
  ``16 * 16`` divs (the Gram-Schmidt count, whichever routine computes the
  factor), and the rotation ``z = Q^T y``, ``16 * 16`` mults.  Every tree
  decoder is charged it once, whatever order a column switch picks.
  :func:`charge_zf_switch`: the zero-forcing (ZF) estimate as the LU solve
  it runs (Golub and Van Loan, *Matrix Computations*, section 3.2): the
  factorization, ``sum_{k=1..15} k**2 = 1240`` mults and 120 divs (the
  multipliers); forward substitution with the unit lower factor, 120 mults;
  back substitution, 120 mults and 16 divs; plus the column switch's
  slicing errors over 8 complex estimates, 16 mults.  Only a decode with a
  switch is charged it.
* The tree searches charge what runs.  Every evaluated child costs 2 mults
  (the residual ``acc - r_ii s_i`` and its square).  The centred search
  (``sd-baseline``) also charges, per expanded node, ``n - 1 - i`` mults for
  the inner product that forms ``acc`` and one division for the centre.
  The two-stage tree search charges per S-E order it builds, once per
  decode for a diagonal level and at most once per parent value for a
  level that couples to another: one division, plus one mult for a coupled
  level.  It multiplies by no structural zero of R.  Both searches stop a sibling loop at the first
  child outside the radius, and that child is counted.
* The parallel decisions charge what runs.  The leaf's lower bound is
  formed branch by branch, and each term it forms costs 8 mults for the
  cancellation of its ``s2``-role target ``v2``, 1 div for the estimate
  ``v2 / r22`` and 2 mults for the residual of the first S-E candidate and
  its square.  A leaf dropped at the first running sum past the radius
  stops there, after 1 to 4 terms, counted as step 0 of all four branches
  stopping: one ``branch_nodes`` each and nothing more.  A kept leaf has
  formed all four terms and pays 32 mults for the cancellation of its four
  ``s1``-role targets.  Its branches reuse the bound's terms at step 0, and
  every later branch step costs 2 mults for its ``s2`` residual and square;
  every step but a stopping one slices ``s1`` for 3 mults and 1 div.
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


def charge_rotation(counters):
    """QR of the 16x16 channel and the rotation ``z = Q^T y``."""
    counters.mults += 16 * 16 * 16 + 16 * 16
    counters.divs += 16 * 16


def charge_zf_switch(counters):
    """ZF estimate by one LU solve, and the switch's slicing errors."""
    counters.mults += 1240 + 120 + 120 + 16
    counters.divs += 120 + 16
