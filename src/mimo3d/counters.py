"""Operation counters shared by every decoder.

Counting convention (applied uniformly; this is the single place where it
is defined):

* ``mults`` counts scalar real multiplications executed by the decoding
  formulas: dot-product terms, squarings and scalings.  ``divs`` counts
  scalar real divisions (QR normalizations, back-substitution,
  sphere-decoder centering, slicing arguments).  Additions, comparisons,
  square roots and table lookups are free.
* Preprocessing is charged to the decoder that performs it, per step.
  :func:`charge_rotation`: a QR of the 16x16 channel, ``16 * 16**2`` mults
  and ``16 * 16`` divs (the Gram-Schmidt count, whichever routine computes
  the factor), and the rotation ``z = Q^T y``, ``16 * 16`` mults.
  :func:`charge_zf_switch`: the zero-forcing (ZF) estimate as a
  back-substitution, ``16 * 15 / 2`` mults and 16 divs, and the column
  switch's slicing errors over 8 complex estimates, 16 mults.
* The charges follow the paper's preprocessing sequence, not the code's.
  Every tree decoder is charged one rotation.  With a column switch the
  two-stage decoder is also charged the ZF switch, plus a second rotation
  after a non-identity order; the code runs one LU solve for the estimate
  and then one Householder pass that factors the chosen channel and
  rotates ``y`` together.  Without a switch nothing more is charged.
* The tree searches charge what runs.  Every evaluated child costs 2 mults
  (the residual ``acc - r_ii s_i`` and its square).  The centred policy
  (``sd-baseline``) also charges, per expanded node, ``n - 1 - i`` mults for
  the inner product that forms ``acc`` and one division for the centre.
  The table policy (the two-stage tree stage) charges per table entry
  built, at most once per (level, parent value): one division, plus one
  mult for a level that couples to another.  It multiplies by no
  structural zero of R.  Both policies stop a sibling loop at the first
  child outside the radius, and that child is counted.
* The parallel decisions charge what runs.  Every call forms the four
  estimates ``v2 / r22`` (4 divs) and the leaf's lower bound, the squared
  residual of each branch's first S-E candidate (8 mults).  A leaf whose
  bound exceeds the radius stops there, counted as step 0 of all four
  branches stopping: one ``branch_nodes`` each and nothing more.  Otherwise
  every branch step costs 2 mults for its ``s2`` residual and square, and
  every step but a stopping one slices ``s1`` for 3 mults and 1 div; the
  step 0 residuals are recomputed, so a kept leaf pays the bound's 8 mults
  on top.  The cancellation that forms ``v`` costs 64 mults per leaf.
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
    """ZF estimate by back-substitution, and the switch's slicing errors."""
    counters.mults += 16 * 15 // 2 + 16
    counters.divs += 16
