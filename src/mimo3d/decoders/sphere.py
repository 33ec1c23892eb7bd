"""The depth-first sphere searches of both tree decoders (Agrell, Eriksson,
Vardy and Zeger, "Closest point search in lattices", IEEE Trans. Inf. Theory
2002): a walk of ``min ||z - R s||^2`` from the last dimension down to the
first, with an adaptive radius that shrinks at every improving leaf.  Every
node visits its children in centred Schnorr-Euchner (S-E) order, ascending
distance from the conditional (Babai) centre, so the increments along a
sibling loop are nondecreasing and the loop is cut at the first child
outside the sphere.  The two searches differ in how a node finds its centre:

* :func:`centred_search` -- the inner product over the node's row of R and
  one division at every expanded node, for any upper-triangular R, as one
  generated function of ``n`` nested loops, built once per dimension;
* :func:`tree_search` -- a per-decode table lookup, for R with the zero
  pattern of the two-stage decoder's tree block, which makes the code
  fast-decodable (Biglieri, Hong and Viterbo, "On fast-decodable space-time
  block codes", IEEE Trans. Inf. Theory 2009).  Half of its rows are
  diagonal, so their centre is fixed for the whole decode; each other row
  couples to a single diagonal one, so it has one centre per value of that
  level.  Each (level, parent value) entry is built once, on first use; no
  node divides.

:func:`sd_baseline` is the classical 16-level real-valued search, centred,
run to completion, hence exactly ML.  The two-stage decoder
(:mod:`.simplified`) runs :func:`tree_search` over its 8 tree dimensions and
hands every leaf to its parallel decisions, which first drop a leaf whose
lower bound shows it cannot beat the radius.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..modem import se_order
from .structure import COUPLED_DIMS

# the level each row of the tree block couples to; None for a diagonal row
_COUPLED_LEVEL = tuple(dict(COUPLED_DIMS).get(i) for i in range(8))


@functools.cache
def centred_search(n):
    """The centred search over ``n`` dimensions, generated once per ``n``:
    ``search(z, r, pam, counters) -> (best_s, best_distance)``.

    ``n`` nested loops, level ``n - 1`` outermost, with ``z``, the upper
    triangle of ``r`` (float arrays; ``r`` past the rank rule, as its
    diagonal divides unchecked), the radius and the counts in locals.
    Level i forms ``acc = z_i - r_i,i+1 s_i+1 - ...`` left to right, so it
    rounds as ``acc -= r_ik s_k`` over ascending k does, and walks
    ``se_order(acc / r_ii)`` (looked up in this module at call time), cut at
    the first child not strictly inside the radius.  A leaf inside it
    becomes the best point and the radius.  ``counters`` is charged after
    the search: per expansion of level i, ``n - 1 - i`` mults and a
    division; per evaluated child, 2 mults.  CPython nests at most 20 loops.
    """
    triangle = ", ".join(f"({''.join(f'r{i}_{k}, ' if k >= i else '_, ' for k in range(n))})"
                         for i in range(n))
    src = ["def search(z, r, pam, counters):",
           f"    {''.join(f'z{i}, ' for i in range(n))}= z.tolist()",
           f"    {triangle}, = r.tolist()",
           f"    radius, best, nodes, leaves, d{n} = math.inf, None, 0, 0, 0.0",
           f"    {' = '.join(f'e{i}' for i in range(n))} = 0"]
    for i in reversed(range(n)):
        pad = "    " * (n - i)
        src += [f"{pad}e{i} += 1",
                f"{pad}acc{i} = z{i}{''.join(f' - r{i}_{k} * s{k}' for k in range(i + 1, n))}",
                f"{pad}for s{i} in se_order(acc{i} / r{i}_{i}, pam):",
                f"{pad}    nodes += 1",
                f"{pad}    t = acc{i} - r{i}_{i} * s{i}",
                f"{pad}    d{i} = d{i + 1} + t * t",
                f"{pad}    if not d{i} < radius:",
                f"{pad}        break"]  # later siblings are at least this far
    pad = "    " * (n + 1)
    src += [f"{pad}leaves += 1",
            f"{pad}radius = d0",
            f"{pad}best = [{', '.join(f's{k}' for k in range(n))}]",
            "    counters.tree_nodes += nodes",
            "    counters.leaves += leaves",
            f"    counters.mults += {''.join(f'{n - 1 - i} * e{i} + ' for i in range(n - 1))}2 * nodes",
            f"    counters.divs += {' + '.join(f'e{i}' for i in range(n))}",
            "    return best, radius"]
    space = {}
    # with this module's globals, so se_order is looked up here at each call
    exec("\n".join(src), globals(), space)
    return space["search"]


def tree_search(z, r, pam, leaf_fn, counters):
    """Depth-first search of ``min ||z - R s||^2`` over the two-stage
    decoder's tree block.

    ``r`` has the pattern of the trailing 8x8 block of a ``gram_schmidt_qr``
    R that passed both the rank rule and :func:`~.structure.two_stage_zeros`:
    a row i paired with a level j in ``COUPLED_DIMS`` couples only to it
    (``r_ij``), and every other row is diagonal.  The search divides by the
    diagonal unchecked.  Every level enumerates the levels of ``pam`` in exact S-E
    order from its conditional centre ``acc / r_ii``, so the increments
    along a sibling loop are nondecreasing and the loop stops at the first
    child outside the radius.

    The order and ``acc`` are looked up from a per-decode table.  A diagonal
    row's entry is its fixed centre ``z_i / r_ii``.  A coupled row has one
    entry per value of s_j, ``acc = z_i - r_ij s_j``.  Each entry is built on
    first use, at most once per (level, parent value), for one mult (coupled
    rows only) and one division; no node divides, and no inner product runs
    over the structural zeros of ``r``.

    Every evaluated child costs 2 mults, charged once after the search.  A
    full-depth candidate inside the radius is a leaf; ``leaf_fn(s, d_leaf,
    radius) -> (d_p, payload)`` completes it, and the radius becomes
    ``d_leaf + d_p`` on strict improvement only, so ties keep the first
    solution found.  ``z`` and ``r`` are converted once to plain Python
    floats, so the per-node arithmetic (and ``d_leaf``, ``radius`` and the
    returned distance) never goes through NumPy scalars.

    Returns ``(best_s, best_payload, best_distance)``.
    """
    rows = np.asarray(r, dtype=float).tolist()
    z = np.asarray(z, dtype=float).ravel().tolist()
    n = len(z)
    s = [0.0] * n
    # entry of level i under parent PAM index k (0 for a diagonal row): acc
    # at 2 * (order * i + k), the S-E order one slot up; None until built.
    # The closure cycle of descend leaves the table to the cyclic GC, so it
    # is one flat list of floats and the PamSet's shared order tuples: it
    # adds no object but itself to what a decode leaves (see simplified_ml)
    table = [None] * (2 * pam.order * n)
    radius = math.inf
    best = best_payload = None

    def descend(i, dist):
        nonlocal radius, best, best_payload
        row = rows[i]
        rii = row[i]
        at = 2 * pam.order * i
        j = _COUPLED_LEVEL[i]
        if j is not None:
            at += 2 * pam.level_tuple.index(s[j])
        children = table[at + 1]
        if children is None:
            acc = z[i] if j is None else z[i] - row[j] * s[j]
            children = table[at + 1] = se_order(acc / rii, pam)
            table[at] = acc
            counters.mults += j is not None
            counters.divs += 1
        else:
            acc = table[at]
        for cand in children:
            s[i] = cand
            counters.tree_nodes += 1
            resid = acc - rii * cand
            d_new = dist + resid * resid
            if d_new < radius:
                if i:
                    descend(i - 1, d_new)
                    continue
                counters.leaves += 1
                d_p, payload = leaf_fn(s, d_new, radius)
                d_total = d_new + d_p
                if d_total < radius:
                    radius = d_total
                    best = s.copy()
                    best_payload = payload
            else:
                break  # later siblings are at least this far

    nodes = counters.tree_nodes
    descend(n - 1, 0.0)
    counters.mults += 2 * (counters.tree_nodes - nodes)  # 2 per evaluated child
    return best, best_payload, radius


def sd_baseline(z_tilde, r, constellation, counters):
    """Exact ML search of ``min ||z - R s||^2`` over all 16 real dimensions.

    The search core of the ``sd-baseline`` registry entry, which checks the
    input, rotates it and charges the QR to ``counters`` first; ``r`` must be
    upper triangular with positive diagonal (``gram_schmidt_qr`` output).
    Runs :func:`centred_search` and returns the decided interleaved
    16-vector, a list of floats.
    """
    return centred_search(16)(z_tilde, r, constellation.pam, counters)[0]
