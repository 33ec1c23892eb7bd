"""The depth-first sphere searches of both tree decoders (Agrell, Eriksson,
Vardy and Zeger, "Closest point search in lattices", IEEE Trans. Inf. Theory
2002): a walk of ``min ||z - R s||^2`` from the last dimension down to the
first, with an adaptive radius that shrinks at every improving leaf.  Every
node visits its children in centred Schnorr-Euchner (S-E) order, ascending
distance from the conditional (Babai) centre, so the increments along a
sibling loop are nondecreasing and the loop is cut at the first child
outside the sphere.  One generator (:func:`_search`) writes both searches
as a function of ``n`` nested loops, built once per dimension; they differ
in how a level finds its centre:

* :func:`centred_search` -- the inner product over the node's row of R and
  one division at every expanded node, for any upper-triangular R;
* :func:`tree_search` -- for R with the zero pattern of the two-stage
  decoder's tree block, which makes the code fast-decodable (Biglieri, Hong
  and Viterbo, "On fast-decodable space-time block codes", IEEE Trans. Inf.
  Theory 2009).  Half of its rows are diagonal, so their centre and S-E
  order are fixed for the whole decode; each other row couples to a single
  diagonal one, so it has one centre per value of that level, built on
  first use.  No node divides.

:func:`sd_baseline` is the classical 16-level real-valued search, centred,
run to completion, hence exactly ML.  The two-stage decoder
(:mod:`.simplified`) runs :func:`tree_search` over its 8 tree dimensions,
which calls its parallel decisions at every leaf directly; they first drop
a leaf whose lower bound shows it cannot beat the radius.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..modem import se_order
from .structure import COUPLED_DIMS


@functools.cache
def _search(n, tree):
    """The source generator of both searches: one function of ``n`` nested
    loops, level ``n - 1`` outermost, with ``z``, the entries of ``r`` it
    reads (float arrays; ``r`` past the rank rule, as its diagonal divides
    unchecked), the radius and the counts in locals.

    Level i walks ``se_order(acc / r_ii)`` (looked up in this module at call
    time), with ``acc = z_i - r_ik s_k - ...`` over the k > i it reads, left
    to right, so it rounds as ``acc -= r_ik s_k`` over ascending k does.
    Each child costs ``t = acc - r_ii s_i`` and ``d_i = d_i+1 + t * t``, and
    the sibling loop is cut at the first child not strictly inside the
    radius.  The centred search (``tree`` false) builds the order at every
    expansion; the tree search builds it once per decode for a diagonal row
    and once per value of the level it couples to for a coupled one.
    ``counters`` is charged after the search: per build, one division and a
    mult for each entry of ``r`` in ``acc``; per evaluated child, 2 mults.
    CPython nests at most 20 loops.
    """
    if tree and n not in (4, 8):
        raise ValueError(f"tree_search needs a block of 4 or 8 levels, not {n}")
    couples = dict(COUPLED_DIMS) if tree else {}
    reads = [[k for k in range(i + 1, n) if not tree or k == couples.get(i)] for i in range(n)]
    lazy = [i for i in range(n) if not tree or i in couples]  # counted in e_i
    triangle = ", ".join(f"({''.join(f'r{i}_{k}, ' if k == i or k in reads[i] else '_, ' for k in range(n))})"
                         for i in range(n))
    src = [f"def search(z, r, pam, {'leaf_fn, ' if tree else ''}counters{', leaf_r, leaf_z' if tree else ''}):",
           f"    {''.join(f'z{i}, ' for i in range(n))}= z.tolist()",
           f"    {triangle}, = r.tolist()",
           f"    radius, best, best_payload, nodes, leaves, d{n} = math.inf, None, None, 0, 0, 0.0",
           f"    {' = '.join(f'e{i}' for i in lazy)} = 0"]
    for i in range(n):
        if i not in lazy:  # the first descent, at infinite radius, reaches it
            src.append(f"    o{i} = se_order(z{i} / r{i}_{i}, pam)")
        elif tree:  # (acc, order) by value of the level it couples to
            src.append(f"    c{i} = {{}}")
    for i in reversed(range(n)):
        pad = "    " * (n - i)
        acc, order = f"acc{i}", f"o{i}"
        form = f"{acc} = z{i}{''.join(f' - r{i}_{k} * s{k}' for k in reads[i])}"
        if not tree:
            src += [f"{pad}e{i} += 1", f"{pad}{form}"]
            order = f"se_order(acc{i} / r{i}_{i}, pam)"
        elif i in lazy:
            j = couples[i]
            src += [f"{pad}entry = c{i}.get(s{j})",
                    f"{pad}if entry is None:",
                    f"{pad}    e{i} += 1",
                    f"{pad}    {form}",
                    f"{pad}    o{i} = se_order(acc{i} / r{i}_{i}, pam)",
                    f"{pad}    c{i}[s{j}] = acc{i}, o{i}",
                    f"{pad}else:",
                    f"{pad}    acc{i}, o{i} = entry"]
        else:
            acc = f"z{i}"
        src += [f"{pad}for s{i} in {order}:",
                f"{pad}    nodes += 1",
                f"{pad}    t = {acc} - r{i}_{i} * s{i}",
                f"{pad}    d{i} = d{i + 1} + t * t",
                f"{pad}    if not d{i} < radius:",
                f"{pad}        break"]  # later siblings are at least this far
    pad = "    " * (n + 1)
    point = f"[{', '.join(f's{k}' for k in range(n))}]"
    if tree:
        src += [f"{pad}leaves += 1",
                f"{pad}s = {point}",
                f"{pad}a, b, d_p = leaf_fn(s, leaf_r, radius, d0, pam, counters, leaf_z)",
                f"{pad}if d0 + d_p < radius:",
                f"{pad}    radius, best, best_payload = d0 + d_p, s, (a, b)"]
    else:
        src += [f"{pad}leaves += 1", f"{pad}radius = d0", f"{pad}best = {point}"]
    built = [str(n - len(lazy))] * (len(lazy) < n) + [f"e{i}" for i in lazy]
    src += ["    counters.tree_nodes += nodes",
            "    counters.leaves += leaves",
            f"    counters.mults += {''.join(f'{len(reads[i])} * e{i} + ' for i in lazy if reads[i])}2 * nodes",
            f"    counters.divs += {' + '.join(built)}",
            f"    return best, {'best_payload, ' if tree else ''}radius"]
    space = {}
    # with this module's globals, so se_order is looked up here at each call
    exec("\n".join(src), globals(), space)
    return space["search"]


def centred_search(n):
    """The centred search over ``n`` dimensions, generated once per ``n``
    (:func:`_search`): ``search(z, r, pam, counters) -> (best_s,
    best_distance)`` for any upper-triangular ``r`` (float arrays).  Every
    expanded node of level i forms ``acc`` over its whole row, ``n - 1 - i``
    mults, and divides once for its centre.  A leaf inside the radius
    becomes the best point and the radius.
    """
    return _search(n, False)


def tree_search(z, r, pam, leaf_fn, counters, leaf_r, leaf_z):
    """Depth-first search of ``min ||z - R s||^2`` over the two-stage
    decoder's tree block of ``n`` = 8 levels (or its leading 4), run by the
    function the generator of :func:`centred_search` writes once per ``n``
    (:func:`_search`).

    ``r`` has the pattern of the trailing 8x8 block of a ``gram_schmidt_qr``
    R that passed both the rank rule and :func:`~.structure.two_stage_zeros`:
    a row i paired with a level j in ``COUPLED_DIMS`` couples only to it
    (``r_ij``), and every other row is diagonal.  The search reads no other
    entry and divides by the diagonal unchecked.  Every level enumerates the
    levels of ``pam`` in exact S-E order from its conditional centre ``acc /
    r_ii``, so the increments along a sibling loop are nondecreasing and the
    loop stops at the first child outside the radius.

    A diagonal row's ``acc`` is ``z_i``: its order is built at decode start,
    for one division.  A coupled row has one entry, ``acc = z_i - r_ij s_j``
    and its order, per value of s_j, built on first use for one mult and one
    division.  No node divides, and no inner product runs over the
    structural zeros of ``r``.

    Every evaluated child costs 2 mults, charged once after the search.  A
    full-depth candidate inside the radius is a leaf, handed straight to
    ``leaf_fn(s, leaf_r, radius, d_leaf, pam, counters, leaf_z) -> (a, b,
    d_p)``, the parallel decisions' own signature (``s`` a fresh list).
    The radius becomes ``d_leaf + d_p`` on strict improvement only, so ties
    keep the first solution found.  ``z`` and ``r`` are converted once to
    plain Python floats, so the per-node arithmetic (and ``d_leaf``,
    ``radius`` and the returned distance) never goes through NumPy scalars.

    Returns ``(best_s, (a, b), best_distance)``.  A block of any size but 4
    or 8 raises :class:`ValueError`.
    """
    z = np.asarray(z, dtype=float).ravel()
    return _search(len(z), True)(z, np.asarray(r, dtype=float), pam, leaf_fn, counters, leaf_r, leaf_z)


def sd_baseline(z_tilde, r, constellation, counters):
    """Exact ML search of ``min ||z - R s||^2`` over all 16 real dimensions.

    The search core of the ``sd-baseline`` registry entry, which checks the
    input, rotates it and charges the QR to ``counters`` first; ``r`` must be
    upper triangular with positive diagonal (``gram_schmidt_qr`` output).
    Runs :func:`centred_search` and returns the decided interleaved
    16-vector, a list of floats.
    """
    return centred_search(16)(z_tilde, r, constellation.pam, counters)[0]
