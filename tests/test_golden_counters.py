"""Golden per-decode results of the search decoders.

For a fixed, seeded set of QPSK and 16-QAM instances this pins, per decoder,
the decoded symbols (constellation indices, one hex digit per symbol) and
every operation counter: tree nodes, the four branch node counts, leaves,
mults and divs.  A change of enumeration order, pruning, radius handling or
counting convention shows up here as an exact mismatch.  Regenerate the
table only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden_counters.py

It prints the new table to stdout and, to stderr, how many rows differ from
``GOLDEN`` in each column, so a regeneration shows which counters it moved.
"""

import sys

from helpers import assert_certified_ml, random_instance

from mimo3d import build_qam, derive_rng
from mimo3d.decoders import get_decoder
from mimo3d.linalg import tilde_interleave

SEED = 400
CASES = ((4, 0), (4, 8), (4, 16), (16, 6), (16, 12), (16, 18))  # (M, SNR dB)
INSTANCES = 6
DECODERS = ("sd-baseline", "simplified", "simplified-cs4", "simplified-cs2")


def decode_all():
    """Yield ``(M, snr, k, constellation, y, h_eq, {decoder: result})`` per
    golden instance."""
    for m, snr in CASES:
        qam = build_qam(m)
        for k in range(INSTANCES):
            _, eq, y = random_instance(derive_rng(SEED, m, snr, k), qam, float(snr))
            yield m, snr, k, qam, y, eq.h_eq, {
                name: get_decoder(name)(y, eq.h_eq, qam) for name in DECODERS}


def observe():
    """One row per (case, instance, decoder):
    ``(M, snr, k, decoder, symbols, tree, branches, leaves, mults, divs)``."""
    rows = []
    for m, snr, k, qam, _, _, results in decode_all():
        points = list(qam.points)
        for name, res in results.items():
            c = res.counters
            symbols = "".join(format(points.index(s), "x") for s in res.symbols)
            rows.append((m, snr, k, name, symbols, c.tree_nodes, tuple(c.branch_nodes),
                         c.leaves, c.mults, c.divs))
    return rows


GOLDEN = [
    (4, 0, 0, 'sd-baseline', '03213020', 2209, (0, 0, 0, 0), 3, 21735, 1537),
    (4, 0, 0, 'simplified', '03213020', 463, (264, 264, 264, 264), 164, 16366, 1298),
    (4, 0, 0, 'simplified-cs4', '03213020', 361, (107, 107, 107, 107), 89, 9609, 689),
    (4, 0, 0, 'simplified-cs2', '03213020', 361, (107, 107, 107, 107), 89, 9609, 689),
    (4, 0, 1, 'sd-baseline', '20122221', 709, (0, 0, 0, 0), 5, 9372, 658),
    (4, 0, 1, 'simplified', '20122221', 262, (61, 61, 61, 61), 47, 7151, 487),
    (4, 0, 1, 'simplified-cs4', '20122221', 83, (20, 20, 20, 20), 16, 6682, 465),
    (4, 0, 1, 'simplified-cs2', '20122221', 111, (24, 24, 24, 24), 18, 6985, 488),
    (4, 0, 2, 'sd-baseline', '10220303', 585, (0, 0, 0, 0), 4, 8532, 592),
    (4, 0, 2, 'simplified', '10220303', 179, (62, 62, 62, 62), 34, 7498, 518),
    (4, 0, 2, 'simplified-cs4', '10220303', 179, (62, 62, 62, 62), 34, 8994, 654),
    (4, 0, 2, 'simplified-cs2', '10220303', 179, (62, 62, 62, 62), 34, 8994, 654),
    (4, 0, 3, 'sd-baseline', '11023102', 1445, (0, 0, 0, 0), 3, 14854, 1079),
    (4, 0, 3, 'simplified', '11023102', 433, (126, 126, 126, 126), 99, 8910, 604),
    (4, 0, 3, 'simplified-cs4', '11023102', 153, (20, 20, 20, 20), 14, 6916, 475),
    (4, 0, 3, 'simplified-cs2', '11023102', 94, (18, 18, 18, 18), 12, 6708, 466),
    (4, 0, 4, 'sd-baseline', '03032331', 309, (0, 0, 0, 0), 2, 6351, 434),
    (4, 0, 4, 'simplified', '03032331', 158, (18, 18, 18, 18), 16, 5040, 302),
    (4, 0, 4, 'simplified-cs4', '03032331', 158, (18, 18, 18, 18), 16, 6536, 438),
    (4, 0, 4, 'simplified-cs2', '03032331', 60, (14, 14, 14, 14), 12, 6399, 443),
    (4, 0, 5, 'sd-baseline', '32222033', 1115, (0, 0, 0, 0), 4, 12983, 892),
    (4, 0, 5, 'simplified', '32222033', 220, (129, 129, 129, 129), 77, 10496, 785),
    (4, 0, 5, 'simplified-cs4', '32222033', 89, (11, 11, 11, 11), 6, 6534, 448),
    (4, 0, 5, 'simplified-cs2', '32222033', 89, (11, 11, 11, 11), 6, 6534, 448),
    (4, 8, 0, 'sd-baseline', '30122230', 296, (0, 0, 0, 0), 2, 6258, 428),
    (4, 8, 0, 'simplified', '30122230', 143, (45, 45, 45, 45), 42, 5722, 372),
    (4, 8, 0, 'simplified-cs4', '30122230', 49, (9, 9, 9, 9), 7, 6247, 430),
    (4, 8, 0, 'simplified-cs2', '30122230', 70, (11, 11, 11, 11), 9, 6289, 430),
    (4, 8, 1, 'sd-baseline', '02212203', 130, (0, 0, 0, 0), 1, 5163, 327),
    (4, 8, 1, 'simplified', '02212203', 60, (11, 11, 11, 11), 7, 4907, 305),
    (4, 8, 1, 'simplified-cs4', '02212203', 68, (6, 6, 6, 6), 4, 6236, 426),
    (4, 8, 1, 'simplified-cs2', '02212203', 48, (5, 5, 5, 5), 3, 6145, 420),
    (4, 8, 2, 'sd-baseline', '00010202', 172, (0, 0, 0, 0), 3, 5403, 350),
    (4, 8, 2, 'simplified', '00010202', 91, (14, 14, 14, 14), 10, 5033, 313),
    (4, 8, 2, 'simplified-cs4', '00010202', 91, (14, 14, 14, 14), 10, 6529, 449),
    (4, 8, 2, 'simplified-cs2', '00010202', 56, (8, 8, 8, 8), 5, 6287, 433),
    (4, 8, 3, 'sd-baseline', '31202000', 37, (0, 0, 0, 0), 1, 4552, 275),
    (4, 8, 3, 'simplified', '31202000', 21, (2, 2, 2, 2), 1, 4491, 273),
    (4, 8, 3, 'simplified-cs4', '31202000', 17, (2, 2, 2, 2), 1, 5978, 408),
    (4, 8, 3, 'simplified-cs2', '31202000', 19, (2, 2, 2, 2), 1, 5983, 409),
    (4, 8, 4, 'sd-baseline', '21133231', 61, (0, 0, 0, 0), 1, 4675, 290),
    (4, 8, 4, 'simplified', '21133231', 45, (2, 2, 2, 2), 1, 4541, 275),
    (4, 8, 4, 'simplified-cs4', '21133231', 45, (2, 2, 2, 2), 1, 6037, 411),
    (4, 8, 4, 'simplified-cs2', '21133231', 28, (2, 2, 2, 2), 1, 6001, 409),
    (4, 8, 5, 'sd-baseline', '31003110', 86, (0, 0, 0, 0), 1, 4840, 303),
    (4, 8, 5, 'simplified', '31003110', 53, (6, 6, 6, 6), 4, 4689, 287),
    (4, 8, 5, 'simplified-cs4', '31003110', 42, (2, 2, 2, 2), 1, 6031, 411),
    (4, 8, 5, 'simplified-cs2', '31003110', 24, (2, 2, 2, 2), 1, 5993, 409),
    (4, 16, 0, 'sd-baseline', '31333330', 32, (0, 0, 0, 0), 1, 4536, 272),
    (4, 16, 0, 'simplified', '31333330', 16, (2, 2, 2, 2), 1, 4480, 272),
    (4, 16, 0, 'simplified-cs4', '31333330', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 0, 'simplified-cs2', '31333330', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 1, 'sd-baseline', '00103322', 32, (0, 0, 0, 0), 1, 4536, 272),
    (4, 16, 1, 'simplified', '00103322', 16, (2, 2, 2, 2), 1, 4480, 272),
    (4, 16, 1, 'simplified-cs4', '00103322', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 1, 'simplified-cs2', '00103322', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 2, 'sd-baseline', '10220023', 32, (0, 0, 0, 0), 1, 4536, 272),
    (4, 16, 2, 'simplified', '10220023', 16, (2, 2, 2, 2), 1, 4480, 272),
    (4, 16, 2, 'simplified-cs4', '10220023', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 2, 'simplified-cs2', '10220023', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 3, 'sd-baseline', '12101330', 32, (0, 0, 0, 0), 1, 4536, 272),
    (4, 16, 3, 'simplified', '12101330', 16, (2, 2, 2, 2), 1, 4480, 272),
    (4, 16, 3, 'simplified-cs4', '12101330', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 3, 'simplified-cs2', '12101330', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 4, 'sd-baseline', '11121130', 32, (0, 0, 0, 0), 1, 4536, 272),
    (4, 16, 4, 'simplified', '11121130', 16, (2, 2, 2, 2), 1, 4480, 272),
    (4, 16, 4, 'simplified-cs4', '11121130', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 4, 'simplified-cs2', '11121130', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 5, 'sd-baseline', '11320233', 32, (0, 0, 0, 0), 1, 4536, 272),
    (4, 16, 5, 'simplified', '11320233', 16, (2, 2, 2, 2), 1, 4480, 272),
    (4, 16, 5, 'simplified-cs4', '11320233', 16, (2, 2, 2, 2), 1, 5976, 408),
    (4, 16, 5, 'simplified-cs2', '11320233', 16, (2, 2, 2, 2), 1, 5976, 408),
    (16, 6, 0, 'sd-baseline', '5afd1a37', 457, (0, 0, 0, 0), 8, 7301, 481),
    (16, 6, 0, 'simplified', '5afd1a37', 168, (43, 43, 43, 42), 29, 6249, 411),
    (16, 6, 0, 'simplified-cs4', '5afd1a37', 168, (43, 43, 43, 42), 29, 7745, 547),
    (16, 6, 0, 'simplified-cs2', '5afd1a37', 168, (43, 43, 43, 42), 29, 7745, 547),
    (16, 6, 1, 'sd-baseline', 'ff567e85', 21213, (0, 0, 0, 0), 4, 161648, 10874),
    (16, 6, 1, 'simplified', 'ff567e85', 2328, (1087, 1080, 1074, 1074), 782, 46520, 3682),
    (16, 6, 1, 'simplified-cs4', 'ff567e85', 848, (83, 83, 86, 84), 57, 10695, 695),
    (16, 6, 1, 'simplified-cs2', 'ff567e85', 220, (86, 89, 83, 82), 57, 9367, 688),
    (16, 6, 2, 'sd-baseline', 'a288e2b6', 532, (0, 0, 0, 0), 3, 7472, 521),
    (16, 6, 2, 'simplified', 'a288e2b6', 288, (48, 49, 48, 48), 39, 6270, 392),
    (16, 6, 2, 'simplified-cs4', 'a288e2b6', 123, (29, 29, 30, 29), 22, 7040, 489),
    (16, 6, 2, 'simplified-cs2', 'a288e2b6', 123, (29, 29, 30, 29), 22, 7040, 489),
    (16, 6, 3, 'sd-baseline', '29d18be3', 554, (0, 0, 0, 0), 3, 8061, 532),
    (16, 6, 3, 'simplified', '29d18be3', 141, (47, 49, 54, 47), 30, 6651, 453),
    (16, 6, 3, 'simplified-cs4', '29d18be3', 266, (73, 68, 68, 68), 48, 8834, 628),
    (16, 6, 3, 'simplified-cs2', '29d18be3', 266, (73, 68, 68, 68), 48, 8834, 628),
    (16, 6, 4, 'sd-baseline', '56b5097d', 7135, (0, 0, 0, 0), 4, 43230, 3856),
    (16, 6, 4, 'simplified', '56b5097d', 5642, (324, 326, 323, 361), 201, 28946, 1491),
    (16, 6, 4, 'simplified-cs4', '56b5097d', 5642, (324, 326, 323, 361), 201, 30442, 1627),
    (16, 6, 4, 'simplified-cs2', '56b5097d', 935, (582, 720, 575, 576), 334, 32757, 2719),
    (16, 6, 5, 'sd-baseline', '262d0c49', 638, (0, 0, 0, 0), 2, 7616, 577),
    (16, 6, 5, 'simplified', '262d0c49', 451, (35, 36, 35, 35), 29, 6432, 381),
    (16, 6, 5, 'simplified-cs4', '262d0c49', 451, (35, 36, 35, 35), 29, 7928, 517),
    (16, 6, 5, 'simplified-cs2', '262d0c49', 302, (35, 35, 35, 35), 29, 7395, 493),
    (16, 12, 0, 'sd-baseline', '15e55ff6', 1217, (0, 0, 0, 0), 3, 11653, 864),
    (16, 12, 0, 'simplified', '15e55ff6', 611, (159, 159, 159, 159), 147, 9149, 613),
    (16, 12, 0, 'simplified-cs4', '15e55ff6', 1213, (341, 340, 344, 339), 308, 16130, 1161),
    (16, 12, 0, 'simplified-cs2', '15e55ff6', 1556, (484, 482, 483, 482), 424, 21817, 1628),
    (16, 12, 1, 'sd-baseline', 'ddc66def', 5474, (0, 0, 0, 0), 10, 38938, 2998),
    (16, 12, 1, 'simplified', 'ddc66def', 1775, (713, 722, 720, 747), 545, 29634, 2277),
    (16, 12, 1, 'simplified-cs4', 'ddc66def', 1775, (713, 722, 720, 747), 545, 31130, 2413),
    (16, 12, 1, 'simplified-cs2', 'ddc66def', 1775, (713, 722, 720, 747), 545, 31130, 2413),
    (16, 12, 2, 'sd-baseline', '83416481', 969, (0, 0, 0, 0), 4, 10326, 739),
    (16, 12, 2, 'simplified', '83416481', 426, (91, 90, 90, 90), 67, 8196, 542),
    (16, 12, 2, 'simplified-cs4', '83416481', 134, (28, 30, 27, 27), 17, 7164, 498),
    (16, 12, 2, 'simplified-cs2', '83416481', 150, (26, 26, 26, 27), 17, 7149, 493),
    (16, 12, 3, 'sd-baseline', '3cf29c97', 1432, (0, 0, 0, 0), 4, 13810, 971),
    (16, 12, 3, 'simplified', '3cf29c97', 382, (106, 106, 106, 106), 100, 7438, 494),
    (16, 12, 3, 'simplified-cs4', '3cf29c97', 59, (4, 4, 4, 4), 2, 6157, 419),
    (16, 12, 3, 'simplified-cs2', '3cf29c97', 33, (4, 4, 4, 4), 2, 6103, 417),
    (16, 12, 4, 'sd-baseline', '35e21b92', 4164, (0, 0, 0, 0), 5, 32255, 2337),
    (16, 12, 4, 'simplified', '35e21b92', 1233, (351, 396, 369, 336), 202, 21362, 1628),
    (16, 12, 4, 'simplified-cs4', '35e21b92', 778, (145, 122, 120, 121), 76, 12364, 869),
    (16, 12, 4, 'simplified-cs2', '35e21b92', 569, (126, 130, 141, 128), 80, 11947, 860),
    (16, 12, 5, 'sd-baseline', '65ca147e', 270, (0, 0, 0, 0), 3, 5935, 390),
    (16, 12, 5, 'simplified', '65ca147e', 142, (22, 22, 23, 22), 17, 5301, 330),
    (16, 12, 5, 'simplified-cs4', '65ca147e', 142, (22, 22, 23, 22), 17, 6797, 466),
    (16, 12, 5, 'simplified-cs2', '65ca147e', 142, (22, 22, 23, 22), 17, 6797, 466),
    (16, 18, 0, 'sd-baseline', '740e55cc', 32, (0, 0, 0, 0), 1, 4536, 272),
    (16, 18, 0, 'simplified', '740e55cc', 16, (2, 2, 2, 2), 1, 4480, 272),
    (16, 18, 0, 'simplified-cs4', '740e55cc', 16, (2, 2, 2, 2), 1, 5976, 408),
    (16, 18, 0, 'simplified-cs2', '740e55cc', 16, (2, 2, 2, 2), 1, 5976, 408),
    (16, 18, 1, 'sd-baseline', 'f92d3561', 32, (0, 0, 0, 0), 1, 4536, 272),
    (16, 18, 1, 'simplified', 'f92d3561', 16, (2, 2, 2, 2), 1, 4480, 272),
    (16, 18, 1, 'simplified-cs4', 'f92d3561', 16, (2, 2, 2, 2), 1, 5976, 408),
    (16, 18, 1, 'simplified-cs2', 'f92d3561', 16, (2, 2, 2, 2), 1, 5976, 408),
    (16, 18, 2, 'sd-baseline', '7e2e4a9c', 66, (0, 0, 0, 0), 1, 4706, 289),
    (16, 18, 2, 'simplified', '7e2e4a9c', 45, (5, 5, 5, 5), 4, 4568, 275),
    (16, 18, 2, 'simplified-cs4', '7e2e4a9c', 52, (6, 6, 6, 6), 5, 6122, 419),
    (16, 18, 2, 'simplified-cs2', '7e2e4a9c', 62, (6, 6, 6, 6), 5, 6131, 417),
    (16, 18, 3, 'sd-baseline', '562c1788', 379, (0, 0, 0, 0), 2, 6534, 445),
    (16, 18, 3, 'simplified', '562c1788', 223, (34, 34, 34, 34), 30, 5626, 347),
    (16, 18, 3, 'simplified-cs4', '562c1788', 223, (34, 34, 34, 34), 30, 7122, 483),
    (16, 18, 3, 'simplified-cs2', '562c1788', 148, (24, 24, 24, 24), 21, 6719, 458),
    (16, 18, 4, 'sd-baseline', 'b508c782', 442, (0, 0, 0, 0), 3, 7161, 476),
    (16, 18, 4, 'simplified', 'b508c782', 181, (43, 45, 43, 44), 34, 6055, 392),
    (16, 18, 4, 'simplified-cs4', 'b508c782', 214, (18, 18, 18, 18), 15, 6822, 456),
    (16, 18, 4, 'simplified-cs2', 'b508c782', 194, (33, 33, 33, 33), 25, 7242, 496),
    (16, 18, 5, 'sd-baseline', 'f30f5925', 58, (0, 0, 0, 0), 1, 4663, 285),
    (16, 18, 5, 'simplified', 'f30f5925', 36, (4, 4, 4, 4), 3, 4562, 278),
    (16, 18, 5, 'simplified-cs4', 'f30f5925', 49, (5, 5, 5, 5), 4, 6113, 416),
    (16, 18, 5, 'simplified-cs2', 'f30f5925', 49, (5, 5, 5, 5), 4, 6113, 416),
]


def test_golden_counters():
    got = observe()
    assert len(got) == len(GOLDEN)
    for row, want in zip(got, GOLDEN):
        assert row == want


def test_golden_decodes_are_certified_ml():
    # one tie class per instance, certified on the first decoder's answer:
    # every golden symbol vector must lie in it
    for *_, qam, y, h_eq, results in decode_all():
        first, *rest = results.values()
        tie = assert_certified_ml(y, h_eq, qam, first)
        for res in rest:
            assert (tie == tilde_interleave(res.symbols)).all(axis=1).any()


COLUMNS = ("M", "snr", "k", "decoder", "symbols", "tree_nodes", "branch_nodes", "leaves",
           "mults", "divs")


if __name__ == "__main__":
    rows = observe()
    for row in rows:
        print(f"    {row!r},")
    changed = [sum(new[c] != old[c] for new, old in zip(rows, GOLDEN)) for c in range(len(COLUMNS))]
    print(f"rows changed per column, of {len(rows)} (table had {len(GOLDEN)}):", file=sys.stderr)
    for name, count in zip(COLUMNS, changed):
        print(f"  {name}: {count}", file=sys.stderr)
