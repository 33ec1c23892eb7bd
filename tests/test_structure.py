import numpy as np
import pytest

from mimo3d import derive_rng, make_equivalent, sample_channel
from mimo3d.code import VARIANTS, build_generator
from mimo3d.decoders import verify_r_structure
from mimo3d.decoders.structure import ORIGINAL_BREAKS, REL_TOL
from mimo3d.linalg import check_expand_matrix, gram_schmidt_qr


def test_new_variant_passes_all_claims():
    rng = derive_rng(300)
    for t in range(1000):
        eq = make_equivalent(sample_channel(rng), "new")
        rep = verify_r_structure(eq.qr.r, eq.h_eq)
        assert rep.ok, f"trial {t}: {rep.checks} vs {REL_TOL}"


def test_original_variant_block_claim_fails():
    rng = derive_rng(301)
    for _ in range(50):
        eq = make_equivalent(sample_channel(rng), "original")
        rep = verify_r_structure(eq.qr.r, eq.h_eq)
        assert rep.r12_block > REL_TOL
        assert rep.gram_cross > REL_TOL
        # real/imaginary decoupling inside the diagonal blocks survives
        assert rep.r11_zeros <= REL_TOL
        assert rep.r22_zeros <= REL_TOL
        assert [c for c, v in rep.checks.items() if v > REL_TOL] == list(ORIGINAL_BREAKS)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_checks_hold_at_any_channel_scale(scale):
    rng = derive_rng(303)
    for t in range(50):
        h = scale * sample_channel(rng)
        for variant in VARIANTS:
            eq = make_equivalent(h, variant)
            rep = verify_r_structure(eq.qr.r, eq.h_eq)
            assert rep.ok == (variant == "new"), f"trial {t} {variant}: {rep.checks}"
            assert (rep.gram_cross <= REL_TOL) == (variant == "new")


def test_report_is_report_only():
    # junk input still yields a report, never an exception
    rep = verify_r_structure(np.ones((16, 16)), np.ones((16, 16)))
    assert not rep.ok
    assert rep.r12_block == 1.0


def test_quasi_static_assumption_is_required():
    # a channel that changes inside the codeword destroys the block-zero
    # property even for the "new" ordering
    rng = derive_rng(302)
    g = build_generator("new")
    h_eq = np.empty((16, 16))
    for t in range(4):
        h_t = check_expand_matrix(sample_channel(rng))  # fresh draw per use
        h_eq[4 * t : 4 * t + 4] = h_t @ g[8 * t : 8 * t + 8]
    rep = verify_r_structure(gram_schmidt_qr(h_eq).r, h_eq)
    assert rep.r12_block > REL_TOL
    assert rep.gram_cross > REL_TOL
