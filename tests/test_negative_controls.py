"""Mutation tests: corrupting one Wu-formula coefficient must be caught.

Each corruption either breaks the A(1) relations (caught by validate at
construction) or survives validation and then breaks a golden-table value,
demonstrating the pipeline is sensitive to every ingredient.
"""

from __future__ import annotations

import pytest

from a1bordism import ext as ex
from a1bordism import modules as md
from a1bordism import obstruction as ob
from a1bordism import spaces as sp
from a1bordism.modules import ModuleError
from a1bordism.spaces import SpacePresentation


def corrupted_bo2(drop: str) -> SpacePresentation:
    """BO2 with one term of a total Steenrod operation removed."""
    pres = sp.space("BO2", 16)
    w1 = pres.gen_mono("w1")
    w2 = pres.gen_mono("w2")
    w1w2 = tuple(a + b for a, b in zip(w1, w2))
    w2w2 = tuple(2 * e for e in w2)
    total = dict(pres.total_sq)
    if drop == "w1w2":      # Sq1 w2 loses its w1*w2 term
        total["w2"] = total["w2"] ^ frozenset([w1w2])
    elif drop == "w2sq":    # Sq2 w2 loses the instability term w2^2
        total["w2"] = total["w2"] ^ frozenset([w2w2])
    elif drop == "w1sq":    # Sq1 w1 loses w1^2
        total["w1"] = total["w1"] ^ frozenset([tuple(2 * e for e in w1)])
    else:
        raise ValueError(drop)
    return SpacePresentation("BO2corrupt", pres.gens, pres.cutoff, total)


@pytest.mark.parametrize("drop", ["w2sq", "w1sq"])
def test_corrupted_bo2_wu_data_fails_validation(drop):
    pres = corrupted_bo2(drop)
    v = pres.cohomology_module().validate()
    if v is None:
        # the ring itself might survive; the twist then must fail
        with pytest.raises(ModuleError):
            sp.twist(pres, "0", "w2", generator_label="U").assert_valid()
    else:
        assert v.relation in ("Sq1∘Sq1 ≠ 0", "Sq2∘Sq2 ≠ Sq1∘Sq2∘Sq1")


def test_corrupted_sq1w2_changes_golden_table():
    # dropping the w1*w2 term of Sq1 w2 yields the ring of a *different*
    # space, so validation passes; the golden comparison catches it instead
    pres = corrupted_bo2("w1w2")
    assert pres.cohomology_module().validate() is None
    bad = sp.twist(pres, "0", "w2", generator_label="U")
    dec = md.split_free(bad, max_gen_degree=4)
    res = ex.minimal_resolution(dec.remainder, max_s=12, max_t=15)
    chart = ex.ext_chart(res)
    cert = ex.collapse_certificate(chart, report_max_s=8, max_n=3)
    rows = ex.assemble_groups(chart, cert)
    honest = [(1, ()), (0, (2,)), (0, (2,)), (0, (2,))]  # spin-O2 degrees 0..3
    free_at = [g for g, _ in dec.free_summands]
    got = [(r.free_rank, tuple(sorted(list(r.torsion) + [2] * free_at.count(r.degree),
                                      reverse=True))) for r in rows]
    assert got != honest


def test_corrupted_thom_sq1_breaks_two_form_sensitivity():
    # deliberately zeroing Sq1 U makes the degree-6 pullback non-injective
    honest = ob.twoform_degree6_injectivity()
    corrupt = ob.twoform_degree6_injectivity(corrupt_sq1_u=True)
    assert honest.injective and not corrupt.injective


def test_corrupted_pin_cell_changes_golden_groups():
    # flip the Sq1 parity of the pin- cell: Z/8 in degree 2 degenerates
    P = md.pin_minus_cell(24)
    flipped = {k: (1 - P.sq(1, k)[0],) for k in range(24)}
    bad = md.GradedA1Module({d: 1 for d in range(25)}, flipped, dict(P.sq2),
                            24, None, complete=False, name="Pflip")
    v = bad.validate()
    if v is None:
        res = ex.minimal_resolution(bad, max_s=12, max_t=14)
        chart = ex.ext_chart(res)
        cert = ex.collapse_certificate(chart, report_max_s=8, max_n=2)
        rows = ex.assemble_groups(chart, cert)
        honest = [(0, (2,)), (0, (2,)), (0, (8,))]
        got = [(r.free_rank, r.torsion) for r in rows]
        assert got != honest
    # else: caught even earlier, which also counts as detection


def test_corrupted_kz2_sq2_changes_obstruction_pullback():
    # drop Sq2(SB) = S21B from the K(Z/2,2) model: the generator image
    # no longer matches the Wu-formula value
    pres = sp.space("KZ2_2", 8)
    total = dict(pres.total_sq)
    s21 = pres.gen_mono("S21B")
    total["SB"] = total["SB"] ^ frozenset([s21])
    bad = SpacePresentation("KZ2bad", pres.gens, pres.cutoff, total, pres.sq_words)
    v = bad.cohomology_module().validate()
    assert v is not None  # Sq2Sq2 = Sq1Sq2Sq1 fails without the S21B term


def test_corrupted_bsO2_twist_detected_in_fk_table():
    # twist FK by w2 + w2-corruption: Sq2 U picks up a fake constant term;
    # with the corrupted b the FK module no longer satisfies the relations
    pres = sp.space("BSO2", 16)
    total = {"w2": frozenset([pres.gen_mono("w2")])}  # drop the w2^2 term
    bad = SpacePresentation("BSO2corrupt", pres.gens, pres.cutoff, total)
    with pytest.raises(ModuleError):
        sp.twist(bad, "0", "w2").assert_valid()
