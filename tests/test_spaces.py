from __future__ import annotations

import functools
import random

import pytest

from a1bordism import modules as md
from a1bordism import spaces as sp
from a1bordism.modules import catalog, iso_up_to_degree, split_free
from oracles import kzn_dims


# -- space catalog --------------------------------------------------------------


def test_bo1_total_squares():
    bo1 = sp.space("BO1", 6)
    t = bo1.gen_mono("t")
    assert bo1.format_poly(bo1.sq_k_mono(t, 1)) == "t^2"
    t2 = bo1.mono_mul(t, t)
    assert bo1.format_poly(bo1.sq_k_mono(t2, 2)) == "t^4"
    assert bo1.sq_k_mono(t2, 1) == frozenset()


def test_cartan_formula_on_products():
    # independent identity: Sq^k(m1·m2) = sum Sq^i m1 · Sq^j m2
    rng = random.Random(5)
    pres = sp.space("BO2", 9)
    for _ in range(200):
        d1 = rng.randint(1, 4)
        d2 = rng.randint(1, 4)
        b1 = pres.basis(d1)
        b2 = pres.basis(d2)
        if not b1 or not b2:
            continue
        m1 = rng.choice(b1)
        m2 = rng.choice(b2)
        prod = pres.mono_mul(m1, m2)
        if prod is None:
            continue
        for k in range(0, 3):
            lhs = pres.sq_k_mono(prod, k)
            rhs: set = set()
            for i in range(0, k + 1):
                for x in pres.sq_k_mono(m1, i):
                    for y in pres.sq_k_mono(m2, k - i):
                        z = pres.mono_mul(x, y)
                        if z is not None:
                            rhs.symmetric_difference_update([z])
            assert lhs == frozenset(rhs)


def test_wu_formula_matches_classical_values():
    bo3 = sp.space("BO3", 8)
    w2 = bo3.gen_mono("w2")
    w3 = bo3.gen_mono("w3")
    assert bo3.format_poly(bo3.sq_k_mono(w2, 1)) == "w3 + w1*w2"
    assert bo3.format_poly(bo3.sq_k_mono(w3, 1)) == "w1*w3"
    # Sq2 w3 = w2 w3 + w1 w4 + w5 with w4 = w5 = 0 in BO3
    assert bo3.format_poly(bo3.sq_k_mono(w3, 2)) == "w2*w3"
    assert bo3.sq_k_mono(w3, 2) == bo3.parse_poly("w2*w3")


def test_instability_on_generators():
    cases = [("BO1", 8), ("BO2", 8), ("BO3", 8), ("BSO2", 8), ("BO1xBO1", 8),
             ("BO1xBO2", 8), ("WuManifold", 5), ("KZ2_2", 8), ("KZ2_3", 6)]
    for name, cutoff in cases:
        pres = sp.space(name, cutoff)
        for g in pres.gens:
            mono = pres.gen_mono(g.label)
            total = pres.total_sq_mono(mono)
            for m in total:
                assert pres.mono_degree(m) <= 2 * g.degree, (name, g.label)
            top = pres.sq_k_mono(mono, g.degree)
            sq = pres.mono_mul(mono, mono)
            expect = frozenset([sq]) if sq is not None else frozenset()
            assert top == expect, (name, g.label)


def test_wu_manifold_actions():
    wu = sp.space("WuManifold", 5)
    z2 = wu.gen_mono("z2")
    z3 = wu.gen_mono("z3")
    assert wu.format_poly(wu.sq_k_mono(z2, 1)) == "z3"
    assert wu.format_poly(wu.sq_k_mono(z3, 2)) == "z2*z3"
    assert wu.sq_k_mono(z2, 2) == frozenset()  # z2^2 = 0
    assert wu.cohomology_module().validate() is None
    assert [len(wu.basis(d)) for d in range(6)] == [1, 0, 1, 1, 0, 1]


def test_kz2_dimensions_against_serre_oracle():
    for name, n, cap in (("KZ2_2", 2, 8), ("KZ2_3", 3, 6)):
        pres = sp.space(name, cap)
        expect = kzn_dims(n, cap)
        got = {d: len(pres.basis(d)) for d in range(cap + 1) if pres.basis(d)}
        assert got == {d: v for d, v in expect.items() if v}
        assert pres.cohomology_module().validate() is None


def test_kz2_2_h5_basis():
    pres = sp.space("KZ2_2", 5)
    assert len(pres.basis(5)) == 2
    labels = set(pres.element_labels(5))
    assert labels == {"S21B", "B*SB"}


def test_kz2_cutoff_refusal():
    with pytest.raises(ValueError):
        sp.space("KZ2_2", 9)
    with pytest.raises(ValueError):
        sp.space("KZ2_3", 7)


def test_unknown_space():
    with pytest.raises(ValueError):
        sp.space("BO7", 4)


# -- twists ----------------------------------------------------------------------


def test_twist_zero_is_cohomology():
    X = sp.space("BO2", 8)
    t = sp.twist(X, "0", "0")
    m = X.cohomology_module()
    assert {d: t.dim(d) for d in t.degrees()} == {d: m.dim(d) for d in m.degrees()}
    for d in range(7):
        assert t.sq1_map(d) == m.sq1_map(d)
        assert t.sq2_map(d) == m.sq2_map(d)


def test_twist_degree_mismatch():
    X = sp.space("BO2", 6)
    with pytest.raises(ValueError):
        sp.twist(X, "w2", "0")
    with pytest.raises(ValueError):
        sp.twist(X, "0", "w1")
    # a class with a term of another degree is refused, not truncated to
    # its right-degree part, whatever the cutoff
    for Y, a, b in ((sp.space("BO1", 8), "t + t^2", "0"), (sp.space("BO1", 1), "t + t^2", "0"),
                    (X, "w1 + w2", "0"), (X, "0", "w1 + w2"),
                    (sp.ThomSpace(sp.space("BO2", 4), 2), "0", "U + w1*U")):
        with pytest.raises(ValueError, match="has a term of degree"):
            sp.twist(Y, a, b)


def test_pin_minus_twist_vs_thom_construction():
    # the generic twist over BO1 equals the closed-form Thom module
    pm = sp.named_structure("PinMinus", 12)
    P = md.pin_minus_cell(12)
    assert [pm.dim(d) for d in range(13)] == [1] * 13
    for d in range(12):
        assert pm.sq1_map(d) == P.sq1_map(d)
        assert pm.sq2_map(d) == P.sq2_map(d)


def test_twist_external_sum_property():
    # twist(X,a,b) ⊗ twist(Y,c,d) ≅ twist(X×Y, a+c, b+d)
    cutoff = 7
    left = sp.twist(sp.space("BO1", cutoff), "t", "0", generator_label="U")
    right = sp.twist(sp.space("BSO2", cutoff), "0", "w2", generator_label="U")
    tens = left.tensor(right)
    xy = sp.space("BO1", cutoff).product(sp.space("BSO2", cutoff), name="BO1xBSO2")
    joint = sp.twist(xy, "t", "w2", generator_label="U")
    res = iso_up_to_degree(tens, joint.truncate(tens.hi), tens.hi, budget=60000)
    assert res.status == "iso"


def test_gm_twist_matches_figure_actions():
    gm = sp.named_structure("GM", 8)
    assert [gm.dim(d) for d in range(7)] == [1, 0, 1, 1, 2, 2, 3]
    # Sq2(Q) = QU, Sq1(QU) = Q w1 U, Sq2(QU) = 0 (U·U = w2·U cancels Sq2 U)
    assert gm.sq2_map(0).rows == (1,)
    assert gm.sq1_map(2).rows == (1,)
    assert gm.sq2_map(2).is_zero()


def test_thom_space_class_parsing():
    th = sp.ThomSpace(sp.space("BO2", 6), 2, name="MO2")
    u = th.parse_class("U", 2)
    assert u.degree == 2 and not u.unit
    with pytest.raises(ValueError):
        th.parse_class("w1", 1)  # base-only classes do not live in the Thom space
    with pytest.raises(ValueError):
        th.parse_class("1 + U", 2)  # inhomogeneous
    assert th.parse_class("U*U", 4).u_part == th.base.parse_poly("w2")  # U·U = w2·U
    with pytest.raises(ValueError):
        th.parse_class("U*U", 2)


def test_thom_parse_class_reads_powers_of_u():
    th = sp.ThomSpace(sp.space("BO2", 6), 2, name="MO2")
    assert th.parse_class("U^2", 4) == th.parse_class("U*U", 4) == th.parse_class("w2*U", 4)
    assert th.parse_class("w1*U^1", 3) == th.parse_class("w1*U", 3)
    assert th.parse_class("U^3", 6) == th.parse_class("w2^2*U", 6)
    for bad, degree in (("U^2", 2), ("U^0", 0), ("U^-1", 0)):
        with pytest.raises(ValueError):
            th.parse_class(bad, degree)


# -- named structures --------------------------------------------------------------


def test_named_structure_validates_and_bottoms_at_zero():
    for name in sp.STRUCTURE_NAMES:
        m = sp.named_structure(name, 8)
        assert m.validate() is None, name
        assert min(m.degrees()) == 0, name


def test_structure_dims_match_reference_charts():
    # graded dimensions through degree 6 of the figure modules
    checks = {
        "GM": [1, 0, 1, 1, 2, 2, 3],
        "SpinO2": [1, 1, 2, 2, 3, 3, 4],
        "SigmaBO2": [1, 1, 2, 2, 3, 3, 4],
        "PinMinus": [1, 1, 1, 1, 1, 1, 1],
        "PinPlus": [1, 1, 1, 1, 1, 1, 1],
        "TauMinus": [1, 2, 4, 6, 9, 12, 16],
        "TauPlus": [1, 2, 4, 6, 9, 12, 16],
    }
    for name, dims in checks.items():
        m = sp.named_structure(name, 8)
        assert [m.dim(d) for d in range(7)] == dims, name


def test_kt_minus_input_splits_into_expected_frees():
    m = sp.named_structure("KTminus", 11)
    dec = split_free(m, max_gen_degree=4)
    assert sorted(g for g, _ in dec.free_summands) == [0, 2, 4, 4, 4]
    assert all(d >= 5 for d in dec.remainder.degrees())


def test_kt_inputs_iso_to_free_sum_up_to_degree_four():
    # A(1) ⊕ Σ²A(1) ⊕ (Σ⁴A(1))³ through degree 4, for both signs
    target = catalog("A1free")
    target = target.direct_sum(catalog("A1free").suspend(2))
    for _ in range(3):
        target = target.direct_sum(catalog("A1free").suspend(4))
    for name in ("KTminus", "KTplus"):
        m = sp.named_structure(name, 11)
        res = iso_up_to_degree(m, target, 4, budget=100000)
        assert res.status == "iso", (name, res.reason)


def test_spin_o2_decomposes_as_r2_q_and_frees():
    m = sp.named_structure("SpinO2", 13)
    dec = split_free(m, max_gen_degree=6)
    assert sorted(g for g, _ in dec.free_summands if g <= 6) == [3, 5]
    rem = dec.remainder.quotient_above(6)
    target = catalog("R2").direct_sum(catalog("Q").suspend(4)).quotient_above(6)
    assert iso_up_to_degree(rem, target, 6).status == "iso"


def test_sigma_bo2_wedge_split_pieces():
    m = sp.named_structure("SigmaBO2", 12)
    a, b = sp.split_by_variable(m, "w2")
    assert [a.dim(d) for d in range(8)] == [1] * 8  # pin- cell
    assert b.dim(2) == 1 and b.dim(3) == 1
    # M-part: Σ²Q ⊕ Σ³A(1) ⊕ (degrees ≥ 6)
    dec = split_free(b, max_gen_degree=5)
    assert sorted(g for g, _ in dec.free_summands if g <= 5) == [3]
    rem = dec.remainder.quotient_above(5)
    assert iso_up_to_degree(rem, catalog("Q").suspend(2).quotient_above(5), 5).status == "iso"


# Tau± are built as pin ⊗ V(BO2, w1, w1^2) (the Cartan formula); twisting
# the product ring BO1xBO2 directly is the oracle they must equal exactly
TAU_TWISTS = {"TauMinus": ("a+b", "a^2+a*b+b^2"), "TauPlus": ("a+b", "a*b+b^2")}
TAU_PINS = {"TauMinus": "PinPlus", "TauPlus": "PinMinus"}


@functools.lru_cache(maxsize=None)
def tau_oracle(name: str, cutoff: int) -> md.GradedA1Module:
    a, b = TAU_TWISTS[name]
    return sp.twist(sp.space("BO1xBO2", cutoff), a, b, generator_label="U").renamed(name)


def assert_same_module(m: md.GradedA1Module, want: md.GradedA1Module) -> None:
    assert (m.name, m.lo, m.hi, m.complete) == (want.name, want.lo, want.hi, want.complete)
    assert dict(m.dims) == dict(want.dims)
    assert dict(m.labels) == dict(want.labels)
    assert dict(m.sq1) == dict(want.sq1)
    assert dict(m.sq2) == dict(want.sq2)


@pytest.mark.parametrize("cutoff", [0, 3, 12, 19, 29])
@pytest.mark.parametrize("name", sorted(TAU_TWISTS))
def test_tau_structure_equals_the_product_ring_oracle(name, cutoff):
    assert_same_module(sp.named_structure(name, cutoff), tau_oracle(name, cutoff))


@pytest.mark.parametrize("cutoff", [0, 3, 12, 19, 29])
@pytest.mark.parametrize("name", sorted(TAU_TWISTS))
def test_tau_pieces_equal_the_split_oracle(name, cutoff):
    pieces = sp.structure_pieces(name, cutoff)
    want = sp.split_by_variable(tau_oracle(name, cutoff), "c")
    assert [p.name for p in pieces] == [f"{name}[no c]", f"{name}[c·]"]
    assert len(pieces) == len(want)
    for piece, w in zip(pieces, want):
        assert_same_module(piece, w)


@pytest.mark.parametrize("name", sorted(TAU_TWISTS))
def test_tau_oracle_rejects_a_wrong_bo2_twist(name):
    """Negative control: the BO2 factor twisted by (w1, 0) is not Tau±."""
    cutoff = 12
    pin = sp.named_structure(TAU_PINS[name], cutoff)

    def sq2_ranks(m):
        return [m.sq2_map(d).rank() for d in range(cutoff - 1)]

    def with_bo2_twist(b):
        return pin.tensor(sp.twist(sp.space("BO2", cutoff), "w1", b, generator_label="U"))

    want = sq2_ranks(tau_oracle(name, cutoff))
    assert sq2_ranks(with_bo2_twist("w1^2")) == want
    assert sq2_ranks(with_bo2_twist("0")) != want


def test_structure_pieces_of_unsplit_and_split_structures():
    gm = sp.structure_pieces("GM", 8)
    assert [p.name for p in gm] == ["GM"]
    assert_same_module(gm[0], sp.named_structure("GM", 8))
    sigma = sp.structure_pieces("SigmaBO2", 8)
    for piece, want in zip(sigma, sp.split_by_variable(sp.named_structure("SigmaBO2", 8), "w2")):
        assert_same_module(piece, want)
    assert [p.name for p in sigma] == ["SigmaBO2[no w2]", "SigmaBO2[w2·]"]


def test_structure_unknown_name():
    with pytest.raises(ValueError):
        sp.named_structure("GMX", 8)
