from __future__ import annotations

import functools
import hashlib
import random

import pytest

from a1bordism import modules as md
from a1bordism import obstruction as ob
from a1bordism import spaces as sp
from a1bordism.gf2 import ColumnSolver
from a1bordism.modules import catalog, iso_up_to_degree, split_free
from oracles import (brute_basis, derived_kzn, first_sq_mismatch, fresh_structure, fresh_twist,
                     graded_part, gm_thom_mismatch, kzn_dims, letter_matrix, memo_mismatch,
                     module_mismatch, thom_total_sq_reference, total_sq_reference)


# -- space catalog --------------------------------------------------------------


def mono_product(pres, m1, m2):
    """m1·m2 reduced in the presentation: None when it is zero or past the cutoff."""
    return pres.reduce_mono(tuple(a + b for a, b in zip(m1, m2)))


def test_bo1_total_squares():
    bo1 = sp.space("BO1", 6)
    t = bo1.gen_mono("t")
    assert bo1.format_poly(bo1.sq_k_mono(t, 1)) == "t^2"
    t2 = mono_product(bo1, t, t)
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
        prod = mono_product(pres, m1, m2)
        if prod is None:
            continue
        for k in range(0, 3):
            lhs = pres.sq_k_mono(prod, k)
            rhs: set = set()
            for i in range(0, k + 1):
                for x in pres.sq_k_mono(m1, i):
                    for y in pres.sq_k_mono(m2, k - i):
                        z = mono_product(pres, x, y)
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
        reference = total_sq_reference(pres)
        for g in pres.gens:
            mono = pres.gen_mono(g.label)
            total = reference[mono]
            for m in total:
                assert pres.mono_degree(m) <= 2 * g.degree, (name, g.label)
            top = pres.sq_k_mono(mono, g.degree)
            sq = mono_product(pres, mono, mono)
            expect = frozenset([sq]) if sq is not None else frozenset()
            assert top == expect, (name, g.label)



def truncated_rp4_cp2() -> sp.SpacePresentation:
    """H*(RP^4 x CP^2) = F2[t, x]/(t^5, x^3): nilpotence below the cutoff."""
    gens = [sp.Generator("t", 1, nilpotence=5), sp.Generator("x", 2, nilpotence=3)]
    total = {"t": frozenset([(1, 0), (2, 0)]), "x": frozenset([(0, 1), (0, 2)])}
    return sp.SpacePresentation("RP4xCP2", gens, 8, total)


GRADED_SQUARE_SPACES = [sp.space(name, sp._KZ_MAX_CUTOFF.get(name, 12))
                        for name in sp.SPACE_NAMES] + [truncated_rp4_cp2()]


# every SPACES entry at cutoffs 0, 1, 7 and the largest it is modeled at (29,
# the largest cutoff this suite builds a structure at, where nothing caps it)
BASIS_ORACLE_RINGS = {f"{name}-{c}": functools.partial(sp.space, name, c)
                      for name in sp.SPACE_NAMES
                      for c in (0, 1, 7, sp._KZ_MAX_CUTOFF.get(name, 29))
                      if c <= sp._KZ_MAX_CUTOFF.get(name, 29)} | {
    "RP4xCP2-8": truncated_rp4_cp2,
    "no-generators-5": lambda: sp.SpacePresentation("point", [], 5, {}),
    "degree-0-generator-6": lambda: sp.SpacePresentation(
        "u0", [sp.Generator("t", 1), sp.Generator("u", 0), sp.Generator("x", 2, nilpotence=3)],
        6, {}),
    "degree-0-generator-last-4": lambda: sp.SpacePresentation(
        "u0", [sp.Generator("t", 1, nilpotence=3), sp.Generator("u", 0)], 4, {}),
}


@pytest.mark.parametrize("key", sorted(BASIS_ORACLE_RINGS))
def test_basis_equals_the_brute_force_enumeration(key):
    # split_by_variable and _tau_labels read basis vector i as basis(d)[i],
    # so the sorted order is part of the contract
    pres = BASIS_ORACLE_RINGS[key]()
    expected = brute_basis(pres)
    for d in range(-1, pres.cutoff + 2):
        assert pres.basis(d) == tuple(expected.get(d, ())), d
        assert pres.index(d) == {m: i for i, m in enumerate(pres.basis(d))}, d


@pytest.mark.parametrize("pres", GRADED_SQUARE_SPACES, ids=lambda p: p.name)
def test_graded_squares_match_whole_total_squares(pres):
    # Sq^k of every basis monomial against the degree-(|m| + k) part of the
    # whole total square, built without the graded recursion
    reference = total_sq_reference(pres)
    for d in range(pres.cutoff + 1):
        for m in pres.basis(d):
            for k in range(d + 1):
                assert pres.sq_k_mono(m, k) == graded_part(pres, reference[m], d + k), (m, k)



def test_total_square_term_below_the_generator_is_refused():
    # Sq^j g only exists for j >= 0; a presentation built through the library
    # (parse_space already refuses it) with such a term is an error, not dropped
    gens = [sp.Generator("x", 2)]
    pres = sp.SpacePresentation("bad", gens, 6, {"x": frozenset([(0,), (1,), (2,)])})
    with pytest.raises(ValueError, match="below degree 2"):
        pres.sq_k_mono((1,), 1)

def u_multiples(n: int, cutoff: int, a: str, b: str):
    ring = sp.space(f"BO{n}", cutoff)
    return ring, sp.twist(ring, a, b, shift=n, generator_label="U")


@pytest.mark.parametrize("thom", [u_multiples(1, 4, "t", "0"), ob._thom_model(2),
                                  ob._thom_model(3), u_multiples(2, 11, "w1", "w2")],
                         ids=["MO1", "MO2", "MO3", "GM"])
def test_thom_squares_match_whole_total_squares(thom):
    # Sq^k(mU) = (Sq(m) · (1 + w1 + ... + wn))_{|m| + k} U, from the whole total square of m
    ring, module = thom
    whole = thom_total_sq_reference(ring)
    for d in range(ring.cutoff + 1):
        for k in (1, 2):
            want = tuple(ring.poly_vector(graded_part(ring, whole[m], d + k), d + k)
                         for m in ring.basis(d))
            assert module.sq(k, d + module.lo) == want, (d, k)


def test_space_catalog_refusals_and_clamps():
    assert sp.SPACE_NAMES == ("BO1", "BO2", "BO3", "BSO2", "BO1xBO1", "BO1xBO2",
                              "WuManifold", "KZ2_2", "KZ2_3")
    assert sp.space("BO1×BO2", 4).name == "BO1xBO2"
    assert sp.space("WuManifold", 9).cutoff == 5
    with pytest.raises(ValueError, match=r"^cutoff must be nonnegative$"):
        sp.space("BOX", -1)
    with pytest.raises(ValueError, match=r"^unknown space 'BOX'; choose from \('BO1', "):
        sp.space("BOX", 3)
    for name, cap in sp._KZ_MAX_CUTOFF.items():
        assert sp.space(name, cap).cutoff == cap
        with pytest.raises(ValueError, match=rf"^{name} is modeled only through degree {cap}; "
                                             rf"requested cutoff {cap + 1}$"):
            sp.space(name, cap + 1)


def test_wu_manifold_cutoff_is_clamped_before_the_memo():
    # the ring is zero above degree 5: every cutoff from 5 up gets one ring
    wu = sp.space("WuManifold", 5)
    assert all(sp.space("WuManifold", c) is wu for c in (6, 9, 30))
    assert sp.space("WuManifold", 4) is not wu and sp.space("WuManifold", 4).cutoff == 4


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


@pytest.mark.parametrize("name, n, cap", [("KZ2_2", 2, 8), ("KZ2_3", 3, 6)])
def test_kz2_tables_match_the_serre_adem_derivation(name, n, cap):
    table = sp.space(name, cap)
    derived = derived_kzn(n, cap, table.sq_words)
    assert [(g.label, g.degree) for g in derived.gens] == [(g.label, g.degree) for g in table.gens]
    assert first_sq_mismatch(derived, table) is None


def test_serre_adem_derivation_catches_a_missing_square():
    # drop C^2 = Sq1 Sq2 C from Sq(S2C): the derivation sees it at Sq1 on degree 5
    table = sp.space("KZ2_3", 6)
    mutant = sp.SpacePresentation(
        "KZ2_3", table.gens, 6, {**table.total_sq, "S2C": frozenset([table.gen_mono("S2C")])},
        sq_words=table.sq_words)
    assert first_sq_mismatch(derived_kzn(3, 6, table.sq_words), mutant) == (1, 5)


def test_obstruction_verdicts_read_the_derived_rings():
    # one form: ker(Sq1: H^5 -> H^6) of K(Z/2,2) is the line of Sq2Sq1B + B*Sq1B
    k2 = derived_kzn(2, 6, sp.space("KZ2_2", 6).sq_words)
    line = (k2.poly_vector(k2.parse_poly("S21B + B*SB"), 5),)
    assert tuple(ColumnSolver(k2.sq_matrix(1, 5)).kernel) == line
    assert ob.primary_obstruction_oneform().kernel_vectors == line
    # two form: H^6(K(Z/2,3)) is spanned by Sq2Sq1C and C^2
    k3 = derived_kzn(3, 6, sp.space("KZ2_3", 6).sq_words)
    assert set(k3.element_labels(6)) == {"S21C", "C^2"}
    assert ob.twoform_degree6_injectivity().basis == ("Sq2Sq1C", "C^2")


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
        assert t.sq(1, d) == m.sq(1, d)
        assert t.sq(2, d) == m.sq(2, d)


def test_twist_degree_mismatch():
    X = sp.space("BO2", 6)
    with pytest.raises(ValueError):
        sp.twist(X, "w2", "0")
    with pytest.raises(ValueError):
        sp.twist(X, "0", "w1")
    # a class with a term of another degree is refused, not truncated to
    # its right-degree part, whatever the cutoff
    for Y, a, b in ((sp.space("BO1", 8), "t + t^2", "0"), (sp.space("BO1", 1), "t + t^2", "0"),
                    (X, "w1 + w2", "0"), (X, "0", "w1 + w2")):
        with pytest.raises(ValueError, match="has a term of degree"):
            sp.twist(Y, a, b)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 13, 26])
def test_gm_matches_the_thom_space_cartan_formula(cutoff):
    ring = sp.space("BO2", max(cutoff - 2, 0))
    assert gm_thom_mismatch(sp.named_structure("GM", cutoff), ring, cutoff) is None


@pytest.mark.parametrize("cutoff", [5, 13, 26])
def test_gm_oracle_rejects_the_uncancelled_w2(cutoff):
    # over V(BO2, w1, w2) the U-multiples keep the w2 that U·pU = w2·pU cancels
    ring = sp.space("BO2", cutoff - 2)
    wrong = sp._thom_gm(sp.twist(ring, "w1", "w2"), ring).truncate(cutoff)
    assert gm_thom_mismatch(wrong, ring, cutoff) == "Sq2 from degree 2"


def test_pin_minus_twist_vs_thom_construction():
    # the generic twist over BO1 equals the closed-form Thom module
    pm = sp.named_structure("PinMinus", 12)
    P = md.pin_minus_cell(12)
    assert [pm.dim(d) for d in range(13)] == [1] * 13
    for d in range(12):
        assert pm.sq(1, d) == P.sq(1, d)
        assert pm.sq(2, d) == P.sq(2, d)


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
    assert gm.sq2[0] == (1,)
    assert gm.sq1[2] == (1,)
    assert not any(gm.sq(2, 2))


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
    a, b = sp.split_by_variable(m, sp.space("BO2", 12), "w2")
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
    want = sp.split_by_variable(tau_oracle(name, cutoff), sp.space("BO1xBO2", cutoff), "c")
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
        return [letter_matrix(m, 2, d).rank() for d in range(cutoff - 1)]

    def with_bo2_twist(b):
        return pin.tensor(sp.twist(sp.space("BO2", cutoff), "w1", b, generator_label="U"))

    want = sq2_ranks(tau_oracle(name, cutoff))
    assert sq2_ranks(with_bo2_twist("w1^2")) == want
    assert sq2_ranks(with_bo2_twist("0")) != want


# FKO and PinMinusO2 are Cartan products with a direct ring model,
# V(X×Y, a1 + a2, b1 + a1 a2 + b2): name -> (product ring at a cutoff, a, b,
# a wrong b, the product monomial of a (left, right) pair of factor monomials)
DIRECT_TWISTS = {
    # PinMinus ⊗ FK over BO1 x BSO2 = <t, w2>
    "FKO": (lambda c: sp.space("BO1", c).product(sp.space("BSO2", c), name="BO1xBSO2"),
            "t", "w2", "0", lambda x, y: x + y),
    # V(BO2, w1, w2) ⊗ PinMinus over BO1xBO2 = <a, b, c>: a = t, b = w1, c = w2
    "PinMinusO2": (lambda c: sp.space("BO1xBO2", c), "a+b", "c+a*b", "c", lambda x, y: y + x),
}


def direct_ring_permutation(name: str, cutoff: int):
    """degree -> the direct twist's basis index of each tensor basis vector.

    The tensor basis of degree d runs over the left factor's degrees d1,
    then its monomials of degree d1, then the right factor's of degree
    d - d1; each pair is one monomial of the product ring.
    """
    ring, _, _, _, pair = DIRECT_TWISTS[name]
    ring = ring(cutoff)
    left, right = (sp.TWISTS[f][0](cutoff) for f in sp.PRODUCTS[name])
    return {d: [ring.index(d)[pair(x, y)] for d1 in range(d + 1)
                for x in left.basis(d1) for y in right.basis(d - d1)]
            for d in range(cutoff + 1)}


def equal_under(m: md.GradedA1Module, direct: md.GradedA1Module, perm) -> bool:
    """Whether ``perm`` carries m's dims and Sq1/Sq2 columns onto ``direct``'s."""
    def moved(v, d):
        return sum(1 << perm[d][p] for p in range(v.bit_length()) if v >> p & 1)

    if dict(m.dims) != dict(direct.dims):
        return False
    return all(moved(col, d + k) == direct.sq(k, d)[perm[d][p]]
               for k in (1, 2) for d in m.degrees() for p, col in enumerate(m.sq(k, d)))


@pytest.mark.parametrize("cutoff", [12, 20])
@pytest.mark.parametrize("name", sorted(DIRECT_TWISTS))
def test_cartan_product_equals_its_direct_ring_twist(name, cutoff):
    ring, a, b, _, _ = DIRECT_TWISTS[name]
    perm = direct_ring_permutation(name, cutoff)
    assert all(sorted(p) == list(range(len(p))) for p in perm.values())
    if name == "FKO":
        assert all(p == sorted(p) for p in perm.values())
    direct = sp.twist(ring(cutoff), a, b, generator_label="U")
    assert equal_under(sp.named_structure(name, cutoff), direct, perm)


@pytest.mark.parametrize("name", sorted(DIRECT_TWISTS))
def test_direct_ring_oracle_rejects_a_wrong_b(name):
    ring, a, _, wrong_b, _ = DIRECT_TWISTS[name]
    cutoff = 12
    direct = sp.twist(ring(cutoff), a, wrong_b, generator_label="U")
    assert not equal_under(sp.named_structure(name, cutoff), direct,
                           direct_ring_permutation(name, cutoff))


def test_structure_pieces_of_unsplit_and_split_structures():
    gm = sp.structure_pieces("GM", 8)
    assert [p.name for p in gm] == ["GM"]
    assert_same_module(gm[0], sp.named_structure("GM", 8))
    sigma = sp.structure_pieces("SigmaBO2", 8)
    for piece, want in zip(sigma, sp.split_by_variable(sp.named_structure("SigmaBO2", 8),
                                                       sp.space("BO2", 8), "w2")):
        assert_same_module(piece, want)
    assert [p.name for p in sigma] == ["SigmaBO2[no w2]", "SigmaBO2[w2·]"]


@pytest.mark.parametrize("name, var", [("SigmaBO2", "w2"), ("V(BO2, b, b^2)", "c")])
def test_split_by_variable_reads_monomials_not_labels(name, var):
    cutoff = 14
    m, ring = sp._twist(name, cutoff), sp.TWISTS[name][0](cutoff)
    want = sp.split_by_variable(m, ring, var)
    assert all(half.total_dim() for half in want)
    # the default labels x{d}_{i}, and labels that all name the variable
    for labels in (None, {d: (f"U*{var}",) * n for d, n in m.dims.items()}):
        relabeled = md.GradedA1Module(m.dims, m.sq1, m.sq2, m.hi, labels, m.complete, m.name)
        got = sp.split_by_variable(relabeled, ring, var)
        for g, w in zip(got, want):
            assert ((g.name, dict(g.dims), dict(g.sq1), dict(g.sq2))
                    == (w.name, dict(w.dims), dict(w.sq1), dict(w.sq2)))


def test_split_by_variable_refuses_a_module_of_another_ring():
    with pytest.raises(ValueError, match=r"^SigmaBO2 is not a twist of BO2: degree 9 has 5 "
                                         r"classes, the ring 0$"):
        sp.split_by_variable(sp.named_structure("SigmaBO2", 12), sp.space("BO2", 8), "w2")


def test_structure_unknown_name():
    # refused on every call: a failed build leaves nothing in the factor cache
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^unknown structure 'GMX'; choose from \("):
            sp.named_structure("GMX", 8)


@pytest.mark.parametrize("cutoff, t", [(26, 20), (29, 23)])
@pytest.mark.parametrize("name", sp.STRUCTURE_NAMES)
def test_structure_pieces_commute_with_truncation(name, cutoff, t):
    # a pipeline may build its pieces only through the degrees it reads
    big = sp.structure_pieces(name, cutoff)
    small = sp.structure_pieces(name, t)
    assert len(big) == len(small)
    for piece, want in zip(big, small):
        assert_same_module(piece.truncate(t), want)


# -- the factor cache ------------------------------------------------------------


def test_every_structure_has_one_recipe_and_one_odd_part():
    from a1bordism.pipelines import ODD_PARTS
    for name in sp.STRUCTURE_NAMES:
        assert (name in sp.TWISTS) + (name in sp.PRODUCTS) == 1, name
    assert set(sp.PRODUCTS) <= set(sp.STRUCTURE_NAMES)
    assert {f for pair in sp.PRODUCTS.values() for f in pair} <= set(sp.TWISTS)
    assert set(ODD_PARTS) == set(sp.STRUCTURE_NAMES)
    # a factor-only twist is not a structure
    for name in set(sp.TWISTS) - set(sp.STRUCTURE_NAMES):
        with pytest.raises(ValueError, match=r"^unknown structure"):
            sp.named_structure(name, 8)
    assert "V(BO2, b, b^2)" in sp.TWISTS


@pytest.mark.parametrize("cutoff", [0, 1])
@pytest.mark.parametrize("name", ["GM", "KTminus", "KTplus"])
def test_thom_structures_below_the_thom_class_are_truncations(name, cutoff):
    # GM's Thom class sits in degree 2; a cutoff of 0 or 1 used to twist
    # BO2 at a negative cutoff and fail with "cutoff must be nonnegative"
    assert_same_module(sp.named_structure(name, cutoff),
                       sp.named_structure(name, 5).truncate(cutoff))


def test_truncating_at_the_top_keeps_the_module_itself():
    m = sp.twist(sp.space("BO2", 9), "w1", "0")
    assert not m.complete and m.truncate(m.hi) is m
    assert m.truncate(m.hi, complete=True) is not m
    # a class above hi is still cut off
    odd = md.GradedA1Module({0: 1, 3: 1}, {}, {}, 2)
    assert dict(odd.truncate(2).dims) == {0: 1}
    # GM's U-multiples start in degree 2, past cutoffs 0 and 1: the shared BO2 is cut
    for cutoff in (0, 1):
        gm = sp.named_structure("GM", cutoff)
        assert gm.hi == cutoff and max(gm.dims) <= cutoff
        assert all(d + 1 <= cutoff for d in gm.sq1) and all(d + 2 <= cutoff for d in gm.sq2)
        assert sp.TWISTS["GM"][0](cutoff) is sp.space("BO2", cutoff)


@pytest.mark.parametrize("name", sp.STRUCTURE_NAMES)
def test_every_structure_builds_at_the_smallest_cutoffs(name):
    for cutoff in range(4):
        m = sp.named_structure(name, cutoff)
        assert (m.name, m.hi, m.lo) == (name, cutoff, 0)
        assert m.validate() is None


@pytest.mark.parametrize("name", [n for n in sp.STRUCTURE_NAMES if n in sp.TWISTS])
def test_a_single_twist_structure_is_built_once(name):
    assert sp.named_structure(name, 9) is sp.named_structure(name, 9)


# -- shared rings -------------------------------------------------------------------


def test_a_ring_is_built_once_and_cannot_change():
    ring = sp.space("BO2", 7)
    assert sp.space("BO2", 7) is ring
    assert sp.space("BO1×BO2", 7) is sp.space("BO1xBO2", 7)
    parsed, *_ = sp.parse_space("GEN t DEG 1\nSQ t = t + t^2\nCUTOFF 4")
    for pres in (ring, parsed):
        for attr in [a for a in dir(pres) if not a.startswith("_")] + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(pres, attr, None)
        label = pres.gens[0].label
        with pytest.raises(TypeError):
            pres.total_sq[label] = frozenset()
        with pytest.raises(TypeError):
            pres.sq_words[label] = "1"


def test_tau_builds_no_ring_after_its_first_call(monkeypatch):
    built = []
    init = sp.SpacePresentation.__init__

    def counting(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(sp.SpacePresentation, "__init__", counting)
    sp.structure_pieces("TauMinus", 11)
    built.clear()
    sp.structure_pieces("TauPlus", 11)
    sp.structure_pieces("TauMinus", 11)
    sp.named_structure("TauPlus", 11)
    assert built == []


@pytest.mark.parametrize("cutoff", range(30))
def test_shared_rings_build_what_fresh_rings_build(cutoff):
    for name in sp.TWISTS:
        assert module_mismatch(sp._twist(name, cutoff), fresh_twist(name, cutoff)) is None, name
        assert memo_mismatch(sp.TWISTS[name][0](cutoff)) is None, name
    for name in sp.STRUCTURE_NAMES:
        assert module_mismatch(sp.named_structure(name, cutoff),
                               fresh_structure(name, cutoff)) is None, name


@pytest.mark.parametrize("name", ["FKO", "KTminus", "KTplus", "PinMinusO2", "TauMinus", "TauPlus"])
def test_a_product_structure_is_rebuilt_on_every_call(name):
    # products are never held by the cache: keeping them raised peak memory
    first, second = sp.named_structure(name, 9), sp.named_structure(name, 9)
    assert first is not second
    assert_same_module(first, second)
    assert construction_digest([first]) == construction_digest([second])


@pytest.mark.parametrize("name", ["GM", "KTminus", "TauPlus"])
def test_a_negative_cutoff_is_refused_on_every_call(name):
    for _ in range(2):
        with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
            sp.named_structure(name, -1)


def test_heavy_structures_share_their_twisted_factors(monkeypatch):
    # KT± share GM, KTminus, PinMinusO2 and TauPlus share PinMinus,
    # TauMinus shares PinPlus with KTplus, and Tau± share V(BO2, b, b^2):
    # 5 twists for the 5 products, not 10, and none again on a second pass
    sp._twist.cache_clear()
    calls = []
    twist = sp.twist

    def counted(model, *args, **kwargs):
        calls.append(model.name)
        return twist(model, *args, **kwargs)

    monkeypatch.setattr(sp, "twist", counted)
    for _ in range(2):
        for name in ("KTminus", "KTplus", "TauMinus", "TauPlus", "PinMinusO2"):
            sp.named_structure(name, 8)
    assert sorted(calls) == ["BO1", "BO1", "BO2", "BO2", "BO2"]


# -- pinned construction bytes ----------------------------------------------------


def construction_digest(modules):
    """SHA-256 of the dims, labels and Sq1/Sq2 columns of each module."""
    data = [(tuple(sorted(m.dims.items())),
             tuple(sorted(m.labels.items())),
             tuple((d, m.sq1[d]) for d in sorted(m.sq1)),
             tuple((d, m.sq2[d]) for d in sorted(m.sq2)))
            for m in modules]
    return hashlib.sha256(repr(data).encode()).hexdigest()


# recorded with the total-square construction of the Steenrod action; any
# change to how spaces build modules must reproduce these bytes.  "name@c"
# covers named_structure(name, c) followed by structure_pieces(name, c) at
# the small cutoffs 5 and 13 and the pipeline cutoffs 26 (through 4) and
# 29 (through 7); "H*(X)" is the catalog space's cohomology module at
# cutoff 20, or at its cap for K(Z/2, n)
CONSTRUCTION_DIGESTS = {
    "FK@5":
        "5cc3fd13744477b9788bacba37c4291241ef8797914f2356329f9330326fd658",
    "FKO@5":
        "9d4ef17ce2329859017569d6fd35d79cbf14d1464de8c34a7860a47acc97c7ab",
    "GM@5":
        "cbb138df7f7d9b861b9f355b8cd516ef86838892c0a0862f7040529f257285a2",
    "KTminus@5":
        "a6b23c5a440570829a7ee807dbdc6984ce6ebc4373a4176d31f42cf8f28fc838",
    "KTplus@5":
        "c533ee76d91661b0ef00463648002234d1f2e699823cafadc1a4fd734e7b6bf1",
    "SpinO2@5":
        "4180ceba1a9530c556d25b1282bbd2bca80e4a63924e7480a070559edcf3a1e7",
    "SigmaBO2@5":
        "3a1c18a7692eaf2ad5bdfc3059477d0a7ab422b714c77869cd79c7b719f24cfc",
    "TauMinus@5":
        "37f3d33e02b303239c36bced48a85309c1b0dc2feac97e7d9d44bf99ca5a0a06",
    "TauPlus@5":
        "7e1cae9f115d4fd787965a2383cf35cf41b6dda0098e4ba4040eecd3ee47630f",
    "PinMinusO2@5":
        "bf1bf5dd9b962cd97f3f565e05278adc5a5af6e581be331e8bfc188c46297a8d",
    "PinMinus@5":
        "caa8a22deefdc239f77032e329e02641081140f9ccb604a7c1e345608d521b79",
    "PinPlus@5":
        "9f4bd1fc399559191f5b63cd906105492e5add078bdf9024cc6da2eb61a89f0b",
    "MV_a_ab@5":
        "612d76f0abc7975024fc4e4c3e343faab2a0637d4fab17765422f196feca313d",
    "FK@13":
        "592ae1f67ae71aa66d027ea33c913c07d369685421604c4383cc7c7268094630",
    "FKO@13":
        "9d2d57cc08938a2d1d4cea5ebe2ba4bacaa2b12cc259e0650cd5abf51c374f4c",
    "GM@13":
        "6d201ad243882731741e8754bdc3091d4c3fe7f7f9b952d68e7292dd798fed7d",
    "KTminus@13":
        "1725dc9dca4615a5481432d27fded6c68668150b88b85814ffcca9d411b357be",
    "KTplus@13":
        "2fe223d1d692a76e90416a8d9ae5b0a05ba919781e7df3b8b7cf9682e67a4c89",
    "SpinO2@13":
        "058412c6aa4bc316fc1983f15536e8d12d24ea6799ca0dbdb1d733e703f0cc95",
    "SigmaBO2@13":
        "bc879e7d8145b8616afc434b8cde271a0094c53a483a0052336acd5df6fc2659",
    "TauMinus@13":
        "689049cb283f68f534803019011907894f760530bf4244a0444b841502cbbf28",
    "TauPlus@13":
        "dfdb1931b0862d1875957dea31bc4b70663db3c1a1d6796b444619d2bf1894f0",
    "PinMinusO2@13":
        "0259e774e669c8d5ae916f3bb5c39ce82c1f5b42bd995d5e918113c929123dd4",
    "PinMinus@13":
        "3df4d2dcdb2f1ef16ffa56a9ed84d45c231275aa1dc3fdcaf3271af291b68cee",
    "PinPlus@13":
        "e86d79d0fe75c7ac8979f8a886ca18e861785811a0a0b7d5c4df193140243781",
    "MV_a_ab@13":
        "6e77f1b4208b8adf644bb6554f172e871d504fb866ab10f1decf22a9a9e5b46f",
    "FK@26":
        "dad8a7bc7170d5cc1dd340fcf868b5c1259ae652032efba5946a8d239576ca7d",
    "FKO@26":
        "8aabe12f93ae9c045b936cd511706299881c0520f78873e2708f7f459e133a78",
    "GM@26":
        "6deda3aea7110bde00261ebc3f02b168ae9bce655059d82f890d726d78edefc3",
    "KTminus@26":
        "f4bba7877aaa60fff55bcf725e835eadb38ebd70373c4da8cd09e271deecf53f",
    "KTplus@26":
        "e30cfbfc9a2f3ecec7ca7d7ce6087fdbcf7b2a98509c1d59fb9c7cde360a3b4a",
    "SpinO2@26":
        "4826da03426514aa00b178a283a7d88fd00c8594f7321f29fbfa35e257304755",
    "SigmaBO2@26":
        "4010f760ed5d7ece861c6d607bc49c90cd862d759930d944d19187a3f96e3d8f",
    "TauMinus@26":
        "a04d2689adc4858cba3d1672708ac56613e13e583ddf2b2f16d5aeee36a61c99",
    "TauPlus@26":
        "5a767d3cf7ebe992b36d2f5909e27f0839093f3c68be7e560e8f708d0a31fe13",
    "PinMinusO2@26":
        "0fff77b790d85a950b3ec44d282d437dd02363b2bd55b3304ae0d4c2aabe949a",
    "PinMinus@26":
        "07de08e695988c73eedf65739b7a20c3533956908badedaa2c2ba9ffe3f04645",
    "PinPlus@26":
        "d57822ad27e4593b2cac7c7ba5b09b1e669feafd80da6cc75b4d23cab855ac3c",
    "MV_a_ab@26":
        "6e498300ce3b75720c915975866bae54b14c3d6f4e8a3190a791a50d39e0176b",
    "FK@29":
        "b78930da0737cbf9c900e182813824e7a51bb8856d75cd760b9942ffeba3ce8e",
    "FKO@29":
        "fb96d246a78310414bf02e757d94d94283530a83e2913c1f4c9cd0120bc76955",
    "GM@29":
        "403a4f11038d01242cf8e8bd2dd655ec57df429a386a0d883c2b553dff84a66c",
    "KTminus@29":
        "59e92d4a19b83f61500cd10d45b26fa2f538d9bd1484367df39248603f648a1f",
    "KTplus@29":
        "13400c3061e4b8c2501ee8b3e9c230938201a365d0fd42ae097dcf8dd7653733",
    "SpinO2@29":
        "b3bf36f2a00e783db4112e9a000b96e36e31da92c6714420e3c16b2838bc0e4b",
    "SigmaBO2@29":
        "6f0062b48157b940bf436c451a4a1e39d907aee5c432b2f2be25c102997c3039",
    "TauMinus@29":
        "e3fc8ebc92e3f5816eb63b65430b8d53f6e9d0f909a85718afb934221faf6651",
    "TauPlus@29":
        "72c32bfa2f294cca2fa679b19573fd7a2fe51c5fa451b826aea1de4d9f70def7",
    "PinMinusO2@29":
        "c1aa1998b2180b21e67b2489e3e10dbda2674c2c18306b04cef03e0e6ccbb457",
    "PinMinus@29":
        "3600dcd4b910cf1ca0496b4cb85427046f18ced33a25bb614404e29b501841ee",
    "PinPlus@29":
        "54e5e0fce09686d8113edc29cf63fc75ef8696ce60de4f72cd46c8c223c10402",
    "MV_a_ab@29":
        "f093c01a69b041e49847f0d05b362e8613657ac2544f2ad1e8af93d4d1e0e979",
    "H*(BO1)":
        "803a8992b3977b909d6cc439deb03b9adc7b7d235f3b47c6b48c08e44b1a2760",
    "H*(BO2)":
        "7aa4bb274c6631f21692d59842cd4c7c0f5480b66f5ecb497819ebef905d93e6",
    "H*(BO3)":
        "8568f6152a1cc2372bc92af227d4eaf4bc6ec96760514edd54ceb7e0c274f3cf",
    "H*(BSO2)":
        "2f6662b5ffca319925a2ae36abe5799097527f80d5dc6f5990c635294174ac39",
    "H*(BO1xBO1)":
        "1595d4c40692677cb37b4b45c26d2e03d14dd62e3ad04ee06ba53f1a186f8e06",
    "H*(BO1xBO2)":
        "ce021d663665d4f713d5fcefcce5222a11892ab3c9dfea09c8653d139418c981",
    "H*(WuManifold)":
        "c43cf037ff5d0e3497401dca0612439a7f8b9efe11f08e98e77d0b0810331317",
    "H*(KZ2_2)":
        "51f50b96e6b4f178e82457bb58d384d7137f0770877ba4f1707af839973d490d",
    "H*(KZ2_3)":
        "6ab62288114ae1dd813bb314c98cf608380d4bfa755eaba2122a7f2c09d55581",
}


def test_module_construction_bytes_are_pinned():
    got = {}
    for cutoff in (5, 13, 26, 29):
        for name in sp.STRUCTURE_NAMES:
            modules = [sp.named_structure(name, cutoff)] + sp.structure_pieces(name, cutoff)
            got[f"{name}@{cutoff}"] = construction_digest(modules)
    for name in sp.SPACE_NAMES:
        pres = sp.space(name, sp._KZ_MAX_CUTOFF.get(name, 20))
        got[f"H*({name})"] = construction_digest([pres.cohomology_module()])
    assert got == CONSTRUCTION_DIGESTS
    assert ob.twoform_degree6_injectivity().conclusion == (
        "injective: no degree-6 primary obstruction for 2-form Z/2 symmetries")
    assert ob.twoform_degree6_injectivity(corrupt_sq1_u=True).conclusion == (
        "not injective: a degree-6 obstruction class would be invisible")
