from __future__ import annotations

import pytest

from a1bordism import cli
from a1bordism import obstruction as ob
from a1bordism import spaces as sp


def test_pullback_sends_fundamental_class_to_thom_class():
    pb = ob.pullback_along_thom_class(2)
    assert ob._format_u(pb.thom[0], pb.images["B"]) == "(1)*U"
    pb3 = ob.pullback_along_thom_class(3)
    assert ob._format_u(pb3.thom[0], pb3.images["C"]) == "(1)*U"


def test_pullback_of_sq2sq1_matches_wu_formula_value():
    pb = ob.pullback_along_thom_class(2)
    assert ob._format_u(pb.thom[0], pb.images["S21B"]) == "(w1*w2 + w1^3)*U"
    pb3 = ob.pullback_along_thom_class(3)
    assert ob._format_u(pb3.thom[0], pb3.images["S21C"]) == "(w1*w2 + w1^3)*U"


def test_pullback_is_multiplicative_where_defined():
    # the only in-window products are the squares x^2 = Sq^n x of the
    # fundamental classes; both sides pull back to w_n U (U·U = w_n U);
    # Sq3 is written Sq1Sq2 (Adem)
    for n, word in ((2, "2"), (3, "12")):
        pb = ob.pullback_along_thom_class(n)
        km, ring = pb.kmodel, pb.thom[0]
        x = km.gens[0].label
        square = ob._times(ring, pb.images[x], pb.images[x])
        assert square == ob._sq_of_thom_class(pb.thom, word) == ring.parse_poly(f"w{n}")
        col = km.basis(2 * n).index(km.reduce_mono(tuple(2 * e for e in km.gen_mono(x))))
        assert pb.columns[2 * n][col] == ring.poly_vector(square, n)


def test_pullback_commutes_with_sq_on_generators():
    # Sq1(B) = SB and Sq2(SB) = S21B upstairs; downstairs the module's
    # letters act on the images, Sq1 U = w1 U first
    pb = ob.pullback_along_thom_class(2)
    ring, module = pb.thom

    def vec(label: str, d: int) -> int:
        return ring.poly_vector(pb.images[label], d - 2)

    assert module.apply_word("1", 2, [vec("B", 2)]) == [vec("SB", 3)]
    assert vec("SB", 3) == ring.poly_vector(ring.parse_poly("w1"), 1)
    assert module.apply_word("2", 3, [vec("SB", 3)]) == [vec("S21B", 5)]


def test_pullback_window_refusal():
    for n in (2, 3):
        assert sorted(ob.pullback_along_thom_class(n).columns) == list(range(n, n + 4))
    with pytest.raises(ob.ObstructionError):
        ob.pullback_along_thom_class(4)


def test_oneform_representative_and_quotient():
    one = ob.primary_obstruction_oneform()
    assert one.expression.startswith("Sq2Sq1 B")
    assert one.degree == 5
    # H^5(K(Z/2,2)) is 2-dimensional, Im Sq1 vanishes there
    assert one.sq1_image_dim == 0
    assert one.quotient_dim == 2
    assert one.class_vector != 0


def test_oneform_kernel_wrinkle_is_surfaced():
    # ker(Sq1: H^5 -> H^6) is spanned by Sq2Sq1B + B·Sq1B in the model; the
    # published representative differs by the decomposable, and the record
    # says so rather than patching either side.
    one = ob.primary_obstruction_oneform()
    assert len(one.kernel_vectors) == 1
    assert one.kernel_vectors[0] != one.class_vector
    assert not one.kernel_matches_representative
    assert "B*Sq1B" in one.note


def test_sq1_of_representative_lands_in_im_sq1():
    # Sq1(Sq2Sq1B) = (Sq1B)^2 = Sq1(B·Sq1B): zero in H^6 modulo Im Sq1
    K = sp.space("KZ2_2", 6)
    rep = K.gen_mono("S21B")
    sq1_rep = K.sq_k_mono(rep, 1)
    assert sq1_rep == K.parse_poly("SB^2")
    from a1bordism.gf2 import ColumnSolver, span_rref

    vec = K.poly_vector(sq1_rep, 6)
    basis, _ = span_rref(K.sq_matrix(1, 5), len(K.basis(6)))
    assert vec in ColumnSolver(basis)


def test_wu_manifold_evaluation_nonzero():
    v = ob.evaluate_obstruction_on("WuManifold", "21", "z2")
    assert v.value == "z2*z3"
    assert v.nonzero_mod_sq1


def test_wu_manifold_sq1():
    v = ob.evaluate_obstruction_on("WuManifold", "1", "z2")
    assert v.value == "z3"


def test_spin_placeholder_vanishes():
    v = ob.evaluate_obstruction_on("SpinPlaceholder")
    assert v.value == "0"
    assert not v.nonzero_mod_sq1


@pytest.mark.parametrize("word, generator", [("", "z2"), ("1", "q"), ("2", "z2"), ("21", "z3")])
def test_spin_placeholder_refuses_what_its_rule_does_not_cover(word, generator):
    # the rule speaks of Sq2 Sq1 z2 only: the class z2 itself, a generator
    # that does not exist and any other word or generator are refused
    with pytest.raises(ob.ObstructionError, match="covers only Sq2 Sq1 z2"):
        ob.evaluate_obstruction_on("SpinPlaceholder", word, generator)
    argv = ["obstruction", "evaluate", "--space", "SpinPlaceholder",
            "--word", word, "--generator", generator]
    out, code = cli.run(argv)
    assert code == 1 and out.startswith("error: the spin placeholder rule covers only"), out


def test_unknown_space_refused():
    with pytest.raises(ob.ObstructionError):
        ob.evaluate_obstruction_on("BO2")


def test_twoform_degree6_injective():
    two = ob.twoform_degree6_injectivity()
    assert two.injective
    assert two.images == ("(w1*w2 + w1^3)*U", "(w3)*U")
    # two columns have rank 2 exactly when both are nonzero and they differ
    first, second = two.columns
    assert first and second and first != second


def test_twoform_sensitive_to_wu_corruption():
    two = ob.twoform_degree6_injectivity(corrupt_sq1_u=True)
    assert not two.injective


def test_verdict_records_shape():
    # one TSV row per subcommand under the four-column header
    rows = {}
    for which in ("one-form", "two-form"):
        text, code = cli.run(["obstruction", which, "--format", "tsv"])
        assert code == 0
        header, *body = [line.split("\t") for line in text.splitlines()]
        assert header == ["degree", "class", "pullback", "verdict"]
        assert len(body) == 1 and len(body[0]) == 4
        rows[which] = dict(zip(header, body[0]))
    assert rows["one-form"]["pullback"] == "(w1*w2 + w1^3)*U"
    assert rows["two-form"]["degree"] == "6"
    assert rows["two-form"]["verdict"] == "injective"
