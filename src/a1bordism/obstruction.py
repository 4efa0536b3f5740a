"""Primary obstructions to spontaneously breaking n-form Z/2 symmetries.

The background field of a broken n-form symmetry is a map to K(Z/2, n+1);
the broken phase needs a Poincaré-dual defect, i.e. a lift across the
Thom-class map from MO_{n+1}.  The primary obstruction is evaluated
through its mod-2 avatar: a class in H^{n+3}(K(Z/2, n+1)) modulo the
image of Sq1, pulled back along the Thom class and evaluated on cataloged
cohomology rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .gf2 import ColumnSolver
from . import spaces as sp
from .spaces import Poly, SpacePresentation


class ObstructionError(ValueError):
    pass


# -- the MO_n side ------------------------------------------------------------


def _thom_model(n: int) -> sp.ThomSpace:
    """H^*(MO_n) = U·H^*(BO_n) through degree n + 4, past the n + 3 window."""
    return sp.ThomSpace(sp.space(f"BO{n}", 4), n)


@dataclass
class PullbackMap:
    """The pullback H^d(K(Z/2,n)) -> H^d(MO_n) for n <= d <= n + 3.

    ``columns`` is degree → tuple of columns, where column j is the image
    of the model's j-th degree-d basis monomial, a bit vector in the basis
    of H^{d-n}(BO_n)·U.  ``images`` holds the image of each generator.
    """
    n: int
    kmodel: SpacePresentation
    thom: sp.ThomSpace
    columns: Dict[int, Tuple[int, ...]]
    images: Dict[str, Poly]

    def columns_at(self, d: int) -> Tuple[int, ...]:
        if d not in self.columns:
            raise ObstructionError(
                f"pullback degree {d} exceeds the modeled window (d <= {self.n + 3})")
        return self.columns[d]


def pullback_along_thom_class(n: int) -> PullbackMap:
    """The GF(2)-linear map H^d(K(Z/2,n)) -> H^d(MO_n) for d <= n+3.

    Sends the fundamental class to U, Sq^I classes to Sq^I U, and products
    to products (one U absorbed per extra factor via U·U = w_n U).
    """
    if n not in (2, 3):
        raise ObstructionError("the K(Z/2,n) model covers n in {2, 3}")
    kmodel = sp.space(f"KZ2_{n}", n + 3)
    thom = _thom_model(n)
    unit_u: Poly = frozenset([thom.base.unit()])
    images: Dict[str, Poly] = {}
    for g in kmodel.gens:
        word = kmodel.sq_words[g.label]
        images[g.label] = thom.apply_word(word, unit_u)
    columns: Dict[int, Tuple[int, ...]] = {}
    for d in range(n, n + 4):
        cols = []
        for mono in kmodel.basis(d):
            img: Optional[Poly] = None
            for e, g in zip(mono, kmodel.gens):
                for _ in range(e):
                    img = images[g.label] if img is None else thom.multiply(img, images[g.label])
            if img is None:
                cols.append(0)
            else:
                cols.append(thom.vector(img, d))
        columns[d] = tuple(cols)
    return PullbackMap(n, kmodel, thom, columns, images)


# -- one-form symmetry ---------------------------------------------------------


def _mod_sq1_image(model: SpacePresentation, d: int,
                   vectors: List[int]) -> Tuple[int, Tuple[bool, ...]]:
    """dim Im(Sq1: H^{d-1} -> H^d), and whether each degree-d vector lies in it."""
    span = ColumnSolver(model.sq_matrix(1, d - 1))
    return len(span.table), tuple(v in span for v in vectors)


@dataclass
class OneFormObstruction:
    expression: str                  # the conventional representative, mod Im Sq1
    class_vector: int                # in the degree-5 basis of the K(Z/2,2) model
    degree: int
    kernel_vectors: Tuple[int, ...]  # ker(Sq1: H^5 -> H^6) in the same basis
    sq1_image_dim: int               # dim Im(Sq1: H^4 -> H^5)
    quotient_dim: int
    kernel_matches_representative: bool
    note: str
    pullback: str                    # image of the representative in H^5(MO_2): Sq2Sq1 U


def primary_obstruction_oneform() -> OneFormObstruction:
    """The mod-2 primary obstruction to breaking a one-form Z/2 symmetry.

    Returns Sq2Sq1 B, the conventional representative modulo Im Sq1.  The
    derivation record also reports ker(Sq1: H^5 -> H^6) from the model; in
    the model that kernel is spanned by Sq2Sq1 B + B·Sq1 B, which differs
    from the representative by the decomposable B·Sq1 B.  The discrepancy
    is surfaced, not patched.
    """
    K = sp.space("KZ2_2", 6)
    kernel = tuple(ColumnSolver(K.sq_matrix(1, 5)).kernel)
    rep_mono = K.gen_mono("S21B")
    rep_vec = K.poly_vector(frozenset([rep_mono]), 5)
    im_dim, in_image = _mod_sq1_image(K, 5, [rep_vec ^ v for v in kernel])
    note = (
        "conventional representative Sq2Sq1B; the Sq1-closed line in H^5 is spanned by "
        "Sq2Sq1B + B*Sq1B (they differ by the decomposable B*Sq1B); "
        "reported as found, not patched"
    )
    mo2 = _thom_model(2)
    return OneFormObstruction(
        expression="Sq2Sq1 B (mod Im Sq1)",
        class_vector=rep_vec,
        degree=5,
        kernel_vectors=kernel,
        sq1_image_dim=im_dim,
        quotient_dim=len(K.basis(5)) - im_dim,
        kernel_matches_representative=any(in_image),
        note=note,
        pullback=mo2.format(mo2.apply_word("21", frozenset([mo2.base.unit()]))),
    )


# -- evaluation on cataloged spaces ---------------------------------------------


@dataclass
class EvaluationVerdict:
    space: str
    expression: str
    value: str
    nonzero_mod_sq1: bool
    detail: str


EVALUATION_SPACES = ("WuManifold", "SpinPlaceholder")


def evaluate_obstruction_on(space_name: str, word: str = "21",
                            generator: str = "z2") -> EvaluationVerdict:
    """Evaluate Sq^word(generator) modulo Im Sq1 on a cataloged space.

    The spin placeholder is handled by the documented rule that a vanishing
    second Wu class forces Sq2 to vanish on degree-(dim-2) classes of a
    closed spin 5-manifold, so Sq2Sq1 B = (w2 + w1^2) Sq1 B = 0.
    """
    expr = "Sq" + " Sq".join(word) + f" {generator}" if word else generator
    if space_name == "SpinPlaceholder":
        return EvaluationVerdict(
            space_name, expr, "0", False,
            "spin placeholder: v2 = w2 + w1^2 = 0, so Sq2 kills degree-3 classes "
            "of a closed spin 5-manifold and the obstruction class vanishes")
    if space_name != "WuManifold":
        raise ObstructionError(f"unknown evaluation space {space_name!r}; "
                               f"choose from {EVALUATION_SPACES}")
    wu = sp.space("WuManifold", 5)
    mono = wu.gen_mono(generator)
    p: Poly = frozenset([mono])
    deg = wu.mono_degree(mono)
    for letter in reversed(word):
        p = sp._poly([x for m in p for x in wu.sq_k_mono(m, int(letter))])
        deg += int(letter)
    if deg > wu.cutoff:
        raise ObstructionError(f"degree {deg} exceeds the Wu-manifold window")
    im_dim, (in_image,) = _mod_sq1_image(wu, deg, [wu.poly_vector(p, deg)])
    return EvaluationVerdict(
        space_name, expr, wu.format_poly(p), not in_image,
        f"value {wu.format_poly(p)} in H^{deg}; Im(Sq1) there has dimension {im_dim}")


# -- two-form symmetry -----------------------------------------------------------


@dataclass
class TwoFormVerdict:
    """Whether the degree-6 pullback K(Z/2,3) -> MO_3 is injective.

    ``columns`` is the map as a tuple of columns: column j is the image of
    ``basis[j]``, a bit vector in the basis of H^3(BO_3)·U.
    """
    injective: bool
    columns: Tuple[int, ...]
    images: Tuple[str, ...]
    basis: Tuple[str, ...]
    conclusion: str


def twoform_degree6_injectivity(corrupt_sq1_u: bool = False) -> TwoFormVerdict:
    """Pull back the degree-6 classes of K(Z/2,3) to MO_3 and test injectivity.

    H^6(K(Z/2,3)) is spanned by Sq2Sq1 C and C^2; their pullbacks are
    (w2 w1 + w1^3)U and w3 U, which are independent, so there is no
    degree-6 primary obstruction for 2-form Z/2 symmetries.  The
    ``corrupt_sq1_u`` switch deliberately zeroes Sq1 U to demonstrate that
    the verdict is sensitive to the Wu formula (for negative controls).
    """
    thom = _thom_model(3)
    unit_u: Poly = frozenset([thom.base.unit()])
    if corrupt_sq1_u:
        # drop the w1 term of Sq(U)/U, so Sq1(pU) = Sq1(p)·U
        thom._sq_u = thom._sq_u - {thom.base.gen_mono("w1")}
    img_sq2sq1 = thom.apply_word("21", unit_u)
    img_csq = thom.apply_word("3", unit_u)  # C^2 = Sq3 C pulls back to Sq3 U = w3 U
    cols = (thom.vector(img_sq2sq1, 6), thom.vector(img_csq, 6))
    inj = not ColumnSolver(cols).kernel
    conclusion = (
        "injective: no degree-6 primary obstruction for 2-form Z/2 symmetries"
        if inj else "not injective: a degree-6 obstruction class would be invisible")
    return TwoFormVerdict(inj, cols,
                          (thom.format(img_sq2sq1), thom.format(img_csq)),
                          ("Sq2Sq1C", "C^2"), conclusion)

