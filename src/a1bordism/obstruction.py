"""Primary obstructions to spontaneously breaking n-form Z/2 symmetries.

The background field of a broken n-form symmetry is a map to K(Z/2, n+1);
the broken phase needs a Poincaré-dual defect, i.e. a lift across the
Thom-class map from MO_{n+1}.  The primary obstruction is evaluated
through its mod-2 avatar: a class in H^{n+3}(K(Z/2, n+1)) modulo the
image of Sq1, pulled back along the Thom class and evaluated on cataloged
cohomology rings.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .gf2 import ColumnSolver
from .modules import GradedA1Module
from . import spaces as sp
from .spaces import Poly, SpacePresentation
from .steenrod import word_degree


class ObstructionError(ValueError):
    pass


# -- the MO_n side ------------------------------------------------------------

# The BO_n ring and the U-multiples of H^*(MO_n) over it.
ThomModel = Tuple[SpacePresentation, GradedA1Module]


def _thom_model(n: int, a: str = "w1") -> ThomModel:
    """H^*(MO_n) = U·H^*(BO_n) through degree n + 4, past the n + 3 window.

    By the Thom isomorphism Sq(pU) = Sq(p)(1 + w1 + ... + wn)U, which on
    Sq1 and Sq2 is the twist V(BO_n, w1, w2) with U in degree n.  Passing
    ``a = "0"`` drops the w1 of Sq1 U, for the negative control.
    """
    ring = sp.space(f"BO{n}", 4)
    return ring, sp.twist(ring, a, "w2", shift=n, generator_label="U")


def _sq_of_thom_class(thom: ThomModel, word: str) -> Poly:
    """The coefficient p of Sq^word U = pU for a normal-form word, by the module's action."""
    ring, module = thom
    (v,) = module.apply_word(word, module.lo, [1])
    return frozenset(m for i, m in enumerate(ring.basis(word_degree(word))) if v >> i & 1)


def _times(ring: SpacePresentation, p: Poly, q: Poly) -> Poly:
    """(pU)(qU) = (p q w_n)U, with w_n, the ring's last generator, the mod-2 Euler class."""
    return ring.poly_mul(ring.poly_mul(p, q), frozenset([ring.gen_mono(ring.gens[-1].label)]))


def _format_u(ring: SpacePresentation, p: Poly) -> str:
    return "(" + ring.format_poly(p) + ")*U" if p else "0"


class PullbackMap(NamedTuple):
    """The pullback H^d(K(Z/2,n)) -> H^d(MO_n) for n <= d <= n + 3.

    ``columns`` is degree → tuple of columns, where column j is the image
    of the model's j-th degree-d basis monomial, a bit vector in the basis
    of H^{d-n}(BO_n)·U.  ``images`` holds each generator's image pU by its
    coefficient p over ``thom``'s ring.
    """
    n: int
    kmodel: SpacePresentation
    thom: ThomModel
    columns: Dict[int, Tuple[int, ...]]
    images: Dict[str, Poly]


def pullback_along_thom_class(n: int) -> PullbackMap:
    """The GF(2)-linear map H^d(K(Z/2,n)) -> H^d(MO_n) for d <= n+3.

    Sends the fundamental class to U, Sq^I classes to Sq^I U, and products
    to products (one U absorbed per extra factor via U·U = w_n U).
    """
    if n not in (2, 3):
        raise ObstructionError("the K(Z/2,n) model covers n in {2, 3}")
    kmodel = sp.space(f"KZ2_{n}", n + 3)
    thom = _thom_model(n)
    ring = thom[0]
    images = {g.label: _sq_of_thom_class(thom, kmodel.sq_words[g.label]) for g in kmodel.gens}
    columns: Dict[int, Tuple[int, ...]] = {}
    for d in range(n, n + 4):
        cols = []
        for mono in kmodel.basis(d):
            img: Optional[Poly] = None
            for e, g in zip(mono, kmodel.gens):
                for _ in range(e):
                    img = images[g.label] if img is None else _times(ring, img, images[g.label])
            cols.append(0 if img is None else ring.poly_vector(img, d - n))
        columns[d] = tuple(cols)
    return PullbackMap(n, kmodel, thom, columns, images)


# -- one-form symmetry ---------------------------------------------------------


def _mod_sq1_image(model: SpacePresentation, d: int,
                   vectors: List[int]) -> Tuple[int, Tuple[bool, ...]]:
    """dim Im(Sq1: H^{d-1} -> H^d), and whether each degree-d vector lies in it."""
    span = ColumnSolver(model.sq_matrix(1, d - 1))
    return len(span.table), tuple(v in span for v in vectors)


class OneFormObstruction(NamedTuple):
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
        pullback=_format_u(mo2[0], _sq_of_thom_class(mo2, "21")),
    )


# -- evaluation on cataloged spaces ---------------------------------------------


class EvaluationVerdict(NamedTuple):
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
    closed spin 5-manifold, so Sq2Sq1 B = (w2 + w1^2) Sq1 B = 0; it answers
    only that call, word 21 on z2, and refuses any other.
    """
    if word.strip("0123456789"):  # some letter is not a digit
        raise ObstructionError(f"word {word!r} must be digits, one Sq degree a letter (e.g. 21)")
    expr = "Sq" + " Sq".join(word) + f" {generator}" if word else generator
    if space_name == "SpinPlaceholder":
        if (word, generator) != ("21", "z2"):
            raise ObstructionError(f"the spin placeholder rule covers only Sq2 Sq1 z2, not {expr}")
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


class TwoFormVerdict(NamedTuple):
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
    thom = _thom_model(3, a="0" if corrupt_sq1_u else "w1")
    ring = thom[0]
    img_sq2sq1 = _sq_of_thom_class(thom, "21")
    img_csq = _sq_of_thom_class(thom, "12")  # C^2 = Sq3 C = Sq1Sq2 C pulls back to w3 U
    cols = (ring.poly_vector(img_sq2sq1, 3), ring.poly_vector(img_csq, 3))
    inj = not ColumnSolver(cols).kernel
    conclusion = (
        "injective: no degree-6 primary obstruction for 2-form Z/2 symmetries"
        if inj else "not injective: a degree-6 obstruction class would be invisible")
    return TwoFormVerdict(inj, cols,
                          (_format_u(ring, img_sq2sq1), _format_u(ring, img_csq)),
                          ("Sq2Sq1C", "C^2"), conclusion)

