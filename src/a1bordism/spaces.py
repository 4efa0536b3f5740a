"""Cohomology presentations of classifying spaces and their twisted modules.

A presentation is a truncated polynomial ring with the total Steenrod
operation recorded on each generator.  Sq^k of a monomial is built by the
graded Cartan recursion Sq^k(m·g) = sum_j Sq^(k-j)(m) · Sq^j(g) from each
generator's components Sq^j(g), so only the degrees asked for (k = 1, 2
for the modules) are ever computed.  Wu's formula for Sq^i(w_j) is
implemented once and used for every BO_n.  The twisted-module constructor
realizes the spin-twist action

    Sq1(Q x) = Q(a x + Sq1 x),   Sq2(Q x) = Q(b x + a Sq1 x + Sq2 x)

as pure matrix algebra over a presentation X, from its ``sq_matrix(k, d)``
and ``mult_matrix(p, degree, d)`` columns, the layout the modules keep.
Twist classes are given as text and parsed by the presentation.

A Thom space's reduced cohomology is U·H*(X), with Sq(pU) = Sq(p)·w·U for
the total Stiefel-Whitney class w (the Thom isomorphism).  On Sq¹ and Sq²
that is the twist by a = w1 and b = w2, so H*(MO_n) is V(BO_n, w1, w2)
with U in degree n; the obstructions use it.  GM = V(MO2, 0, U) is built
by the same isomorphism: the twist by U adds U·pU = w2·pU, which cancels
the w2 term of Sq²(pU), so the U-multiples of GM are Σ²V(BO2, w1, 0),
under one class Q with Sq²Q = Q·U.

A Thom space of a sum of bundles is the smash of the Thom spaces,
Th(V⊕W) = Th(V) ∧ Th(W); in cohomology that is the Cartan formula, so

    V(X×Y, a1 + a2, b1 + a1 a2 + b2) = V(X, a1, b1) ⊗ V(Y, a2, b2).

The catalog of spaces is the ``SPACES`` table (name -> presentation at a
cutoff).  Two more tables hold every structure's recipe.  ``TWISTS``
gives each single twist V(X, a, b) (GM's U-multiples, Pin±, FK, SpinO2,
SigmaBO2, MV_a_ab, and two BO2 factors) as a presentation, a, b and a
generator label; ``PRODUCTS`` gives FKO, KT±, PinMinusO2 and Tau± as the
tensor product of two of them.  Every twist is built once per (name,
cutoff) by ``_twist`` and shared; the products are built afresh on every
call.

Basis labels are for display only: no code here reads them.  A twist's
basis in degree d is its ring's ``basis(d)``, so ``split_by_variable``
picks a wedge piece by the exponent of a generator in those monomials.
TauMinus = PinPlus ⊗ V(BO2, b, b²) and TauPlus = PinMinus ⊗ V(BO2, b, b²)
are labeled ``U*a^i*b^j*c^k`` from the BO1×BO2 monomials, whose order
the tensor basis already has.  Their wedge pieces split the small BO2
factor by w2 (``c``) before tensoring; a twist of ``space("BO1xBO2")``
stays as the oracle the tests compare with.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .gf2 import combine
from .modules import GradedA1Module, binom2

Monomial = Tuple[int, ...]
Poly = FrozenSet[Monomial]


def _poly(monos: Sequence[Monomial]) -> Poly:
    out: set = set()
    for m in monos:
        if m in out:
            out.discard(m)
        else:
            out.add(m)
    return frozenset(out)


class Generator(NamedTuple):
    label: str
    degree: int
    nilpotence: Optional[int] = None  # g^e = 0 for e >= nilpotence


class SpacePresentation:
    """Truncated graded-commutative GF(2) polynomial ring with total Sq data.

    Its reduced monomials through the cutoff are enumerated once, at construction.
    """

    def __init__(self, name: str, gens: Sequence[Generator], cutoff: int,
                 total_sq: Dict[str, Poly], sq_words: Optional[Dict[str, str]] = None):
        if cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        self.name = name
        self.gens = tuple(gens)
        self.cutoff = cutoff
        self.total_sq = dict(total_sq)
        self.sq_words = dict(sq_words or {})
        self._degrees = tuple(g.degree for g in self.gens)
        self._nilpotent = tuple((i, g.nilpotence) for i, g in enumerate(self.gens)
                                if g.nilpotence is not None)
        self._sq_cache: Dict[Tuple[Monomial, int], Poly] = {}
        # every reduced monomial with its degree, one generator's exponent at
        # a time; a generator of degree 0 takes exponent 0 only
        monos: List[Tuple[Monomial, int]] = [((), 0)]
        for g in self.gens:
            grown = []
            for m, d in monos:
                emax = (cutoff - d) // g.degree if g.degree else 0
                if g.nilpotence is not None:
                    emax = min(emax, g.nilpotence - 1)
                grown.extend((m + (e,), d + e * g.degree) for e in range(emax + 1))
            monos = grown
        by_degree: Dict[int, List[Monomial]] = {d: [] for d in range(cutoff + 1)}
        for m, d in monos:
            by_degree[d].append(m)
        self._basis = {d: tuple(sorted(ms)) for d, ms in by_degree.items()}
        self._index = {d: {m: i for i, m in enumerate(b)} for d, b in self._basis.items()}

    # -- monomials -------------------------------------------------------

    def mono_degree(self, m: Monomial) -> int:
        return sum(e * g for e, g in zip(m, self._degrees))

    def reduce_mono(self, m: Monomial) -> Optional[Monomial]:
        for i, nil in self._nilpotent:
            if m[i] >= nil:
                return None
        if self.mono_degree(m) > self.cutoff:
            return None
        return m

    def poly_mul(self, p: Poly, q: Poly) -> Poly:
        products = (tuple(map(operator.add, m1, m2)) for m1 in p for m2 in q)
        return _poly([m for m in products if self.reduce_mono(m) is not None])

    def _mul_into(self, acc: set, xs, ys) -> None:
        """XOR into ``acc`` every product x·y that survives nilpotence.

        The caller checks the cutoff once: all the products share a degree.
        """
        nilpotent = self._nilpotent
        for x in xs:
            for y in ys:
                m = tuple(map(operator.add, x, y))
                if nilpotent and any(m[i] >= nil for i, nil in nilpotent):
                    continue
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)

    def unit(self) -> Monomial:
        return tuple(0 for _ in self.gens)

    def gen_mono(self, label: str) -> Monomial:
        for i, g in enumerate(self.gens):
            if g.label == label:
                return tuple(1 if j == i else 0 for j in range(len(self.gens)))
        raise ValueError(f"unknown generator {label!r} in {self.name}")

    def mono_label(self, m: Monomial) -> str:
        parts = []
        for e, g in zip(m, self.gens):
            if e == 1:
                parts.append(g.label)
            elif e > 1:
                parts.append(f"{g.label}^{e}")
        return "*".join(parts) if parts else "1"

    def basis(self, d: int) -> Tuple[Monomial, ...]:
        """The reduced monomials of degree d, sorted; () outside 0..cutoff."""
        return self._basis.get(d, ())

    def index(self, d: int) -> Dict[Monomial, int]:
        """Monomial -> its position in ``basis(d)``; {} outside 0..cutoff."""
        return self._index.get(d, {})

    def poly_vector(self, p: Poly, d: int) -> int:
        # every reduced monomial of degree d is in the index, no other is
        idx = self.index(d)
        v = 0
        for m in p:
            i = idx.get(m)
            if i is not None:
                v ^= 1 << i
        return v

    def terms(self, text: str) -> List[Monomial]:
        """The monomials of a polynomial string, one per term, before truncation."""
        text = text.strip()
        if text in ("0", ""):
            return []
        out: List[Monomial] = []
        for term in text.split("+"):
            mono = self.unit()
            for factor in term.strip().split("*"):
                factor = factor.strip()
                if factor == "1":
                    continue
                if "^" in factor:
                    lab, _, exponent = factor.partition("^")
                    # ASCII digits only: int() would also read "1_0" and non-ASCII digits
                    digits = exponent.strip().removeprefix("-")
                    if not (digits.isascii() and digits.isdigit()):
                        raise ValueError(f"invalid exponent in {factor!r}")
                    e = int(exponent)
                    if e < 0:
                        raise ValueError(f"negative exponent in {factor!r}")
                else:
                    lab, e = factor, 1
                base = self.gen_mono(lab.strip())
                mono = tuple(a + e * b for a, b in zip(mono, base))
            out.append(mono)
        return out

    def parse_poly(self, text: str) -> Poly:
        return _poly([m for m in self.terms(text) if self.reduce_mono(m) is not None])

    def parse_class(self, text: str, degree: int) -> Poly:
        """A homogeneous class of the given degree; any other term is an error."""
        for m in self.terms(text):
            if self.mono_degree(m) != degree:
                raise ValueError(f"class {text!r} has a term of degree "
                                 f"{self.mono_degree(m)}, expected {degree}")
        return self.parse_poly(text)

    def format_poly(self, p: Poly) -> str:
        if not p:
            return "0"
        return " + ".join(self.mono_label(m) for m in sorted(p))

    # -- Steenrod action ---------------------------------------------------

    @functools.cached_property
    def _gen_components(self) -> Tuple[Tuple[Tuple[Monomial, ...], ...], ...]:
        """Sq^0 g, Sq^1 g, ... of each generator g, sorted out of ``total_sq``.

        Read on first use, not at construction: ``parse_space`` builds the
        presentation first and fills ``total_sq`` as it parses the SQ lines.
        """
        out = []
        for g in self.gens:
            by_j: Dict[int, List[Monomial]] = {}
            for t in self.total_sq[g.label]:
                j = self.mono_degree(t) - g.degree
                if j < 0:
                    raise ValueError(f"Sq({g.label}) has the term {self.mono_label(t)} "
                                     f"below degree {g.degree}")
                by_j.setdefault(j, []).append(t)
            out.append(tuple(tuple(by_j.get(j, ())) for j in range(max(by_j, default=-1) + 1)))
        return tuple(out)

    def sq_k_mono(self, m: Monomial, k: int) -> Poly:
        """Sq^k m by the graded Cartan recursion on m's last generator g.

        Sq^k(m) = sum_j Sq^(k-j)(m / g) · Sq^j g, with Sq^j g read from the
        generator's components; every term has degree |m| + k, so the
        cutoff is checked once and no product's degree is summed.
        """
        key = (m, k)
        hit = self._sq_cache.get(key)
        if hit is not None:
            return hit
        last = max((i for i, e in enumerate(m) if e), default=None)
        acc: set = set()
        if last is None:
            if k == 0:
                acc.add(m)
        elif self.mono_degree(m) + k <= self.cutoff:
            prefix = m[:last] + (m[last] - 1,) + m[last + 1:]
            comps = self._gen_components[last]
            for j in range(min(k, len(comps) - 1) + 1):
                if comps[j]:
                    self._mul_into(acc, self.sq_k_mono(prefix, k - j), comps[j])
        out = frozenset(acc)
        self._sq_cache[key] = out
        return out

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    def sq_matrix(self, k: int, d: int) -> List[int]:
        """Columns of Sq^k from degree d."""
        return [self.poly_vector(self.sq_k_mono(m, k), d + k) for m in self.basis(d)]

    def mult_matrix(self, p: Poly, pdeg: int, d: int) -> List[int]:
        """Columns of multiplication by p (of degree pdeg) from degree d."""
        # a product is in the degree-(d + pdeg) index iff it is reduced and of that degree
        idx = self.index(d + pdeg)
        cols = []
        for m in self.basis(d):
            v = 0
            for q in p:
                i = idx.get(tuple(map(operator.add, m, q)))
                if i is not None:
                    v ^= 1 << i
            cols.append(v)
        return cols

    def element_labels(self, d: int) -> Tuple[str, ...]:
        return tuple(self.mono_label(m) for m in self.basis(d))

    def cohomology_module(self) -> GradedA1Module:
        dims = {d: self.dim(d) for d in range(self.cutoff + 1) if self.dim(d)}
        labels = {d: self.element_labels(d) for d in dims}
        sq1 = {d: self.sq_matrix(1, d) for d in dims if dims.get(d + 1)}
        sq2 = {d: self.sq_matrix(2, d) for d in dims if dims.get(d + 2)}
        return GradedA1Module(dims, sq1, sq2, self.cutoff, labels, complete=False,
                              name=f"H*({self.name})")

    def product(self, other: "SpacePresentation", name: str = "") -> "SpacePresentation":
        n1 = len(self.gens)
        gens = list(self.gens) + list(other.gens)
        cutoff = min(self.cutoff, other.cutoff)

        def lift1(p: Poly) -> Poly:
            return frozenset(m + (0,) * len(other.gens) for m in p)

        def lift2(p: Poly) -> Poly:
            return frozenset((0,) * n1 + m for m in p)

        total = {g.label: lift1(p) for g, p in ((g, self.total_sq[g.label]) for g in self.gens)}
        total.update({g.label: lift2(other.total_sq[g.label]) for g in other.gens})
        labels = {g.label for g in gens}
        if len(labels) != len(gens):
            raise ValueError("generator label clash in product")
        return SpacePresentation(name or f"{self.name}x{other.name}", gens, cutoff, total)


# -- Wu formula --------------------------------------------------------------


def wu_total_sq(j: int, n: int) -> List[Tuple[int, ...]]:
    """Monomials of the total Steenrod operation on w_j in H^*(BO_n).

    Sq^i(w_j) = sum_t C(j+t-i-1, t) w_{i-t} w_{j+t} for i < j, and w_j^2
    for i = j; classes w_k with k > n vanish.
    """
    def wmono(*factors: int) -> Optional[Tuple[int, ...]]:
        exps = [0] * n
        for f in factors:
            if f == 0:
                continue
            if f > n:
                return None
            exps[f - 1] += 1
        return tuple(exps)

    monos: List[Tuple[int, ...]] = []
    for i in range(0, j + 1):
        if i == j:
            m = wmono(j, j)
            if m is not None:
                monos.append(m)
            continue
        for t in range(0, i + 1):
            c = 1 if t == 0 else binom2(j + t - i - 1, t)
            if not c:
                continue
            m = wmono(i - t, j + t)
            if m is not None:
                monos.append(m)
    return monos


def bo_presentation(n: int, cutoff: int, labels: Optional[Sequence[str]] = None,
                    name: str = "") -> SpacePresentation:
    labels = list(labels or [f"w{j}" for j in range(1, n + 1)])
    gens = [Generator(labels[j - 1], j) for j in range(1, n + 1)]
    total: Dict[str, Poly] = {}
    for j in range(1, n + 1):
        # the i = 0 term of the Wu sum is already Sq^0 w_j = w_j
        total[labels[j - 1]] = _poly([tuple(m) for m in wu_total_sq(j, n)])
    return SpacePresentation(name or f"BO{n}", gens, cutoff, total)


_KZ_MAX_CUTOFF = {"KZ2_2": 8, "KZ2_3": 6}


# name -> the presentation at a cutoff.  The Wu manifold's ring is zero
# above degree 5, so a larger cutoff is clamped to 5; K(Z/2, n) is modeled
# only through _KZ_MAX_CUTOFF, and ``space`` refuses a larger cutoff.
SPACES: Dict[str, Callable[[int], SpacePresentation]] = {
    "BO1": lambda c: bo_presentation(1, c, labels=["t"], name="BO1"),
    "BO2": lambda c: bo_presentation(2, c, name="BO2"),
    "BO3": lambda c: bo_presentation(3, c, name="BO3"),
    # Sq(w2) = w2 + w2^2
    "BSO2": lambda c: SpacePresentation("BSO2", [Generator("w2", 2)], c,
                                        {"w2": _poly([(1,), (2,)])}),
    "BO1xBO1": lambda c: bo_presentation(1, c, labels=["a"], name="BO1a").product(
        bo_presentation(1, c, labels=["b"], name="BO1b"), name="BO1xBO1"),
    "BO1xBO2": lambda c: bo_presentation(1, c, labels=["a"], name="BO1").product(
        bo_presentation(2, c, labels=["b", "c"], name="BO2"), name="BO1xBO2"),
    "WuManifold": lambda c: SpacePresentation(
        "WuManifold", [Generator("z2", 2, nilpotence=2), Generator("z3", 3, nilpotence=2)],
        min(c, 5), {
            "z2": _poly([(1, 0), (0, 1)]),          # Sq(z2) = z2 + z3
            "z3": _poly([(0, 1), (1, 1)]),          # Sq(z3) = z3 + z2 z3
        }),
    "KZ2_2": lambda c: SpacePresentation(
        "KZ2_2", [Generator("B", 2), Generator("SB", 3), Generator("S21B", 5)], c, {
            "B": _poly([(1, 0, 0), (0, 1, 0), (2, 0, 0)]),
            "SB": _poly([(0, 1, 0), (0, 0, 1), (0, 2, 0)]),
            "S21B": _poly([(0, 0, 1), (0, 2, 0), (0, 0, 2)]),
        }, sq_words={"B": "", "SB": "1", "S21B": "21"}),
    "KZ2_3": lambda c: SpacePresentation(
        "KZ2_3", [Generator("C", 3), Generator("S1C", 4), Generator("S2C", 5),
                  Generator("S21C", 6)], c, {
            "C": _poly([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (2, 0, 0, 0)]),
            "S1C": _poly([(0, 1, 0, 0), (0, 0, 0, 1)]),
            "S2C": _poly([(0, 0, 1, 0), (2, 0, 0, 0)]),  # Sq1 Sq2 C = Sq3 C = C^2
            "S21C": _poly([(0, 0, 0, 1)]),
        }, sq_words={"C": "", "S1C": "1", "S2C": "2", "S21C": "21"}),
}

SPACE_NAMES = tuple(SPACES)


def space(name: str, cutoff: int) -> SpacePresentation:
    """Catalog of the classifying-space presentations used by the pipelines."""
    name = name.replace("×", "x")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if name not in SPACES:
        raise ValueError(f"unknown space {name!r}; choose from {SPACE_NAMES}")
    cap = _KZ_MAX_CUTOFF.get(name, cutoff)
    if cutoff > cap:
        raise ValueError(f"{name} is modeled only through degree {cap}; requested cutoff {cutoff}")
    return SPACES[name](cutoff)


# -- the twisted-module constructor -------------------------------------------


def twist(model: SpacePresentation, a: str, b: str, shift: int = 0,
          generator_label: str = "Q") -> GradedA1Module:
    """Module of an (X, a, b)-twisted spin structure over the presentation X.

    The generator sits in degree ``shift`` (the virtual-rank normalization
    is already folded in: every named structure below has its bottom class
    in degree 0).  ``a`` and ``b`` are class strings of degrees 1 and 2,
    parsed by X; a term of another degree is a ``ValueError``.
    """
    a_cls = model.parse_class(a, 1)
    b_cls = model.parse_class(b, 2)
    # built once per degree: Sq1 on degree d enters sq1[d] and the a·Sq1 term
    # of sq2[d]; multiplication by a on degree d enters sq1[d] and sq2[d - 1]
    sq1_of = {d: model.sq_matrix(1, d) for d in range(model.cutoff)}
    a_times = {d: model.mult_matrix(a_cls, 1, d) for d in range(model.cutoff)}
    dims, labs, sq1, sq2 = {}, {}, {}, {}
    for d in range(model.cutoff + 1):
        if not model.dim(d):
            continue
        dims[d + shift] = model.dim(d)
        labs[d + shift] = tuple(f"{generator_label}*{s}" for s in model.element_labels(d))
        # dim is 0 above the cutoff; a sum of maps XORs their columns
        if model.dim(d + 1):
            sq1[d + shift] = [x ^ y for x, y in zip(a_times[d], sq1_of[d])]
        if model.dim(d + 2):
            a_sq1 = combine(a_times[d + 1], sq1_of[d])
            sq2[d + shift] = [x ^ y ^ z for x, y, z in zip(
                model.mult_matrix(b_cls, 2, d), model.sq_matrix(2, d), a_sq1)]
    out = GradedA1Module(dims, sq1, sq2, model.cutoff + shift, labs, complete=False,
                         name=f"V({model.name})")
    return out.assert_valid()


# -- named structures ----------------------------------------------------------


STRUCTURE_NAMES = (
    "FK", "FKO", "GM", "KTminus", "KTplus", "SpinO2", "SigmaBO2",
    "TauMinus", "TauPlus", "PinMinusO2", "PinMinus", "PinPlus", "MV_a_ab",
)

# name -> (presentation at a cutoff, a, b, generator label) of V(X, a, b).
# GM's entry is V(BO2, w1, 0), its U-multiples, which ``_twist`` puts under
# GM's bottom class (``_thom_gm``); its Thom class sits in degree 2, so below
# cutoff 2 its ring is BO2 at cutoff 0, truncated by ``_twist``: truncating
# commutes with twisting.  The last two are factors of PRODUCTS only; Tau±'s
# BO2 is <b, c>.
TWISTS: Dict[str, Tuple[Callable[[int], SpacePresentation], str, str, str]] = {
    "FK": (lambda c: space("BSO2", c), "0", "w2", "Q"),
    "PinMinus": (lambda c: space("BO1", c), "t", "0", "U"),
    "PinPlus": (lambda c: space("BO1", c), "t", "t^2", "U"),
    "GM": (lambda c: space("BO2", max(c - 2, 0)), "w1", "0", "Q"),
    "SpinO2": (lambda c: space("BO2", c), "0", "w2", "U"),
    "SigmaBO2": (lambda c: space("BO2", c), "w1", "0", "U"),
    "MV_a_ab": (lambda c: space("BO1xBO1", c), "a", "a*b", "U"),
    "V(BO2, w1, w2)": (lambda c: space("BO2", c), "w1", "w2", "U"),
    "V(BO2, b, b^2)": (lambda c: bo_presentation(2, c, labels=["b", "c"], name="BO2"),
                       "b", "b^2", "U"),
}

# name -> (left, right) factor in TWISTS, by the Cartan formula.  Tau± are
# V(BO1xBO2, a + b, b1 + ab + b^2) = V(BO1, a, b1) ⊗ V(BO2, b, b^2) with
# BO1 = <a>: the pin factor is PinPlus (b1 = a^2) for TauMinus and PinMinus
# (b1 = 0) for TauPlus, whose t is the a here.
PRODUCTS: Dict[str, Tuple[str, str]] = {
    "FKO": ("PinMinus", "FK"),
    "KTminus": ("GM", "PinMinus"),
    "KTplus": ("GM", "PinPlus"),
    "PinMinusO2": ("V(BO2, w1, w2)", "PinMinus"),
    "TauMinus": ("PinPlus", "V(BO2, b, b^2)"),
    "TauPlus": ("PinMinus", "V(BO2, b, b^2)"),
}


@functools.lru_cache(maxsize=None)
def _twist(name: str, cutoff: int) -> GradedA1Module:
    """The ``TWISTS`` module ``name`` through degree ``cutoff``, built once per (name, cutoff)."""
    model, a, b, label = TWISTS[name]
    ring = model(cutoff)
    m = twist(ring, a, b, generator_label=label)
    if name == "GM":
        m = _thom_gm(m, ring)
    return m.truncate(cutoff).renamed(name)


def _thom_gm(u_multiples: GradedA1Module, ring: SpacePresentation) -> GradedA1Module:
    """GM = V(MO2, 0, U) from ``u_multiples`` = V(BO2, w1, 0) over ``ring`` = BO2.

    H*(MO2) is the unit and U·H*(BO2), with Sq(pU) = Sq(p)(1 + w1 + w2)U;
    the twist by U adds U·pU = w2·pU, which cancels the w2.  So the
    U-multiples of GM are Σ²V(BO2, w1, 0), and its bottom class Q has
    Sq²Q = Q·U, the first class of degree 2, and Sq¹Q = 0.
    """
    s = u_multiples.suspend(2)
    labels = {0: ("Q*1",)}
    labels.update({d + 2: tuple(f"Q*{ring.mono_label(x)}*U" if any(x) else "Q*U"
                                for x in ring.basis(d)) for d in u_multiples.dims})
    return GradedA1Module({0: 1, **s.dims}, s.sq1, {0: (1,), **s.sq2}, s.hi, labels)


def named_structure(name: str, cutoff: int) -> GradedA1Module:
    """The A(1)-module whose Ext computes the 2-complete bordism of ``name``.

    Every module is normalized so its bottom class sits in degree 0; the
    spec's virtual-rank shifts are already absorbed.  A structure in
    ``TWISTS`` is built once per (name, cutoff) and every call gets the
    same module, as ``catalog`` does; a structure in ``PRODUCTS`` tensors
    its two shared factors afresh on each call, and no product is kept
    once its caller drops it.  Tau± take the BO1xBO2 monomial labels.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if name not in STRUCTURE_NAMES:
        raise ValueError(f"unknown structure {name!r}; choose from {STRUCTURE_NAMES}")
    if name in TWISTS:
        return _twist(name, cutoff)
    left, right = PRODUCTS[name]
    m = _twist(left, cutoff).tensor(_twist(right, cutoff))
    if right == "V(BO2, b, b^2)":
        return _tau_labels(m, name, space("BO1xBO2", cutoff))
    return m.renamed(name)


def _tau_labels(m: GradedA1Module, name: str, ring: SpacePresentation,
                var: Optional[str] = None, multiples: bool = False) -> GradedA1Module:
    """A pin factor ⊗ V(BO2, b, b^2) product under the labels ``U*<monomial>``.

    The monomials are those of ``ring`` = BO1xBO2 = <a, b, c>, in its
    order: the tensor basis (pin degree, then the BO2 factor's basis)
    already runs in that order, so the pin's t^i is a^i.  Given ``var``,
    only the monomials whose exponent of it is positive (``multiples``)
    or zero are kept, the basis of that wedge half.
    """
    v = ring.gen_mono(var).index(1) if var else None
    labels = {d: tuple("U*" + ring.mono_label(x) for x in ring.basis(d)
                       if v is None or (x[v] > 0) == multiples)
              for d in m.dims}
    return GradedA1Module(m.dims, m.sq1, m.sq2, m.hi, labels, m.complete, name)


# structure -> (variable whose multiples split off, provenance note); each
# split mirrors a section of spaces, so it holds at the level of spectra and
# spectral sequences, not just modules
SPECTRUM_SPLITS: Dict[str, Tuple[str, str]] = {
    "SigmaBO2": ("w2", "BO1->BO2 with determinant section splits off the pin- wedge summand"),
    "TauMinus": ("c", "O1xO1 -> O1xO2 with (id,det) section splits off the Klein-cover summand"),
    "TauPlus": ("c", "O1xO1 -> O1xO2 with (id,det) section splits off the Klein-cover summand"),
}


def split_by_variable(m: GradedA1Module, ring: SpacePresentation,
                      var: str) -> Tuple[GradedA1Module, GradedA1Module]:
    """Split a twist of ``ring`` into (var-free part, var-multiples part).

    Basis vector i of degree d is the monomial ``ring.basis(d)[i]``, the
    order ``twist`` builds; it joins the var-multiples part when its
    exponent of ``var`` is positive.  Labels are not read.  A module with a
    degree d of other than ``ring.dim(d)`` classes is refused.  Both spans
    must be closed under the action (checked); this implements the
    documented wedge decompositions above.
    """
    bad = [d for d in m.degrees() if m.dim(d) != ring.dim(d)]
    if bad:
        raise ValueError(f"{m.name} is not a twist of {ring.name}: degree {bad[0]} has "
                         f"{m.dim(bad[0])} classes, the ring {ring.dim(bad[0])}")
    v = ring.gen_mono(var).index(1)
    part_a: Dict[int, List[int]] = {}
    part_b: Dict[int, List[int]] = {}
    for d in m.degrees():
        for i, x in enumerate(ring.basis(d)):
            (part_b if x[v] else part_a).setdefault(d, []).append(1 << i)
    a, _ = m.submodule(part_a, name=f"{m.name}[no {var}]")
    b, _ = m.submodule(part_b, name=f"{m.name}[{var}·]")
    return a, b


def structure_pieces(name: str, cutoff: int) -> List[GradedA1Module]:
    """The wedge pieces a pipeline resolves for ``name``.

    A structure with a ``SPECTRUM_SPLITS`` entry gives its two halves,
    ``name[no v]`` and ``name[v·]``; any other gives its module alone.
    Tau±, the products that split, split their BO2 factor by w2 (``c``)
    and tensor each half with the pin factor, so the 1,925-class product
    (at cutoff 26) is never built.
    """
    if name not in SPECTRUM_SPLITS:
        return [named_structure(name, cutoff)]
    var = SPECTRUM_SPLITS[name][0]
    if name in TWISTS:
        return list(split_by_variable(named_structure(name, cutoff), TWISTS[name][0](cutoff), var))
    pin, bo2 = PRODUCTS[name]
    halves = split_by_variable(_twist(bo2, cutoff).renamed(name), TWISTS[bo2][0](cutoff), var)
    ring = space("BO1xBO2", cutoff)
    return [_tau_labels(_twist(pin, cutoff).tensor(half), half.name, ring, var, multiples)
            for half, multiples in zip(halves, (False, True))]


# -- text format (.space) -------------------------------------------------------


def parse_space(text: str):
    """Parse the .space format; returns (presentation, a, b, shift).

    Every error names a line: the offending one, the GEN line of a
    generator without an SQ line, the SQ line of a generator whose data
    break the A(1) relations, or the last line when CUTOFF is missing.
    SPACE, each SQ generator, CUTOFF, SHIFT, TWIST A and TWIST B are given
    once: a second line is refused, naming the first.
    """
    name = "anonymous"
    gens: List[Generator] = []
    gen_lines: Dict[str, int] = {}
    sq_lines: Dict[str, Tuple[int, str]] = {}  # generator -> (line, polynomial)
    cutoff: Optional[int] = None
    twists = {"A": (0, "0"), "B": (0, "0")}  # slot -> (line, class)
    shift = 0
    last = 0
    # "SPACE", "SQ t", "CUTOFF", "SHIFT", "TWIST A" or "TWIST B" -> its line
    first: Dict[str, int] = {}

    def claim(key: str, ln: int) -> None:
        if key in first:
            raise ValueError(f"line {ln}: duplicate {key} (first on line {first[key]})")
        first[key] = ln

    for ln, raw in enumerate(text.splitlines(), start=1):
        last = ln
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "SPACE":
            claim("SPACE", ln)
            name = " ".join(parts[1:])
        elif parts[0] == "GEN":
            usage = f"line {ln}: GEN <label> DEG <d> [NILPOTENT <e>]"
            if (len(parts) not in (4, 6) or parts[2] != "DEG"
                    or parts[4:5] not in ([], ["NILPOTENT"])):
                raise ValueError(usage)
            try:
                deg = int(parts[3])
                nil = int(parts[5]) if len(parts) == 6 else None
            except ValueError:
                raise ValueError(usage)
            if not parts[1].isidentifier():
                raise ValueError(f"line {ln}: generator label {parts[1]!r} is not a name")
            if parts[1] in gen_lines:
                raise ValueError(f"line {ln}: duplicate generator {parts[1]!r}")
            if deg < 1 or (nil is not None and nil < 1):
                raise ValueError(f"line {ln}: generator degree and nilpotence must be positive")
            gens.append(Generator(parts[1], deg, nil))
            gen_lines[parts[1]] = ln
        elif parts[0] == "SQ":
            body = line[2:].strip()
            if "=" not in body:
                raise ValueError(f"line {ln}: SQ <label> = <polynomial>")
            lab, poly = body.split("=", 1)
            claim(f"SQ {lab.strip()}", ln)
            sq_lines[lab.strip()] = (ln, poly.strip())
        elif parts[0] == "CUTOFF":
            try:
                _, value = parts
                cutoff = int(value)
            except ValueError:
                raise ValueError(f"line {ln}: CUTOFF <degree>")
            if cutoff < 0:
                raise ValueError(f"line {ln}: cutoff must be nonnegative")
            claim("CUTOFF", ln)
        elif parts[0] == "TWIST":
            if len(parts) < 2 or parts[1] not in ("A", "B") or "=" not in line:
                raise ValueError(f"line {ln}: TWIST A = <class> or TWIST B = <class>")
            claim(f"TWIST {parts[1]}", ln)
            twists[parts[1]] = (ln, line.split("=", 1)[1].strip())
        elif parts[0] == "SHIFT":
            try:
                _, value = parts
                shift = int(value)
            except ValueError:
                raise ValueError(f"line {ln}: SHIFT <degree>")
            claim("SHIFT", ln)
        else:
            raise ValueError(f"line {ln}: unknown directive {parts[0]!r}")
    if cutoff is None:
        raise ValueError(f"line {max(last, 1)}: missing CUTOFF")
    # the SQ polynomials are parsed in the ring they define: its total_sq is
    # filled in before any Sq is computed
    pres = SpacePresentation(name, gens, cutoff, {})
    total = pres.total_sq
    for lab, (ln, poly) in sq_lines.items():
        if lab not in gen_lines:
            raise ValueError(f"line {ln}: SQ line for unknown generator {lab!r}")
        try:
            total[lab] = pres.parse_poly(poly)
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}")
        # unstable: Sq^0 x = x, Sq^|x| x = x^2 and Sq^i x = 0 for i > |x|
        gen = pres.gen_mono(lab)
        deg = pres.mono_degree(gen)
        ends = {m for m in (gen, tuple(2 * e for e in gen)) if pres.reduce_mono(m) is not None}
        if {m for m in total[lab] if not deg < pres.mono_degree(m) < 2 * deg} != ends:
            raise ValueError(f"line {ln}: SQ {lab} violates the relations of an unstable "
                             f"algebra: it must be {lab} + (terms of degree {deg + 1} to "
                             f"{2 * deg - 1}) + {lab}^2")
    for g in gens:
        if g.label not in total:
            raise ValueError(f"line {gen_lines[g.label]}: missing SQ line for generator {g.label!r}")
    # the derived Sq1/Sq2 matrices must satisfy the A(1) relations; blame
    # the SQ line of the highest generator at or below the failing degree
    v = pres.cohomology_module().validate()
    if v is not None:
        culprit = max((g for g in gens if g.degree <= v.degree), key=lambda g: g.degree)
        raise ValueError(f"line {sq_lines[culprit.label][0]}: "
                         f"space presentation violates A(1) relations: {v}")
    for slot, want in (("A", 1), ("B", 2)):
        ln, cls = twists[slot]
        try:
            pres.parse_class(cls, want)
        except ValueError as e:
            raise ValueError(f"line {ln}: TWIST {slot}: {e}")
    return pres, twists["A"][1], twists["B"][1], shift
