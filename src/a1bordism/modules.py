"""Finitely generated graded modules over A(1).

A module is a graded GF(2) vector space with Sq1 and Sq2 actions,
stored per degree as their columns, satisfying the A(1) relations.
Degrees above ``hi`` are *unknown* unless the module is flagged
complete; every derived quantity carries a conservative validity bound
so that truncation never silently fabricates zeros.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import gf2, steenrod
from .gf2 import ColumnSolver, combine, free_coords, span_rref
from .steenrod import A1Element, DEGREES, WORDS, reduce_word


def binom2(n: int, k: int) -> int:
    """Binomial coefficient mod 2 (Lucas); 0 outside the usual range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return 1 if ((n - k) & k) == 0 else 0


class ModuleError(ValueError):
    pass


class InvariantError(RuntimeError):
    """An internal consistency check failed: the result is undecided, not the input wrong."""


@dataclass(frozen=True)
class Violation:
    degree: int
    relation: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"{self.relation} at degree {self.degree}"
        return msg + (f" ({self.detail})" if self.detail else "")


class GradedA1Module:
    """Graded GF(2) module with Sq1 (degree +1) and Sq2 (degree +2) actions.

    ``sq1[d]`` is the tuple of columns of Sq1 from degree d: its int j is
    Sq1 of basis vector j, as a bit vector in degree d + 1's basis (the
    layout ``combine`` reads); likewise ``sq2[d]``.  An absent degree is
    the zero map; ``sq(k, d)`` reads either, absent or not.

    Immutable: every field is set here, ``dims``, ``sq1``, ``sq2`` and
    ``labels`` are read-only mappings of tuples, and assigning an
    attribute raises AttributeError.  A module can therefore be shared and
    cached; the word-action and Margolis caches live on the instance.
    """

    __slots__ = ("dims", "lo", "hi", "sq1", "sq2", "complete", "name", "labels",
                 "_act_cache", "_margolis_cache")

    def __init__(
        self,
        dims: Mapping[int, int],
        sq1: Mapping[int, Sequence[int]],
        sq2: Mapping[int, Sequence[int]],
        hi: int,
        labels: Optional[Mapping[int, Sequence[str]]] = None,
        complete: bool = False,
        name: str = "",
    ):
        dims = {d: n for d, n in dims.items() if n > 0}
        labs: Dict[int, Tuple[str, ...]] = {}
        for d, n in dims.items():
            lab = tuple(labels.get(d, ())) if labels else ()
            if len(lab) != n:
                lab = tuple(f"x{d}_{i}" for i in range(n))
            labs[d] = lab
        object.__setattr__(self, "dims", MappingProxyType(dims))
        object.__setattr__(self, "lo", min(dims) if dims else 0)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "sq1", MappingProxyType({d: tuple(c) for d, c in sq1.items()}))
        object.__setattr__(self, "sq2", MappingProxyType({d: tuple(c) for d, c in sq2.items()}))
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", MappingProxyType(labs))
        object.__setattr__(self, "_act_cache", {})
        object.__setattr__(self, "_margolis_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("GradedA1Module is immutable")

    def renamed(self, name: str) -> "GradedA1Module":
        """The same module under another name."""
        return GradedA1Module(self.dims, self.sq1, self.sq2, self.hi, self.labels,
                              self.complete, name)

    # -- structure access ---------------------------------------------

    def dim(self, d: int) -> int:
        return self.dims.get(d, 0)

    def degrees(self) -> List[int]:
        return sorted(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def label(self, d: int, i: int) -> str:
        return self.labels[d][i]

    def sq(self, k: int, d: int) -> Tuple[int, ...]:
        """Columns of Sq^k (k = 1 or 2) from degree d; zeros where the map is absent."""
        cols = (self.sq1 if k == 1 else self.sq2).get(d)
        return (0,) * self.dim(d) if cols is None else cols

    def apply_word(self, nf: str, d: int, vecs: Sequence[int]) -> List[int]:
        """``[act_word(nf, d).matvec(v) for v in vecs]`` for a normal-form word.

        The letters act right to left, one ``combine`` over ``sq`` each;
        no word matrix is built.
        """
        out = list(vecs)
        for letter in reversed(nf):
            k = int(letter)
            out = combine(self.sq(k, d), out)
            d += k
        return out

    def act_word(self, word: str, d: int) -> gf2.BitMatrix:
        """Matrix of the word (maybe non-reduced) from degree d, built once per normal form.

        The one matrix a module builds: every other map is kept as columns
        and applied by ``apply_word``.  It stays because ``split_free`` finds
        each free generator by ``act_word(top, g).matvec``, the call the
        benchmark's kernel count (``perfbench``) expects to see.
        """
        nf = reduce_word(word)
        rows = self.dim(d + steenrod.word_degree(word))
        if nf is None:
            return gf2.BitMatrix([0] * rows, self.dim(d))
        hit = self._act_cache.get((nf, d))
        if hit is None:
            cols = self.apply_word(nf, d, [1 << j for j in range(self.dim(d))])
            hit = self._act_cache[(nf, d)] = gf2.BitMatrix.from_columns(cols, rows)
        return hit

    def word_images(self, gens: Sequence[Tuple[int, int]], d: int) -> List[int]:
        """Degree-d columns of the A(1)-map to M from a free module with these generators.

        Generator i sits in degree t and goes to v, for ``gens[i] = (t, v)``.
        Columns come in the basis order of ``ext._free_bases``: generator by
        generator, and within one the words of degree d - t in ``WORDS``
        order.
        """
        by_t: Dict[int, List[int]] = {}
        for t, v in gens:
            by_t.setdefault(t, []).append(v)
        # one apply_word per (word, t) on all the generators in degree t
        imgs = {(widx, t): iter(self.apply_word(WORDS[widx], t, vs))
                for t, vs in by_t.items() for widx in steenrod.words_of_degree(d - t)}
        return [next(imgs[(widx, t)]) for t, _ in gens for widx in steenrod.words_of_degree(d - t)]

    # -- validation -----------------------------------------------------

    def validate(self) -> Optional[Violation]:
        """Check the Sq column shapes and the A(1) relations; None means ok."""
        for d, n in self.dims.items():
            if not self.complete and d > self.hi:
                return Violation(d, "basis above truncation degree")
        for k, store in ((1, self.sq1), (2, self.sq2)):
            for d, cols in store.items():
                tgt = self.dim(d + k)
                # c >> tgt also catches a negative column
                if len(cols) != self.dim(d) or any(c >> tgt for c in cols):
                    return Violation(d, f"Sq{k} matrix shape mismatch")
        sq = self.sq
        for d in range(self.lo, self.hi + 1):
            if self.complete or d + 2 <= self.hi:
                if any(combine(sq(1, d + 1), sq(1, d))):
                    return Violation(d, "Sq1∘Sq1 ≠ 0")
            if self.complete or d + 4 <= self.hi:
                lhs = combine(sq(2, d + 2), sq(2, d))
                rhs = combine(sq(1, d + 3), combine(sq(2, d + 1), sq(1, d)))
                if lhs != rhs:
                    return Violation(d, "Sq2∘Sq2 ≠ Sq1∘Sq2∘Sq1")
        return None

    def assert_valid(self) -> "GradedA1Module":
        v = self.validate()
        if v is not None:
            raise ModuleError(f"invalid A(1)-module {self.name or '<anon>'}: {v}")
        return self

    # -- constructions ---------------------------------------------------

    def suspend(self, k: int) -> "GradedA1Module":
        return GradedA1Module(
            {d + k: n for d, n in self.dims.items()},
            {d + k: m for d, m in self.sq1.items()},
            {d + k: m for d, m in self.sq2.items()},
            self.hi + k,
            {d + k: lab for d, lab in self.labels.items()},
            self.complete,
            name=f"S{k}({self.name})" if self.name else "",
        )

    def direct_sum(self, other: "GradedA1Module") -> "GradedA1Module":
        if self.complete and other.complete:
            hi, complete = max(self.hi, other.hi), True
        else:
            candidates = []
            if not self.complete:
                candidates.append(self.hi)
            if not other.complete:
                candidates.append(other.hi)
            hi, complete = min(candidates), False
        dims: Dict[int, int] = {}
        labels: Dict[int, Tuple[str, ...]] = {}
        for d in set(self.dims) | set(other.dims):
            if not complete and d > hi:
                continue
            dims[d] = self.dim(d) + other.dim(d)
            labels[d] = tuple(
                [f"l.{s}" for s in self.labels.get(d, ("?",) * self.dim(d))]
                + [f"r.{s}" for s in other.labels.get(d, ("?",) * other.dim(d))]
            )

        # the right summand's classes follow the left's in every degree
        sq1 = {}
        sq2 = {}
        for k, store in ((1, sq1), (2, sq2)):
            for d in dims:
                if dims.get(d + k) and (complete or d + k <= hi):
                    shift = self.dim(d + k)
                    store[d] = self.sq(k, d) + tuple(c << shift for c in other.sq(k, d))
        return GradedA1Module(dims, sq1, sq2, hi, labels, complete,
                              name=f"{self.name}+{other.name}")

    def tensor(self, other: "GradedA1Module") -> "GradedA1Module":
        """Graded tensor product with the Cartan formula for Sq1 and Sq2."""
        bounds = []
        if not self.complete:
            bounds.append(self.hi + other.lo)
        if not other.complete:
            bounds.append(other.hi + self.lo)
        if bounds:
            hi, complete = min(bounds), False
        else:
            hi, complete = self.hi + other.hi, True
        # degree d's basis is the blocks x_i(x)y_j, i outer, one block per
        # left degree d1 (ascending) at offsets[d][d1]
        offsets: Dict[int, Dict[int, int]] = {}
        dims: Dict[int, int] = {}
        labels: Dict[int, Tuple[str, ...]] = {}
        for d in range(min(self.lo + other.lo, hi), hi + 1):
            blocks: Dict[int, int] = {}
            labs: List[str] = []
            for d1 in self.degrees():
                if other.dim(d - d1) == 0:
                    continue
                blocks[d1] = len(labs)
                labs += [f"{x}(x){y}" for x in self.labels[d1] for y in other.labels[d - d1]]
            if labs:
                offsets[d] = blocks
                dims[d] = len(labs)
                labels[d] = tuple(labs)

        # the factors' Sq1/Sq2 columns; Sq0 is the identity, whose columns
        # in every degree are a prefix of units
        units = tuple(1 << i for i in range(max([*self.dims.values(), *other.dims.values()],
                                                default=0)))

        def images(m: "GradedA1Module", k: int, d: int) -> Sequence[int]:
            return m.sq(k, d) if k else units

        def build(op_pairs: Sequence[Tuple[int, int]], d: int) -> List[int]:
            # op_pairs lists (k1, k2) with Sq^{k1} on the left factor, Sq^{k2} on the right
            shift = sum(op_pairs[0])
            tgt = offsets[d + shift]
            cols = []
            for d1 in offsets[d]:
                d2 = d - d1
                terms = [(images(self, k1, d1), images(other, k2, d2), tgt[d1 + k1],
                          other.dim(d2 + k2))
                         for k1, k2 in op_pairs if d1 + k1 in tgt]
                for i in range(self.dim(d1)):
                    for j in range(other.dim(d2)):
                        # Kronecker product of the left and right images
                        c = 0
                        for left, right, off, width in terms:
                            u, w = left[i], right[j]
                            while u and w:
                                low = u & -u
                                c ^= w << (off + (low.bit_length() - 1) * width)
                                u ^= low
                        cols.append(c)
            return cols

        sq1 = {}
        sq2 = {}
        for d in dims:
            if complete or d + 1 <= hi:
                if dims.get(d + 1):
                    sq1[d] = build([(1, 0), (0, 1)], d)
            if complete or d + 2 <= hi:
                if dims.get(d + 2):
                    sq2[d] = build([(2, 0), (1, 1), (0, 2)], d)
        return GradedA1Module(dims, sq1, sq2, hi, labels, complete,
                              name=f"{self.name}(x){other.name}")

    def truncate(self, n: int, complete: bool = False) -> "GradedA1Module":
        """Quotient away degrees above n (complete=True means 'genuinely zero there').

        A complete module already truncated at n is returned as it is, so
        its word-action and Margolis caches carry over.
        """
        if complete and self.complete and n == self.hi:
            return self
        if not self.complete and n > self.hi:
            raise ModuleError(f"cannot extend truncation {self.hi} to {n}")
        dims = {d: v for d, v in self.dims.items() if d <= n}
        sq1 = {d: m for d, m in self.sq1.items() if d + 1 <= n}
        sq2 = {d: m for d, m in self.sq2.items() if d + 2 <= n}
        labels = {d: v for d, v in self.labels.items() if d <= n}
        return GradedA1Module(dims, sq1, sq2, n, labels, complete, name=self.name)

    def quotient_above(self, n: int) -> "GradedA1Module":
        """The quotient M/M_{>n}, a genuine complete module."""
        return self.truncate(n, complete=True)

    def submodule(self, vectors: Dict[int, Sequence[int]], name: str = "") -> Tuple["GradedA1Module", Dict[int, List[int]]]:
        """Module structure on the span of the given degreewise vectors.

        Raises ModuleError if a vector has a bit beyond its degree's
        dimension or the span is not closed under the action.  Returns
        the module plus the inclusion's columns, the nonempty degrees' vectors.

        A degree whose vectors are exactly the standard basis of ``M_d``
        (``vecs[j] == 1 << j`` for every ``j < dim(d)``) is left as it is:
        its labels are M's, and an action between two such degrees is
        M's own matrix.  Only the other degrees are rebuilt, so a caller
        that changes a few degrees pays only for those: ``split_free``
        builds its remainder once, whole wherever no free summand lies,
        and ``r2_module`` keeps every degree it takes whole.
        """
        basis = {d: list(v) for d, v in vectors.items() if v}
        whole = {d for d, vecs in basis.items()
                 if len(vecs) == self.dim(d) and all(v == 1 << j for j, v in enumerate(vecs))}
        for d, vecs in basis.items():
            # a whole degree is in range by definition
            if d not in whole and any(v >> self.dim(d) for v in vecs):  # also catches v < 0
                raise ModuleError(f"vector outside degree {d} (dimension {self.dim(d)})")
        dims = {d: len(v) for d, v in basis.items()}
        labels = {}
        for d, vecs in basis.items():
            if d in whole:
                labels[d] = self.labels[d]
                continue
            lab = []
            for i, v in enumerate(vecs):
                if v and (v & (v - 1)) == 0:
                    lab.append(self.label(d, v.bit_length() - 1))
                else:
                    lab.append(f"s{d}_{i}")
            labels[d] = tuple(lab)
        sq1: Dict[int, List[int]] = {}
        sq2: Dict[int, List[int]] = {}
        solvers: Dict[int, ColumnSolver] = {}
        for shift, store in ((1, sq1), (2, sq2)):
            for d, vecs in basis.items():
                if not (self.complete or d + shift <= self.hi):
                    continue
                tgt = basis.get(d + shift, [])
                if d in whole and d + shift in whole:
                    store[d] = self.sq(shift, d)
                    continue
                cols = []
                if tgt and d + shift not in solvers:
                    solvers[d + shift] = ColumnSolver(tgt)
                solver = solvers.get(d + shift)
                for w in self.apply_word(str(shift), d, vecs):
                    if w == 0:
                        cols.append(0)
                        continue
                    x = solver.solve(w) if solver is not None else None
                    if x is None:
                        raise ModuleError(f"span not closed under Sq{shift} at degree {d}")
                    cols.append(x)
                if tgt:
                    store[d] = cols
        return GradedA1Module(dims, sq1, sq2, self.hi, labels, self.complete, name=name), basis

    # -- generators and homology ------------------------------------------

    def _decomposables_rref(self, d: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        vecs = self.sq(1, d - 1) + self.sq(2, d - 2)
        return span_rref(vecs, self.dim(d))

    def decomposables(self, d: int) -> Tuple[int, ...]:
        """Canonical basis of the degree-d part of the augmentation-ideal image."""
        return self._decomposables_rref(d)[0]

    def generator_coords(self, d: int) -> Tuple[int, ...]:
        """Coordinates of a deterministic complement to the decomposables."""
        return free_coords(self._decomposables_rref(d)[1], self.dim(d))

    def minimal_generators(self, through: Optional[int] = None) -> List[Tuple[int, int]]:
        """(degree, coordinate vector) pairs generating the module minimally."""
        top = self.hi if through is None else through
        gens = []
        for d in self.degrees():
            if d > top:
                continue
            for j in self.generator_coords(d):
                gens.append((d, 1 << j))
        return gens

    def margolis_homology(self, i: int) -> Tuple[Dict[int, int], int]:
        """Margolis homology dims of Q_i and the last reliable degree.

        Computed once per module and i; each call returns a fresh dict.
        """
        if i not in (0, 1):
            raise ValueError("margolis_homology expects i in {0,1}")
        if i not in self._margolis_cache:
            self._margolis_cache[i] = self._margolis(i)
        dims, reliable = self._margolis_cache[i]
        return dict(dims), reliable

    def _margolis(self, i: int) -> Tuple[Dict[int, int], int]:
        q = 1 if i == 0 else 3
        sq = self.sq

        def qmap(d: int) -> Sequence[int]:
            """Columns of Q_i from degree d: Q0 = Sq1, Q1 = Sq1Sq2 + Sq2Sq1."""
            if i == 0:
                return sq(1, d)
            return [a ^ b for a, b in zip(combine(sq(1, d + 2), sq(2, d)),
                                          combine(sq(2, d + 1), sq(1, d)))]

        reliable = self.hi if self.complete else self.hi - q
        checked = self.hi if self.complete else self.hi - 2 * q
        # every degree the check and the ranks below read, each map built once
        maps = {d: qmap(d) for d in range(self.lo - q, checked + q + 1)}
        for d in range(self.lo, checked + 1):
            if any(combine(maps[d + q], maps[d])):
                raise ModuleError(f"Q{i}∘Q{i} ≠ 0 at degree {d}: not a valid module")
        ranks = {d: len(ColumnSolver(cols).table) for d, cols in maps.items()}
        dims: Dict[int, int] = {}
        for d in range(self.lo, reliable + 1):
            h = self.dim(d) - ranks[d] - ranks[d - q]
            if h:
                dims[d] = h
        return dims, reliable


# -- free splitting ------------------------------------------------------


@dataclass
class ModuleDecomposition:
    """M as free summands plus a remainder, and the remainder's catalog match.

    Both maps are kept as degree → tuple of columns, where column j is the
    image of basis vector j.  ``witness[d]`` is the isomorphism from
    (free summands ⊕ remainder)_d to M_d: the free summands' classes come
    first, and each column is a bit vector in M_d's basis.
    ``witness_iso[d]``, once a catalog match is certified, is the
    isomorphism from the remainder to the sum of ``catalog_summands``.
    """
    free_summands: List[Tuple[int, str]]
    catalog_summands: List[Tuple[str, int]]
    remainder: GradedA1Module
    witness: Dict[int, Tuple[int, ...]]
    valid_through: int
    notes: List[str] = field(default_factory=list)
    witness_iso: Optional[Dict[int, Tuple[int, ...]]] = None


@functools.lru_cache(maxsize=None)
def free_module(cutoff: Optional[int] = None) -> GradedA1Module:
    """A(1) itself as a left module over itself (built once per cutoff)."""
    by_deg: Dict[int, List[int]] = {}
    for idx, d in enumerate(DEGREES):
        by_deg.setdefault(d, []).append(idx)
    pos = {}
    for d, idxs in by_deg.items():
        for p, idx in enumerate(idxs):
            pos[idx] = (d, p)
    dims = {d: len(v) for d, v in by_deg.items()}
    labels = {d: tuple("Sq" + "Sq".join(WORDS[i]) if WORDS[i] else "1" for i in v)
              for d, v in by_deg.items()}
    sq1: Dict[int, List[int]] = {}
    sq2: Dict[int, List[int]] = {}
    for letter, store, shift in (("1", sq1, 1), ("2", sq2, 2)):
        for d in dims:
            if d + shift not in dims:
                continue
            cols = []
            for idx in by_deg[d]:
                prod = A1Element.from_word(letter + WORDS[idx])
                col = 0
                for w in prod.words():
                    td, tp = pos[steenrod.WORD_INDEX[w]]
                    col |= 1 << tp
                cols.append(col)
            store[d] = cols
    m = GradedA1Module(dims, sq1, sq2, steenrod.TOP_DEGREE, labels, complete=True, name="A1")
    if cutoff is not None and cutoff < steenrod.TOP_DEGREE:
        m = m.quotient_above(cutoff)
    return m


def split_free(M: GradedA1Module, max_gen_degree: Optional[int] = None) -> ModuleDecomposition:
    """Split off free rank-1 summands wherever the top class acts nonzero.

    Deterministic: always picks the lowest-degree, lowest-index basis
    vector x with top·x ≠ 0 (which requires deg(x) + 6 ≤ hi).  The
    complement is cut out by a top-coefficient functional: A(1) is a
    Poincaré-duality algebra, so C_d = {m : f(a·m) = 0 for all a} with
    f dual to a coordinate of top·x is an A(1)-submodule complementary to
    A(1)·x.  The remainder has no further free summands generated in
    degrees ≤ hi - 6 (or ≤ max_gen_degree when that bound is given).

    The current complement is kept as vectors in M's coordinates,
    ``basis[d]``, named as ``submodule`` would name them split by split
    (a vector that is one basis vector of the previous complement keeps
    its label, any other is ``s{d}_{k}``).  Each split changes only the
    degrees g … g+6 of A(1)·x, and the remainder is built once at the
    end, where ``submodule`` keeps every untouched degree as it is.  The
    search for the next x resumes at g, since top acts as zero below g on
    the current complement and hence on its summand.
    """
    gen_top = M.hi - 6 if max_gen_degree is None else min(max_gen_degree, M.hi - 6)
    basis: Dict[int, List[int]] = {d: [1 << j for j in range(M.dim(d))] for d in M.degrees()}
    labels: Dict[int, Sequence[str]] = dict(M.labels)
    # the free summands' columns in M's coordinates; the witness puts them
    # before the remainder's basis
    free_cols: Dict[int, List[int]] = {d: [] for d in M.degrees()}
    frees: List[Tuple[int, str]] = []
    (top,) = steenrod.top_class().words()
    start = M.lo
    while True:
        # x = basis[g][i], the first with top·x ≠ 0
        found = next(((g, i) for g in range(start, gen_top + 1)
                      for i, b in enumerate(basis.get(g, ())) if M.act_word(top, g).matvec(b)), None)
        if found is None:
            break
        g, i = found
        frees.append((g, labels[g][i]))
        # images of the 8 basis words on x, in M's coordinates
        fvecs = {d: M.word_images([(g, basis[g][i])], d) for d in range(g, g + 7)}
        for d, vecs in fvecs.items():
            if ColumnSolver(vecs).kernel:
                raise InvariantError("top class nonzero but cyclic module not free")
            free_cols[d].extend(vecs)
        # the functional: a coordinate of top·x in the current basis (nonzero by choice of x)
        solver = ColumnSolver(basis[g + 6])
        top_coords = solver.solve(fvecs[g + 6][0])
        kcoord = (top_coords & -top_coords).bit_length() - 1
        for d in range(g, g + 7):
            old = basis[d]
            # column j: bit r is the functional on word r of degree g + 6 - d times old[j]
            cols = [0] * len(old)
            for r, widx in enumerate(steenrod.words_of_degree(g + 6 - d)):
                coords = [solver.solve(v) for v in M.apply_word(WORDS[widx], d, old)]
                if None in coords:
                    raise InvariantError(f"free splitting complement not closed at degree {d}")
                for j, c in enumerate(coords):
                    cols[j] |= ((c >> kcoord) & 1) << r
            kers = ColumnSolver(cols).kernel
            if len(kers) + len(fvecs[d]) != len(old):
                raise InvariantError("free splitting functional is degenerate")
            basis[d] = combine(old, kers)
            labels[d] = [labels[d][v.bit_length() - 1] if v & (v - 1) == 0 else f"s{d}_{k}"
                         for k, v in enumerate(kers)]
        start = g
    valid_through = M.hi if M.complete else M.hi - 6
    if max_gen_degree is not None:
        valid_through = min(valid_through, max_gen_degree)
    witness: Dict[int, Tuple[int, ...]] = {}
    for d in M.degrees():
        n = M.dim(d)
        cols = witness[d] = tuple(free_cols[d] + basis[d])
        if len(cols) != n or any(c >> n for c in cols) or len(ColumnSolver(cols).table) != n:
            raise InvariantError(f"free splitting witness is not an isomorphism at degree {d}")
    remainder = M
    if frees:
        rem, _ = M.submodule(basis, name=M.name)
        remainder = GradedA1Module(rem.dims, rem.sq1, rem.sq2, rem.hi, labels, rem.complete, rem.name)
    return ModuleDecomposition(frees, [], remainder, witness, valid_through)


# -- isomorphism search ----------------------------------------------------


@dataclass
class IsoResult:
    """The verdict of ``iso_up_to_degree``, with the isomorphism when there is one.

    ``maps`` is degree → tuple of columns, where column j is the image of
    basis vector j of M_d, a bit vector in N_d's basis.
    """
    status: str  # "iso" | "none" | "undecided"
    maps: Optional[Dict[int, Tuple[int, ...]]] = None
    reason: str = ""


def iso_up_to_degree(M: GradedA1Module, N: GradedA1Module, n: int, budget: int = 20000) -> IsoResult:
    """Search for an A(1)-isomorphism M/M_{>n} ≅ N/N_{>n}.

    Exhaustive (over the images of M's minimal generators, pruned by
    graded and Margolis dimensions; the images fix the map, if there is
    one); returns 'undecided' only on budget exhaustion or a target space
    too large to enumerate, never a wrong answer.
    """
    for X in (M, N):
        if not X.complete and X.hi < n:
            raise ModuleError(f"module {X.name or '<anon>'} not known through degree {n}")
    A = M.quotient_above(n)
    B = N.quotient_above(n)
    for d in range(min(A.lo, B.lo), n + 1):
        if A.dim(d) != B.dim(d):
            return IsoResult("none", reason=f"graded dims differ at degree {d}")
    for i in (0, 1):
        ha, _ = A.margolis_homology(i)
        hb, _ = B.margolis_homology(i)
        if ha != hb:
            return IsoResult("none", reason=f"Q{i}-Margolis homology differs")
    gens = A.minimal_generators()
    for d in set(g[0] for g in gens):
        if len(A.generator_coords(d)) != len(B.generator_coords(d)):
            return IsoResult("none", reason=f"generator counts differ at degree {d}")
    if not gens:
        return IsoResult("iso", maps={})

    by_degree: Dict[int, List[int]] = {}
    for d, v in gens:
        by_degree.setdefault(d, []).append(v)

    if any(A.dim(d) > 10 for d, _ in gens):
        return IsoResult("undecided", reason="generator target space too large to enumerate")

    def candidate_tuples(d: int, count: int) -> List[Tuple[int, ...]]:
        dim = B.dim(d)
        dec = list(B.decomposables(d))
        out: List[Tuple[int, ...]] = []

        def extend(chosen: List[int]):
            if len(chosen) == count:
                out.append(tuple(chosen))
                return
            base = ColumnSolver(dec + chosen)
            for v in range(1, 1 << dim):
                if v not in base:
                    extend(chosen + [v])

        extend([])
        return out

    # A is generated by gens, so a map out of A is fixed by the generators'
    # images: with src[d] the words on the generators in A_d and combos[d]
    # each basis vector of A_d as a combination of them, phi_d sends that
    # basis vector to the same combination of the words on the images
    degs = range(min(A.lo, B.lo), n + 1)
    src: Dict[int, List[int]] = {}
    combos: Dict[int, List[int]] = {}
    for d in degs:
        src[d] = A.word_images(gens, d)
        solver = ColumnSolver(src[d])
        combos[d] = [solver.solve(1 << k) for k in range(A.dim(d))]
        if None in combos[d]:
            raise InvariantError(f"minimal generators do not span degree {d}")

    def module_map(images: Sequence[int]) -> Optional[Dict[int, Tuple[int, ...]]]:
        """The A(1)-map A -> B sending gens to images, or None if there is none."""
        tgt_gens = [(t, w) for (t, _), w in zip(gens, images)]
        out: Dict[int, Tuple[int, ...]] = {}
        for d in degs:
            tgt = B.word_images(tgt_gens, d)
            phi = combine(tgt, combos[d])
            if combine(phi, src[d]) != tgt:
                return None  # the images break a relation of A
            out[d] = tuple(phi)
        return out

    options = [candidate_tuples(d, len(by_degree[d])) for d in sorted(by_degree)]
    for attempts, choice in enumerate(itertools.product(*options), start=1):
        if attempts > budget:
            return IsoResult("undecided", reason="search budget exceeded")
        sol = module_map([w for tup in choice for w in tup])
        if sol is None:
            continue
        if all(len(ColumnSolver(sol[d]).table) == A.dim(d) for d in degs if A.dim(d)):
            return IsoResult("iso", maps=sol)
    return IsoResult("none", reason="exhausted generator images")


# -- the catalog -----------------------------------------------------------


def _left_ideal(generators: Sequence[A1Element]) -> Dict[int, List[int]]:
    """Degreewise span (in A(1)-module coordinates) of A(1)·generators."""
    amod = free_module()
    gens = []
    for gen in generators:
        # A(1)'s degree-t basis is the words of degree t in WORDS order
        t = gen.degree()
        basis = steenrod.words_of_degree(t)
        gens.append((t, sum(1 << basis.index(steenrod.WORD_INDEX[w]) for w in gen.words())))
    spans = {d: span_rref(amod.word_images(gens, d), amod.dim(d))[0] for d in amod.degrees()}
    return {d: list(vecs) for d, vecs in spans.items() if vecs}


def _quotient_by_ideal(generators: Sequence[A1Element], name: str) -> GradedA1Module:
    amod = free_module()
    ideal = _left_ideal(generators)
    keep: Dict[int, Tuple[int, ...]] = {}
    reducers: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
    for d in amod.degrees():
        basis, pivots = span_rref(ideal.get(d, []), amod.dim(d))
        reducers[d] = (basis, pivots)
        keep[d] = free_coords(pivots, amod.dim(d))

    def project(v: int, d: int) -> int:
        basis, pivots = reducers[d]
        for b, p in zip(basis, pivots):
            if (v >> p) & 1:
                v ^= b
        out = 0
        for k, j in enumerate(keep[d]):
            if (v >> j) & 1:
                out |= 1 << k
        return out

    dims = {d: len(keep[d]) for d in amod.degrees() if keep[d]}
    labels = {d: tuple(amod.label(d, j) for j in keep[d]) for d in dims}
    sq1: Dict[int, List[int]] = {}
    sq2: Dict[int, List[int]] = {}
    for shift, store in ((1, sq1), (2, sq2)):
        for d in dims:
            if d + shift not in dims:
                continue
            act = amod.sq(shift, d)
            store[d] = [project(act[j], d + shift) for j in keep[d]]
    hi = max(dims) if dims else 0
    return GradedA1Module(dims, sq1, sq2, hi, labels, complete=True, name=name)


def f2_module(degree: int = 0) -> GradedA1Module:
    return GradedA1Module({degree: 1}, {}, {}, degree, {degree: ("u",)}, complete=True, name="F2").assert_valid()


def m0_module() -> GradedA1Module:
    """M0 = A(1) ⊗_{A(0)} F2 = A(1)/A(1)·Sq1, the degree {0,2,3,5} zigzag."""
    return _quotient_by_ideal([steenrod.SQ1], "M0")


def m1_module() -> GradedA1Module:
    """The unique nontrivial extension of Σ^4 M0 by M0 (glue Sq1 on the degree-4 lift)."""
    lower = m0_module()
    upper = m0_module().suspend(4)
    m = lower.direct_sum(upper)
    # add the gluing differential: Sq1(degree-4 generator) = degree-5 class of M0
    sq1 = dict(m.sq1)
    cols = list(m.sq(1, 4))
    cols[0] ^= 1  # source index 0 = lifted generator; target index 0 = M0's degree-5 class
    sq1[4] = cols
    out = GradedA1Module(m.dims, sq1, m.sq2, m.hi, m.labels, complete=True, name="M1")
    return out.assert_valid()


def joker_module() -> GradedA1Module:
    """J = A(1)/(Sq3); graded dims (1,1,1,1,1) in degrees 0..4."""
    return _quotient_by_ideal([A1Element.from_word("12")], "J")


def question_mark_module() -> GradedA1Module:
    """Q = A(1)/(Sq1, Sq2Sq3); graded dims (1,0,1,1) in degrees 0..3."""
    return _quotient_by_ideal([steenrod.SQ1, A1Element.from_word("212")], "Q")


def r2_module() -> GradedA1Module:
    """R2 = ker(Σ^{-1}A(1) → Σ^{-1}F2), the augmentation ideal shifted down."""
    amod = free_module().suspend(-1)
    vecs = {d: [1 << j for j in range(amod.dim(d))] for d in amod.degrees() if d >= 0}
    sub, _ = amod.submodule(vecs, name="R2")  # complete, as amod is
    return sub.assert_valid()


def pin_minus_cell(cutoff: int) -> GradedA1Module:
    """H^*((BO_1)^{σ-1}): one class p_k per degree k ≥ 0.

    Sq1 p_k = (k+1) p_{k+1} and Sq2 p_k = C(k+1,2) p_{k+2} mod 2; this is
    cross-checked elsewhere against the generic twist construction.
    """
    dims = {d: 1 for d in range(cutoff + 1)}
    labels = {d: (f"p{d}",) for d in dims}
    sq1 = {}
    sq2 = {}
    for k in range(cutoff):
        sq1[k] = ((k + 1) & 1,)
    for k in range(cutoff - 1):
        sq2[k] = (binom2(k + 1, 2),)
    return GradedA1Module(dims, sq1, sq2, cutoff, labels, complete=False, name="P(pin-)").assert_valid()


def r3_module(cutoff: int) -> GradedA1Module:
    """R3, constructed as the non-free part of J ⊗ H^*((BO_1)^{σ-1}).

    The defining reference gives R3 by citation only; we build it as the
    stated tensor remainder and cross-check its Margolis profile
    (vanishing Q0-homology, one Q1 class in degree 3).
    """
    big = joker_module().tensor(pin_minus_cell(cutoff + 6))
    dec = split_free(big)
    out = dec.remainder.truncate(cutoff).renamed("R3")
    h0, rel0 = out.margolis_homology(0)
    h1, rel1 = out.margolis_homology(1)
    if any(d <= rel0 for d in h0):
        raise InvariantError("R3 construction failed: nonzero Q0-homology")
    if [d for d in sorted(h1) if d <= rel1] != ([3] if rel1 >= 3 else []):
        raise InvariantError("R3 construction failed: Q1-homology not one class in degree 3")
    return out.assert_valid()


CATALOG_NAMES = ("F2", "A1free", "M0", "M1", "J", "Q", "R2", "R3")


@functools.lru_cache(maxsize=None)
def catalog(name: str, cutoff: Optional[int] = None) -> GradedA1Module:
    """A named small A(1)-module, truncated at ``cutoff`` if given (built once per argument)."""
    builders = {
        "F2": f2_module,
        "A1free": free_module,
        "M0": m0_module,
        "M1": m1_module,
        "J": joker_module,
        "Q": question_mark_module,
        "R2": r2_module,
    }
    if name == "R3":
        return r3_module(12 if cutoff is None else cutoff)
    if name not in builders:
        raise ValueError(f"unknown catalog module {name!r}; choose from {CATALOG_NAMES}")
    m = builders[name]()
    if cutoff is not None and cutoff < m.hi:
        m = m.quotient_above(cutoff)
    return m


# -- text format (.a1mod) ---------------------------------------------------


def format_a1mod(m: GradedA1Module) -> str:
    lines = [f"MODULE {m.name or 'anonymous'}"]
    for d in m.degrees():
        lines.append(f"DEG {d}: " + " ".join(m.labels[d]))
    for shift in (1, 2):
        for d in m.degrees():
            if not (m.complete or d + shift <= m.hi):
                continue
            for j, col in enumerate(m.sq(shift, d)):
                if col == 0:
                    continue
                targets = [lab for i, lab in enumerate(m.labels[d + shift]) if (col >> i) & 1]
                lines.append(f"SQ{shift} {m.labels[d][j]} -> " + " + ".join(targets))
    lines.append(f"TRUNCATE {m.hi}")
    return "\n".join(lines) + "\n"


def parse_a1mod(text: str) -> GradedA1Module:
    """Parse the line-oriented .a1mod format, validating the A(1) relations.

    MODULE, each SQ1/SQ2 source and TRUNCATE are given once: a second line
    is refused, naming the first, rather than silently replacing it.
    """
    name = ""
    deg_of: Dict[str, Tuple[int, int]] = {}
    labels: Dict[int, List[str]] = {}
    deg_lines: Dict[int, int] = {}  # degree -> the DEG line of its first label
    actions: List[Tuple[int, str, str, List[str]]] = []
    hi: Optional[int] = None
    first: Dict[str, int] = {}  # "MODULE", "SQ1 a", "SQ2 a" or "TRUNCATE" -> its line

    def claim(key: str, ln: int) -> None:
        if key in first:
            raise ModuleError(f"line {ln}: duplicate {key} (first on line {first[key]})")
        first[key] = ln

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "MODULE":
            claim("MODULE", ln)
            name = " ".join(parts[1:])
        elif parts[0] == "DEG":
            try:
                d = int(parts[1].rstrip(":"))
            except (ValueError, IndexError):
                raise ModuleError(f"line {ln}: malformed DEG line")
            rest = line.split(":", 1)
            if len(rest) != 2:
                raise ModuleError(f"line {ln}: DEG line needs a colon")
            labs = rest[1].split()
            for lab in labs:
                if lab in ("+", "->"):
                    raise ModuleError(f"line {ln}: {lab!r} cannot be a label")
                if lab in deg_of:
                    raise ModuleError(f"line {ln}: duplicate label {lab!r}")
                deg_of[lab] = (d, len(labels.setdefault(d, [])))
                labels[d].append(lab)
                deg_lines.setdefault(d, ln)
        elif parts[0] in ("SQ1", "SQ2"):
            if "->" not in parts:
                raise ModuleError(f"line {ln}: {parts[0]} line needs '->'")
            arrow = parts.index("->")
            if arrow != 2:
                raise ModuleError(f"line {ln}: expected one source label")
            src = parts[1]
            claim(f"{parts[0]} {src}", ln)
            targets = [p for p in parts[3:] if p != "+"]
            actions.append((ln, parts[0], src, targets))
        elif parts[0] == "TRUNCATE":
            try:
                hi = int(parts[1])
            except (ValueError, IndexError):
                raise ModuleError(f"line {ln}: TRUNCATE <degree>")
            claim("TRUNCATE", ln)
        else:
            raise ModuleError(f"line {ln}: unknown directive {parts[0]!r}")
    if hi is None:
        hi = max(labels) if labels else 0
    dims = {d: len(v) for d, v in labels.items()}
    cols1: Dict[int, List[int]] = {d: [0] * n for d, n in dims.items()}
    cols2: Dict[int, List[int]] = {d: [0] * n for d, n in dims.items()}
    touch_lines: Dict[int, int] = {}
    for ln, key, src, targets in actions:
        if src not in deg_of:
            raise ModuleError(f"line {ln}: unknown label {src!r}")
        d, j = deg_of[src]
        shift = 1 if key == "SQ1" else 2
        acc = 0
        for t in targets:
            if t not in deg_of:
                raise ModuleError(f"line {ln}: unknown label {t!r}")
            td, ti = deg_of[t]
            if td != d + shift:
                raise ModuleError(f"line {ln}: {key} must raise degree by {shift}")
            acc ^= 1 << ti
        (cols1 if key == "SQ1" else cols2)[d][j] = acc
        touch_lines.setdefault(d, ln)
    sq1 = {d: cols1[d] for d in dims if dims.get(d + 1)}
    sq2 = {d: cols2[d] for d in dims if dims.get(d + 2)}
    mod = GradedA1Module(dims, sq1, sq2, hi, {d: tuple(v) for d, v in labels.items()},
                         complete=False, name=name)
    v = mod.validate()
    if v is not None:
        ln = touch_lines.get(v.degree, deg_lines.get(v.degree))
        raise ModuleError(f"line {ln}: module violates A(1) relations: {v}")
    return mod
