"""Dense bit-packed linear algebra over GF(2).

Rows are Python ints used as bit vectors (bit j = column j), so row
operations are single XORs and everything stays exact.  Matrices act on
column vectors, which are also ints: ``(M @ x)_i = parity(rows[i] & x)``.
All operations are deterministic: pivots are chosen leftmost-column,
lowest-row-index.

Elimination is by pivot table, the packed-row method of M4RI (Albrecht,
Bard & Hart, ACM TOMS 37(1), 2010): each vector is reduced against the
pivot vectors found so far, keyed by their lowest set bit, and either
becomes a new pivot vector or vanishes.  ``ColumnSolver`` is that table,
and the only elimination the library runs: it gives a span's pivots and
their complement, solves many right-hand sides against fixed columns,
tests many vectors for membership in their span (``v in solver``) and
records each vanishing column's dependency, reducing the columns only
once.  ``BitMatrix.rref`` follows the same table with back-substitution
in descending pivot order, which clears the other pivot columns; the
reduced row-echelon form is unique, so it does not depend on the order
of the rows.

Every linear map the library builds or returns is kept as its columns,
not as a matrix: a module's Sq1 and Sq2, a chart's h0, ``split_free``'s
witnesses, the isomorphisms ``iso_up_to_degree`` finds and the Thom-class
pullbacks are tuples of column ints, column j being the image of basis
vector j.  ``combine(vectors, masks)`` XORs the vectors picked out by
each mask, and is the one copy of that loop: M·v for many v is
``combine`` of M's columns over the v's, a composition is ``combine`` of
the outer map's columns over the inner map's, a change of basis is
``combine`` of the old basis over the new coordinates, and ``matmul`` is
``combine`` of the right factor's rows over the left factor's rows.
``ColumnSolver`` gives such a map's rank, preimages and kernel.

A ``BitMatrix`` is built in the library only by ``from_columns``, for
``GradedA1Module.act_word``, whose ``matvec`` finds each free generator.
``rref``, ``matmul`` and ``kernel_basis``, and ``span_rref`` and
``free_coords`` on rref pivots, have no caller in the library: they are
the references the tests hold ``ColumnSolver`` and ``combine`` to, and
the benchmark's kernel count reads the matrix kernels by name.

``BitMatrix(rows, ncols)`` checks every row against the column count.
Results that are in range by construction skip that check through the
private ``BitMatrix._trusted``: ``matmul`` (XORs of in-range rows),
``rref`` (row operations on in-range rows) and ``from_columns`` (whose
transpose raises on a bit at or beyond ``nrows``).  Nothing outside
this module calls it.

Matrices are immutable, the cached row reduction included.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _transpose(vectors: Sequence[int], n: int) -> List[int]:
    """The n vectors whose bit j is bit i of ``vectors[j]``, for i < n.

    Steps over set bits only, so the cost is O(nonzeros); raises
    ValueError on a bit at or beyond n.
    """
    out = [0] * n
    for j, v in enumerate(vectors):
        if v >> n:
            raise ValueError(f"vector {j} has bits outside [0, {n})")
        bit = 1 << j
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return out


def combine(vectors: Sequence[int], masks: Iterable[int]) -> List[int]:
    """For each mask, the XOR of ``vectors[j]`` over its set bits j.

    Steps over set bits only; raises IndexError on a bit at or beyond
    ``len(vectors)``.
    """
    out = []
    for m in masks:
        acc = 0
        while m:
            low = m & -m
            acc ^= vectors[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return out


def _fill(m: "BitMatrix", rows: Tuple[int, ...], ncols: int) -> None:
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "nrows", len(rows))
    object.__setattr__(m, "ncols", ncols)
    object.__setattr__(m, "_rref", None)


class BitMatrix:
    """Immutable GF(2) matrix with bit-packed rows."""

    __slots__ = ("rows", "nrows", "ncols", "_rref")

    def __init__(self, rows: Iterable[int], ncols: int):
        rows = tuple(int(r) for r in rows)
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        mask = (1 << ncols) - 1
        for r in rows:
            if r & ~mask:
                raise ValueError("row has bits outside [0, ncols)")
        _fill(self, rows, ncols)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("BitMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, rows: Tuple[int, ...], ncols: int) -> "BitMatrix":
        """A matrix on a tuple of rows known to lie in [0, 2**ncols); no check."""
        m = object.__new__(cls)
        _fill(m, rows, ncols)
        return m

    @classmethod
    def from_columns(cls, columns: Sequence[int], nrows: int) -> "BitMatrix":
        if nrows < 0:
            raise ValueError("nrows must be nonnegative")
        return cls._trusted(tuple(_transpose(columns, nrows)), len(columns))

    # -- basic access --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        body = ";".join("".join(str((r >> j) & 1) for j in range(self.ncols)) for r in self.rows)
        return f"BitMatrix({self.nrows}x{self.ncols}:{body})"

    # -- algebra -------------------------------------------------------

    def matvec(self, v: int) -> int:
        out = 0
        for i, r in enumerate(self.rows):
            if _parity(r & v):
                out |= 1 << i
        return out

    def matmul(self, other: "BitMatrix") -> "BitMatrix":
        """Composition self∘other (apply ``other`` first)."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        return BitMatrix._trusted(tuple(combine(other.rows, self.rows)), other.ncols)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        return self.matmul(other)

    # -- elimination ----------------------------------------------------

    def rref(self) -> Tuple["BitMatrix", Tuple[int, ...]]:
        """Reduced row-echelon form and the strictly increasing pivot columns.

        The rows of the result are the reduced basis in pivot order, then
        ``nrows - rank`` zero rows.
        """
        cached = object.__getattribute__(self, "_rref")
        if cached is not None:
            return cached
        # table[p]: the pivot row whose lowest set bit is p, or 0
        table = [0] * self.ncols
        pivots: List[int] = []
        pivot_mask = 0
        for r in self.rows:
            while r:
                low = r & -r
                p = low.bit_length() - 1
                t = table[p]
                if not t:
                    table[p] = r
                    pivots.append(p)
                    pivot_mask |= low
                    break
                r ^= t
        pivots.sort()
        # back-substitute: a pivot row above p is already reduced, so
        # XORing it clears its own pivot bit and sets no other pivot bit
        basis = []
        for p in reversed(pivots):
            r = table[p]
            above = (r & pivot_mask) ^ (1 << p)
            while above:
                low = above & -above
                r ^= table[low.bit_length() - 1]
                above ^= low
            table[p] = r
            basis.append(r)
        basis.reverse()
        rows = tuple(basis) + (0,) * (self.nrows - len(pivots))
        result = (BitMatrix._trusted(rows, self.ncols), tuple(pivots))
        object.__setattr__(self, "_rref", result)
        return result

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> Tuple[int, ...]:
        """Deterministic basis of {v : M·v = 0}, one vector per free column."""
        red, pivots = self.rref()
        basis = []
        for f in free_coords(pivots, self.ncols):
            v = 1 << f
            for i, p in enumerate(pivots):
                if (red.rows[i] >> f) & 1:
                    v |= 1 << p
            basis.append(v)
        return tuple(basis)


class ColumnSolver:
    """Express vectors in the span of a fixed list of columns, many times.

    Builds a Gaussian basis keyed by lowest set bit once; each solve is a
    single reduction pass.  solve(b) returns a combination mask m with
    XOR_{j in m} columns[j] = b, or None when b is outside the span;
    ``b in solver`` asks only whether b is in the span.

    ``table`` maps the lowest set bit of each reduced column to that
    column and its combination mask, in column order.  Its keys are the
    span's pivots, the ones ``span_rref`` gives, so ``complement`` is the
    same coordinates as ``free_coords`` of them.  ``kernel`` has the
    dependency mask of each column in the span of the earlier ones, which
    is the vector ``kernel_basis`` gives for it.  A column's mask in the
    table or the kernel adds only earlier columns to it, so its highest
    set bit is that column's own index.
    """

    __slots__ = ("table", "kernel")

    def __init__(self, columns: Sequence[int]):
        self.table = {}
        self.kernel: List[int] = []
        for j, c in enumerate(columns):
            v, m = c, 1 << j
            while v:
                low = v & -v
                hit = self.table.get(low)
                if hit is None:
                    self.table[low] = (v, m)
                    break
                v ^= hit[0]
                m ^= hit[1]
            else:
                self.kernel.append(m)

    def solve(self, b: int) -> Optional[int]:
        v, m = b, 0
        while v:
            hit = self.table.get(v & -v)
            if hit is None:
                return None
            v ^= hit[0]
            m ^= hit[1]
        return m

    def __contains__(self, b: int) -> bool:
        """Whether b lies in the span of the columns."""
        table = self.table
        while b:
            hit = table.get(b & -b)
            if hit is None:
                return False
            b ^= hit[0]
        return True

    def complement(self, ncols: int) -> Tuple[int, ...]:
        """The coordinates j < ncols that are not pivots of the span, ascending."""
        return tuple(j for j in range(ncols) if 1 << j not in self.table)


def span_rref(vectors: Iterable[int], ncols: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Canonical (rref) basis of the span of the given vectors, with pivots."""
    m, pivots = BitMatrix(vectors, ncols).rref()
    return tuple(r for r in m.rows if r), pivots


def free_coords(pivots: Iterable[int], ncols: int) -> Tuple[int, ...]:
    """The coordinates j < ncols that are not pivots, ascending.

    For the pivots of a span, {e_j : j free} extends a basis of the span
    to a basis of F2^ncols.
    """
    pivot_set = set(pivots)
    return tuple(j for j in range(ncols) if j not in pivot_set)
