"""Minimal free resolutions over A(1) and the resulting Ext charts.

The E2 page of the (Baker-Lazarev form) Adams spectral sequence for a
ko-module is Ext over A(1) of its ko-linear cohomology.  We compute it
from a minimal resolution, built in the free modules' own bases with the
A(1) multiplication table (Bruner 1993), read h0 off the Sq1
coefficients of the boundaries, certify collapse where the standard
arguments apply, and assemble 2-complete groups from h0-towers.
Anything the window cannot justify is reported uncertified, never guessed.
"""

from __future__ import annotations

import bisect
import functools
from collections import Counter
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .gf2 import ColumnSolver, _transpose, combine
from . import steenrod
from .modules import GradedA1Module, InvariantError


class ResolutionError(ValueError):
    pass


class ResolutionStage(NamedTuple):
    gen_degrees: List[int]  # ascending
    # boundary[i]: generator i's image as a column int (layout in ``ExtChart``)
    boundary: List[int]


class Resolution(NamedTuple):
    module: GradedA1Module
    max_s: int
    max_t: int
    stages: List[ResolutionStage]

    def gens(self, s: int) -> List[int]:
        return self.stages[s].gen_degrees if s < len(self.stages) else []


def minimal_resolution(M: GradedA1Module, max_s: int, max_t: int) -> Resolution:
    """Stages 0..max_s of the minimal free resolution, exact for t <= max_t.

    Computed in the free modules' own bases (Bruner, "Calculation of
    large Ext modules", 1993).  The kernel K_s of F_s -> F_{s-1} (of
    F_0 -> M) is kept as vectors of F_s, and no module is built for it.
    Each stage is one pass:

    - the boundary's columns, in every degree of F_s at once: one sweep
      over the generators, each word's image (``steenrod.free_word_times``
      on F_{s-1}'s position maps, built once per stage) appended to its
      degree's list generator by generator and word by word in ``WORDS``
      order, which is ``steenrod.free_bases`` order; stage 0 reads
      ``M.word_images``;
    - K_s in each degree, the kernel of those columns;
    - the generators in each degree d, by one ``ColumnSolver`` over the
      decomposables Sq1 K_{d-1} + Sq2 K_{d-2}, in F_s coordinates,
      followed by the kernel vectors in reverse order.  Kernel vector j is
      a generator exactly when it is independent of the columns before
      it, that is, when no vector of the decomposables' span has lowest
      kernel coordinate j.  The pivots of a span (the lowest set bits of
      its reduced basis) do not depend on the vectors that span it, so
      these are the coordinates ``GradedA1Module.generator_coords`` would
      take on K_s.  In every degree of F_s the decomposables lie in K_d
      exactly when the rank is dim K_d; otherwise ``InvariantError``:
      the kernel is not closed under the action.

    Degrees go in increasing order in a single thread, so the result
    depends only on the module and the window.
    """
    if not M.complete and M.hi < max_t:
        raise ResolutionError(
            f"module {M.name or '<anon>'} is truncated at {M.hi}; "
            f"resolving to internal degree {max_t} needs cutoff >= {max_t}")
    # the current stage's generators as (t, v), in the coordinates of the
    # boundary's target: M at stage 0, F_{s-1} after, whose bases and
    # position maps are ``basis`` and ``pos``
    gens = M.minimal_generators(max_t)
    basis: Dict[int, List[Tuple[int, int]]] = {}
    pos: Dict[int, Dict[Tuple[int, int], int]] = {}
    times = steenrod.free_word_times
    stages: List[ResolutionStage] = []

    for s in range(max_s + 1):
        gen_degrees = [t for t, _ in gens]
        stages.append(ResolutionStage(gen_degrees, [v for _, v in gens]))
        if s == max_s:
            break

        fbasis = steenrod.free_bases(gen_degrees, max_t)
        if s == 0:
            # the generators in degree order, so those with words in
            # degree d (t in d - 6 .. d) are one slice
            cols = {d: M.word_images(gens[bisect.bisect_left(gen_degrees, d - steenrod.TOP_DEGREE):
                                          bisect.bisect_right(gen_degrees, d)], d)
                    for d in fbasis}
        else:
            # a word may send v to 0 in a degree where F_{s-1} has no basis
            cols = {d: [] for d in fbasis}
            for t, v in gens:
                for widx, dw in enumerate(steenrod.DEGREES):
                    if t + dw > max_t:
                        break
                    cols[t + dw].append(times(widx, v, basis[t], pos.get(t + dw, {})))
        # the kernel of F_s -> target: the inclusion of K_{s-1} into F_{s-1}
        # is injective, so this is the kernel of F_s onto K_{s-1}
        ker_vecs = {d: ColumnSolver(cols[d]).kernel for d in sorted(fbasis)}

        basis, pos = fbasis, {d: steenrod.free_positions(b) for d, b in fbasis.items()}
        gens = []
        for d, vecs in ker_vecs.items():
            dec = [times(k, v, basis[d - k], pos[d]) for k in (1, 2) for v in ker_vecs.get(d - k, ())]
            solver = ColumnSolver(dec + vecs[::-1])
            if len(solver.table) != len(vecs):
                raise InvariantError("kernel not closed under the action")
            # a table mask's highest bit is its column's index; vecs[j] is column top - j
            top = len(dec) + len(vecs) - 1
            independent = {m.bit_length() - 1 for _, m in solver.table.values()}
            gens += [(d, v) for j, v in enumerate(vecs) if top - j in independent]

    return Resolution(M, max_s, max_t, stages)


def verify_resolution(res: Resolution) -> None:
    """Assert boundary∘boundary = 0 and minimality (no unit coefficients).

    Each boundary column must be nonzero (a generator sent to 0 is never
    minimal) and lie in its target's degree-t basis.  At s >= 1 d∘d is
    ``combine`` of the word images the resolution is built with.
    """
    # word images into stage s-1's target, its generators, and F_{s-1}'s bases
    images, prev, fbasis = res.module.word_images, [], {}
    for s, stage in enumerate(res.stages):
        gens = list(zip(stage.gen_degrees, stage.boundary))
        cols: Dict[int, List[int]] = {}
        for i, (t, v) in enumerate(gens):
            if not v:
                raise InvariantError(f"boundary of stage {s}, generator {i} is zero")
            if v >> (len(fbasis.get(t, ())) if s else res.module.dim(t)):
                raise InvariantError(f"boundary of stage {s}, generator {i} lies outside "
                                     f"degree {t} of {f'F_{s - 1}' if s else 'M'}")
            if not s:
                continue
            if any(v >> p & 1 for p, (_, w) in enumerate(fbasis.get(t, ())) if w == 0):
                raise InvariantError(f"non-minimal boundary at stage {s}")
            if t not in cols:
                cols[t] = images(prev, t)
            if combine(cols[t], [v]) != [0]:
                raise InvariantError(f"d∘d ≠ 0 at stage {s}, generator {i}")
        if s:
            images = functools.partial(steenrod.free_word_images, fbasis)
        prev, fbasis = gens, steenrod.free_bases(stage.gen_degrees, res.max_t)


# -- charts -------------------------------------------------------------------


class ExtChart:
    """The E2 page in the window s <= max_s, t <= max_t, with its h0 maps.

    ``dims[(s, n)]`` is the dimension at filtration s and stem n = t - s;
    ``h0[(s, n)]`` is multiplication by h0 from (s, n) to (s + 1, n), as
    the tuple of its columns (bit vectors in the basis of (s + 1, n)).
    It is absent exactly where (s, n) or (s + 1, n) is empty, and may be
    present and zero.

    ``ext_chart`` reads h0 off the resolution's boundaries.  Stage s keeps
    generator i's image, in degree t, as the column int ``boundary[i]``: a
    vector of M_t at stage 0, and at s >= 1 one of F_{s-1}'s degree-t basis
    in ``steenrod.free_bases`` order (generator by generator, ascending).

    Immutable: every field is set here, ``dims`` and ``h0`` are read-only
    mappings, and assigning an attribute raises AttributeError.  So the
    h0-strands of a column can be cached on the instance:
    ``strands(n)`` sweeps column n once, the first time it is asked for,
    and every later call and every ``h0_rank`` on that column reads the
    same tuple.
    """

    __slots__ = ("max_s", "max_t", "dims", "h0", "_strands")

    def __init__(self, max_s: int, max_t: int, dims: Mapping[Tuple[int, int], int],
                 h0: Mapping[Tuple[int, int], Sequence[int]]):
        object.__setattr__(self, "max_s", max_s)
        object.__setattr__(self, "max_t", max_t)
        object.__setattr__(self, "dims", MappingProxyType(dict(dims)))
        object.__setattr__(self, "h0", MappingProxyType({k: tuple(c) for k, c in h0.items()}))
        object.__setattr__(self, "_strands", {})

    def __setattr__(self, *a):
        raise AttributeError("ExtChart is immutable")

    def dim(self, s: int, n: int) -> int:
        return self.dims.get((s, n), 0)

    def reliable(self, s: int, n: int) -> bool:
        return s + n <= self.max_t

    def strands(self, n: int) -> Tuple[Tuple[int, int], ...]:
        """The h0-strands of column n as (birth, death) filtrations, sorted.

        The chain V_0 -> V_1 -> ... of the column's h0 maps splits into
        strands, each alive from its birth to its death inclusive
        (Zomorodian & Carlsson, "Computing persistent homology", 2005).
        One sweep carries a basis of V_s, each vector tagged with its
        birth, to the next filtration: a ``ColumnSolver`` reduces the
        images oldest-first, so a vanishing combination ends the youngest
        strand in it (the elder rule), and each basis vector of V_{s+1}
        outside the images' span starts a strand at s + 1.  The highest
        bit of a table or kernel mask is the index of the vector it
        reduces, which gives the birth.  At every s the vectors born at
        or below b span the image of h0^(s-b) from (b, n).
        """
        out = self._strands.get(n)
        if out is None:
            top = max((s for (s, m) in self.dims if m == n), default=-1)
            ended: List[Tuple[int, int]] = []
            births: List[int] = []  # of the carried basis vectors, oldest first
            vecs: List[int] = []
            for s in range(top + 1):
                h0 = self.h0.get((s - 1, n))
                # an absent h0 map is zero
                vecs = [0] * len(vecs) if h0 is None else combine(h0, vecs)
                births += [s] * self.dim(s, n)
                vecs += [1 << j for j in range(self.dim(s, n))]
                solver = ColumnSolver(vecs)
                # a mask's highest bit is the index of the vector it reduces
                dead = [births[m.bit_length() - 1] for m in solver.kernel]
                ended += [(b, s - 1) for b in dead if b < s]
                births = [births[m.bit_length() - 1] for _, m in solver.table.values()]
                vecs = [v for v, _ in solver.table.values()]
            ended += [(b, top) for b in births]
            out = self._strands[n] = tuple(sorted(ended))
        return out

    def h0_rank(self, s: int, n: int, k: int) -> int:
        """The rank of h0^k from (s, n) to (s + k, n), for k >= 0.

        It is the number of strands alive at both s and s + k.
        """
        return sum(1 for b, d in self.strands(n) if b <= s and s + k <= d)


def ext_chart(res: Resolution) -> ExtChart:
    counts = [Counter(stage.gen_degrees) for stage in res.stages]  # degrees ascend
    dims = {(s, t - s): k for s, c in enumerate(counts) for t, k in c.items()}
    h0: Dict[Tuple[int, int], List[int]] = {}
    for s in range(1, len(res.stages)):
        prev, start = counts[s - 1], 0
        # h0: (s-1, n) -> (s, n) is the Sq1 coefficient of stage s's degree-t
        # boundaries on stage s-1's degree-(t-1) generators: consecutive
        # slots of F_{s-1}'s degree-t basis, after the words on lower ones
        for t, k in counts[s].items():
            rows, start = res.stages[s].boundary[start:start + k], start + k
            if prev[t - 1]:
                off = sum(prev[t - d] * len(steenrod.words_of_degree(d))
                          for d in range(2, steenrod.TOP_DEGREE + 1))
                mask = (1 << prev[t - 1]) - 1
                h0[(s - 1, t - s)] = _transpose([v >> off & mask for v in rows], prev[t - 1])
    return ExtChart(res.max_s, res.max_t, dims, h0)


# -- collapse certification ----------------------------------------------------


class _CertificateFields(NamedTuple):
    report_max_s: int
    max_n: int
    certified: Mapping[Tuple[int, int], bool]
    threats: Tuple[str, ...]


class Certificate(_CertificateFields):
    """Which classes of columns 0..max_n with s <= report_max_s survive.

    ``threats`` lists each differential not ruled out, with the argument
    that failed.  Immutable, as ``ExtChart`` is: ``certified`` is a
    read-only copy and ``threats`` a tuple, so reports can share it.
    """

    __slots__ = ()

    def __new__(cls, report_max_s: int, max_n: int,
                certified: Mapping[Tuple[int, int], bool], threats: Sequence[str]):
        return super().__new__(cls, report_max_s, max_n,
                               MappingProxyType(dict(certified)), tuple(threats))

    @classmethod
    def _make(cls, iterable) -> "Certificate":
        # ``_replace`` builds through ``_make``, which would bypass ``__new__``
        return cls(*iterable)

    def column_ok(self, chart: ExtChart, n: int) -> bool:
        """Whether every class of column n with s <= report_max_s is certified.

        A column past max_n that has such classes was never certified: KeyError.
        """
        return all(self.certified[(s, n)]
                   for s in range(self.report_max_s + 1) if chart.dim(s, n))


def collapse_certificate(chart: ExtChart, report_max_s: int, max_n: int) -> Certificate:
    """Certify permanence of the classes of columns 0..max_n with s <= report_max_s.

    A differential d_r moves (s, n) -> (s+r, n-1), so the rows 0..max_n
    read only the column pairs n -> n-1 for n <= max_n + 1; those pairs,
    and no others, are checked.  A pair is excluded when each in-window
    d_r (r >= 2, s + r <= report_max_s) between nonzero bidegrees is ruled
    out by h0-linearity: the source is killed by h0^k, with k = 1 +
    (largest death - s) over the strands alive at (s, n), inside the
    column's window, and h0^k is injective on the target (t, n-1), i.e.
    no strand alive at t dies before t + k.  Every class that a
    differential of a pair not excluded touches is uncertified, and each
    failed argument is listed in ``threats``; nothing is assumed.
    """
    def col_top(n: int) -> int:
        return min(chart.max_s, chart.max_t - n)

    def failure(s: int, n: int, t: int) -> Optional[str]:
        if not (chart.reliable(s, n) and chart.reliable(t, n - 1)):
            return "beyond reliable window"
        k = 1 + max(d for b, d in chart.strands(n) if b <= s <= d) - s
        if k > col_top(n) - s:
            return "source not h0-nilpotent in window"
        if t + k > col_top(n - 1):
            return "h0-kernel check exceeds window"
        if any(d < t + k for b, d in chart.strands(n - 1) if b <= t <= d):
            return f"not excluded (h0^{k} has kernel)"
        return None

    certified = {(s, n): True for n in range(max_n + 1)
                 for s in range(report_max_s + 1) if chart.dim(s, n)}
    threats: List[str] = []
    for n in range(max_n + 2):
        ends = [(s, s + r) for s in range(report_max_s + 1)
                for r in range(2, report_max_s - s + 1)
                if chart.dim(s, n) and chart.dim(s + r, n - 1)]
        notes = [f"d{t - s}: ({s},{n})→({t}, {n - 1}) {why}"
                 for s, t in ends if (why := failure(s, n, t))]
        if notes:
            threats += notes
            touched = {(s, n) for s, _ in ends} | {(t, n - 1) for _, t in ends}
            certified.update(dict.fromkeys(touched & certified.keys(), False))
    return Certificate(report_max_s, max_n, certified, sorted(threats))


# -- group assembly -------------------------------------------------------------


def format_group(free_rank: int, torsion: Sequence[int]) -> str:
    """Z^r + Z/t + ... in the given torsion order; "0" for the trivial group."""
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


class DegreeReport(NamedTuple):
    degree: int
    free_rank: int
    torsion: Tuple[int, ...]  # 2-power orders, descending
    certified: bool
    warnings: Tuple[str, ...] = ()
    odd_part: str = "assumed trivial"  # documented, never computed

    def __add__(self, other: "DegreeReport") -> "DegreeReport":
        """The direct sum of two rows of one degree; the left row's odd part is kept."""
        return DegreeReport(self.degree, self.free_rank + other.free_rank,
                            tuple(sorted(self.torsion + other.torsion, reverse=True)),
                            self.certified and other.certified,
                            tuple(dict.fromkeys(self.warnings + other.warnings)), self.odd_part)

    def group_str(self) -> str:
        return format_group(self.free_rank, self.torsion)

    def matches(self, free_rank: int, torsion: Sequence[int]) -> bool:
        return self.free_rank == free_rank and tuple(sorted(torsion, reverse=True)) == self.torsion


def assemble_column(chart: ExtChart, n: int, certified: bool,
                    report_max_s: int) -> DegreeReport:
    """Read the 2-complete group of one column from its h0-strands.

    Within the trusted filtrations s <= s_top, a strand of length k is
    Z/2^k and a strand that reaches s_top is Z.
    """
    # only trust bidegrees with t = s + n inside the resolved range
    s_top = min(chart.max_s, chart.max_t - n)
    free_rank = 0
    torsion: List[int] = []
    warnings: List[str] = []
    high_starts = 0
    for birth, death in chart.strands(n):
        if birth > s_top:
            continue
        if birth > report_max_s:
            high_starts += 1
        if death >= s_top:
            free_rank += 1
        else:
            torsion.append(2 ** (death - birth + 1))
    torsion.sort(reverse=True)
    if high_starts:
        certified = False
        warnings.append(
            f"{high_starts} strand(s) begin above the certified filtration "
            f"window (s > {report_max_s}); their differentials are unchecked")
    if free_rank:
        warnings.append(f"tower reaches window boundary (s={s_top}); reported as 2-adic Z")
    if len(torsion) > 1:
        warnings.append("extensions unresolved beyond h0 between summands")
    return DegreeReport(n, free_rank, tuple(torsion), certified, tuple(warnings))


def assemble_groups(chart: ExtChart, cert: Certificate) -> List[DegreeReport]:
    """The rows 0..cert.max_n, the columns the certificate covers."""
    return [assemble_column(chart, n, cert.column_ok(chart, n), cert.report_max_s)
            for n in range(cert.max_n + 1)]


# -- rendering -------------------------------------------------------------------


def chart_tsv(chart: ExtChart, max_n: int, max_s: int) -> str:
    lines = ["s\tn\tdim\th0rank"]
    for n in range(0, max_n + 1):
        for s in range(0, max_s + 1):
            d = chart.dim(s, n)
            if d == 0:
                continue
            lines.append(f"{s}\t{n}\t{d}\t{chart.h0_rank(s, n, 1)}")
    return "\n".join(lines) + "\n"


def chart_ascii(chart: ExtChart, max_n: int, max_s: int) -> str:
    """Adams-chart style grid: one column per n, dots stacked by s, '|' for h0."""
    colw = 4
    lines = []
    for s in range(max_s, -1, -1):
        cells = []
        for n in range(0, max_n + 1):
            d = chart.dim(s, n)
            link = "|" if s > 0 and chart.h0_rank(s - 1, n, 1) > 0 else " "
            if d == 0:
                cells.append("   ".ljust(colw))
            else:
                dot = "." if d == 1 else str(d)
                cells.append(f"{link}{dot}".ljust(colw))
        lines.append(f"{s:>3} " + "".join(cells))
    lines.append("    " + "".join(str(n).ljust(colw) for n in range(0, max_n + 1)))
    return "\n".join(lines) + "\n"
