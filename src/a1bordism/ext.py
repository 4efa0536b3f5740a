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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .gf2 import ColumnSolver, combine, free_coords, span_rref
from . import steenrod
from .modules import GradedA1Module, InvariantError
from .steenrod import A1Element


class ResolutionError(ValueError):
    pass


@dataclass
class ResolutionStage:
    s: int
    gen_degrees: List[int]
    # boundary[i] = list of (target generator index in stage s-1, A(1) element)
    boundary: List[List[Tuple[int, A1Element]]]
    # stage 0 only: augmentation vectors into the module, per generator
    augmentation: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class Resolution:
    module: GradedA1Module
    max_s: int
    max_t: int
    stages: List[ResolutionStage]

    def gens(self, s: int) -> List[int]:
        return self.stages[s].gen_degrees if s < len(self.stages) else []


def _free_bases(gen_degrees: Sequence[int], top: int) -> Dict[int, List[Tuple[int, int]]]:
    """Bases of the degrees <= top of the free module on the given generators.

    Degree d's basis is pairs (generator index, word index) in the column
    order of ``GradedA1Module.word_images``, which must stay the same.
    """
    out: Dict[int, List[Tuple[int, int]]] = {}
    for i, t in enumerate(gen_degrees):
        for widx, dw in enumerate(steenrod.DEGREES):
            if t + dw <= top:
                out.setdefault(t + dw, []).append((i, widx))
    return out


def _free_word_images(fbasis: Mapping[int, Sequence[Tuple[int, int]]],
                      gens: Sequence[Tuple[int, int]], d: int) -> List[int]:
    """``GradedA1Module.word_images`` into the free module with bases ``fbasis``.

    A product of two basis words of A(1) is one basis word or 0, so the
    word w sends each set bit (gi, u) of v to (gi, MUL_TABLE[w][u]) or to 0.
    """
    target = {bw: 1 << p for p, bw in enumerate(fbasis.get(d, ()))}
    out = []
    for t, v in gens:
        for widx in steenrod.words_of_degree(d - t):
            row, basis, acc, rest = steenrod.MUL_TABLE[widx], fbasis[t], 0, v
            while rest:
                low = rest & -rest
                gi, u = basis[low.bit_length() - 1]
                if row[u] is not None:
                    acc ^= target[(gi, row[u])]
                rest ^= low
            out.append(acc)
    return out


def minimal_resolution(M: GradedA1Module, max_s: int, max_t: int) -> Resolution:
    """Stages 0..max_s of the minimal free resolution, exact for t <= max_t.

    Computed in the free modules' own bases (Bruner, "Calculation of
    large Ext modules", 1993).  The kernel K_s of F_s -> F_{s-1} (of
    F_0 -> M) is kept as vectors of F_s, and the next boundary's columns
    w·v are read off the A(1) multiplication table; no module is built
    for K_s.  Its generators complement Sq1 K_s + Sq2 K_s, as
    ``GradedA1Module.generator_coords`` would on K_s.  Degrees go in
    increasing order in a single thread, so the result depends only on
    the module and the window.
    """
    if not M.complete and M.hi < max_t:
        raise ResolutionError(
            f"module {M.name or '<anon>'} is truncated at {M.hi}; "
            f"resolving to internal degree {max_t} needs cutoff >= {max_t}")
    # the current stage's generators as (t, v), and word images, in the
    # coordinates of the boundary's target: M at stage 0, F_{s-1} after
    gens = M.minimal_generators(max_t)
    images = M.word_images
    prev_fbasis: Dict[int, List[Tuple[int, int]]] = {}
    stages: List[ResolutionStage] = []

    for s in range(max_s + 1):
        gen_degrees = [t for t, _ in gens]
        stage = ResolutionStage(s, gen_degrees, [])
        if s == 0:
            stage.augmentation = gens
        else:
            for t, v in gens:
                entries: Dict[int, int] = {}
                while v:
                    low = v & -v
                    gi, widx = prev_fbasis[t][low.bit_length() - 1]
                    entries[gi] = entries.get(gi, 0) ^ (1 << widx)
                    v ^= low
                stage.boundary.append(
                    [(gi, A1Element(bits)) for gi, bits in sorted(entries.items())])
        stages.append(stage)
        if s == max_s:
            break

        # the kernel of F_s -> target: the inclusion of K_{s-1} into
        # F_{s-1} is injective, so this is the kernel of F_s onto K_{s-1};
        # the generators come in degree order, so those with words in
        # degree d (t in d - 6 .. d) are one slice
        fbasis = _free_bases(gen_degrees, max_t)
        ker_vecs: Dict[int, List[int]] = {}
        for d in sorted(fbasis):
            near = gens[bisect.bisect_left(gen_degrees, d - steenrod.TOP_DEGREE):
                        bisect.bisect_right(gen_degrees, d)]
            kernel = ColumnSolver(images(near, d)).kernel
            if kernel:
                ker_vecs[d] = kernel

        # Sq1 and Sq2 of the kernel in kernel coordinates span the
        # decomposables of K_s
        images = functools.partial(_free_word_images, fbasis)
        decomposables: Dict[int, List[int]] = {d: [] for d in ker_vecs}
        solvers = {d: ColumnSolver(v) for d, v in ker_vecs.items()}
        for shift in (1, 2):
            for d, vecs in ker_vecs.items():
                solver = solvers.get(d + shift)
                if solver is None:
                    continue
                for img in images([(d, v) for v in vecs], d + shift):
                    x = solver.solve(img)
                    if x is None:
                        raise InvariantError("kernel not closed under the action")
                    decomposables[d + shift].append(x)
        gens = [(d, vecs[j]) for d, vecs in sorted(ker_vecs.items())
                for j in free_coords(span_rref(decomposables[d], len(vecs))[1], len(vecs))]
        prev_fbasis = fbasis

    return Resolution(M, max_s, max_t, stages)


def verify_resolution(res: Resolution) -> None:
    """Assert boundary∘boundary = 0 and minimality (no unit coefficients)."""
    for s, stage in enumerate(res.stages):
        for i, entries in enumerate(stage.boundary):
            for gi, elt in entries:
                if elt.coefficient(""):
                    raise InvariantError(f"non-minimal boundary at stage {s}")
        if s < 1:
            continue
        prev = res.stages[s - 1]
        for i, entries in enumerate(stage.boundary):
            if s == 1:
                acc: Dict[int, int] = {}
                for gi, elt in entries:
                    if elt.is_zero():
                        continue
                    t_gi, vec = prev.augmentation[gi]
                    d = t_gi + elt.degree()
                    if res.module.complete or d <= res.module.hi:
                        for w in elt.words():
                            (img,) = res.module.apply_word(w, t_gi, [vec])
                            acc[d] = acc.get(d, 0) ^ img
                if any(v for v in acc.values()):
                    raise InvariantError(f"d∘d ≠ 0 at stage 1, generator {i}")
            else:
                acc2: Dict[int, A1Element] = {}
                for gi, elt in entries:
                    for gj, elt2 in prev.boundary[gi]:
                        prodelt = elt * elt2
                        acc2[gj] = acc2.get(gj, A1Element(0)) + prodelt
                if any(not v.is_zero() for v in acc2.values()):
                    raise InvariantError(f"d∘d ≠ 0 at stage {s}, generator {i}")


# -- charts -------------------------------------------------------------------


class ExtChart:
    """The E2 page in the window s <= max_s, t <= max_t, with its h0 maps.

    ``dims[(s, n)]`` is the dimension at filtration s and stem n = t - s;
    ``h0[(s, n)]`` is multiplication by h0 from (s, n) to (s + 1, n), as
    the tuple of its columns (bit vectors in the basis of (s + 1, n)),
    absent where it is zero.

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
        birth, to the next filtration: the images are reduced
        oldest-first against a pivot table keyed by lowest bit, so a
        vanishing combination ends the youngest strand in it (the elder
        rule), and each basis vector of V_{s+1} outside the images'
        span starts a strand at s + 1.  At every s the vectors born at
        or below b span the image of h0^(s-b) from (b, n).
        """
        out = self._strands.get(n)
        if out is None:
            top = max((s for (s, m) in self.dims if m == n), default=-1)
            ended: List[Tuple[int, int]] = []
            alive: List[Tuple[int, int]] = []  # (birth, vector), oldest first
            for s in range(top + 1):
                tagged = []
                if alive:
                    h0 = self.h0.get((s - 1, n))
                    # an absent h0 map is zero
                    images = [0] * len(alive) if h0 is None else combine(h0, [v for _, v in alive])
                    tagged = [(b, v) for (b, _), v in zip(alive, images)]
                tagged += [(s, 1 << j) for j in range(self.dim(s, n))]
                table: Dict[int, int] = {}
                alive = []
                for b, v in tagged:
                    while v:
                        low = v & -v
                        hit = table.get(low)
                        if hit is None:
                            table[low] = v
                            alive.append((b, v))
                            break
                        v ^= hit
                    else:
                        if b < s:
                            ended.append((b, s - 1))
            ended += [(b, top) for b, _ in alive]
            out = self._strands[n] = tuple(sorted(ended))
        return out

    def h0_rank(self, s: int, n: int, k: int) -> int:
        """The rank of h0^k from (s, n) to (s + k, n), for k >= 0.

        It is the number of strands alive at both s and s + k.
        """
        return sum(1 for b, d in self.strands(n) if b <= s and s + k <= d)


def ext_chart(res: Resolution) -> ExtChart:
    dims: Dict[Tuple[int, int], int] = {}
    index: Dict[Tuple[int, int], List[int]] = {}
    for s, stage in enumerate(res.stages):
        for i, t in enumerate(stage.gen_degrees):
            key = (s, t - s)
            dims[key] = dims.get(key, 0) + 1
            index.setdefault(key, []).append(i)
    h0: Dict[Tuple[int, int], List[int]] = {}
    for s in range(1, len(res.stages)):
        stage = res.stages[s]
        prev = res.stages[s - 1]
        # h0 = Sq1 coefficient: (s-1, n) -> (s, n)
        for tprime in sorted(set(prev.gen_degrees)):
            src_key = (s - 1, tprime - (s - 1))
            src = index.get(src_key, [])
            tgt = index.get((s, tprime + 1 - s), [])
            if not src or not tgt:
                continue
            cols = [0] * len(src)
            pos = {si: cpos for cpos, si in enumerate(src)}
            for rpos, ti in enumerate(tgt):
                for si, elt in stage.boundary[ti]:
                    cpos = pos.get(si)
                    if cpos is not None and elt.coefficient("1"):
                        cols[cpos] |= 1 << rpos
            h0[src_key] = cols
    return ExtChart(res.max_s, res.max_t, dims, h0)


# -- collapse certification ----------------------------------------------------


@dataclass
class Certificate:
    report_max_s: int
    max_n: int
    certified: Dict[Tuple[int, int], bool]
    threats: List[str]

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


@dataclass
class DegreeReport:
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
