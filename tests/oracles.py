"""Independent oracles used to pin expected values before testing the engine.

Everything here deliberately avoids the library's module/resolution code
paths: the bar-complex Ext computation works with raw word tuples and the
multiplication table only, the ideal closures work with word sets, and the
brute-force GF(2) helpers enumerate vectors directly.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from a1bordism.ext import DegreeReport
from a1bordism.gf2 import BitMatrix
from a1bordism.pipelines import DEFAULT_MAX_S, window_parameters
from a1bordism.steenrod import _RULES, DEGREES, MUL_TABLE, TOP_DEGREE, WORDS, word_degree

NONUNIT = [i for i, w in enumerate(WORDS) if w]


# -- brute-force GF(2) ---------------------------------------------------------


def brute_rowspace(rows: Sequence[int]) -> Set[int]:
    space = set()
    for mask in range(1 << len(rows)):
        acc = 0
        for i, r in enumerate(rows):
            if (mask >> i) & 1:
                acc ^= r
        space.add(acc)
    return space


def brute_kernel(rows: Sequence[int], ncols: int) -> Set[int]:
    out = set()
    for v in range(1 << ncols):
        if all(bin(r & v).count("1") % 2 == 0 for r in rows):
            out.add(v)
    return out


def brute_solutions(rows: Sequence[int], b: int, ncols: int) -> Set[int]:
    out = set()
    for v in range(1 << ncols):
        img = 0
        for i, r in enumerate(rows):
            if bin(r & v).count("1") % 2:
                img |= 1 << i
        if img == b:
            out.add(v)
    return out


def column_scan_rref(rows: Sequence[int], ncols: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Reduced row-echelon form by scanning columns left to right.

    For each column, the first row at or below the current rank with that
    bit becomes the pivot row and is XORed into every other row with the
    bit.  This is the engine's former ``BitMatrix.rref``, kept as a
    reference: (reduced rows, strictly increasing pivot columns).
    """
    work = list(rows)
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(work)):
            if (work[i] >> col) & 1:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(len(work)):
            if i != r and ((work[i] >> col) & 1):
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return tuple(work), tuple(pivots)


def column_scan_kernel_basis(rows: Sequence[int], ncols: int) -> Tuple[int, ...]:
    """Kernel basis read off ``column_scan_rref``, one vector per free column."""
    red, pivots = column_scan_rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in (j for j in range(ncols) if j not in pivot_set):
        v = 1 << f
        for i, p in enumerate(pivots):
            if (red[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return tuple(basis)


def column_scan_solve(rows: Sequence[int], ncols: int, b: int) -> Optional[int]:
    """Some x with M·x = b (free variables 0) by ``column_scan_rref``, or None."""
    aug = [r | (((b >> i) & 1) << ncols) for i, r in enumerate(rows)]
    red, pivots = column_scan_rref(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = 0
    for i, p in enumerate(pivots):
        if (red[i] >> ncols) & 1:
            x |= 1 << p
    return x


# -- rewriting confluence ------------------------------------------------------


def all_reductions(word: str) -> Set[Optional[str]]:
    """Normal forms reachable by applying the A(1) rewriting rules at every position, any order."""
    if word_degree(word) > TOP_DEGREE:
        return {None}
    redexes = []
    for pat, rep in _RULES:
        start = 0
        while True:
            pos = word.find(pat, start)
            if pos < 0:
                break
            redexes.append((pos, pat, rep))
            start = pos + 1
    if not redexes:
        return {word}
    out: Set[Optional[str]] = set()
    for pos, pat, rep in redexes:
        if rep is None:
            out.add(None)
        else:
            out |= all_reductions(word[:pos] + rep + word[pos + len(pat):])
    return out


def rewriting_is_confluent(max_len: int = 6) -> bool:
    """Exhaustively check that every word of length <= max_len has one normal form."""
    words = [""]
    for _ in range(max_len):
        words = [w + c for w in words for c in "12"] + words
    for w in set(words):
        if len(all_reductions(w)) != 1:
            return False
    return True


# -- word-level A(1) helpers ----------------------------------------------------


def word_mul(i: int, j: int) -> Optional[int]:
    return MUL_TABLE[i][j]


def left_ideal_word_span(generators: Sequence[Set[int]]) -> Dict[int, Set[frozenset]]:
    """Degreewise GF(2) span of A(1)·(sums of words), as sets of word-sets."""
    by_degree: Dict[int, List[frozenset]] = {}
    for gen in generators:
        for a in range(len(WORDS)):
            acc: Set[int] = set()
            for g in gen:
                p = word_mul(a, g)
                if p is not None:
                    acc.symmetric_difference_update([p])
            if acc:
                degs = {DEGREES[i] for i in acc}
                assert len(degs) == 1
                by_degree.setdefault(degs.pop(), []).append(frozenset(acc))
    spans: Dict[int, Set[frozenset]] = {}
    for d, elts in by_degree.items():
        span: Set[frozenset] = {frozenset()}
        for e in elts:
            if e in span:
                continue
            span |= {frozenset(set(x) ^ set(e)) for x in list(span)}
        spans[d] = span
    return spans


def quotient_dims_by_left_ideal(generators: Sequence[Set[int]]) -> Dict[int, int]:
    """Graded dims of A(1)/(A(1)·gens), by brute-force closure over words."""
    spans = left_ideal_word_span(generators)
    dims = {}
    for d in range(0, 7):
        total = sum(1 for i in range(len(WORDS)) if DEGREES[i] == d)
        span = spans.get(d, {frozenset()})
        # |span| = 2^rank
        rank = (len(span) - 1).bit_length()
        dims[d] = total - rank
    return dims


# -- bar-complex Ext over A(1) ---------------------------------------------------


def bar_basis(s: int, t: int) -> List[Tuple[int, ...]]:
    """Tuples of non-unit basis words of length s with total degree t."""
    out: List[Tuple[int, ...]] = []

    def rec(remaining: int, slots: int, acc: Tuple[int, ...]):
        if slots == 0:
            if remaining == 0:
                out.append(acc)
            return
        for i in NONUNIT:
            d = DEGREES[i]
            if d <= remaining - (slots - 1):
                rec(remaining - d, slots - 1, acc + (i,))

    rec(t, s, ())
    return out


def bar_differential(tup: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Images of the bar differential, as a mod-2 list of tuples."""
    acc: Dict[Tuple[int, ...], int] = {}
    for i in range(len(tup) - 1):
        p = word_mul(tup[i], tup[i + 1])
        if p is None or not WORDS[p]:
            continue
        merged = tup[:i] + (p,) + tup[i + 2:]
        acc[merged] = acc.get(merged, 0) ^ 1
    return [k for k, v in acc.items() if v]


class BarExt:
    """Ext_{A(1)}^{s,t}(F2, F2) dims and h0-structure from the bar complex."""

    def __init__(self, max_s: int, max_t: int):
        self.max_s = max_s
        self.max_t = max_t
        self._basis: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        self._index: Dict[Tuple[int, int], Dict[Tuple[int, ...], int]] = {}
        self._homology: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}
        for s in range(0, max_s + 2):
            for t in range(0, max_t + 2):
                b = bar_basis(s, t)
                self._basis[(s, t)] = b
                self._index[(s, t)] = {x: k for k, x in enumerate(b)}

    def _d_matrix_rows(self, s: int, t: int) -> List[int]:
        """Differential C_{s,t} -> C_{s-1,t} as row masks over the source basis."""
        src = self._basis[(s, t)]
        tgt_index = self._index[(s - 1, t)]
        rows = [0] * len(tgt_index)
        for j, tup in enumerate(src):
            for img in bar_differential(tup):
                rows[tgt_index[img]] ^= 1 << j
        return rows

    def _rank(self, rows: List[int]) -> int:
        work = [r for r in rows if r]
        rank = 0
        while work:
            pivot = work.pop()
            if pivot == 0:
                continue
            low = pivot & -pivot
            rank += 1
            work = [(w ^ pivot) if (w & low) else w for w in work]
        return rank

    def homology_basis(self, s: int, t: int) -> List[int]:
        """Vectors in C_{s,t} spanning cycles, with boundaries first."""
        key = (s, t)
        if key in self._homology:
            return self._homology[key][0]
        n = len(self._basis[key])
        if n == 0:
            self._homology[key] = ([], [])
            return []
        out_rows = self._d_matrix_rows(s, t) if s >= 1 else []
        from a1bordism.gf2 import BitMatrix

        cyc = list(BitMatrix(out_rows, n).kernel_basis()) if s >= 1 else [1 << j for j in range(n)]
        bnd: List[int] = []
        if s + 1 <= self.max_s + 1:
            up = self._basis[(s + 1, t)]
            for j, tup in enumerate(up):
                img = 0
                for x in bar_differential(tup):
                    img ^= 1 << self._index[key][x]
                if img:
                    bnd.append(img)
        self._homology[key] = (cyc, bnd)
        return cyc

    def ext_dim(self, s: int, t: int) -> int:
        cyc = self.homology_basis(s, t)
        _, bnd = self._homology[(s, t)]
        from a1bordism.gf2 import span_rref

        n = len(self._basis[(s, t)])
        rank_c = len(span_rref(cyc, n)[0])
        rank_b = len(span_rref(bnd, n)[0])
        return rank_c - rank_b

    def h0_nonzero(self, s: int, n: int) -> bool:
        """Whether h0: Ext^{s, n+s} -> Ext^{s+1, n+s+1} is nonzero.

        Ext is dual to the homology of the bar complex, and h0 is dual to
        the chain map C_{s+1,t+1} -> C_{s,t} that strips a leading [Sq1]
        (and sends every other tuple to 0): h0 is nonzero exactly when
        some non-boundary cycle of C_{s+1,t+1} maps outside the boundaries
        of C_{s,t}.  (Concatenating [Sq1] in front is not a chain map.)
        """
        from a1bordism.gf2 import ColumnSolver

        sq1 = WORDS.index("1")
        t = n + s
        up_cyc = self.homology_basis(s + 1, t + 1)
        up_boundaries = ColumnSolver(self._homology[(s + 1, t + 1)][1])
        self.homology_basis(s, t)
        boundaries = ColumnSolver(self._homology[(s, t)][1])
        up_src = self._basis[(s + 1, t + 1)]
        tgt_index = self._index[(s, t)]
        for z in up_cyc:
            if z in up_boundaries:
                continue
            img = 0
            while z:
                tup = up_src[(z & -z).bit_length() - 1]
                z &= z - 1
                if tup[0] == sq1:
                    img ^= 1 << tgt_index[tup[1:]]
            if img not in boundaries:
                return True
        return False

    def groups_by_stem(self, max_n: int) -> Dict[int, Tuple[int, List[int]]]:
        """(free_rank, torsion orders) per stem for multiplicity-one columns.

        Every (s, n) of Ext(F2) in this window has dimension <= 1, so
        strands are maximal runs of nonzero dots linked by nonzero h0; a
        run reaching the window top is a 2-adic Z.
        """
        out: Dict[int, Tuple[int, List[int]]] = {}
        for n in range(0, max_n + 1):
            s_top = min(self.max_s, self.max_t - n - 1)
            dims = {s: self.ext_dim(s, n + s) for s in range(0, s_top + 1)}
            assert all(d <= 1 for d in dims.values()), "column has multiplicity > 1"
            free = 0
            torsion: List[int] = []
            s = 0
            while s <= s_top:
                if dims.get(s, 0) == 0:
                    s += 1
                    continue
                length = 1
                while s + length <= s_top and dims.get(s + length, 0) and \
                        self.h0_nonzero(s + length - 1, n):
                    length += 1
                if s + length > s_top:
                    free += 1
                else:
                    torsion.append(2 ** length)
                s += length
            out[n] = (free, sorted(torsion, reverse=True))
        return out


# -- exactness of a minimal resolution by rank counts ----------------------------


def free_degree_basis(gen_degrees: Sequence[int], t: int) -> Dict[Tuple[int, int], int]:
    """Position of each (generator, word) pair spanning degree t of a free module."""
    pairs = [(i, w) for i, g in enumerate(gen_degrees)
             for w in range(len(WORDS)) if DEGREES[w] == t - g]
    return {pair: k for k, pair in enumerate(pairs)}


def boundary_entries(res, s: int, i: int) -> List[Tuple[int, int]]:
    """Stage s >= 1's boundary of generator i as (target generator, word bits) blocks.

    The column int is decoded bit by bit through ``free_degree_basis`` of
    stage s - 1 in the generator's degree; blocks come by target generator,
    zero blocks left out.  A bit beyond that basis raises AssertionError.
    """
    t, v = res.stages[s].gen_degrees[i], res.stages[s].boundary[i]
    pairs = list(free_degree_basis(res.stages[s - 1].gen_degrees, t))
    assert not v >> len(pairs), f"stage {s}, generator {i} has a bit beyond degree {t}"
    blocks: Dict[int, int] = {}
    for p, (gj, w) in enumerate(pairs):
        if v >> p & 1:
            blocks[gj] = blocks.get(gj, 0) | 1 << w
    return sorted(blocks.items())


def decoded_h0(res) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """h0 from (s-1, n) to (s, n): the Sq1 blocks of stage s's boundaries, decoded.

    Column j (the j-th generator of (s-1, n)) has bit r when the r-th
    generator of (s, n) has the word "1" on it; present exactly where
    both bidegrees have generators, as ``ExtChart.h0`` is.
    """
    sq1 = 1 << WORDS.index("1")
    out: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for s in range(1, len(res.stages)):
        src_deg, tgt_deg = res.stages[s - 1].gen_degrees, res.stages[s].gen_degrees
        for n in sorted({t - s for t in tgt_deg}):
            src = [j for j, g in enumerate(src_deg) if g == n + s - 1]
            tgt = [i for i, t in enumerate(tgt_deg) if t == n + s]
            if not src:
                continue
            cols = [0] * len(src)
            for r, i in enumerate(tgt):
                blocks = dict(boundary_entries(res, s, i))
                for c, j in enumerate(src):
                    if blocks.get(j, 0) & sq1:
                        cols[c] |= 1 << r
            out[(s - 1, n)] = tuple(cols)
    return out


def identity(n: int) -> BitMatrix:
    return BitMatrix([1 << i for i in range(n)], n)


def letter_matrix(module, k: int, d: int) -> BitMatrix:
    """Sq^k (k = 1 or 2) from degree d of the module, as a matrix."""
    return BitMatrix.from_columns(module.sq(k, d), module.dim(d + k))


def h0_matrix(chart, s: int, n: int) -> BitMatrix:
    """Multiplication by h0 from (s, n) to (s + 1, n), as a matrix; zero where absent."""
    cols = chart.h0.get((s, n), (0,) * chart.dim(s, n))
    return BitMatrix.from_columns(cols, chart.dim(s + 1, n))


def _act_by_letters(module, word: str, d: int, v: int) -> int:
    """word·v for v in degree d of the module, one Sq1/Sq2 letter at a time."""
    for letter in reversed(word):
        v = letter_matrix(module, int(letter), d).matvec(v)
        d += int(letter)
    return v


def boundary_rank(res, s: int, t: int) -> int:
    """Rank of d_{s,t}: F_{s,t} -> F_{s-1,t}, with d_0 the augmentation onto M_t.

    Built from the resolution's boundary columns, decoded by
    ``boundary_entries``, and MUL_TABLE (and, for d_0, the module's
    Sq1/Sq2 matrices); the rank comes from ``column_scan_rref`` of the
    image vectors.
    """
    stages = res.stages
    source = free_degree_basis(stages[s].gen_degrees, t)
    images = []
    if s == 0:
        for gi, w in source:
            g, v = stages[0].gen_degrees[gi], stages[0].boundary[gi]
            images.append(_act_by_letters(res.module, WORDS[w], g, v))
        width = res.module.dim(t)
    else:
        target = free_degree_basis(stages[s - 1].gen_degrees, t)
        for gi, w in source:
            img = 0
            for gj, bits in boundary_entries(res, s, gi):
                while bits:
                    u = (bits & -bits).bit_length() - 1
                    bits &= bits - 1
                    p = MUL_TABLE[w][u]
                    if p is not None:
                        img ^= 1 << target[(gj, p)]
            images.append(img)
        width = len(target)
    return len(column_scan_rref(images, width)[1])


def check_exact(res) -> None:
    """Raise AssertionError unless the resolution is exact in its window.

    For s < max_s and t <= max_t, dim F_{s,t} = rank d_{s,t} + rank
    d_{s+1,t}, and d_0 is onto M_t.  With d∘d = 0 (``verify_resolution``)
    these rank counts prove exactness: the image of d_{s+1} lies in the
    kernel of d_s and has the kernel's dimension.
    """
    lo = res.module.lo if res.module.dims else 0
    ranks: Dict[Tuple[int, int], int] = {}

    def rank(s: int, t: int) -> int:
        if (s, t) not in ranks:
            ranks[(s, t)] = boundary_rank(res, s, t)
        return ranks[(s, t)]

    for t in range(lo, res.max_t + 1):
        if rank(0, t) != res.module.dim(t):
            raise AssertionError(f"augmentation not onto M at t={t}")
    for s in range(res.max_s):
        for t in range(lo, res.max_t + 1):
            dim = len(free_degree_basis(res.stages[s].gen_degrees, t))
            if dim != rank(s, t) + rank(s + 1, t):
                raise AssertionError(f"not exact at s={s}, t={t}")


# -- free summands counted by the top class --------------------------------------


def top_class_rank(module, d: int) -> int:
    """Rank of the top class Sq1Sq2Sq1Sq2 (word 1212) from M_d to M_{d+6}.

    The product of the module's letter matrices, one Sq1/Sq2 at a time;
    its rank comes from ``column_scan_rref``.
    """
    power, deg = identity(module.dim(d)), d
    for letter in reversed("1212"):
        power = letter_matrix(module, int(letter), deg) @ power
        deg += int(letter)
    return len(column_scan_rref(power.rows, power.ncols)[1])


def check_free_summand_count(module, free_summands: Sequence[Tuple[int, str]],
                             max_gen_degree: int) -> None:
    """Raise AssertionError unless the top class counts the free summands.

    A(1) is a finite-dimensional Hopf algebra, hence Frobenius (Larson &
    Sweedler, 1969), and local, with socle spanned by the top class; so x
    generates a free summand exactly when top·x ≠ 0, and the summands
    generated in degree d number the rank of top: M_d → M_{d+6}.  This
    holds for every d <= min(max_gen_degree, hi - 6), the degrees
    ``split_free`` searches; no summand is generated above them.
    """
    top = min(max_gen_degree, module.hi - 6)
    counts = Counter(g for g, _ in free_summands)
    above = sorted(g for g in counts if g > top)
    if above:
        raise AssertionError(f"{module.name}: free summands generated above degree {top}: {above}")
    for d in range(module.lo, top + 1):
        rank = top_class_rank(module, d)
        if counts[d] != rank:
            raise AssertionError(f"{module.name}: {counts[d]} free summand(s) generated in "
                                 f"degree {d}, but the top class has rank {rank} there")


# -- groups from ranks of h0 powers -----------------------------------------------


def h0_power_ranks(chart, s: int, n: int, top: int) -> List[int]:
    """Rank of h0^k from (s, n), for k = 0 .. top - s.

    Each power is the product of the chart's h0 matrices from the
    identity, and its rank comes from ``column_scan_rref``.
    """
    power = identity(chart.dim(s, n))
    out = []
    for k in range(top - s + 1):
        if k:
            power = h0_matrix(chart, s + k - 1, n) @ power
        out.append(len(column_scan_rref(power.rows, power.ncols)[1]))
        if not out[-1]:  # h0^k = 0, and so is every higher power
            return out + [0] * (top - s - k)
    return out


def rank_power_rows(chart, cert) -> List[DegreeReport]:
    """The rows ``assemble_groups`` gives, from ranks of h0 powers alone.

    The number of strands born at s that live through s + l - 1 is
    rank h0^(l-1) from s minus rank h0^l from s - 1, so strands of each
    length are differences of those counts; this was the engine's
    assembly before it swept each column once.
    """
    rows = []
    for n in range(cert.max_n + 1):
        s_top = min(chart.max_s, chart.max_t - n)
        ranks = {s: h0_power_ranks(chart, s, n, s_top)
                 for s in range(s_top + 1) if chart.dim(s, n)}

        def rank_power(s: int, j: int) -> int:
            got = ranks.get(s, ())
            return got[j] if j < len(got) else 0

        free_rank = high_starts = 0
        torsion: List[int] = []
        for s in sorted(ranks):
            lmax = s_top - s + 1
            free_rank += rank_power(s, lmax - 1) - rank_power(s - 1, lmax)
            starts_here = rank_power(s, 0) - rank_power(s - 1, 1)
            if s > cert.report_max_s:
                high_starts += starts_here
            for ell in range(1, lmax):
                cnt_ge = rank_power(s, ell - 1) - rank_power(s - 1, ell)
                cnt_gt = rank_power(s, ell) - rank_power(s - 1, ell + 1)
                torsion += [2 ** ell] * (cnt_ge - cnt_gt)
        certified = cert.column_ok(chart, n)
        warnings = []
        if high_starts:
            certified = False
            warnings.append(
                f"{high_starts} strand(s) begin above the certified filtration "
                f"window (s > {cert.report_max_s}); their differentials are unchecked")
        if free_rank:
            warnings.append(f"tower reaches window boundary (s={s_top}); reported as 2-adic Z")
        if len(torsion) > 1:
            warnings.append("extensions unresolved beyond h0 between summands")
        rows.append(DegreeReport(n, free_rank, tuple(sorted(torsion, reverse=True)),
                                 certified, tuple(warnings)))
    return rows


def brute_certificate(chart, report_max_s: int,
                      max_n: int) -> Tuple[Dict[Tuple[int, int], bool], Tuple[str, ...]]:
    """The ``certified`` flags and ``threats`` of the collapse certificate, from h0-power ranks.

    Every in-window differential d_r: (s, n) -> (s + r, n - 1) with n <=
    max_n + 1, r >= 2, s + r <= report_max_s and both ends nonzero is put
    to the four exclusion arguments in turn, each evaluated from
    ``h0_power_ranks`` (products of h0 matrices, no strands).  When one
    differential of a column pair is not excluded, every class of
    columns 0 .. max_n that some differential of that pair touches is
    uncertified.
    """
    def col_top(n: int) -> int:
        return min(chart.max_s, chart.max_t - n)

    ranks: Dict[Tuple[int, int], List[int]] = {}

    def rank(s: int, n: int, k: int) -> int:
        if (s, n) not in ranks:
            ranks[(s, n)] = h0_power_ranks(chart, s, n, col_top(n))
        return ranks[(s, n)][k]

    def failure(s: int, n: int, t: int) -> Optional[str]:
        if s + n > chart.max_t or t + n - 1 > chart.max_t:
            return "beyond reliable window"
        k = next((k for k in range(1, col_top(n) - s + 1) if rank(s, n, k) == 0), None)
        if k is None:
            return "source not h0-nilpotent in window"
        if t + k > col_top(n - 1):
            return "h0-kernel check exceeds window"
        if rank(t, n - 1, k) != chart.dim(t, n - 1):
            return f"not excluded (h0^{k} has kernel)"
        return None

    differentials = [(s, n, s + r) for n in range(max_n + 2)
                     for s in range(report_max_s + 1)
                     for r in range(2, report_max_s - s + 1)
                     if chart.dim(s, n) and chart.dim(s + r, n - 1)]
    failures = {(s, n, t): failure(s, n, t) for s, n, t in differentials}
    threats = tuple(sorted({f"d{t - s}: ({s},{n})→({t}, {n - 1}) {why}"
                            for (s, n, t), why in failures.items() if why}))
    bad = {n for (_, n, _), why in failures.items() if why}
    touched = ({(s, n) for s, n, _ in differentials if n in bad}
               | {(t, n - 1) for _, n, t in differentials if n in bad})
    certified = {(s, n): (s, n) not in touched for n in range(max_n + 1)
                 for s in range(report_max_s + 1) if chart.dim(s, n)}
    return certified, threats


# -- the pipeline window ----------------------------------------------------------


def required_cutoff(through_degree: int, max_s: int = DEFAULT_MAX_S) -> int:
    """Module cutoff a pipeline needs to report through ``through_degree``."""
    return window_parameters(through_degree, max_s)[2]


# -- whole total squares -----------------------------------------------------------


def total_sq_reference(pres) -> Dict[Tuple[int, ...], FrozenSet[Tuple[int, ...]]]:
    """The whole total square Sq(m) of every basis monomial m of a presentation.

    Built as the engine once did: Sq(m) = Sq(m / g) · Sq(g) for g the last
    generator of m, one ``poly_mul`` of whole total squares per step,
    truncated at the cutoff.  Sq^k m is the part of degree |m| + k.
    """
    out: Dict[Tuple[int, ...], FrozenSet[Tuple[int, ...]]] = {pres.unit(): frozenset([pres.unit()])}
    for d in range(1, pres.cutoff + 1):
        for m in pres.basis(d):
            last = max(i for i, e in enumerate(m) if e)
            prefix = m[:last] + (m[last] - 1,) + m[last + 1:]
            out[m] = pres.poly_mul(out[prefix], pres.total_sq[pres.gens[last].label])
    return out


def brute_basis(pres) -> Dict[int, List[Tuple[int, ...]]]:
    """Degree -> the sorted reduced monomials of a presentation, by brute force.

    Every exponent vector with entries 0..cutoff (0 only for a generator of
    degree 0) is tried and kept when each exponent is below its generator's
    nilpotence and the degree is at most the cutoff; ``basis`` is not read.
    """
    gens = pres.gens
    out: Dict[int, List[Tuple[int, ...]]] = {}
    for m in itertools.product(*(range(pres.cutoff + 1 if g.degree else 1) for g in gens)):
        degree = sum(e * g.degree for e, g in zip(m, gens))
        if degree <= pres.cutoff and all(g.nilpotence is None or e < g.nilpotence
                                         for e, g in zip(m, gens)):
            out.setdefault(degree, []).append(m)
    return {d: sorted(ms) for d, ms in out.items()}


def graded_part(pres, p, degree: int) -> FrozenSet[Tuple[int, ...]]:
    """The terms of a polynomial of the given degree."""
    return frozenset(x for x in p if pres.mono_degree(x) == degree)


# -- Thom spaces -------------------------------------------------------------------


def thom_total_sq_reference(ring) -> Dict[Tuple[int, ...], FrozenSet[Tuple[int, ...]]]:
    """Sq(mU)/U = Sq(m)(1 + w1 + ... + wn) for every basis monomial m of BO_n.

    The Thom isomorphism, with Sq(m) from ``total_sq_reference`` and w1 ..
    wn the ring's generators; Sq^k(mU) is the part of degree |m| + k.
    Neither ``sq_k_mono`` nor ``twist`` is read.
    """
    whole_u = frozenset([ring.unit()] + [ring.gen_mono(g.label) for g in ring.gens])
    return {m: ring.poly_mul(sq, whole_u) for m, sq in total_sq_reference(ring).items()}


def gm_thom_mismatch(gm, ring, cutoff: int) -> Optional[str]:
    """Where ``gm`` differs from V(MO2, 0, U) through ``cutoff``, or None when it does not.

    ``ring`` is BO2 at cutoff max(cutoff - 2, 0).  GM has one class Q in
    degree 0 with Sq2 Q = Q·U, the first class of degree 2, and in degree
    d + 2 the classes Q·mU for the BO2 monomials m of degree d, in their
    order.  Their squares come from the Thom isomorphism
    (``thom_total_sq_reference``): Sq1(Q·mU) = Q·Sq1(mU) and
    Sq2(Q·mU) = Q·(Sq2(mU) + U·mU), with U·mU = m·w2·U.  The module's twist
    construction is not read.
    """
    if gm.hi != cutoff or not set(gm.dims) <= set(range(cutoff + 1)):
        return f"hi {gm.hi} or degrees {sorted(gm.dims)} past cutoff {cutoff}"
    if gm.dim(0) != 1 or gm.dim(1) != 0 or (cutoff >= 2 and gm.sq2.get(0) != (1,)):
        return "bottom class"
    whole = thom_total_sq_reference(ring)
    w2 = frozenset([ring.gen_mono("w2")])
    for d in range(cutoff - 1):
        basis = ring.basis(d)
        if gm.dim(d + 2) != len(basis):
            return f"dimension in degree {d + 2}"
        for k in (1, 2):
            if d + 2 + k > cutoff:
                continue
            want = []
            for m in basis:
                p = graded_part(ring, whole[m], d + k)
                if k == 2:
                    p = p ^ ring.poly_mul(frozenset([m]), w2)
                want.append(ring.poly_vector(p, d + k))
            if gm.sq(k, d + 2) != tuple(want):
                return f"Sq{k} from degree {d + 2}"
    return None


# -- Serre-basis dimensions for K(Z/2, n) ----------------------------------------


def admissible_sequences(max_sum: int) -> List[Tuple[int, ...]]:
    """All admissible sequences (a1 >= 2 a2 >= ...) with positive entries, sum <= max_sum."""
    out: List[Tuple[int, ...]] = [()]
    frontier: List[Tuple[int, ...]] = [()]
    while frontier:
        new: List[Tuple[int, ...]] = []
        for seq in frontier:
            lo = 2 * seq[0] if seq else 1
            for a in range(lo, max_sum - sum(seq) + 1):
                ext = (a,) + seq
                new.append(ext)
                out.append(ext)
        frontier = new
    return out


def admissible_generator_degrees(n: int, max_degree: int) -> List[int]:
    """Degrees of the polynomial generators Sq^I ι of H^*(K(Z/2,n)).

    Serre: I admissible with excess(I) = 2 a1 - sum(I) < n (the empty I
    giving ι itself), in degree n + sum(I).
    """
    degs = []
    for seq in admissible_sequences(max_degree - n):
        if seq and 2 * seq[0] - sum(seq) >= n:
            continue
        degs.append(n + sum(seq))
    return sorted(degs)


def kzn_dims(n: int, max_degree: int) -> Dict[int, int]:
    """Graded dims of H^*(K(Z/2,n)) from the Serre polynomial generators."""
    gens = admissible_generator_degrees(n, max_degree)
    dims = {0: 1}
    for g in gens:
        new = dict(dims)
        for d, c in dims.items():
            k = 1
            while d + k * g <= max_degree:
                new[d + k * g] = new.get(d + k * g, 0) + c
                k += 1
        dims = new
    return {d: c for d, c in dims.items() if d <= max_degree}


# -- K(Z/2, n) from Serre's theorem and the Adem relations -------------------------


def adem_reduce(seq: Tuple[int, ...]) -> FrozenSet[Tuple[int, ...]]:
    """Sq^seq as a mod-2 sum of admissible sequences, by the Adem relations.

    For a < 2b, Sq^a Sq^b = sum_c C(b - c - 1, a - 2c) Sq^(a+b-c) Sq^c over
    0 <= c <= a // 2, with Sq^0 = 1 dropped.  The first inadmissible pair is
    rewritten until none is left (Mosher & Tangora, ch. 3).
    """
    seq = tuple(x for x in seq if x)
    for i in range(len(seq) - 1):
        a, b = seq[i], seq[i + 1]
        if a < 2 * b:
            out: Set[Tuple[int, ...]] = set()
            for c in range(a // 2 + 1):
                if math.comb(b - c - 1, a - 2 * c) % 2:
                    out ^= adem_reduce(seq[:i] + (a + b - c, c) + seq[i + 2:])
            return frozenset(out)
    return frozenset([seq])


def derived_kzn(n: int, cutoff: int, sq_words: Dict[str, str]):
    """H^*(K(Z/2, n)) through ``cutoff``, derived from Serre's theorem.

    The ring is polynomial on Sq^I ι for I admissible of excess
    2 a1 - sum(I) < n (Serre, 1953).  An admissible Sq^I ι with I = (a, J)
    and larger excess is Sq^a applied to y = Sq^J ι with a >= |y|: the
    square y² when a = |y|, else 0.  Sq^k of a generator Sq^I ι is Sq^k Sq^I
    reduced to admissible form by ``adem_reduce``, each term evaluated so.
    ``sq_words`` names the generators as a catalog table does (label ->
    I written as digits, "" for ι); the generators come in degree order.
    """
    from a1bordism.spaces import Generator, SpacePresentation

    gens = sorted((s for s in admissible_sequences(cutoff - n)
                   if not s or 2 * s[0] - sum(s) < n), key=lambda s: (sum(s), s))
    label_of = {tuple(map(int, w)): g for g, w in sq_words.items()}
    assert sorted(label_of) == sorted(gens), f"derived generators {gens} differ from the table's"
    index = {s: i for i, s in enumerate(gens)}

    def value(seq: Tuple[int, ...]) -> FrozenSet[Tuple[int, ...]]:
        if seq in index:
            return frozenset([tuple(int(i == index[seq]) for i in range(len(gens)))])
        inner = n + sum(seq[1:])
        assert seq[0] >= inner, f"Sq^{seq} of ι is past the cutoff"
        if seq[0] > inner:
            return frozenset()
        return frozenset(tuple(2 * e for e in m) for m in value(seq[1:]))

    total = {}
    for s in gens:
        acc: Set[Tuple[int, ...]] = set()
        for k in range(cutoff - n - sum(s) + 1):
            for t in adem_reduce((k,) + s):
                acc ^= value(t)
        total[label_of[s]] = frozenset(acc)
    return SpacePresentation(f"K(Z/2,{n})", [Generator(label_of[s], n + sum(s)) for s in gens],
                             cutoff, total, sq_words=sq_words)


def first_sq_mismatch(pres, other) -> Optional[Tuple[int, int]]:
    """The first (k, d), d before k, with d + k <= cutoff where Sq^k from degree d differs."""
    for d in range(pres.cutoff + 1):
        for k in range(1, pres.cutoff - d + 1):
            if pres.sq_matrix(k, d) != other.sq_matrix(k, d):
                return k, d
    return None


# -- the cover search, walked in full --------------------------------------------


def plain_cover_search(remainder, n: int, budget: int):
    """decompose_structure's cover search with nothing pruned.

    Every complete cover is walked and counted, so this is the reference
    for the pruned search's triple (candidates, covers tried, budget
    spent).  It reads the library's match pieces and their order only.
    """
    from a1bordism.pipelines import MATCH_PIECES, _cover_piece, _match_piece

    lo = remainder.lo

    def graded(dims: Dict[int, int]) -> Tuple[int, ...]:
        return tuple(dims.get(d, 0) for d in range(lo, n + 1))

    target = tuple(graded(remainder.margolis_homology(i)[0]) for i in (0, 1))
    tried = 0
    candidates: List[List[Tuple[str, int]]] = []
    budget_spent = False

    order_cache: Dict[int, list] = {}

    def ordered_pieces(d0: int) -> list:
        if d0 not in order_cache:
            scored = []
            for pname in MATCH_PIECES:
                overhang = max(0, d0 + _match_piece(pname, n).hi - n)
                pm = _cover_piece(pname, d0, n)
                scored.append((overhang, pm.total_dim(), pname, pm))
            order_cache[d0] = [
                (pname, graded(pm.dims),
                 *(graded(pm.margolis_homology(i)[0]) for i in (0, 1)))
                for _, _, pname, pm in sorted(scored, key=lambda x: x[:3])
                if pm.dims and pm.lo == d0]
        return order_cache[d0]

    def cover(remaining: Tuple[int, ...], acc: List[Tuple[str, int]],
              h0: Tuple[int, ...], h1: Tuple[int, ...]):
        nonlocal budget_spent, tried
        if tried >= budget:
            budget_spent = True
            return
        if not any(remaining):
            tried += 1
            if (h0, h1) == target:
                candidates.append(list(acc))
            return
        d0 = lo + next(i for i, v in enumerate(remaining) if v)
        for pname, pdims, p0, p1 in ordered_pieces(d0):
            nxt = tuple(map(operator.sub, remaining, pdims))
            if min(nxt) < 0:
                continue
            cover(nxt, acc + [(pname, d0)],
                  tuple(map(operator.add, h0, p0)), tuple(map(operator.add, h1, p1)))

    zero = (0,) * (n + 1 - lo)
    cover(graded(remainder.dims), [], zero, zero)
    return candidates, tried, budget_spent
