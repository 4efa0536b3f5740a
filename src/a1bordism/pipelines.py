"""Named end-to-end bordism computations and module decompositions.

A pipeline composes: structure module -> documented wedge splittings ->
free-summand splitting -> minimal resolution of each remainder ->
collapse certification -> h0-tower group assembly -> odd-primary merge.
The 2-primary part is computed; odd-primary parts are documented
constants, never computed, and every Z summand is flagged as 2-adically
complete.
"""

from __future__ import annotations

import functools
import operator
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import ext as ext_mod
from . import modules as md
from . import spaces as sp
from .modules import GradedA1Module, ModuleDecomposition, split_free, iso_up_to_degree

DEFAULT_MAX_S = 12
GUARD = 4  # extra resolved filtration, and with it internal degree and module
           # cutoff, so kernel checks near the window close


class PipelineError(ValueError):
    pass


class PieceReport(NamedTuple):
    """What run_pipeline computed for one wedge piece.

    ``free_summands`` are the (degree, label) pairs split_free split off,
    generated in degrees <= through + 1; ``chart`` and ``certificate``
    are those of the remainder, None when the remainder is empty; ``rows``
    are the piece's rows 0..through.  No module or resolution is kept.
    """
    name: str
    free_summands: Tuple[Tuple[int, str], ...]
    chart: Optional[ext_mod.ExtChart]
    certificate: Optional[ext_mod.Certificate]
    rows: Tuple[ext_mod.DegreeReport, ...]


class PipelineReport(NamedTuple):
    name: str
    through_degree: int
    rows: List[ext_mod.DegreeReport]
    provenance: List[str]
    max_s: int
    pieces: Tuple[PieceReport, ...] = ()

    @property
    def certified(self) -> bool:
        return all(r.certified for r in self.rows)


# odd-primary parts are configuration with provenance, not computation
ODD_PARTS: Dict[str, str] = {
    "GM": "Z[1/2] in degrees 0 and 4 (odd-primary part of oriented bordism of BO2); "
          "zero in other degrees below 8",
    "FK": "no odd torsion through degree 7 (classical spin^c bordism tables); "
          "free ranks match the 2-adic computation",
    "FKO": "no odd torsion through degree 7 (classical pin^c bordism tables)",
    "SpinO2": "no odd torsion (localization argument as for GM); free ranks match",
    "SigmaBO2": "no odd torsion (localization argument as for GM); free ranks match",
    "KTminus": "no odd torsion (localization argument as for GM)",
    "KTplus": "no odd torsion (localization argument as for GM)",
    "TauMinus": "no odd torsion (localization argument as for GM)",
    "TauPlus": "no odd torsion (localization argument as for GM)",
    "PinMinusO2": "no odd torsion (localization argument as for GM)",
    "PinMinus": "no odd torsion (classical pin- bordism tables)",
    "PinPlus": "no odd torsion (classical pin+ bordism tables)",
    "MV_a_ab": "no odd torsion (localization argument as for GM)",
}

CONNECTIVITY_BOUND = 7  # the ko approximation of spin bordism is 7-connected


def window_parameters(through_degree: int, max_s: int) -> Tuple[int, int, int]:
    """(resolved filtration, resolved internal degree, required module cutoff).

    The resolution reads the module only in degrees t <= max_t, and
    split_free looks for free generators up to through_degree + 1, whose
    A(1) top class lies 6 degrees higher; the cutoff covers both and no
    more, since construction commutes with truncation.
    """
    s_resolve = max_s + GUARD
    max_t = through_degree + s_resolve
    cutoff = max(max_t, through_degree + 7)
    return s_resolve, max_t, cutoff


def _resolve_piece(piece: GradedA1Module, through: int, max_s: int) -> PieceReport:
    """Split off frees, resolve the remainder, certify, and assemble groups."""
    s_resolve, max_t, _ = window_parameters(through, max_s)
    dec = split_free(piece, max_gen_degree=through + 1)
    rows = [ext_mod.DegreeReport(n, 0, (), True) for n in range(through + 1)]
    for g, _label in dec.free_summands:
        if g <= through:  # a free A(1) summand contributes one Z/2 at its generator
            rows[g] += ext_mod.DegreeReport(g, 0, (2,), True)
    chart = cert = None
    remainder = dec.remainder
    if remainder.total_dim():
        res = ext_mod.minimal_resolution(remainder, max_s=s_resolve,
                                         max_t=min(max_t, remainder.hi))
        chart = ext_mod.ext_chart(res)
        cert = ext_mod.collapse_certificate(chart, report_max_s=max_s, max_n=through)
        for r in ext_mod.assemble_groups(chart, cert):
            rows[r.degree] += r
    return PieceReport(piece.name, tuple(dec.free_summands), chart, cert, tuple(rows))


def _require_nonnegative(**window: int) -> None:
    for arg, value in window.items():
        if value < 0:
            raise PipelineError(f"{arg} must be nonnegative, got {value}")


def run_pipeline(name: str, through_degree: int, max_s: int = DEFAULT_MAX_S) -> PipelineReport:
    """2-complete bordism groups of a named structure through the given degree."""
    _require_nonnegative(through_degree=through_degree, max_s=max_s)
    if through_degree > CONNECTIVITY_BOUND:
        raise PipelineError(
            f"through_degree {through_degree} exceeds the connectivity bound "
            f"{CONNECTIVITY_BOUND} of the ko approximation; refusing")
    if name not in sp.STRUCTURE_NAMES:
        raise PipelineError(f"unknown pipeline {name!r}; choose from {sp.STRUCTURE_NAMES}")
    s_resolve, max_t, cutoff = window_parameters(through_degree, max_s)
    pieces = sp.structure_pieces(name, cutoff)
    provenance: List[str] = [
        f"module cutoff {cutoff}, resolved to s <= {s_resolve}, t <= {max_t}; "
        f"groups reported for filtration window s <= {max_s}",
    ]
    if len(pieces) > 1:
        note = sp.SPECTRUM_SPLITS[name][1]
        provenance.append(f"{name}: resolved as a wedge of two pieces ({note})")
    reports = tuple(_resolve_piece(piece, through_degree, max_s) for piece in pieces)
    provenance += [
        f"{p.name}: {len(p.free_summands)} free summand(s) split off; "
        "free summands realize wedge factors (Margolis), so they support no differentials"
        for p in reports if p.free_summands]
    odd = ODD_PARTS[name]
    rows = [ext_mod.DegreeReport(n, 0, (), True, (), odd) for n in range(through_degree + 1)]
    for p in reports:
        rows = list(map(operator.add, rows, p.rows))
    return PipelineReport(name, through_degree, rows, provenance, max_s, reports)


# -- catalog matching -------------------------------------------------------


def a0_pair_module() -> GradedA1Module:
    """A(0) as an A(1)-module: two classes joined by Sq1."""
    return GradedA1Module({0: 1, 1: 1}, {0: (1,)}, {}, 1,
                          {0: ("e0",), 1: ("e1",)}, complete=True, name="A0")


MATCH_PIECES = ("M1", "R2", "R3", "J", "Q", "M0", "A0", "F2")
COVER_BUDGET = 4000  # candidate covers tried before the search reports "undecided"


def _match_piece(name: str, cutoff: int) -> GradedA1Module:
    if name == "A0":
        return a0_pair_module()
    return md.catalog(name, cutoff)


@functools.lru_cache(maxsize=None)
def _cover_piece(name: str, susp: int, n: int) -> GradedA1Module:
    """Σ^susp of the match piece, cut above n (built once per argument).

    The module is immutable, so its Margolis homology, cached on it, is
    computed once per process too.
    """
    return _match_piece(name, n).suspend(susp).quotient_above(n)


def _cover_search(remainder: GradedA1Module, n: int, budget: int
                  ) -> Tuple[List[List[Tuple[str, int]]], int, bool]:
    """Covers of a nonempty remainder by suspended match pieces through degree n.

    Returns the candidates in search order (the covers whose summed Q0/Q1
    homology is the remainder's), the number of complete covers counted
    against the budget, and whether the budget stopped the search.
    """
    lo = remainder.lo

    def graded(dims: Dict[int, int]) -> Tuple[int, ...]:
        return tuple(dims.get(d, 0) for d in range(lo, n + 1))

    # A cover matches graded dimensions, and Margolis homology adds up
    # over direct sums, so a cover whose summed Q0/Q1 homology differs
    # from the remainder's is one iso_up_to_degree would reject at its
    # own Margolis check: it is counted against the budget but never
    # built.  Dims and the homology still needed are carried down the
    # search as integer vectors over degrees lo..n.
    #
    # Prune rule: a piece's homology in a degree lies between 0 and its
    # dimension there, so a partial cover whose need, for Q0 or Q1, is
    # negative or above its remaining dims in some degree has no
    # candidate below it.  Its complete covers are counted, not walked:
    # their number depends on the remaining dims alone, because the
    # pieces tried at each bottom degree are fixed.  The count is added
    # to `tried` only when it leaves the budget unspent, and otherwise
    # the subtree is walked.  So the budget still counts every complete
    # cover, and the search stops at the same cover, with the same
    # candidates, as a walk of all of them.
    need = tuple(graded(remainder.margolis_homology(i)[0]) for i in (0, 1))
    tried = 0
    candidates: List[List[Tuple[str, int]]] = []
    budget_spent = False

    order_cache: Dict[int, list] = {}

    def ordered_pieces(d0: int) -> list:
        # prefer pieces that fit the window with the least truncation,
        # then the smaller ones; keeps the reported presentation canonical.
        # Each entry is (name, dims, Q0 homology, Q1 homology), for the
        # nonempty pieces whose bottom degree is d0.
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

    def children(remaining: Tuple[int, ...]):
        d0 = lo + next(i for i, v in enumerate(remaining) if v)
        for pname, pdims, p0, p1 in ordered_pieces(d0):
            nxt = tuple(map(operator.sub, remaining, pdims))
            if min(nxt) >= 0:
                yield (pname, d0), nxt, p0, p1

    # remaining dims -> (count, exact): the exact number of complete covers
    # below, or, when not exact, a lower bound at least the cap it was
    # counted under
    memo: Dict[Tuple[int, ...], Tuple[int, bool]] = {}

    def completions(remaining: Tuple[int, ...], cap: int) -> int:
        # the exact count when it is below cap, else some count >= cap;
        # the cap is the budget left, so counting stops where the walk would
        if not any(remaining):
            return 1
        hit = memo.get(remaining)
        if hit is not None and (hit[1] or cap <= hit[0]):
            return hit[0]
        count = 0
        for _, nxt, _, _ in children(remaining):
            count += completions(nxt, cap - count)
            if count >= cap:
                break
        memo[remaining] = (count, count < cap)
        return count

    def cover(remaining: Tuple[int, ...], acc: List[Tuple[str, int]],
              need0: Tuple[int, ...], need1: Tuple[int, ...]):
        nonlocal budget_spent, tried
        if tried >= budget:
            budget_spent = True
            return
        alive = all(0 <= h <= r for need in (need0, need1) for h, r in zip(need, remaining))
        if not any(remaining):
            tried += 1
            if alive:
                candidates.append(list(acc))
            return
        if not alive:
            count = completions(remaining, budget - tried)
            if tried + count < budget:
                tried += count
                return
        for piece, nxt, p0, p1 in children(remaining):
            cover(nxt, acc + [piece],
                  tuple(map(operator.sub, need0, p0)), tuple(map(operator.sub, need1, p1)))

    cover(graded(remainder.dims), [], *need)
    return candidates, tried, budget_spent


def decompose_structure(name: str, n: int) -> ModuleDecomposition:
    """split_free then catalog matching through degree n, with witnesses.

    The matcher tries direct sums of suspended catalog modules (plus the
    two-class Sq1-pair "A0") whose graded dimensions cover the remainder;
    an unmatched remainder is returned explicitly, never forced.  When
    the cover search stops at COVER_BUDGET or an isomorphism search is
    undecided, the note says "undecided" with the reason, not "no match".
    """
    _require_nonnegative(through_degree=n)
    cutoff = n + 6
    module = sp.named_structure(name, cutoff)
    dec = split_free(module, max_gen_degree=n)
    remainder = dec.remainder.quotient_above(n)
    dec = dec._replace(remainder=remainder, valid_through=n)
    if not remainder.dims:
        return dec
    candidates, _, budget_spent = _cover_search(remainder, n, COVER_BUDGET)

    iso_undecided = []
    for cand in candidates:
        total: Optional[GradedA1Module] = None
        for pname, susp in cand:
            pm = _cover_piece(pname, susp, n)
            total = pm if total is None else total.direct_sum(pm)
        iso = iso_up_to_degree(remainder, total, n)
        if iso.status == "undecided":
            iso_undecided.append((cand, iso.reason))
        if iso.status == "iso":
            return dec._replace(
                catalog_summands=cand, witness_iso=iso.maps,
                notes=["catalog match certified by an explicit degree-preserving isomorphism"])
    undecided = []
    if budget_spent:
        undecided.append(f"cover search stopped at its budget of {COVER_BUDGET} candidates")
    if iso_undecided:
        cand, reason = iso_undecided[0]
        undecided.append(
            f"{len(iso_undecided)} candidate(s) not settled by the isomorphism search, "
            f"first {' + '.join(f'{p}@{k}' for p, k in cand)}: {reason}")
    if undecided:
        note = f"undecided: {'; '.join(undecided)}; remainder returned unidentified"
    else:
        note = f"no catalog match found through degree {n}; remainder returned unidentified"
    return dec._replace(notes=[note])
