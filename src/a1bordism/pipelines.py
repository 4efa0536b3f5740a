"""Named end-to-end bordism computations and module decompositions.

A pipeline composes: structure module -> documented wedge splittings ->
free-summand splitting -> minimal resolution of each remainder ->
collapse certification -> h0-tower group assembly -> odd-primary merge.
The 2-primary part is computed; odd-primary parts are documented
constants, never computed, and every Z summand is flagged as 2-adically
complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import ext as ext_mod
from . import modules as md
from . import spaces as sp
from .modules import GradedA1Module, ModuleDecomposition, split_free, iso_up_to_degree

DEFAULT_MAX_S = 12
GUARD = 4  # extra resolved filtration so kernel checks near the window close


class PipelineError(ValueError):
    pass


@dataclass
class PipelineReport:
    name: str
    through_degree: int
    rows: List[ext_mod.DegreeReport]
    provenance: List[str]
    max_s: int

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
    """(resolved filtration, resolved internal degree, required module cutoff)."""
    s_resolve = max_s + GUARD
    max_t = through_degree + s_resolve
    cutoff = max_t + 6
    return s_resolve, max_t, cutoff


def _assemble_piece(piece: GradedA1Module, through: int, max_s: int,
                    s_resolve: int, max_t: int,
                    provenance: List[str]) -> List[ext_mod.DegreeReport]:
    """Split off frees, resolve the remainder, certify, and assemble groups."""
    dec = split_free(piece, max_gen_degree=through + 1)
    rows: Dict[int, ext_mod.DegreeReport] = {
        n: ext_mod.DegreeReport(n, 0, (), True) for n in range(through + 1)
    }
    free_count: Dict[int, int] = {}
    for g, _label in dec.free_summands:
        if g <= through:
            free_count[g] = free_count.get(g, 0) + 1
    if dec.free_summands:
        provenance.append(
            f"{piece.name}: {len(dec.free_summands)} free summand(s) split off; "
            "free summands realize wedge factors (Margolis), so they support no differentials")
    remainder = dec.remainder
    if remainder.total_dim():
        res = ext_mod.minimal_resolution(remainder, max_s=s_resolve,
                                         max_t=min(max_t, remainder.hi))
        chart = ext_mod.ext_chart(res)
        cert = ext_mod.collapse_certificate(chart, report_max_s=max_s)
        assembled = ext_mod.assemble_groups(chart, cert, max_n=through)
        for r in assembled:
            rows[r.degree] = r
    out = []
    for n in range(through + 1):
        r = rows[n]
        tors = sorted(list(r.torsion) + [2] * free_count.get(n, 0), reverse=True)
        out.append(ext_mod.DegreeReport(n, r.free_rank, tuple(tors), r.certified, r.warnings))
    return out


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
    totals: Dict[int, List] = {n: [0, [], True, []] for n in range(through_degree + 1)}
    for piece in pieces:
        for r in _assemble_piece(piece, through_degree, max_s, s_resolve, max_t, provenance):
            slot = totals[r.degree]
            slot[0] += r.free_rank
            slot[1].extend(r.torsion)
            slot[2] = slot[2] and r.certified
            slot[3].extend(r.warnings)
    odd = ODD_PARTS.get(name, "assumed trivial")
    rows = []
    for n in range(through_degree + 1):
        fr, tors, cert, warns = totals[n]
        rows.append(ext_mod.DegreeReport(n, fr, tuple(sorted(tors, reverse=True)), cert,
                                         tuple(dict.fromkeys(warns)), odd))
    return PipelineReport(name, through_degree, rows, provenance, max_s)


# -- catalog matching -------------------------------------------------------


def a0_pair_module() -> GradedA1Module:
    """A(0) as an A(1)-module: two classes joined by Sq1."""
    from .gf2 import BitMatrix

    return GradedA1Module({0: 1, 1: 1}, {0: BitMatrix([1], 1)}, {}, 1,
                          {0: ("e0",), 1: ("e1",)}, complete=True, name="A0")


MATCH_PIECES = ("M1", "R2", "R3", "J", "Q", "M0", "A0", "F2")
COVER_BUDGET = 4000  # candidate covers tried before the search reports "undecided"


def _match_piece(name: str, cutoff: int) -> GradedA1Module:
    if name == "A0":
        return a0_pair_module()
    return md.catalog(name, cutoff)


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
    dec.valid_through = n
    dims = {d: remainder.dim(d) for d in remainder.degrees()}
    if not dims:
        dec.remainder = remainder
        return dec

    piece_cache: Dict[Tuple[str, int], GradedA1Module] = {}

    def piece(pname: str, susp: int) -> GradedA1Module:
        key = (pname, susp)
        if key not in piece_cache:
            m = _match_piece(pname, n)
            piece_cache[key] = m.suspend(susp).quotient_above(n)
        return piece_cache[key]

    margolis_cache: Dict[Tuple[str, int, int], Dict[int, int]] = {}

    def piece_margolis(pname: str, susp: int, i: int) -> Dict[int, int]:
        key = (pname, susp, i)
        if key not in margolis_cache:
            margolis_cache[key] = piece(pname, susp).margolis_homology(i)[0]
        return margolis_cache[key]

    # Margolis homology adds up over direct sums, and a cover already
    # matches graded dimensions, so a candidate whose summed Q0/Q1
    # homology differs from the remainder's is one iso_up_to_degree
    # would reject at its own Margolis check: it is counted against the
    # budget but never built.  The sums are carried down the search.
    target = tuple(remainder.margolis_homology(i)[0] for i in (0, 1))
    tried = 0
    candidates: List[List[Tuple[str, int]]] = []
    budget_spent = False

    order_cache: Dict[int, List[str]] = {}

    def ordered_pieces(d0: int) -> List[str]:
        # prefer pieces that fit the window with the least truncation,
        # then the smaller ones; keeps the reported presentation canonical
        if d0 not in order_cache:
            scored = []
            for pname in MATCH_PIECES:
                full = _match_piece(pname, n)
                overhang = max(0, d0 + full.hi - n)
                pm = piece(pname, d0)
                scored.append((overhang, pm.total_dim(), pname))
            order_cache[d0] = [name for _, _, name in sorted(scored)]
        return order_cache[d0]

    def add_margolis(sums: Tuple[Dict[int, int], ...], pname: str, susp: int):
        out = []
        for i, got in enumerate(sums):
            got = dict(got)
            for d, h in piece_margolis(pname, susp, i).items():
                got[d] = got.get(d, 0) + h
            out.append(got)
        return tuple(out)

    def cover(remaining: Dict[int, int], acc: List[Tuple[str, int]],
              sums: Tuple[Dict[int, int], ...]):
        nonlocal budget_spent, tried
        if tried >= COVER_BUDGET:
            budget_spent = True
            return
        if all(v == 0 for v in remaining.values()):
            tried += 1
            if sums == target:
                candidates.append(list(acc))
            return
        d0 = min(d for d, v in remaining.items() if v > 0)
        for pname in ordered_pieces(d0):
            pm = piece(pname, d0)
            pdims = {d: pm.dim(d) for d in pm.degrees()}
            if not pdims or min(pdims) != d0:
                continue
            if any(remaining.get(d, 0) < v for d, v in pdims.items()):
                continue
            nxt = dict(remaining)
            for d, v in pdims.items():
                nxt[d] = nxt.get(d, 0) - v
            cover(nxt, acc + [(pname, d0)], add_margolis(sums, pname, d0))

    cover(dims, [], ({}, {}))

    iso_undecided = []
    for cand in candidates:
        total: Optional[GradedA1Module] = None
        for pname, susp in cand:
            pm = piece(pname, susp)
            total = pm if total is None else total.direct_sum(pm)
        iso = iso_up_to_degree(remainder, total, n)
        if iso.status == "undecided":
            iso_undecided.append((cand, iso.reason))
        if iso.status == "iso":
            dec.catalog_summands = [(pname, susp) for pname, susp in cand]
            dec.remainder = remainder
            dec.notes.append(
                "catalog match certified by an explicit degree-preserving isomorphism")
            dec.witness_iso = iso.maps
            return dec
    dec.remainder = remainder
    undecided = []
    if budget_spent:
        undecided.append(f"cover search stopped at its budget of {COVER_BUDGET} candidates")
    if iso_undecided:
        cand, reason = iso_undecided[0]
        undecided.append(
            f"{len(iso_undecided)} candidate(s) not settled by the isomorphism search, "
            f"first {' + '.join(f'{p}@{k}' for p, k in cand)}: {reason}")
    if undecided:
        dec.notes.append(f"undecided: {'; '.join(undecided)}; "
                         "remainder returned unidentified")
    else:
        dec.notes.append("no catalog match found through degree "
                         f"{n}; remainder returned unidentified")
    return dec
