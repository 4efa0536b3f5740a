from __future__ import annotations

import pytest

from a1bordism import pipelines as pl
from a1bordism import spaces as sp
from a1bordism.pipelines import PipelineError, decompose_structure, run_pipeline
from oracles import required_cutoff


def groups(report):
    return [r.group_str() for r in report.rows]


def test_connectivity_refusal():
    with pytest.raises(PipelineError, match="connectivity"):
        run_pipeline("GM", 8)


def test_unknown_pipeline():
    with pytest.raises(PipelineError):
        run_pipeline("XYZ", 3)


def test_required_cutoff_formula():
    assert required_cutoff(5, max_s=12) == 5 + 12 + pl.GUARD + 6


def test_fk_small_window():
    rep = run_pipeline("FK", 4, max_s=8)
    assert groups(rep) == ["Z", "0", "Z", "0", "Z^2"]
    assert rep.certified
    # Z summands carry the 2-adic tower flag
    assert any("2-adic" in w for w in rep.rows[0].warnings)
    assert "spin^c" in rep.rows[0].odd_part


def test_gm_odd_part_documented():
    rep = run_pipeline("GM", 2, max_s=8)
    assert "Z[1/2]" in rep.rows[0].odd_part


def test_pipeline_stable_under_larger_window():
    a = run_pipeline("FKO", 4, max_s=8)
    b = run_pipeline("FKO", 4, max_s=11)
    assert groups(a) == groups(b)


def test_wedge_split_provenance_recorded():
    rep = run_pipeline("SigmaBO2", 2, max_s=8)
    assert any("wedge" in p for p in rep.provenance)


def test_decompose_spin_o2():
    dec = decompose_structure("SpinO2", 6)
    assert sorted(g for g, _ in dec.free_summands) == [3, 5]
    assert sorted(dec.catalog_summands) == [("Q", 4), ("R2", 0)]
    assert dec.notes and "isomorphism" in dec.notes[0]


def test_decompose_gm_honest_pieces():
    # Honest degree-6 decomposition: the extra degree-5 class (Q·w1w2U)
    # generates a free summand of the full module, and the rest matches
    # M1 ⊕ Σ^4(bottom-Sq2-pair) — reported as Q@4, whose window shadow
    # equals M0@4.  The figure's claimed Σ^6 F2 piece does not exist: its
    # class is the degree-6 part of the free summand.
    dec = decompose_structure("GM", 6)
    assert [(g, l.startswith("Q*w1*w2")) for g, l in dec.free_summands] == [(5, True)]
    assert sorted(dec.catalog_summands) == [("M1", 0), ("Q", 4)]


def test_decompose_gm_figure_statement_fails_honestly():
    # The module genuinely has two classes in degree 5; the stated
    # M1 ⊕ Σ^4 M0 ⊕ Σ^6 F2 only has one, so no isomorphism can exist.
    from a1bordism import modules as md
    from a1bordism.modules import iso_up_to_degree

    gm = sp.named_structure("GM", 12)
    cand = md.catalog("M1")
    cand = cand.direct_sum(md.catalog("M0").suspend(4))
    cand = cand.direct_sum(md.catalog("F2").suspend(6))
    res = iso_up_to_degree(gm, cand, 6)
    assert res.status == "none"
    assert "degree 5" in res.reason


def test_decompose_zero_window():
    dec = decompose_structure("FK", 0)
    assert dec.catalog_summands == [("F2", 0)]


def test_decompose_kt_minus_through_four():
    dec = decompose_structure("KTminus", 4)
    assert sorted(g for g, _ in dec.free_summands) == [0, 2, 4, 4, 4]
    assert dec.remainder.total_dim() == 0


def test_decompose_spent_cover_budget_is_undecided(monkeypatch):
    from a1bordism import cli

    monkeypatch.setattr(pl, "COVER_BUDGET", 0)
    dec = decompose_structure("SpinO2", 6)
    assert dec.catalog_summands == [] and dec.witness_iso is None
    assert dec.notes == ["undecided: cover search stopped at its budget of 0 candidates; "
                         "remainder returned unidentified"]
    text, code = cli.run(["decompose", "SpinO2", "--through", "6"])
    assert code == 2
    assert "note: undecided: cover search stopped" in text
    assert "no catalog match" not in text


def test_decompose_undecided_iso_search_is_reported(monkeypatch):
    from a1bordism.modules import IsoResult

    monkeypatch.setattr(pl, "iso_up_to_degree",
                        lambda M, N, n: IsoResult("undecided", reason="search budget exceeded"))
    dec = decompose_structure("FK", 0)
    assert dec.catalog_summands == [] and dec.witness_iso is None
    (note,) = dec.notes
    assert note.startswith("undecided: ")
    assert "candidate(s) not settled by the isomorphism search" in note
    assert note.endswith("first F2@0: search budget exceeded; remainder returned unidentified")
