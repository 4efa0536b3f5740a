from __future__ import annotations

import hashlib

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


# -- pinned decompose outputs ---------------------------------------------------


def decompose_digest(dec):
    """SHA-256 of a decomposition's summands, notes, remainder dims and witness."""
    witness = None if dec.witness_iso is None else tuple(
        (d, dec.witness_iso[d].rows) for d in sorted(dec.witness_iso))
    data = (tuple(dec.free_summands), tuple(dec.catalog_summands), tuple(dec.notes),
            tuple(sorted(dec.remainder.dims.items())), witness)
    return hashlib.sha256(repr(data).encode()).hexdigest()


# recorded with the dict-based cover search; "name@n" is
# decompose_structure(name, n).  Covers the notes where the cover search
# stops at COVER_BUDGET (FKO 4-7, GM 7, PinMinusO2 4/6/7, SigmaBO2 5-7,
# TauMinus 5-7, TauPlus 4-7), the witness-certified matches and the
# unidentified remainders; any change to the search must reproduce them.
DECOMPOSE_DIGESTS = {
    "FK@4": "0bd1e52025c32a35c086914947384e2a85b5d4f79b0386ca77e7003f6210b25c",
    "FK@5": "7ff438c3f0986c4729d68bbda0a7c261bc3b898598da8928f57bcaa4a499846d",
    "FK@6": "2a6b0d5a3afffdb76abc1ca34fae5a65d564ae00daf5de662da57cf714c789d3",
    "FK@7": "ee49bcd9807fc36f503ec176ade2cc3464bca25e601195663fe7e966aec1b372",
    "FKO@4": "2bd7dd00b6ff81711fd223c4c36503010b40529a71ecd3cbf942c88f7a6d29c4",
    "FKO@5": "d3b3bb62c95ebfb0e8d8da62bd48776f6c0ccca0f21a7617547dca1e782ecb99",
    "FKO@6": "b285b6319d8c576a2e76d781e6a39688a77a38141ccbc1d119bb97b192c5141a",
    "FKO@7": "f03088551ac13fae2732e5ba12376a080a16542dc7c12047ff28cb3c3ee29e20",
    "GM@4": "cb8ababbae776069debd5196dea838ccdfa5f2e58323b33a87d48a847e45ca37",
    "GM@5": "017508cfd8b39d57bd45fc0e22163e2ccf961a626872c1ce11823745cecef344",
    "GM@6": "8e434a4efdd124766976020ea0efd8c719283dd9dfd376c520c2d4a52116d33a",
    "GM@7": "8777f8359c846b43ad0c3653c4ff79e34b806370fc924b71ac023ae84e5708f9",
    "KTminus@4": "ae8855b6172d79bd8a071e4b36c86b145922b43845ea937ac7995893123bace1",
    "KTminus@5": "d804935a4737bafe0ad670915b4556efcd337a9207f9b4991e82a717be215cc0",
    "KTminus@6": "c6e0a3df4d52e45761f6889625eeeaeb3b5ea2e37cadcf8315ada09f4f20c345",
    "KTminus@7": "da1393aa1e721d514685da001a2bd2f398a024b5782d2f957b9fac8e3515611a",
    "KTplus@4": "1a3d8f9037d63de7653e6cebc1e9ea913d4d88e1c0dbb6e71bbd8456c133eb33",
    "KTplus@5": "0500e17ad46f1d5bfd4c4e47cf11b18e3d6ef22bff8e5234a139f9e927a66c1b",
    "KTplus@6": "091b33eb0bc8fd30077bb12ab0f4035d7c328b513af47ebf9f9b1e05e6ce000d",
    "KTplus@7": "9a10132a9a3b4f257e03718e5b66f26588f6879450e6b2d2ff704012ba2a3f46",
    "SpinO2@4": "08706d4e82f7dd18606e27e12b0770258f82f9f1bde3356307f615b6aecc34b4",
    "SpinO2@5": "606a989f0e72c4fd353bc6b56d9d6505da3c8e0772a50d1b0262e7f211f6e1a9",
    "SpinO2@6": "671c79875af45150d6be019a77b1b3a0dbbccd9b5d0c92ee674f0c7565898a29",
    "SpinO2@7": "51f220bdb33f632da7fbfa11bcd85cd1db40a112bf7081965afe6c87a8f1b82c",
    "SigmaBO2@4": "26492ba0328e6b9c1f0a7804d74d84d800ea233742a49de4814ffa1b4dbdbd6e",
    "SigmaBO2@5": "5a2af5ca591f37a05c6603a6662efcf15780be9954b352155cd961cd7ed8f32b",
    "SigmaBO2@6": "3fd5c81d4628e0e74785f6eb489f4dbdc43493cfaa6b53b31b75eea56d0a5351",
    "SigmaBO2@7": "94832bc4fc64a3682f73fe2d44e62a66532e2abd0d3acfbd1ab2e43f4b8fb1f6",
    "TauMinus@4": "ecef090c888412d88e1549b28b43afd2c6e6bcdc262dbb85a71ba91b07e0455f",
    "TauMinus@5": "aa0f32835d9806972c567c05aa7d6478c4bf9bd909eeeafe71649264fba9d86b",
    "TauMinus@6": "d536b430743ed4e91a8b7575c3e3580e88ad746d338a76e8ddb9ecc8b7ead11d",
    "TauMinus@7": "0efe004a212d651f2e6a558d65cf9f1fbd41743ee7b9ff786b945ec7eab6ab95",
    "TauPlus@4": "b24650f4778bf684edba31c2544d6040447e5cd238149e1a4f41b3c2fdb1849e",
    "TauPlus@5": "b60e74314b12434f100187da6d34e818c43f444c5c53a5f7afe292041141c2e0",
    "TauPlus@6": "0f302fe7a121b85e4d89de0218cdd5ac692013acf2b65608c6e71590e15a0df8",
    "TauPlus@7": "a0b1a77ab70a3fae47150382131314d3694e8b71057b7acb36ca0fab6f67f690",
    "PinMinusO2@4": "7bd493fb8a24e391ae951a8dbea71e6e70f23ec11327922a91744666e1787f39",
    "PinMinusO2@5": "1e5eab8ac10403b88353d98330bd98026e7118eb006ac66ed2facc8ffd5aafc9",
    "PinMinusO2@6": "4b656810948a3e6503f5881c5e76f9a9554b63b3432b9354d445c143e54ee202",
    "PinMinusO2@7": "7db2d557a07cb9863e1d9917274aa72acce996ea5d72b02785454e31a4b2a485",
    "PinMinus@4": "d7db09622c81992ffb627cbb9b2fee2f470ddbeec5ec085c31f7a1bbd77b3b39",
    "PinMinus@5": "4f5062ba0c1bdc3a80b00211a9495886843df0d7e087668c49790aeb0d84a117",
    "PinMinus@6": "9ab9901294171b8d64aa2ed56b861231c777d2ac405da20991a5f998440425bb",
    "PinMinus@7": "12018dffbeda4a928ec0c5397b593989206c1b6df314f81ecb0651b04e8dc545",
    "PinPlus@4": "d7db09622c81992ffb627cbb9b2fee2f470ddbeec5ec085c31f7a1bbd77b3b39",
    "PinPlus@5": "4f5062ba0c1bdc3a80b00211a9495886843df0d7e087668c49790aeb0d84a117",
    "PinPlus@6": "9ab9901294171b8d64aa2ed56b861231c777d2ac405da20991a5f998440425bb",
    "PinPlus@7": "12018dffbeda4a928ec0c5397b593989206c1b6df314f81ecb0651b04e8dc545",
    "MV_a_ab@4": "e185ca2176c29ab43f449e33073542d2e5d73466d68dc1391735c08e3b25f6af",
    "MV_a_ab@5": "1cb6b1244761ffde7b86e1901ff9318e631e797e221c28adefdbd7fe9e0177d9",
    "MV_a_ab@6": "069fc71382ff97bcdd02315e86b615786c6ddb0eee354edb1a5ed3d52926c5fe",
    "MV_a_ab@7": "68fa2e6c2f3de45d7ea2860951be07a89fd46bff924a0886d730b30c9b36ba68",
}


def test_decompose_outputs_are_pinned():
    got = {f"{name}@{n}": decompose_digest(decompose_structure(name, n))
           for name in sp.STRUCTURE_NAMES for n in range(4, 8)}
    assert got == DECOMPOSE_DIGESTS
