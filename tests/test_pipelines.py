from __future__ import annotations

import hashlib

import pytest

from a1bordism import pipelines as pl
from a1bordism import spaces as sp
from a1bordism.gf2 import _transpose
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
    # max_t = n + max_s + GUARD, the top of the resolution, when that is
    # the larger; otherwise n + 7, the top class of a free summand on a
    # generator in degree n + 1
    assert required_cutoff(5, max_s=12) == 21
    assert required_cutoff(4, max_s=0) == 11


def test_provenance_names_the_built_cutoff(monkeypatch):
    built = []
    real = sp.structure_pieces

    def recording(name, cutoff):
        pieces = real(name, cutoff)
        built.append({p.hi for p in pieces})
        return pieces

    monkeypatch.setattr(sp, "structure_pieces", recording)
    for through, max_s in ((5, 12), (4, 0)):
        rep = run_pipeline("SigmaBO2", through, max_s=max_s)
        (hi,) = built.pop()
        assert rep.provenance[0].startswith(f"module cutoff {hi}, ")
        assert hi == required_cutoff(through, max_s)


def test_pipelines_build_no_word_matrix_but_the_top_class(monkeypatch):
    # words act on vectors one letter at a time; the one word matrix a
    # pipeline builds is the top class that split_free's search multiplies by
    from a1bordism.modules import GradedA1Module

    words = []
    act_word = GradedA1Module.act_word

    def record(self, word, d):
        words.append(word)
        return act_word(self, word, d)

    monkeypatch.setattr(GradedA1Module, "act_word", record)
    for name, through in (("SigmaBO2", 7), ("KTminus", 4)):
        words.clear()
        run_pipeline(name, through)
        assert set(words) == {"1212"}, name


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
        (d, tuple(_transpose(dec.witness_iso[d], dec.remainder.dim(d))))
        for d in sorted(dec.witness_iso))
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


# -- pinned pipeline windows ----------------------------------------------------


def window_digest(name, through):
    """SHA-256 of run_pipeline's rows and provenance at max_s 0..3.

    Each row gives degree, group, certified, warnings and odd part.  The
    provenance line that names the module cutoff is left out: it records
    how far the module was built, not what was computed from it.
    """
    data = []
    for max_s in range(4):
        rep = run_pipeline(name, through, max_s=max_s)
        rows = tuple((r.degree, r.group_str(), r.certified, tuple(r.warnings), r.odd_part)
                     for r in rep.rows)
        prov = tuple(p for p in rep.provenance if not p.startswith("module cutoff"))
        data.append((max_s, rows, prov))
    return hashlib.sha256(repr(data).encode()).hexdigest()


# recorded with every structure built to cutoff max_t + 6; "name@n" is
# run_pipeline(name, n, max_s) for max_s = 0..3.  Small filtration
# windows are where max_t - 6 falls below the highest free generator
# split_free must find (n + 1), so a cutoff that drops the top class of
# such a summand changes these rows.
WINDOW_DIGESTS = {
    "FK@0": "4a23ffd5937680361d279fa768f617d71027f9141a40f710df662fe67b652484",
    "FK@4": "9cc7d737f3ea10a3cc4b05d4d2e394ae8c212f8d3b08a40af12f8d26587ea6da",
    "FK@7": "cb124860caed157ee072d5e02e7f262eded0ba119865952db6f726b9b43cf2e4",
    "FKO@0": "c15549ad47b872ce2fcc630288a0dc4e0e84e36e1709c7e020e17d67042f1a4a",
    "FKO@4": "9a5238da53cc0f7758401aca95f3bae3344ec5d42e5f4518027b3c9caa3a6ce5",
    "FKO@7": "0cef8e0913e2fe0e64eac319bfcae30cf2336bfdcb2148eb0d04f805b810596b",
    "GM@0": "0a5d5c18e6166227f6f36c71f56f7898894b051e886b3630254d582b2362fb8c",
    "GM@4": "9bc12c7794214593f76e7472371cb2518038486d3c8c74d87c1be41ba3bbf406",
    "GM@7": "2eee1264490a7d05abed1f213d56845f70a7c5d2ad4c12e36b09c7de629fd263",
    "KTminus@0": "f9459c2a7181d31d7fe7759984204de91ba9b53687dbc13c762fb2d92fbf76bf",
    "KTminus@4": "71d324df4ca16015ce610a0bf0aac2128260b1f135c58acb8fdd9b5cd5a52a27",
    "KTminus@7": "ea6308f9233d25ad7ed731271c97bf4ba58cd63c12563b0a9fec913417e73aff",
    "KTplus@0": "3222b31b71ca27933202962e8ca573c84ab1e3d63764eb13b5f2da3999930048",
    "KTplus@4": "ff814c97bb94af34f6d58909bb7400dabbfb03f80ba0c3f4ae20b0978df9cbd2",
    "KTplus@7": "2224c5f8c722b715c4eef1f9911d4d896506def9f5fa076f90a6965268563b15",
    "SpinO2@0": "21b6d4bcbebc8a1dbf94b2ccacb33d7820d06f5dc08a797066c1baaf73ccb013",
    "SpinO2@4": "59042ccd58bdc14920d7ae0e048a3f1d0cc812c6237eadd6bbc7d7c6989c067c",
    "SpinO2@7": "90b79ecb2fcc87e746bd8d266b524fb2fde16bd3e8c6a717fd82c52ee17607fe",
    "SigmaBO2@0": "a8b0d19376c89dd7ad6a557e374bfe021342c958a560f7088bdfc7b74696698a",
    "SigmaBO2@4": "b9dabef707033e89f0de7e8a97440a755645e740ac6b090dfee4e90527095189",
    "SigmaBO2@7": "67df994193abc674a5dae08f5cb5386a09db4d4c589b2321f5e99f29c5e4094a",
    "TauMinus@0": "39265a93cee29c1c83e87cfa5bd847ab86c39fd39e58793dd00015b64f64d848",
    "TauMinus@4": "4ff4a51148cf20b18888b2ee70a854e5bb01648401e34e8a613de6eb0c1493ae",
    "TauMinus@7": "600d6266f235d4fc72a163add3e36d3f0a25a9ed7d8a9acb70d3498842edba47",
    "TauPlus@0": "5160fb6144e9d59829578257caca9c3bf9cc9344476d6030d4c57dba11b53f70",
    "TauPlus@4": "291bb24be0be2c86b7873dcfd0d5d39a54c8815490f38efe531893793401622a",
    "TauPlus@7": "c0ebc985f5d2369d3c1a2efd54b7e63018b2b3826a66939c184658e6ab8982e1",
    "PinMinusO2@0": "89b276d360e5c2232776e1a354105443b75c88196e3295438d4aba5f05adacb2",
    "PinMinusO2@4": "9c764a3af2c41eff24476d323c1c5ece2f49ac5eda03cf4effce61c4cd4ffb9e",
    "PinMinusO2@7": "daa4d2e14a690cf5dc6de13fdef04d9eed336f209a6b2a87adfd9b7afaf32d16",
    "PinMinus@0": "16c57f025dc91b2fc0c8cbbb0296a49fb5875c685b62e96c8a0db366171a89e4",
    "PinMinus@4": "4999c5f9916dede24d450fa39f42c5d48efa2ba49d8c659911ac2b9e796e7f08",
    "PinMinus@7": "f848f10a385bb747982d874566283060baaa613eb19a8961e33948a6fda2d5fd",
    "PinPlus@0": "928f41f408204eeedf34f02b3eb6ba2ec0bada002d48bcb5f3b6f14af093a28b",
    "PinPlus@4": "eb865544a8ce562b0e570e0583d5d5214994d397a53dd9c5781138cf19353107",
    "PinPlus@7": "a05aa8a106f7a07dba900720fdfdf3dfdd0189dd50a254265427278719377e06",
    "MV_a_ab@0": "becee12ca70ef5d072dbcbdfae20b1171af2a46ce639d7016e42277d8cfa7601",
    "MV_a_ab@4": "e4d1a20edafa93332adce19a6510f0e89ea5645ba2f0269d8351d67fa3ef7499",
    "MV_a_ab@7": "904782a6d30b0eeefee3e130957c8f14af3354f4dff14ba15781a6ec22c02b56",
}


def test_pipeline_windows_are_pinned():
    got = {f"{name}@{n}": window_digest(name, n)
           for name in sp.STRUCTURE_NAMES for n in (0, 4, 7)}
    assert got == WINDOW_DIGESTS
