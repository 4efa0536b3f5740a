from __future__ import annotations

import hashlib
import random

import pytest

from a1bordism.gf2 import BitMatrix, _transpose
from a1bordism import modules as md
from a1bordism.modules import (GradedA1Module, ModuleError, catalog, free_module,
                               iso_up_to_degree, split_free)
from a1bordism.spaces import named_structure
from oracles import identity, letter_matrix, quotient_dims_by_left_ideal


def dims_of(m, top):
    return [m.dim(d) for d in range(top + 1)]


# -- validate -------------------------------------------------------------


def test_validate_free_module_ok():
    assert free_module().validate() is None


def test_validate_rejects_sq1_identity():
    bad = GradedA1Module({0: 1, 1: 1, 2: 1}, {0: (1,), 1: (1,)}, {}, 2, complete=True)
    v = bad.validate()
    assert v is not None and "Sq1∘Sq1" in v.relation and v.degree == 0


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("cols", [(), (1, 0), (0b10,), (-1,)],
                         ids=["too-few", "too-many", "bit-past-target", "negative"])
def test_validate_rejects_a_column_shape_mismatch(k, cols):
    # degree 0 has one class and degree k one class, so Sq^k from 0 is one
    # column with bits below 1
    bad = GradedA1Module({0: 1, k: 1}, {0: cols} if k == 1 else {}, {0: cols} if k == 2 else {},
                         2, complete=True)
    v = bad.validate()
    assert (v.degree, v.relation) == (0, f"Sq{k} matrix shape mismatch")


def test_validate_joker_quotient():
    # oracle: brute-force closure of the left ideal (Sq^3) over word sets
    assert quotient_dims_by_left_ideal([{3}]) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 0, 6: 0}
    J = catalog("J")
    assert J.validate() is None
    assert dims_of(J, 4) == [1, 1, 1, 1, 1]


# -- catalog --------------------------------------------------------------


def test_catalog_m0_dims_from_defining_formula():
    # A(1) ⊗_{A(0)} F2 = A(1)/A(1)Sq1; the quotient has classes in 0,2,3,5.
    assert quotient_dims_by_left_ideal([{1}]) == {0: 1, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0}
    M0 = catalog("M0")
    assert dims_of(M0, 6) == [1, 0, 1, 1, 0, 1, 0]


def test_catalog_q_dims():
    assert dims_of(catalog("Q"), 3) == [1, 0, 1, 1]


def test_catalog_m1_extension():
    M1 = catalog("M1")
    M0 = catalog("M0")
    assert M1.validate() is None
    assert M1.total_dim() == 2 * M0.total_dim()
    # isomorphic to M0 up to degree 3, not up to degree 4
    assert iso_up_to_degree(M0, M1, 3).status == "iso"
    assert iso_up_to_degree(M0, M1, 4).status == "none"
    # the gluing differential: Sq1 of the degree-4 class hits the degree-5 class
    assert letter_matrix(M1, 1, 4).rank() == 1


def test_catalog_r2_margolis_profile():
    # R2 = ker(Σ^{-1}A(1) -> Σ^{-1}F2) is the shifted augmentation ideal:
    # one Q0 class survives at the bottom (the generator 1 is no longer
    # there to hit Sq1) and one Q1 class in degree 2.
    R2 = catalog("R2")
    h0, _ = R2.margolis_homology(0)
    h1, _ = R2.margolis_homology(1)
    assert h0 == {0: 1}
    assert h1 == {2: 1}


def test_catalog_r3_margolis_profile():
    R3 = catalog("R3", 10)
    h0, r0 = R3.margolis_homology(0)
    h1, r1 = R3.margolis_homology(1)
    assert not any(d <= r0 for d in h0)
    assert [d for d in sorted(h1) if d <= r1] == [3]


def test_catalog_unknown_name():
    with pytest.raises(ValueError):
        catalog("nope")


def test_modules_are_frozen():
    m = catalog("J")
    with pytest.raises(AttributeError):
        m.name = "other"
    with pytest.raises(AttributeError):
        m.complete = False
    with pytest.raises(TypeError):
        m.sq1[0] = (0,)
    with pytest.raises(TypeError):
        m.sq1[0][0] = 0
    with pytest.raises(TypeError):
        m.dims[9] = 1
    assert m.name == "J" and m.renamed("J2").name == "J2" and m.name == "J"


def test_catalog_constructors_are_memoized():
    assert catalog("R3", 6) is catalog("R3", 6)
    assert catalog("J") is catalog("J")
    assert free_module() is free_module()
    assert free_module(3) is free_module(3)
    assert free_module(3) is not free_module()


# -- suspend / sum / tensor --------------------------------------------------


def test_suspend_identity_and_inverse():
    J = catalog("J")
    assert J.suspend(0).dims == J.dims
    back = J.suspend(3).suspend(-3)
    assert back.dims == J.dims and back.validate() is None


def test_suspend_f2():
    F = catalog("F2")
    assert F.suspend(6).dims == {6: 1}


def test_tensor_unit():
    J = catalog("J")
    T = J.tensor(catalog("F2"))
    assert {d: T.dim(d) for d in T.degrees()} == J.dims
    assert iso_up_to_degree(T, J, 4).status == "iso"


def test_tensor_dims_are_convolutions():
    rng = random.Random(23)
    pieces = ["F2", "M0", "J", "Q", "R2"]
    for _ in range(20):
        a = catalog(rng.choice(pieces))
        b = catalog(rng.choice(pieces))
        t = a.tensor(b)
        for d in range(t.hi + 1):
            expect = sum(a.dim(i) * b.dim(d - i) for i in range(d + 1))
            assert t.dim(d) == expect
        assert t.validate() is None


def test_tensor_truncation_bound():
    P = md.pin_minus_cell(9)
    J = catalog("J")
    t = J.tensor(P)
    assert not t.complete and t.hi == 9  # J complete, P truncated at 9


def test_tensor_with_the_zero_module_is_zero():
    J = catalog("J")
    for zero in (GradedA1Module({}, {}, {}, 0, complete=True), GradedA1Module({}, {}, {}, 5)):
        for t in (zero.tensor(J), J.tensor(zero), zero.tensor(zero)):
            assert dict(t.dims) == {} and dict(t.sq1) == {} and dict(t.sq2) == {}
            assert t.validate() is None and t.minimal_generators() == []


def _cartan_reference(a, b, k, d):
    """Rows of Sq^k on degree d of a ⊗ b, entry by entry from the Cartan formula."""
    def basis(deg):
        return [(d1, i, j) for d1 in a.degrees()
                for i in range(a.dim(d1)) for j in range(b.dim(deg - d1))]

    def act(m, kk, deg, i):
        return m.sq(kk, deg)[i] if kk else 1 << i

    src, tgt = basis(d), basis(d + k)
    rows = [0] * len(tgt)
    for c, (d1, i, j) in enumerate(src):
        for k1 in range(k + 1):
            u, w = act(a, k1, d1, i), act(b, k - k1, d - d1, j)
            for r, (e1, x, y) in enumerate(tgt):
                if e1 == d1 + k1 and (u >> x) & 1 and (w >> y) & 1:
                    rows[r] ^= 1 << c
    return tuple(rows)


def test_tensor_matches_entrywise_cartan_reference():
    for a, b in ((catalog("J"), md.pin_minus_cell(9)),
                 (catalog("M1"), catalog("Q").suspend(2))):
        t = a.tensor(b)
        nonzero = 0
        for d in t.degrees():
            for k in (1, 2):
                if t.complete or d + k <= t.hi:
                    ref = _cartan_reference(a, b, k, d)
                    assert tuple(_transpose(t.sq(k, d), t.dim(d + k))) == ref, (a.name, b.name, d, k)
                    nonzero += any(ref)
        assert nonzero > 5


# -- margolis homology ---------------------------------------------------------


def test_margolis_free_module_acyclic():
    h0, _ = free_module().margolis_homology(0)
    h1, _ = free_module().margolis_homology(1)
    assert h0 == {} and h1 == {}


def test_margolis_pin_cell_profile():
    P = md.pin_minus_cell(12)
    h0, rel0 = P.margolis_homology(0)
    h1, rel1 = P.margolis_homology(1)
    assert not any(d <= rel0 for d in h0)
    assert {d: v for d, v in h1.items() if d <= rel1} == {1: 1}
    assert rel1 == 9  # degrees within 2 of the boundary are unreliable


def test_margolis_joker_profile():
    J = catalog("J")
    h1, _ = J.margolis_homology(1)
    assert h1 == {2: 1}


def test_margolis_invalid_module_rejected():
    bad = GradedA1Module({0: 1, 1: 1, 2: 1}, {0: (1,), 1: (1,)}, {}, 2, complete=True)
    with pytest.raises(ModuleError):
        bad.margolis_homology(0)


def test_margolis_acyclic_modules_split_completely():
    # both Margolis homologies vanish => free through hi - 6, and
    # split_free must consume everything in that range
    probes = [
        free_module().tensor(catalog("J")),
        free_module().tensor(catalog("Q")).suspend(1),
        free_module().tensor(catalog("M1")),
    ]
    for m in probes:
        h0, r0 = m.margolis_homology(0)
        h1, r1 = m.margolis_homology(1)
        assert not any(d <= r0 for d in h0)
        assert not any(d <= r1 for d in h1)
        dec = split_free(m)
        assert all(d > m.hi - 6 for d in dec.remainder.degrees())


def test_margolis_kunneth_convolution():
    rng = random.Random(99)
    pieces = ["F2", "M0", "J", "Q", "R2", "M1"]
    for i in (0, 1):
        for _ in range(30):
            a = catalog(rng.choice(pieces))
            b = catalog(rng.choice(pieces))
            t = a.tensor(b)
            ha, _ = a.margolis_homology(i)
            hb, _ = b.margolis_homology(i)
            ht, _ = t.margolis_homology(i)
            for d in range(t.hi + 1):
                conv = sum(ha.get(x, 0) * hb.get(d - x, 0) for x in range(d + 1))
                assert ht.get(d, 0) == conv, (a.name, b.name, i, d)


def test_margolis_adds_over_direct_sums_of_match_pieces():
    # decompose_structure skips a cover whose summed Margolis homology
    # differs from the remainder's; that is sound only if it adds up
    from itertools import combinations_with_replacement

    from a1bordism import pipelines as pl

    n = 6
    pieces = {(name, k): pl._match_piece(name, n).suspend(k).quotient_above(n)
              for name in pl.MATCH_PIECES for k in range(4)}
    # the search reads the pieces built once per process: the same
    # module, with the same Margolis homology, on every call
    for (name, k), fresh in pieces.items():
        shared = pl._cover_piece(name, k, n)
        assert shared is pl._cover_piece(name, k, n)
        assert (shared.dims, shared.sq1, shared.sq2) == (fresh.dims, fresh.sq1, fresh.sq2)
        for i in (0, 1):
            assert shared.margolis_homology(i) == fresh.margolis_homology(i), (name, k, i)
    for a, b in combinations_with_replacement(sorted(pieces), 2):
        total = pieces[a].direct_sum(pieces[b])
        for i in (0, 1):
            want: dict = {}
            for key in (a, b):
                for d, h in pieces[key].margolis_homology(i)[0].items():
                    want[d] = want.get(d, 0) + h
            assert total.margolis_homology(i)[0] == want, (a, b, i)


def test_margolis_cache_returns_fresh_dicts():
    J = catalog("J")
    h1, _ = J.margolis_homology(1)
    h1[7] = 5
    assert J.margolis_homology(1)[0] == {2: 1}


# -- submodule -------------------------------------------------------------------


def test_submodule_rejects_vectors_outside_their_degree():
    J = catalog("J")  # one class in each degree 0..4
    with pytest.raises(ModuleError, match="degree 0"):
        J.submodule({0: [0b11]})
    with pytest.raises(ModuleError, match="degree 2"):
        J.submodule({2: [1 << 3]})


# -- split_free ------------------------------------------------------------------


def test_split_free_of_free_module():
    dec = split_free(free_module())
    assert dec.free_summands == [(0, "1")]
    assert dec.remainder.total_dim() == 0


def test_split_free_joker_no_summands():
    dec = split_free(catalog("J"))
    assert dec.free_summands == []
    assert dec.remainder.total_dim() == 5


def test_split_free_witness_and_validity():
    big = free_module().direct_sum(catalog("J").suspend(1)).direct_sum(free_module().suspend(2))
    dec = split_free(big)
    assert sorted(g for g, _ in dec.free_summands) == [0, 2]
    assert dec.remainder.validate() is None
    assert dec.remainder.total_dim() == 5
    for d in big.degrees():
        cols = dec.witness[d]
        assert len(cols) == big.dim(d) and not any(c >> big.dim(d) for c in cols)
        assert BitMatrix.from_columns(cols, big.dim(d)).rank() == big.dim(d)


def test_split_free_witness_is_a1_map():
    # nine free summands in degrees 0, 2, 4, 5, 6 with overlapping windows
    M = named_structure("KTminus", 12)
    dec = split_free(M)
    assert len({g for g, _ in dec.free_summands}) >= 3
    src = free_module().suspend(dec.free_summands[0][0])
    for g, _ in dec.free_summands[1:]:
        src = src.direct_sum(free_module().suspend(g))
    src = src.direct_sum(dec.remainder)

    def w(d):
        cols = dec.witness.get(d, (0,) * src.dim(d))
        assert len(cols) == src.dim(d) and not any(c >> M.dim(d) for c in cols), d
        return BitMatrix.from_columns(cols, M.dim(d))

    for d in range(M.lo, M.hi + 1):
        w(d)
        for shift in (1, 2):
            if (src.complete or d + shift <= src.hi) and (M.complete or d + shift <= M.hi):
                assert w(d + shift) @ letter_matrix(src, shift, d) \
                    == letter_matrix(M, shift, d) @ w(d), (d, shift)


def test_split_free_joker_tensor_pin_cell():
    # J ⊗ H*((BO1)^{σ-1}) = R3 ⊕ ΣA(1) ⊕ Σ²A(1) ⊕ (free, degrees ≥ 5)
    big = catalog("J").tensor(md.pin_minus_cell(12))
    dec = split_free(big)
    low = sorted(g for g, _ in dec.free_summands if g <= 4)
    assert low == [1, 2]
    rem = dec.remainder.quotient_above(4)
    r3 = catalog("R3", 10).quotient_above(4)
    assert iso_up_to_degree(rem, r3, 4).status == "iso"


def split_free_digest(M, max_gen_degree):
    """SHA-256 of split_free(M, max_gen_degree): summands, validity, remainder, witness."""
    dec = split_free(M, max_gen_degree=max_gen_degree)
    rem = dec.remainder
    data = (tuple(dec.free_summands), dec.valid_through,
            tuple(sorted(rem.dims.items())), tuple(sorted(rem.labels.items())),
            tuple((d, tuple(_transpose(rem.sq1[d], rem.dim(d + 1)))) for d in sorted(rem.sq1)),
            tuple((d, tuple(_transpose(rem.sq2[d], rem.dim(d + 2)))) for d in sorted(rem.sq2)),
            rem.hi, rem.complete, rem.name,
            tuple((d, tuple(_transpose(dec.witness[d], M.dim(d)))) for d in sorted(dec.witness)))
    return hashlib.sha256(repr(data).encode()).hexdigest()


def split_free_pin_inputs():
    """("key", (module, max_gen_degree)) for every pinned split.

    The 16 pipeline pieces at the ``--through 7`` window, split as
    ``run_pipeline`` splits them, and every structure at cutoff 12 with
    generators through degree 6.
    """
    from a1bordism.pipelines import DEFAULT_MAX_S, window_parameters
    from a1bordism.spaces import STRUCTURE_NAMES, structure_pieces

    through = 7
    cutoff = window_parameters(through, DEFAULT_MAX_S)[2]
    for name in STRUCTURE_NAMES:
        for piece in structure_pieces(name, cutoff):
            yield f"{piece.name}@{cutoff}", (piece, through + 1)
    for name in STRUCTURE_NAMES:
        yield f"{name}@12", (named_structure(name, 12), 6)


# recorded with the split that builds one module per free summand; any
# change to split_free must reproduce the summands, the remainder under its
# labels and the witness byte for byte
SPLIT_FREE_DIGESTS = {
    "FK@23":
        "c74a60577ee87aff51202d29594ce7e94442315f2f8c7c9c84fe05ebf04a1e23",
    "FKO@23":
        "f629ac3e8e6d463009317eb1993f9d4e0abb0020f1bb4d3727093b1a5087ecf2",
    "GM@23":
        "2a3aa188e6dd009b9e6399d70e876baafd162335bb189d166b9040b622658acf",
    "KTminus@23":
        "04323a0f1e5b0e4f1abfbaa8d80b19a07b3a0a7b6496e7932963b97edcaca33f",
    "KTplus@23":
        "7cbec7227cb67290fb3b30e01ffc1c3eec15b1e19c5585247ac77928d51931e5",
    "SpinO2@23":
        "d1b26a3c326c3c7beff8e00434571fc38f307dd88b203534eca21656365d2fa0",
    "SigmaBO2[no w2]@23":
        "7cb2bd3a9e8fe37b09a657a6a9305978a482a958263201c9f4d4a8d90b92259d",
    "SigmaBO2[w2·]@23":
        "e9ffcadcdf1a57fa74d59b700697841228053a64b9ebb7b95a9263e26852b636",
    "TauMinus[no c]@23":
        "f07e55cc2404d8252604ec40fffe875f078374f50234cc4c3c984f8bfb8f63e2",
    "TauMinus[c·]@23":
        "64b4156abbf1de9f75e83199504cc38a455b959cfbbf7c8ae80a7d0ddb93353f",
    "TauPlus[no c]@23":
        "d75eac4a23d238ec957384a0ddfbcc0c04846ba8b8fa3a2f5617c2e9257dd898",
    "TauPlus[c·]@23":
        "3e96f98c1d9ed781e2c83d008998adf7ae96c995d00d38d6c7119a91b7adbad8",
    "PinMinusO2@23":
        "c1b8374eb00b226f67a473eae91f83642d6c8c3748bcea0c9587aff7d8cac020",
    "PinMinus@23":
        "fe04515640146f0f072b4e7113b96b30767af201029872f2ba87b84a69db9caa",
    "PinPlus@23":
        "67c6f3989734c9cd03ece9dd5501abd11ce2d4ec559b223748e8b06f5255fbc5",
    "MV_a_ab@23":
        "88f985f740cd1b1b77b41f2dec10beba0055f42861ab01763f0cc1eb0b526715",
    "FK@12":
        "f8ac00f8482b0a498c9d8cb06bd507341a2be206a96bf41aa54c48ac363282f4",
    "FKO@12":
        "f852f94cf9d816b69770dd047885eecf1fd76ad2efd46231331fcf25f2027075",
    "GM@12":
        "74ade23075f7e9c949415c3d92881ba49369d3ea9d1d08abdce15d75d3913bae",
    "KTminus@12":
        "84d401f1e3c952056d1763cf8621687b36fab4155dd8d934aad634fcf65222a6",
    "KTplus@12":
        "365c0ff04913c89850785a7c4588b80e28988d5d6ec71d53cb8b7d82aeba3896",
    "SpinO2@12":
        "1d063a460e13d10a0d642f05e3992de509a7c34868e873c8d31f17c0057caa50",
    "SigmaBO2@12":
        "5fc0bb44e7bf85b98199c22f3062211ee678460ab590b61a11373d009554b00c",
    "TauMinus@12":
        "825116b41cde744de29a432194f94c69263ce769cc8e1125c680d3e26d051b2c",
    "TauPlus@12":
        "41be0fdb137b73e0368dc3b02a9eb1c9c943170741d7be6fad9b01bef3e9e237",
    "PinMinusO2@12":
        "2c1629522a005ab61b2427d4d280a7c2439c6fa5fec6fdb68c059fffcdc56cc7",
    "PinMinus@12":
        "65efe8a13488419119e3d49f7dd18a1b0730c960b66b02c0b541e0aaea3532ac",
    "PinPlus@12":
        "c3012a65c024cb15355b2697a3f3a06d88829ff85a752b40eddab0d7d6ab15bf",
    "MV_a_ab@12":
        "54cd762b9d3ec4b79b5a83d06f2823611e5b2cca04f07d413f749a04c5f692b9",
}


def test_split_free_outputs_are_pinned():
    got = {key: split_free_digest(*args) for key, args in split_free_pin_inputs()}
    assert len(got) == 29
    assert got == SPLIT_FREE_DIGESTS


# -- iso search -------------------------------------------------------------------


def test_iso_self():
    for name in ("J", "Q", "M0", "R2"):
        m = catalog(name)
        res = iso_up_to_degree(m, m, m.hi)
        assert res.status == "iso"


def test_iso_j_vs_q_dimension_pruned():
    res = iso_up_to_degree(catalog("J"), catalog("Q"), 2)
    assert res.status == "none"
    assert "dims differ" in res.reason


def test_iso_detects_twist():
    # two-dimensional pair with Sq1 vs without: dims match, structure differs
    pair = GradedA1Module({0: 1, 1: 1}, {0: (1,)}, {}, 1, complete=True)
    split = GradedA1Module({0: 1, 1: 1}, {}, {}, 1, complete=True)
    assert iso_up_to_degree(pair, split, 1).status == "none"


def _assert_isomorphism(A, B, maps):
    """maps (degree -> columns) is an A(1)-isomorphism A -> B on its degrees, which cover A's.

    The columns are checked as matrices, apart from the ``combine`` that built them.
    """
    assert set(A.degrees()) <= set(maps)
    mats = {}
    for d, cols in maps.items():
        assert len(cols) == A.dim(d) and not any(c >> B.dim(d) for c in cols), d
        phi = mats[d] = BitMatrix.from_columns(cols, B.dim(d))
        assert phi.rank() == A.dim(d) == B.dim(d)
    for d, phi in mats.items():
        for k in (1, 2):
            if d + k in mats:
                assert mats[d + k] @ letter_matrix(A, k, d) == letter_matrix(B, k, d) @ phi, (d, k)


def test_iso_witness_commutes():
    M0 = catalog("M0")
    M1 = catalog("M1")
    res = iso_up_to_degree(M0, M1, 3)
    assert res.status == "iso" and res.maps is not None
    _assert_isomorphism(M0.quotient_above(3), M1.quotient_above(3), res.maps)


@pytest.mark.parametrize("name", ["SpinO2", "GM"])
def test_decompose_witness_iso_commutes(name):
    from a1bordism import pipelines as pl

    dec = pl.decompose_structure(name, 6)
    assert dec.catalog_summands and dec.witness_iso
    total = None
    for pname, susp in dec.catalog_summands:
        pm = pl._match_piece(pname, 6).suspend(susp).quotient_above(6)
        total = pm if total is None else total.direct_sum(pm)
    _assert_isomorphism(dec.remainder, total, dec.witness_iso)


def test_iso_and_split_free_compose_and_reduce_columns_not_matrices(monkeypatch):
    # every map the iso search and the free split build is a column tuple,
    # composed with combine and reduced by ColumnSolver: no matrix product,
    # no matrix kernel and, in the iso search, no conversion to a matrix
    M0, M1, KT = catalog("M0"), catalog("M1"), named_structure("KTminus", 12)
    calls = []
    for method in ("matmul", "kernel_basis"):
        original = getattr(BitMatrix, method)

        def counted(self, *args, _name=method, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(BitMatrix, method, counted)
    from_columns = BitMatrix.from_columns

    def counted_from_columns(cls, columns, nrows):
        calls.append("from_columns")
        return from_columns(columns, nrows)

    monkeypatch.setattr(BitMatrix, "from_columns", classmethod(counted_from_columns))
    assert iso_up_to_degree(M0, M1, 3).status == "iso"
    assert calls == []
    assert len(split_free(KT).free_summands) == 9
    assert "matmul" not in calls and "kernel_basis" not in calls


def test_iso_generator_images_that_break_a_relation_are_rejected():
    # same graded dims, Margolis homology and generator counts in A's
    # generator degrees (0 and 4) as GM's remainder M1 + Q@4, but every
    # choice of generator images breaks a relation or is not invertible
    from a1bordism import pipelines as pl

    rem = pl.decompose_structure("GM", 6).remainder
    cand = catalog("M1").direct_sum(catalog("F2").suspend(4)).direct_sum(catalog("F2").suspend(6))
    res = iso_up_to_degree(rem, cand, 6)
    assert (res.status, res.reason) == ("none", "exhausted generator images")


def test_quotient_above_own_top_is_the_module_itself():
    J = catalog("J")
    assert J.quotient_above(J.hi) is J
    above = J.quotient_above(J.hi + 1)
    assert above is not J and above.dims == J.dims and above.hi == J.hi + 1
    cell = md.pin_minus_cell(5)  # incomplete: the quotient is a new, complete module
    top = cell.quotient_above(cell.hi)
    assert top is not cell and top.complete and not cell.complete


# -- maps out of free modules -----------------------------------------------------


@pytest.mark.parametrize("build", [lambda: catalog("A1free"), lambda: catalog("J"),
                                   lambda: named_structure("SpinO2", 12),
                                   lambda: named_structure("KTminus", 12)],
                         ids=["A1free", "J", "SpinO2@12", "KTminus@12"])
def test_word_images_equal_per_word_matvec_in_free_basis_order(build):
    from a1bordism.ext import _free_bases
    from a1bordism.steenrod import WORDS

    m = build()
    gens = []
    for t in m.degrees()[:4]:
        n = m.dim(t)
        gens += [(t, 1 << (n - 1)), (t, (1 << n) - 1)]
    gen_degrees = [t for t, _ in gens]
    # below the lowest and above the highest generator by more than 6,
    # so some generators have no word of degree d - t
    for d in range(m.lo - 2, max(gen_degrees) + 9):
        want = [m.act_word(WORDS[w], gen_degrees[i]).matvec(gens[i][1])
                for i, w in _free_bases(gen_degrees, d).get(d, [])]
        assert m.word_images(gens, d) == want, d
    if m.name != "J":  # J has one class per degree
        assert any(v & (v - 1) for _, v in gens)


# the Joker cut at degree 3: Sq2 from degree 2 and everything from degree 3 are absent
JOKER_TO_3 = """MODULE joker3
DEG 0: a
DEG 1: b
DEG 2: c
DEG 3: e
SQ1 a -> b
SQ2 a -> c
SQ2 b -> e
TRUNCATE 3
"""


@pytest.mark.parametrize("build", [lambda: named_structure("KTminus", 12),
                                   lambda: md.parse_a1mod(JOKER_TO_3)],
                         ids=["KTminus@12", "a1mod"])
def test_apply_word_equals_word_matrix_images(build):
    from a1bordism.steenrod import WORDS, word_degree

    m = build()
    rng = random.Random(17)
    for d in range(m.lo - 1, m.hi + 3):
        n = m.dim(d)
        vecs = [0, (1 << n) - 1] + [1 << j for j in range(n)] + [rng.getrandbits(n) for _ in range(3)]
        for w in WORDS:
            # the product of the letters' matrices, a route apart from combine
            ref, deg = identity(n), d
            for letter in reversed(w):
                ref = letter_matrix(m, int(letter), deg) @ ref
                deg += int(letter)
            got = m.apply_word(w, d, vecs)
            assert got == [ref.matvec(v) for v in vecs] \
                == [m.act_word(w, d).matvec(v) for v in vecs], (w, d)
            if d + word_degree(w) > m.hi:  # no class, so no Sq map, above the truncation
                assert not any(got), (w, d)


def test_sweep_modules_keep_sq_columns_as_tuples():
    # every module the --through 7 pipelines build, and its pieces and their
    # remainders, stores each Sq map as a tuple of dim(d) ints: the columns
    # cannot be changed in place
    from a1bordism import pipelines as pl
    from a1bordism import spaces as sp

    _, _, cutoff = pl.window_parameters(7, pl.DEFAULT_MAX_S)
    checked = 0
    for name in sp.STRUCTURE_NAMES:
        pieces = sp.structure_pieces(name, cutoff)
        rems = [split_free(p, max_gen_degree=8).remainder for p in pieces]
        for m in [named_structure(name, cutoff), *pieces, *rems]:
            for store in (m.sq1, m.sq2):
                for d, cols in store.items():
                    assert type(cols) is tuple and len(cols) == m.dim(d), (m.name, d)
                    assert all(type(c) is int for c in cols), (m.name, d)
                    checked += 1
    assert checked > 1000


# -- validate-closure property suite ----------------------------------------------


def _random_module(rng: random.Random) -> GradedA1Module:
    pieces = ["F2", "M0", "M1", "J", "Q", "R2", "A1free"]
    m = catalog(rng.choice(pieces)).suspend(rng.randint(0, 2))
    for _ in range(rng.randint(0, 2)):
        m = m.direct_sum(catalog(rng.choice(pieces)).suspend(rng.randint(0, 3)))
    return m


@pytest.mark.parametrize("build", [lambda: catalog("J"), lambda: named_structure("SpinO2", 12),
                                   lambda: named_structure("KTminus", 12)],
                         ids=["J", "SpinO2@12", "KTminus@12"])
def test_act_word_equals_letter_by_letter_product(build):
    from a1bordism.steenrod import WORDS

    m = build()
    for d in range(m.lo - 1, m.hi + 1):
        for w in reversed(WORDS):
            ref, deg = identity(m.dim(d)), d
            for letter in reversed(w):
                ref = letter_matrix(m, int(letter), deg) @ ref
                deg += int(letter)
            assert m.act_word(w, d) == ref, (w, d)
    assert m.act_word("22", m.lo) is m.act_word("121", m.lo)


def test_validate_closure_of_constructions():
    rng = random.Random(1234)
    for _ in range(200):
        m = _random_module(rng)
        assert m.validate() is None
        assert m.suspend(rng.randint(-2, 4)).validate() is None
        op = rng.random()
        if op < 0.4:
            t = m.tensor(catalog(rng.choice(["F2", "J", "Q"])))
            assert t.validate() is None
        elif op < 0.8:
            dec = split_free(m)
            assert dec.remainder.validate() is None
            total = sum(1 for _ in dec.free_summands) * 8 + dec.remainder.total_dim()
            assert total == m.total_dim()
        else:
            assert m.quotient_above(max(m.degrees()) - 1).validate() is None
