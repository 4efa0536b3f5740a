from __future__ import annotations

import hashlib
import random

import pytest

from a1bordism import ext as ex
from a1bordism import modules as md
from a1bordism import pipelines as pl
from a1bordism import spaces as sp
from a1bordism.ext import (assemble_groups, chart_ascii, chart_tsv,
                           collapse_certificate, ext_chart, minimal_resolution,
                           verify_resolution)
from a1bordism.gf2 import ColumnSolver
from a1bordism.modules import InvariantError, catalog, free_module
from a1bordism.steenrod import TOP_DEGREE, WORD_INDEX, free_bases
from oracles import (BarExt, boundary_entries, brute_certificate, check_exact, decoded_h0,
                     free_degree_basis, h0_matrix, h0_power_ranks, rank_power_rows,
                     reference_resolution)


# the hand-built minimal-resolution fixture for F2 over A(1): Ext is
# F2[h0, h1, v, w]/(h0 h1, h1^3, h1 v, v^2 = h0^2 w) with |h0| = (1,1),
# |h1| = (1,2), |v| = (3,7), |w| = (4,12); in the window n <= 8, s <= 12
# the basis monomials give exactly the bidegrees below.
F2_FIXTURE_DIMS = (
    {(s, 0): 1 for s in range(0, 13)}
    | {(1, 1): 1, (2, 2): 1}
    | {(s, 4): 1 for s in range(3, 13)}
    | {(s, 8): 1 for s in range(4, 13)}
)


def f2_chart(max_s=16, max_t=26):
    # resolve past the reported window so kernel checks near the top close
    res = minimal_resolution(md.f2_module(), max_s=max_s, max_t=max_t)
    verify_resolution(res)
    return ext_chart(res)


def test_resolution_of_free_module_is_stage_zero():
    res = minimal_resolution(free_module(), max_s=6, max_t=12)
    assert res.gens(0) == [0]
    for s in range(1, 7):
        assert res.gens(s) == []


def test_question_mark_resolution_low_stages():
    # hand computation: the kernel of A(1) -> Q is generated by Sq1 (t=1)
    # and Sq2Sq1Sq2 (t=5); the stage-2 generators sit at t = 2, 6, 7
    res = minimal_resolution(catalog("Q"), max_s=4, max_t=12)
    verify_resolution(res)
    assert res.gens(0) == [0]
    assert res.gens(1) == [1, 5]
    assert res.gens(2) == [2, 6, 7]


def test_verify_resolution_on_random_sums():
    rng = random.Random(404)
    for _ in range(12):
        m = catalog(rng.choice(["M0", "M1", "J", "Q", "R2"]))
        m = m.direct_sum(catalog(rng.choice(["F2", "J", "Q"])).suspend(rng.randint(0, 2)))
        res = minimal_resolution(m, max_s=6, max_t=12)
        verify_resolution(res)  # boundary∘boundary = 0 and minimality


def test_resolution_refuses_truncated_module():
    P = md.pin_minus_cell(8)
    with pytest.raises(ex.ResolutionError, match="cutoff >= 12"):
        minimal_resolution(P, max_s=4, max_t=12)


def test_f2_resolution_matches_handbuilt_fixture():
    chart = f2_chart()
    got = {(s, n): v for (s, n), v in chart.dims.items()
           if v and s <= 12 and 0 <= n <= 8 and s + n <= 20}
    assert got == F2_FIXTURE_DIMS


def test_f2_resolution_matches_bar_complex_oracle():
    # independent oracle: homology of the reduced bar complex of A(1)
    bx = BarExt(max_s=8, max_t=12)
    chart = f2_chart(max_s=8, max_t=12)
    for s in range(0, 9):
        for t in range(0, 13):
            assert chart.dim(s, t - s) == bx.ext_dim(s, t), (s, t)


def test_f2_groups_match_bar_complex_oracle():
    bx = BarExt(max_s=9, max_t=13)
    oracle = bx.groups_by_stem(4)
    chart = f2_chart()
    cert = collapse_certificate(chart, report_max_s=12, max_n=4)
    rows = assemble_groups(chart, cert)
    for n in range(5):
        free, torsion = oracle[n]
        assert rows[n].free_rank == free, n
        assert list(rows[n].torsion) == torsion, n


def test_bar_complex_h0_matches_chart():
    # Ext_{A(1)}(F2): h1 and h1^2 are not h0-divisible or h0-multiples,
    # while h0 acts on 1 and on the class at (3, 4)
    bx = BarExt(max_s=4, max_t=10)
    assert not bx.h0_nonzero(1, 1) and not bx.h0_nonzero(2, 2)
    assert bx.h0_nonzero(0, 0) and bx.h0_nonzero(3, 4)
    chart = f2_chart()
    classes = [(s, n) for (s, n), v in chart.dims.items()
               if v and s <= 4 and n >= 0 and s + n + 1 <= 11]
    assert len(classes) == 9
    for s, n in classes:
        assert bx.h0_nonzero(s, n) == (h0_matrix(chart, s, n).rank() > 0), (s, n)


def test_f2_groups_through_eight():
    chart = f2_chart()
    cert = collapse_certificate(chart, report_max_s=12, max_n=8)
    rows = assemble_groups(chart, cert)
    expect = [(1, ()), (0, (2,)), (0, (2,)), (0, ()), (1, ()),
              (0, ()), (0, ()), (0, ()), (1, ())]
    for n, (fr, tors) in enumerate(expect):
        assert rows[n].free_rank == fr and rows[n].torsion == tors, n
        assert rows[n].certified, n


def test_chart_additivity_and_suspension():
    rng = random.Random(31)
    for _ in range(8):
        a = catalog(rng.choice(["F2", "M0", "J", "Q"]))
        b = catalog(rng.choice(["F2", "M0", "J", "Q"])).suspend(rng.randint(0, 2))
        k = rng.randint(1, 3)
        ca = ext_chart(minimal_resolution(a, 6, 12))
        cb = ext_chart(minimal_resolution(b, 6, 12))
        csum = ext_chart(minimal_resolution(a.direct_sum(b), 6, 12))
        for s in range(7):
            for n in range(0, 7):
                assert csum.dim(s, n) == ca.dim(s, n) + cb.dim(s, n)
        csusp = ext_chart(minimal_resolution(a.suspend(k), 6, 12 + k))
        for s in range(7):
            for n in range(0, 7):
                assert csusp.dim(s, n + k) == ca.dim(s, n)


def test_assemble_on_suspension_shifts_degrees():
    a = catalog("Q")
    ca = ext_chart(minimal_resolution(a, 10, 16))
    cs = ext_chart(minimal_resolution(a.suspend(2), 10, 16))
    certa = collapse_certificate(ca, report_max_s=8, max_n=4)
    certs = collapse_certificate(cs, report_max_s=8, max_n=6)
    ra = assemble_groups(ca, certa)
    rs = assemble_groups(cs, certs)
    for n in range(5):
        assert (ra[n].free_rank, ra[n].torsion) == (rs[n + 2].free_rank, rs[n + 2].torsion)


def test_h0_consistency_with_known_towers(pipeline_cache):
    # pin^c: Z/4 in degree 2 and Z/8 + Z/2 in degree 4 force the h0-links
    # in the chart bordism FKO --through 4 reads
    (piece,) = pipeline_cache("FKO", 4).pieces
    assert (piece.certificate.report_max_s, piece.certificate.max_n) == (12, 4)
    rows = assemble_groups(piece.chart, piece.certificate)
    assert rows[2].torsion == (4,)
    assert rows[4].torsion == (8, 2)


def test_certificate_free_chart_fully_certified():
    dec = md.split_free(sp.named_structure("KTminus", 20), max_gen_degree=5)
    res = minimal_resolution(dec.remainder, max_s=14, max_t=16)
    chart = ext_chart(res)
    cert = collapse_certificate(chart, report_max_s=10, max_n=4)
    for n in range(5):
        assert cert.column_ok(chart, n)


def test_certificate_flags_synthetic_dense_chart():
    # a module whose chart has a class one column left and two filtrations up:
    # (0, n) dots with a possible d2 target must come back uncertified
    from a1bordism.gf2 import BitMatrix

    dims = {(0, 5): 1, (2, 4): 1}
    chart = ex.ExtChart(max_s=12, max_t=30, dims=dims, h0={})
    cert = collapse_certificate(chart, report_max_s=10, max_n=5)
    assert not cert.certified[(0, 5)]
    assert not cert.certified[(2, 4)]
    assert cert.threats


# one hand-built chart per exclusion argument that can fail, and one that excludes
THREAT_CHARTS = pytest.mark.parametrize("dims, h0, threat, certified", [
    # the source column 13 lies past t <= max_t
    ({(0, 13): 1, (2, 12): 1}, [], "d2: (0,13)→(2, 12) beyond reliable window",
     {(0, 13): False, (2, 12): False}),
    # h0 is injective all the way up the source column
    ({(s, 5): 1 for s in range(7)} | {(2, 4): 1}, [(s, 5) for s in range(6)],
     "d2: (0,5)→(2, 4) source not h0-nilpotent in window",
     {(0, 5): False, (1, 5): True, (2, 5): True, (3, 5): True, (4, 5): True, (2, 4): False}),
    # h0 kills the source, but column 10 ends at s = 2, below h0·(2, 10)
    ({(0, 11): 1, (2, 10): 1}, [], "d2: (0,11)→(2, 10) h0-kernel check exceeds window",
     {(0, 11): False, (2, 10): False}),
    # h0 kills the source and the target, so a d2 is not ruled out
    ({(0, 5): 1, (2, 4): 1}, [], "d2: (0,5)→(2, 4) not excluded (h0^1 has kernel)",
     {(0, 5): False, (2, 4): False}),
    # h0 kills the source but is injective on every target: no differential
    ({(0, 5): 1} | {(s, 4): 1 for s in range(2, 6)}, [(2, 4), (3, 4), (4, 4)], None,
     {(0, 5): True, (2, 4): True, (3, 4): True, (4, 4): True}),
], ids=["unreliable", "not-nilpotent", "exceeds-window", "kernel", "excluded"])


@THREAT_CHARTS
def test_certificate_threat_reasons(dims, h0, threat, certified):
    # max_s 6, max_t 12: column n is read up to s = min(6, 12 - n); h0 is
    # the identity on the listed one-dimensional bidegrees, zero elsewhere
    chart = ex.ExtChart(6, 12, dims, {k: (1,) for k in h0})
    cert = collapse_certificate(chart, report_max_s=4, max_n=max(n for _, n in chart.dims))
    assert cert.threats == (() if threat is None else (threat,))
    assert cert.certified == certified


@THREAT_CHARTS
def test_brute_certificate_gives_the_threat_reasons(dims, h0, threat, certified):
    chart = ex.ExtChart(6, 12, dims, {k: (1,) for k in h0})
    assert brute_certificate(chart, 4, max(n for _, n in chart.dims)) == (
        certified, () if threat is None else (threat,))


def test_certificate_is_immutable():
    # reports keep their certificates, and the session cache shares them
    certified, threats = {(0, 5): False, (2, 4): False}, ["d2: (0,5)→(2, 4) not excluded"]
    cert = ex.Certificate(4, 5, certified, threats)
    with pytest.raises(AttributeError):
        cert.max_n = 8
    with pytest.raises(TypeError):
        cert.certified[(0, 5)] = True
    certified[(0, 5)] = True  # the certificate keeps its own copies
    threats.clear()
    assert cert.certified == {(0, 5): False, (2, 4): False}
    assert cert.threats == ("d2: (0,5)→(2, 4) not excluded",)
    copy = cert._replace(certified=certified, threats=threats)  # copies as well
    certified[(2, 4)] = True
    assert copy.certified == {(0, 5): True, (2, 4): False} and copy.threats == ()
    with pytest.raises(TypeError):
        copy.certified[(0, 5)] = False


def test_column_ok_past_the_certified_window_raises():
    # a column above max_n was never looked at: its classes are not read as certified
    chart = ex.ExtChart(6, 12, {(0, 3): 1, (0, 5): 1}, {})
    cert = collapse_certificate(chart, report_max_s=4, max_n=3)
    assert cert.column_ok(chart, 3)
    assert (0, 5) not in cert.certified
    with pytest.raises(KeyError):
        cert.column_ok(chart, 5)


def test_certifying_only_the_reported_columns_changes_no_row(pipeline_cache):
    # every wedge piece run_pipeline resolves at --through 0..7, with the
    # certificate the pipeline made
    from a1bordism import pipelines as pl

    pieces = 0
    for through in range(8):
        for name in sp.STRUCTURE_NAMES:
            for p in pipeline_cache(name, through).pieces:
                if p.chart is None:
                    continue
                full = collapse_certificate(p.chart, pl.DEFAULT_MAX_S,
                                            max_n=max(n for _, n in p.chart.dims))
                assert (p.certificate.max_n, p.certificate.report_max_s) == (through, pl.DEFAULT_MAX_S)
                assert assemble_groups(p.chart, p.certificate) \
                    == assemble_groups(p.chart, full)[:through + 1]
                pieces += 1
    assert pieces == 128


def test_certificate_h0_tower_targets_are_excluded():
    # single h0-torsion dot next to a clean infinite tower: certified
    dims = {(s, 0): 1 for s in range(13)} | {(0, 1): 1}
    h0 = {(s, 0): (1,) for s in range(12)}
    chart = ex.ExtChart(max_s=12, max_t=30, dims=dims, h0=h0)
    cert = collapse_certificate(chart, report_max_s=8, max_n=1)
    assert cert.certified[(0, 1)]
    assert all(cert.certified[(s, 0)] for s in range(9))


def column_chart(n, dims, h0):
    # one column n of a chart with max_s 6, max_t 12 (so s_top = min(6, 12 - n));
    # dims by filtration, h0 maps by source filtration as lists of rows
    from a1bordism.gf2 import _transpose

    return ex.ExtChart(6, 12, {(s, n): d for s, d in dims.items()},
                       {(s, n): _transpose(rows, dims[s]) for s, rows in h0.items()})


def test_a_merged_strand_ends_the_younger_one():
    # a -> e0 and e0, e1 -> f: the strand of a runs from 0 to 2 (Z/8) and
    # e1 dies at once (Z/2); ending the older strand would give Z/4 + Z/4
    chart = column_chart(0, {0: 1, 1: 2, 2: 1}, {0: [1, 0], 1: [0b11]})
    row = ex.assemble_column(chart, 0, True, 4)
    assert (row.free_rank, row.torsion, row.certified) == (0, (8, 2), True)
    assert row.warnings == ("extensions unresolved beyond h0 between summands",)


def test_a_tower_that_runs_off_the_window_is_z():
    # a tower from s = 0 past s_top = 6, joined at s = 2 by a younger
    # class that h0 sends into it: Z + Z/2, not Z/8 + Z
    dims = {s: 1 for s in range(9)} | {2: 2}
    h0 = {s: [1] for s in range(8)} | {1: [1, 0], 2: [0b11]}
    row = ex.assemble_column(column_chart(3, dims, h0), 3, True, 4)
    assert (row.free_rank, row.torsion, row.certified) == (1, (2,), True)
    assert row.warnings == ("tower reaches window boundary (s=6); reported as 2-adic Z",)


def test_a_strand_born_above_the_report_window_is_uncertified():
    # a class born at s = 3 > report_max_s = 2 merges with the strand of
    # the class at s = 0 one filtration up: Z/32 + Z/2 (not Z/16 + Z/4)
    dims = {0: 1, 1: 1, 2: 1, 3: 2, 4: 1}
    h0 = {0: [1], 1: [1], 2: [1, 0], 3: [0b11]}
    row = ex.assemble_column(column_chart(0, dims, h0), 0, True, 2)
    assert (row.free_rank, row.torsion, row.certified) == (0, (32, 2), False)
    assert row.warnings == (
        "1 strand(s) begin above the certified filtration window (s > 2); "
        "their differentials are unchecked",
        "extensions unresolved beyond h0 between summands")


def sweep_pieces(pipeline_cache):
    """("name/k", piece) for each resolved wedge piece of the --through 7 sweep."""
    return [(f"{name}/{k}", p) for name in sp.STRUCTURE_NAMES
            for k, p in enumerate(pipeline_cache(name, 7).pieces) if p.chart is not None]


def test_rank_power_oracle_agrees_with_assemble_groups(pipeline_cache):
    pieces = sweep_pieces(pipeline_cache)
    assert len(pieces) == 16
    for key, p in pieces:
        assert assemble_groups(p.chart, p.certificate) \
            == rank_power_rows(p.chart, p.certificate), key


def test_brute_certificate_agrees_on_every_column_of_the_sweep(pipeline_cache):
    from a1bordism import pipelines as pl

    for key, p in sweep_pieces(pipeline_cache):
        full = collapse_certificate(p.chart, report_max_s=pl.DEFAULT_MAX_S,
                                    max_n=max(n for _, n in p.chart.dims))
        for cert in (p.certificate, full):
            got = brute_certificate(p.chart, pl.DEFAULT_MAX_S, cert.max_n)
            assert got == (cert.certified, cert.threats), (key, cert.max_n)


def test_the_sweep_rows_read_exactly_four_threats(pipeline_cache):
    # the threats behind the uncertified rows PinPlus 3-4, TauMinus 4-5 and PinMinusO2 7
    threats = {(key, threat) for key, p in sweep_pieces(pipeline_cache)
               for threat in p.certificate.threats}
    assert threats == {
        ("PinPlus/0", "d2: (0,4)→(2, 3) not excluded (h0^4 has kernel)"),
        ("TauMinus/0", "d2: (0,5)→(2, 4) not excluded (h0^4 has kernel)"),
        ("PinMinusO2/0", "d2: (1,8)→(3, 7) not excluded (h0^4 has kernel)"),
        ("PinMinusO2/0", "d3: (0,8)→(3, 7) not excluded (h0^5 has kernel)"),
    }


def test_certificate_and_assembly_multiply_and_reduce_no_matrix(monkeypatch, pipeline_cache):
    # the strands are read by one sweep per column: no h0 power is built
    # and no matrix is row-reduced
    from a1bordism.gf2 import BitMatrix

    # the pipeline's chart has swept its columns already: copy it with an
    # empty strands cache so the sweep runs while the kernels are counted
    (c,) = pipeline_charts(pipeline_cache, "FK")
    chart = ex.ExtChart(c.max_s, c.max_t, c.dims, c.h0)
    calls = []
    for method in ("matmul", "rref"):
        original = getattr(BitMatrix, method)

        def counted(self, *args, _name=method, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(BitMatrix, method, counted)
    cert = collapse_certificate(chart, report_max_s=12, max_n=7)
    rows = assemble_groups(chart, cert)
    assert [r.group_str() for r in rows] == ["Z", "0", "Z", "0", "Z^2", "0", "Z^2", "0"]
    assert sorted(chart._strands) == list(range(8))
    assert calls == []


def test_chart_exports():
    chart = f2_chart(max_s=8, max_t=12)
    tsv = chart_tsv(chart, max_n=4, max_s=8)
    assert tsv.splitlines()[0] == "s\tn\tdim\th0rank"
    assert "0\t0\t1\t1" in tsv
    art = chart_ascii(chart, max_n=4, max_s=8)
    assert "|" in art and "." in art


def test_jobs_do_not_change_resolution():
    # --jobs is a no-op; the resolution depends only on the module and the
    # window, so a freshly built copy of the module resolves identically
    r1 = minimal_resolution(sp.named_structure("SpinO2", 16), max_s=8, max_t=12)
    r2 = minimal_resolution(sp.named_structure("SpinO2", 16), max_s=8, max_t=12)
    for s in range(9):
        assert r1.gens(s) == r2.gens(s)
    c1, c2 = ext_chart(r1), ext_chart(r2)
    assert c1.dims == c2.dims and c1.h0 == c2.h0


def pipeline_charts(pipeline_cache, name, through=7):
    # the charts run_pipeline read at this window, one per resolved wedge piece
    return [p.chart for p in pipeline_cache(name, through).pieces if p.chart]


@pytest.mark.parametrize("name", ["SpinO2", "PinPlus"])
def test_h0_rank_equals_the_rank_of_products_from_the_identity(name, pipeline_cache):
    for chart in pipeline_charts(pipeline_cache, name):
        for n in sorted({n for _, n in chart.dims}):
            top = min(chart.max_s, chart.max_t - n)
            for s in range(top + 1):
                want = h0_power_ranks(chart, s, n, top)
                got = [chart.h0_rank(s, n, k) for k in range(top - s + 1)]
                assert got == want, (name, s, n)
                if (s, n) in chart.h0:
                    # stored as the tuple of its dim(s, n) columns
                    cols = chart.h0[(s, n)]
                    assert type(cols) is tuple and len(cols) == chart.dim(s, n)
                    assert all(type(c) is int for c in cols)


def test_free_word_images_equal_products_in_a1():
    from a1bordism.steenrod import WORDS, A1Element, free_bases, free_word_images, words_of_degree

    rng = random.Random(2024)
    for _ in range(30):
        gen_degrees = sorted(rng.randint(0, 8) for _ in range(rng.randint(1, 4)))
        top = max(gen_degrees) + rng.randint(0, 7)  # below + 6 the bases are cut
        fbasis = free_bases(gen_degrees, top)
        gens = [(t, rng.getrandbits(len(fbasis[t]))) for t in rng.choices(sorted(fbasis), k=5)]
        # from below every generator to above some by more than 6, so some
        # generators have no word of degree d - t
        for d in range(gen_degrees[0] - 2, top + 1):
            pos = {bw: p for p, bw in enumerate(fbasis.get(d, ()))}
            want = []
            for t, v in gens:
                for w in words_of_degree(d - t):
                    acc = 0
                    for p, (gi, u) in enumerate(fbasis[t]):
                        if (v >> p) & 1:
                            prod = A1Element.from_word(WORDS[w]) * A1Element(1 << u)
                            for k in range(8):
                                if (prod.bits >> k) & 1:
                                    acc ^= 1 << pos[(gi, k)]
                    want.append(acc)
            assert free_word_images(fbasis, gens, d) == want, (gen_degrees, top, d)


def test_chart_is_immutable():
    dims = {(0, 0): 1, (1, 0): 1}
    h0 = {(0, 0): [1]}
    chart = ex.ExtChart(max_s=4, max_t=4, dims=dims, h0=h0)
    with pytest.raises(AttributeError):
        chart.max_s = 8
    with pytest.raises(AttributeError):
        chart.dims = {}
    with pytest.raises(TypeError):
        chart.h0[(1, 0)] = (1,)
    with pytest.raises(TypeError):
        chart.dims[(2, 0)] = 1
    dims[(2, 0)] = 1  # the chart keeps its own copy of the mappings and columns
    h0[(0, 0)][0] = 0
    del h0[(0, 0)]
    assert chart.dim(2, 0) == 0 and chart.h0[(0, 0)] == (1,) and chart.h0_rank(0, 0, 1) == 1


def resolution_digest(res):
    """SHA-256 of every stage's generator degrees, boundary and augmentation.

    The bytes are those of the layout the digests were recorded in: stage
    0's (degree, vector) pairs as its augmentation, and each later
    boundary as (target generator, word bits) blocks, rebuilt from the
    column ints by ``oracles.boundary_entries``.
    """
    data = [(tuple(st.gen_degrees),
             tuple(tuple(boundary_entries(res, s, i)) for i in range(len(st.boundary)))
             if s else (),
             () if s else tuple(zip(st.gen_degrees, st.boundary)))
            for s, st in enumerate(res.stages)]
    return hashlib.sha256(repr(data).encode()).hexdigest()


# recorded with the resolution that built a kernel module per stage; any
# change to minimal_resolution must reproduce these bytes
RESOLUTION_DIGESTS = {
    "FK/0":
        "3a1174fb6162ec50d68e74c0e10964152ebcfc93a371f0964fec9af35e9fe02a",
    "FKO/0":
        "2592d9b421e425fbb840aed03e21b6ae275cc3b65a6db24c7f13652bac5cb5d3",
    "GM/0":
        "57a276f206fd461679028becefec70ec94d81434ed1e3c8e05f00fa98f120d28",
    "KTminus/0":
        "0546bb27e583f2748d33e7544109129c7b4d2132007cd5d89b464c6ecc93f036",
    "KTplus/0":
        "e856ccbcb828e1f515646a1eec67eb1ee76441c1f4544576fe3206439946e293",
    "SpinO2/0":
        "034b5020977093f5abf4013b5b236290646ef3e2f9125d5cdea9c1b34135f0db",
    "SigmaBO2/0":
        "4b6154c785a85bb7e029282cd4bf788532d4f3fae22e1f3f51ad43148797111c",
    "SigmaBO2/1":
        "1140ac268bf14a44f2708abed58eaf9e1783584f3774667be0394751e090db0f",
    "TauMinus/0":
        "cfe95138f47fc8aad732282818eb142091b39f2bc5fb5d80a5d419b38d99da87",
    "TauMinus/1":
        "38b4d19e309e46fe70427d2af9cae03cf3c4965300197ca8712ab92ba7997ae3",
    "TauPlus/0":
        "f7e47e0d89ca0a1487bf3055cf67b3000d4698a1c38e5c522f3164e9bf25c559",
    "TauPlus/1":
        "d70f0945249d02db753138ace10a4e38b98a89f3d21b55a772430029af896120",
    "PinMinusO2/0":
        "6959f50f9c0b151598940b8ed9788a14cacad53e1699249ad6cc736fdc31019f",
    "PinMinus/0":
        "4b6154c785a85bb7e029282cd4bf788532d4f3fae22e1f3f51ad43148797111c",
    "PinPlus/0":
        "422f604377ebdc3cce45aff1e9b8508ec8867af3db2f5d4c54b61c68ad70a9ab",
    "MV_a_ab/0":
        "b9d1568439ec694740dd072e02496bcdb459a5c939e1c992e869962da84b40e0",
    "F2(16,26)":
        "a4141de4ffb952d678c8e2f5d8871108a1a742be50eeb40c93fc80e27ba04279",
    "Q(4,12)":
        "ef3ec34e1681bbc0ea934a20b91897cc73908168502005b7d81cafac895850c2",
}


def test_resolution_bytes_are_pinned(pipeline_resolutions):
    got = {key: resolution_digest(res) for key, res in pipeline_resolutions.items()}
    got["F2(16,26)"] = resolution_digest(minimal_resolution(md.f2_module(), 16, 26))
    got["Q(4,12)"] = resolution_digest(minimal_resolution(catalog("Q"), 4, 12))
    assert got == RESOLUTION_DIGESTS


def test_pipeline_resolutions_are_exact_and_minimal(pipeline_resolutions):
    assert len(pipeline_resolutions) == 16
    for key, res in pipeline_resolutions.items():
        verify_resolution(res)
        check_exact(res)


def test_resolution_equals_the_reference_generator_rule(monkeypatch):
    # every resolution run_pipeline builds, on every structure at through
    # 0-7 and max_s 6 and 12, against the rule that solves the
    # decomposables in kernel coordinates and takes their complement
    built = []

    def spy(M, max_s, max_t):
        built.append((M, max_s, max_t, resolve(M, max_s, max_t)))
        return built[-1][-1]

    resolve = ex.minimal_resolution
    monkeypatch.setattr(ex, "minimal_resolution", spy)
    for name in sp.STRUCTURE_NAMES:
        for through in range(8):
            for max_s in (6, 12):
                pl.run_pipeline(name, through, max_s)
    assert len(built) == 256
    for M, max_s, max_t, res in built:
        assert [(st.gen_degrees, st.boundary) for st in res.stages] == \
            reference_resolution(M, max_s, max_t), (M.name, max_s, max_t)


def generated_submodule(M, gens):
    """The submodule of M generated by the (degree, vector) pairs gens."""
    span = {}
    todo = list(gens)
    while todo:
        d, v = todo.pop()
        if v and v not in ColumnSolver(span.get(d, [])):
            span.setdefault(d, []).append(v)
            todo += [(d + k, M.apply_word(str(k), d, [v])[0]) for k in (1, 2) if M.dim(d + k)]
    return M.submodule(span)[0]


def test_resolution_equals_the_reference_on_submodules_of_free_modules():
    # A kernel vector is a generator when no decomposable has it as its
    # lowest kernel coordinate.  On the pipelines' modules the highest
    # coordinate picks the same vectors; on some of these it does not.
    rng = random.Random(36)
    for _ in range(100):
        M = free_module()
        for _ in range(rng.randint(1, 2)):
            M = M.direct_sum(free_module().suspend(rng.randint(0, 3)))
        gens = [(d, rng.getrandbits(M.dim(d)))
                for d in rng.choices(M.degrees(), k=rng.randint(1, 4))]
        S = generated_submodule(M, gens)
        res = minimal_resolution(S, max_s=6, max_t=14)
        assert [(st.gen_degrees, st.boundary) for st in res.stages] == \
            reference_resolution(S, max_s=6, max_t=14), gens


def not_an_a1_module(second_generator: bool) -> md.GradedA1Module:
    """x0 with Sq2 x0 = 0 but Sq1 Sq2 Sq1 x0 = u4 ≠ 0, so Sq2 Sq2 ≠ Sq1 Sq2 Sq1.

    Sq2 of the kernel vector Sq2 on x0's generator is Sq1 Sq2 Sq1 there,
    which is not in the kernel.  With a second generator h2 (Sq1 h2 =
    Sq2 h2 = 0) the kernel in degree 4 is Sq2 on h2's generator; without
    it, the kernel in degree 4 is 0.
    """
    dims = {0: 1, 1: 1, 2: 1 if second_generator else 0, 3: 1, 4: 1}
    sq1 = {0: [1], 3: [1]} | ({2: [0]} if second_generator else {})
    sq2 = {1: [1]} | ({2: [0]} if second_generator else {})
    return md.GradedA1Module(dims, sq1, sq2, hi=4, complete=True, name="bad")


@pytest.mark.parametrize("second_generator", [True, False])
def test_sq_images_outside_the_kernel_are_an_invariant_error(second_generator):
    bad = not_an_a1_module(second_generator)
    assert bad.validate() is not None
    with pytest.raises(InvariantError, match="kernel not closed under the action"):
        minimal_resolution(bad, max_s=2, max_t=8)
    if second_generator:
        # the reference rule sees it only where the kernel is not 0
        with pytest.raises(InvariantError, match="kernel not closed under the action"):
            reference_resolution(bad, max_s=2, max_t=8)


def with_column(res, s, i, v):
    """A copy of res whose stage-s boundary column of generator i is v."""
    stage = res.stages[s]
    bad = stage._replace(boundary=stage.boundary[:i] + [v] + stage.boundary[i + 1:])
    return res._replace(stages=res.stages[:s] + [bad] + res.stages[s + 1:])


@pytest.mark.parametrize("name, s, i, gi, old, new, message", [
    # Sq2Sq1 is not zero on J's generator, Sq1Sq2 is
    ("J", 1, 0, 0, "12", "21", "d∘d ≠ 0 at stage 1, generator 0"),
    # d of generator 2 is Sq1Sq2 on one generator plus Sq2 on the next;
    # their Sq1Sq2Sq1 terms cancel, which Sq2Sq1Sq1 = 0 does not
    ("Q", 3, 2, 1, "12", "21", "d∘d ≠ 0 at stage 3, generator 2"),
    # stage-4 generator 1 and stage-3 generator 2 both sit in degree 10
    ("J", 4, 1, 2, None, "", "non-minimal boundary at stage 4"),
])
def test_verify_resolution_rejects_a_corrupted_boundary(name, s, i, gi, old, new, message):
    # the block of stage s's generator i on target generator gi, exactly
    # the word old (None: no word), changed to another word of its degree,
    # or to the unit
    res = minimal_resolution(catalog(name), max_s=4, max_t=12)
    verify_resolution(res)
    t, v = res.stages[s].gen_degrees[i], res.stages[s].boundary[i]
    pos = free_degree_basis(res.stages[s - 1].gen_degrees, t)
    assert dict(boundary_entries(res, s, i)).get(gi, 0) == (0 if old is None else 1 << WORD_INDEX[old])
    if old is not None:
        v ^= 1 << pos[(gi, WORD_INDEX[old])]
    v ^= 1 << pos[(gi, WORD_INDEX[new])]
    with pytest.raises(InvariantError, match=message):
        verify_resolution(with_column(res, s, i, v))


@pytest.mark.parametrize("s, i, message", [
    (0, 0, "boundary of stage 0, generator 0 lies outside degree 0 of M"),
    (2, 1, "boundary of stage 2, generator 1 lies outside degree 6 of F_1"),
])
def test_verify_resolution_rejects_a_boundary_bit_outside_its_target(s, i, message):
    # one bit just past the target's degree-t basis: M_t at stage 0, F_{s-1} after
    res = minimal_resolution(catalog("Q"), max_s=4, max_t=12)
    t, v = res.stages[s].gen_degrees[i], res.stages[s].boundary[i]
    width = (res.module.dim(t) if s == 0
             else len(free_degree_basis(res.stages[s - 1].gen_degrees, t)))
    with pytest.raises(InvariantError, match=message):
        verify_resolution(with_column(res, s, i, v | 1 << width))


def test_verify_resolution_rejects_a_zero_boundary_column():
    # a generator sent to 0 is never minimal: Q's stage-0 generator with its
    # column zeroed, and a degree-7 generator with column 0 appended to stage
    # 1 (F_0 has no basis in degree 7, so stage 2's d∘d cannot be formed)
    res = minimal_resolution(catalog("Q"), max_s=4, max_t=12)
    with pytest.raises(InvariantError, match="boundary of stage 0, generator 0 is zero"):
        verify_resolution(with_column(res, 0, 0, 0))
    st = res.stages[1]
    extra = ex.ResolutionStage(st.gen_degrees + [7], st.boundary + [0])
    broken = res._replace(stages=res.stages[:1] + [extra] + res.stages[2:])
    with pytest.raises(InvariantError,
                       match=f"boundary of stage 1, generator {len(st.gen_degrees)} is zero"):
        verify_resolution(broken)


def test_h0_read_by_slot_offset_equals_the_decoded_sq1_blocks(pipeline_resolutions):
    resolutions = dict(pipeline_resolutions)
    resolutions["F2(16,26)"] = minimal_resolution(md.f2_module(), 16, 26)
    resolutions["Q(4,12)"] = minimal_resolution(catalog("Q"), 4, 12)
    for key, res in resolutions.items():
        assert dict(ext_chart(res).h0) == decoded_h0(res), key
    # negative control: one Sq1 bit flipped, on the last target of the
    # widest h0 map of GM, from its last source generator
    res = pipeline_resolutions["GM/0"]
    chart = ext_chart(res)
    (s, n) = max(chart.h0, key=lambda k: (len(chart.h0[k]) * chart.dim(k[0] + 1, k[1]), k))
    i = max(i for i, t in enumerate(res.stages[s + 1].gen_degrees) if t == s + 1 + n)
    j = max(j for j, t in enumerate(res.stages[s].gen_degrees) if t == s + n)
    bit = 1 << free_degree_basis(res.stages[s].gen_degrees, s + 1 + n)[(j, WORD_INDEX["1"])]
    broken = with_column(res, s + 1, i, res.stages[s + 1].boundary[i] ^ bit)
    assert decoded_h0(broken) != dict(chart.h0)
    assert dict(ext_chart(broken).h0) == decoded_h0(broken)


def test_free_degree_basis_enumerates_in_free_bases_order():
    # the oracle decodes boundary columns by this order
    rng = random.Random(2028)
    for _ in range(30):
        gen_degrees = sorted(rng.randint(0, 10) for _ in range(rng.randint(1, 6)))
        top = gen_degrees[-1] + TOP_DEGREE
        fbasis = free_bases(gen_degrees, top)
        for t in range(gen_degrees[0] - 1, top + 2):
            assert free_degree_basis(gen_degrees, t) == \
                {pair: k for k, pair in enumerate(fbasis.get(t, ()))}, (gen_degrees, t)


def test_exactness_check_catches_a_missing_generator(pipeline_resolutions):
    # dropping GM's last stage-3 generator (t = 23) keeps d∘d = 0 and
    # minimality, so only the rank counts see it
    res = pipeline_resolutions["GM/0"]
    st = res.stages[3]
    cut = ex.ResolutionStage(st.gen_degrees[:-1], st.boundary[:-1])
    broken = res._replace(stages=res.stages[:3] + [cut] + res.stages[4:])
    verify_resolution(broken)
    with pytest.raises(AssertionError, match="not exact at s=2, t=23"):
        check_exact(broken)
