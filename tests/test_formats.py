from __future__ import annotations

import pytest

from a1bordism import cli
from a1bordism import modules as md
from a1bordism import spaces as sp
from a1bordism.modules import ModuleError, format_a1mod, parse_a1mod
from a1bordism.spaces import parse_space


def test_a1mod_roundtrip_catalog():
    for name in ("J", "Q", "M0", "M1", "R2"):
        m = md.catalog(name)
        text = format_a1mod(m)
        back = parse_a1mod(text)
        assert {d: back.dim(d) for d in back.degrees()} == m.dims
        for d in m.degrees():
            assert back.sq1_map(d) == m.sq1_map(d)
            assert back.sq2_map(d) == m.sq2_map(d)


def test_a1mod_example_text():
    text = """
    MODULE pair
    DEG 0: a
    DEG 1: b
    SQ1 a -> b
    TRUNCATE 1
    """
    m = parse_a1mod(text)
    assert m.name == "pair"
    assert m.dims == {0: 1, 1: 1}
    assert m.sq1_map(0).rows == (1,)


def test_a1mod_rejects_relation_violation_with_line():
    text = """MODULE bad
DEG 0: a
DEG 1: b
DEG 2: c
SQ1 a -> b
SQ1 b -> c
TRUNCATE 2
"""
    with pytest.raises(ModuleError, match=r"line \d+.*Sq1"):
        parse_a1mod(text)


def test_a1mod_rejects_unknown_label():
    with pytest.raises(ModuleError, match="line 3"):
        parse_a1mod("MODULE m\nDEG 0: a\nSQ1 a -> zz\nTRUNCATE 1")


def test_a1mod_rejects_wrong_degree_step():
    text = "MODULE m\nDEG 0: a\nDEG 3: b\nSQ1 a -> b\nTRUNCATE 3"
    with pytest.raises(ModuleError, match="raise degree by 1"):
        parse_a1mod(text)


def test_a1mod_rejects_duplicate_labels():
    with pytest.raises(ModuleError, match="duplicate"):
        parse_a1mod("MODULE m\nDEG 0: a\nDEG 1: a\nTRUNCATE 1")


def test_space_format_parse_and_twist():
    text = """
    SPACE halfplane
    GEN t DEG 1
    SQ t = t + t^2
    CUTOFF 8
    TWIST A = t
    TWIST B = 0
    SHIFT 0
    """
    pres, a, b, shift = parse_space(text)
    assert pres.name == "halfplane"
    assert a == "t" and b == "0" and shift == 0
    tw = sp.twist(pres, a, b)
    pm = md.pin_minus_cell(8)
    for d in range(8):
        assert tw.sq1_map(d) == pm.sq1_map(d)
        assert tw.sq2_map(d) == pm.sq2_map(d)


def test_space_format_rejects_bad_sq():
    # Sq t = t + t^3 is not a valid total operation (wrong instability)
    text = """
    SPACE broken
    GEN t DEG 1
    SQ t = t + t^3
    CUTOFF 6
    """
    with pytest.raises(ValueError, match="relations"):
        parse_space(text)


def test_space_format_requires_cutoff_and_sq():
    with pytest.raises(ValueError, match="CUTOFF"):
        parse_space("SPACE x\nGEN t DEG 1\nSQ t = t + t^2")
    with pytest.raises(ValueError, match="missing SQ"):
        parse_space("SPACE x\nGEN t DEG 1\nCUTOFF 4")


SPACE_OK = "SPACE s\nGEN t DEG 1\nSQ t = t + t^2\nCUTOFF 8\n"


@pytest.mark.parametrize("suffix, text, line", [
    (".a1mod", "MODULE m\nDEG 0: a\nTRUNCATE\n", 3),
    (".a1mod", "MODULE m\nDEG 0: a\nTRUNCATE x\n", 3),
    (".space", "SPACE s\nGEN t DEG x\nSQ t = t + t^2\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t DEG 1 NILPOTENT x\nSQ t = t + t^2\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t DEG 1 NILPOTENT\nSQ t = t + t^2\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^2\nCUTOFF\n", 4),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^2\nCUTOFF x\n", 4),
    (".space", SPACE_OK + "SHIFT x\n", 5),
    (".space", SPACE_OK + "TWIST A\n", 5),
    (".space", SPACE_OK + "TWIST\n", 5),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + u^2\nCUTOFF 8\n", 3),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^x\nCUTOFF 8\n", 3),
])
def test_malformed_file_gets_line_numbered_error(tmp_path, suffix, text, line):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    out, code = cli.run(["module", str(path)])
    assert code == 1
    assert out.startswith(f"error: line {line}: "), out
