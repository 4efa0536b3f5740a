from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from a1bordism import cli
from a1bordism import modules as md
from a1bordism import spaces as sp
from a1bordism.les import LESError, parse_les
from a1bordism.modules import ModuleError, format_a1mod, parse_a1mod
from a1bordism.spaces import parse_space


def test_a1mod_roundtrip_catalog():
    for name in ("J", "Q", "M0", "M1", "R2"):
        m = md.catalog(name)
        text = format_a1mod(m)
        back = parse_a1mod(text)
        assert {d: back.dim(d) for d in back.degrees()} == m.dims
        for d in m.degrees():
            assert back.sq(1, d) == m.sq(1, d)
            assert back.sq(2, d) == m.sq(2, d)


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
    assert m.sq1[0] == (1,)


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


A1MOD_PAIR = "MODULE m\nDEG 0: a\nDEG 1: b c\nDEG 2: e\nSQ1 a -> b\nSQ2 a -> e\n"


@pytest.mark.parametrize("extra, line, first, key", [
    ("SQ1 a -> c\n", 7, 5, "SQ1 a"),
    ("SQ2 a -> e\n", 7, 6, "SQ2 a"),
    ("TRUNCATE 2\nTRUNCATE 3\n", 8, 7, "TRUNCATE"),
])
def test_a1mod_refuses_a_repeated_directive(extra, line, first, key):
    # the second line used to replace the first: Sq1 a = c, or TRUNCATE 3
    with pytest.raises(ModuleError, match=rf"^line {line}: duplicate {key} \(first on line {first}\)$"):
        parse_a1mod(A1MOD_PAIR + extra)


def test_a1mod_refuses_a_second_module_line():
    # the second name used to win and was printed by the module verb
    with pytest.raises(ModuleError, match=r"^line 2: duplicate MODULE \(first on line 1\)$"):
        parse_a1mod("MODULE a\nMODULE b\nDEG 0: x\n")


@pytest.mark.parametrize("label", ["+", "->"])
def test_a1mod_refuses_an_operator_as_a_label(label):
    # a target "+" was dropped, so SQ1 a -> + gave Sq1 a = 0
    with pytest.raises(ModuleError, match=r"^line 3: .* cannot be a label$"):
        parse_a1mod(f"MODULE m\nDEG 0: a\nDEG 1: {label}\nSQ1 a -> {label}\n")


SPACE_BO2 = ("SPACE s\nGEN w1 DEG 1\nGEN w2 DEG 2\nSQ w1 = w1 + w1^2\nSQ w2 = w2 + w1*w2 + w2^2\n"
             "CUTOFF 8\nTWIST A = w1\nTWIST B = w2\nSHIFT 1\n")


@pytest.mark.parametrize("extra, first, key", [
    # both SQ lines are valid; the second used to win
    ("SQ w2 = w2 + w2^2\n", 5, "SQ w2"),
    ("CUTOFF 6\n", 6, "CUTOFF"),
    ("TWIST A = 0\n", 7, "TWIST A"),
    ("TWIST B = 0\n", 8, "TWIST B"),
    ("SHIFT 2\n", 9, "SHIFT"),
])
def test_space_refuses_a_repeated_directive(extra, first, key):
    # either line alone is accepted
    parse_space(SPACE_BO2)
    parse_space(SPACE_BO2.replace(SPACE_BO2.splitlines()[first - 1], extra.strip()))
    with pytest.raises(ValueError, match=rf"^line 10: duplicate {key} \(first on line {first}\)$"):
        parse_space(SPACE_BO2 + extra)


def test_space_refuses_a_second_space_line():
    with pytest.raises(ValueError, match=r"^line 10: duplicate SPACE \(first on line 1\)$"):
        parse_space(SPACE_BO2 + "SPACE t\n")


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
        assert tw.sq(1, d) == pm.sq(1, d)
        assert tw.sq(2, d) == pm.sq(2, d)


def test_space_format_builds_one_ring(monkeypatch):
    # the SQ lines are parsed in the ring parse_space returns, not in a throwaway one
    built = []
    init = sp.SpacePresentation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.SpacePresentation, "__init__", counting)
    pres, *_ = parse_space(SPACE_BO2)
    assert built == [pres]
    assert pres.total_sq == {"w1": pres.parse_poly("w1 + w1^2"),
                             "w2": pres.parse_poly("w2 + w1*w2 + w2^2")}


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
LES_TAIL = "SLOT 1 X = ?\nSLOT 2 B = Z/4\n"
LES_OK = "LES p\nSLOT 0 A = 0\n" + LES_TAIL
VERB = {".a1mod": "module", ".space": "module", ".les": "les"}


def test_les_refuses_a_second_les_line():
    # the second name used to win and was printed by the les verb
    with pytest.raises(LESError, match=r"^line 3: duplicate LES \(first on line 1\)$"):
        parse_les(LES_OK.replace("SLOT 1", "LES q\nSLOT 1"))


@pytest.mark.parametrize("suffix, text, line", [
    (".a1mod", "MODULE m\nDEG 0: a\nTRUNCATE\n", 3),
    (".a1mod", "MODULE m\nDEG 0: a\nTRUNCATE x\n", 3),
    (".space", "SPACE s\nGEN t DEG x\nSQ t = t + t^2\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t DEG 1 NILPOTENT x\nSQ t = t + t^2\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t DEG 1 NILPOTENT\nSQ t = t + t^2\nCUTOFF 8\n", 2),
    # each directive has its exact token count: a trailing token is refused
    (".space", "SPACE s\nGEN t DEG 1 NILPOTENT 2 7\nSQ t = t + t^2\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t DEG 1 DEG 2\nSQ t = t + t^2\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^2\nCUTOFF\n", 4),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^2\nCUTOFF x\n", 4),
    (".space", SPACE_OK + "SHIFT x\n", 5),
    (".space", SPACE_OK + "TWIST A\n", 5),
    (".space", SPACE_OK + "TWIST\n", 5),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + u^2\nCUTOFF 8\n", 3),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^x\nCUTOFF 8\n", 3),
    # a degree no SQ line touches is blamed on the DEG line that introduced it
    (".a1mod", "MODULE m\nDEG 0: a\nDEG 3: b\nTRUNCATE 1\n", 3),
    (".a1mod", "MODULE m\nDEG 0: a\nDEG 1: b\nSQ1 a -> b\nTRUNCATE 0\n", 3),
    # twist classes are checked at parse time, on their TWIST line
    (".space", SPACE_OK + "TWIST A = q\n", 5),
    (".space", SPACE_OK + "TWIST B = t\n", 5),
    (".space", SPACE_OK + "TWIST A = t + t^2\n", 5),
    (".space", SPACE_OK + "TWIST A = t^x\n", 5),
    (".space", SPACE_OK + "TWIST A = t^\n", 5),
    (".space", SPACE_OK + "TWIST A = t^2^3\n", 5),
    # a missing SQ line is blamed on the GEN line, a missing CUTOFF on the last line
    (".space", "SPACE s\nGEN t DEG 1\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^2\n", 3),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^3\nCUTOFF 6\n", 3),
    (".space", "SPACE s\nGEN t DEG 1\nGEN t DEG 2\nSQ t = t + t^2\nCUTOFF 8\n", 3),
    (".space", "SPACE s\nGEN t DEG 0\nSQ t = t\nCUTOFF 8\n", 2),
    (".space", "SPACE s\nGEN t^2 DEG 1\nSQ t = t\nCUTOFF 8\n", 2),
    (".space", SPACE_OK + "SQ u = t\n", 5),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^-1\nCUTOFF 8\n", 3),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + 1\nCUTOFF 8\n", 3),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t^2\nCUTOFF 8\n", 3),
    (".space", "SPACE s\nGEN t DEG 1\nSQ t = t + t^2\nCUTOFF -1\n", 4),
    # LES problems: malformed slots, maps and groups on their own line
    (".les", "LES p\nSLOT x A = 0\n" + LES_TAIL, 2),
    (".les", LES_OK + "MAP x -> 1 = zero\n", 5),
    (".les", LES_OK + "MAP 0 -> 1\n", 5),
    (".les", LES_OK + "MAP 0 -> 2 = zero\n", 5),
    (".les", "LES p\nSLOT 0 A = Q\n" + LES_TAIL, 2),
    (".les", "LES p\nSLOT 0 A = ?expx\n" + LES_TAIL, 2),
    (".les", "LES p\nSLOT 0 A = (Z/2)^x\n" + LES_TAIL, 2),
    (".les", "LES p\nSLOT 0 A = Z/6\n" + LES_TAIL, 2),
    (".les", "LES p\nSLOT 0 A\n" + LES_TAIL, 2),
    (".les", "LES p\nBOGUS\n", 2),
    # a duplicate SLOT or MAP is refused on its line, not silently overwritten
    (".les", LES_OK + "SLOT 1 Y = 0\n", 5),
    (".les", LES_OK + "MAP 0 -> 1 = zero\nMAP 0 -> 1 = iso\n", 6),
    # checks of the whole problem name the line they are about
    (".les", "LES p\n\n", 2),
    (".les", "LES p\nSLOT 0 A = 0\nSLOT 2 B = 0\nSLOT 3 C = 0\n", 3),
    (".les", LES_OK + "MAP 0 -> 1 = monic\n", 5),
    (".les", LES_OK + "MAP 2 -> 3 = zero\n", 5),
    (".les", "LES p\nSLOT 0 A = 0\nSLOT 1 B = 0\n# end\n", 4),
])
def test_malformed_file_gets_line_numbered_error(tmp_path, suffix, text, line):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    out, code = cli.run([VERB[suffix], str(path)])
    assert code == 1
    assert out.startswith(f"error: line {line}: "), out


@pytest.mark.parametrize("factor", ["t^x", "t^", "t^2^3", "t^1_0", "t^-"])
def test_malformed_exponent_is_refused_by_its_factor(tmp_path, factor):
    # the refusal names the factor; an exponent is ASCII digits, so "t^1_0" is not t^10
    path = tmp_path / "bad.space"
    for text, line, where in ((SPACE_OK + f"TWIST A = {factor}\n", 5, "TWIST A: "),
                              (SPACE_OK.replace("t + t^2", f"t + {factor}"), 3, "")):
        path.write_text(text)
        assert cli.run(["module", str(path)]) == (
            f"error: line {line}: {where}invalid exponent in {factor!r}\n", 1)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_example(keyword: str) -> str:
    """The code block of README's "File formats" section starting with ``keyword``."""
    section = README.read_text().split("## File formats", 1)[1]
    for block in section.split("```")[1::2]:
        if block.strip().startswith(keyword):
            return block.strip() + "\n"
    raise AssertionError(f"README has no {keyword} example")


@pytest.mark.parametrize("suffix, keyword, directive", [
    (".a1mod", "MODULE", "TRUNCATE"),
    (".space", "SPACE", "GEN"),
    (".space", "SPACE", "CUTOFF"),
    (".space", "SPACE", "SHIFT"),
])
def test_readme_example_line_with_a_trailing_token_is_refused(tmp_path, suffix, keyword, directive):
    lines = readme_example(keyword).splitlines()
    (ln,) = [i for i, line in enumerate(lines, start=1) if line.split()[0] == directive]
    lines[ln - 1] += " 7"
    path = tmp_path / f"junk{suffix}"
    path.write_text("\n".join(lines) + "\n")
    out, code = cli.run([VERB[suffix], str(path)])
    assert code == 1
    assert out.startswith(f"error: line {ln}: {directive} <"), out


JUNK = ["", "x", "0", "1", "-1", "2", "7", "30", "#", ":", "->", "+", "=", "^", "*",
        "t^2", "t^-1", "a", "b", "DEG", "SQ1", "SQ2", "NILPOTENT", "TWIST", "A", "U"]


def mutate(text: str, rng: random.Random) -> str:
    """Delete, duplicate or swap lines, or corrupt one token, one to three times."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "duplicate", "swap", "token", "token"))
        i = rng.randrange(len(lines)) if lines else 0
        if op == "delete" and lines:
            del lines[i]
        elif op == "duplicate" and lines:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == "swap" and len(lines) > 1:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif lines:
            tokens = lines[i].split()
            if tokens:
                k = rng.randrange(len(tokens))
                pool = JUNK + [t for line in lines for t in line.split()]
                tokens[k] = rng.choice(pool)
                lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("suffix, keyword",
                         [(".a1mod", "MODULE"), (".space", "SPACE"), (".les", "LES")])
def test_fuzzed_readme_examples_are_rejected_with_a_line_or_valid(tmp_path, suffix, keyword):
    """A module that is accepted validates; an LES problem that is accepted
    is solved, with or without a contradiction (exit 0 or 2)."""
    original = readme_example(keyword)
    rng = random.Random(f"fuzz{suffix}")
    path = tmp_path / f"fuzz{suffix}"
    outcomes = {"accepted": 0, "rejected": 0}
    for _ in range(300):
        text = mutate(original, rng)
        path.write_text(text)
        out, code = cli.run([VERB[suffix], str(path)])
        if code != 1:
            outcomes["accepted"] += 1
            if suffix == ".les":
                assert code in (0, 2), (text, out)
            else:
                assert code == 0, (text, out)
                assert cli._structure_module(str(path), 12).validate() is None, text
        else:
            outcomes["rejected"] += 1
            assert re.match(r"error: line [1-9][0-9]*: ", out), (text, out)
    # both branches are exercised
    assert min(outcomes.values()) >= 30, outcomes
