from __future__ import annotations

import hashlib
import shlex
from pathlib import Path

import pytest

from a1bordism import cli
from a1bordism import modules as md
from a1bordism import spaces as sp

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    return cli.run(argv)


def test_list_verb():
    text, code = run(["list"])
    assert code == 0
    assert "GM" in text and "KZ2_2" in text and "kt-minus" in text


def test_unknown_verb_usage_error():
    _, code = run(["frobnicate"])
    assert code == 1


def test_module_verb_roundtrip():
    text, code = run(["module", "J", "--cutoff", "6"])
    assert code == 0
    from a1bordism.modules import parse_a1mod

    m = parse_a1mod(text)
    assert [m.dim(d) for d in range(5)] == [1, 1, 1, 1, 1]


def test_module_unknown_name():
    text, code = run(["module", "nonsense"])
    assert code == 1
    assert "error" in text


def test_ext_ascii_f2_has_h0_tower():
    text, code = run(["ext", "F2", "--max-n", "4", "--max-s", "8"])
    assert code == 0
    lines = text.splitlines()
    assert sum(1 for ln in lines if "|." in ln) >= 7  # the h0 tower at n = 0


def test_ext_tsv_format():
    text, code = run(["ext", "F2", "--max-n", "2", "--max-s", "4", "--format", "tsv"])
    assert code == 0
    assert text.splitlines()[0] == "s\tn\tdim\th0rank"


def test_bordism_tsv_gm():
    text, code = run(["bordism", "GM", "--through", "4", "--max-s", "8", "--format", "tsv"])
    assert code == 0
    rows = [ln.split("\t")[:2] for ln in text.splitlines()[1:]]
    assert rows == [["0", "Z"], ["1", "0"], ["2", "0"], ["3", "0"], ["4", "Z^2"]]


def test_bordism_refusal_exit_code():
    text, code = run(["bordism", "GM", "--through", "9"])
    assert code == 1
    assert "connectivity" in text


def test_decompose_verb():
    text, code = run(["decompose", "SpinO2", "--through", "6"])
    assert code == 0
    assert "R2" in text and "Q suspended by 4" in text


def test_les_verb_and_contradiction_exit():
    text, code = run(["les", "gm"])
    assert code == 0
    assert "pi4 = Z + Z/2" in text
    text, code = run(["les", "gm-nonexact"])
    assert code == 2
    assert "CONTRADICTION" in text


def test_les_problem_file(tmp_path):
    f = tmp_path / "p.les"
    f.write_text("LES file-demo\nSLOT 0 A = 0\nSLOT 1 X = ?\nSLOT 2 B = 0\n")
    text, code = run(["les", str(f)])
    assert code == 0
    assert "X = 0" in text


def test_module_and_ext_from_files(tmp_path):
    f = tmp_path / "pair.a1mod"
    f.write_text("MODULE pair\nDEG 0: a\nDEG 1: b\nSQ1 a -> b\nTRUNCATE 1\n")
    text, code = run(["module", str(f)])
    assert code == 0 and "SQ1 a -> b" in text
    g = tmp_path / "halfplane.space"
    g.write_text("SPACE halfplane\nGEN t DEG 1\nSQ t = t + t^2\n"
                 "CUTOFF 14\nTWIST A = t\nTWIST B = 0\nSHIFT 0\n")
    text, code = run(["ext", str(g), "--max-n", "2", "--max-s", "6", "--format", "tsv"])
    assert code == 0
    # the pin- cell chart: Z/8 strand in stem 2
    assert "0\t2\t1\t1" in text
    text, code = run(["module", str(g)])
    assert code == 0 and text.startswith("MODULE")


def test_obstruction_verbs():
    text, code = run(["obstruction", "one-form"])
    assert code == 0
    assert "Sq2Sq1 B" in text and "WuManifold" in text
    text, code = run(["obstruction", "two-form"])
    assert code == 0
    assert "injective" in text
    text, code = run(["obstruction", "evaluate", "--space", "WuManifold",
                      "--word", "21", "--generator", "z2"])
    assert code == 0
    assert "z2*z3" in text and "nonzero" in text
    text, code = run(["obstruction", "two-form", "--format", "tsv"])
    assert code == 0
    assert text.splitlines()[0] == "degree\tclass\tpullback\tverdict"


def test_byte_identical_across_jobs():
    # criterion: identical output for --jobs 1 and --jobs 8
    cases = [
        ["bordism", "SpinO2", "--through", "4", "--max-s", "8", "--format", "tsv"],
        ["ext", "SpinO2", "--max-n", "4", "--max-s", "8", "--format", "tsv"],
        ["bordism", "FKO", "--through", "4", "--max-s", "8"],
    ]
    for argv in cases:
        t1, c1 = run(["--jobs", "1"] + argv)
        t8, c8 = run(["--jobs", "8"] + argv)
        assert c1 == c8
        assert t1.encode() == t8.encode(), argv


def test_repeated_runs_byte_identical():
    a, _ = run(["bordism", "FK", "--through", "4", "--max-s", "8", "--format", "tsv"])
    b, _ = run(["bordism", "FK", "--through", "4", "--max-s", "8", "--format", "tsv"])
    assert a == b


def readme_command_lines():
    """The ``a1bordism ...`` lines of README's "Command line" code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.strip().startswith("a1bordism ")]


def test_readme_command_lines_parse():
    # a documented flag the parser no longer knows fails here
    lines = readme_command_lines()
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}")


def test_failed_internal_invariant_is_undecided_not_usage(monkeypatch):
    # a broken invariant is exit 2 ("undecided"), never exit 1 ("argument error")
    from a1bordism import ext as ext_mod

    class NeverSolves(ext_mod.ColumnSolver):
        def solve(self, w):
            return None

    monkeypatch.setattr(ext_mod, "ColumnSolver", NeverSolves)
    text, code = run(["ext", "F2", "--max-n", "2", "--max-s", "2"])
    assert code == 2
    assert text == "error: undecided: internal invariant failed: kernel not closed under the action\n"
    monkeypatch.undo()

    # split_free's freeness check, reached before any catalog module is built
    monkeypatch.setattr(md, "span_rref", lambda vecs, n: ((), ()))
    text, code = run(["decompose", "SpinO2", "--through", "6"])
    assert code == 2
    assert text.startswith("error: undecided: internal invariant failed: "
                           "top class nonzero but cyclic module not free")


@pytest.mark.parametrize("argv, arg, value", [
    (["bordism", "SpinO2", "--through", "-1"], "through_degree", "-1"),
    (["bordism", "SpinO2", "--max-s", "-1"], "max_s", "-1"),
    (["ext", "SpinO2", "--max-s", "-1"], "--max-s", "-1"),
    (["ext", "SpinO2", "--max-n", "-2"], "--max-n", "-2"),
    (["decompose", "SpinO2", "--through", "-1"], "through_degree", "-1"),
])
def test_negative_window_argument_is_a_usage_error(argv, arg, value):
    text, code = run(argv)
    assert code == 1
    assert text == f"error: {arg} must be nonnegative, got {value}\n"


# recorded with every module built to cutoff max_n + max_s + 6; "name@n/s"
# is the SHA-256 of the exit code and stdout of
# `ext name --max-n n --max-s s --format tsv`
EXT_TSV_DIGESTS = {
    "FK@7/8": "9390e2b0792fcf7e0bac176c0ba5c281049143cc2cc1e6a9dd5c200b6db818dd",
    "FK@10/6": "7ecac98f2126e934fc621f971d4c05a0700ef056dffd9d986a7c0a0c36546ed8",
    "FKO@7/8": "cb414a1431c4655d532a0b13936bcc8c81e486ecb02b4373a578159872579440",
    "FKO@10/6": "9b3dd15b18873a9420b5b2a6afc8078b42f5b7aaa483bd87b74eb6fca72b18d7",
    "GM@7/8": "7f5883286ed6155d50b129c529f5a665b5f12263540d16e58481d9947ed51193",
    "GM@10/6": "908cb4486b14b7645fb76f6f22bf1956dd8e8c46b3d94a4a292981a4f4a72223",
    "KTminus@7/8": "fb69da85a3713392b0d70e4ec45f196f9ebda29721164393e4fc2019b23bcc2d",
    "KTminus@10/6": "8736e963bc1cdfaf0cfbfb4b9edc7f706354753cd3e840b47a86f2b773cd0f73",
    "KTplus@7/8": "fb69da85a3713392b0d70e4ec45f196f9ebda29721164393e4fc2019b23bcc2d",
    "KTplus@10/6": "5387aee025dce1a6b1957295f0d0bd4e4d1301bf41161508d244a0299129af23",
    "SpinO2@7/8": "8307d1de8f76a851e1b21356ba4044544edb353884a0c57d4d7cd587061e2a05",
    "SpinO2@10/6": "5b95d881f77e47df41bdbbbc75423e33a659f02e42e0f71bd5d74b8b90d7fb70",
    "SigmaBO2@7/8": "5047adef6fa0c20e2d383e854ecfc43f98b5cf914164f92ba080a63df522e2bb",
    "SigmaBO2@10/6": "32fc69a6a022f52110feb46cb643637c9d4b6d958d35958526c069737fd16f02",
    "TauMinus@7/8": "22ffcbff223ca44cc2275e01b8137d57484c0f91a9895467f6c020e6ef91e258",
    "TauMinus@10/6": "e5419f00847819aaed2d62fc92f07f10625062468830704a02e9f7de5d577420",
    "TauPlus@7/8": "9e57520d58128bedf4bf2d8164129de616e0e1b1bd561664dc1719dfa140c85f",
    "TauPlus@10/6": "36fadf792b3a33bd665da08064f163a0a4c9e56b99741b307c497543af99c618",
    "PinMinusO2@7/8": "d4f338c96a0eac200fd734404f5e21052af87eaecc1749b8fe7f261a9ddac7ef",
    "PinMinusO2@10/6": "0d4509b5c7d53d4153d70b623a40cfc002e581c87353f73d53033a8ad488d897",
    "PinMinus@7/8": "e696556abff7bd9053dd1f332b5f0cf942aae2d487b6ae443bae13b20bfc2b41",
    "PinMinus@10/6": "a474e463fa677b370e5a6752d7c2dfbc6ee33e3252455c189f1f8ddd7637a319",
    "PinPlus@7/8": "1faecf2cec16c51dafdd239682ef309994379d5941ece0f9d31222381eb910b0",
    "PinPlus@10/6": "cf4b3c5c7e5188c62f62f435a53ab94e0a52efc61b05bef2c8f61691c58acfdb",
    "MV_a_ab@7/8": "1122baceae508b5736c1979ff5e2ae238200574d36d06827e70d2f3200678d84",
    "MV_a_ab@10/6": "493712ca7d228b50c8b1fc5e9ce1d7da55e72e75911d4fa8bad3a9644f6b7c34",
    "F2@7/8": "006a22bc241d3e8e5d0dbe5aa71b2c0cd7b14aa10c0cd93c1e448a1cc7ffb7f1",
    "F2@10/6": "9aa4b748ce2fb8f92bede424afa45e9b6655137d77dd83de63a42dd640d8bb89",
    "A1free@7/8": "8b7c01a05dccdb7bfb434bd0c459dd7e499aac3120a791e18742e639300836cb",
    "A1free@10/6": "8b7c01a05dccdb7bfb434bd0c459dd7e499aac3120a791e18742e639300836cb",
    "M0@7/8": "3edbac46e13f7bd71734a508f4c767e68cfc8c48a679384110bf6e2a2dd166f8",
    "M0@10/6": "2c1dd0cf128dfb9ee5701860102069fbea14124313a8c2deefec9fd9806adcc7",
    "M1@7/8": "0301664815d9e1bf108a7c453bc458ee20125958f26d5d197481881a26c959c6",
    "M1@10/6": "14398ef247bdf321a69b4dc05dc1f18b72985cf6c24982051bcfbd9cf9d5442a",
    "J@7/8": "6401844f8901ba8ed1ec8e62e127db92fa4796f9e5e986b99246dacca6e89094",
    "J@10/6": "563b897b8b06d4d18bfd4dce752af70dc43706261381dc31d8b43eb2e01cf885",
    "Q@7/8": "dfff60f330abf878d366f4a4bd65250f745294d4f9b7f91ec25f1472df245393",
    "Q@10/6": "6ceee7223f28e56cdf51997aa4485794b11853d02fafe22e37a5fbfadd06cb0b",
    "R2@7/8": "bd6e519986dd7d5458174e4b3d95741d6ca4fb52aa3b906feb2bac0bb9dc26cb",
    "R2@10/6": "b9739390a28552b5631c4312a4cd231f781fd4d3fe470457fdb2c47bfc2bcdbf",
    "R3@7/8": "05aef3cd1d3000a244c55cf3627c4446fe09c73f16d0ea11eb69f51bc6cbd6c1",
    "R3@10/6": "e04ae001de2c87278a6292b536493f13e86abd6806454cf4dcb9ccdcc1ccb397",
}


def test_ext_tsv_is_pinned():
    got = {}
    for name in sp.STRUCTURE_NAMES + md.CATALOG_NAMES:
        for n, s in ((7, 8), (10, 6)):
            text, code = run(["ext", name, "--max-n", str(n), "--max-s", str(s),
                              "--format", "tsv"])
            got[f"{name}@{n}/{s}"] = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
    assert got == EXT_TSV_DIGESTS
