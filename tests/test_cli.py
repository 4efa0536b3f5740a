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



def test_twoform_exit_code_does_not_depend_on_format(monkeypatch):
    # a non-injective degree-6 pullback exits 2 in every format
    from a1bordism import obstruction as ob

    corrupt = ob.twoform_degree6_injectivity(corrupt_sq1_u=True)
    monkeypatch.setattr(ob, "twoform_degree6_injectivity", lambda: corrupt)
    text, code = run(["obstruction", "two-form"])
    assert code == 2 and "not injective" in text
    text, code = run(["obstruction", "two-form", "--format", "tsv"])
    assert code == 2
    assert text.splitlines()[1].endswith("\tnot injective")



def test_oneform_ascii_reads_the_verdicts(monkeypatch):
    # the "nonzero on"/"zero on" labels come from the evaluations, not fixed text
    import dataclasses

    from a1bordism import obstruction as ob

    evaluate = ob.evaluate_obstruction_on

    def flipped(*args):
        v = evaluate(*args)
        return dataclasses.replace(v, nonzero_mod_sq1=not v.nonzero_mod_sq1)

    monkeypatch.setattr(ob, "evaluate_obstruction_on", flipped)
    text, code = run(["obstruction", "one-form"])
    assert code == 0
    assert "\n  zero on: WuManifold (value z2*z3)\n" in text
    assert "\n  nonzero on: spin placeholder (" in text
    text, _ = run(["obstruction", "one-form", "--format", "tsv"])
    assert text.endswith("\tnonzero on WuManifold: False; zero on spin: False\n")

def test_obstruction_evaluate_tsv():
    text, code = run(["obstruction", "evaluate", "--format", "tsv"])
    assert code == 0
    assert text == "space\tclass\tvalue\tverdict\nWuManifold\tSq2 Sq1 z2\tz2*z3\tnonzero mod Im Sq1\n"
    text, code = run(["obstruction", "evaluate", "--space", "SpinPlaceholder", "--format", "tsv"])
    assert code == 0
    assert text.splitlines()[1] == "SpinPlaceholder\tSq2 Sq1 z2\t0\tzero mod Im Sq1"


def test_ext_refuses_a_window_past_the_truncation(tmp_path):
    # unknown degrees above the cutoff must not print as zeros
    f = tmp_path / "pair.a1mod"
    f.write_text("MODULE pair\nDEG 0: a\nDEG 1: b\nSQ1 a -> b\nTRUNCATE 3\n")
    text, code = run(["ext", str(f), "--max-n", "4", "--max-s", "3", "--format", "tsv"])
    assert code == 1
    assert text == ("error: module pair is truncated at 3; "
                    "resolving to internal degree 7 needs cutoff >= 7\n")
    text, code = run(["ext", str(f), "--max-n", "1", "--max-s", "2", "--format", "tsv"])
    assert code == 0
    assert text.splitlines()[1:] == ["0\t0\t1\t0", "1\t1\t1\t0"]

@pytest.mark.parametrize("name, max_n", [("GM", 0), ("KTminus", 0), ("KTplus", 1)])
def test_ext_of_a_thom_structure_below_its_thom_class(name, max_n):
    # the module cutoff max_n + max_s lies below GM's Thom class in degree 2
    text, code = run(["ext", name, "--max-n", str(max_n), "--max-s", "0", "--format", "tsv"])
    assert code == 0, text
    assert text.splitlines()[:2] == ["s\tn\tdim\th0rank", "0\t0\t1\t0"]


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
    class RankZero(md.ColumnSolver):
        # every column reads as dependent on the earlier ones
        def __init__(self, columns):
            super().__init__(())
            self.kernel = [1 << j for j in range(len(columns))]

    monkeypatch.setattr(md, "ColumnSolver", RankZero)
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


def verb_argvs():
    """The invocations whose exit code and stdout VERB_DIGESTS pins."""
    yield ["list"]
    yield ["module", "M1"]
    for name in sp.STRUCTURE_NAMES:
        for fmt in ("ascii", "tsv"):
            yield ["bordism", name, "--through", "7", "--format", fmt]
    yield ["bordism", "GM", "--through", "8"]  # past the connectivity bound: refused
    for name in ("SpinO2", "GM", "FKO"):  # FKO's catalog search is undecided
        yield ["decompose", name, "--through", "6"]
    for figure in ("gm", "kt-minus", "kt-plus", "gm-nonexact"):
        yield ["les", figure]
    for which in ("one-form", "two-form"):
        for fmt in ("ascii", "tsv"):
            yield ["obstruction", which, "--format", fmt]
    yield ["obstruction", "evaluate"]
    yield ["obstruction", "evaluate", "--space", "SpinPlaceholder"]


# the SHA-256 of the exit code and stdout of each invocation, keyed by its argv
VERB_DIGESTS = {
    "list": "27bbe806d48f12b7cde056bc3658032a92e546e1e096e37ce263be700fd6bd57",
    "module M1": "e8fbddba57f3390fd5313bd82cdaf0571909ede326342533ae757d0a5daf255a",
    "bordism FK --through 7 --format ascii": "3212237f60e21121bfeccbc5eff1e50de7c69807dcb3ea0f096d9ca5522257d2",
    "bordism FK --through 7 --format tsv": "d4e5c5fae6ac2c793e5ee7656688cea6083605512457b9bacf33e3d7360cb8ca",
    "bordism FKO --through 7 --format ascii": "6aaa401fbabeed1aaaa5eea66c996c840ae940ee1199a71e1e9c1fc1ec329ee6",
    "bordism FKO --through 7 --format tsv": "c21aab38f548d6a8c211eb5c8c99cdcdc623966ecc0af755e529c56d681c0c38",
    "bordism GM --through 7 --format ascii": "8e9b4d8835b589a31e18c53ac30739c0ac269eaf9f0d6add4cfa61e5f2910e48",
    "bordism GM --through 7 --format tsv": "615d04a47300e3fff0ab0334d6887811f1663188b1a1b6071ee56d615b6af1fc",
    "bordism KTminus --through 7 --format ascii": "e042d8bab21fabb5d71f4d8c336d10282a0260c11397a624985b802905afd83d",
    "bordism KTminus --through 7 --format tsv": "eb833566093b4831a71b41e9f3f2f93dae19039e73802258f4df48a370494213",
    "bordism KTplus --through 7 --format ascii": "6982feeae67dd73e15d187830398451640b2d36cb2b23d810036d9055c860eac",
    "bordism KTplus --through 7 --format tsv": "eb833566093b4831a71b41e9f3f2f93dae19039e73802258f4df48a370494213",
    "bordism SpinO2 --through 7 --format ascii": "5e12cfc7f9c48ccd81de4f6cf9882dd9a7aa1042893ad1006fc688f15bceb83e",
    "bordism SpinO2 --through 7 --format tsv": "d480ace59935651950ce6855fb7defd2c9e20cafb567252c0182915bb30240bc",
    "bordism SigmaBO2 --through 7 --format ascii": "78b57b792dbeba3baf9232a8b2e0c3d564adf1638bbc7db75f48dd4e44e32ab1",
    "bordism SigmaBO2 --through 7 --format tsv": "4b233c1df493813b406efe87ccb44ddc9f0e05a2c8d2cfab35259036895f820e",
    "bordism TauMinus --through 7 --format ascii": "25d74ad158b23521fa3116329f0953961f812641476cc0ff8d92e801fb8a5231",
    "bordism TauMinus --through 7 --format tsv": "85134bc4a5bd1d96ff09a2f3077cd3f8e41489a6c585fac035fe437acee3e526",
    "bordism TauPlus --through 7 --format ascii": "52aede5f6d751a6ae41cd105080821b3469d15eae6e8a5e07058ee18b0e0d8e9",
    "bordism TauPlus --through 7 --format tsv": "f49d84babe61c083e0bb8d588c9fdc3a1476c5b180984b1ad51ca40f711fac8e",
    "bordism PinMinusO2 --through 7 --format ascii": "9eb650e55adf94c72aeca2d6e0f062d3a9d27fa392fff872daadd9dd9242611a",
    "bordism PinMinusO2 --through 7 --format tsv": "9aa040c2ba4185ad213040da9322843dc963a7e73e8f8ac6fca6c7f7419417ea",
    "bordism PinMinus --through 7 --format ascii": "735f62a15c2788ef41d9d909baba88e85c3af7d6f767f450e5d1e4b0b2074423",
    "bordism PinMinus --through 7 --format tsv": "f0d9fe8afe4f6dfcec88b996ffe24a2ac029bb9b52e460c0e6842c9762e5b15c",
    "bordism PinPlus --through 7 --format ascii": "2f14c2ff5726ed8c092a3562885ed2738401890107a0eda2d0d8c4e759062a46",
    "bordism PinPlus --through 7 --format tsv": "9afe745bb3b27431832a5a420a9faad8cfc1d4725df322a5872f3ea28c576420",
    "bordism MV_a_ab --through 7 --format ascii": "8c357e0d080efaa7311ff03a3a6f39a8d4ade68e11a8172a28b4b425593384e1",
    "bordism MV_a_ab --through 7 --format tsv": "ea5f1b49280124b238fe010c6f0c9f6c2fe8f3f94a5be9d8951c852e1ea931a5",
    "bordism GM --through 8": "287e91a958b235f22d2ac046c52c82439df18630e6ab8c5b53e2cd67830e1c81",
    "decompose SpinO2 --through 6": "c8c46de817f80d058fe6cdaf126ffab656ccc9802601260338b9f84a7a21ff4a",
    "decompose GM --through 6": "b68d4908b1d418e51ef5e7e162766d57a5e5053adcfbd45f89505705fe26b4ab",
    "decompose FKO --through 6": "ce2fe6265c9a48e6c254d1c3effdd84767cca2a26e0b8db16b8286aad860a030",
    "les gm": "34fe8ce427e48356fef84a463b0b6d83d66a6ba883165ef678b74d038cb27ae5",
    "les kt-minus": "ad681d2b7f6015101efb18b8cf6a70045023ae08121118c331cd41570dec120e",
    "les kt-plus": "b03dd788e5ecd8ca4432577d8cc9490381c308bf2a0057bd80ac8d7d918be388",
    "les gm-nonexact": "2d171ad62a13672279779d4f3a0c86136cba83a2af825ecfc8e2cdabeb022057",
    "obstruction one-form --format ascii": "d7f0287877dba2e2cea1f460c1ce83ce95ed9f81bdfd55cc7a3c32f643968699",
    "obstruction one-form --format tsv": "81a9633fcd1ebcbf3ff283ee70b7bec69dec93538047ab645e645e7e7b67d37b",
    "obstruction two-form --format ascii": "aba9925580c20b5ef5537ed26c0c1e4615fc83c486e01de96161941bd94e9822",
    "obstruction two-form --format tsv": "01cf4209f4c77d0dba59ec829baba612fb0d664aa73cff464014f01472ee8e0d",
    "obstruction evaluate": "da2981c4eebf8df1e9bf98448657d54436e274548d8a3fc152bef395a5d25621",
    "obstruction evaluate --space SpinPlaceholder": "4bbee43f4164c9568ecd0e99aa30520cf3172bc8758958c0dad2b534aacd7184",
}


def test_verb_outputs_are_pinned():
    got = {}
    for argv in verb_argvs():
        text, code = run(argv)
        got[" ".join(argv)] = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
    assert got == VERB_DIGESTS
