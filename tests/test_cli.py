from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from a1bordism import cli

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
    from a1bordism import modules as md

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
