"""Tests of the benchmark itself:  python -m pytest perfbench"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# SigmaBO2 reaches the wedge split and a free summand as well as every ext stage
ONE_PIPELINE = [("run_pipeline", "SigmaBO2", 7)]
ONE_PIPELINE_SPANS = [
    "ext.assemble_groups", "ext.collapse_certificate", "ext.ext_chart",
    "ext.minimal_resolution", "modules.split_free", "modules.submodule",
    "pipelines.run_pipeline", "spaces.named_structure", "spaces.split_by_variable",
    "spaces.twist",
]


def worker(mode, ops, tmp_path=None):
    argv = [sys.executable, run.WORKER, mode, json.dumps(ops)]
    if mode == "trace":
        argv.append(str(tmp_path / "spans.json"))
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def expected():
    with open(run.EXPECTED) as fh:
        return json.load(fh)


def test_span_names_of_one_pipeline_are_stable(tmp_path):
    first = worker("trace", ONE_PIPELINE, tmp_path)
    second = worker("trace", ONE_PIPELINE, tmp_path)
    assert first["span_names"] == second["span_names"] == ONE_PIPELINE_SPANS
    with open(tmp_path / "spans.json") as fh:
        spans = json.load(fh)["spans"]
    assert [s[0] for s in spans if s[3] < 0] == ["pipelines.run_pipeline"]


def test_kernel_counts_repeat_exactly():
    first = worker("count", ONE_PIPELINE)["layers"]
    assert first == worker("count", ONE_PIPELINE)["layers"]
    assert set(first) == {f"gf2.{k}.calls" for k in tracing.KERNELS}
    assert first["gf2.matvec.calls"] > 0


def test_wrappers_change_no_result(tmp_path, expected):
    plain = worker("plain", ONE_PIPELINE)["results"]
    assert worker("trace", ONE_PIPELINE, tmp_path)["results"] == plain
    assert worker("count", ONE_PIPELINE)["results"] == plain
    assert plain == [expected[workloads.op_id(ONE_PIPELINE[0])]]


def test_wrappers_are_removed_after_the_pass():
    before = tracing.modules.split_free
    with tracing.trace_layers(tracing.SpanRecorder()):
        assert tracing.pipelines.split_free is tracing.modules.split_free is not before
    assert tracing.pipelines.split_free is tracing.modules.split_free is before
    kernels = dict(vars(tracing.gf2.BitMatrix))
    with tracing.count_kernels(tracing.Counter()):
        assert tracing.gf2.BitMatrix.from_columns([1], 1).rows == (1,)
    assert dict(vars(tracing.gf2.BitMatrix)) == kernels


def test_check_rejects_a_wrong_expected_row(expected, monkeypatch):
    """Negative control: a deliberately wrong expected row fails the run."""
    op = ("run_pipeline", "PinPlus", 7)
    wrong = json.loads(json.dumps(expected))
    wrong[workloads.op_id(op)]["rows"][3][2] = True  # degree 3 is reported uncertified
    monkeypatch.chdir(REPO)
    bench = run.Run("bordism_light", 0, wrong)
    bench.spawn("plain", [op])
    assert (bench.attempted, bench.failed) == (1, 1)
    assert workloads.check(op, expected[workloads.op_id(op)], expected) == []


def test_check_rejects_a_result_off_the_golden_rows(expected):
    op = ("run_pipeline", "FK", 7)
    got = json.loads(json.dumps(expected[workloads.op_id(op)]))
    got["rows"][2][1] = "Z + Z/2"
    assert len(workloads.check(op, got, {workloads.op_id(op): got})) == 1
    assert workloads.check(op, {"error": "ValueError()"}, expected)


def test_expected_outputs_cover_every_operation_and_agree_with_golden(expected):
    ops = [op for ops in workloads.WORKLOADS.values() for op in ops]
    assert sorted(expected) == sorted(workloads.op_id(op) for op in ops)
    for op in ops:
        assert workloads.golden_problems(op, expected[workloads.op_id(op)]) == []
    # rows reported uncertified are part of the expected output
    assert [r[2] for r in expected["run_pipeline:PinPlus:7"]["rows"]][3:5] == [False, False]
    assert expected["run_pipeline:TauMinus:4"]["rows"][4][2] is False


def test_golden_copy_matches_the_acceptance_suite():
    with open(os.path.join(REPO, "tests", "test_acceptance.py")) as fh:
        tree = ast.parse(fh.read())
    golden = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "GOLDEN":
            golden.update(ast.literal_eval(node.value))
        if isinstance(node, ast.FunctionDef) and node.name == "test_criterion1_gm_degrees_zero_to_four":
            call = next(n for n in ast.walk(node) if isinstance(n, ast.Call)
                        and getattr(n.func, "id", "") == "_check_rows")
            golden[("GM", 4)] = ast.literal_eval(call.args[1])
    assert golden == workloads.GOLDEN


def test_every_declared_per_layer_metric_is_measured():
    measured = set(tracing.layer_summary([], [], []))
    measured |= {f"gf2.{k}.calls" for k in tracing.KERNELS} | {"trace.overhead_s"}
    assert set(run.PER_LAYER) <= measured
