"""Benchmark runner for a1bordism.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Every pass of a workload runs in a fresh interpreter (``worker.py``),
one operation after another, as a command-line user would run them.
Each result is checked against ``expected.json`` and the golden rows in
``workloads.py``.

With ``--trace 0`` the run imports the library several times on its own
(set-up samples), then repeats untraced passes until the next one would
end after ``--seconds``, and reports the medians of the end-to-end
metrics.  With ``--trace 1`` it repeats cycles of an untraced pass, a
traced pass and a kernel-counting pass in the same way, reports the
per-layer metrics and writes the spans to ``perfbench/out/``.  Times
are scaled to reference machine speed (see ``calibrate.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # every run must end well within 180 s
# workers may cache bytecode, as an installed package or a second run of a
# source checkout does, whatever the caller's environment says
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class Run:
    """Spawns worker passes and tallies correctness for one benchmark run."""

    def __init__(self, workload: str, seed: int, expected: Dict[str, Dict]):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0  # operations that raised or returned a wrong result
        self.problems: List[str] = []
        self.orders = workloads.pass_orders(workload, seed)

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, mode: str, ops=(), spans_path: str = "") -> Optional[Dict]:
        """One worker pass; returns its report with ``setup_s`` added, or None on failure."""
        argv = [sys.executable, WORKER, mode, json.dumps(ops)]
        if spans_path:
            argv.append(spans_path)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=WORKER_ENV,
                                  timeout=max(self.left(), 1))
        except subprocess.TimeoutExpired:
            self.fail_pass(ops, f"{mode} pass exceeded the run time limit")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self.fail_pass(ops, f"{mode} pass exited with {proc.returncode}")
            return None
        report = json.loads(proc.stdout.splitlines()[-1])
        report["setup_s"] = report["imported"] - t0
        if os.path.dirname(report["src"]) != os.path.join(os.getcwd(), "src"):
            raise SystemExit(f"a1bordism was imported from {report['src']}, not this checkout")
        for op, got in zip(ops, report.get("results", ())):
            self.attempted += 1
            found = workloads.check(op, got, self.expected)
            if found:
                self.failed += 1
                self.problems.extend(found)
        return report

    def fail_pass(self, ops, why: str) -> None:
        self.attempted += len(ops)
        self.failed += len(ops)
        self.problems.append(why)

    def passes(self, seconds: float, modes: List[str]) -> Iterator[Tuple[str, Dict]]:
        """Cycles of the given pass modes until the next cycle would end after ``seconds``.

        At least one cycle always runs.  Yields (mode, report) for every pass
        that completed.
        """
        deadline = time.perf_counter() + seconds
        longest = 0.0
        cycle = 0
        while True:
            t0 = time.perf_counter()
            for mode in modes:
                spans = ""
                if mode == "trace":
                    spans = os.path.join(OUT_DIR, f"spans-{self.workload}-seed{self.seed}-cycle{cycle}.json")
                report = self.spawn(mode, next(self.orders), spans)
                if report is not None:
                    yield mode, report
            cycle += 1
            longest = max(longest, time.perf_counter() - t0)
            now = time.perf_counter()
            if now + longest > deadline or longest * 1.2 > self.left():
                return


def setup_samples(run: Run) -> List[float]:
    """Seconds from interpreter start until ``import a1bordism`` returned,
    each scaled by the calibration kernel timed before and after it."""
    run.spawn("import")  # fills the bytecode cache; users do not pay compilation per run
    samples = []
    calibrate.warm_up()
    before = calibrate.kernel_seconds()
    for _ in range(SETUP_SAMPLES):
        report = run.spawn("import")
        after = calibrate.kernel_seconds()
        if report is not None:
            samples.append(report["setup_s"] * calibrate.factor(before, 1, after, 1))
        before = after
    return samples


def timed_run(run: Run, seconds: float) -> Dict[str, Dict]:
    setups = setup_samples(run)
    walls, raw, rss = [], [], []
    for _mode, report in run.passes(seconds, ["plain"]):
        walls.append(report["wall"])
        raw.append(sum(report["seconds"]))
        rss.append(report["peak_rss_mb"])
    if not (setups and walls):
        return {}
    print(f"# {len(walls)} passes, wall_s {[round(w, 3) for w in walls]}, "
          f"raw {[round(r, 3) for r in raw]}", file=sys.stderr)
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def traced_run(run: Run, seconds: float) -> Dict[str, Dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    plain: List[float] = []
    layers: Dict[str, List[float]] = {}
    names: List[List[str]] = []
    counts: List[Dict[str, int]] = []
    for mode, report in run.passes(seconds, ["plain", "trace", "count"]):
        if mode == "plain":
            plain.append(report["wall"])
        elif mode == "trace":
            names.append(report["span_names"])
            for key, value in report["layers"].items():
                layers.setdefault(key, []).append(value)
        else:
            counts.append(report["layers"])
    if not (plain and names and counts):
        return {}
    # the same work must give the same spans and the same kernel counts
    if any(n != names[0] for n in names) or any(c != counts[0] for c in counts):
        run.problems.append("span names or kernel counts differ between passes")
    metrics = {key: statistics.median(values) for key, values in layers.items()}
    metrics.update(counts[0])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    return {key: {"value": metrics[key], "unit": unit} for key, unit in PER_LAYER.items()}


def per_layer_units() -> Dict[str, str]:
    """The per-layer metrics BENCHMARK.json declares, with their units."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


PER_LAYER = per_layer_units()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "a1bordism", "__init__.py")):
        print("run from the root of an a1bordism checkout (src/a1bordism not found)", file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    print(f"# python {platform.python_version()}, {os.cpu_count()} CPUs, "
          f"workload {args.workload}, seed {args.seed}", file=sys.stderr)
    run = Run(args.workload, args.seed, expected)
    metrics = (traced_run if args.trace else timed_run)(run, args.seconds)
    for problem in run.problems:
        print(f"# FAIL {problem}", file=sys.stderr)
    if not metrics:
        print("no pass completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not run.problems and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
