"""Record the expected output of every benchmark operation.

    python3 perfbench/record_expected.py

Run from the root of a checkout.  Runs each workload once, untraced, in
a fresh interpreter, refuses to write anything if a result disagrees with
the golden rows in ``workloads.py``, and writes ``expected.json``.  Run
it only when a change is meant to alter results; the benchmark fails any
result that differs from the recorded one.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import EXPECTED, WORKER
import workloads


def main() -> int:
    expected = {}
    for workload, ops in workloads.WORKLOADS.items():
        proc = subprocess.run([sys.executable, WORKER, "plain", json.dumps(ops)],
                              capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout.splitlines()[-1])
        for op, got in zip(ops, report["results"]):
            problems = workloads.golden_problems(op, got)
            if "error" in got or problems:
                print(f"{workload}: {got.get('error', '')} {problems}", file=sys.stderr)
                return 1
            expected[workloads.op_id(op)] = got
    lines = [f"  {json.dumps(k)}: {json.dumps(expected[k])}" for k in sorted(expected)]
    with open(EXPECTED, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(expected)} expected results to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
