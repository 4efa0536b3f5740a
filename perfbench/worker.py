"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE OPS_JSON [SPANS_PATH]

Run from the root of a checkout.  MODE is ``import`` (only import the
library), ``plain`` (run the operations untraced), ``trace`` (record
layer spans, written to SPANS_PATH) or ``count`` (count GF(2) kernel
calls).  Prints one JSON object: the perf_counter reading when
``import a1bordism`` returned, and for the other modes the wall time
of the operations scaled to reference machine speed (``calibrate.py``),
each operation's raw time, peak RSS, each operation's encoded result and
the mode's per-layer figures.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import a1bordism  # noqa: E402  (the import is the measured set-up)
import time  # noqa: E402

IMPORTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_ops(ops, recorder=None):
    """Run the operations in order, timing the calibration kernel around each.

    Returns each operation's time, its scale factor to reference machine
    speed and the encoded results.
    """
    results, seconds, factors = [], [], []
    calibrate.warm_up()
    runs_before = calibrate.FIRST_REPEATS
    before = calibrate.kernel_seconds(runs_before)
    for i, (kind, name, degree) in enumerate(ops):
        if recorder is not None:
            recorder.run_id = i
        start = time.perf_counter()
        try:
            results.append((kind, getattr(a1bordism, kind)(name, degree)))
        except Exception as exc:  # an operation that raises counts as failed
            results.append((kind, exc))
        seconds.append(time.perf_counter() - start)
        runs_after = calibrate.repeats_after(seconds[-1])
        after = calibrate.kernel_seconds(runs_after)
        factors.append(calibrate.factor(before, runs_before, after, runs_after))
        before, runs_before = after, runs_after
    encoded = [{"error": repr(out)} if isinstance(out, Exception) else workloads.encode(kind, out)
               for kind, out in results]
    return seconds, factors, encoded


def main(argv):
    mode = argv[1]
    out = {"imported": IMPORTED, "src": os.path.dirname(a1bordism.__file__)}
    if mode != "import":
        ops = [tuple(op) for op in json.loads(argv[2])]
        if mode == "trace":
            recorder = tracing.SpanRecorder()
            with tracing.trace_layers(recorder):
                seconds, factors, results = run_ops(ops, recorder)
            out["layers"] = tracing.layer_summary(recorder.spans, seconds, factors)
            out["span_names"] = sorted({s[0] for s in recorder.spans})
            with open(argv[3], "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "run_id", "size"],
                           "ops": [workloads.op_id(op) for op in ops],
                           "spans": recorder.spans}, fh)
        elif mode == "count":
            counts = Counter({f"gf2.{k}.calls": 0 for k in tracing.KERNELS})
            with tracing.count_kernels(counts):
                seconds, factors, results = run_ops(ops)
            out["layers"] = dict(counts)
        else:
            seconds, factors, results = run_ops(ops)
        out.update(wall=sum(t * f for t, f in zip(seconds, factors)), seconds=seconds,
                   results=results,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
