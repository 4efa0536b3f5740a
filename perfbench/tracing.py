"""Layer spans and kernel counts, recorded from outside the library.

The library has no tracing of its own, so this module replaces each
layer's public functions, at every name their callers look them up, by
wrappers that record a span (name, start, end, parent, run id, size).
Spans stay in memory until the pass ends.  A separate counting pass
counts calls into the GF(2) kernels, which are too many (about two
million per ``decompose`` pass) to time one by one.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import a1bordism
from a1bordism import ext, gf2, modules, pipelines, spaces
from a1bordism.modules import GradedA1Module

# modules whose attributes callers use to reach the layer functions
_NAMESPACES = (a1bordism, ext, modules, pipelines, spaces)


def _total_dim(m) -> int:
    return m.total_dim()


def _sub_dim(out) -> int:
    return out[0].total_dim()


def _frees(dec) -> int:
    return len(dec.free_summands)


def _generators(res) -> int:
    return sum(len(stage.gen_degrees) for stage in res.stages)


def _uncertified(cert) -> int:
    return sum(1 for ok in cert.certified.values() if not ok)


def _status(iso) -> str:
    return iso.status


# span name -> (owner, attribute, size of the result); functions are
# wrapped wherever the same object is bound in _NAMESPACES, methods on
# the class
LAYER_FUNCTIONS: Dict[str, Tuple[object, str, Optional[Callable]]] = {
    "spaces.named_structure": (spaces, "named_structure", _total_dim),
    "spaces.twist": (spaces, "twist", _total_dim),
    "spaces.split_by_variable": (spaces, "split_by_variable", None),
    "modules.tensor": (GradedA1Module, "tensor", _total_dim),
    "modules.submodule": (GradedA1Module, "submodule", _sub_dim),
    "modules.split_free": (modules, "split_free", _frees),
    "modules.catalog": (modules, "catalog", None),
    "modules.free_module": (modules, "free_module", None),
    "modules.iso_up_to_degree": (modules, "iso_up_to_degree", _status),
    "ext.minimal_resolution": (ext, "minimal_resolution", _generators),
    "ext.ext_chart": (ext, "ext_chart", None),
    "ext.collapse_certificate": (ext, "collapse_certificate", _uncertified),
    "ext.assemble_groups": (ext, "assemble_groups", None),
    "pipelines.run_pipeline": (pipelines, "run_pipeline", None),
    "pipelines.decompose_structure": (pipelines, "decompose_structure", None),
}

KERNELS = ("matvec", "matmul", "kernel_basis", "rref", "from_columns")

Span = Tuple[str, float, float, int, int, object]  # name, start, end, parent, run id, size


class SpanRecorder:
    """Collects spans of one pass; ``run_id`` is the index of the current operation."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.run_id = -1

    def wrap(self, name: str, fn: Callable, size: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id, None)
            if size is not None:
                spans[idx] = (name, start, end, parent, self.run_id, size(out))
            return out

        return traced


def _bindings(owner, attr: str):
    """Every (namespace, attribute) that holds the object ``owner.attr``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    target = getattr(owner, attr)
    return [(ns, a) for ns in _NAMESPACES for a, v in vars(ns).items() if v is target]


class Patch:
    """Replaces attributes until the end of a ``with`` block.

    (``unittest.mock.patch`` would do, but importing it adds 9 MB to the
    peak RSS of every pass.)
    """

    def __init__(self):
        self.saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def trace_layers(recorder: SpanRecorder) -> Patch:
    """Context manager that records the layer spans into ``recorder``."""
    patches = Patch()
    for name, (owner, attr, size) in LAYER_FUNCTIONS.items():
        wrapper = recorder.wrap(name, getattr(owner, attr), size)
        for ns, a in _bindings(owner, attr):
            patches.set(ns, a, wrapper)
    return patches


def count_kernels(counts: Counter) -> Patch:
    """Context manager that counts calls of the BitMatrix kernels into ``counts``."""
    patches = Patch()
    for attr in KERNELS:
        raw = gf2.BitMatrix.__dict__[attr]
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        key = f"gf2.{attr}.calls"

        def counted(*args, _fn=fn, _key=key, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        patches.set(gf2.BitMatrix, attr, classmethod(counted) if is_cm else counted)
    return patches


def layer_summary(spans: List[Span], seconds: List[float],
                  factors: List[float]) -> Dict[str, float]:
    """Per-layer self times, counts and sizes of one traced pass.

    ``seconds`` are the times of the pass's operations and ``factors``
    their scale factors to reference machine speed; each span's time is
    scaled by the factor of the operation (run id) it belongs to.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, _size in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    top = 0.0
    module_dim = free = gens = uncert = iso_hits = undecided = 0
    for i, (name, start, end, parent, run_id, size) in enumerate(spans):
        out[f"{name}.self_s"] += (end - start - child_time[i]) * factors[run_id]
        out[f"{name}.calls"] += 1
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent < 0:
            top += end - start
        if name == "spaces.named_structure" and parent_name != name:
            module_dim += size
        elif name == "modules.split_free":
            free += size
        elif name == "ext.minimal_resolution":
            gens += size
        elif name == "ext.collapse_certificate":
            uncert += size
        elif name == "modules.iso_up_to_degree":
            iso_hits += size == "iso"
            undecided += size == "undecided"
    iso_calls = out["modules.iso_up_to_degree.calls"]
    out.update({
        "spaces.module_dim": module_dim,
        "modules.split_free.free_summands": free,
        "ext.minimal_resolution.generators": gens,
        "ext.collapse_certificate.uncertified": uncert,
        "modules.iso_up_to_degree.hit_ratio": iso_hits / iso_calls if iso_calls else 0.0,
        "modules.iso_up_to_degree.undecided": undecided,
        "trace.wall_s": sum(t * f for t, f in zip(seconds, factors)),
        "trace.top_span_share": top / sum(seconds) if seconds else 0.0,
    })
    return out
