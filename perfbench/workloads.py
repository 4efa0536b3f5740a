"""Workload definitions, result encoding and the correctness check.

A workload is a fixed list of operations; every operation is one public
library call.  The seed only permutes the order in which a pass issues
them, so the same seed gives the same inputs.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

Op = Tuple[str, str, int]  # (public function, structure name, degree)

HEAVY = ("KTminus", "KTplus", "TauMinus", "TauPlus", "PinMinusO2")
LIGHT = ("FK", "FKO", "GM", "SpinO2", "SigmaBO2", "PinMinus", "PinPlus", "MV_a_ab")

WORKLOADS: Dict[str, List[Op]] = {
    "bordism_heavy": [("run_pipeline", n, 4) for n in HEAVY],
    "bordism_light": [("run_pipeline", n, 7) for n in LIGHT],
    "decompose": [("decompose_structure", "SpinO2", 6),
                  ("decompose_structure", "GM", 6)],
}

# Published rows (degree, free rank, 2-power torsion) asserted by the
# tier-1 acceptance suite: the GOLDEN table of tests/test_acceptance.py,
# plus GM degrees 0..4 from test_criterion1_gm_degrees_zero_to_four.
# test_perfbench.py keeps this copy in step with that file.  A golden row
# is always certified.
GOLDEN: Dict[Tuple[str, int], List[Tuple[int, int, Tuple[int, ...]]]] = {
    ("FK", 4): [(0, 1, ()), (1, 0, ()), (2, 1, ()), (3, 0, ()), (4, 2, ())],
    ("FKO", 4): [(0, 0, (2,)), (1, 0, ()), (2, 0, (4,)), (3, 0, ()), (4, 0, (8, 2))],
    ("KTminus", 4): [(0, 0, (2,)), (1, 0, ()), (2, 0, (2,)), (3, 0, ()), (4, 0, (2, 2, 2))],
    ("KTplus", 4): [(0, 0, (2,)), (1, 0, ()), (2, 0, (2,)), (3, 0, ()), (4, 0, (2, 2, 2))],
    ("SpinO2", 5): [(0, 1, ()), (1, 0, (2,)), (2, 0, (2,)), (3, 0, (2,)),
                    (4, 2, ()), (5, 0, (2,))],
    ("PinMinusO2", 4): [(0, 0, (2,)), (1, 0, (2,)), (2, 0, (2, 2)), (3, 0, (2,)),
                        (4, 0, (4, 2, 2))],
    ("TauMinus", 3): [(0, 0, (2,)), (1, 0, (2,)), (2, 0, (2, 2)), (3, 0, (2, 2))],
    ("GM", 4): [(0, 1, ()), (1, 0, ()), (2, 0, ()), (3, 0, ()), (4, 2, ())],
}


def op_id(op: Op) -> str:
    return f"{op[0]}:{op[1]}:{op[2]}"


def pass_orders(workload: str, seed: int) -> Iterator[List[Op]]:
    """The operation order of each successive pass of a run: seeded permutations."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        ops = list(WORKLOADS[workload])
        rng.shuffle(ops)
        yield ops


def group_str(free_rank: int, torsion: Tuple[int, ...]) -> str:
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{t}" for t in sorted(torsion, reverse=True))
    return " + ".join(parts) if parts else "0"


def encode(kind: str, result) -> Dict:
    """The full, JSON-ready result of one operation."""
    if kind == "run_pipeline":
        return {"rows": [[r.degree, r.group_str(), r.certified, list(r.warnings)]
                         for r in result.rows]}
    return {
        "free_summands": [[g, label] for g, label in result.free_summands],
        "catalog_summands": [[name, susp] for name, susp in result.catalog_summands],
        "witness_iso": getattr(result, "witness_iso", None) is not None,
    }


def golden_problems(op: Op, got: Dict) -> List[str]:
    """Disagreements of a pipeline result with the golden rows it overlaps."""
    kind, name, through = op
    if kind != "run_pipeline":
        return []
    problems = []
    for (gname, gthrough), rows in GOLDEN.items():
        if gname != name:
            continue
        for degree, free_rank, torsion in rows:
            if degree > through:
                continue
            row = got["rows"][degree]
            want = group_str(free_rank, torsion)
            if row[1] != want or row[2] is not True:
                problems.append(f"{op_id(op)} degree {degree}: got {row[1]} "
                                f"(certified={row[2]}), golden {want} certified")
    return problems


def check(op: Op, got: Dict, expected: Dict[str, Dict]) -> List[str]:
    """Every reason the result of ``op`` is wrong; empty when it is correct.

    A result is correct when it equals the recorded expected output
    exactly (rows reported uncertified must be expected uncertified) and
    agrees with every overlapping golden row.
    """
    if "error" in got:
        return [f"{op_id(op)} raised {got['error']}"]
    want = expected.get(op_id(op))
    problems = []
    if want is None:
        problems.append(f"{op_id(op)}: no expected output recorded")
    elif got != want:
        problems.append(f"{op_id(op)}: result differs from the expected output")
    return problems + golden_problems(op, got)
