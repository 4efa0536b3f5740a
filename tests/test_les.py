from __future__ import annotations

import hashlib
import random

import pytest

from a1bordism import les
from a1bordism.les import LESError, LESProblem, PartialGroup, parse_les, solve_les


def test_group_parsing_roundtrip():
    g = PartialGroup.parse("Z^2 + Z/8 + Z/2")
    assert g.rank == (2, 2) and g.factors == (8, 2)
    assert PartialGroup.parse("0").factors == ()
    assert PartialGroup.parse("(Z/2)^3").factors == (2, 2, 2)
    with pytest.raises(LESError):
        PartialGroup.parse("Z/6")  # not a 2-power


def test_zero_flanked_slot_is_zero():
    p = LESProblem("trivial", ["A", "X", "B"],
                   [PartialGroup.zero(), PartialGroup.unknown(), PartialGroup.zero()])
    sol = solve_les(p)
    assert sol.slot("X").determined == "0"


def test_iso_flanked_slot_copies_group():
    p = LESProblem(
        "copy", ["Z1", "A", "X", "B", "Z2"],
        [PartialGroup.zero(), PartialGroup.exact(0, (8,)), PartialGroup.unknown(),
         PartialGroup.zero(), PartialGroup.zero()])
    sol = solve_les(p)
    # 0 -> A -> X -> 0 exact forces X ≅ A
    assert sol.slot("X").group.torlog == (3, 3)


def test_gm_figure_gives_the_fiber_groups():
    sol = solve_les(les.gm_figure_problem())
    assert sol.contradiction is None
    expect = {"pi0": "Z", "pi1": "Z/2", "pi2": "Z/2", "pi3": "0",
              "pi4": "Z + Z/2", "pi5": "0"}
    for label, val in expect.items():
        assert sol.slot(label).determined == val, label


def test_kt_minus_figure_order_four_and_nonzero():
    sol = solve_les(les.kt_minus_figure_problem())
    assert sol.contradiction is None
    a_minus = sol.slot("pi2")
    assert a_minus.order == "4"
    assert set(a_minus.candidates) == {"Z/4", "Z/2 + Z/2"}
    b_minus = sol.slot("pi4")
    assert b_minus.group.torlog[0] >= 1  # |B_-| >= 2: nonzero
    assert b_minus.group.torlog[1] is not None  # and bounded: no over-claim


def test_kt_plus_figure_order_at_least_eight():
    sol = solve_les(les.kt_plus_figure_problem())
    assert sol.contradiction is None
    a_plus = sol.slot("pi4")
    assert a_plus.group.torlog[0] == 3  # order >= 8, no tighter
    assert a_plus.group.torlog[1] == 5  # and <= 32: exactness allows no looser
    assert sol.slot("pi1").determined == "0"
    assert sol.slot("pi2").determined == "Z/2"


def test_nonexact_sequence_contradiction():
    sol = solve_les(les.gm_nonexact_problem())
    assert sol.contradiction is not None
    assert "P4" in sol.contradiction and "GM4" in sol.contradiction


def test_annotation_validation():
    with pytest.raises(LESError):
        LESProblem("bad", ["A", "B", "C"],
                   [PartialGroup.zero()] * 3, annotations={5: "zero"})
    with pytest.raises(LESError):
        LESProblem("bad", ["A", "B", "C"],
                   [PartialGroup.zero()] * 3, annotations={0: "monic"})


def test_parse_les_format():
    text = """
    LES demo
    SLOT 0 A = 0
    SLOT 1 X = ?
    SLOT 2 B = Z/4
    SLOT 3 C = ?exp2
    SLOT 4 D = 0
    MAP 1 -> 2 = surjective
    """
    p = parse_les(text)
    assert p.name == "demo"
    assert p.labels == ["A", "X", "B", "C", "D"]
    assert p.annotations == {1: "surjective"}
    assert p.groups[3].exp_log == 1 and p.groups[3].rank == (0, 0)
    with pytest.raises(LESError):
        parse_les("LES x\nSLOT 0 A = 0\nSLOT 2 B = 0")  # gap in indices
    with pytest.raises(LESError):
        parse_les("LES x\nSLOT 0 A = 0\nSLOT 1 B = 0\nMAP 0 -> 2 = zero")


# -- the figures' known slots are engine rows -----------------------------------


# figure -> slot label -> the structure and degree of the engine row it holds
FIGURE_ROWS = {
    "gm": {**{f"S{k}": ("SigmaBO2", k) for k in range(5)},
           **{f"O{k}": ("GM", k) for k in range(6)}},
    "kt-minus": {**{f"O{k}": ("KTminus", k) for k in range(5)},
                 **{f"T{k}": ("TauMinus", k) for k in range(4)}},
    "kt-plus": {**{f"O{k}": ("KTplus", k) for k in range(5)},
                **{f"T{k}": ("TauPlus", k) for k in range(4)}},
}
# the published values the engine disagrees with, the strict xfails
# test_criterion1_gm_degree_five and test_criterion1_tau_plus_degree_two
PUBLISHED_ONLY = {("gm", "O5"), ("kt-plus", "T2")}


def engine_group(pipeline_cache, name, degree):
    row = pipeline_cache(name, 7).rows[degree]
    assert row.certified, (name, degree)
    return PartialGroup.exact(row.free_rank, row.torsion)


@pytest.mark.parametrize("figure", sorted(FIGURE_ROWS))
def test_figure_slots_agree_with_the_engine_rows(pipeline_cache, figure):
    problem = les.FIGURES[figure]()
    for label, (name, degree) in FIGURE_ROWS[figure].items():
        slot = problem.groups[problem.labels.index(label)]
        engine = engine_group(pipeline_cache, name, degree)
        assert slot.known
        assert (slot == engine) != ((figure, label) in PUBLISHED_ONLY), (label, engine.group_str())


@pytest.mark.parametrize("figure", sorted(FIGURE_ROWS))
def test_figures_solve_with_the_engine_rows(pipeline_cache, figure):
    # with the engine's values in every slot it fills, GM's O5 = Z/2 and
    # KT+'s T2 = (Z/2)^3 among them, the sequences are still exact
    problem = les.FIGURES[figure]()
    for label, (name, degree) in FIGURE_ROWS[figure].items():
        problem.groups[problem.labels.index(label)] = engine_group(pipeline_cache, name, degree)
    assert solve_les(problem).contradiction is None


# -- soundness fuzz: the solver never narrows beyond the truth -----------------


def _random_group(rng: random.Random) -> PartialGroup:
    """An exact group, or an unknown as ``?``, ``?fin`` or ``?exp`` write it."""
    kind = rng.randrange(6)
    if kind == 0:
        return PartialGroup.unknown()
    if kind == 1:
        return PartialGroup.unknown(finite=True)
    if kind == 2:
        return PartialGroup.unknown(exp_log=rng.randint(0, 2), finite=True)
    factors = [2 ** rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
    return PartialGroup.exact(rng.choice((0, 0, 1, 2)), factors)


def _arbitrary_problem(rng: random.Random) -> LESProblem:
    """Random slots and annotations: most of these are not exact."""
    n = rng.randint(3, 7)
    anns = {i: rng.choice(les.ANNOTATIONS) for i in range(n - 1) if rng.random() < 0.3}
    return LESProblem("arbitrary", [f"A{j}" for j in range(n)],
                      [_random_group(rng) for _ in range(n)], anns)


def _split_exact_problem(rng: random.Random, free: bool):
    """A split exact sequence with hidden slots and true annotations.

    Slot p is K_p + K_{p+1} and map p projects onto K_{p+1} and includes
    it, so its image is K_{p+1}: it is zero iff K_{p+1} = 0, injective iff
    K_p = 0 and surjective iff K_{p+2} = 0.  The first and last two K are 0,
    so the end slots are 0.  Returns the problem, the true groups and the
    hidden slots.
    """
    length = rng.randint(4, 7)
    zero = PartialGroup.zero()
    K = [zero, zero] + [
        PartialGroup.exact(rng.randint(0, 1) if free else 0,
                           [2 ** rng.randint(1, 3) for _ in range(rng.randint(0, 2))])
        for _ in range(length - 1)
    ] + [zero, zero]
    truth = [PartialGroup.exact(K[p].rank[0] + K[p + 1].rank[0], K[p].factors + K[p + 1].factors)
             for p in range(length + 2)]
    hidden = set(rng.sample(range(1, length + 1), k=rng.randint(1, 3)))
    groups = []
    for p, g in enumerate(truth):
        if p not in hidden:
            groups.append(g)
        elif g.rank != (0, 0) or rng.random() < 0.4:
            groups.append(PartialGroup.unknown())
        elif rng.random() < 0.5:
            groups.append(PartialGroup.unknown(finite=True))
        else:
            groups.append(PartialGroup.unknown(exp_log=g.exp_log + rng.randint(0, 1), finite=True))
    anns = {}
    for p in range(length + 1):
        holds = [a for a, ok in (("zero", K[p + 1] == zero), ("injective", K[p] == zero),
                                 ("surjective", K[p + 2] == zero)) if ok]
        if "injective" in holds and "surjective" in holds:
            holds.append("iso")
        if holds and rng.random() < 0.5:
            anns[p] = rng.choice(holds)
    labels = [f"A{p}" for p in range(length + 2)]
    return LESProblem("split", labels, groups, anns), truth, hidden


def test_solver_outputs_are_pinned():
    # every slot report and the contradiction, for arbitrary problems,
    # annotated split exact sequences and the four figures
    rng = random.Random(31)
    problems = [_arbitrary_problem(rng) for _ in range(1000)]
    problems += [_split_exact_problem(rng, rng.random() < 0.5)[0] for _ in range(1000)]
    problems += [les.FIGURES[key]() for key in sorted(les.FIGURES)]
    digest = hashlib.sha256()
    for problem in problems:
        sol = solve_les(problem)
        for s in sol.slots:
            digest.update(repr((s.label, s.group, s.determined, s.order,
                                s.candidates, s.notes)).encode())
        digest.update(repr(sol.contradiction).encode())
    assert digest.hexdigest() == "ef12ffc3a885c5c53499fe10cf4e109c550bc9a7c22069cb7408069418e2a6e6"


def _assert_sound(rng: random.Random, free: bool) -> None:
    # hide random slots of split exact sequences, annotate maps truly, and
    # check the solver's intervals always contain the truth
    for _ in range(200):
        problem, truth, hidden = _split_exact_problem(rng, free)
        before = list(problem.groups)
        sol = solve_les(problem)
        assert sol.contradiction is None
        assert problem.groups == before
        with pytest.raises(AttributeError):
            sol.slots[0].group.rank = (0, 0)
        for p in hidden:
            got, want = sol.slots[p], truth[p]
            for k in (0, 1):
                lo, hi = got.group[k]
                assert lo <= want[k][0] and (hi is None or hi >= want[k][0]), (p, got, want)
            assert got.determined in (None, want.group_str()), (p, got, want)


def test_fuzz_soundness_on_split_exact_sequences():
    _assert_sound(random.Random(20240), free=False)


def test_fuzz_soundness_with_free_parts():
    _assert_sound(random.Random(20241), free=True)
