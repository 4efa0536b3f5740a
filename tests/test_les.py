from __future__ import annotations

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


def _random_finite_group(rng: random.Random) -> PartialGroup:
    factors = tuple(2 ** rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
    return PartialGroup.exact(0, factors)


def test_fuzz_soundness_on_split_exact_sequences():
    # Build exact sequences by construction: A_i = K_i ⊕ K_{i+1} with
    # f_i the projection-then-inclusion; hide random slots and check the
    # solver's intervals always contain the truth.
    rng = random.Random(20240)
    for _ in range(200):
        length = rng.randint(4, 7)
        K = [PartialGroup.exact(0, ())] + [
            _random_finite_group(rng) for _ in range(length - 1)
        ] + [PartialGroup.exact(0, ())]
        true_groups = []
        for i in range(length):
            tl = K[i].torlog[0] + K[i + 1].torlog[0]
            facts = tuple(sorted(K[i].factors + K[i + 1].factors, reverse=True))
            true_groups.append(PartialGroup.exact(0, facts))
        groups = []
        hidden = set(rng.sample(range(1, length - 1), k=min(2, length - 2)))
        for i, g in enumerate(true_groups):
            groups.append(PartialGroup.unknown(finite=rng.random() < 0.5)
                          if i in hidden else g)
        # pad with zeros so boundary exactness holds by construction
        labels = [f"A{i}" for i in range(length)]
        problem = LESProblem("fuzz", ["Z0"] + labels + ["Z1"],
                             [PartialGroup.zero()] + groups + [PartialGroup.zero()])
        sol = solve_les(problem)
        assert sol.contradiction is None
        for i in hidden:
            got = sol.slot(f"A{i}").group
            truth = true_groups[i].torlog[0]
            assert got.torlog[0] <= truth
            assert got.torlog[1] is None or got.torlog[1] >= truth
            assert got.rank[0] == 0
