from __future__ import annotations

import pytest

from a1bordism import steenrod as st
from a1bordism.steenrod import A1Element
from oracles import all_reductions, rewriting_is_confluent


def test_rewriting_confluent_all_orders_up_to_length_six():
    assert rewriting_is_confluent(6)


def test_words_take_the_letters_1_and_2_only():
    for word in ("3", "0", "21x", "131"):
        with pytest.raises(ValueError, match=f"A\\(1\\) word '{word}' has a letter other than 1 and 2"):
            st.reduce_word(word)
        with pytest.raises(ValueError, match=f"'{word}'"):
            A1Element.from_word(word)
    # Sq3 is written Sq1Sq2 (Adem), a normal form
    assert st.reduce_word("12") == "12"


def test_defining_relations():
    assert st.SQ1 * st.SQ1 == A1Element(0)
    assert st.SQ2 * st.SQ2 == A1Element.from_word("121")


def test_sq2_times_sq2sq1_is_zero():
    # oracle: all reduction orders of the concatenated word agree on zero
    assert all_reductions("2" + "21") == {None}
    assert st.SQ2 * A1Element.from_word("21") == A1Element(0)


def test_degree_six_words_coincide():
    assert st.reduce_word("1212") == st.reduce_word("2121") == "1212"


def test_graded_dimensions():
    assert st.graded_dimensions() == (1, 1, 1, 2, 1, 1, 1)


def test_associativity_exhaustive():
    basis = st.basis()
    for a in basis:
        for b in basis:
            ab = a * b
            for c in basis:
                assert (ab) * c == a * (b * c)


def test_unital():
    for b in st.basis():
        assert st.ONE * b == b == b * st.ONE


def test_milnor_primitives():
    q0 = st.milnor_primitive(0)
    q1 = st.milnor_primitive(1)
    assert q0 == st.SQ1
    assert q1 == A1Element.from_words(["12", "21"])
    assert q0 * q0 == A1Element(0)
    assert q1 * q1 == A1Element(0)
    assert q0 * q1 + q1 * q0 == A1Element(0)
    with pytest.raises(ValueError):
        st.milnor_primitive(2)


def test_top_class_is_sq2_cubed():
    # oracle: rewrite Sq2Sq2Sq2 through every reduction order
    assert all_reductions("222") == {"1212"}
    top = st.top_class()
    assert top == A1Element.from_word("1212")
    assert top.degree() == 6
    assert st.SQ1 * top == A1Element(0)
    assert top * st.SQ1 == A1Element(0)
    assert st.SQ2 * top == A1Element(0)
    assert top * st.SQ2 == A1Element(0)


def test_degree_errors():
    mixed = st.SQ1 + st.SQ2
    with pytest.raises(ValueError):
        mixed.degree()


def test_from_word_reduces_first():
    top = st.top_class()
    assert A1Element.from_word("2121") == top
    assert A1Element.from_word("222") == top
    assert A1Element.from_word("11") == A1Element(0)
