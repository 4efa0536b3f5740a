"""A walk through the algebra A(1) and its small graded modules.

Run with:  python demos/01_algebra_and_modules.py
"""

from a1bordism import steenrod as st
from a1bordism import modules as md

# A(1) is the 8-dimensional algebra generated by Sq1 and Sq2.  Its basis
# consists of alternating words; the defining relations Sq1Sq1 = 0 and
# Sq2Sq2 = Sq1Sq2Sq1 identify the two degree-6 words.
print("A(1) basis and degrees:")
for b in st.basis():
    print(f"  {b!r:24s} degree {b.degree()}")
print("graded dimensions:", st.graded_dimensions())

# The relations in action:
print("\nSq1·Sq1 =", st.SQ1 * st.SQ1)
print("Sq2·Sq2 =", st.SQ2 * st.SQ2)
print("Sq2·Sq2·Sq2 =", st.SQ2 * st.SQ2 * st.SQ2, "(the top class)")

# Milnor primitives square to zero, so they act as differentials on any
# module; their homology ("Margolis homology") detects free summands.
q0, q1 = st.milnor_primitive(0), st.milnor_primitive(1)
print("\nQ0 =", q0, "  Q1 =", q1, "  Q1·Q1 =", q1 * q1)

# The module catalog: the standard small A(1)-modules.
print("\ncatalog modules and their graded dimensions:")
for name in ("F2", "A1free", "M0", "M1", "J", "Q", "R2"):
    m = md.catalog(name)
    print(f"  {name:7s}", {d: m.dim(d) for d in m.degrees()})

# Margolis homology distinguishes them: a free module is acyclic for both
# differentials, the Joker has one Q1 class in degree 2, and so on.
for name in ("A1free", "J", "M0"):
    m = md.catalog(name)
    h0, _ = m.margolis_homology(0)
    h1, _ = m.margolis_homology(1)
    print(f"  Margolis of {name}: Q0 -> {h0 or 0}, Q1 -> {h1 or 0}")

# split_free peels off free rank-one summands wherever the degree-6 top
# class acts nontrivially; the witness columns certify the splitting.
big = md.free_module().direct_sum(md.catalog("J").suspend(1))
dec = md.split_free(big)
print("\nsplit_free on A(1) ⊕ ΣJ found free summands at:",
      [g for g, _ in dec.free_summands])
print("remainder dims:", {d: dec.remainder.dim(d) for d in dec.remainder.degrees()})

# Bounded-degree isomorphism testing: M0 and M1 agree up to degree 3 and
# differ from degree 4 on (M1 is the unique nontrivial extension).
print("\nM0 ≅ M1 up to degree 3:", md.iso_up_to_degree(md.catalog("M0"), md.catalog("M1"), 3).status)
print("M0 ≅ M1 up to degree 4:", md.iso_up_to_degree(md.catalog("M0"), md.catalog("M1"), 4).status)
