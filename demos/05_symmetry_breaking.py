"""Obstructions to spontaneously breaking higher-form Z/2 symmetries.

A broken n-form symmetry needs a domain wall Poincaré dual to the
background field, i.e. a lift of M -> K(Z/2, n+1) across the Thom-class
map from MO_{n+1}.  The engine evaluates the primary obstruction through
its mod-2 avatar.

Run with:  python demos/05_symmetry_breaking.py
"""

from a1bordism import obstruction as ob

# One-form symmetries: the first obstruction lives in degree 5.
one = ob.primary_obstruction_oneform()
print("one-form obstruction class:", one.expression)
print("  H^5 of the K(Z/2,2) model has dimension", one.quotient_dim,
      "modulo Im Sq1 (the image is", one.sq1_image_dim, "dimensional)")
print("  derivation note:", one.note)

# Pulled back along the Thom class, the representative hits the value
# dictated by the Wu formula:
print("  pullback of Sq2Sq1 B:", one.pullback)

# Evaluation on the cataloged five-manifold with cohomology
# F2[z2, z3]/(z2^2, z3^2): nonzero, so the symmetry cannot break there.
wu = ob.evaluate_obstruction_on("WuManifold", "21", "z2")
print(f"  on the Wu manifold: Sq2Sq1(z2) = {wu.value} -> "
      f"{'OBSTRUCTED' if wu.nonzero_mod_sq1 else 'unobstructed'}")

# On a spin 5-manifold the second Wu class vanishes and the obstruction
# dies, so spin backgrounds never obstruct the breaking.
spin = ob.evaluate_obstruction_on("SpinPlaceholder")
print(f"  on a spin 5-manifold: value {spin.value} -> unobstructed")

# Two-form symmetries: the degree-6 candidates Sq2Sq1 C and C^2 both pull
# back injectively to MO_3, so degree 6 carries no primary obstruction.
two = ob.twoform_degree6_injectivity()
print("\ntwo-form check in degree 6:")
print("  pullbacks of (Sq2Sq1C, C^2):", two.images)
print(" ", two.conclusion)

# Sensitivity control: corrupt the Wu formula and the verdict flips.
corrupt = ob.twoform_degree6_injectivity(corrupt_sq1_u=True)
print("  with a corrupted Sq1 U:", "injective" if corrupt.injective else "NOT injective")
