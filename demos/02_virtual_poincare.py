"""Virtual Poincare polynomials through scissor expressions.

The virtual Betti numbers extend the mod-2 Betti numbers of compact
nonsingular varieties to all real algebraic varieties, additively over
closed decompositions.  They are not topological invariants, and the
classic witnesses below show it.
"""

from virtbetti.fixtures import builtin_scene
from virtbetti.scissor import evaluate_beta, evaluate_chi_c, degree_report

scene = builtin_scene()
atoms = scene.atoms

print("Cutting a circle: [circle] = [circle - point] + [point]")
beta = evaluate_beta(scene.expression("circle-minus-point"), atoms)
print("  beta(R) =", beta, "  chi_c =", evaluate_chi_c(scene.expression("circle-minus-point"), atoms))

print()
print("Two ellipses crossing in four points (inclusion-exclusion):")
ellipses = evaluate_beta(scene.expression("ellipses"), atoms)
print("  beta =", ellipses, " -> beta_0 =", ellipses.coefficient(0), "(negative!)")
print("  degree check:", degree_report(scene.expression("ellipses"), atoms, 1).detail)

print()
print("Two homeomorphic figure-eight curves with different invariants:")
x = evaluate_beta(scene.expression("figure-eight-x"), atoms)
y = evaluate_beta(scene.expression("figure-eight-y"), atoms)
print("  nodal quartic:      beta =", x, " -> beta_1 =", x.coefficient(1))
print("  tangent circles:    beta =", y, " -> beta_1 =", y.coefficient(1))

print()
print("Punctured spheres versus disjoint affine spaces:")
for n in range(0, 4):
    diff = evaluate_beta(scene.expression(f"sphere-diff-{n}"), atoms)
    affine = evaluate_beta(scene.expression(f"affine-{n + 1}"), atoms)
    print(f"  n={n}:  beta(S^{n + 1} - S^{n}) = {diff},   "
          f"beta(R^{n + 1} + R^{n + 1}) = {affine + affine}")

print()
print("At t = -1 every expression collapses to chi_c; the two are computed")
print("by independent recursions and always agree:")
for name in ("ellipses", "figure-eight-x", "torus-product"):
    e = scene.expression(name)
    print(f"  {name}: beta(-1) = {evaluate_beta(e, atoms).evaluate(-1)}"
          f" = chi_c = {evaluate_chi_c(e, atoms)}")
