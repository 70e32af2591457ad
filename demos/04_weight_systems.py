"""Weight-filtration arithmetic: which triangular profiles are possible?

Given b and beta, a candidate weight profile is a nonnegative triangular
array whose diagonals sum to the Betti numbers and whose rows alternate-sum
to the virtual Betti numbers.  Listing all of them (a pruned search finds
each one, here in a handful of steps) and then intersecting with linear
constraints reproduces the obstruction arguments for the normal-crossing
surface.
"""

from virtbetti.fixtures import builtin_scene
from virtbetti.weights import (
    LinearConstraint,
    constraint_filter,
    solve_weight_system,
)

scene = builtin_scene()


def show(name):
    inp = scene.weight_input(name)
    sols = solve_weight_system(inp)
    print(f"{name}: b = {list(inp.b)}, beta = {list(inp.beta)} "
          f"-> {len(sols)} solution(s)")
    for k, w in enumerate(sols):
        print(f"  solution {k + 1}:")
        for line in w.triangle_lines():
            print("   ", line)
    return sols


print("The surface with b = (1,1,8), beta = (4,-1,3):")
sols = show("surface-443")

print()
print("Constraint from naturality: the three pairwise classes stay")
print("independent in weight 1, so w21 >= 3.  Filtering:")
result = constraint_filter(
    sols, [LinearConstraint((((2, 1), 1),), ">=", 3, "independent pairwise classes")], 2
)
print("  survivors:", len(result.survivors), "-> the system is infeasible;")
print("  no natural weight filtration computes these virtual Betti numbers.")

print()
print("The sub-unions behave the same way:")
show("surface-sub12")
sub13 = show("surface-sub13")
kept = constraint_filter(
    sub13, [LinearConstraint((((1, 0), 1),), "==", 0, "H^1 injects into the torus")], 2
)
print("  after w10 = 0:", [s.rows for s in kept.survivors])

print()
print("A compact nonsingular model wants the diagonal profile:")
torus_sols = show("torus")
torus = scene.weight_input("torus")
for condition, verdict in (
    ("manifold", torus_sols[0].check_manifold()),
    ("virtual Betti", torus_sols[0].check_virtual_betti(torus.beta)),
    ("compact nonsingular", torus_sols[0].check_compact_nonsingular(torus)),
):
    print(f"  {condition}: {'holds' if verdict.holds else 'fails'} ({verdict.detail})")
