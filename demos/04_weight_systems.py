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
    check_conditions,
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
    sols, [LinearConstraint((((2, 1), 1),), ">=", 3, "independent pairwise classes")]
)
print("  survivors:", len(result.survivors), "-> the system is infeasible;")
print("  no natural weight filtration computes these virtual Betti numbers.")

print()
print("The sub-unions behave the same way:")
show("surface-sub12")
sub13 = show("surface-sub13")
kept = constraint_filter(
    sub13, [LinearConstraint((((1, 0), 1),), "==", 0, "H^1 injects into the torus")]
)
print("  after w10 = 0:", [s.rows for s in kept.survivors])

print()
print("A compact nonsingular model wants the diagonal profile:")
torus_sols = show("torus")
report = check_conditions(torus_sols[0], scene.weight_input("torus"),
                          ("manifold", "virtual-betti", "compact-nonsingular"))
for flag, verdict in report.items():
    print(f"  {flag}: {'holds' if verdict.holds else 'fails'} ({verdict.detail})")
