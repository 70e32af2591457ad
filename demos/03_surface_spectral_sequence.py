"""The normal-crossing surface and its Mayer-Vietoris spectral sequence.

Two spheres and a torus in 3-space: each pair meets in a circle, all three
circles pass through the same four points.  The cover by the three closed
pieces produces a double complex of GF(2) cochains whose spectral sequence
converges to the cohomology of the union; its first two pages remember the
virtual Betti numbers and its limit does not.
"""

from virtbetti.fixtures import builtin_scene
from virtbetti.spectral import MVSpectralSequence, row_alternating_sums

scene = builtin_scene()
arr = scene.arrangement("surface-443")
total = scene.complex("surface-443")

print("The assembled surface:", total)
print("  b =", tuple(total.betti_mod2()), " chi =", total.euler_characteristic())
for name, piece in arr.pieces:
    print(f"  piece {name}: b = {tuple(piece.as_complex().betti_mod2())}")

beta = arr.virtual_betti()
print()
print("Virtual Betti numbers by inclusion-exclusion over the pieces:")
print("  beta =", beta)

ss = MVSpectralSequence(arr)
print()
for r in (1, 2, 3):
    for line in ss.page(r).table_lines():
        print(line)
    print("  row alternating sums:", row_alternating_sums(ss.page(r)))
    print()

print("d_2 from (0,1) to (2,0) has rank", ss.d_rank(2, 0, 1))
cert = ss.stabilization_certificate()
print("stabilization:", cert.detail)
print("converged b =", tuple(ss.converged_betti()), "(matches direct homology)")

profile = ss.filtration_profile()
print()
print("Induced filtration profile w(i,j) = dim E_inf^(i-j,j):")
for i in range(profile.n, -1, -1):
    print(f"  i={i}:", " ".join(str(profile.value(i, j)) for j in range(i + 1)))
verdict = profile.check_virtual_betti(beta.coeffs)
print("virtual Betti condition on the limit:", verdict.detail)
print()
print("So the rows of E_1 and E_2 alternate-sum to the virtual Betti numbers,")
print("but after the rank-1 d_2 the limit filtration no longer does.")
