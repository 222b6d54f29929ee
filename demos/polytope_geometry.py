"""Face-decomposition coefficients of rectangles and general polytopes.

The bounds weight every face of the parameter set by its measure times the
normalized solid angle of its normal cone (its external angle).  For
rectangles those coefficients are elementary symmetric polynomials of the
side lengths.  For general H-polytopes the external angles have closed forms
wherever the face's normal space has dimension k <= 3 (1/2, theta/(2 pi),
Omega/(4 pi)), and g_0 = 1 for every convex polytope; only faces with
k >= 4, which exist in dimensions 5 and 6, are estimated by sampling random
directions.  Every polytope below is therefore exact.
"""
from gaussmax import geometry

print("rectangle [0,1.5] x [0,0.7]: exact coefficients")
rect = geometry.rectangle_faces([1.5, 0.7])
for j in range(rect.d0 + 1):
    print(f"  g_{j} = {float(rect.g[j]):.6f}")

print("\nsame rectangle through its four halfspaces (exact external angles)")
hs = [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0],
      [[1.0, 0.0], 1.5], [[0.0, 1.0], 0.7]]
est = geometry.polytope_g_coeffs(hs, reps=400_000, seed=12)
for j in range(est.d0 + 1):
    se = float(est.g_stderr[j])
    tag = "exact" if se == 0.0 else f"se {se:.5f}"
    print(f"  g_{j} = {float(est.g[j]):.6f}  ({tag})")

print("\nright triangle x >= 0, y >= 0, x + y <= 1:")
tri = geometry.polytope_g_coeffs(
    [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0], [[1.0, 1.0], 1.0]],
    reps=400_000, seed=12)
for j in range(tri.d0 + 1):
    print(f"  g_{j} = {float(tri.g[j]):.6f}")
print("  (vertex angles sum to one full turn: g_0 = 1 for every convex polygon;")
print("   g_1 = half the perimeter; g_2 = the area)")

print("\nunit cube through its six bounding halfspaces:")
cube_hs = ([[[-1.0 if i == k else 0.0 for i in range(3)], 0.0] for k in range(3)]
           + [[[1.0 if i == k else 0.0 for i in range(3)], 1.0] for k in range(3)])
cube = geometry.polytope_g_coeffs(cube_hs, reps=200_000, seed=12)
exact = geometry.rectangle_faces([1.0, 1.0, 1.0])
for j in range(cube.d0 + 1):
    print(f"  g_{j} = {float(cube.g[j]):.6f}   (exact {float(exact.g[j]):.1f})")
