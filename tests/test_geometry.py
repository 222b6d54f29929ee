"""Face decompositions: rectangles, H-polytopes, sphere surfaces."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from scipy.spatial import ConvexHull

import oracles
from gaussmax import geometry, streams
from gaussmax.geometry import GeometryKind

SQUARE_HS = [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0],
             [[1.0, 0.0], 1.0], [[0.0, 1.0], 1.0]]
TRIANGLE_HS = [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0], [[1.0, 1.0], 1.0]]
CUBE_HS = [[[-1.0, 0.0, 0.0], 0.0], [[0.0, -1.0, 0.0], 0.0],
           [[0.0, 0.0, -1.0], 0.0], [[1.0, 0.0, 0.0], 1.0],
           [[0.0, 1.0, 0.0], 1.0], [[0.0, 0.0, 1.0], 1.0]]
SIMPLEX_HS = [[[-1.0, 0.0, 0.0], 0.0], [[0.0, -1.0, 0.0], 0.0],
              [[0.0, 0.0, -1.0], 0.0], [[1.0, 1.0, 1.0], 1.0]]


def box_hs(sides, at=0.0):
    """prod_i [at, at + L_i] as 2d halfspaces."""
    d = len(sides)
    return ([[[-1.0 * (i == k) for k in range(d)], -at] for i in range(d)]
            + [[[1.0 * (i == k) for k in range(d)], at + sides[i]]
               for i in range(d)])


def cross_hs(d):
    """The cross-polytope |x|_1 <= 1 as its 2^d facets s . x <= 1."""
    return [[list(signs), 1.0]
            for signs in np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).T.reshape(-1, d)]


def hull_hs(points):
    """conv(points) as the halfspaces of its qhull facets."""
    return [[row[:-1], -row[-1]] for row in ConvexHull(points).equations]


FIVE_CUBE_HS = box_hs([1.0] * 5)
# The 4-d cross-polytope: each edge lies in 4 facets, so its k = 3 normal
# cone is not simplicial.
CROSS4_HS = cross_hs(4)


# ------------------------------------------------------------- rectangles

@pytest.mark.parametrize("sides", [[1.0], [1.0, 1.0], [2.0, 3.0],
                                   [1.0, 2.0, 3.0], [0.5, 1.5, 2.5, 3.5],
                                   [1.0, 2.0, 3.0, 4.0, 5.0]])
def test_rectangle_g_are_elementary_symmetric(sides):
    geom = geometry.rectangle_faces(sides)
    assert geom.kind is GeometryKind.RECTANGLE
    assert geom.d == geom.d0 == len(sides)
    assert geom.kappa == 0.0
    for j in range(len(sides) + 1):
        want = oracles.elementary_symmetric(sides, j)
        assert geom.g[j] == pytest.approx(want, rel=1e-12)


def test_unit_square_and_cube_values():
    sq = geometry.rectangle_faces([1.0, 1.0])
    assert sq.g == pytest.approx((1.0, 2.0, 1.0))
    cube = geometry.rectangle_faces([1.0, 1.0, 1.0])
    assert cube.g == pytest.approx((1.0, 3.0, 3.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(hst.lists(hst.floats(0.1, 10.0), min_size=1, max_size=5))
def test_rectangle_property(sides):
    geom = geometry.rectangle_faces(sides)
    for j in range(len(sides) + 1):
        assert geom.g[j] == pytest.approx(
            oracles.elementary_symmetric(sides, j), rel=1e-9)


def test_rectangle_rejects_bad_sides():
    with pytest.raises(ValueError):
        geometry.rectangle_faces([])
    with pytest.raises(ValueError):
        geometry.rectangle_faces([1.0, -2.0])
    with pytest.raises(ValueError):
        geometry.rectangle_faces([0.0])


# ------------------------------------------------------------ sphere surface

def test_sphere_surface_areas():
    s2 = geometry.sphere_surface(2)
    assert s2.g == pytest.approx((0.0, 2.0 * math.pi))
    assert s2.d == 2 and s2.d0 == 1 and s2.kappa == 0.5
    s3 = geometry.sphere_surface(3)
    assert s3.g[-1] == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert s3.g[:-1] == pytest.approx((0.0, 0.0))
    s4 = geometry.sphere_surface(4)
    assert s4.g[-1] == pytest.approx(2.0 * math.pi ** 2, rel=1e-14)
    assert s4.kind is GeometryKind.SPHERE_SURFACE


def test_sphere_surface_rejects_low_dim():
    with pytest.raises(ValueError):
        geometry.sphere_surface(1)


def test_sphere_surface_high_dimension():
    # log |S^{d-1}| by the recurrence |S^{d-1}| = 2 pi/(d-2) |S^{d-3}| from
    # log |S^1| = log(2 pi); pi^{d/2} and Gamma(d/2) overflow from d = 344.
    assert geometry.sphere_surface(2).g[-1] == pytest.approx(2.0 * math.pi,
                                                             rel=1e-15)
    assert geometry.sphere_surface(3).g[-1] == pytest.approx(4.0 * math.pi,
                                                             rel=1e-15)
    log_area = math.log(2.0 * math.pi) + math.fsum(
        math.log(2.0 * math.pi / (k - 2)) for k in range(4, 401, 2))
    got = geometry.sphere_surface(400).g[-1]
    assert math.log(got) == pytest.approx(log_area, rel=1e-13)
    with pytest.raises(ValueError, match="positive finite"):
        geometry.sphere_surface(10_000)    # underflows to 0


@pytest.mark.parametrize("d", [456, 2 ** 60, 1e308, 10 ** 400],
                         ids=["456", "2^60", "1e308", "10^400"])
def test_sphere_surface_beyond_the_float_range_is_a_valueerror(d):
    # The area is the smallest subnormal at d = 455 and 0 from 456 on;
    # lgamma(d/2) itself overflows near d = 5e305, and 10^400 is no float.
    assert geometry.sphere_surface(455).g[-1] > 0.0
    with pytest.raises(ValueError, match="positive finite"):
        geometry.sphere_surface(d)


# ----------------------------------------------------------- angle boundary

def test_angle_kappa_diverges():
    for theta in [0.1, math.pi / 2, 3.0]:
        assert geometry.kappa_of_angle_boundary(theta) == math.inf
    for theta in [0.0, math.pi, -1.0, 4.0]:
        with pytest.raises(ValueError):
            geometry.kappa_of_angle_boundary(theta)


def test_angle_ratio_same_segment_is_zero():
    # t - s parallel to the segment: distance to its spanning line is 0.
    assert geometry.angle_boundary_ratio(1.0, -0.5, -0.9) == 0.0
    assert geometry.angle_boundary_ratio(2.0, 0.7, 0.2) == 0.0


def test_angle_ratio_cross_segment_blowup():
    # Equal arcs u on both segments: ratio = u sin(theta) / (2u^2 (1-cos t))
    # = sin(theta) / (2 u (1 - cos theta)) -> inf as u -> 0.
    theta = 1.2
    for u in [0.5, 0.1, 0.01]:
        got = geometry.angle_boundary_ratio(theta, -u, u)
        want = math.sin(theta) / (2.0 * u * (1.0 - math.cos(theta)))
        assert got == pytest.approx(want, rel=1e-12)
    small = geometry.angle_boundary_ratio(theta, -1e-6, 1e-6)
    assert small > 1e5


def test_angle_ratio_argument_checks():
    with pytest.raises(ValueError):
        geometry.angle_boundary_ratio(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        geometry.angle_boundary_ratio(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        geometry.angle_boundary_ratio(1.0, 1.5, 0.5)


# -------------------------------------------------------------- H-polytopes

def test_square_polytope_matches_rectangle():
    got = geometry.polytope_g_coeffs(SQUARE_HS, reps=100_000, seed=0)
    want = geometry.rectangle_faces([1.0, 1.0])
    assert got.kind is GeometryKind.H_POLYTOPE
    assert got.d == 2 and got.d0 == 2
    # facets and interior are exact
    assert got.g[1] == pytest.approx(want.g[1], rel=1e-12)
    assert got.g[2] == pytest.approx(want.g[2], rel=1e-12)
    # vertices are Monte Carlo: 4 sigma against the reported stderr
    assert abs(got.g[0] - 1.0) < 4.0 * got.g_stderr[0] + 1e-12
    assert got.g_stderr[0] < 0.01


def test_right_triangle_coefficients():
    got = geometry.polytope_g_coeffs(TRIANGLE_HS, reps=100_000, seed=1)
    # area and half-perimeter are exact
    assert got.g[2] == pytest.approx(0.5, rel=1e-12)
    assert got.g[1] == pytest.approx((2.0 + math.sqrt(2.0)) / 2.0, rel=1e-12)
    # vertex solid angles against the exact 2-d cone angles
    normals = {(0.0, 0.0): ([-1.0, 0.0], [0.0, -1.0]),
               (1.0, 0.0): ([0.0, -1.0], [1.0, 1.0]),
               (0.0, 1.0): ([-1.0, 0.0], [1.0, 1.0])}
    want_g0 = sum(oracles.cone_angle_fraction_2d(a, b)
                  for a, b in normals.values())
    assert want_g0 == pytest.approx(1.0, rel=1e-12)  # angle sum of a triangle
    assert abs(got.g[0] - want_g0) < 4.0 * got.g_stderr[0] + 1e-12


def test_cube_polytope_matches_rectangle():
    got = geometry.polytope_g_coeffs(CUBE_HS, reps=40_000, seed=2)
    assert got.g[3] == pytest.approx(1.0, rel=1e-12)
    assert got.g[2] == pytest.approx(3.0, rel=1e-12)
    # edges: 12 of length 1 with right-angle normal cones, fraction 1/4
    assert abs(got.g[1] - 3.0) < 4.0 * got.g_stderr[1] + 1e-12
    # vertices: 8 octants, fraction 1/8 each
    assert abs(got.g[0] - 1.0) < 4.0 * got.g_stderr[0] + 1e-12


def test_polytope_deterministic_and_seed_sensitive():
    # The 5-cube's edges have 4-d normal cones, which stay Monte Carlo.
    a = geometry.polytope_g_coeffs(FIVE_CUBE_HS, reps=20_000, seed=3)
    b = geometry.polytope_g_coeffs(FIVE_CUBE_HS, reps=20_000, seed=3)
    assert a.g == b.g and a.g_stderr == b.g_stderr
    c = geometry.polytope_g_coeffs(FIVE_CUBE_HS, reps=20_000, seed=4)
    assert c.g != a.g


@pytest.mark.parametrize("hs", [SQUARE_HS, TRIANGLE_HS, CUBE_HS, SIMPLEX_HS,
                                box_hs([0.5, 1.5, 2.5, 3.5]), CROSS4_HS],
                         ids=["square", "triangle", "cube", "simplex",
                              "box4", "cross4"])
def test_polytope_exact_up_to_dimension_four(hs):
    # Every normal cone in d <= 4 has k <= 3 or is a vertex cone, so
    # nothing is sampled and neither reps nor seed can move a coefficient.
    a = geometry.polytope_g_coeffs(hs, reps=1, seed=0)
    b = geometry.polytope_g_coeffs(hs, reps=1000, seed=12345)
    assert a.g == b.g
    assert a.g_stderr == b.g_stderr == (0.0,) * (a.d0 + 1)
    assert a.g[0] == 1.0


def test_simplex_edge_coefficient_is_exact():
    # 3 edges of length 1 with right-angle cones, 3 of length sqrt 2 whose
    # cones open at arccos(-1/sqrt 3).
    got = geometry.polytope_g_coeffs(SIMPLEX_HS, reps=1, seed=0)
    want = 0.75 + 3.0 * math.sqrt(2.0) * math.acos(-1.0 / math.sqrt(3.0)) / (
        2.0 * math.pi)
    assert got.g[1] == pytest.approx(want, rel=0.0, abs=1e-14)
    assert got.g[2] == pytest.approx((3.0 + math.sqrt(3.0)) / 4.0, rel=1e-14,
                                  abs=0.0)
    assert got.g[3] == pytest.approx(1.0 / 6.0, rel=1e-14, abs=0.0)


_BOXES = [[1.3, 0.7], [1.3, 0.7, 2.0], [1.3, 0.7, 2.0, 1.1], [2e9, 3e9],
          [1e-9, 1e-9], [1e-6, 1e-6], [1e-300, 1e-300], [1.0, 1e-8]]
_EXTRAS = ["none", "repeated", "touching", "far"]


@pytest.mark.parametrize("sides, at, extra", [
    *(pytest.param(sides, 0.0, extra, id=f"sides{i}-{extra}")
      for i, sides in enumerate(_BOXES) for extra in _EXTRAS),
    # Unit boxes at (1e9, ...).  No touching row here: its slanted normal is
    # rounded, which at 1e9 moves its plane about 1e-7 into the box.
    *(pytest.param([1.0] * d, 1e9, extra, id=f"at1e9_{d}-{extra}")
      for d in (2, 3) for extra in ("none", "repeated", "far")),
])
def test_boxes_as_halfspaces_equal_rectangle_faces(sides, at, extra):
    # Redundant rows join the active sets: a repeated (and a rescaled)
    # facet, or -(x_0 + x_1) <= 0, which touches the box along x_0 = x_1 = 0;
    # or they lie far out, x_0 <= at + 1e7 L_0 and x_0 <= at + 1e9 L_0.
    # The polytope is scaled by its own inradius about its own center, so
    # neither its size, its place nor far rows matter, and a 1 x 1e-8 box
    # keeps its short edges.
    d = len(sides)
    hs = box_hs(sides, at)
    e0 = [1.0] + [0.0] * (d - 1)
    hs += {"none": [],
           "repeated": [hs[0], [[2.0 * a for a in hs[d][0]], 2.0 * hs[d][1]]],
           "touching": [[[-1.0, -1.0] + [0.0] * (d - 2), 0.0]],
           "far": [[e0, at + 1e7 * sides[0]],
                   [e0, at + 1e9 * sides[0]]]}[extra]
    got = geometry.polytope_g_coeffs(hs, reps=1, seed=0)
    np.testing.assert_allclose(got.g, geometry.rectangle_faces(sides).g,
                               rtol=1e-14, atol=0.0)


def test_far_square_with_touching_row_keeps_exact_offsets():
    # The unit square at (2^30, 2^30) and -(x_0 + x_1) <= -2^31, which
    # touches its corner: the centred offsets 2^-e b - A c cancel in their
    # leading digits, so a float difference would lose ulp(2^30) of them.
    at = 2.0 ** 30
    hs = box_hs([1.0, 1.0], at) + [[[-1.0, -1.0], -2.0 * at]]
    got = geometry.polytope_g_coeffs(hs, reps=1, seed=0)
    assert got.g[1] == pytest.approx(2.0, rel=0.0, abs=1e-12)
    assert got.g[2] == pytest.approx(1.0, rel=0.0, abs=1e-12)


def test_cross_polytope_intrinsic_volumes():
    # Volume 2^4/4! and half of 16 regular tetrahedra of edge sqrt 2; the
    # 32 triangles have dihedral angle 2 pi/3, so external angle 1/6.
    got = geometry.polytope_g_coeffs(CROSS4_HS, reps=1, seed=0)
    assert got.g[4] == pytest.approx(2.0 / 3.0, rel=1e-14, abs=0.0)
    assert got.g[3] == pytest.approx(8.0 / 3.0, rel=1e-14, abs=0.0)
    assert got.g[2] == pytest.approx(32.0 * math.sqrt(3.0) / 2.0 / 6.0,
                                     rel=1e-14, abs=0.0)


def test_segment_coefficients():
    got = geometry.polytope_g_coeffs([[[1.0], 2.0], [[-1.0], 0.0]], reps=1,
                                     seed=0)
    assert got.g == (1.0, 2.0) and got.g_stderr == (0.0, 0.0)


def _hull_cases():
    rng = np.random.default_rng(7)
    for d in range(2, 7):
        points = rng.standard_normal((d + 6, d))
        yield pytest.param(points, hull_hs(points), id=f"random{d}")
    for d in (5, 6):
        yield pytest.param(np.vstack([np.eye(d), -np.eye(d)]), cross_hs(d),
                           id=f"cross{d}")


@pytest.mark.parametrize("points, hs", _hull_cases())
def test_top_coefficients_are_hull_volume_and_half_area(points, hs):
    # g_d is the volume; each facet has external angle 1/2.
    hull = ConvexHull(points)
    d = points.shape[1]
    got = geometry.polytope_g_coeffs(hs, reps=10, seed=0)
    assert got.g[d] == pytest.approx(hull.volume, rel=1e-12, abs=0.0)
    assert got.g[d - 1] == pytest.approx(hull.area / 2.0, rel=1e-12, abs=0.0)


def test_six_cross_polytope_volume():
    got = geometry.polytope_g_coeffs(cross_hs(6), reps=10, seed=0)
    assert got.g[6] == pytest.approx(64.0 / 720.0, rel=1e-14, abs=0.0)


def _many_facet_hulls():
    # Random hulls with 41 to 125 facets.
    for d, n, k in [(5, 11, 0), (5, 14, 0), (5, 17, 0), (6, 10, 2), (6, 12, 0),
                    (6, 15, 1)]:
        points = np.random.default_rng(100 * d + 10 * n + k).standard_normal((n, d))
        yield pytest.param(points, id=f"hull{d}_{n}")


@pytest.mark.parametrize("points", _many_facet_hulls())
def test_many_facet_hulls_in_five_and_six_dimensions(points):
    hull = ConvexHull(points)
    d = points.shape[1]
    hs = hull_hs(points)
    assert 40 <= len(hs) <= 130
    # The vertices come back about their mean and scaled by 2^-e; each is
    # one of the hull's points, to the geometry's tolerance.
    A, b = geometry._normalize_halfspaces(hs)
    verts, _, e = geometry._vertices(A, b)
    got = np.ldexp(verts, e)
    want = points[hull.vertices]
    assert len(got) == len(want)
    gaps = np.linalg.norm((got - got.mean(axis=0))[:, None]
                          - (want - want.mean(axis=0))[None], axis=2)
    assert gaps.min(axis=0).max() <= geometry._GEOM_TOL * np.abs(want).max()
    geom = geometry.polytope_g_coeffs(hs, reps=10, seed=0)
    assert geom.g[d] == pytest.approx(hull.volume, rel=1e-12, abs=0.0)
    assert geom.g[d - 1] == pytest.approx(hull.area / 2.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d, n, seed", [(3, 12, 0), (4, 12, 1), (5, 11, 2),
                                        (6, 10, 3)])
def test_pyramid_measures_equal_qhull_volumes(d, n, seed):
    # Every face j >= 2 of a random hull, measured from its facets by the
    # pyramid formula, against the hull volume in its own affine hull.
    points = np.random.default_rng(seed).standard_normal((n, d))
    A, b = geometry._normalize_halfspaces(hull_hs(points))
    verts, offsets, _ = geometry._vertices(A, b)
    tol = geometry._GEOM_TOL * np.abs(verts).max()
    tight = np.abs(verts @ A.T - offsets) <= tol
    dims, facets = geometry._face_lattice(verts, tight, tol)
    measures = geometry._face_measures(verts, dims, facets)
    for face, j in dims.items():
        if j >= 2:
            want = oracles.face_measure_qhull(verts[sorted(face)], j)
            assert measures[face] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_face_lattice_ranks_each_cut_once(monkeypatch):
    # 151 facets and 1,567 faces.  Each cut of a face by a row is itself a
    # face, and each is ranked once for the whole descent: one SVD for each
    # of the 1,566 faces below the hull (2,834 when ranked per level).
    hs = hull_hs(np.random.default_rng(5).standard_normal((15, 6)))
    A, b = geometry._normalize_halfspaces(hs)
    verts, offsets, _ = geometry._vertices(A, b)
    tol = geometry._GEOM_TOL * np.abs(verts).max()
    tight = np.abs(verts @ A.T - offsets) <= tol
    ranked, matrix_rank = [], np.linalg.matrix_rank

    def counted(M, tol=None):
        ranked.append(M.shape)
        return matrix_rank(M, tol=tol)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    dims, _ = geometry._face_lattice(verts, tight, tol)
    monkeypatch.undo()
    assert len(ranked) == len(dims) - 1 == 1566
    got = geometry.polytope_g_coeffs(hs, reps=10, seed=0)
    assert [g.hex() for g in got.g] == [
        "0x1.0000000000000p+0", "0x1.703a7f96ced47p+2", "0x1.95ed3b8ff77bbp+4",
        "0x1.6b613ec4d1658p+5", "0x1.3e5c3bff589b9p+5", "0x1.37dc2299e0260p+4",
        "0x1.21d0ca6a25ce9p+2"]


def test_thin_box_with_far_rows_equals_rectangle_faces():
    # At the scale of the largest offset, 1e9, the 1 x 1e-8 box is 1e-17
    # thick, below the rays' tolerance; its center is found again at the
    # scale of the smallest nonzero offset, 1e-8.
    hs = box_hs([1.0, 1e-8]) + [[[1.0, 0.0], 1e7], [[1.0, 0.0], 1e9]]
    got = geometry.polytope_g_coeffs(hs, reps=1, seed=0)
    np.testing.assert_allclose(got.g, geometry.rectangle_faces([1.0, 1e-8]).g,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("hs", [
    *(pytest.param(hull_hs(np.random.default_rng(seed).standard_normal((n, d))),
                   id=f"random{d}")
      for d, n, seed in [(2, 9, 0), (3, 10, 1), (4, 9, 2), (5, 8, 3)]),
    pytest.param(CROSS4_HS, id="cross4"),
    pytest.param(box_hs([1.3, 0.7, 2.0]) + [[[-1.0, -1.0, 0.0], 0.0],
                                            [[-1.0, 0.0, 0.0], 0.0]],
                 id="box3_touching_repeated"),
])
def test_vertices_equal_brute_force(hs):
    # Bit for bit: each vertex is solved from the same rows as in the
    # exhaustive search, so the order and the coordinates agree.
    A, b = geometry._normalize_halfspaces(hs)
    verts, offsets, _ = geometry._vertices(A, b)
    np.testing.assert_array_equal(
        verts, oracles.polytope_vertices_brute(A, offsets))


@pytest.mark.parametrize("signs", [(1.0, 1.0), (1.0, -1.0)])
def test_cone_fraction_matches_nnls_hit_for_hit(signs):
    # The 5-cross-polytope's edge from s_0 e_0 to s_1 e_1 lies in the 8
    # facets with those two signs: its 4-d normal cone has 8 generators.
    A, _ = geometry._normalize_halfspaces(cross_hs(5))
    gens_full = A[(A[:, 0] * signs[0] > 0) & (A[:, 1] * signs[1] > 0)]
    gens = gens_full @ np.linalg.svd(gens_full)[2][:4].T
    reps = 200
    for window in range(50):
        frac, _ = geometry._cone_fraction(gens, 4, reps, 5, window)
        z = streams.normals(5, streams.DOMAIN_DIRECTIONS, window * reps, reps, 4)
        u = z / np.linalg.norm(z, axis=1)[:, None]
        assert round(frac * reps) == oracles.cone_hits_nnls(gens, u).sum()


# ------------------------------------------------ exact external angles


def vertex_cones(points):
    """(generators, inner direction) of each vertex normal cone of a hull."""
    hull = ConvexHull(points)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    center = points[hull.vertices].mean(axis=0)
    for v in points[hull.vertices]:
        act = np.abs(normals @ v + offsets) <= 1e-9
        yield normals[act], v - center


def exact_fraction(gens, inner):
    helper = {2: geometry._wedge_fraction, 3: geometry._solid_fraction}
    return helper[gens.shape[1]](gens, inner)


@settings(max_examples=60, deadline=None)
@given(d=hst.sampled_from([2, 3]), n=hst.integers(4, 24),
       seed=hst.integers(0, 2 ** 32 - 1))
def test_vertex_angles_sum_to_one(d, n, seed):
    # Gauss-Bonnet for polytopes: the vertex normal cones tile R^d.
    points = np.random.default_rng(seed).standard_normal((n, d))
    total = math.fsum(exact_fraction(gens, inner)
                      for gens, inner in vertex_cones(points))
    assert total == pytest.approx(1.0, rel=0.0, abs=1e-14)


def _unit(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


_PENTAGON = [[0.6 * math.cos(t), 0.6 * math.sin(t), 1.0]
             for t in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)]
_SKEW = [[1.0, 0.2, 0.1], [0.3, 1.0, 0.4], [-0.2, 0.5, 1.0]]


@pytest.mark.parametrize("ring, want", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 1.0 / 8.0),
    ([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0]],
     1.0 / 6.0),           # a cube's face seen from its center
    (_PENTAGON, None),
    (_SKEW, None),
], ids=["octant", "cube_face", "pentagon", "skew"])
@pytest.mark.parametrize("redundant", [False, True], ids=["plain", "redundant"])
def test_solid_fraction_matches_girard(ring, want, redundant):
    ring = _unit(ring)
    girard = oracles.cone_solid_angle_fraction_3d(ring)
    if want is not None:
        assert girard == pytest.approx(want, rel=1e-14, abs=0.0)
    gens = ring * np.linspace(0.5, 2.0, len(ring))[:, None]
    if redundant:
        # Interior and boundary generators, a repeated ray, shuffled order.
        extra = [ring.sum(axis=0), ring[0] + ring[1], 3.0 * ring[1]]
        gens = np.random.default_rng(0).permutation(np.vstack([gens, extra]))
    got = geometry._solid_fraction(gens, ring.sum(axis=0))
    assert got == pytest.approx(girard, rel=1e-13, abs=0.0)


def test_wedge_fraction_with_redundant_rows():
    a, b = np.array([1.0, 0.0]), np.array([math.cos(2.0), math.sin(2.0)])
    gens = np.array([a + b, 2.0 * b, a, 0.5 * a + b])
    want = oracles.cone_angle_fraction_2d(a, b)
    got = geometry._wedge_fraction(gens, a + b)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d, n, seed", [(2, 7, 3), (3, 9, 4)])
def test_exact_angles_within_four_sigma_of_sampler(d, n, seed):
    points = np.random.default_rng(seed).standard_normal((n, d))
    for i, (gens, inner) in enumerate(vertex_cones(points)):
        frac, se = geometry._cone_fraction(gens, d, 4000, seed, i)
        assert abs(exact_fraction(gens, inner) - frac) <= 4.0 * se


def test_polytope_invariant_to_halfspace_scaling():
    scaled = [[[10.0 * a for a in row], 10.0 * off] for row, off in SQUARE_HS]
    a = geometry.polytope_g_coeffs(SQUARE_HS, reps=20_000, seed=5)
    b = geometry.polytope_g_coeffs(scaled, reps=20_000, seed=5)
    np.testing.assert_allclose(a.g, b.g, rtol=1e-12)


@pytest.mark.parametrize("scale", [1e300, 1e-320])
def test_polytope_halfspaces_near_the_float_limits(scale):
    # The row norms of these normals overflow (or underflow) as a plain
    # sum of squares; the triangle must still give its unscaled g exactly.
    tri = [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0], [[1.0, 1.0], 1.0]]
    scaled = [[[scale * a for a in row], scale * off] for row, off in tri]
    got = geometry.polytope_g_coeffs(scaled, reps=1000, seed=1)
    want = geometry.polytope_g_coeffs(tri, reps=1000, seed=1)
    assert got.g == want.g
    assert want.g == pytest.approx((1.0, 1.0 + math.sqrt(0.5), 0.5),
                                   rel=1e-15)


def test_polytope_rejects_unbounded():
    # Missing the upper bounds: a quadrant, unbounded.
    with pytest.raises(ValueError, match="unbounded"):
        geometry.polytope_g_coeffs(
            [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0], [[-1.0, -1.0], 1.0]],
            reps=100, seed=0)


@pytest.mark.parametrize("hs", [
    [[[1.0, 0.0], 1.0], [[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0]],
    [[[1.0, 0.0], 1.0], [[-1.0, 0.0], 0.0], [[1.0, 0.0], 2.0]],
], ids=["half_strip", "strip"])
def test_polytope_rejects_strip(hs):
    # Bounded inradius, so the Chebyshev center exists, but y is free.
    with pytest.raises(ValueError, match="unbounded"):
        geometry.polytope_g_coeffs(hs, reps=100, seed=0)


def test_polytope_rejects_empty_and_degenerate():
    with pytest.raises(ValueError, match="empty"):
        geometry.polytope_g_coeffs(
            [[[1.0, 0.0], -1.0], [[-1.0, 0.0], -1.0],
             [[0.0, 1.0], 1.0], [[0.0, -1.0], 1.0]],
            reps=100, seed=0)  # x <= -1 and x >= 1: empty
    with pytest.raises(ValueError, match="not full-dimensional"):
        geometry.polytope_g_coeffs(
            [[[1.0, 0.0], 0.0], [[-1.0, 0.0], 0.0],
             [[0.0, 1.0], 1.0], [[0.0, -1.0], 1.0]],
            reps=100, seed=0)  # x = 0 slab: not full-dimensional
    # The scale is free, but not the aspect ratio: a 1 x 1e-9 box is as far
    # from its center in inradii as a strip, and is rejected like one.
    with pytest.raises(ValueError, match="not full-dimensional"):
        geometry.polytope_g_coeffs(box_hs([1.0, 1e-9]), reps=100, seed=0)


def test_polytope_rejects_too_few_halfspaces_and_high_dim():
    with pytest.raises(ValueError):
        geometry.polytope_g_coeffs([[[1.0, 0.0], 1.0], [[-1.0, 0.0], 0.0]],
                                   reps=100, seed=0)
    d = geometry.MAX_POLYTOPE_DIM + 1
    box = ([[[-(i == k) * 1.0 for k in range(d)], 0.0] for i in range(d)]
           + [[[(i == k) * 1.0 for k in range(d)], 1.0] for i in range(d)])
    with pytest.raises(ValueError):
        geometry.polytope_g_coeffs(box, reps=100, seed=0)


# ------------------------------------------------- decomposition invariants

def test_face_decomposition_validation():
    with pytest.raises(ValueError):
        geometry.FaceDecomposition(d=2, g=(1.0, 2.0, 1.0, 1.0), kappa=0.0,
                                   kind=GeometryKind.RECTANGLE)  # len > d+1
    with pytest.raises(ValueError):
        geometry.FaceDecomposition(d=2, g=(), kappa=0.0,
                                   kind=GeometryKind.RECTANGLE)
    with pytest.raises(ValueError):
        geometry.FaceDecomposition(d=2, g=(1.0, -2.0, 1.0), kappa=0.0,
                                   kind=GeometryKind.RECTANGLE)
    with pytest.raises(ValueError):
        geometry.FaceDecomposition(d=2, g=(1.0, 2.0, 1.0), kappa=-1.0,
                                   kind=GeometryKind.RECTANGLE)
