"""Face decompositions of parameter sets: measures, solid angles, g-coefficients.

A compact parameter set S in R^d is described by its faces S_j (relative
interiors of dimension-j strata).  The density bounds consume only the
summary coefficients

    g_j = sum over j-faces F of  (j-measure of F) * sigma_hat_j(F),

where sigma_hat_j is the fraction of the unit sphere of the face's normal
space occupied by the outward normal cone (the external angle, so the g_j
are intrinsic volumes).  For a rectangle these are exact elementary
symmetric polynomials of the side lengths.  For a general bounded
H-polytope one qhull hull of the polar gives the vertices, and the faces
follow from the vertex-row incidences.  The external angles are exact
wherever the normal space has dimension k <= 3: 1/2 at k = 1,
theta/(2 pi) at k = 2 and Omega/(4 pi) at k = 3; g_0 = 1 because the
vertex normal cones tile R^d.  Only faces with k >= 4, which exist in
d = 5 and 6, are estimated by Monte Carlo with reported standard errors.

kappa is the curvature regularity parameter of the set: 0 for convex sets,
+inf for sets with inward corners ("whiskers"), 1/2 for the unit sphere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import streams
from .hermite import _check_int, _finite

MAX_POLYTOPE_DIM = 6
_GEOM_TOL = 1e-9


class GeometryKind(str, Enum):
    RECTANGLE = "rectangle"
    H_POLYTOPE = "h_polytope"
    SPHERE_SURFACE = "sphere_surface"


@dataclass(frozen=True)
class FaceDecomposition:
    """Summary geometry of a parameter set.

    Attributes
    ----------
    d : ambient dimension.
    g : tuple of 1 to d+1 nonnegative reals (g_0 .. g_{d0}).
    kappa : curvature regularity parameter (0 convex, may be +inf).
    kind : GeometryKind.
    g_stderr : per-coefficient MC standard errors for H-polytopes, 0.0 for
        each exact coefficient; None for kinds that are exact throughout.
    sides : rectangle side lengths (rectangle kind only).

    ``d0``, the largest dimension with a nonempty face, is ``len(g) - 1``.
    """

    d: int
    g: tuple
    kappa: float
    kind: GeometryKind
    g_stderr: tuple | None = None
    sides: tuple | None = None

    def __post_init__(self):
        d = _check_int(self.d, 1, math.inf, "d")
        _finite(self.g, "every g coefficient", 0.0)
        _finite(self.kappa, "kappa", 0.0, math.inf)
        if not 1 <= len(self.g) <= d + 1:
            raise ValueError("g must have between 1 and d + 1 entries")

    @property
    def d0(self) -> int:
        return len(self.g) - 1


def rectangle_faces(sides) -> FaceDecomposition:
    """Exact face decomposition of the box prod_i [0, L_i].

    Each j-face has normal-cone solid angle 2^{-(d-j)} and the 2^{d-j}
    parallel copies of each coordinate choice sum to the elementary symmetric
    polynomial: g_j = e_j(L_1, ..., L_d).  In particular g_0 = 1 and
    g_d = prod L_i.
    """
    sides = tuple(np.atleast_1d(_finite(sides, "side lengths")).tolist())
    if not sides or not all(s > 0 for s in sides):
        raise ValueError("need one or more side lengths, all positive")
    coeffs = [1.0]
    for length in sides:
        # multiply the generating polynomial by (1 + length * z)
        coeffs = [c + length * (coeffs[i - 1] if i > 0 else 0.0)
                  for i, c in enumerate(coeffs)] + [length * coeffs[-1]]
    d = len(sides)
    return FaceDecomposition(d=d, g=tuple(coeffs), kappa=0.0,
                             kind=GeometryKind.RECTANGLE, sides=sides)


_SPHERE_UNDERFLOW_D = 456


def sphere_surface(d: int) -> FaceDecomposition:
    """The unit sphere S^{d-1} in R^d: one (d-1)-dimensional stratum.

    g_{d-1} is the total surface measure 2 pi^{d/2} / Gamma(d/2); there are
    no lower-dimensional faces.  The polyhedral density bound does not apply
    to this kind (use the dedicated sphere evaluator in the bounds module);
    the decomposition exists for bookkeeping and the CLI.  kappa = 1/2: for
    s, t on the sphere, dist(t - s, T_t) / ||t - s||^2 = (1-cos theta) /
    (2(1-cos theta)).
    """
    d = _check_int(d, 2, math.inf, "sphere dimension")
    # In log space: pi^{d/2} and Gamma(d/2) overflow separately from d = 344.
    # The area falls for d >= 8 and leaves the floats from d = 456 on, so a
    # larger d is not passed to lgamma, which overflows from d/2 ~ 2.6e305.
    area = (2.0 * math.exp(d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0))
            if d < _SPHERE_UNDERFLOW_D else 0.0)
    if not 0.0 < area < math.inf:
        raise ValueError(f"the surface measure of S^{d - 1} is not a positive "
                         f"finite float (got {area!r})")
    g = (0.0,) * (d - 1) + (area,)
    return FaceDecomposition(d=d, g=g, kappa=0.5,
                             kind=GeometryKind.SPHERE_SURFACE)


def kappa_of_angle_boundary(theta: float) -> float:
    """kappa of the boundary of a planar angle: two segments joined at a corner.

    For every opening theta in (0, pi) the curvature functional diverges:
    take t on one segment and s on the other, both at arc u from the corner;
    then dist(t - s, C_t) ~ u sin(theta) while ||t - s||^2 ~ 2u^2(1-cos theta),
    so the ratio grows like 1/u.  Restricted to s, t on the *same* segment the
    ratio is identically 0 (t - s lies in the segment's feasible line); see
    :func:`angle_boundary_ratio`.
    """
    if not 0.0 < _finite(theta, "theta") < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    return math.inf


def angle_boundary_ratio(theta: float, t_arc: float, s_arc: float) -> float:
    """The ratio dist(t - s, C_t) / ||s - t||^2 for the two-segment angle set.

    The set is two unit segments joined at the origin with opening ``theta``;
    points are addressed by signed arc length (negative on the first segment,
    positive on the second).  ``t`` must lie in the relative interior of a
    segment (t_arc != 0), where the feasible-direction cone C_t is the
    segment's spanning line.
    """
    theta = _finite(theta, "theta")
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    t_arc = _finite(t_arc, "t_arc", -1.0, 1.0)
    s_arc = _finite(s_arc, "s_arc", -1.0, 1.0)
    if t_arc == 0.0:
        raise ValueError("t must lie in a segment's relative interior (t_arc != 0)")
    if t_arc == s_arc:
        raise ValueError("s and t must differ")
    e1 = np.array([1.0, 0.0])
    e2 = np.array([math.cos(theta), math.sin(theta)])

    def point(arc):
        return (-arc) * e1 if arc < 0 else arc * e2

    axis = e1 if t_arc < 0 else e2
    diff = point(t_arc) - point(s_arc)
    dist = abs(diff[0] * axis[1] - diff[1] * axis[0])  # distance to span(axis)
    return float(dist / (diff @ diff))


# ---------------------------------------------------------------------------
# H-polytopes


def _normalize_halfspaces(halfspaces):
    rows = []
    offs = []
    for a, b in halfspaces:
        a = np.ravel(_finite(a, "every halfspace normal"))
        # Scaled by a power of two first, so entries near the float maximum
        # do not overflow the sum of squares; the scaling is exact.
        e = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
        norm = math.ldexp(float(np.linalg.norm(np.ldexp(a, -e))), e)
        if not norm > 0:
            raise ValueError("each halfspace needs a nonzero normal")
        rows.append(a / norm)
        offs.append(_finite(b, "every halfspace offset") / norm)
    A = np.array(rows)
    b = np.array(offs)
    if A.ndim != 2 or b.ndim != 1:
        raise ValueError("halfspace normals must share one dimension, and "
                         "each offset must be one number")
    return A, b


def _vertices(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(verts, offsets, e) of {A x <= b} moved to its Chebyshev center c and
    scaled by 2^-e, for the e that puts its inradius in [1/4, 1/2): the set
    is {z : A z <= offsets} with offsets = 2^-e b - A c (each rounded once
    from its exact value), and verts are its vertices, sorted
    lexicographically.  ValueError unless the set is nonempty,
    full-dimensional and bounded.

    HiGHS, with absolute tolerances, finds c with the largest offset at 1,
    or, if the inradius r is below 2^-20 there (far redundant rows), with
    the smallest nonzero one at 1.  About c the set is {z : y_i . z <= 1}
    with y_i = a_i / offset_i.  Each facet n . y + e = 0 of the polar hull
    conv(y_i) (qhull; Barber, Dobkin & Huhdanpaa, ACM TOMS 22, 1996) is dual
    to the vertex -n / e, at distance -1/e from c.  The set is bounded iff
    the origin lies strictly inside the hull; a vertex farther than
    r / _GEOM_TOL means a free direction or a flat set, which cannot be told
    apart at that aspect ratio.  Working about c keeps the coordinates, and
    so the tolerance 1e-9 max|vertex|, at the set's own size wherever it
    lies.  Copies from qhull triangulating the facet of a non-simple vertex
    are merged, and each vertex is re-solved from the first full-rank
    d-subset of its active rows, free of the hull's rounding.
    """
    from fractions import Fraction

    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, QhullError

    m, d = A.shape

    def center(e):  # max r s.t. A x + r <= 2^-e b (rows are unit normals)
        res = linprog(c=np.r_[np.zeros(d), -1.0], A_ub=np.c_[A, np.ones(m)],
                      b_ub=np.ldexp(b, -e), method="highs",
                      bounds=[(None, None)] * d + [(0, None)])
        if res.status == 2:
            raise ValueError("empty polytope (infeasible halfspace system)")
        if res.status == 3 or not res.success:
            raise ValueError("degenerate halfspace system (no Chebyshev center)")
        return res.x[:d], -res.fun, e

    top = math.frexp(np.abs(b).max())[1] - 1020     # 2^-e b stays finite
    c, r, e = center(top + 1020)
    if r < 2.0 ** -20 and b.any():
        c, r, e = center(max(math.frexp(np.abs(b[b != 0]).min())[1], top))
    k = max(math.frexp(r)[1] + 1, top - e)
    c, e = np.ldexp(c, -k), e + k
    # 2^-e b_i - a_i . c in exact rationals, rounded once: far from the
    # origin the two parts agree in their leading digits, and a float
    # difference would keep only ulp(|c|) of the offset.
    b = np.array([float(Fraction(bi) - sum(Fraction(x) * Fraction(y)
                                           for x, y in zip(ai, c)))
                  for ai, bi in zip(A, np.ldexp(b, -e))])
    r = float(b.min())
    if r <= _GEOM_TOL:
        raise ValueError(f"degenerate polytope: not full-dimensional (inradius "
                         f"{r:.2e} after scaling by 2^{-e})")
    y = A / b[:, None]
    try:
        eq = (np.array([[1.0, -y.max()], [-1.0, y.min()]]) if d == 1
              else ConvexHull(y).equations)
    except QhullError:          # the y_i span a hyperplane at most
        eq = np.zeros((1, d + 1))
    if eq[:, -1].max() >= -_GEOM_TOL / r:
        raise ValueError("degenerate polytope: unbounded or not full-dimensional"
                         " (a vertex beyond 1e9 inradii from the center)")
    found = -eq[:, :-1] / eq[:, -1:]
    # One tolerance: the hull's rounding error scales with the largest vertex.
    tol = _GEOM_TOL * np.abs(found).max()
    verts = []
    while len(found):
        v = found[0]
        found = found[np.linalg.norm(found - v, axis=1) > tol]
        basis = []
        for i in np.flatnonzero(np.abs(A @ v - b) <= tol):
            if np.linalg.matrix_rank(A[basis + [i]], tol=_GEOM_TOL) > len(basis):
                basis.append(i)
        verts.append(np.linalg.solve(A[basis], b[basis]))
    verts.sort(key=lambda v: tuple(v))
    return np.array(verts), b, e


def _face_measure(verts: np.ndarray, j: int) -> float:
    """j-measure of the face with these vertices: an edge's length, or for
    j >= 2 the hull volume in SVD coordinates of the affine hull."""
    if j == 1:
        return float(np.linalg.norm(verts[1] - verts[0]))
    from scipy.spatial import ConvexHull

    centered = verts - verts.mean(axis=0)
    basis = np.linalg.svd(centered, full_matrices=False)[2][:j]
    return float(ConvexHull(centered @ basis.T).volume)


def _wedge_fraction(gens: np.ndarray, inner: np.ndarray) -> float:
    """theta/(2 pi) for the cone in R^2 spanned by the rows of ``gens``.

    ``inner`` is any vector with inner . g > 0 for every row.  Seen from it,
    each generator's angle lies in (-pi/2, pi/2) and grows with
    (inner x g)/(inner . g), so the extreme pair is that ratio's argmin and
    argmax; redundant rows between them do not matter.
    """
    slope = (inner[0] * gens[:, 1] - inner[1] * gens[:, 0]) / (gens @ inner)
    a, b = gens[np.argmin(slope)], gens[np.argmax(slope)]
    theta = math.atan2(abs(a[0] * b[1] - a[1] * b[0]), float(a @ b))
    return theta / (2.0 * math.pi)


def _solid_fraction(gens: np.ndarray, inner: np.ndarray) -> float:
    """Omega/(4 pi) for the cone in R^3 spanned by the rows of ``gens``.

    ``inner`` is any vector with inner . g > 0 for every row.  Projecting
    each generator centrally onto the plane inner . y = 1 maps the cone to a
    convex polygon whose vertices are the extreme generators; the 2-D hull
    lists them in cyclic order.  The fan of triangles (e_0, e_i, e_{i+1})
    tiles the cone, and each triangle of unit generators a, b, c has
    (Van Oosterom & Strackee, IEEE Trans. Biomed. Eng. 30, 1983)

        tan(Omega/2) = |det(a, b, c)| / (1 + a.b + b.c + c.a).

    Both sides are evaluated about a pivot p, with q, r the other two:
    det = (p + q) . (q x (r - q)) and 1 + a.b + b.c + c.a = (p + q) . (p + r).
    The pivot is the vertex opposite the triangle's most aligned pair.  A
    vertex nearly antipodal to the other two (a wide cone of a thin
    polytope) then makes p + q and p + r small and exact, where the plain
    form cancels to O(1) rounding: on flattened random hulls this takes the
    worst error from 3e-12 to 8e-16.
    """
    ring = gens
    if len(gens) > 3:
        from scipy.spatial import ConvexHull

        plane = np.linalg.svd(inner[None, :])[2][1:]   # orthonormal, _|_ inner
        flat = (gens @ plane.T) / (gens @ inner)[:, None]
        ring = gens[ConvexHull(flat).vertices]
    ring = ring / np.linalg.norm(ring, axis=1)[:, None]
    tri = np.stack([np.broadcast_to(ring[0], ring[2:].shape), ring[1:-1],
                    ring[2:]], axis=1)                     # (triangle, vertex, xyz)
    pair = np.linalg.norm(tri + np.roll(tri, -1, axis=1), axis=2)
    pivot = (np.argmax(pair, axis=1) + 2) % 3              # opposite v_i, v_{i+1}
    rows = np.arange(len(tri))
    p, q, r = (tri[rows, (pivot + i) % 3] for i in range(3))
    det = np.abs(np.einsum("ij,ij->i", p + q, np.cross(q, r - q)))
    den = np.einsum("ij,ij->i", p + q, p + r)
    return math.fsum(2.0 * np.arctan2(det, den)) / (4.0 * math.pi)


def _cone_fraction(gens: np.ndarray, k: int, reps: int, seed: int,
                   face_index: int) -> tuple[float, float]:
    """MC fraction of S^{k-1} covered by the cone spanned by ``gens`` rows.

    gens live in R^k, k >= 2 (coordinates of the face's normal space).
    Returns (fraction, stderr).  The cone's facets are the facets through 0
    of conv({0} and the unit generators); a direction is in the cone iff it
    lies on the inner side of each of them.
    """
    from scipy.spatial import ConvexHull

    unit = gens / np.linalg.norm(gens, axis=1)[:, None]
    eq = ConvexHull(np.vstack([np.zeros(k), unit])).equations
    facets = eq[np.abs(eq[:, -1]) <= _GEOM_TOL, :-1]
    hits = done = 0
    batch = 1 << 17
    while done < reps:
        nb = min(batch, reps - done)
        z = streams.normals(seed, streams.DOMAIN_DIRECTIONS,
                            face_index * reps + done, nb, k)
        norms = np.linalg.norm(z, axis=1)
        norms[norms == 0] = 1.0
        u = z / norms[:, None]
        hits += int(np.sum(np.all(u @ facets.T <= _GEOM_TOL, axis=1)))
        done += nb
    p = hits / reps
    return p, math.sqrt(p * (1.0 - p) / reps)


def polytope_g_coeffs(halfspaces, reps: int, seed: int) -> FaceDecomposition:
    """g-coefficients of a bounded full-dimensional H-polytope {A x <= b}.

    Parameters
    ----------
    halfspaces : sequence of (normal, offset) pairs
        The polytope is the set of x with normal . x <= offset for all pairs.
    reps : int
        Monte Carlo directions per external-angle estimate.  Only faces whose
        normal space has dimension k >= 4 are sampled, and those exist only
        in d = 5 and 6; every other coefficient is exact.
    seed : int
        Substream seed (checked even when nothing is drawn); each sampled
        face owns a deterministic replicate window, so the result is
        independent of evaluation order.

    Returns
    -------
    FaceDecomposition with ``g_stderr`` filled in (0.0 for exact entries).

    Notes
    -----
    Vertices are the duals of the facets of the polar hull
    (:func:`_vertices`).  Faces are vertex sets found by descent: each
    j-face is the part of a (j+1)-face on one constraint row, kept when its
    affine rank is j.  An edge measures the distance between its two
    vertices; a j >= 2 face, its hull volume in SVD coordinates of the
    affine hull.  External angles are measured on the unit
    sphere of the face's normal space: exactly for k <= 3
    (:func:`_wedge_fraction`, :func:`_solid_fraction`) and by
    :func:`_cone_fraction` for k >= 4.  g_0 is 1 exactly: the vertex normal
    cones tile R^d (the normal fan), so no vertex angle is computed.
    """
    reps = _check_int(reps, 1, math.inf, "reps")
    streams.check_seed(seed)
    A, b = _normalize_halfspaces(halfspaces)
    m, d = A.shape
    if d > MAX_POLYTOPE_DIM:
        raise ValueError(f"polytope dimension {d} exceeds cap {MAX_POLYTOPE_DIM}")
    if m < d + 1:
        raise ValueError("a bounded polytope needs at least d+1 halfspaces")
    # About the Chebyshev center, scaled by 2^-e to an inradius in
    # [1/4, 1/2); g_j scales back by 2^{e j}.  The origin is interior:
    # b_i > 0 for every row i, so a_i . x > 0 for each row active on x.
    verts, b, e = _vertices(A, b)
    tol = _GEOM_TOL * float(np.abs(verts).max())
    tight = np.array([np.abs(A @ v - b) <= tol for v in verts])

    # Faces as vertex-index sets, by descent: a j-face is the part of a
    # (j+1)-face on some constraint row, with affine rank j.  Vertices
    # (j = 0) are kept: they take face indices in the ordering below.
    on_row = [frozenset(np.flatnonzero(col)) for col in tight.T]
    faces = {frozenset(range(len(verts))): d}
    level = list(faces)
    for j in range(d - 1, -1, -1):
        level = [cut for cut in {face & row for face in level for row in on_row}
                 if cut and np.linalg.matrix_rank(
                     verts[sorted(cut)] - verts[min(cut)], tol=tol) == j]
        faces.update(dict.fromkeys(level, j))

    # Deterministic face ordering for substream assignment.
    ordered = sorted(faces.items(), key=lambda kv: (kv[1], tuple(sorted(kv[0]))))

    g = np.zeros(d + 1)
    var = np.zeros(d + 1)
    g[0] = 1.0
    for face_index, (key, j) in enumerate(ordered):
        if j == 0:
            continue
        members = sorted(key)
        fverts = verts[members]
        measure = _face_measure(fverts, j)
        k = d - j
        frac, se = 1.0, 0.0
        if k == 1:
            # 1-d normal space: the cone is the single outward ray, one of
            # the two points of S^0.
            frac = 0.5
        elif k >= 2:
            gens_full = A[tight[members].all(axis=0)]
            # Orthonormal coordinates of the normal space (row space).
            _, svals, vt = np.linalg.svd(gens_full, full_matrices=False)
            rank = int(np.sum(svals > _GEOM_TOL * max(1.0, svals.max())))
            if rank != k:
                raise ValueError(
                    f"face of dimension {j} has normal-space rank {rank}; "
                    "the polytope is too degenerate for this estimator")
            basis = vt[:k]
            gens = gens_full @ basis.T
            if k >= 4:
                frac, se = _cone_fraction(gens, k, reps, seed, face_index)
            else:
                exact = _wedge_fraction if k == 2 else _solid_fraction
                frac = exact(gens, basis @ fverts[0])
        g[j] += measure * frac
        var[j] += (measure * se) ** 2

    powers = e * np.arange(d + 1)
    return FaceDecomposition(d=d, g=tuple(np.ldexp(g, powers)), kappa=0.0,
                             kind=GeometryKind.H_POLYTOPE,
                             g_stderr=tuple(np.ldexp(np.sqrt(var), powers)))
