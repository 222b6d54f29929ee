"""Face decompositions of parameter sets: measures, solid angles, g-coefficients.

A compact parameter set S in R^d is described by its faces S_j (relative
interiors of dimension-j strata).  The density bounds consume only the
summary coefficients

    g_j = sum over j-faces F of  (j-measure of F) * sigma_hat_j(F),

where sigma_hat_j is the fraction of the unit sphere of the face's normal
space occupied by the outward normal cone (the external angle, so the g_j
are intrinsic volumes).  For a rectangle these are exact elementary
symmetric polynomials of the side lengths.  For a general bounded
H-polytope the double-description method gives the vertices, the faces
follow from the vertex-row incidences, and each face is measured from its
facets by the pyramid formula; all of it is NumPy, with no hull or LP
library.  The external angles are exact wherever the normal space has
dimension k <= 3: 1/2 at k = 1, theta/(2 pi) at k = 2 and Omega/(4 pi) at
k = 3; g_0 = 1 because the vertex normal cones tile R^d.  Only faces with
k >= 4, which exist in d = 5 and 6, are estimated by Monte Carlo with
reported standard errors.

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


_RAY_TOL = 1e-12


def _extreme_rays(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rays, on) of the pointed cone {z : M z <= 0}, M with unit rows: its
    extreme rays, as unit rows, and on[r, i] whether ray r lies on row i.

    The double-description method (Motzkin, Raiffa, Thompson & Thrall 1953;
    Fukuda & Prodon, LNCS 1120, 1996).  It starts from the simplicial cone
    of n independent rows, picked by pivoted Gram-Schmidt, whose rays are
    the columns of -M_B^-1, and adds the other rows one at a time.  A ray
    with |m . z| <= _RAY_TOL lies on row m; the rays beyond it are dropped,
    and each adjacent pair across it gives the ray where their 2-face meets
    it.  Two rays are adjacent when they lie on n - 2 or more common rows
    and no third ray lies on all of those: a combinatorial test, one matrix
    product over every candidate pair.  After each row, a ray more than
    _RAY_TOL / 100 off a row it lies on is solved again, as the null vector
    of all those rows.
    """
    m, n = M.shape
    residual = M.copy()
    basis = []
    for _ in range(n):
        i = int(np.argmax(np.linalg.norm(residual, axis=1)))
        q = residual[i] / np.linalg.norm(residual[i])
        residual -= np.outer(residual @ q, q)
        basis.append(i)
    rays = -np.linalg.inv(M[basis]).T
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    on = np.zeros((n, m), dtype=bool)
    on[:, basis] = ~np.eye(n, dtype=bool)
    rest = np.ones(m, dtype=bool)
    rest[basis] = False
    for i in np.flatnonzero(rest):
        s = rays @ M[i]
        out, into = s > _RAY_TOL, s < -_RAY_TOL
        on[~out & ~into, i] = True
        if out.any():
            p, q = np.flatnonzero(out), np.flatnonzero(into)
            pi, qi = np.nonzero(on[p].astype(float) @ on[q].T.astype(float)
                                >= n - 2)
            p, q = p[pi], q[qi]
            shared = on[p] & on[q]
            covers = shared.astype(float) @ (~on).T.astype(float) == 0
            adjacent = covers.sum(axis=1) == 2       # only p and q themselves
            p, q, shared = p[adjacent], q[adjacent], shared[adjacent]
            shared[:, i] = True
            new = s[p, None] * rays[q] - s[q, None] * rays[p]
            rays = np.vstack([rays[~out],
                              new / np.linalg.norm(new, axis=1)[:, None]])
            on = np.vstack([on[~out], shared])
        # A ray off one of its rows by more than rounding (a combination,
        # or a first solve from ill-conditioned rows) is solved again, as
        # the null vector of all the rows it lies on, so that errors do not
        # build up from row to row.
        off = np.abs(np.where(on, rays @ M.T, 0.0)).max(axis=1) > _RAY_TOL / 100
        if off.any():
            null = np.linalg.svd(np.where(on[off][:, :, None], M, 0.0))[2][:, -1]
            rays[off] = null * np.sign(np.einsum("ij,ij->i", null,
                                                 rays[off]))[:, None]
    return rays, on


def _solve_on(A: np.ndarray, b: np.ndarray, rows) -> np.ndarray:
    """The x with a_i . x = b_i on the first full-rank d-subset of ``rows``."""
    basis = []
    for i in rows:
        if np.linalg.matrix_rank(A[basis + [i]], tol=_GEOM_TOL) > len(basis):
            basis.append(i)
    return np.linalg.solve(A[basis], b[basis])


def _vertices(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(verts, offsets, e) of {A x <= b} moved to its vertex mean c and
    scaled by 2^-e, for the e that puts the smallest offset in [1/4, 1/2):
    the set is {z : A z <= offsets} with offsets = 2^-e b - A c (each
    rounded once from its exact value), and verts are its vertices, sorted
    lexicographically.  ValueError unless the set is nonempty,
    full-dimensional and bounded.

    The vertices are the extreme rays (x, t), t > 0, of the cone
    {(x, t) : A x - b t <= 0, t >= 0} (:func:`_extreme_rays`), each solved
    from the rows it lies on.  The set is unbounded if A has rank below d
    or a ray has t = 0, and empty if no ray has t > 0.  A first pass, at
    the scale of the largest offset, finds c; where far redundant rows
    shrink the set below the rays' tolerance there (the smallest offset
    about c is below 2^-20), it is repeated at the scale of the smallest
    nonzero offset.  A second pass about c, at the set's own size, finds
    the vertices; one farther than 1e9 inradii means a free direction or a
    flat set, which cannot be told apart at that aspect ratio.  Vertices
    within 1e-9 max|vertex| are merged, and each is re-solved from the
    first full-rank d-subset of the rows active on it within that
    tolerance.
    """
    from fractions import Fraction

    m, d = A.shape
    if np.linalg.matrix_rank(A, tol=_GEOM_TOL) < d:
        raise ValueError("unbounded polytope: the halfspace normals span "
                         f"fewer than {d} dimensions")

    def corners(offsets):
        M = np.vstack([np.c_[A, -offsets], -np.eye(d + 1)[-1:]])   # t >= 0
        rays, on = _extreme_rays(M / np.linalg.norm(M, axis=1)[:, None])
        t = rays[:, -1]
        if not (t > _RAY_TOL).any():
            raise ValueError("empty polytope (infeasible halfspace system)")
        if (t <= _RAY_TOL).any():
            raise ValueError("unbounded polytope: a direction is left free")
        return np.array([_solve_on(A, offsets, np.flatnonzero(row[:m]))
                         for row in on])

    def centred(e, c):
        # 2^-e b_i - a_i . c in exact rationals, rounded once: far from the
        # origin the two parts agree in their leading digits, and a float
        # difference would keep only ulp(|c|) of the offset.
        return np.array([float(Fraction(bi) - sum(Fraction(x) * Fraction(y)
                                                  for x, y in zip(ai, c)))
                         for ai, bi in zip(A, np.ldexp(b, -e))])

    top = math.frexp(np.abs(b).max())[1] - 1020     # 2^-e b stays finite
    e = top + 1020
    c = corners(np.ldexp(b, -e)).mean(axis=0)
    r = float(centred(e, c).min())
    if r < 2.0 ** -20 and b.any():
        e = max(math.frexp(np.abs(b[b != 0]).min())[1], top)
        c = corners(np.ldexp(b, -e)).mean(axis=0)
        r = float(centred(e, c).min())
    if r > 0:
        k = max(math.frexp(r)[1] + 1, top - e)
        c, e = np.ldexp(c, -k), e + k
    b = centred(e, c)
    r = float(b.min())
    if r <= _GEOM_TOL:
        raise ValueError(f"degenerate polytope: not full-dimensional (inradius "
                         f"{r:.2e} after scaling by 2^{-e})")
    found = corners(b)
    if np.linalg.norm(found, axis=1).max() >= r / _GEOM_TOL:
        raise ValueError("degenerate polytope: unbounded or not full-dimensional"
                         " (a vertex beyond 1e9 inradii from the center)")
    # One tolerance: rounding error scales with the largest vertex.
    tol = _GEOM_TOL * np.abs(found).max()
    verts = []
    while len(found):
        v = found[0]
        found = found[np.linalg.norm(found - v, axis=1) > tol]
        verts.append(_solve_on(A, b, np.flatnonzero(np.abs(A @ v - b) <= tol)))
    verts.sort(key=lambda v: tuple(v))
    return np.array(verts), b, e


def _face_lattice(verts: np.ndarray, tight: np.ndarray, tol: float):
    """(dims, facets): each face, as a frozenset of vertex indices, mapped to
    its dimension and to the list of its facets.

    Faces are found by descent: a j-face is the part of a (j+1)-face on some
    constraint row (``tight[v, i]``: vertex v is on row i), with affine rank
    j, and the facets of a face are exactly those parts.  A cut is ranked
    once for the whole descent: one too small for the level it was met at
    is met again, and kept, lower down.  Vertices (j = 0) are kept: they
    take face indices in the ordering of the caller.
    """
    d = verts.shape[1]
    on_row = [frozenset(np.flatnonzero(col)) for col in tight.T]
    level = [frozenset(range(len(verts)))]
    dims, facets, rank = {level[0]: d}, {}, {}
    for j in range(d - 1, -1, -1):
        for face in level:
            cuts = {face & row for row in on_row} - {face, frozenset()}
            for cut in cuts - rank.keys():
                rank[cut] = np.linalg.matrix_rank(
                    verts[sorted(cut)] - verts[min(cut)], tol=tol)
            facets[face] = [cut for cut in cuts if rank[cut] == j]
        level = list(dict.fromkeys(cut for face in level for cut in facets[face]))
        dims.update(dict.fromkeys(level, j))
    return dims, facets


def _face_measures(verts: np.ndarray, dims: dict, facets: dict) -> dict:
    """The j-measure of every face of dimension j >= 1, bottom-up.

    An edge measures the distance between its two vertices.  A j-face F,
    j >= 2, is the union of the pyramids from its vertex mean p over its
    facets G, so vol_j(F) = (1/j) sum_G dist(p, aff G) vol_{j-1}(G), with
    each facet measured once before the faces above it.  The distance is
    the part of p - (G's vertex mean) orthogonal to G's directions, whose
    orthonormal basis comes from the SVD of G's centred vertices.
    """
    measure, frame = {}, {}
    for face, j in sorted(dims.items(), key=lambda kv: kv[1]):
        if j == 0:
            continue
        pts = verts[sorted(face)]
        p = pts.mean(axis=0)
        if j == 1:
            measure[face] = float(np.linalg.norm(pts[1] - pts[0]))
        else:
            heights = []
            for g in facets[face]:
                mean, basis = frame[g]
                w = p - mean
                heights.append(float(np.linalg.norm(w - (basis @ w) @ basis))
                               * measure[g])
            measure[face] = math.fsum(heights) / j
        frame[face] = (p, np.linalg.svd(pts - p, full_matrices=False)[2][:j])
    return measure


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


def _hull_ring(points: np.ndarray) -> list:
    """Indices of the vertices of the hull of 2-D points, in cyclic order.

    Andrew's monotone chain (Inf. Process. Lett. 9, 1979): the lower and
    upper chains of the points sorted by (x, y), each dropping a point
    that does not turn left, so repeated and collinear points go too.
    """
    def chain(order):
        out = []
        for i in order:
            while len(out) >= 2:
                a = points[out[-1]] - points[out[-2]]
                b = points[i] - points[out[-2]]
                if a[0] * b[1] - a[1] * b[0] > 0:
                    break
                out.pop()
            out.append(i)
        return out[:-1]

    order = np.lexsort((points[:, 1], points[:, 0])).tolist()
    return chain(order) + chain(order[::-1])


def _solid_fraction(gens: np.ndarray, inner: np.ndarray) -> float:
    """Omega/(4 pi) for the cone in R^3 spanned by the rows of ``gens``.

    ``inner`` is any vector with inner . g > 0 for every row.  Projecting
    each generator centrally onto the plane inner . y = 1 maps the cone to a
    convex polygon whose vertices are the extreme generators; the monotone
    chain of :func:`_hull_ring` lists them in cyclic order.  The fan of
    triangles (e_0, e_i, e_{i+1}) tiles the cone, and each triangle of unit
    generators a, b, c has
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
        plane = np.linalg.svd(inner[None, :])[2][1:]   # orthonormal, _|_ inner
        flat = (gens @ plane.T) / (gens @ inner)[:, None]
        ring = gens[_hull_ring(flat)]
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

    gens live in R^k, k >= 2 (coordinates of the face's normal space), and
    span it.  Returns (fraction, stderr).  The outward unit normals of the
    cone's facets are the extreme rays of its polar {z : gens . z <= 0}
    (:func:`_extreme_rays`); a direction is in the cone iff it lies on the
    inner side of each of them.
    """
    facets = _extreme_rays(gens / np.linalg.norm(gens, axis=1)[:, None])[0]
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
    Vertices are the extreme rays of the homogenized cone, found by the
    double-description method (:func:`_vertices`).  Faces are vertex sets
    found by descent, and with them each face's facets: each j-face is the
    part of a (j+1)-face on one constraint row, kept when its affine rank
    is j (:func:`_face_lattice`).  An edge measures the distance between
    its two vertices; a j >= 2 face, the sum of the pyramids from its
    vertex mean over its facets, computed bottom-up so each face is measured
    once (:func:`_face_measures`).  External angles are measured on the unit
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
    # About the vertex mean, scaled by 2^-e to a smallest offset in
    # [1/4, 1/2); g_j scales back by 2^{e j}.  The origin is interior:
    # b_i > 0 for every row i, so a_i . x > 0 for each row active on x.
    verts, b, e = _vertices(A, b)
    tol = _GEOM_TOL * float(np.abs(verts).max())
    tight = np.array([np.abs(A @ v - b) <= tol for v in verts])

    dims, facets = _face_lattice(verts, tight, tol)
    measure = _face_measures(verts, dims, facets)

    # Deterministic face ordering for substream assignment.
    ordered = sorted(dims.items(), key=lambda kv: (kv[1], tuple(sorted(kv[0]))))

    g = np.zeros(d + 1)
    var = np.zeros(d + 1)
    g[0] = 1.0
    for face_index, (key, j) in enumerate(ordered):
        if j == 0:
            continue
        members = sorted(key)
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
                frac = exact(gens, basis @ verts[members[0]])
        g[j] += measure[key] * frac
        var[j] += (measure[key] * se) ** 2

    powers = e * np.arange(d + 1)
    return FaceDecomposition(d=d, g=tuple(np.ldexp(g, powers)), kappa=0.0,
                             kind=GeometryKind.H_POLYTOPE,
                             g_stderr=tuple(np.ldexp(np.sqrt(var), powers)))
