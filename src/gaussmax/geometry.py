"""Face decompositions of parameter sets: measures, solid angles, g-coefficients.

A compact parameter set S in R^d is described by its faces S_j (relative
interiors of dimension-j strata).  The density bounds consume only the
summary coefficients

    g_j = sum over j-faces F of  (j-measure of F) * sigma_hat_j(F),

where sigma_hat_j is the fraction of the unit sphere of the face's normal
space occupied by the outward normal cone.  For a rectangle these are exact
elementary symmetric polynomials of the side lengths; for a general bounded
H-polytope the solid angles of codimension >= 2 are estimated by Monte Carlo
with reported standard errors.

kappa is the curvature regularity parameter of the set: 0 for convex sets,
+inf for sets with inward corners ("whiskers"), 1/2 for the unit sphere.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull

from . import streams
from .hermite import _check_int

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
    d0 : largest dimension with a nonempty face.
    g : tuple of d0+1 nonnegative reals (g_0 .. g_{d0}).
    kappa : curvature regularity parameter (0 convex, may be +inf).
    kind : GeometryKind.
    g_stderr : per-coefficient MC standard errors (None when exact).
    sides : rectangle side lengths (rectangle kind only).
    """

    d: int
    d0: int
    g: tuple
    kappa: float
    kind: GeometryKind
    g_stderr: tuple | None = None
    sides: tuple | None = None

    def __post_init__(self):
        if len(self.g) != self.d0 + 1:
            raise ValueError("g must have d0 + 1 entries")
        if not all(math.isfinite(v) and v >= 0 for v in self.g):
            raise ValueError("g coefficients must be finite and nonnegative")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")


def rectangle_faces(sides) -> FaceDecomposition:
    """Exact face decomposition of the box prod_i [0, L_i].

    Each j-face has normal-cone solid angle 2^{-(d-j)} and the 2^{d-j}
    parallel copies of each coordinate choice sum to the elementary symmetric
    polynomial: g_j = e_j(L_1, ..., L_d).  In particular g_0 = 1 and
    g_d = prod L_i.
    """
    sides = tuple(float(s) for s in np.atleast_1d(np.asarray(sides, dtype=float)))
    if len(sides) == 0:
        raise ValueError("need at least one side length")
    if not all(math.isfinite(s) and s > 0 for s in sides):
        raise ValueError("side lengths must be positive and finite")
    coeffs = [1.0]
    for length in sides:
        # multiply the generating polynomial by (1 + length * z)
        coeffs = [c + length * (coeffs[i - 1] if i > 0 else 0.0)
                  for i, c in enumerate(coeffs)] + [length * coeffs[-1]]
    d = len(sides)
    return FaceDecomposition(d=d, d0=d, g=tuple(coeffs), kappa=0.0,
                             kind=GeometryKind.RECTANGLE, sides=sides)


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
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    g = (0.0,) * (d - 1) + (area,)
    return FaceDecomposition(d=d, d0=d - 1, g=g, kappa=0.5,
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
    theta = float(theta)
    if not (0.0 < theta < math.pi):
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
    theta = float(theta)
    if not (0.0 < theta < math.pi):
        raise ValueError("theta must lie strictly between 0 and pi")
    for name, arc in (("t_arc", t_arc), ("s_arc", s_arc)):
        if not (-1.0 <= arc <= 1.0):
            raise ValueError(f"{name} must lie in [-1, 1]")
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
    for item in halfspaces:
        a, b = item
        a = np.asarray(a, dtype=float).ravel()
        norm = np.linalg.norm(a)
        if norm <= 0 or not np.all(np.isfinite(a)) or not math.isfinite(float(b)):
            raise ValueError("each halfspace needs a finite nonzero normal and offset")
        rows.append(a / norm)
        offs.append(float(b) / norm)
    A = np.array(rows)
    b = np.array(offs)
    if A.ndim != 2:
        raise ValueError("halfspace normals must share one dimension")
    return A, b


def _check_bounded_full_dim(A: np.ndarray, b: np.ndarray):
    m, d = A.shape
    # Chebyshev center: max r s.t. A x + r <= b (rows are unit normals)
    res = linprog(c=np.r_[np.zeros(d), -1.0],
                  A_ub=np.c_[A, np.ones(m)], b_ub=b,
                  bounds=[(None, None)] * d + [(0, None)], method="highs")
    if res.status == 2:
        raise ValueError("empty polytope (infeasible halfspace system)")
    if res.status == 3 or not res.success:
        raise ValueError("degenerate halfspace system (no bounded Chebyshev center)")
    if -res.fun <= _GEOM_TOL:
        raise ValueError("degenerate polytope: not full-dimensional "
                         f"(inradius {-res.fun:.2e})")
    for i in range(d):
        for sgn in (1.0, -1.0):
            c = np.zeros(d)
            c[i] = sgn
            r = linprog(c=c, A_ub=A, b_ub=b, bounds=[(None, None)] * d,
                        method="highs")
            if r.status == 3:
                raise ValueError(f"unbounded polytope (free direction along axis {i})")


def _enumerate_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, d = A.shape
    found = []
    for combo in itertools.combinations(range(m), d):
        sub = A[list(combo)]
        if np.linalg.matrix_rank(sub, tol=_GEOM_TOL) < d:
            continue
        try:
            v = np.linalg.solve(sub, b[list(combo)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(v)):
            continue
        if np.all(A @ v - b <= _GEOM_TOL * (1.0 + np.abs(v).max())):
            found.append(v)
    if not found:
        raise ValueError("degenerate polytope: no vertices found")
    verts = []
    for v in found:
        if not any(np.linalg.norm(v - w) <= _GEOM_TOL * (1.0 + np.abs(v).max())
                   for w in verts):
            verts.append(v)
    # Deterministic ordering: lexicographic by coordinates.
    verts.sort(key=lambda v: tuple(v))
    return np.array(verts)


def _affine_rank(points: np.ndarray, scale: float) -> int:
    if len(points) <= 1:
        return 0
    centered = points - points.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    return int(np.sum(svals > 1e-7 * max(1.0, scale)))


def _face_measure(verts: np.ndarray, j: int) -> float:
    if j == 0:
        return 1.0
    centered = verts - verts.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    basis = vt[:j]
    coords = centered @ basis.T
    if j == 1:
        return float(coords.max() - coords.min())
    return float(ConvexHull(coords).volume)


def _cone_fraction(gens: np.ndarray, k: int, reps: int, seed: int,
                   face_index: int) -> tuple[float, float]:
    """MC fraction of S^{k-1} covered by the cone spanned by ``gens`` rows.

    gens live in R^k (coordinates of the face's normal space), rows unit-ish.
    Returns (fraction, stderr).  Simplicial cones (len(gens) == k) use a
    vectorized linear solve; larger generator sets fall back to NNLS.
    """
    n_gen = len(gens)
    simplicial = False
    if n_gen == k:
        try:
            inv = np.linalg.inv(gens.T)
            simplicial = np.isfinite(inv).all()
        except np.linalg.LinAlgError:
            simplicial = False
    hits = 0
    done = 0
    batch = 1 << 17
    while done < reps:
        nb = min(batch, reps - done)
        z = streams.normals(seed, streams.DOMAIN_DIRECTIONS,
                            face_index * reps + done, nb, k)
        norms = np.linalg.norm(z, axis=1)
        norms[norms == 0] = 1.0
        u = z / norms[:, None]
        if simplicial:
            lam = u @ inv.T          # solve gens.T @ lam = u for each row
            hits += int(np.sum(np.all(lam >= -_GEOM_TOL, axis=1)))
        else:
            for row in u:
                _, resid = nnls(gens.T, row)
                if resid <= math.sqrt(_GEOM_TOL):
                    hits += 1
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
        Monte Carlo directions per solid-angle estimate (codimension >= 2
        faces only; facets and the interior are exact).
    seed : int
        Substream seed; each face owns a deterministic replicate window, so
        the result is independent of evaluation order.

    Returns
    -------
    FaceDecomposition with ``g_stderr`` filled in.

    Notes
    -----
    Vertices come from d-subsets of constraints; a face is recovered as the
    set of vertices whose active constraints contain a given subset, with an
    affine-rank check.  Face measures use SVD coordinates in the affine hull
    (hull volume for j >= 2).  Solid angles of normal cones are measured on
    the unit sphere of the face's normal space.
    """
    reps = _check_int(reps, 1, math.inf, "reps")
    A, b = _normalize_halfspaces(halfspaces)
    m, d = A.shape
    if d > MAX_POLYTOPE_DIM:
        raise ValueError(f"polytope dimension {d} exceeds cap {MAX_POLYTOPE_DIM}")
    if m < d + 1:
        raise ValueError("a bounded polytope needs at least d+1 halfspaces")
    _check_bounded_full_dim(A, b)
    verts = _enumerate_vertices(A, b)
    scale = float(max(1.0, np.abs(verts).max()))
    active = [frozenset(np.flatnonzero(np.abs(A @ v - b) <= _GEOM_TOL * scale))
              for v in verts]

    # Collect faces as vertex-index sets keyed by dimension.
    faces: dict[frozenset, int] = {}
    all_idx = frozenset(range(len(verts)))
    faces[all_idx] = d
    for k in range(1, d + 1):
        for combo in itertools.combinations(range(m), k):
            cset = frozenset(combo)
            members = [i for i, act in enumerate(active) if cset <= act]
            if not members:
                continue
            key = frozenset(members)
            if key in faces:
                continue
            j = _affine_rank(verts[members], scale)
            if j != d - k:
                continue  # this constraint subset does not define a (d-k)-face
            faces[key] = j

    # Deterministic face ordering for substream assignment.
    ordered = sorted(faces.items(), key=lambda kv: (kv[1], tuple(sorted(kv[0]))))

    g = np.zeros(d + 1)
    var = np.zeros(d + 1)
    for face_index, (key, j) in enumerate(ordered):
        members = sorted(key)
        fverts = verts[members]
        measure = _face_measure(fverts, j)
        k = d - j
        if k == 0:
            frac, se = 1.0, 0.0
        elif k == 1:
            # 1-d normal space: the cone is the single outward ray, one of
            # the two points of S^0.
            frac, se = 0.5, 0.0
        else:
            act = frozenset.intersection(*(active[i] for i in members))
            gens_full = A[sorted(act)]
            # Orthonormal coordinates of the normal space (row space).
            _, svals, vt = np.linalg.svd(gens_full, full_matrices=False)
            rank = int(np.sum(svals > _GEOM_TOL * max(1.0, svals.max())))
            if rank != k:
                raise ValueError(
                    f"face of dimension {j} has normal-space rank {rank}; "
                    "the polytope is too degenerate for this estimator")
            basis = vt[:k]
            gens = gens_full @ basis.T
            frac, se = _cone_fraction(gens, k, reps, seed, face_index)
        g[j] += measure * frac
        var[j] += (measure * se) ** 2

    return FaceDecomposition(d=d, d0=d, g=tuple(g), kappa=0.0,
                             kind=GeometryKind.H_POLYTOPE,
                             g_stderr=tuple(np.sqrt(var)))
