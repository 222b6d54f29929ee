"""Independent reference implementations used to cross-check the library.

Everything here is written directly against defining formulas — explicit
sums, adaptive quadrature, exhaustive enumeration, independent samplers —
trading speed for independence from the code under test.  Tests that assert
a derived numeric value do so against one of these oracles, not against a
constant somebody typed in.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma
from scipy.stats import norm

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ------------------------------------------------------------ test models

def make_bump_model(a: float, b: float):
    """rho(x) = e^{-a x} (1 + b x^2): valid for a, b > 0, monotone iff b <= a^2.

    Closed-form derivatives assembled here so tests exercise non-monotone
    covariances without depending on the library's built-in families.
    """
    from gaussmax.model import IsotropicModel

    def rho(x):
        x = np.asarray(x)
        return np.exp(-a * x) * (1.0 + b * x * x)

    def rho1(x):
        x = np.asarray(x)
        return np.exp(-a * x) * (2.0 * b * x - a * (1.0 + b * x * x))

    def rho2(x):
        x = np.asarray(x)
        return np.exp(-a * x) * (2.0 * b - 4.0 * a * b * x
                                 + a * a * (1.0 + b * x * x))

    return IsotropicModel(rho=rho, rho1=rho1, rho2=rho2,
                          monotone_flag=b <= a * a)


# ----------------------------------------------------------------- hermite

def Phi_by_erfc(x):
    """Phi(x) = erfc(z)/2, z = -x/sqrt 2 rounded as the library rounds it,
    with the C library's erfc mapped value by value: the slow path."""
    z = np.multiply(x, -math.sqrt(0.5))
    out = 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float,
                            z.size).reshape(z.shape)
    return float(out) if out.ndim == 0 else out


def hermite_physicists_sum(n: int, x: float) -> float:
    """H_n(x) by the explicit sum n! sum_m (-1)^m (2x)^{n-2m} / (m! (n-2m)!)."""
    total = 0.0
    for m in range(n // 2 + 1):
        total += ((-1.0) ** m / (math.factorial(m) * math.factorial(n - 2 * m))
                  * (2.0 * x) ** (n - 2 * m))
    return math.factorial(n) * total


def hermite_monic_sum(n: int, x: float) -> float:
    """Monic variant: 2^{-n/2} H_n(x / sqrt 2), via the explicit sum."""
    return 2.0 ** (-n / 2.0) * hermite_physicists_sum(n, x / math.sqrt(2.0))


def quad_In(n: int, v: float) -> float:
    """int_v^inf e^{-t^2/2} H_n(t) dt by adaptive quadrature.

    For odd n the integrand is odd and integrates to 0 over the line, so
    I_n(v) = I_n(-v): a negative v is integrated from -v, away from the
    cancellation across 0."""
    if n % 2 and v < 0:
        v = -v
    val, _ = integrate.quad(
        lambda t: math.exp(-t * t / 2.0) * hermite_physicists_sum(n, t),
        v, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    return val


def quad_Jn(n: int, x: float, a: float, b: float) -> float:
    """int_R e^{-y^2/2} H_n(a y + b x) dy by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda y: math.exp(-y * y / 2.0) * hermite_physicists_sum(n, a * y + b * x),
        -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
    return val


# ---------------------------------------------------------------- geometry

def elementary_symmetric(values, j: int) -> float:
    """e_j of the values by exhaustive enumeration of j-subsets."""
    return math.fsum(math.prod(c) for c in itertools.combinations(values, j))


def cone_angle_fraction_2d(g1, g2) -> float:
    """Fraction of the plane's directions inside cone(g1, g2) (2-d only)."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    c = float(g1 @ g2) / (np.linalg.norm(g1) * np.linalg.norm(g2))
    return math.acos(max(-1.0, min(1.0, c))) / (2.0 * math.pi)


def cone_solid_angle_fraction_3d(ring) -> float:
    """Fraction of the sphere inside a convex cone in R^3 (Girard's theorem).

    ``ring`` lists the cone's extreme generators in cyclic order.  Their
    directions are the vertices of a spherical polygon whose area is its
    spherical excess: the sum of its interior angles minus (n - 2) pi.  The
    angle at e_i is the dihedral angle along e_i between the planes spanned
    by (e_i, e_{i-1}) and (e_i, e_{i+1}).
    """
    e = [np.asarray(g, dtype=float) for g in ring]
    n = len(e)
    angles = []
    for i in range(n):
        u = np.cross(e[i], e[i - 1])
        v = np.cross(e[i], e[(i + 1) % n])
        angles.append(math.atan2(np.linalg.norm(np.cross(u, v)), float(u @ v)))
    return (math.fsum(angles) - (n - 2) * math.pi) / (4.0 * math.pi)


def polytope_vertices_brute(A, b, tol: float = 1e-9) -> np.ndarray:
    """Vertices of {A x <= b} by solving every d-subset of rows: C(m, d) solves.

    A full-rank subset whose solution satisfies every row within tol is a
    vertex; the first solution found for each vertex is kept, and the
    vertices are sorted lexicographically.
    """
    m, d = A.shape
    verts = []
    for combo in itertools.combinations(range(m), d):
        sub = A[list(combo)]
        if np.linalg.matrix_rank(sub, tol=tol) < d:
            continue
        v = np.linalg.solve(sub, b[list(combo)])
        near = tol * (1.0 + np.abs(v).max())
        if (np.all(A @ v - b <= near)
                and not any(np.linalg.norm(v - w) <= near for w in verts)):
            verts.append(v)
    verts.sort(key=tuple)
    return np.array(verts)


def face_measure_qhull(verts, j: int) -> float:
    """j-measure of the face with these vertices: an edge's length, or for
    j >= 2 the qhull hull volume in SVD coordinates of the affine hull."""
    verts = np.asarray(verts, dtype=float)
    if j == 1:
        return float(np.linalg.norm(verts[1] - verts[0]))
    from scipy.spatial import ConvexHull

    centered = verts - verts.mean(axis=0)
    basis = np.linalg.svd(centered, full_matrices=False)[2][:j]
    return float(ConvexHull(centered @ basis.T).volume)


def cone_hits_nnls(gens, u, tol: float = 1e-9) -> np.ndarray:
    """Whether each row of u lies in the cone spanned by the rows of gens.

    Nonnegative least squares: a row is a hit when its distance to the best
    nonnegative combination of the generators is at most sqrt(tol).
    """
    from scipy.optimize import nnls

    return np.array([nnls(gens.T, row)[1] <= math.sqrt(tol) for row in u])


# --------------------------------------------------------------------- GOE

def sample_goe_indep(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix, diagonal N(0,1), off-diagonal N(0,1/2); independent
    of the package's counter-based sampler."""
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def mc_absdet_indep(n: int, nu: float, reps: int, seed: int):
    """Independent MC estimate of E|det(G_n - nu I)|: (mean, stderr)."""
    rng = np.random.default_rng(seed)
    vals = np.empty(reps)
    for i in range(reps):
        vals[i] = abs(np.linalg.det(sample_goe_indep(n, rng) - nu * np.eye(n)))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps))


def absdet_n1_closed(nu: float) -> float:
    """E|G - nu| for scalar standard normal G: 2 phi(nu) + nu (2 Phi(nu) - 1)."""
    return 2.0 * norm.pdf(nu) + nu * (2.0 * norm.cdf(nu) - 1.0)


# -------------------------------------------------- T-integral closed forms

def T1_closed(v):
    """sqrt(2 pi) [phi(v) - v (1 - Phi(v))], elementwise."""
    return SQRT_2PI * (norm.pdf(v) - v * norm.sf(v))


def T2_closed(v):
    """2 e^{-v^2/2}, elementwise."""
    return 2.0 * np.exp(-v * v / 2.0)


def T3_closed(v):
    """sqrt(pi/2) [3 (2 v^2 + 1) phi(v) - (2 v^2 - 3) v (1 - Phi(v))],
    elementwise."""
    return math.sqrt(math.pi / 2.0) * (
        3.0 * (2.0 * v * v + 1.0) * norm.pdf(v)
        - (2.0 * v * v - 3.0) * v * norm.sf(v))


def T_by_definition(j: int, v: float) -> float:
    """T_j(v) from its defining formula, with explicit-sum Hermite values
    and the adaptive-quadrature tail integral I_{j-1}:

    [sum_{k<j} H_k(v)^2 / (2^k k!)] e^{-v^2/2} - H_j(v) I_{j-1}(v) / (2^j (j-1)!).
    """
    first = math.fsum(hermite_physicists_sum(k, v) ** 2
                      / (2.0 ** k * math.factorial(k)) for k in range(j))
    return (first * math.exp(-v * v / 2.0)
            - hermite_physicists_sum(j, v) * quad_In(j - 1, v)
            / (2.0 ** j * math.factorial(j - 1)))


def T_by_recurrence(j: int, v):
    """T_j(v), elementwise, from the Hermite functions psi_k = u_k e^{-v^2/4}
    (u_k = H_k/sqrt(2^k k! sqrt(pi))) and the scaled tail integrals
    w_n = I_n/sqrt(2^n n! sqrt(pi)), which follow from
    I_n = 2 e^{-v^2/2} H_{n-1} + 2(n-1) I_{n-2}:

        w_n = sqrt(2/n) e^{-v^2/4} psi_{n-1} + sqrt((n-1)/n) w_{n-2},

    with w_0 = pi^{-1/4} sqrt(2 pi) (1 - Phi(v)) and w_1 = sqrt(2) pi^{-1/4}
    e^{-v^2/2}.  Then T_j = sqrt(pi) sum_{k<j} psi_k^2
    - sqrt(pi j/2) u_j w_{j-1}.  For |v| below about 50, where e^{-v^2/4}
    is a normal float.
    """
    v = np.asarray(v, dtype=float)
    damp = np.exp(-v * v / 4.0)
    psi = [math.pi ** -0.25 * damp,
           math.sqrt(2.0) * math.pi ** -0.25 * v * damp]
    for k in range(1, j):
        psi.append(math.sqrt(2.0 / (k + 1)) * v * psi[k]
                   - math.sqrt(k / (k + 1.0)) * psi[k - 1])
    w = [math.pi ** -0.25 * SQRT_2PI * norm.sf(v),
         math.sqrt(2.0) * math.pi ** -0.25 * damp * damp]
    for n in range(2, j):
        w.append(math.sqrt(2.0 / n) * damp * psi[n - 1]
                 + math.sqrt((n - 1.0) / n) * w[n - 2])
    return (math.sqrt(math.pi) * sum(p * p for p in psi[:j])
            - math.sqrt(math.pi * j / 2.0) * psi[j] / damp * w[j - 1])


def T_average_gauss_hermite(j: int, gamma: float, x, nodes: int = 128):
    """E T_j(a - bY), Y ~ N(0, 1), a = gamma x/sqrt 2, b^2 = (1 - gamma^2)/2,
    for each x of an array: the y-average of R_j by an n-node Gauss-Hermite
    rule from ``numpy.polynomial.hermite.hermgauss``.  The slow path of R_j,
    which the package summed with 64 nodes, checked by 128, before R_j had
    its closed form."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    b = math.sqrt((1.0 - gamma * gamma) / 2.0)
    a = gamma * np.asarray(x, dtype=float)[..., None] / math.sqrt(2.0)
    v = a - b * math.sqrt(2.0) * t
    return T_by_recurrence(j, v) @ w / math.sqrt(math.pi)


# ----------------------------------------------- density bound, dual paths

def _normal_pdf(y: float) -> float:
    """phi(y) from ``math``: a scalar ``norm.pdf`` call costs about 100 us in
    argument handling, and the nested quadratures below make 10^5 of them."""
    return math.exp(-y * y / 2.0) / SQRT_2PI


def face_term_goe_path(m, j: int, x: float) -> float:
    """The j-face density factor through the critical-point route.

    Equals (|rho'|/pi)^{j/2} Hbar_j(x) + R_j(x): computed here as

        (2 pi)^{-j/2} (2|rho'|)^{-j/2} E |det Hessian_j|

    where Hessian_j | {level x, flat gradient} is
    sqrt(8 rho'') G_j + (2 sqrt(rho''-rho'^2) xi + 2 rho' x) I_j,
    integrated over the independent normal xi with adaptive quadrature.
    ``m`` only provides rho'(0), rho''(0); the expected shifted |det| comes
    from gaussmax.randmat (itself checked against closed forms and MC).
    """
    from gaussmax.randmat import expected_absdet_shifted_goe

    rp, rpp = m.rho1_0, m.rho2_0
    s8 = math.sqrt(8.0 * rpp)

    def integrand(y):
        v = -(2.0 * math.sqrt(rpp - rp * rp) * y + 2.0 * rp * x) / s8
        return expected_absdet_shifted_goe(j, v) * _normal_pdf(y)

    val, _ = integrate.quad(integrand, -np.inf, np.inf,
                            epsabs=1e-13, epsrel=1e-12, limit=300)
    return ((2.0 * math.pi) ** (-j / 2.0) * (2.0 * abs(rp)) ** (-j / 2.0)
            * (8.0 * rpp) ** (j / 2.0) * val)


def pbar_goe_path(m, geom, x: float) -> float:
    """Full density bound via the critical-point route: phi(x) sum_j g_j * term_j."""
    total = geom.g[0]
    for j in range(1, geom.d0 + 1):
        if geom.g[j] != 0.0:
            total += geom.g[j] * face_term_goe_path(m, j, x)
    return norm.pdf(x) * total


def sphere_pbar_goe_path(m, d: int, x: float) -> float:
    """Sphere-surface density bound via the critical-point route (double
    integral):

    phi(x) area(S^{d-1}) int term_{d-1}(xt) phi(y) dy,
    xt = x + y / sqrt(2 |rho'|),

    where term_j is the j-face factor computed through the GOE route above
    (not through the Hermite + correction split under test).
    """
    j = d - 1
    area = 2.0 * math.pi ** (d / 2.0) / _gamma(d / 2.0)
    alpha = math.sqrt(2.0 * abs(m.rho1_0))

    def outer(y):
        xt = x + y / alpha
        return face_term_goe_path(m, j, xt) * _normal_pdf(y)

    val, _ = integrate.quad(outer, -np.inf, np.inf,
                            epsabs=1e-13, epsrel=1e-10, limit=300)
    return _normal_pdf(x) * area * val


# ------------------------------------------------------------- tail oracle

def tail_from_density_quad(density, u: float, cutoff: float = 45.0) -> float:
    """int_u^cutoff density(x) dx by adaptive quadrature (scalar density)."""
    val, _ = integrate.quad(density, u, cutoff,
                            epsabs=1e-13, epsrel=1e-11, limit=300)
    return val


# ----------------------------------------------------------- field sampler

def grid_covariance_direct(m, points) -> np.ndarray:
    """rho(|s - t|^2) for every pair of grid points, from the coordinate
    differences of each pair (not the library's |s|^2 + |t|^2 - 2 s.t)."""
    diff = points[:, None, :] - points[None, :, :]
    return np.asarray(m.rho(np.sum(diff * diff, axis=-1)), dtype=float)


def sample_maxima_dense(m, points, reps: int, seed: int,
                        jitter: float = 1e-10) -> np.ndarray:
    """Grid maxima of ``reps`` draws Z L^T, L = cholesky(C + jitter I) for
    the full grid covariance C in one np.linalg.cholesky call, all rows in
    one product.  Z comes from the package's field stream at ``seed``: the
    same streams as the sampler under test, none of its factor code."""
    from gaussmax import streams

    cov = grid_covariance_direct(m, points)
    L = np.linalg.cholesky(cov + jitter * np.eye(len(cov)))
    z = streams.normals(seed, streams.DOMAIN_FIELD, 0, reps, len(cov))
    return (z @ L.T).max(axis=1)


# --------------------------------------------------------------- exponents

def variance_ratio_direct(m, z: float) -> float:
    """(1 - rho^2(z^2) - 4 rho'(z^2)^2 z^2) / (1 - rho(z^2))^2, assembled
    here from the model callables in longdouble (independent of the library's
    evaluation path)."""
    x = np.longdouble(z) * np.longdouble(z)
    r = m.rho(x)
    r1 = m.rho1(x)
    num = 1.0 - r * r - 4.0 * r1 * r1 * x
    den = (1.0 - r) ** 2
    return float(num / den)


def annulus_circle_ratio_direct(m, a_norm: float, h: float) -> float:
    """-2 a rho'(2 a^2 h) h / (1 - rho(2 a^2 h)) with h = 1 - cos(theta),
    assembled from the model callables in longdouble; tends to 1/a as
    h -> 0 for any valid normalized model."""
    hq = np.longdouble(h)
    x = 2.0 * np.longdouble(a_norm) ** 2 * hq
    return float(-2.0 * a_norm * m.rho1(x) * hq / (1.0 - m.rho(x)))
