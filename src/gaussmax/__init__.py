"""Tail bounds, densities, and error exponents for maxima of smooth
stationary isotropic Gaussian fields on polyhedra and spheres.

The package is organized around one pipeline:

- :mod:`gaussmax.model` — isotropic covariance profiles and their validity
  checks;
- :mod:`gaussmax.hermite` — Hermite polynomials and Gaussian-weight tail
  integrals;
- :mod:`gaussmax.randmat` — GOE eigenvalue densities and expected shifted
  absolute determinants;
- :mod:`gaussmax.geometry` — face decompositions (g-coefficients) of
  rectangles, H-polytopes, and sphere surfaces;
- :mod:`gaussmax.bounds` — the density upper bound pbar, its principal part
  pE, and their tail integrals;
- :mod:`gaussmax.asympt` — error exponents governing how sharply the bounds
  track the true tail;
- :mod:`gaussmax.simulate` — exact grid sampling of the field and Monte
  Carlo validation of the bounds;
- :mod:`gaussmax.cli` — a reproducible command-line front end.
"""

__version__ = "0.1.0"

from .asympt import (ExponentComponents, ExponentReport, Z_delta_exponent,
                     exponent_convex, exponent_general, kappa_annulus,
                     pm_equiv_1d, sigma2_isotropic, sigma2_separable,
                     sigma2_separable_max)
from .bounds import (BoundBreakdown, R_correction, T_series, TailBound,
                     complementary_decay_rate, pE_density, pbar_density,
                     sphere_pbar, tail_bound)
from .geometry import (FaceDecomposition, GeometryKind, angle_boundary_ratio,
                       kappa_of_angle_boundary, polytope_g_coeffs,
                       rectangle_faces, sphere_surface)
from .hermite import (HermiteKind, hermite_eval, tail_integral_In,
                      weighted_integral_Jn)
from .model import (IsotropicModel, ModelValidation, make_rational,
                    make_squared_exponential, normalized, require_valid,
                    validate_model)
from .randmat import (McEstimate, expected_absdet_shifted_goe,
                      goe_eigen_density, mc_absdet, sample_goe)
from .simulate import (CholeskyFactor, FieldGrid, ValidationReport,
                       covariance_cholesky, make_grid, sample_maxima,
                       validate_bound)

__all__ = [
    "__version__",
    # model
    "IsotropicModel", "ModelValidation", "make_squared_exponential",
    "make_rational", "normalized", "require_valid", "validate_model",
    # hermite
    "HermiteKind", "hermite_eval", "tail_integral_In",
    "weighted_integral_Jn",
    # randmat
    "McEstimate", "goe_eigen_density", "expected_absdet_shifted_goe",
    "mc_absdet", "sample_goe",
    # geometry
    "FaceDecomposition", "GeometryKind", "rectangle_faces", "sphere_surface",
    "polytope_g_coeffs", "kappa_of_angle_boundary", "angle_boundary_ratio",
    # bounds
    "T_series", "R_correction", "BoundBreakdown", "TailBound", "pE_density",
    "pbar_density", "tail_bound", "sphere_pbar", "complementary_decay_rate",
    # asympt
    "ExponentComponents", "ExponentReport", "exponent_general",
    "exponent_convex", "Z_delta_exponent", "sigma2_isotropic",
    "kappa_annulus", "sigma2_separable", "sigma2_separable_max",
    "pm_equiv_1d",
    # simulate
    "FieldGrid", "CholeskyFactor", "ValidationReport", "make_grid",
    "covariance_cholesky", "sample_maxima", "validate_bound",
]
