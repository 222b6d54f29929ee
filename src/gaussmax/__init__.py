"""Tail bounds, densities, and error exponents for maxima of smooth
stationary isotropic Gaussian fields on polyhedra and spheres.

The package is organized around one pipeline:

- :mod:`gaussmax.model` — isotropic covariance profiles, checked at
  construction;
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

Importing the package loads none of these modules.  Each public name, and
each submodule, is loaded on first attribute access (PEP 562), so a script
or a CLI command loads only the modules on its own path.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines: the one list of the package's API
_EXPORTS = {
    "model": ("IsotropicModel", "make_squared_exponential", "make_rational",
              "normalized"),
    "hermite": ("HermiteKind", "hermite_eval", "tail_integral_In",
                "weighted_integral_Jn"),
    "randmat": ("McEstimate", "goe_eigen_density",
                "expected_absdet_shifted_goe", "mc_absdet"),
    "geometry": ("FaceDecomposition", "GeometryKind", "rectangle_faces",
                 "sphere_surface", "polytope_g_coeffs",
                 "kappa_of_angle_boundary", "angle_boundary_ratio"),
    "bounds": ("T_series", "R_correction", "BoundBreakdown", "TailBound",
               "pE_density", "pbar_density", "tail_bound", "sphere_pbar",
               "complementary_decay_rate"),
    "asympt": ("ExponentComponents", "ExponentReport", "exponent_general",
               "exponent_convex", "Z_delta_exponent", "sigma2_isotropic",
               "kappa_annulus", "sigma2_separable", "sigma2_separable_max",
               "pm_equiv_1d"),
    "simulate": ("FieldGrid", "ValidationReport", "covariance_cholesky",
                 "sample_maxima", "validate_bound"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "streams", "cli"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
