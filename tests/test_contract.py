"""One input contract for every public entry point of the package.

The targets are found by introspection: every public (no leading
underscore) callable defined in a ``gaussmax`` module, which is ``__all__``
plus the names the modules keep to themselves (``streams.uniforms``,
``streams.check_seed``, ...).  Each must have a row in
``ROWS``: a set of valid keyword arguments and the names of its numeric
parameters.  A callable without a row fails ``test_every_target_has_a_row``,
so a new entry point cannot skip the contract.  ``RETIRED`` maps a deleted
entry point to the call that replaced it; its row keeps running on that call
under the old name, and the old name must stay gone from the package.  The
CLI has its own configuration tests in ``test_cli.py``.

The contract: with the other arguments valid, each numeric parameter set to
each value of ``BAD`` raises ValueError or TypeError, with every warning an
error.  A list-valued parameter is also fuzzed at its first and its last
entry.  ``DOCUMENTED`` lists the infinities that a parameter accepts by its
docstring; those calls must succeed instead.
"""
import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest

import gaussmax
from gaussmax import geometry, model, simulate

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "True": True,
       "np.True_": np.True_, "str": "3", "None": None, "complex": 1j}

SQ = model.make_squared_exponential(0.5)
RAT = model.make_rational(1.0, 1.0)
SQUARE = geometry.rectangle_faces([1.0, 1.0])
GRID = simulate.FieldGrid((1.0,), 3)
TRIANGLE = [[[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0], [[1.0, 1.0], 1.0]]


def _profile_pairs():
    def g(h):
        return np.exp(-np.asarray(h) ** 2)

    def g1(h):
        return -2.0 * np.asarray(h) * np.exp(-np.asarray(h) ** 2)

    return [(g, g1), (g, g1)]


# name -> (valid keyword arguments, made fresh for each call; numeric
# parameters).  Result records have no numeric parameters: the package
# builds them and their fields are outputs.
ROWS = {
    "asympt.ExponentComponents": (
        lambda: dict(sigma2=2.0, lambda_bar=1.0, kappa=0.0), ()),
    "asympt.ExponentReport": (
        lambda: dict(rate=1.5, components=None, exact=True), ()),
    "asympt.exponent_general": (
        lambda: dict(sigma2=2.0, lambda_bar=1.0, kappa=0.5),
        ("sigma2", "lambda_bar", "kappa")),
    "asympt.exponent_convex": (lambda: dict(m=SQ), ()),
    "asympt.Z_delta_exponent": (lambda: dict(m=SQ, Delta=1.0), ("Delta",)),
    "asympt.sigma2_isotropic": (lambda: dict(m=SQ, Delta=1.0), ("Delta",)),
    "asympt.kappa_annulus": (lambda: dict(m=SQ, a=1.0, b=2.0), ("a", "b")),
    "asympt.sigma2_separable": (
        lambda: dict(gammas=_profile_pairs(), s=[0.0, 0.2], t=[0.7, 1.4]),
        ("s", "t")),
    "asympt.sigma2_separable_max": (
        lambda: dict(gammas=_profile_pairs(), box=[(0.0, 1.0), (0.0, 2.0)],
                     n_per_axis=5),
        ("box", "n_per_axis")),
    "asympt.pm_equiv_1d": (
        lambda: dict(v2k=-1.0, vpp=-0.5, k=1, x=2.0),
        ("v2k", "vpp", "k", "x")),
    "bounds.BoundBreakdown": (
        lambda: dict(x=0.0, principal_by_j=(), complementary_by_j=(),
                     pbar=0.0, pE=0.0), ()),
    "bounds.TailBound": (
        lambda: dict(pbar_tail=0.5, pE_tail=0.4, complementary=0.1), ()),
    "bounds.T_series": (lambda: dict(j=3, v=0.5), ("j", "v")),
    "bounds.R_correction": (lambda: dict(m=RAT, j=2, x=1.0), ("j", "x")),
    "bounds.pE_density": (lambda: dict(m=SQ, geom=SQUARE, x=1.0), ("x",)),
    "bounds.pbar_density": (lambda: dict(m=RAT, geom=SQUARE, x=1.0), ("x",)),
    "bounds.tail_bound": (lambda: dict(m=RAT, geom=SQUARE, u=1.0), ("u",)),
    "bounds.sphere_pbar": (lambda: dict(m=SQ, d=3, x=1.0), ("d", "x")),
    "bounds.complementary_decay_rate": (lambda: dict(m=SQ), ()),
    "geometry.FaceDecomposition": (
        lambda: dict(d=2, g=(1.0, 2.0, 1.0), kappa=0.0,
                     kind=geometry.GeometryKind.RECTANGLE),
        ("d", "g", "kappa")),
    "geometry.GeometryKind": (lambda: dict(value="rectangle"), ()),
    "geometry.rectangle_faces": (lambda: dict(sides=[1.0, 2.0]), ("sides",)),
    "geometry.sphere_surface": (lambda: dict(d=3), ("d",)),
    "geometry.polytope_g_coeffs": (
        lambda: dict(halfspaces=TRIANGLE, reps=10, seed=0),
        ("halfspaces", "reps", "seed")),
    "geometry.kappa_of_angle_boundary": (lambda: dict(theta=1.0), ("theta",)),
    "geometry.angle_boundary_ratio": (
        lambda: dict(theta=1.0, t_arc=-0.5, s_arc=0.5),
        ("theta", "t_arc", "s_arc")),
    "hermite.HermiteKind": (lambda: dict(value="modified"), ()),
    "hermite.hermite_eval": (
        lambda: dict(kind="modified", n=3, x=0.5), ("n", "x")),
    "hermite.tail_integral_In": (lambda: dict(n=3, v=0.5), ("n", "v")),
    "hermite.weighted_integral_Jn": (
        lambda: dict(n=2, x=0.5, a=0.5, b=0.5), ("n", "x", "a", "b")),
    "model.IsotropicModel": (
        lambda: dict(rho=SQ.rho, rho1=SQ.rho1, rho2=SQ.rho2,
                     monotone_flag=True), ()),
    "model.CheckResult": (lambda: dict(m=RAT), ()),
    "model.ModelValidation": (lambda: dict(m=RAT), ()),
    "model.make_squared_exponential": (lambda: dict(c=0.5), ("c",)),
    "model.make_rational": (lambda: dict(c=1.0, beta=1.0), ("c", "beta")),
    "model.normalized": (lambda: dict(m=RAT), ()),
    "model.require_valid": (lambda: dict(m=RAT), ()),
    "model.validate_model": (lambda: dict(m=RAT), ()),
    "randmat.McEstimate": (
        lambda: dict(mean=0.5, stderr=0.1, reps=10, seed=0), ()),
    "randmat.goe_eigen_density": (lambda: dict(n=3, nu=0.5), ("n", "nu")),
    "randmat.expected_absdet_shifted_goe": (
        lambda: dict(n=3, nu=0.5), ("n", "nu")),
    "randmat.mc_absdet": (
        lambda: dict(n=2, nu=0.5, reps=10, seed=0),
        ("n", "nu", "reps", "seed")),
    "simulate.FieldGrid": (
        lambda: dict(sides=[1.0, 2.0], resolution=(3, 2)),
        ("sides", "resolution")),
    "simulate.ValidationReport": (
        lambda: dict(u_values=(), empirical=(), pbar_tails=(), pE_tails=(),
                     verdicts=(), refinement_factors=(1,),
                     empirical_by_refinement=(), notes=()), ()),
    "simulate.make_grid": (
        lambda: dict(sides=[1.0, 2.0], resolution=(3, 2)),
        ("sides", "resolution")),
    "simulate.covariance_cholesky": (lambda: dict(m=SQ, grid=GRID), ()),
    "simulate.sample_maxima": (
        lambda: dict(m=SQ, grid=GRID, reps=4, seed=0), ("reps", "seed")),
    "simulate.validate_bound": (
        lambda: dict(m=SQ, grid=GRID, u_values=[1.0, 2.0], reps=4, seed=0,
                     refinements=(1, 2)),
        ("u_values", "reps", "seed", "refinements")),
    "streams.check_seed": (lambda: dict(seed=0), ("seed",)),
    "streams.uniforms": (
        lambda: dict(seed=0, domain=1, start_rep=0, n_reps=2, per_rep=3),
        ("seed", "domain", "start_rep", "n_reps", "per_rep")),
    "streams.normals": (
        lambda: dict(seed=0, domain=1, start_rep=0, n_reps=2, per_rep=3),
        ("seed", "domain", "start_rep", "n_reps", "per_rep")),
}

# (target, parameter, bad value) calls that the docstrings allow.
DOCUMENTED = {
    ("asympt.exponent_general", "kappa", "inf"),    # whiskers: rate 1
    ("geometry.FaceDecomposition", "kappa", "inf"),
    ("hermite.tail_integral_In", "v", "-inf"),      # the full-line value
}


def _targets() -> dict:
    """Every public callable defined in a gaussmax module but the CLI."""
    found = {}
    for info in pkgutil.iter_modules(gaussmax.__path__):
        if info.name == "cli":
            continue
        mod = importlib.import_module(f"gaussmax.{info.name}")
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and callable(obj)
                    and getattr(obj, "__module__", None) == mod.__name__):
                found[f"{info.name}.{name}"] = obj
    return found


def _rebuild(m):
    # A model is checked once, by its constructor: the report, its records
    # and the separate check it ran are gone.
    return model.IsotropicModel(rho=m.rho, rho1=m.rho1, rho2=m.rho2,
                                monotone_flag=m.monotone_flag)


# Deleted entry point -> the call its callers make now.
RETIRED = {
    "simulate.make_grid":
        lambda sides, resolution: simulate.FieldGrid(sides, resolution),
    "model.CheckResult": _rebuild,
    "model.ModelValidation": _rebuild,
    "model.require_valid": _rebuild,
    "model.validate_model": _rebuild,
}

TARGETS = {**_targets(), **RETIRED}


def _leaf_paths(value, path=()):
    """Index paths of the scalar entries of nested lists and tuples."""
    if isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _leaf_paths(v, path + (i,))
    elif path:
        yield path


def _replace(value, path, new):
    if not path:
        return new
    items = list(value)
    items[path[0]] = _replace(items[path[0]], path[1:], new)
    return type(value)(items)


def _cases():
    for name in sorted(set(TARGETS) & set(ROWS)):
        valid, numeric = ROWS[name]
        for param in numeric:
            leaves = list(_leaf_paths(valid()[param]))
            wheres = {"": ()}
            if leaves:
                wheres.update({"[first]": leaves[0], "[last]": leaves[-1]})
            for where, path in wheres.items():
                for bad in BAD:
                    yield pytest.param(name, param, path, bad,
                                       id=f"{name}-{param}{where}-{bad}")


def _call(name, **override):
    kwargs = ROWS[name][0]()
    kwargs.update(override)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return TARGETS[name](**kwargs)


def test_every_target_has_a_row():
    assert sorted(set(TARGETS) - set(ROWS)) == []
    assert sorted(set(ROWS) - set(TARGETS)) == []


def test_targets_include_all_of_dunder_all():
    exported = {n for n in gaussmax.__all__ if n != "__version__"}
    assert exported <= {key.split(".")[1] for key in TARGETS}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_names_stay_gone(name):
    module, attr = name.split(".")
    assert not hasattr(importlib.import_module(f"gaussmax.{module}"), attr)
    assert attr not in gaussmax.__all__


@pytest.mark.parametrize("name", sorted(ROWS))
def test_valid_arguments_are_accepted(name):
    # Without this, a row whose valid arguments fail would pass every case.
    _call(name)


@pytest.mark.parametrize("name, param, path, bad", list(_cases()))
def test_bad_numbers_raise(name, param, path, bad):
    value = _replace(ROWS[name][0]()[param], path, BAD[bad])
    if (name, param, bad) in DOCUMENTED and not path:
        _call(name, **{param: value})
        return
    with pytest.raises((ValueError, TypeError)):
        _call(name, **{param: value})
