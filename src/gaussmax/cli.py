"""Command-line interface: reproducible sweeps over the library's quantities.

Subcommands
-----------
bound     per-abscissa density-bound breakdown for a polyhedral geometry
tail      upper tail bounds (u, pbar_tail, pE_tail)
validate  Monte Carlo check of empirical maxima tails against the bounds
goe       GOE eigenvalue density and expected shifted |det|
geom      face-decomposition coefficients of a geometry
exponent  error-exponent report

Configuration comes from an optional JSON file (--config) merged with flag
overrides; every flag mirrors a config key one-to-one and ``--set KEY=VALUE``
reaches nested keys with dotted paths.  Outputs embed the merged config and
the library version, contain no timestamps, and are byte-identical across
reruns of the same configuration.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (failed rows
are reported and the sweep continues; the remaining rows still emit).

BLAS runs on one thread: importing this module sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to 1 before NumPy loads, unless any of
the three is already set or NumPy is already loaded.  A BLAS thread pool
costs CPU time as NumPy loads, on every command, and makes the bits of
high-rank samples depend on the host's core count.  To give BLAS more
threads, set any of the three variables yourself.

The ``gaussmax`` command and ``python -m gaussmax.cli`` both run
``console_entry``: it calls ``main``, freezes the garbage collector and exits
with main's return code.  Frozen objects are never collected again, so the
interpreter's final collections at exit skip NumPy's module heap: the time
from main's return to the process's end fell from 22-25 ms to 5-7 ms per
command on a 2-core host.  ``atexit`` handlers still run and the interpreter
still flushes stdout and stderr.  ``main(argv)`` itself changes no
process-wide state, so library and test calls of it are unaffected.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ
                                          for v in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

# NumPy loads from here on, so these imports follow the BLAS setting.
from . import __version__, streams  # noqa: E402
from .hermite import (  # noqa: E402
    _ROW_ERRORS, _by_blocks, _check_int, _finite, _refinement_factors)

if TYPE_CHECKING:   # each runner imports the modules it calls, and no more
    from .geometry import FaceDecomposition
    from .model import IsotropicModel

_COMMANDS = ("bound", "tail", "validate", "goe", "geom", "exponent")
_FORMATS = ("csv", "json")
_MAX_SWEEP_ROWS = 10 ** 6   # rows an abscissa min/max/step sweep may expand to


class ConfigError(ValueError):
    """Invalid configuration: wrong key, type, or value (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    """One fully specified run; serializes to/from a flat JSON object."""

    command: str
    model: dict | None = None
    geometry: dict | None = None
    abscissa: dict | None = None
    u: tuple | None = None
    n: int | None = None
    resolution: tuple | None = None
    refinements: tuple = (1, 2, 4)
    exponent: dict | None = None
    reps: int = 10_000
    seed: int = 0
    out: str | None = None
    format: str = "csv"

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in d:
            raise ConfigError("config needs a command")
        kw = dict(d)
        for key in ("u", "resolution", "refinements"):
            if kw.get(key) is not None:
                try:
                    kw[key] = tuple(kw[key])
                except TypeError:
                    raise ConfigError(f"{key} must be a list") from None
        try:
            cfg = cls(**kw)
        except TypeError as e:
            raise ConfigError(str(e)) from None
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is None and f.name != "command":
                continue
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    def validate(self):
        if self.command not in _COMMANDS:
            raise ConfigError(f"command must be one of {_COMMANDS}")
        if self.format not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}")
        if self.abscissa is not None and (
                not isinstance(self.abscissa, dict)
                or set(self.abscissa) != {"min", "max", "step"}):
            raise ConfigError("abscissa must be an object with exactly the "
                              "keys min, max, step")
        try:
            # validate needs two replicates for a standard error.
            _check_int(self.reps, 1 + (self.command == "validate"),
                       streams.MAX_REPS, "reps")
            streams.check_seed(self.seed)
            if self.abscissa is not None:
                _finite(list(self.abscissa.values()), "abscissa values")
            if self.u is not None:
                # A NaN level is a number: it fails its own row (exit 3).
                _finite([v for v in self.u if v == v], "every u entry",
                        -math.inf, math.inf)
            if self.n is not None:   # absdet_mean needs the size n + 1
                from .randmat import MAX_SIZE
                _check_int(self.n, 1, MAX_SIZE - 1, "n")
            for v in self.resolution or ():
                _check_int(v, 1, math.inf, "every resolution entry")
            _refinement_factors(self.refinements)
        except (TypeError, ValueError) as e:   # TypeError: a null list
            raise ConfigError(str(e)) from None
        # open() would take an int as a file descriptor: out=1 is stdout
        if self.out is not None and not (isinstance(self.out, str)
                                         and self.out):
            raise ConfigError(f"out must be a nonempty path, got {self.out!r}")


def _abscissa_values(cfg: RunConfig, what: str) -> list:
    """The sweep values, as floats: explicit u list, or min/max/step
    expansion."""
    if cfg.u is not None and cfg.abscissa is not None:
        raise ConfigError("give either u or abscissa, not both")
    if cfg.u is not None:
        if not cfg.u:
            raise ConfigError("u must be nonempty")
        return [float(v) for v in cfg.u]
    if cfg.abscissa is None:
        raise ConfigError(f"{what} needs u or abscissa in the config")
    lo, hi, step = (_finite(cfg.abscissa[k]) for k in ("min", "max", "step"))
    if not (step > 0 and hi >= lo):
        raise ConfigError("abscissa needs min <= max and step > 0")
    top = hi + 1e-9 * max(1.0, abs(hi), step)
    if not (top - lo) / step < _MAX_SWEEP_ROWS:
        raise ConfigError(f"abscissa expands to more than {_MAX_SWEEP_ROWS} "
                          "rows; raise step or narrow min..max")
    vals, k = [], 0
    while True:
        v = lo + k * step
        if v > top:
            break
        vals.append(v)
        k += 1
    return vals


def _build_model(cfg: RunConfig) -> IsotropicModel:
    from .model import make_rational, make_squared_exponential
    spec = cfg.model
    if spec is None:
        raise ConfigError(f"{cfg.command} needs a model in the config")
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError("model must be an object with a family key")
    family = spec["family"]
    params = {k: v for k, v in spec.items() if k != "family"}
    try:
        if family == "squared_exponential":
            return make_squared_exponential(**params)
        if family == "rational":
            return make_rational(**params)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad model parameters: {e}") from None
    raise ConfigError(f"unknown model family {family!r}")


def _geometry_spec(cfg: RunConfig) -> dict:
    spec = cfg.geometry
    if spec is None:
        raise ConfigError(f"{cfg.command} needs a geometry in the config")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("geometry must be an object with a kind key")
    return spec


def _build_geometry(cfg: RunConfig) -> FaceDecomposition:
    from .geometry import polytope_g_coeffs, rectangle_faces, sphere_surface
    spec = _geometry_spec(cfg)
    kind = spec["kind"]
    extra = set(spec) - {"kind", "sides", "d", "halfspaces"}
    if extra:
        raise ConfigError(f"unknown geometry keys: {sorted(extra)}")
    try:
        if kind == "rectangle":
            return rectangle_faces(spec["sides"])
        if kind == "sphere":
            return sphere_surface(spec["d"])
        if kind == "halfspaces":
            return polytope_g_coeffs(spec["halfspaces"],
                                     reps=cfg.reps, seed=cfg.seed)
    except KeyError as e:
        raise ConfigError(f"geometry {kind!r} needs key {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad geometry: {e}") from None
    raise ConfigError(f"unknown geometry kind {kind!r}")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass
class _RunResult:
    columns: list
    rows: list
    errors: list
    extra: dict


def _sweep(values, label: str, results, row):
    """(rows, errors) of a sweep: ``results`` holds one result, or the error
    that fails it, per value, and ``row(value, result)`` is a result's row."""
    out, errors = [], []
    for v, result in zip(values, results):
        if isinstance(result, Exception):
            errors.append(f"{label}={_fmt(v)}: {result}")
        else:
            out.append(row(v, result))
    return out, errors


def _polyhedral_geometry(cfg: RunConfig) -> FaceDecomposition:
    # refused by its kind before any row runs, as validate refuses a
    # geometry that is not a rectangle
    if _geometry_spec(cfg)["kind"] == "sphere":
        raise ConfigError(f"{cfg.command} needs a rectangle or halfspaces "
                          "geometry: the polyhedral density bound does not "
                          "apply to the sphere surface")
    return _build_geometry(cfg)


def _run_bound(cfg: RunConfig) -> _RunResult:
    from .bounds import _pbar_rows
    m = _build_model(cfg)
    geom = _polyhedral_geometry(cfg)
    xs = _abscissa_values(cfg, "bound")
    cols = (["x", "pbar", "pE"]
            + [f"principal_{j}" for j in range(geom.d0 + 1)]
            + [f"complementary_{j}" for j in range(geom.d0 + 1)])

    rows, errors = _sweep(xs, "x", _pbar_rows(m, geom, xs), lambda x, b: [
        x, b.pbar, b.pE, *b.principal_by_j, *b.complementary_by_j])
    return _RunResult(cols, rows, errors, {})


def _run_tail(cfg: RunConfig) -> _RunResult:
    from .bounds import _tail_rows
    m = _build_model(cfg)
    geom = _polyhedral_geometry(cfg)
    us = _abscissa_values(cfg, "tail")

    rows, errors = _sweep(us, "u", _tail_rows(m, geom, us),
                          lambda u, t: [u, t.pbar_tail, t.pE_tail])
    return _RunResult(["u", "pbar_tail", "pE_tail"], rows, errors, {})


def _run_validate(cfg: RunConfig) -> _RunResult:
    from .simulate import FieldGrid, _refined_grids, _validate_on_grids
    m = _build_model(cfg)
    # the kind before the geometry: a polytope is costly to build
    if _geometry_spec(cfg)["kind"] != "rectangle":
        raise ConfigError("validate needs a rectangle geometry")
    geom = _build_geometry(cfg)
    if cfg.resolution is None:
        raise ConfigError("validate needs a grid resolution in the config")
    us = _abscissa_values(cfg, "validate")
    try:    # every grid up front: one past the cap is a config error
        grids = _refined_grids(FieldGrid(geom.sides, cfg.resolution),
                               cfg.refinements)
    except ValueError as e:
        raise ConfigError(f"bad grid: {e}") from None
    report = _validate_on_grids(m, grids, us, reps=cfg.reps, seed=cfg.seed)
    cols = ["u", "emp_mean", "emp_stderr", "pbar_tail", "pE_tail", "verdict"]
    rows = [[u, report.empirical[i].mean, report.empirical[i].stderr,
             report.pbar_tails[i], report.pE_tails[i], report.verdicts[i]]
            for i, u in enumerate(report.u_values)]
    return _RunResult(cols, rows, [], {"report": dataclasses.asdict(report)})


@_by_blocks
def _goe_rows(n, nus: list) -> list:
    """(density, absdet_mean) at each nu of ``nus``."""
    from .randmat import expected_absdet_shifted_goe, goe_eigen_density
    return list(zip(goe_eigen_density(n, nus).tolist(),
                    expected_absdet_shifted_goe(n, nus).tolist()))


def _run_goe(cfg: RunConfig) -> _RunResult:
    if cfg.n is None:
        raise ConfigError("goe needs the matrix size n in the config")
    nus = _abscissa_values(cfg, "goe")
    rows, errors = _sweep(nus, "nu", _goe_rows(cfg.n, nus),
                          lambda nu, values: [int(cfg.n), nu, *values])
    return _RunResult(["n", "nu", "density", "absdet_mean"], rows, errors, {})


def _run_geom(cfg: RunConfig) -> _RunResult:
    geom = _build_geometry(cfg)
    rows = []
    for j in range(geom.d0 + 1):
        se = 0.0 if geom.g_stderr is None else float(geom.g_stderr[j])
        rows.append([j, float(geom.g[j]), se])
    meta = {"kind": str(geom.kind.value), "d": geom.d, "d0": geom.d0,
            "kappa": geom.kappa}
    return _RunResult(["j", "g", "g_stderr"], rows, [], {"geometry": meta})


def _run_exponent(cfg: RunConfig) -> _RunResult:
    from .asympt import Z_delta_exponent, exponent_convex, exponent_general
    spec = cfg.exponent
    if spec is None or not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("exponent needs an object with a kind key")
    kind = spec["kind"]
    try:
        if kind == "general":
            rep = exponent_general(spec["sigma2"], spec["lambda_bar"],
                                   spec["kappa"])
        elif kind == "convex":
            rep = exponent_convex(_build_model(cfg))
        elif kind == "z_delta":
            rep = Z_delta_exponent(_build_model(cfg), spec["delta"])
        else:
            raise ConfigError(f"unknown exponent kind {kind!r}")
    except KeyError as e:
        raise ConfigError(f"exponent {kind!r} needs key {e}") from None
    except ValueError as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"bad exponent parameters: {e}") from None
    c = rep.components
    cols = ["rate", "sigma2", "lambda_bar", "kappa", "exact"]
    rows = [[rep.rate, c.sigma2, c.lambda_bar, c.kappa, rep.exact]]
    return _RunResult(cols, rows, [], {"detail": dict(rep.detail)})


_RUNNERS = {"bound": _run_bound, "tail": _run_tail, "validate": _run_validate,
            "goe": _run_goe, "geom": _run_geom, "exponent": _run_exponent}


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_csv(cfg: RunConfig, res: _RunResult) -> str:
    lines = [f"# gaussmax {__version__}",
             f"# config: {_canonical_json(cfg.to_dict())}"]
    for key, val in sorted(res.extra.items()):
        if key != "report":
            lines.append(f"# {key}: {_canonical_json(val)}")
    lines.append(",".join(res.columns))
    for row in res.rows:
        lines.append(",".join(_fmt(v) for v in row))
    for err in res.errors:
        lines.append(f"# error: {err}")
    return "\n".join(lines) + "\n"


def _emit_json(cfg: RunConfig, res: _RunResult) -> str:
    payload = {"version": __version__, "config": cfg.to_dict(),
               "columns": res.columns, "rows": res.rows,
               "errors": res.errors}
    payload.update(res.extra)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _apply_set(base: dict, assignments) -> dict:
    for item in assignments or ():
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = base
        parts = key.split(".")
        for p in parts[:-1]:
            nxt = node.get(p)
            if not isinstance(nxt, dict):
                nxt = {}
                node[p] = nxt
            node = nxt
        node[parts[-1]] = value
    return base


def build_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="gaussmax",
        description="tail bounds and validation for smooth isotropic "
                    "Gaussian-field maxima")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--reps", type=int)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=_FORMATS)
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any config key (dotted paths reach "
                             "nested objects; VALUE parsed as JSON)")
    ns = parser.parse_args(argv)

    merged: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                merged = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from None
        if not isinstance(merged, dict):
            raise ConfigError("config file must hold a JSON object")
    _apply_set(merged, ns.set)
    if merged.get("command") not in (None, ns.command):
        raise ConfigError(
            f"config file says command {merged['command']!r} but the "
            f"command line says {ns.command!r}")
    merged["command"] = ns.command
    for key in ("seed", "reps", "out", "format"):
        v = getattr(ns, key)
        if v is not None:
            merged[key] = v
    return RunConfig.from_dict(merged)


def main(argv=None) -> int:
    try:
        cfg = build_config(argv if argv is not None else sys.argv[1:])
        res = _RUNNERS[cfg.command](cfg)
    except ConfigError as e:
        print(f"gaussmax: config error: {e}", file=sys.stderr)
        return 2
    except _ROW_ERRORS as e:
        print(f"gaussmax: numeric failure: {e}", file=sys.stderr)
        return 3

    text = (_emit_csv if cfg.format == "csv" else _emit_json)(cfg, res)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"gaussmax: config error: cannot write output file: {e}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    for err in res.errors:
        print(f"gaussmax: numeric failure: {err}", file=sys.stderr)
    return 3 if res.errors else 0


def console_entry():
    """Run ``main`` on the process's arguments and exit with its code,
    skipping the final garbage collections (module docstring)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_entry()
