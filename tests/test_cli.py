"""Command-line interface: config merging, output formats, exit codes."""
import gc
import hashlib
import importlib
import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import oracles
import gaussmax
from gaussmax import bounds, geometry, hermite, randmat
from gaussmax.cli import (ConfigError, RunConfig, build_config, console_entry,
                          main)
from gaussmax.model import make_squared_exponential

SQ_SPEC = {"family": "squared_exponential", "c": 0.5}
RECT_SPEC = {"kind": "rectangle", "sides": [1.0, 1.0]}
RATIONAL_SPEC = {"family": "rational", "c": 1.0, "beta": 1.0}
CUBE_SPEC = {"kind": "rectangle", "sides": [1.0, 1.0, 1.0]}
SIMPLEX_SPEC = {"kind": "halfspaces", "halfspaces": [
    [[-1.0, 0.0, 0.0], 0.0], [[0.0, -1.0, 0.0], 0.0],
    [[0.0, 0.0, -1.0], 0.0], [[1.0, 1.0, 1.0], 1.0]]}


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def data_rows(csv_text):
    lines = [ln for ln in csv_text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


@pytest.fixture
def reference_kernels(monkeypatch):
    """Phi from math.erfc, the kernel the first output digests were taken
    with.  Under it every other stage of a command must still give those
    bytes."""
    for mod in (hermite, bounds, randmat):
        monkeypatch.setattr(mod, "_Phi", oracles.Phi_by_erfc)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig.from_dict({
            "command": "tail", "model": SQ_SPEC, "geometry": RECT_SPEC,
            "u": [1.0, 2.0], "reps": 50, "seed": 3, "format": "json"})
        assert cfg.u == (1.0, 2.0)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_drops_unset_optionals(self):
        d = RunConfig.from_dict({"command": "goe", "n": 2,
                                 "u": [0.0]}).to_dict()
        assert "model" not in d and "geometry" not in d and "out" not in d
        assert d["command"] == "goe"

    @pytest.mark.parametrize("bad", [
        {"command": "tail", "bogus": 1},
        {"command": "fly"},
        {},
        {"command": "tail", "format": "xml"},
        {"command": "tail", "reps": 0},
        {"command": "tail", "reps": -1},
        {"command": "tail", "seed": -2},
        {"command": "tail", "seed": True},
        {"command": "tail", "u": 3.0},
        {"command": "bound", "abscissa": {"min": 0.0, "max": 1.0}},
        {"command": "bound", "abscissa": {"min": 0, "max": 1, "step": 1,
                                          "pace": 2}},
        {"command": "validate", "seed": 2 ** 64},
        {"command": "bound", "abscissa": 5},
        {"command": "tail", "u": ["a"]},
        {"command": "tail", "u": [1.0, True]},
        {"command": "goe", "n": 2.7},
        {"command": "goe", "n": True},
        {"command": "goe", "n": "3"},
        {"command": "validate", "resolution": ["a"]},
        {"command": "validate", "resolution": [2.5]},
        {"command": "validate", "refinements": [1, True]},
        {"command": "validate", "refinements": [1, float("inf")]},
        {"command": "goe", "n": 0},
        {"command": "goe", "n": 61},
        {"command": "validate", "resolution": [-3]},
        {"command": "validate", "refinements": [0]},
        {"command": "validate", "refinements": []},
        {"command": "validate", "reps": 1},
        {"command": "validate", "reps": 10 ** 7 + 1},
        {"command": "tail", "reps": 10 ** 15},
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)

    def test_accepts_integral_floats(self):
        cfg = RunConfig.from_dict({"command": "validate", "n": 3.0,
                                   "resolution": [4.0, 5], "refinements": [1.0]})
        assert cfg.n == 3.0 and cfg.resolution == (4.0, 5)
        # reps and seed pass the same integer check as n.
        cfg = RunConfig.from_dict({"command": "validate", "reps": 3.0,
                                   "seed": 5.0})
        assert cfg.reps == 3.0 and cfg.seed == 5.0

    @pytest.mark.parametrize("bad", [
        {"command": "validate", "refinements": None},
        {"command": "tail", "u": [[1.0]]},
        {"command": "tail", "u": [1.0, None]},
        {"command": "bound", "abscissa": {"min": "0", "max": 1, "step": 1}},
        {"command": "bound", "abscissa": {"min": 0, "max": True, "step": 1}},
        {"command": "bound", "abscissa": {"min": 0, "max": 1,
                                          "step": float("nan")}},
        {"command": "tail", "seed": 1.5},
        {"command": "tail", "reps": "3"},
    ])
    def test_rejects_what_is_not_a_real_number(self, bad):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)

    def test_not_a_dict(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(["tail"])


class TestConfigMerging:
    def test_flags_override_set_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "goe", "n": 1, "u": [0.0],
                                    "seed": 1, "reps": 10}))
        cfg = build_config(["goe", "--config", str(path),
                           "--set", "seed=2", "--seed", "3"])
        assert cfg.seed == 3
        assert cfg.reps == 10
        cfg2 = build_config(["goe", "--config", str(path), "--set", "seed=2"])
        assert cfg2.seed == 2

    def test_dotted_set_reaches_nested_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "tail", "model": SQ_SPEC,
                                    "geometry": RECT_SPEC, "u": [1.0]}))
        cfg = build_config(["tail", "--config", str(path),
                            "--set", "model.c=0.25"])
        assert cfg.model == {"family": "squared_exponential", "c": 0.25}

    def test_set_parses_json_values(self):
        cfg = build_config(["goe", "--set", "n=2", "--set", "u=[0.0,1.5]"])
        assert cfg.n == 2 and cfg.u == (0.0, 1.5)

    def test_set_without_equals_is_config_error(self):
        with pytest.raises(ConfigError):
            build_config(["goe", "--set", "n2"])

    @pytest.mark.parametrize("setting, message", [
        # not JSON, so kept as the string "abc", which the model refuses
        pytest.param("model.c=abc", "bad model parameters: c must be a real "
                     "number, got 'abc'", id="non-json-value"),
        # a dotted path creates the objects it names
        pytest.param("a.b=1", "unknown config keys: ['a']",
                     id="new-nested-object"),
    ])
    def test_set_values_reach_the_checks(self, capsys, setting, message):
        code, out, err = run_cli(capsys, [
            "tail", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}", "--set", "u=[1.0]",
            "--set", setting])
        assert code == 2 and out == ""
        assert err == f"gaussmax: config error: {message}\n"

    def test_command_mismatch_with_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "tail"}))
        code, _, err = run_cli(capsys, ["goe", "--config", str(path)])
        assert code == 2 and "config error" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, ["goe", "--config", "/nonexistent.json"])
        assert code == 2 and "config error" in err

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["goe", "--config", str(path)])
        assert code == 2

    def test_config_file_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, ["goe", "--config", str(path)])
        assert code == 2


class TestGoeCommand:
    ARGS = ["goe", "--set", "n=1", "--set", "u=[0.0,1.0]"]

    def test_single_size_matches_closed_forms(self, capsys):
        code, out, err = run_cli(capsys, self.ARGS)
        assert code == 0 and err == ""
        header, rows = data_rows(out)
        assert header == ["n", "nu", "density", "absdet_mean"]
        assert len(rows) == 2
        for row in rows:
            nu = float(row[1])
            assert float(row[2]) == pytest.approx(stats.norm.pdf(nu), rel=1e-12)
            assert float(row[3]) == pytest.approx(
                oracles.absdet_n1_closed(nu), rel=1e-10)

    def test_byte_identical_rerun(self, capsys):
        _, out1, _ = run_cli(capsys, self.ARGS)
        _, out2, _ = run_cli(capsys, self.ARGS)
        assert out1 == out2

    def test_header_carries_version_and_config(self, capsys):
        _, out, _ = run_cli(capsys, self.ARGS)
        lines = out.split("\n")
        assert lines[0] == f"# gaussmax {gaussmax.__version__}"
        assert lines[1].startswith("# config: ")
        echoed = json.loads(lines[1][len("# config: "):])
        cfg = RunConfig.from_dict(echoed)
        assert cfg.to_dict() == echoed

    def test_n_past_the_absdet_size_is_config_error(self, capsys):
        # absdet_mean needs the density at size n + 1, so n stops at 59.
        code, out, err = run_cli(
            capsys, ["goe", "--set", "n=60", "--set", "u=[0.0,1.0]"])
        assert code == 2 and out == ""
        assert "config error: n must be an integer in [1, 59]" in err

    def test_nonfinite_level_is_a_row_failure(self, capsys):
        code, out, err = run_cli(
            capsys, ["goe", "--set", "n=3", "--set", "u=[NaN,0.0]"])
        assert code == 3
        assert "# error: nu=nan: nu must be finite" in out
        assert "numeric failure: nu=nan" in err
        _, rows = data_rows(out)
        assert [row[1] for row in rows] == ["0"]

    def test_missing_n_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, ["goe", "--set", "u=[0.0]"])
        assert code == 2 and "config error" in err

    @pytest.mark.parametrize("n", [8, 20, 59])
    def test_rows_are_each_value_alone(self, capsys, n):
        # One array call per block gives every row the bits of its value
        # alone.
        nus = [-5.0 + 0.1 * k for k in range(101)]
        code, out, _ = run_cli(capsys, [
            "goe", "--set", f"n={n}", "--set", f"u={json.dumps(nus)}",
            "--format", "json"])
        assert code == 0
        assert json.loads(out)["rows"] == [
            [n, nu, randmat.goe_eigen_density(n, nu),
             randmat.expected_absdet_shifted_goe(n, nu)] for nu in nus]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fmt,digest", [
        ("csv",
         "bbc28ce5c22af7126ba922c0c817f4bb372bad2f14e55384834c5990a872b02a"),
        ("json",
         "0d25fedc2a9461d4b1d565f0f103b467aaef219300e0df035131e6547768fad4"),
    ])
    def test_rows_across_a_block_boundary_pinned(self, capsys,
                                                 reference_kernels, fmt,
                                                 digest):
        # Failing values on both sides of the first block's end fail their
        # own rows.  The error lines are those of each value alone; the
        # digests were re-taken when the GOE kernel got one summation order,
        # which moved the last bits of some rows (n >= 7).
        self.test_rows_across_a_block_boundary_pinned_fast_kernels(
            capsys, fmt, digest)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fmt,digest", [
        ("csv",
         "b404bc983e3ee3d4d2767983d3d362302cff9bc95695d47854999b0f6358f10f"),
        ("json",
         "93c024f70e16e455459c0c5566aee0c7d5fd8148130d87092a59a606de49968d"),
    ])
    def test_rows_across_a_block_boundary_pinned_fast_kernels(self, capsys,
                                                              fmt, digest):
        # Taken when Phi became a NumPy rational approximation (3e-16
        # relative at most); the error lines are unchanged.
        nus = [repr(-4.0 + 0.2 * k) for k in range(40)]
        bad = {3: "NaN", 10: "Infinity", 20: "1e40",
               34: "NaN", 36: "-Infinity", 38: "1e40"}
        assert min(bad) < hermite._BLOCK < max(bad)
        for i, v in bad.items():
            nus[i] = v
        code, out, err = run_cli(capsys, [
            "goe", "--set", "n=12", "--set", f"u=[{', '.join(nus)}]",
            "--format", fmt])
        assert code == 3
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        failures = [("nan", "nu must be finite, got nan"),
                    ("inf", "nu must be finite, got inf"),
                    ("1e+40", "goe_eigen_density(12, 1e+40) must be finite, "
                              "got nan")]
        failures += [failures[0], ("-inf", "nu must be finite, got -inf"),
                     failures[2]]
        assert err == "".join(f"gaussmax: numeric failure: nu={v}: {why}\n"
                              for v, why in failures)


class TestTailCommand:
    def test_rows_match_library(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "command": "tail", "model": SQ_SPEC, "geometry": RECT_SPEC,
            "u": [1.0, 2.5]}))
        code, out, _ = run_cli(capsys, ["tail", "--config", str(path)])
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["u", "pbar_tail", "pE_tail"]
        m = make_squared_exponential(0.5)
        geom = geometry.rectangle_faces([1.0, 1.0])
        for row in rows:
            t = bounds.tail_bound(m, geom, float(row[0]))
            # %.17g round-trips doubles exactly
            assert float(row[1]) == t.pbar_tail
            assert float(row[2]) == t.pE_tail

    def test_u_and_abscissa_conflict(self, capsys):
        code, _, err = run_cli(capsys, [
            "tail", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}",
            "--set", "u=[1.0]",
            "--set", 'abscissa={"min":0,"max":1,"step":1}'])
        assert code == 2 and "not both" in err

    ARGS = ["tail", "--set", f"model={json.dumps(RATIONAL_SPEC)}",
            "--set", f"geometry={json.dumps(SIMPLEX_SPEC)}",
            "--set", "u=[-2.0, -0.3, 0.0, 0.4, 1.5, 3.0, 8.0]"]

    @pytest.mark.parametrize("fmt,digest", [
        ("json",
         "1f00769ecb50c5edbf91dc7bd8ba9d4681fe657dd44ab566f237698f39cf1531"),
        ("csv",
         "6b86dc4715d9184b727d0a30025d3c09aa048d242caed44a33d79e1234161268"),
    ])
    def test_output_bytes_pinned(self, capsys, reference_kernels, fmt,
                                 digest):
        # Digests of the full stdout under the old Phi, re-taken when the
        # tail correction became a closed form: pbar_tail moved by 4.7e-16
        # relative at most, and pE_tail kept its bits.
        self.test_output_bytes_pinned_fast_kernels(capsys, fmt, digest)

    @pytest.mark.parametrize("fmt,digest", [
        ("json",
         "d4bd8f3c7bd882f69d3ff68cb167c0bc9c7e94ab919f89ac50be0231f42e4da7"),
        ("csv",
         "f8df9c53c96f551564918ce1d4c16fe6a6914d7d4745b867189b940a45dfa32f"),
    ])
    def test_output_bytes_pinned_fast_kernels(self, capsys, fmt, digest):
        # Taken when the tail correction became a closed form, in place of
        # Gauss-Legendre panels: pbar_tail moved by 3.6e-16 relative at
        # most, and pE_tail kept its bits.
        code, out, _ = run_cli(capsys, self.ARGS + ["--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_pE_tail_fails_its_row(self, capsys):
        # On the cube the pE tail at u = -1e155 is inf * 0; it used to print
        # as a row of NaN with exit status 0.  The finite rows were re-pinned
        # when Phi and the Legendre rule moved off math.erfc and
        # numpy.polynomial (3.2e-16 relative at most), and when the tail
        # correction became a closed form (pbar_tail, 2.7e-16).
        error = ("u=-1e+155: value not finite for the pE tail at u=-1e+155: "
                 "value nan")
        code, out, err = run_cli(capsys, [
            "tail", "--set", f"model={json.dumps(RATIONAL_SPEC)}",
            "--set", f"geometry={json.dumps(CUBE_SPEC)}",
            "--set", "u=[-1e155, -1e70, 0]"])
        assert code == 3
        _, rows = data_rows(out)
        assert rows == [["-1.0000000000000001e+70", "10.980519958391675", "1"],
                        ["0", "5.4902599791958382", "1.1035923410864852"]]
        assert out.endswith(f"# error: {error}\n")
        assert err == f"gaussmax: numeric failure: {error}\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_levels_past_phi_underflow_print_zero_rows(self, capsys):
        # The panel rule's nodes overflowed at these levels, so each row
        # failed with "value not finite for the complementary tail".
        big = float(np.finfo(float).max)
        code, out, err = run_cli(capsys, [
            "tail", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}",
            "--set", f"u=[3.0, 1e155, 1e308, {big!r}]"])
        assert code == 0 and err == ""
        _, rows = data_rows(out)
        assert [float(r[0]) for r in rows] == [3.0, 1e155, 1e308, big]
        assert float(rows[0][1]) > 0.0
        assert all(float(v) == 0.0 for r in rows[1:] for v in r[1:])

    @pytest.mark.parametrize("command", ["tail", "bound"])
    def test_sphere_geometry_is_config_error(self, capsys, command):
        # Refused before any row runs, as validate refuses a geometry that
        # is not a rectangle: the polyhedral bound has no sphere rows.
        code, out, err = run_cli(capsys, [
            command, "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", 'geometry={"kind":"sphere","d":3}',
            "--set", "u=[1.0, 2.0]"])
        assert code == 2 and out == ""
        assert "config error" in err and "sphere" in err


class TestBoundCommand:
    @pytest.mark.parametrize("settings, message", [
        pytest.param(["abscissa=5"], "abscissa must be an object with "
                     "exactly the keys min, max, step", id="abscissa=5"),
        pytest.param(['u=["a"]'], "every u entry must be a real number, "
                     "got 'a'", id='u=["a"]'),
        pytest.param(["u=5"], "u must be a list", id="u=5"),
        pytest.param(["u=[]"], "u must be nonempty", id="u=[]"),
        pytest.param([], "bound needs u or abscissa in the config",
                     id="no-sweep"),
        pytest.param(['abscissa={"min": 2, "max": 1, "step": 0.5}'],
                     "abscissa needs min <= max and step > 0",
                     id="min-above-max"),
    ])
    def test_mistyped_sweep_is_config_error(self, capsys, settings, message):
        sets = [a for s in settings for a in ("--set", s)]
        code, out, err = run_cli(capsys, [
            "bound", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}", *sets])
        assert code == 2 and out == ""
        assert err == f"gaussmax: config error: {message}\n"

    @pytest.mark.parametrize("abscissa", [
        {"min": 0.0, "max": 1.0, "step": 1e-300},
        {"min": 0.0, "max": 0.0, "step": 1e-300},   # the end tolerance alone
        {"min": -1e308, "max": 1e308, "step": 1.0},
        {"min": 0.0, "max": 1.0, "step": 1e-6},     # 1,000,001 rows
    ])
    def test_oversized_abscissa_sweep_exits_at_once(self, abscissa):
        # More than 10^6 rows is a config error before any row is built.  A
        # subprocess with a 2 GiB address-space limit and a timeout, so a
        # sweep that does start building fails this test without taking
        # the machine's memory.  One BLAS thread, so that the buffers BLAS
        # allocates per thread at import stay far below the limit on hosts
        # with many cores.
        def limit_memory():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "gaussmax.cli", "bound",
             "--set", f"model={json.dumps(SQ_SPEC)}",
             "--set", f"geometry={json.dumps(RECT_SPEC)}",
             "--set", f"abscissa={json.dumps(abscissa)}"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                     OMP_NUM_THREADS="1"),
            preexec_fn=limit_memory)
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr and "10" in proc.stderr
        assert proc.stdout == ""

    # gamma < 1, so each row's R_j terms take the closed-form y-average
    ARGS = ["bound", "--set", f"model={json.dumps(RATIONAL_SPEC)}",
            "--set", f"geometry={json.dumps(CUBE_SPEC)}",
            "--set", "u=[-3.0, -0.5, 0.0, 0.7, 2.5, 6.0, 12.0]"]

    @pytest.mark.parametrize("fmt,digest", [
        ("json",
         "3fe06ce1228b8704a5606bb576e9a18fcb95111df885a0a6844ad593d4cc4219"),
        ("csv",
         "8dedf1966c582d36067ee0d98a660aa489c4b5c4201776b80fcd086cbdab2cee"),
    ])
    def test_output_bytes_pinned(self, capsys, reference_kernels, fmt,
                                 digest):
        # Under the old Phi the rows keep their bytes: this sweep's Phi
        # values round alike.
        self.test_output_bytes_pinned_fast_kernels(capsys, fmt, digest)

    @pytest.mark.parametrize("fmt,digest", [
        ("json",
         "3fe06ce1228b8704a5606bb576e9a18fcb95111df885a0a6844ad593d4cc4219"),
        ("csv",
         "8dedf1966c582d36067ee0d98a660aa489c4b5c4201776b80fcd086cbdab2cee"),
    ])
    def test_output_bytes_pinned_fast_kernels(self, capsys, fmt, digest):
        # Taken when one closed form came to serve every averaging width:
        # against the digests before it, pbar moved by 2.5e-16 relative at
        # most, complementary_2 by 6.1e-15 and complementary_3 by 3.9e-15;
        # pE, the principal terms and complementary_1 kept their bits.
        code, out, _ = run_cli(capsys, self.ARGS + ["--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_levels_past_phi_underflow_print_zero_rows(self, capsys):
        # The 64/128-node y-average of R_j refused u = 70 here, exit 3 with
        # "quadrature non-convergent for R_1(70.0)", while 30 and 90 printed.
        code, out, err = run_cli(capsys, [
            "bound", "--set", f"model={json.dumps(RATIONAL_SPEC)}",
            "--set", f"geometry={json.dumps(CUBE_SPEC)}",
            "--set", "u=[30, 70, 90]"])
        assert code == 0 and err == ""
        _, rows = data_rows(out)
        assert [float(r[0]) for r in rows] == [30.0, 70.0, 90.0]
        assert float(rows[0][1]) > 0.0
        assert all(float(v) == 0.0 for v in rows[1][1:])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,error", [
        ("bound", "x=1e+155: value not finite for the pE terms at x=1e+155 "
                  "at flat index 2: value nan"),
        ("tail", "u=1e+155: value not finite for the pE tail at u=1e+155: "
                 "value nan")])
    def test_failing_row_fails_alone(self, capsys, command, error):
        # The error lines are those of the sweep that computed each row on
        # its own; the rows on either side, in the same block, still print.
        # On the cube: the square's tail at 1e155 is a row of 0s.
        code, out, err = run_cli(capsys, [
            command, "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(CUBE_SPEC)}",
            "--set", "u=[1.0, 1e155, 2.0]"])
        assert code == 3
        _, rows = data_rows(out)
        assert [float(r[0]) for r in rows] == [1.0, 2.0]
        assert out.endswith(f"# error: {error}\n")
        assert err == f"gaussmax: numeric failure: {error}\n"
        m, geom = make_squared_exponential(0.5), geometry.rectangle_faces(
            [1, 1, 1])
        for row, level in zip(rows, (1.0, 2.0)):
            want = (bounds.pbar_density(m, geom, level).pbar
                    if command == "bound" else
                    bounds.tail_bound(m, geom, level).pbar_tail)
            assert float(row[1]) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,fmt,digest", [
        ("bound", "csv",
         "1ea1c30179c8081fe26a051972ba6963d21b9446b32b7837cb8fd87b78d242df"),
        ("bound", "json",
         "ea59175d4d345f2fd5041529ea35aede409f6cf855ef7a56e7c752c3c26f1c68"),
        ("tail", "csv",
         "85a8388c9231eb4f8019c6f34ab2bfbab026a453d55fe87d79a7a1fe7075cd5d"),
        ("tail", "json",
         "f2c7aff39fb22777e9b1e675fe8b774fdaf376af41e2db5ecb7dbd47cf238031"),
    ])
    def test_nonfinite_levels_fail_their_rows(self, capsys, reference_kernels,
                                              command, fmt, digest):
        # NaN and infinite levels fail their own rows, in the same block as
        # finite ones and one that overflows; digests and error lines taken
        # when the sweep checked each level before any kernel ran, and
        # re-taken when the results' check lost its ", check nan" and the
        # tail correction became a closed form (the tail's finite rows
        # kept their bits under this Phi; 1e155 became a row of 0s).
        self.test_nonfinite_levels_fail_their_rows_fast_kernels(
            capsys, command, fmt, digest)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command,fmt,digest", [
        ("bound", "csv",
         "46cc751b19fc45f0b46f94b97a2ca576c9047a57018c90b9a69473bd2b80ac72"),
        ("bound", "json",
         "cc6f1f8a53342a23a08eb030e5361665591ae5eb11ca8ff1fd79a0cd631ffe93"),
        ("tail", "csv",
         "7d831dfa212b141d128ed73ecc733d019d92c852abd9d0bccf10f01700613b59"),
        ("tail", "json",
         "56ea51b991d4d75fab5d6c7d05dc774cf1395b8e6a844e055a1044dde78c2e32"),
    ])
    def test_nonfinite_levels_fail_their_rows_fast_kernels(self, capsys,
                                                           command, fmt,
                                                           digest):
        # Taken when Phi and the Legendre rule moved off math.erfc and
        # numpy.polynomial (1.2e-15 relative at most), and re-taken when
        # the error lines lost their ", check nan" and the tail correction
        # became a closed form: pbar_tail moved by 2.4e-16 relative at
        # most, and the tail at 1e155 became a row of 0s.
        code, out, err = run_cli(capsys, [
            command, "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}",
            "--set", "u=[1.0, NaN, 2.0, Infinity, 1e155, -Infinity, 3.0]",
            "--format", fmt])
        label = "x" if command == "bound" else "u"
        failures = [("nan", f"{label} must be finite, got nan"),
                    ("inf", f"{label} must be finite, got inf"),
                    ("-inf", f"{label} must be finite, got -inf")]
        if command == "bound":      # the tail at 1e155 is a row of 0s
            failures.insert(2, ("1e+155", "value not finite for the pE terms "
                                          "at x=1e+155 at flat index 2: "
                                          "value nan"))
        assert code == 3
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == "".join(
            f"gaussmax: numeric failure: {label}={v}: {why}\n"
            for v, why in failures)

    @pytest.mark.parametrize("command,column", [
        ("bound", 0), ("tail", 0), ("goe", 1)])
    def test_integer_levels_are_swept_as_floats(self, capsys, command,
                                                column):
        # JSON tells 1 from 1.0: a level given as an integer comes out as
        # the float it was swept at.
        code, out, _ = run_cli(capsys, [
            command, "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}", "--set", "n=3",
            "--set", "u=[1, -2]", "--format", "json"])
        assert code == 0
        levels = [row[column] for row in json.loads(out)["rows"]]
        assert levels == [1.0, -2.0]
        assert all(type(v) is float for v in levels)

    def test_abscissa_expansion_and_columns(self, capsys):
        code, out, _ = run_cli(capsys, [
            "bound", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}",
            "--set", 'abscissa={"min":0.0,"max":1.0,"step":0.5}'])
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["x", "pbar", "pE",
                          "principal_0", "principal_1", "principal_2",
                          "complementary_0", "complementary_1",
                          "complementary_2"]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
        m = make_squared_exponential(0.5)
        geom = geometry.rectangle_faces([1.0, 1.0])
        b = bounds.pbar_density(m, geom, 0.5)
        assert float(rows[1][1]) == b.pbar
        assert float(rows[1][2]) == b.pE

    def test_missing_model_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "bound", "--set", f"geometry={json.dumps(RECT_SPEC)}",
            "--set", "u=[1.0]"])
        assert code == 2

    def test_unknown_model_family(self, capsys):
        code, _, err = run_cli(capsys, [
            "bound", "--set", 'model={"family":"matern","c":1}',
            "--set", f"geometry={json.dumps(RECT_SPEC)}",
            "--set", "u=[1.0]"])
        assert code == 2 and "family" in err


@pytest.mark.parametrize("model, geom", [
    ({"family": "squared_exponential", "c": "0.5"}, RECT_SPEC),
    ({"family": "rational", "c": 1.0, "beta": True}, RECT_SPEC),
    (SQ_SPEC, {"kind": "rectangle", "sides": ["1", True]}),
    (SQ_SPEC, {"kind": "rectangle", "sides": [1.0, True]}),
    (SQ_SPEC, {"kind": "halfspaces", "halfspaces": [
        [[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0], [[1.0, 1.0], "1"]]}),
], ids=["c_str", "beta_bool", "sides_str_bool", "sides_bool",
        "offset_str"])
def test_model_and_geometry_numbers_must_be_real(capsys, model, geom):
    code, out, err = run_cli(capsys, [
        "tail", "--set", f"model={json.dumps(model)}",
        "--set", f"geometry={json.dumps(geom)}", "--set", "u=[1.0]"])
    assert code == 2 and out == "" and "must be a real number" in err


@pytest.mark.parametrize("settings, message", [
    pytest.param(["model=5", f"geometry={json.dumps(RECT_SPEC)}"],
                 "model must be an object with a family key", id="model=5"),
    pytest.param([f"model={json.dumps(SQ_SPEC)}"],
                 "tail needs a geometry in the config", id="no-geometry"),
    pytest.param([f"model={json.dumps(SQ_SPEC)}", "geometry=3"],
                 "geometry must be an object with a kind key",
                 id="geometry=3"),
    pytest.param([f"model={json.dumps(SQ_SPEC)}",
                  'geometry={"kind": "rectangle", "sides": [1, 1], '
                  '"side": 2}'],
                 "unknown geometry keys: ['side']", id="geometry-key"),
    pytest.param([f"model={json.dumps(SQ_SPEC)}",
                  'geometry={"kind": "rectangle"}'],
                 "geometry 'rectangle' needs key 'sides'", id="no-sides"),
])
def test_model_and_geometry_specs_are_checked(capsys, settings, message):
    sets = [a for s in settings for a in ("--set", s)]
    code, out, err = run_cli(capsys, ["tail", *sets, "--set", "u=[1.0]"])
    assert code == 2 and out == ""
    assert err == f"gaussmax: config error: {message}\n"


class TestValidateCommand:
    ARGS = ["validate", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}",
            "--set", "u=[1.0]", "--set", "resolution=[6,6]",
            "--set", "refinements=[1]", "--reps", "200", "--seed", "7"]

    def test_csv_output(self, capsys):
        code, out, err = run_cli(capsys, self.ARGS)
        assert code == 0 and err == ""
        header, rows = data_rows(out)
        assert header == ["u", "emp_mean", "emp_stderr", "pbar_tail",
                          "pE_tail", "verdict"]
        assert rows[0][-1] in ("bound_respected", "inconclusive")
        # the full report is json-only meta; csv must stay flat
        assert "# report:" not in out

    def test_json_carries_full_report(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"version", "config", "columns", "rows",
                                "errors", "report"}
        assert payload["report"]["verdicts"][0] in ("bound_respected",
                                                    "inconclusive")
        assert payload["rows"][0][1] == payload["report"]["empirical"][0]["mean"]

    @pytest.mark.parametrize("fmt,digest", [
        ("json",
         "db1b9eb8e19de5d967dee3c14360e383fd20bafb70a7fc831fe80f55753c2f94"),
        ("csv",
         "10474c9c2cd74c6b9aec694a6434a352ff0283ca4bdde542a121d716b3fae16f"),
    ])
    def test_output_bytes_pinned(self, capsys, reference_kernels, fmt,
                                 digest):
        # Digests of the full stdout, taken while ValidationReport still
        # had its own hand-written JSON serializer; the report is now
        # emitted through dataclasses.asdict, byte for byte the same.
        self.test_output_bytes_pinned_fast_kernels(capsys, fmt, digest)

    @pytest.mark.parametrize("fmt,digest", [
        ("json",
         "4996a8f772c8ec783d4999dfce28f74acbe0c75172407d80ce1bb149456ccbc5"),
        ("csv",
         "33c883f13eeea5d3ee7de87634c6d4d2ece473f7617f34f7df3667742fb2e1cd"),
    ])
    def test_output_bytes_pinned_fast_kernels(self, capsys, fmt, digest):
        # Taken when Phi and the Legendre rule moved off math.erfc and
        # numpy.polynomial (1.4e-16 relative at most), and re-taken when
        # the tail correction became a closed form: pbar_tail moved by
        # 2.4e-16 relative; under the old Phi the bytes did not move.
        code, out, _ = run_cli(capsys, self.ARGS + ["--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_pE_tail_fails(self, capsys):
        # It used to print a NaN bound with the verdict "inconclusive" and
        # exit status 0.
        code, out, err = run_cli(capsys, [
            "validate", "--set", f"model={json.dumps(RATIONAL_SPEC)}",
            "--set", f"geometry={json.dumps(CUBE_SPEC)}",
            "--set", "u=[-1e155, 1.0]", "--set", "resolution=[3,3,3]",
            "--set", "refinements=[1]", "--reps", "20"])
        assert code == 3 and out == ""
        assert err == ("gaussmax: numeric failure: value not finite for the "
                       "pE tail at u=-1e+155: value nan\n")

    def test_requires_rectangle(self, capsys):
        code, _, err = run_cli(capsys, [
            "validate", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", 'geometry={"kind":"sphere","d":3}',
            "--set", "u=[1.0]", "--set", "resolution=[6,6]"])
        assert code == 2 and "rectangle" in err

    def test_refinements_must_increase(self, capsys):
        argv = [a.replace("refinements=[1]", "refinements=[2,1]")
                for a in self.ARGS]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and "strictly increasing" in err
        with pytest.raises(ConfigError, match="strictly increasing"):
            RunConfig.from_dict({"command": "validate",
                                 "refinements": [1, 2, 2]})

    @pytest.mark.parametrize("resolution, refinements, why", [
        ("[40,40]", "[1,2,3]", "grid has 14400 points"),
        ("[101,100]", "[1]", "grid has 10100 points"),
        ("[5,5,5]", "[1]", "one integer or one per axis")])
    def test_bad_grid_is_config_error(self, capsys, resolution, refinements,
                                      why):
        argv = [a.replace("resolution=[6,6]", f"resolution={resolution}")
                 .replace("refinements=[1]", f"refinements={refinements}")
                for a in self.ARGS]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "config error: bad grid: " in err and why in err

    def test_reps_past_the_cap_is_config_error(self, capsys):
        # Refused before any array of maxima is allocated.
        argv = [a.replace("200", "1000000000000000") for a in self.ARGS]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err == ("gaussmax: config error: reps must be an integer in "
                       "[2, 10000000], got 1000000000000000\n")

    def test_requires_resolution(self, capsys):
        code, _, err = run_cli(capsys, [
            "validate", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"geometry={json.dumps(RECT_SPEC)}",
            "--set", "u=[1.0]"])
        assert code == 2 and "resolution" in err


class TestGeomCommand:
    def test_sphere_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, [
            "geom", "--set", 'geometry={"kind":"sphere","d":3}'])
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["j", "g", "g_stderr"]
        ref = geometry.sphere_surface(3)
        assert len(rows) == ref.d0 + 1
        for j, row in enumerate(rows):
            assert int(row[0]) == j
            assert float(row[1]) == float(ref.g[j])
        meta = [ln for ln in out.split("\n") if ln.startswith("# geometry:")]
        assert len(meta) == 1
        gd = json.loads(meta[0][len("# geometry: "):])
        assert gd["kind"] == geometry.GeometryKind.SPHERE_SURFACE.value
        assert gd["d"] == 3

    def test_polytope_needs_valid_halfspaces(self, capsys):
        code, _, err = run_cli(capsys, [
            "geom", "--set", 'geometry={"kind":"halfspaces","halfspaces":[]}'])
        assert code == 2

    def test_unknown_kind(self, capsys):
        code, _, err = run_cli(capsys, [
            "geom", "--set", 'geometry={"kind":"torus"}'])
        assert code == 2 and "torus" in err


class TestExponentCommand:
    def test_general_kind(self, capsys):
        code, out, _ = run_cli(capsys, [
            "exponent", "--set",
            'exponent={"kind":"general","sigma2":2.0,"lambda_bar":0.0,'
            '"kappa":0.0}'])
        assert code == 0
        header, rows = data_rows(out)
        assert header == ["rate", "sigma2", "lambda_bar", "kappa", "exact"]
        assert float(rows[0][0]) == 1.5
        assert rows[0][4] == "false"

    def test_convex_kind_with_model(self, capsys):
        code, out, _ = run_cli(capsys, [
            "exponent", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", 'exponent={"kind":"convex"}', "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row[0] == pytest.approx(1.5, abs=1e-12)
        assert row[4] is True
        assert payload["detail"]["sigma2_limit"] == pytest.approx(2.0, abs=1e-12)

    def test_z_delta_kind(self, capsys):
        code, out, _ = run_cli(capsys, [
            "exponent", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", 'exponent={"kind":"z_delta","delta":2.0}'])
        assert code == 0
        _, rows = data_rows(out)
        assert float(rows[0][0]) == pytest.approx(1.5, abs=1e-9)

    def test_missing_parameter_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "exponent", "--set", 'exponent={"kind":"general","sigma2":1.0}'])
        assert code == 2

    @pytest.mark.parametrize("settings, message", [
        pytest.param([], "exponent needs an object with a kind key",
                     id="no-exponent"),
        pytest.param(['exponent={"kind": "concave"}'],
                     "unknown exponent kind 'concave'", id="unknown-kind"),
    ])
    def test_exponent_spec_is_checked(self, capsys, settings, message):
        sets = [a for s in settings for a in ("--set", s)]
        code, out, err = run_cli(capsys, ["exponent", *sets])
        assert code == 2 and out == ""
        assert err == f"gaussmax: config error: {message}\n"

    def test_invalid_values_are_config_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "exponent", "--set",
            'exponent={"kind":"general","sigma2":-1.0,"lambda_bar":0,'
            '"kappa":0}'])
        assert code == 2

    @pytest.mark.parametrize("spec", [
        '{"kind":"general","sigma2":true,"lambda_bar":0,"kappa":0}',
        '{"kind":"general","sigma2":"2","lambda_bar":0,"kappa":0}',
        '{"kind":"z_delta","delta":"2.0"}',
    ], ids=["sigma2_bool", "sigma2_str", "delta_str"])
    def test_non_real_values_are_config_error(self, capsys, spec):
        code, out, err = run_cli(capsys, [
            "exponent", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", f"exponent={spec}"])
        assert code == 2 and out == "" and "must be a real number" in err

    def test_infinite_kappa_is_the_trivial_rate(self, capsys):
        code, out, _ = run_cli(capsys, [
            "exponent", "--set",
            'exponent={"kind":"general","sigma2":2.0,"lambda_bar":1.0,'
            '"kappa":Infinity}'])
        assert code == 0
        _, rows = data_rows(out)
        assert float(rows[0][0]) == 1.0


class TestOutputPlumbing:
    def test_out_writes_file(self, tmp_path, capsys):
        dest = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, [
            "goe", "--set", "n=1", "--set", "u=[0.0]", "--out", str(dest)])
        assert code == 0
        assert out == ""
        text1 = dest.read_text()
        run_cli(capsys, ["goe", "--set", "n=1", "--set", "u=[0.0]",
                         "--out", str(dest)])
        assert dest.read_text() == text1
        assert text1.startswith("# gaussmax ")

    @pytest.mark.parametrize("value", ["5", "true", '""'])
    def test_out_must_be_a_path(self, capsys, value):
        # open(5, "w") would write to and close file descriptor 5, and
        # out=true would do so to fd 1, stdout.
        code, out, err = run_cli(capsys, [
            "goe", "--set", "n=1", "--set", "u=[0.0]", "--set", f"out={value}"])
        assert code == 2 and out == ""
        assert err.startswith("gaussmax: config error: out must be a "
                              "nonempty path, got ")

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "run.csv"
        code, out, err = run_cli(capsys, [
            "goe", "--set", "n=1", "--set", "u=[0.0]", "--out", str(dest)])
        assert code == 2 and out == ""
        assert err.startswith("gaussmax: config error: cannot write output "
                              "file: ")
        assert str(dest) in err and "Traceback" not in err

    def test_json_payload_shape(self, capsys):
        code, out, _ = run_cli(capsys, [
            "goe", "--set", "n=1", "--set", "u=[0.5]", "--format", "json"])
        payload = json.loads(out)
        assert set(payload) == {"version", "config", "columns", "rows",
                                "errors"}
        assert payload["version"] == gaussmax.__version__
        cfg = RunConfig.from_dict(payload["config"])
        assert cfg.to_dict() == payload["config"]
        assert payload["errors"] == []

    def test_csv_floats_round_trip_exactly(self, capsys):
        _, out, _ = run_cli(capsys, ["goe", "--set", "n=3",
                                     "--set", "u=[0.7071067811865476]"])
        _, rows = data_rows(out)
        nu = float(rows[0][1])
        assert nu == 0.7071067811865476


class TestEntryPoint:
    # a bound run (exit 0), a config error (exit 2) and a failing row (exit 3)
    CASES = [(["bound", "--set", f"model={json.dumps(SQ_SPEC)}",
               "--set", f"geometry={json.dumps(RECT_SPEC)}",
               "--set", "u=[0.5, 1.0]"], 0),
             (["goe", "--set", "u=[0.0]"], 2),
             (["goe", "--set", "n=3", "--set", "u=[NaN,0.0]"], 3)]

    @staticmethod
    def run_module(argv, **kw):
        return subprocess.run([sys.executable, "-m", "gaussmax.cli", *argv],
                              capture_output=True, **kw)

    @pytest.mark.parametrize("argv,code", CASES)
    def test_module_run_matches_main(self, capsys, argv, code):
        # The process entry adds nothing to main's output, error lines or
        # exit code.
        proc = self.run_module(argv)
        got, out, err = run_cli(capsys, argv)
        assert got == proc.returncode == code
        assert (proc.stdout, proc.stderr) == (out.encode(), err.encode())

    def test_module_out_file_is_the_stdout_run(self, capsys, tmp_path,
                                               monkeypatch):
        # The file the process writes before it exits holds what main
        # writes, and what the stdout run prints but for the config's out.
        argv = self.CASES[0][0]
        printed = self.run_module(argv)
        (tmp_path / "module").mkdir()
        proc = self.run_module([*argv, "--out", "rows.csv"],
                               cwd=tmp_path / "module")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        written = (tmp_path / "module" / "rows.csv").read_bytes()
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, [*argv, "--out", "rows.csv"]) == (0, "", "")
        assert written == (tmp_path / "rows.csv").read_bytes()
        got, want = (text.decode().split("\n")
                     for text in (written, printed.stdout))
        assert got[:1] + got[2:] == want[:1] + want[2:]
        prefix = "# config: "
        assert json.loads(got[1].removeprefix(prefix)) == {
            **json.loads(want[1].removeprefix(prefix)), "out": "rows.csv"}

    def test_main_leaves_the_collector_as_it_found_it(self, capsys):
        before = (gc.get_freeze_count(), gc.isenabled())
        for argv, code in self.CASES:
            assert run_cli(capsys, argv)[0] == code
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_entry_freezes_the_collector_and_runs_atexit(self):
        script = (
            "import atexit, gc, sys\n"
            "from gaussmax import cli\n"
            "atexit.register(lambda: print('atexit', gc.get_freeze_count() "
            "> 0, gc.isenabled()))\n"
            "sys.argv = ['gaussmax', 'goe', '--set', 'n=1', '--set', "
            "'u=[0.0]']\n"
            "cli.console_entry()\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        output, last = proc.stdout.rsplit("atexit ", 1)
        assert last == "True True\n"
        header, rows = data_rows(output)
        assert header == ["n", "nu", "density", "absdet_mean"]
        assert len(rows) == 1

    def test_console_script_targets_the_entry_function(self):
        tomllib = pytest.importorskip("tomllib")   # Python 3.11 on
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["gaussmax"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is console_entry

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gaussmax.cli", "goe",
             "--set", "n=1", "--set", "u=[0.0]"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        header, rows = data_rows(proc.stdout)
        assert header == ["n", "nu", "density", "absdet_mean"]
        assert float(rows[0][2]) == pytest.approx(stats.norm.pdf(0.0),
                                                  rel=1e-12)

    def test_polytope_modules_load_lazily(self):
        # No SciPy module at all on the import, rectangle bound and tail,
        # goe, validate on both model families, mc_absdet and polytope
        # tail: Phi, the inverse normal CDF of the stream normals, every
        # grid factor and the H-polytope vertices, face measures and cone
        # facets are in the package.  The 5-cross-polytope has faces with
        # 4-d normal cones, so its tail also runs the direction sampler.
        # validate refuses a polytope as a config error without loading it.
        model = f"model={json.dumps(SQ_SPEC)}"
        rect = f"geometry={json.dumps(RECT_SPEC)}"
        rational = {"family": "rational", "c": 0.8, "beta": 1.0}
        triangle = {"kind": "halfspaces", "halfspaces": [
            [[-1.0, 0.0], 0.0], [[0.0, -1.0], 0.0], [[1.0, 1.0], 1.0]]}
        cross5 = {"kind": "halfspaces", "halfspaces": [
            [list(signs), 1.0] for signs in itertools.product([-1.0, 1.0],
                                                              repeat=5)]}
        runs = [["bound", "--set", model, "--set", rect, "--set", "u=[0.5]"],
                ["tail", "--set", model, "--set", rect, "--set", "u=[0.5]"],
                ["goe", "--set", "n=1", "--set", "u=[0.3]"],
                TestValidateCommand.ARGS,
                [*TestValidateCommand.ARGS,
                 "--set", f"model={json.dumps(rational)}"],
                "mc_absdet",
                [*TestValidateCommand.ARGS,
                 "--set", f"geometry={json.dumps(triangle)}"],
                ["tail", "--set", model,
                 "--set", f"geometry={json.dumps(triangle)}",
                 "--set", "u=[0.5]"],
                ["tail", "--reps", "1000", "--set", model,
                 "--set", f"geometry={json.dumps(cross5)}",
                 "--set", "u=[0.5]"]]
        script = (
            "import io, contextlib, json, sys\n"
            "import gaussmax.cli\n"
            "from gaussmax import randmat\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m == 'scipy' or m.startswith('scipy.'))\n"
            "report = [[0, loaded()]]\n"
            f"for argv in {runs!r}:\n"
            "    if argv == 'mc_absdet':\n"
            "        randmat.mc_absdet(3, 0.5, 100, 1)\n"
            "        report.append([0, loaded()])\n"
            "        continue\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = gaussmax.cli.main(argv)\n"
            "    report.append([code, loaded()])\n"
            "print(json.dumps(report))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        report = json.loads(proc.stdout)
        # import, bound, tail, goe, validate (both families), mc_absdet
        assert report[:7] == [[0, []]] * 7
        # validate refuses a polytope before it builds one
        assert report[7] == [2, []]
        # tail on the triangle and on the 5-cross-polytope
        assert report[8:] == [[0, []]] * 2

    def test_tail_path_does_not_load_numpy_ma(self):
        # np.unique and np.setdiff1d import numpy.ma on first use (NumPy
        # 2.4); the polytope tail and the asympt grid supremum use neither.
        simplex = {"kind": "halfspaces", "halfspaces": [
            [[-1.0, 0.0, 0.0], 0.0], [[0.0, -1.0, 0.0], 0.0],
            [[0.0, 0.0, -1.0], 0.0], [[1.0, 1.0, 1.0], 1.0]]}
        argv = ["tail", "--set",
                'model={"family": "rational", "c": 1.0, "beta": 1.0}',
                "--set", f"geometry={json.dumps(simplex)}",
                "--set", "u=[-1.0, 0.5, 3.0]"]
        script = (
            "import io, contextlib, json, sys\n"
            "import gaussmax.cli\n"
            "from gaussmax import asympt, model\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = gaussmax.cli.main({argv!r})\n"
            "m = model.make_squared_exponential(0.5)\n"
            "asympt.sigma2_isotropic(m, 1.0)\n"
            "print(json.dumps([code, 'numpy.ma' in sys.modules]))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, False]

    def test_no_command_loads_numpy_polynomial(self):
        # The densities, the tail and sphere_pbar are closed forms with no
        # Gauss rule, so no command, nor sphere_pbar, imports
        # numpy.polynomial.
        model = f"model={json.dumps(RATIONAL_SPEC)}"
        runs = [["bound", "--set", model,
                 "--set", f"geometry={json.dumps(CUBE_SPEC)}",
                 "--set", "u=[-1.0, 0.5, 3.0]"],
                ["tail", "--set", model,
                 "--set", f"geometry={json.dumps(SIMPLEX_SPEC)}",
                 "--set", "u=[0.5, 3.0]"],
                ["validate", "--set", model,
                 "--set", f"geometry={json.dumps(CUBE_SPEC)}",
                 "--set", "u=[1.0]", "--set", "resolution=[3,3,3]",
                 "--set", "refinements=[1]", "--reps", "20"],
                ["goe", "--set", "n=3", "--set", "u=[-0.5, 0.3]"]]
        script = (
            "import io, contextlib, json, sys\n"
            "import gaussmax.cli\n"
            "report = ['numpy.polynomial' in sys.modules]\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = gaussmax.cli.main(argv)\n"
            "    report.append([code, 'numpy.polynomial' in sys.modules])\n"
            "from gaussmax import bounds, model\n"
            "bounds.sphere_pbar(model.make_rational(1.0, 1.0), 3, 1.5)\n"
            "report.append('numpy.polynomial' in sys.modules)\n"
            "print(json.dumps(report))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, *[[0, False]] * len(runs),
                                           False]

    def test_each_command_loads_only_its_modules(self):
        # Each run starts from an empty gaussmax in sys.modules, so the set
        # it leaves is what its command imports.
        model = f"model={json.dumps(RATIONAL_SPEC)}"
        runs = {"import": None,
                **{f"{cmd} {name}": [cmd, "--set", model,
                                     "--set", f"geometry={json.dumps(geom)}",
                                     "--set", "u=[0.5, 3.0]"]
                   for cmd in ("bound", "tail")
                   for name, geom in (("rectangle", RECT_SPEC),
                                      ("simplex", SIMPLEX_SPEC))},
                "goe": ["goe", "--set", "n=3", "--set", "u=[0.3]"],
                "exponent": ["exponent", "--set", 'exponent={"kind": '
                             '"general", "sigma2": 2.0, "lambda_bar": 1.0, '
                             '"kappa": 0.5}']}
        script = (
            "import importlib, io, contextlib, json, sys\n"
            "def loaded():\n"
            "    return sorted(m.split('.', 1)[1] for m in sys.modules\n"
            "                  if m.startswith('gaussmax.'))\n"
            "report = {}\n"
            f"for name, argv in {runs!r}.items():\n"
            "    for m in [m for m in sys.modules if m.startswith('gaussmax')]:\n"
            "        del sys.modules[m]\n"
            "    importlib.import_module('gaussmax')\n"
            "    code = 0\n"
            "    if argv is not None:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            code = importlib.import_module('gaussmax.cli')"
            ".main(argv)\n"
            "    report[name] = [code, loaded()]\n"
            "print(json.dumps(report))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report.pop("import") == [0, []]
        skipped = {"goe": {"model", "geometry", "bounds", "simulate",
                           "asympt"},
                   "exponent": {"bounds", "geometry", "simulate"}}
        for name, (code, mods) in report.items():
            assert code == 0, name
            assert "cli" in mods, name
            never = skipped.get(name, {"asympt", "simulate", "randmat"})
            assert never.isdisjoint(mods), (name, mods)

    def test_every_exported_name_resolves(self):
        missing = [n for n in gaussmax.__all__ if not hasattr(gaussmax, n)]
        assert missing == []

    def test_console_script_installed(self):
        exe = shutil.which("gaussmax")
        assert exe is not None
        proc = subprocess.run([exe, "definitely-not-a-command"],
                              capture_output=True, text=True)
        assert proc.returncode == 2


class TestBlasThreads:
    """The CLI runs BLAS on one thread unless the user chose a count."""

    KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def environ_around(self, imports, **preset):
        """os.environ of a fresh interpreter before and after the imports;
        none of KEYS is set but those in ``preset``."""
        script = ("import json, os\n"
                  "before = dict(os.environ)\n"
                  f"import {imports}\n"
                  "print(json.dumps([before, dict(os.environ)]))\n")
        env = {k: v for k, v in os.environ.items() if k not in self.KEYS}
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**env, **preset}, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_cli_import_sets_one_thread(self):
        before, after = self.environ_around("gaussmax.cli")
        assert not set(self.KEYS) & set(before)
        assert after == {**before, **dict.fromkeys(self.KEYS, "1")}

    @pytest.mark.parametrize("imports,preset", [
        pytest.param("gaussmax.cli", {"OPENBLAS_NUM_THREADS": "2"},
                     id="preset-kept"),
        pytest.param("numpy, gaussmax.cli", {}, id="numpy-loaded-first"),
        pytest.param("gaussmax, gaussmax.simulate, gaussmax.bounds", {},
                     id="library"),
    ])
    def test_environ_left_alone(self, imports, preset):
        before, after = self.environ_around(imports, **preset)
        assert after == before
        assert {k: before.get(k) for k in self.KEYS} == {
            k: preset.get(k) for k in self.KEYS}

    def test_rank_400_validate_is_the_same_unset_and_set_to_one(self):
        # README's rank-400 case.  A process that keeps the default BLAS
        # pool samples other maxima bits on a multi-core host; the CLI's
        # stdout and, after importing gaussmax.cli, the maxima themselves
        # are the same with the variables unset and set to 1.
        model = '{"family": "rational", "c": 1.0, "beta": 1.0}'
        validate = [sys.executable, "-m", "gaussmax.cli", "validate",
                    "--format", "json", "--reps", "600", "--seed", "11",
                    "--set", f"model={model}",
                    "--set", 'geometry={"kind": "rectangle", '
                             '"sides": [20, 20]}',
                    "--set", "resolution=[20, 20]",
                    "--set", "refinements=[1]", "--set", "u=[1.0, 2.0, 3.0]"]
        maxima = [sys.executable, "-c",
                  "import hashlib\n"
                  "import gaussmax.cli\n"
                  "from gaussmax import model, simulate\n"
                  "mx = simulate.sample_maxima(model.make_rational(1.0, 1.0),"
                  " simulate.FieldGrid((20.0, 20.0), 20), 600, 11)\n"
                  "print(hashlib.sha256(mx.tobytes()).hexdigest())\n"]
        env = {k: v for k, v in os.environ.items() if k not in self.KEYS}
        outs = []
        for preset in ({}, dict.fromkeys(self.KEYS, "1")):
            for argv in (validate, maxima):
                proc = subprocess.run(argv, env={**env, **preset},
                                      capture_output=True, timeout=120)
                assert proc.returncode == 0, proc.stderr
                outs.append(proc.stdout)
        assert b"factors of rank (400,)" in outs[0]
        assert outs[:2] == outs[2:]
