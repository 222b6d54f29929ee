"""Command-line interface: config merging, output formats, exit codes."""
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import oracles
import gaussmax
from gaussmax import bounds, geometry
from gaussmax.cli import ConfigError, RunConfig, build_config, main
from gaussmax.model import make_squared_exponential

SQ_SPEC = {"family": "squared_exponential", "c": 0.5}
RECT_SPEC = {"kind": "rectangle", "sides": [1.0, 1.0]}


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def data_rows(csv_text):
    lines = [ln for ln in csv_text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


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
    ])
    def test_rejects_invalid(self, bad):
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

    def test_per_row_failure_keeps_sweep_going(self, capsys):
        code, out, err = run_cli(
            capsys, ["goe", "--set", "n=60", "--set", "u=[0.0,1.0]"])
        assert code == 3
        assert "numeric failure" in err
        assert "# error:" in out
        # header still emitted, no data rows survive
        header, rows = data_rows(out)
        assert header == ["n", "nu", "density", "absdet_mean"]
        assert rows == []

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

    def test_sphere_geometry_fails_numerically(self, capsys):
        code, out, err = run_cli(capsys, [
            "tail", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", 'geometry={"kind":"sphere","d":3}',
            "--set", "u=[1.0]"])
        assert code == 3 and "numeric failure" in err


class TestBoundCommand:
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

    def test_requires_rectangle(self, capsys):
        code, _, err = run_cli(capsys, [
            "validate", "--set", f"model={json.dumps(SQ_SPEC)}",
            "--set", 'geometry={"kind":"sphere","d":3}',
            "--set", "u=[1.0]", "--set", "resolution=[6,6]"])
        assert code == 2 and "rectangle" in err

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

    def test_invalid_values_are_config_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "exponent", "--set",
            'exponent={"kind":"general","sigma2":-1.0,"lambda_bar":0,'
            '"kappa":0}'])
        assert code == 2


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

    def test_every_exported_name_resolves(self):
        missing = [n for n in gaussmax.__all__ if not hasattr(gaussmax, n)]
        assert missing == []

    def test_console_script_installed(self):
        exe = shutil.which("gaussmax")
        assert exe is not None
        proc = subprocess.run([exe, "definitely-not-a-command"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
