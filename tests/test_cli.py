"""End-to-end command-line tests, run in process via cli.main."""

import json
import math

import numpy as np
import pytest

import depthrisk.levelset as levelset_module
from depthrisk import DepthModel, __version__
from depthrisk.cli import main

UNIT_MODEL = {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.fixture
def unit_model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(UNIT_MODEL))
    return path


def write_csv(path, rows, header=None):
    lines = ([header] if header else []) + [
        ",".join(str(v) for v in row) for row in rows
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv_floats(path):
    lines = path.read_text().splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


class TestDepthCommand:
    def test_grid(self, tmp_path, unit_model_path):
        out = tmp_path / "out"
        # equals form: the grid value itself starts with a dash
        code = main(
            ["depth", "--model", str(unit_model_path), "--grid=-1:1:3,-1:1:3",
             "-o", str(out)]
        )
        assert code == 0
        header, rows = read_csv_floats(out / "depths.csv")
        assert header == "x1,x2,depth,g1,g2"
        assert len(rows) == 9
        # row-major: first row is (-1, -1), center row is the origin
        assert rows[0][:2] == [-1.0, -1.0]
        assert rows[0][2] == pytest.approx(1.0 / 3.0, rel=1e-15)
        center = rows[4]
        assert center[:2] == [0.0, 0.0]
        assert center[2] == 1.0
        assert center[3] == 0.0 and center[4] == 0.0

    def test_points_file(self, tmp_path, unit_model_path):
        pts = write_csv(tmp_path / "pts.csv", [[1.0, 0.0], [3.0, 4.0]], header="x,y")
        code = main(
            ["depth", "--model", str(unit_model_path), "--points", str(pts),
             "-o", str(tmp_path)]
        )
        assert code == 0
        _, rows = read_csv_floats(tmp_path / "depths.csv")
        assert rows[0][2] == 0.5
        assert rows[1][2] == pytest.approx(1.0 / 26.0, rel=1e-15)
        # gradient at (1, 0): -2 * depth^2 * x
        assert rows[0][3] == pytest.approx(-0.5, rel=1e-15)
        assert rows[0][4] == 0.0

    def test_fit_then_grid(self, tmp_path):
        rng = np.random.default_rng(9)
        sample = write_csv(tmp_path / "s.csv", rng.normal(size=(200, 2)).tolist())
        code = main(["depth", "--fit", str(sample), "--grid=0:1:2,0:1:2",
                     "-o", str(tmp_path)])
        assert code == 0
        _, rows = read_csv_floats(tmp_path / "depths.csv")
        assert len(rows) == 4
        assert all(0.0 < r[2] <= 1.0 for r in rows)

    def test_column_mismatch_names_line(self, tmp_path, unit_model_path, capsys):
        pts = write_csv(tmp_path / "pts.csv", [[1.0, 0.0], [1.0, 2.0, 3.0]])
        code = main(["depth", "--model", str(unit_model_path), "--points", str(pts),
                     "-o", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unparseable_cell_names_line(self, tmp_path, unit_model_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n1.0,2.0\n1.0,oops\n")
        code = main(["depth", "--model", str(unit_model_path), "--points", str(pts),
                     "-o", str(tmp_path)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_bad_grid_spec(self, tmp_path, unit_model_path, capsys):
        code = main(["depth", "--model", str(unit_model_path), "--grid=0:1",
                     "-o", str(tmp_path)])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_non_finite_grid_bound_rejected(
        self, tmp_path, unit_model_path, capsys, axis, side, bound
    ):
        axes = [["0", "1", "2"], ["0", "1", "2"]]
        axes[axis - 1][0 if side == "lo" else 1] = bound
        spec = ",".join(":".join(a) for a in axes)
        out = tmp_path / "out"
        code = main(["depth", "--model", str(unit_model_path), f"--grid={spec}", "-o", str(out)])
        assert code == 2
        assert f"grid: axis {axis}: bounds must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        code = main(["depth", "--grid=0:1:2,0:1:2", "-o", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("source", ["points", "fit"])
    def test_non_finite_cell_rejected(self, tmp_path, unit_model_path, capsys, source, cell):
        pts = write_csv(tmp_path / "pts.csv", [[cell, 0.0], [1.0, 2.0], [0.5, -1.0], [2.0, 1.0]])
        if source == "points":
            args = ["--model", str(unit_model_path), "--points", str(pts)]
        else:
            args = ["--fit", str(pts), "--grid=0:1:2,0:1:2"]
        out = tmp_path / "out"
        code = main(["depth", *args, "-o", str(out)])
        assert code == 1
        assert "points must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, model", [
        ("mu", {"mu": ["0", 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}),
        ("mu", {"mu": [0.0, True], "sigma": [[1.0, 0.0], [0.0, 1.0]]}),
        ("sigma", {"mu": [0.0, 0.0], "sigma": [["1", 0.0], [0.0, 1.0]]}),
        ("sigma", {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0]]}),
        ("mu", {"mu": [10**400, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}),
    ], ids=["mu_str", "mu_bool", "sigma_str", "sigma_ragged", "mu_huge_int"])
    def test_non_numeric_model_file(self, tmp_path, capsys, key, model):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        code = main(["depth", "--model", str(path), "--grid=0:1:2,0:1:2",
                     "-o", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: model: {path}: {key}: wrong type\n"

    def test_non_finite_model_file(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"mu": [NaN, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}')
        out = tmp_path / "out"
        code = main(["depth", "--model", str(path), "--grid=0:1:2,0:1:2", "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: model: {path}: mu must be finite, got [nan, 0.0]\n"
        assert not (out / "depths.csv").exists()

    def test_bad_model_file(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        code = main(["depth", "--model", str(bad), "--grid=0:1:2,0:1:2",
                     "-o", str(tmp_path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestLevelsetCommand:
    def test_boundary_export(self, tmp_path, unit_model_path):
        out = tmp_path / "out"
        code = main(["levelset", "--model", str(unit_model_path), "--alpha", "0.5",
                     "-m", "128", "-o", str(out)])
        assert code == 0
        header, rows = read_csv_floats(out / "boundary.csv")
        assert header == "x1,x2"
        assert len(rows) == 128
        # alpha = 0.5 boundary is the unit circle
        for row in rows:
            assert row[0] ** 2 + row[1] ** 2 == pytest.approx(1.0, rel=1e-12)
        assert not (out / "diagnostics.json").exists()

    def test_diagnostics_with_second_model(self, tmp_path, unit_model_path):
        model2 = tmp_path / "m2.json"
        model2.write_text(
            json.dumps({"mu": [0.1, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]})
        )
        out = tmp_path / "out"
        code = main(["levelset", "--model", str(unit_model_path), "--alpha", "0.5",
                     "--model2", str(model2), "-m", "1024",
                     "--symdiff-n-mc", "20000", "--seed", "3", "-o", str(out)])
        assert code == 0
        doc = json.loads((out / "diagnostics.json").read_text())
        assert sorted(doc) == ["alpha", "boundary_m", "hausdorff", "resolution",
                               "symdiff_n_mc", "symdiff_se", "symdiff_volume"]
        assert doc["alpha"] == 0.5
        assert doc["boundary_m"] == 1024
        # translated unit circles: hausdorff equals the shift
        assert doc["hausdorff"] == pytest.approx(0.1, abs=doc["resolution"])
        # two unit disks with centers 0.1 apart: 2 * (pi - lens overlap)
        t = 0.1
        lens = 2.0 * math.acos(t / 2.0) - (t / 2.0) * math.sqrt(4.0 - t * t)
        assert doc["symdiff_volume"] == pytest.approx(
            2.0 * (math.pi - lens), abs=4 * doc["symdiff_se"]
        )

    def test_diagnostics_resolution_read_once(self, tmp_path, unit_model_path, monkeypatch):
        calls = []
        nn_gap = levelset_module._nn_gap
        monkeypatch.setattr(levelset_module, "_nn_gap", lambda p: calls.append(1) or nn_gap(p))
        out = tmp_path / "out"
        code = main(["levelset", "--model", str(unit_model_path), "--alpha", "0.5",
                     "--model2", str(unit_model_path), "-m", "1024",
                     "--symdiff-n-mc", "1000", "-o", str(out)])
        assert code == 0
        assert len(calls) == 2  # one nearest-neighbor gap per boundary sample
        doc = json.loads((out / "diagnostics.json").read_text())
        # 1024 points on a unit circle lie 2 sin(pi / 1024) apart
        assert doc["resolution"] == pytest.approx(2.0 * math.sin(math.pi / 1024), rel=1e-9)

    @pytest.mark.parametrize("flag, value", [("-m", "10"), ("--symdiff-n-mc", "10")])
    def test_bad_diagnostic_leaves_no_output(self, tmp_path, unit_model_path, flag, value):
        # m = 10 is enough for boundary.csv but not for a Hausdorff estimate
        out = tmp_path / "out"
        code = main(["levelset", "--model", str(unit_model_path), "--alpha", "0.5",
                     "--model2", str(unit_model_path), flag, value, "-o", str(out)])
        assert code == 1
        assert not (out / "boundary.csv").exists()
        assert not (out / "diagnostics.json").exists()

    def test_bad_alpha(self, tmp_path, unit_model_path, capsys):
        code = main(["levelset", "--model", str(unit_model_path), "--alpha", "1.5",
                     "-o", str(tmp_path)])
        assert code == 1
        assert "alpha" in capsys.readouterr().err


class TestCcteCommand:
    def _write_inputs(self, tmp_path):
        # symmetric level sample: fitted model is mu=0, sigma=(10/7) I, so
        # the alpha=0.5 region is x^2 + y^2 >= 10/7
        level = write_csv(
            tmp_path / "level.csv",
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
             [2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0]],
            header="x,y",
        )
        cost = write_csv(
            tmp_path / "cost.csv",
            [[2.0, 0.0, 10.0], [0.5, 0.5, 99.0], [0.0, 3.0, 20.0]],
            header="x,y,cost",
        )
        return level, cost

    def test_json_to_stdout(self, tmp_path, capsys):
        level, cost = self._write_inputs(tmp_path)
        code = main(["ccte", "--level", str(level), "--cost", str(cost),
                     "--alpha", "0.5", "--json"])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert sorted(doc) == ["alpha", "degenerate", "hits", "n1", "n2", "value"]
        # the two far points are members, mean cost (10 + 20) / 2
        assert doc["n1"] == 8
        assert doc["n2"] == 3
        assert doc["hits"] == 2
        assert doc["value"] == 15.0
        assert doc["degenerate"] is False
        assert not (tmp_path / "estimate.json").exists()

    def test_file_output(self, tmp_path, capsys):
        level, cost = self._write_inputs(tmp_path)
        out = tmp_path / "out"
        code = main(["ccte", "--level", str(level), "--cost", str(cost),
                     "--alpha", "0.5", "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["value"] == 15.0

    @pytest.mark.parametrize("row, what", [
        ([math.nan, 0.0, 5.0], "points"),
        ([0.0, math.inf, 5.0], "points"),
        ([0.0, 3.0, math.nan], "costs"),
    ], ids=["nan_point", "inf_point", "nan_cost"])
    def test_non_finite_cost_file_rejected(self, tmp_path, capsys, row, what):
        level, _ = self._write_inputs(tmp_path)
        cost = write_csv(tmp_path / "cost.csv", [[2.0, 0.0, 10.0], row], header="x,y,cost")
        code = main(["ccte", "--level", str(level), "--cost", str(cost),
                     "--alpha", "0.5", "--json"])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{what} must be finite" in captured.err
        assert captured.out == ""

    def test_cost_column_count_checked(self, tmp_path, capsys):
        level, _ = self._write_inputs(tmp_path)
        bad = write_csv(tmp_path / "bad.csv", [[1.0, 2.0]], header="x,y")
        code = main(["ccte", "--level", str(level), "--cost", str(bad),
                     "--alpha", "0.5", "--json"])
        assert code == 1
        assert "columns" in capsys.readouterr().err


class TestExperimentCommand:
    CONFIG = {
        "data": {"kind": "gaussian", "mu": [0.0, 0.0],
                 "sigma": [[1.0, 0.0], [0.0, 1.0]]},
        "n_values": [16, 32],
        "alpha_values": [0.5],
        "replications": 3,
        "delta_values": [0.0],
        "truth_n_mc": 100000,
        "master_seed": 4,
    }

    def _config_path(self, tmp_path, obj=None):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj if obj is not None else self.CONFIG))
        return path

    def test_end_to_end(self, tmp_path, capsys):
        cfg = self._config_path(tmp_path)
        out = tmp_path / "run"
        code = main(["experiment", "--config", str(cfg), "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        for name in ("summary.csv", "rates.csv", "manifest.json"):
            assert (out / name).exists()
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + two cells

    def test_json_summary(self, tmp_path, capsys):
        cfg = self._config_path(tmp_path)
        out = tmp_path / "run"
        code = main(["experiment", "--config", str(cfg), "--json", "-o", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["cells", "out_dir", "wall_clock_seconds"]
        assert len(doc["cells"]) == 2
        assert sorted(doc["cells"][0]) == ["alpha", "mean", "n", "rmae", "truth"]
        assert doc["out_dir"] == str(out)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self._config_path(tmp_path)
        main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "a")])
        main(["experiment", "--config", str(cfg), "--seed", "99",
              "-o", str(tmp_path / "b")])
        a = (tmp_path / "a" / "summary.csv").read_bytes()
        b = (tmp_path / "b" / "summary.csv").read_bytes()
        assert a != b
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["master_seed"] == 99

    def test_rerun_and_threads_byte_identical(self, tmp_path):
        cfg = self._config_path(tmp_path)
        main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "a")])
        main(["experiment", "--config", str(cfg), "--threads", "2",
              "-o", str(tmp_path / "b")])
        for name in ("summary.csv", "rates.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_invalid_config_exits_2_without_partial_output(self, tmp_path, capsys):
        obj = {
            "data": {"kind": "frank_gumbel", "marginals": [
                {"mu": 0.0, "beta": 0.25}, {"mu": -0.5, "beta": 0.25}],
                "noise_var": 0.005},
            "n_values": [16],
            "alpha_values": [0.5],
            "replications": 2,
        }
        cfg = self._config_path(tmp_path, obj)
        out = tmp_path / "run"
        code = main(["experiment", "--config", str(cfg), "-o", str(out)])
        assert code == 2
        assert "theta" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{]")
        code = main(["experiment", "--config", str(cfg), "-o", str(tmp_path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["experiment", "--config", str(tmp_path / "absent.json"),
                     "-o", str(tmp_path)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestConvergenceCommand:
    def _config_path(self, tmp_path, **overrides):
        obj = {
            "model": UNIT_MODEL,
            "n_values": [16, 64, 256],
            "seeds": 3,
            "alpha": 0.5,
            "boundary_m": 256,
            "symdiff_n_mc": 2000,
            "master_seed": 1,
        }
        obj.update(overrides)
        path = tmp_path / "conv.json"
        path.write_text(json.dumps(obj))
        return path

    def test_table_shape(self, tmp_path):
        cfg = self._config_path(tmp_path)
        out = tmp_path / "out"
        code = main(["convergence", "--config", str(cfg), "-o", str(out)])
        assert code == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0].split(",") == [
            "n",
            "supnorm_median", "supnorm_q25", "supnorm_q75",
            "hausdorff_median", "hausdorff_q25", "hausdorff_q75",
            "symdiff_median", "symdiff_q25", "symdiff_q75",
        ]
        assert len(lines) == 5  # header + 3 sizes + slope row
        body = [line.split(",") for line in lines[1:4]]
        assert [row[0] for row in body] == ["16", "64", "256"]
        slope_row = lines[4].split(",")
        assert slope_row[0] == "slope"
        # distances shrink with n, so every slope is a negative number
        assert all(float(s) < 0.0 for s in slope_row[1:])

    def test_quartiles_bracket_median(self, tmp_path):
        cfg = self._config_path(tmp_path, n_values=[64], seeds=5)
        out = tmp_path / "out"
        main(["convergence", "--config", str(cfg), "-o", str(out)])
        lines = (out / "convergence.csv").read_text().splitlines()
        row = [float(v) for v in lines[1].split(",")[1:]]
        for k in range(0, 9, 3):
            med, q25, q75 = row[k], row[k + 1], row[k + 2]
            assert q25 <= med <= q75

    def test_single_n_slopes_na(self, tmp_path):
        cfg = self._config_path(tmp_path, n_values=[64], seeds=2)
        out = tmp_path / "out"
        code = main(["convergence", "--config", str(cfg), "-o", str(out)])
        assert code == 0
        slope_row = (out / "convergence.csv").read_text().splitlines()[-1]
        assert slope_row == "slope," + ",".join(["NA"] * 9)

    def test_single_seed_collapses_quartiles(self, tmp_path):
        cfg = self._config_path(tmp_path, n_values=[32], seeds=1)
        out = tmp_path / "out"
        main(["convergence", "--config", str(cfg), "-o", str(out)])
        lines = (out / "convergence.csv").read_text().splitlines()
        row = lines[1].split(",")[1:]
        assert row[0] == row[1] == row[2]
        assert row[3] == row[4] == row[5]

    def test_reproducible(self, tmp_path):
        cfg = self._config_path(tmp_path, n_values=[16, 64], seeds=2)
        main(["convergence", "--config", str(cfg), "-o", str(tmp_path / "a")])
        main(["convergence", "--config", str(cfg), "-o", str(tmp_path / "b")])
        assert (tmp_path / "a" / "convergence.csv").read_bytes() == (
            tmp_path / "b" / "convergence.csv"
        ).read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = self._config_path(tmp_path, n_values=[16, 64], seeds=2)
        main(["convergence", "--config", str(cfg), "-o", str(tmp_path / "a")])
        main(["convergence", "--config", str(cfg), "--seed", "7",
              "-o", str(tmp_path / "b")])
        assert (tmp_path / "a" / "convergence.csv").read_bytes() != (
            tmp_path / "b" / "convergence.csv"
        ).read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("seeds", 2.9),
        ("n_values", [250.7]),
        ("master_seed", True),
        ("boundary_m", "4096"),
        ("symdiff_n_mc", 100000.5),
    ])
    def test_non_integer_fields_rejected(self, tmp_path, capsys, field, value):
        cfg = self._config_path(tmp_path, **{field: value})
        out = tmp_path / "out"
        code = main(["convergence", "--config", str(cfg), "-o", str(out)])
        assert code == 2
        assert f"{field}: wrong type" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_reads_as_integer(self, tmp_path):
        for name, m in (("a", 4096), ("b", 4096.0)):
            cfg = self._config_path(tmp_path, n_values=[16], seeds=1, boundary_m=m)
            assert main(["convergence", "--config", str(cfg), "-o", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "convergence.csv").read_bytes() == (
            tmp_path / "b" / "convergence.csv"
        ).read_bytes()

    def test_config_problems_all_reported(self, tmp_path, capsys):
        path = tmp_path / "conv.json"
        path.write_text(json.dumps({"model": UNIT_MODEL, "alpha": 2.0}))
        code = main(["convergence", "--config", str(path), "-o", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_values: missing" in err
        assert "seeds: missing" in err
        assert "alpha" in err


class TestTopLevel:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_model_file_round_trip(self, tmp_path):
        # a model written by DepthModel.to_json is accepted as-is
        model = DepthModel.from_json(
            {"mu": [1.0, -2.0], "sigma": [[2.0, 0.3], [0.3, 1.0]]}
        )
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model.to_json()))
        code = main(["depth", "--model", str(path), "--grid=1:1:1,-2:-2:1",
                     "-o", str(tmp_path)])
        assert code == 0
        _, rows = read_csv_floats(tmp_path / "depths.csv")
        assert rows[0][2] == 1.0
