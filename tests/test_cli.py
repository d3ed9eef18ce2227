import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import proxsplit
from proxsplit import cli
from proxsplit.cli import main
from proxsplit.problems import ProblemInstance, build_from_config
from proxsplit.solvers import SolverConfig

# SHA-256 of the report.json of ``certify all`` at seed 0.  Like the golden
# traces (see tests/test_golden_traces.py), it is generated from the commit
# before the change that moves it, with that change's src/ patched in, and its
# floats depend on the platform in the same ways: BLAS/LAPACK for the dense
# checks, pocketfft for the FFT-backed ones and the x86-64 long double for the
# gradient norms.
CERTIFY_ALL_SHA256 = "b6a0cc5df80d278b984311feef862d27d43dd1a46e40312e49ae07902b3e23ce"
# the same at seed 3, where every check whose settled tail the suite replays
# settles (rate:fista does not at seed 0)
CERTIFY_ALL_SEED3_SHA256 = "4d538f59670269668a1a5e57106bc0f80a6169d6fce88fd04cef1faf1706450f"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def lasso_fixture_dir(tmp_path):
    out = tmp_path / "fixtures" / "lasso8"
    cfg = write_config(tmp_path / "gen.json",
                       {"kind": "lasso", "dims": [6, 10], "sigma": 0.02,
                        "seed": 3, "lambda": 0.15})
    assert main(["generate", cfg, "--out", str(out)]) == 0
    return out


class TestSolve:
    def test_lasso_fixture_fista_hits_expected(self, tmp_path, lasso_fixture_dir):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "fixture": str(lasso_fixture_dir)},
            "recipe": "fista",
            "solver": {"max_iter": 20000},
        })
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["objective_error"] <= 1e-6
        assert (out / "trace.csv").exists()
        assert (out / "resolved_config.json").exists()

    def test_zero_iterations_empty_trace(self, tmp_path):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [3.0, 0.5], "lambda": 1.0},
            "recipe": "fb",
            "solver": {"max_iter": 0},
        })
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "iter_cap"
        assert summary["iterations"] == 0

    def test_unknown_recipe_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [1.0], "lambda": 0.1},
            "recipe": "newton",
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 1

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("operator", [
        {"kind": "stack", "ops": [{"kind": "identity"}]},
        {"kind": "composition", "outer": {"kind": "identity"},
         "inner": {"kind": "identity"}},
        {"kind": "no_such_kind"},
    ])
    def test_unsupported_operator_spec_is_config_error(self, tmp_path, capsys, operator):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [1.0, 2.0], "A": operator},
            "recipe": "fb",
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown operator kind" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", [[[]], [[float("nan")]]], ids=["empty", "nan"])
    def test_invalid_convolution_kernel_is_config_error(self, tmp_path, capsys, kernel):
        # an empty kernel used to build a zero operator and solve silently
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "tv_inverse", "rows": 2, "cols": 2, "lambda": 0.1,
                        "y": [1.0, 2.0, 0.5, 0.0],
                        "A": {"kind": "circular_conv", "kernel": kernel, "shape": [2, 2]}},
            "recipe": "cp2",
            "solver": {"max_iter": 5},
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "kernel" in capsys.readouterr().err

    def test_unknown_solver_field_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [1.0], "lambda": 0.1},
            "recipe": "fb",
            "solver": {"stepsize": 0.5},
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("solver", [5, [], {"max_iter": "10"}, {"max_iter": 10.5},
                                        {"gamma": "0.1"}, {"keep_iterates": 1}])
    def test_malformed_solver_block_is_config_error(self, tmp_path, capsys, solver):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [1.0, 2.0], "lambda": 0.1},
            "recipe": "dr",
            "solver": solver,
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: solver")
        assert len(err.strip().splitlines()) == 1

    def test_stop_at_fixed_point_truncates_the_trace(self, tmp_path):
        pixels = [[0.2, 0.2, 0.8], [0.2, 0.3, 0.8], [0.1, 0.2, 0.9]]
        outs = {}
        for stop in (True, False):
            cfg = write_config(tmp_path / f"solve_{stop}.json", {
                "problem": {"kind": "tv_denoise", "pixels": pixels, "lambda": 0.1},
                "recipe": "cp",
                "solver": {"max_iter": 4000, "stop_at_fixed_point": stop},
            })
            outs[stop] = tmp_path / f"run_{stop}"
            assert main(["solve", cfg, "--out", str(outs[stop])]) == 0
        stopped = (outs[True] / "trace.csv").read_bytes()
        full = (outs[False] / "trace.csv").read_bytes()
        assert len(stopped) < len(full) and full.startswith(stopped)
        summaries = [json.loads((outs[s] / "summary.json").read_text()) for s in (True, False)]
        assert summaries[0]["termination"] == "tol_reached"
        assert summaries[0]["objective"] == summaries[1]["objective"]
        resolved = json.loads((outs[True] / "resolved_config.json").read_text())
        assert resolved["solver"]["stop_at_fixed_point"] is True

    def test_trace_columns_stable(self, tmp_path):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [3.0, 0.5], "lambda": 1.0},
            "recipe": "fista",
            "solver": {"max_iter": 5},
        })
        out = tmp_path / "run"
        main(["solve", cfg, "--out", str(out)])
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header.split(",")[:3] == ["n", "objective", "residual"]

    def test_determinism_byte_identical(self, tmp_path, lasso_fixture_dir):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "fixture": str(lasso_fixture_dir)},
            "recipe": "fista",
            "solver": {"max_iter": 500},
        })
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["solve", cfg, "--out", str(out1)]) == 0
        assert main(["solve", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


class TestTraceCsvFormat:
    @pytest.mark.parametrize("value, text", [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (-0.0, "-0.0"),
        (5e-324, "5e-324"),
        (1.7976931348623157e+308, "1.7976931348623157e+308"),
        (np.float64(0.1), "0.1"),
    ])
    def test_values_are_spelled_out(self, value, text):
        assert cli._fmt(value) == text


def _libc_raising(exc):
    def libc(name):
        raise exc("no C library to open")
    return libc


class TestRetainedHeap:
    @staticmethod
    def small_solve_config(tmp_path):
        return write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [3.0, 0.5], "lambda": 1.0},
            "recipe": "fista",
            "solver": {"max_iter": 20},
        })

    @pytest.mark.parametrize("libc", [_libc_raising(OSError), _libc_raising(TypeError),
                                      lambda name: object()],
                             ids=["no_libc", "no_libc_windows", "no_mallopt"])
    def test_solve_runs_without_mallopt(self, tmp_path, monkeypatch, libc):
        monkeypatch.setattr(cli.ctypes, "CDLL", libc)
        out = tmp_path / "run"
        assert main(["solve", self.small_solve_config(tmp_path), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["iterations"] == 20

    def test_only_the_cli_entry_sets_the_allocator(self, tmp_path):
        # in a fresh interpreter, since this one may have run main already
        code = ("import ctypes, sys\n"
                "calls = []\n"
                "class Libc:\n"
                "    def __init__(self, name):\n"
                "        self.mallopt = lambda *args: calls.append(args) or 1\n"
                "ctypes.CDLL = Libc\n"
                "import proxsplit, proxsplit.cli, proxsplit.suite\n"
                "assert calls == [], calls\n"
                "assert proxsplit.cli.main(['solve', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
                "assert calls == [(-3, 32 << 20), (-1, 256 << 20)], calls\n")
        src = str(pathlib.Path(proxsplit.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code, self.small_solve_config(tmp_path),
                               str(tmp_path / "run")], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr


class TestCompare:
    def test_fista_dominates_fb_after_burn_in(self, tmp_path, lasso_fixture_dir):
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "lasso", "fixture": str(lasso_fixture_dir)},
            "recipes": ["fb", "fista"],
            "solver": {"max_iter": 400},
        })
        out = tmp_path / "cmp"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["n", "fb", "fista", "gap_to_best"]
        rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
        # dominance holds up to rounding noise once both curves converge
        for row in rows[5:]:
            assert row[2] <= row[1] + 1e-9 * (1.0 + abs(row[1]))

    def test_single_recipe_degenerate(self, tmp_path):
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "lasso", "y": [3.0, 0.5], "lambda": 1.0},
            "recipes": ["fb"],
            "solver": {"max_iter": 20},
        })
        out = tmp_path / "cmp"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert header == "n,fb,gap_to_best"

    def test_tv_recipes_close(self, tmp_path):
        pixels = [[0.2, 0.2, 0.8, 0.8],
                  [0.2, 0.3, 0.8, 0.7],
                  [0.1, 0.2, 0.9, 0.8],
                  [0.2, 0.2, 0.8, 0.8]]
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "tv_denoise", "pixels": pixels, "lambda": 0.1},
            "recipes": ["cp", "condat", "dual_fb"],
            "solver": {"max_iter": 4000},
        })
        out = tmp_path / "cmp"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        finals = summary["final_objectives"]
        best = min(finals.values())
        assert all((v - best) / max(abs(best), 1e-12) <= 1e-4
                   for v in finals.values())

    def test_resolved_config_records_each_recipe_and_reruns(self, tmp_path):
        pixels = [[0.2, 0.2, 0.8], [0.2, 0.3, 0.8], [0.1, 0.2, 0.9]]
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "tv_denoise", "pixels": pixels, "lambda": 0.1},
            "recipes": ["cp", "dr_split", "dual_fb"],
        })
        out = tmp_path / "curves"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        solver = json.loads((out / "resolved_config.json").read_text())["solver"]
        # the recipe defaults that ran, not the SolverConfig defaults
        assert {name: s["max_iter"] for name, s in solver.items()} == {
            "cp": 3000, "dr_split": 3000, "dual_fb": 3000}
        assert solver["cp"]["sigma"] > 0 and solver["cp"]["tau"] > 0
        assert solver["dual_fb"]["gamma"] > 0 and solver["dual_fb"]["inertia"] == "fista_t"
        csv = (out / "comparison.csv").read_bytes()
        assert len(csv.splitlines()) == 3001
        again = tmp_path / "again"
        assert main(["compare", str(out / "resolved_config.json"),
                     "--out", str(again)]) == 0
        assert (again / "comparison.csv").read_bytes() == csv
        assert (again / "resolved_config.json").read_bytes() == (
            out / "resolved_config.json").read_bytes()

    @pytest.mark.parametrize("solver", [5, {"dr": 5, "fb": {}}, {"dr": {"max_iter": "10"}}])
    def test_malformed_solver_block_is_config_error(self, tmp_path, capsys, solver):
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "lasso", "y": [1.0, 2.0], "lambda": 0.1},
            "recipes": ["fb", "dr"],
            "solver": solver,
        })
        assert main(["compare", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: solver")
        assert len(err.strip().splitlines()) == 1

    def test_missing_recipes_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "lasso", "y": [1.0], "lambda": 0.1}})
        assert main(["compare", cfg, "--out", str(tmp_path / "o")]) == 1


class TestCertify:
    def test_only_certify_loads_the_suite(self):
        # solve, compare and generate skip importing suite and certify; the
        # package still exposes the suite, loaded on first access
        code = ("import sys, proxsplit, proxsplit.cli\n"
                "assert 'proxsplit.suite' not in sys.modules\n"
                "assert 'proxsplit.certify' not in sys.modules\n"
                "assert callable(proxsplit.suite.run_checks)\n"
                "assert 'proxsplit.certify' in sys.modules\n")
        src = str(pathlib.Path(proxsplit.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_small_subset_passes(self, tmp_path):
        cfg = write_config(tmp_path / "cert.json", {
            "checks": ["rate:gd_linear", "km:rotation", "equiv:dr_cp"],
        })
        out = tmp_path / "cert"
        assert main(["certify", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["reports"]) == 5  # 1 + 1 + 3 gammas

    def test_controls_fail_with_names(self, tmp_path):
        cfg = write_config(tmp_path / "cert.json", {
            "checks": ["rate:gd_linear", "controls"],
        })
        out = tmp_path / "cert"
        assert main(["certify", cfg, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is False
        assert any("control" in name for name in report["failures"])

    def test_equivalence_only_subset_runs_standalone(self, tmp_path):
        cfg = write_config(tmp_path / "cert.json", {
            "checks": ["equiv:dr_cp", "equiv:dr_admm"]})
        assert main(["certify", cfg, "--out", str(tmp_path / "c")]) == 0

    def test_unknown_check_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cert.json", {"checks": ["spectral:norm"]})
        assert main(["certify", cfg, "--out", str(tmp_path / "c")]) == 1

    def test_resolved_config_expands_checks_and_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "cert.json", {"checks": ["km:rotation", "controls"]})
        out = tmp_path / "cert"
        assert main(["certify", cfg, "--out", str(out), "--seed", "4"]) == 3
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved == {"checks": ["km:rotation", "control:ascending_trace",
                                       "control:broken_prox", "control:corrupted_adjoint",
                                       "control:fake_convex"],
                            "seed": 4}
        again = tmp_path / "again"
        assert main(["certify", str(out / "resolved_config.json"),
                     "--out", str(again)]) == 3
        assert (again / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_full_default_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path / "cert.json", {"checks": ["all"]})
        out = tmp_path / "cert"
        assert main(["certify", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_passed"] is True
        assert report["failures"] == []
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == CERTIFY_ALL_SHA256

    def test_full_default_suite_report_at_seed_3(self, tmp_path):
        cfg = write_config(tmp_path / "cert.json", {"checks": ["all"], "seed": 3})
        out = tmp_path / "cert"
        assert main(["certify", cfg, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == CERTIFY_ALL_SEED3_SHA256


@pytest.mark.parametrize("operator", [{"kind": "scale", "factor": 0.0},
                                      {"kind": "mask", "pattern": [False, False]}],
                         ids=["scale0", "empty_mask"])
class TestZeroOperatorLasso:
    def problem(self, operator):
        return {"kind": "lasso", "y": [1.0, 2.0], "A": operator, "lambda": 0.1}

    def test_fb_family_is_config_error(self, tmp_path, capsys, operator):
        for recipe in ("fb", "fista"):
            cfg = write_config(tmp_path / "solve.json",
                               {"problem": self.problem(operator), "recipe": recipe})
            assert main(["solve", cfg, "--out", str(tmp_path / recipe)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "Lipschitz constant is zero" in err

    def test_dr_solves(self, tmp_path, operator):
        cfg = write_config(tmp_path / "solve.json",
                           {"problem": self.problem(operator), "recipe": "dr"})
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["objective"] == 2.5  # x = 0: 0.5 * ||y||^2
        # A* r = 0, so theta = r = y and the gap is lam * ||x||_1 = 0
        assert summary["gap"] == 0.0


class TestDualityGapStop:
    PIXELS = [[0.2, 0.2, 0.8], [0.2, 0.3, 0.8], [0.1, 0.2, 0.9]]

    def solve(self, tmp_path, name, problem, recipe, solver):
        cfg = write_config(tmp_path / f"{name}.json",
                           {"problem": problem, "recipe": recipe, "solver": solver})
        out = tmp_path / name
        return main(["solve", cfg, "--out", str(out)]), out

    def test_cp_stops_at_a_certified_gap(self, tmp_path):
        problem = {"kind": "tv_denoise", "pixels": self.PIXELS, "lambda": 0.1}
        rc, out = self.solve(tmp_path, "on", problem, "cp",
                             {"max_iter": 4000, "gap_tol": 1e-8})
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "tol_reached"
        assert summary["gap"] <= 1e-8 * (1.0 + abs(summary["objective"]))
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "n,objective,residual,dual_residual,gap"
        assert len(lines) == summary["iterations"] + 1
        # gap_tol 0, written or not, leaves the trace as it was
        rc_off, off = self.solve(tmp_path, "off", problem, "cp",
                                 {"max_iter": 4000, "gap_tol": 0})
        rc_unset, unset = self.solve(tmp_path, "unset", problem, "cp", {"max_iter": 4000})
        assert rc_off == rc_unset == 0
        assert (off / "trace.csv").read_bytes() == (unset / "trace.csv").read_bytes()
        assert json.loads((off / "summary.json").read_text())["gap"] >= 0.0

    def test_lambda_zero_lasso_gap_is_finite(self, tmp_path):
        problem = {"kind": "lasso", "y": [3.0, 0.5], "lambda": 0}
        for recipe in ("fista", "dr"):
            rc, out = self.solve(tmp_path, recipe, problem, recipe, {"max_iter": 50})
            assert rc == 0
            summary = json.loads((out / "summary.json").read_text())
            assert math.isfinite(summary["gap"]), (recipe, summary["gap"])

    @pytest.mark.parametrize("problem,recipe", [
        ({"kind": "tvl1", "pixels": PIXELS, "lambda": 0.3}, "cp"),
        ({"kind": "tv_inverse", "rows": 3, "cols": 3, "lambda": 0.05,
          "y": sum(PIXELS, [])}, "condat"),
    ], ids=["tvl1_cp", "tv_inverse_condat"])
    def test_gap_tol_without_a_gap_is_config_error(self, tmp_path, capsys, problem, recipe):
        rc, out = self.solve(tmp_path, "run", problem, recipe,
                             {"max_iter": 10, "gap_tol": 1e-8})
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "duality gap" in err
        assert not (out / "summary.json").exists()


class TestMalformedConfigTypes:
    # each value has a JSON type its field cannot take: the run exits 1 with
    # one line naming the field, before --out is made
    LASSO = {"kind": "lasso", "y": [1.0, 2.0]}

    @pytest.mark.parametrize("command,config,field", [
        ("solve", [1, 2], "JSON object"),
        ("certify", {"checks": 5}, "'checks'"),
        ("certify", {"checks": [], "seed": [1]}, "'seed'"),
        ("generate", {"kind": "step_image", "dims": None}, "'dims'"),
        ("generate", {"kind": "step_image", "dims": []}, "'dims'"),
        ("generate", {"kind": "lasso", "dims": [4, 6], "lambda": [1]}, "'lambda'"),
        ("solve", {"problem": {**LASSO, "lambda": [1]}, "recipe": "fb"}, "'lambda'"),
        ("solve", {"problem": {**LASSO, "A": "dense"}, "recipe": "fb"}, "operator"),
        ("solve", {"problem": {"kind": "lasso", "fixture": 5}, "recipe": "fb"}, "'fixture'"),
        ("solve", {"problem": {"kind": "tv_denoise", "image": 5}, "recipe": "cp"}, "'image'"),
        ("solve", {"problem": {"kind": "tv_inverse", "rows": [2], "cols": 2, "y": [1.0] * 4},
                   "recipe": "cp2"}, "'rows'"),
        ("solve", {"problem": LASSO, "recipe": ["fb"]}, "'recipe'"),
        ("compare", {"problem": LASSO, "recipes": "cp"}, "'recipes'"),
    ], ids=["top_level_array", "checks_number", "seed_array", "dims_null", "dims_empty",
            "generate_lambda_array", "lambda_array", "operator_string", "fixture_number",
            "image_number", "rows_array", "recipe_array", "recipes_string"])
    def test_is_config_error(self, tmp_path, capsys, command, config, field):
        cfg = write_config(tmp_path / "run.json", config)
        out = tmp_path / "run"
        assert main([command, cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestFailedRunLeavesNoOutput:
    # a ConfigError raised while a recipe runs exits 1 before --out is made
    PIXELS = TestDualityGapStop.PIXELS
    ZERO_LASSO = {"kind": "lasso", "y": [1.0, 2.0], "A": {"kind": "scale", "factor": 0.0},
                  "lambda": 0.1}

    @pytest.mark.parametrize("problem,recipe,solver", [
        ({"kind": "tvl1", "pixels": PIXELS, "lambda": 0.3}, "cp", {"gap_tol": 1e-8}),
        (ZERO_LASSO, "fb", {}),
    ], ids=["gap_tol_without_a_gap", "fb_on_a_zero_operator"])
    def test_solve(self, tmp_path, capsys, problem, recipe, solver):
        cfg = write_config(tmp_path / "solve.json",
                           {"problem": problem, "recipe": recipe, "solver": solver})
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_compare(self, tmp_path, capsys):
        # dr solves the zero-operator lasso; fb, run after it, cannot
        cfg = write_config(tmp_path / "cmp.json",
                           {"problem": self.ZERO_LASSO, "recipes": ["dr", "fb"]})
        out = tmp_path / "cmp"
        assert main(["compare", cfg, "--out", str(out)]) == 1
        assert "Lipschitz constant is zero" in capsys.readouterr().err
        assert not out.exists()


class TestRemovedSolverFields:
    LASSO = {"kind": "lasso", "y": [1.0, 2.0], "lambda": 0.1}

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_seed_flag_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "run.json",
                           {"problem": self.LASSO, "recipe": "fb", "recipes": ["fb"]})
        out = tmp_path / "run"
        assert main([command, cfg, "--out", str(out), "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("seed", 0), ("objective_tol", 1e-8),
                                             ("divergence_cap", 1e12), ("rho", 1.0),
                                             ("beta", 4.0), ("bt_shrink", 0.5),
                                             ("residual_tol", 0.0)])
    def test_field_is_unknown(self, tmp_path, capsys, field, value):
        for command, body in (("solve", {"recipe": "fb", "solver": {field: value}}),
                              ("compare", {"recipes": ["fb", "dr"],
                                           "solver": {"dr": {field: value}}})):
            cfg = write_config(tmp_path / f"{command}.json", {"problem": self.LASSO, **body})
            assert main([command, cfg, "--out", str(tmp_path / command)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: unknown solver config fields") and field in err

    def test_resolved_solver_block_lists_the_nine_fields(self, tmp_path):
        cfg = write_config(tmp_path / "solve.json", {"problem": self.LASSO, "recipe": "fb"})
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        solver = json.loads((out / "resolved_config.json").read_text())["solver"]
        assert len(solver) == 9
        assert set(solver) == {"gamma", "sigma", "tau", "inertia", "relaxation", "max_iter",
                               "gap_tol", "keep_iterates", "stop_at_fixed_point"}


class TestDivergenceExitCode:
    def test_diverged_run_exits_two(self, tmp_path, monkeypatch):
        # route a diverging oracle through the solve path: a smooth term with
        # a understated Lipschitz constant blows up under its "valid" step
        import proxsplit.cli as cli
        from proxsplit.funcs import CallableSmooth
        from proxsplit.problems import ProblemInstance
        from proxsplit.solvers import SolverConfig, gradient_descent

        wrong = CallableSmooth(lambda x: 50.0 * float(x @ x),
                               lambda x: 100.0 * x, lipschitz=1.0)

        def runaway(cfg=None):
            trace = gradient_descent(wrong, np.ones(1),
                                     SolverConfig(gamma=1.9, max_iter=200))
            return trace, trace.x

        inst = ProblemInstance(name="runaway",
                               objective=lambda x: 50.0 * float(x @ x),
                               recipes={"gd": runaway})
        monkeypatch.setattr(cli, "build_from_config", lambda spec: inst)
        cfg = write_config(tmp_path / "solve.json",
                           {"problem": {"kind": "runaway"}, "recipe": "gd"})
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "diverged"


class TestNumericalFailureExitCode:
    def test_cg_failure_exits_two_without_traceback(self, tmp_path, monkeypatch,
                                                    capsys):
        import proxsplit.cli as cli
        import proxsplit.funcs as funcs
        from proxsplit.linops import CGError, ComposedOperator, DenseOperator, IdentityOperator
        from proxsplit.problems import build_lasso

        def stalled(*args, **kwargs):
            raise CGError(1.0, 7)

        monkeypatch.setattr(funcs, "conjugate_gradient", stalled)
        # a dense operator is solved in its eigenbasis; composed, it has no
        # spectrum, so the quadratic prox of dr runs CG
        A = ComposedOperator(DenseOperator([[1.0, 0.5], [0.0, 1.0], [0.3, 0.2]]),
                             IdentityOperator(2))
        inst = build_lasso(A, np.array([1.0, -0.5, 2.0]), 0.1)
        monkeypatch.setattr(cli, "build_from_config", lambda spec: inst)
        cfg = write_config(tmp_path / "solve.json",
                           {"problem": {"kind": "lasso"}, "recipe": "dr"})
        assert main(["solve", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: conjugate gradient stalled")
        assert len(err.strip().splitlines()) == 1


    def test_decrease_violation_exits_two_without_traceback(self, tmp_path,
                                                            monkeypatch, capsys):
        # the double well declared with L = 0.1 instead of 6: the default
        # step 1/(2L) overshoots and the monitor stops the run
        import proxsplit.suite as suite
        from proxsplit.funcs import ZeroFn
        from proxsplit.solvers import SolverConfig, nonconvex_forward_backward

        def understated(seed):
            nonconvex_forward_backward(suite.double_well(lipschitz=0.1), ZeroFn(),
                                       np.array([0.5]), SolverConfig(max_iter=50))
            return []

        monkeypatch.setitem(suite.CHECKS, "nonconvex:double_well", understated)
        cfg = write_config(tmp_path / "cert.json", {"checks": ["nonconvex:double_well"]})
        assert main(["certify", cfg, "--out", str(tmp_path / "cert")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: sufficient-decrease violated")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("failure", ["decrease", "cg"])
    def test_failure_in_a_pooled_worker_exits_two(self, tmp_path, monkeypatch, capsys,
                                                  failure):
        # two checks on two usable CPUs run in forked workers; the failure
        # crosses back to the parent and exits as it does in process
        import os

        import proxsplit.suite as suite
        from proxsplit.linops import CGError
        from proxsplit.solvers import DecreaseViolation

        def failing(seed):
            if failure == "cg":
                raise CGError(1e-3, 50)
            raise DecreaseViolation("sufficient-decrease violated in a worker")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setitem(suite.CHECKS, "nonconvex:double_well", failing)
        cfg = write_config(tmp_path / "cert.json",
                           {"checks": ["km:rotation", "nonconvex:double_well"]})
        assert main(["certify", cfg, "--out", str(tmp_path / "cert")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert ("conjugate gradient stalled" if failure == "cg"
                else "sufficient-decrease violated") in lines[0]


class TestResolvedConfig:
    def test_solve_records_recipe_defaults(self, tmp_path, lasso_fixture_dir):
        from proxsplit.problems import build_from_config

        problem = {"kind": "lasso", "fixture": str(lasso_fixture_dir)}
        cfg = write_config(tmp_path / "solve.json",
                           {"problem": problem, "recipe": "fb"})
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        solver = json.loads((out / "resolved_config.json").read_text())["solver"]
        lipschitz = build_from_config(problem).metadata["f"].lipschitz
        assert solver["max_iter"] == 2000
        assert solver["gamma"] == 1.0 / lipschitz
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 2000

    @pytest.mark.parametrize("recipe, norms", [("dr", 0), ("fista", 1)])
    def test_lasso_computes_the_norm_only_for_a_stepsize(
            self, tmp_path, lasso_fixture_dir, monkeypatch, recipe, norms):
        # dr solves with the Gram eigenbasis and never needs ||A||, which a
        # dense matrix bounds through eigvalsh
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or eigvalsh(a))
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "fixture": str(lasso_fixture_dir)},
            "recipe": recipe, "solver": {"max_iter": 5}})
        assert main(["solve", cfg, "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == norms

    def test_cp_records_the_stepsizes_that_ran(self, tmp_path):
        pixels = [[0.2, 0.2, 0.8], [0.2, 0.3, 0.8], [0.1, 0.2, 0.9]]
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "tv_denoise", "pixels": pixels, "lambda": 0.1},
            "recipe": "cp",
            "solver": {"max_iter": 20},
        })
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        summary = json.loads((out / "summary.json").read_text())
        assert resolved["solver"]["sigma"] == summary["sigma"]
        assert resolved["solver"]["tau"] == summary["tau"]
        # the resolved config reproduces the run
        again = tmp_path / "again"
        assert main(["solve", str(out / "resolved_config.json"), "--out", str(again)]) == 0
        assert (again / "trace.csv").read_bytes() == (out / "trace.csv").read_bytes()


class TestStepsizeSummary:
    def test_cp_summary_records_steps_and_norm(self, tmp_path):
        pixels = [[0.2, 0.2, 0.8], [0.2, 0.3, 0.8], [0.1, 0.2, 0.9]]
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "tv_denoise", "pixels": pixels, "lambda": 0.1},
            "recipe": "cp",
            "solver": {"max_iter": 5},
        })
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "norm_converged" not in summary
        product = summary["tau"] * summary["sigma"] * summary["operator_norm"] ** 2
        assert 0.0 < product < 1.0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "n,objective,residual,dual_residual"


class TestPgmInput:
    def test_solve_from_pgm_image(self, tmp_path):
        rng = np.random.default_rng(5)
        img = np.clip(0.5 + 0.2 * rng.standard_normal((4, 4)), 0, 1)
        img_path = tmp_path / "img.pgm"
        # binary PGM: P5 header (width, height, maxval 255), then one byte per pixel
        img_path.write_bytes(b"P5\n4 4\n255\n" + np.round(img * 255.0).astype(np.uint8).tobytes())
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "tv_denoise", "image": str(img_path),
                        "lambda": 0.1},
            "recipe": "cp",
            "solver": {"max_iter": 200},
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "run")]) == 0


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json",
                           {"kind": "step_image", "dims": [8, 8], "sigma": 0.05,
                            "seed": 12})
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert main(["generate", cfg, "--out", str(out1)]) == 0
        assert main(["generate", cfg, "--out", str(out2)]) == 0
        for name in ("manifest.json", "y.csv", "x_true.csv", "y.npy", "x_true.npy"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_lasso_reference_stops_at_a_certified_gap(self, tmp_path, monkeypatch):
        traces = []
        run = ProblemInstance.run

        def spy(inst, recipe, cfg=None):
            trace, x = run(inst, recipe, cfg)
            traces.append(trace)
            return trace, x

        monkeypatch.setattr(ProblemInstance, "run", spy)
        cfg = write_config(tmp_path / "gen.json",
                           {"kind": "lasso", "dims": [32, 64], "sigma": 0.01, "seed": 3})
        bundle = tmp_path / "lasso32"
        assert main(["generate", cfg, "--out", str(bundle)]) == 0
        monkeypatch.undo()
        (reference,) = traces
        assert reference.termination == "tol_reached"
        # the gap bounds P(x) - P*, and a long run's objective is above P*
        # by far less than the gap
        expected = json.loads((bundle / "manifest.json").read_text())["expected"]["objective"]
        inst = build_from_config({"kind": "lasso", "fixture": str(bundle)})
        _, x = inst.run("fista", SolverConfig(max_iter=20_000))
        assert abs(expected - inst.objective(x)) <= reference.meta["gap"]

    def test_generated_bundle_loads_into_solve(self, tmp_path):
        gen = write_config(tmp_path / "gen.json",
                           {"kind": "tv_denoise", "dims": [8, 8], "sigma": 0.05,
                            "seed": 4, "lambda": 0.1})
        bundle = tmp_path / "tv8"
        assert main(["generate", gen, "--out", str(bundle)]) == 0
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "tv_denoise", "fixture": str(bundle)},
            "recipe": "cp",
            "solver": {"max_iter": 6000},
        })
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["objective_error"] <= 1e-6

    def test_invalid_kind_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json", {"kind": "checkerboard"})
        assert main(["generate", cfg, "--out", str(tmp_path / "g")]) == 1

    def test_unwritable_output_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json",
                           {"kind": "ramp", "dims": [3, 3], "seed": 0})
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file, not a directory")
        assert main(["generate", cfg, "--out", str(blocker / "sub")]) == 1

    def test_broken_bundle_is_config_error(self, tmp_path):
        gen = write_config(tmp_path / "gen.json",
                           {"kind": "sparse_vector", "dims": [5, 8], "seed": 2})
        bundle = tmp_path / "sv"
        main(["generate", gen, "--out", str(bundle)])
        (bundle / "y.csv").unlink()
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "fixture": str(bundle), "lambda": 0.1},
            "recipe": "fb",
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "run")]) == 1

    def test_resolved_config_fills_defaults_and_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json", {"kind": "lasso", "dims": [4, 6]})
        out = tmp_path / "g1"
        assert main(["generate", cfg, "--out", str(out), "--seed", "2"]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved == {"kind": "lasso", "dims": [4, 6], "sigma": 0.0, "seed": 2,
                            "lambda": 0.1}
        again = tmp_path / "g2"
        assert main(["generate", str(out / "resolved_config.json"),
                     "--out", str(again)]) == 0
        for name in ("manifest.json", "A.csv", "x_true.csv", "y.csv",
                     "A.npy", "x_true.npy", "y.npy", "resolved_config.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json",
                           {"kind": "step_image", "dims": [4, 4], "sigma": 0.1,
                            "seed": 1})
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        main(["generate", cfg, "--out", str(out1)])
        main(["generate", cfg, "--out", str(out2), "--seed", "2"])
        assert (out1 / "y.csv").read_bytes() != (out2 / "y.csv").read_bytes()


class TestFixtureEnvVar:
    def test_env_root_resolution(self, tmp_path, monkeypatch):
        gen = write_config(tmp_path / "gen.json",
                           {"kind": "sparse_vector", "dims": [5, 8], "seed": 2})
        bundle = tmp_path / "root" / "sv"
        main(["generate", gen, "--out", str(bundle)])
        monkeypatch.setenv("PROXSPLIT_FIXTURES", str(tmp_path / "root"))
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "fixture": "sv", "lambda": 0.1},
            "recipe": "fb",
            "solver": {"max_iter": 50},
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "run")]) == 0
