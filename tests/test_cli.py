import json

import numpy as np
import pytest

from proxsplit.cli import main


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
    def test_unsupported_operator_spec_is_config_error(self, tmp_path, operator):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [1.0, 2.0], "A": operator},
            "recipe": "fb",
        })
        assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 1

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
            "solver": {"max_iter": 500, "seed": 9},
        })
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["solve", cfg, "--out", str(out1)]) == 0
        assert main(["solve", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


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

    def test_missing_recipes_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "lasso", "y": [1.0], "lambda": 0.1}})
        assert main(["compare", cfg, "--out", str(tmp_path / "o")]) == 1


class TestCertify:
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
        import proxsplit.funcs as funcs
        from proxsplit.linops import CGError

        def stalled(*args, **kwargs):
            raise CGError(1.0, 7)

        monkeypatch.setattr(funcs, "conjugate_gradient", stalled)
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [1.0, -0.5, 2.0], "lambda": 0.1,
                        "A": {"kind": "dense_matrix",
                              "matrix": [[1.0, 0.5], [0.0, 1.0], [0.3, 0.2]]}},
            "recipe": "dr",
        })
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


class TestResolvedConfig:
    def test_solve_records_recipe_defaults(self, tmp_path, lasso_fixture_dir):
        from proxsplit.problems import build_from_config

        problem = {"kind": "lasso", "fixture": str(lasso_fixture_dir)}
        cfg = write_config(tmp_path / "solve.json",
                           {"problem": problem, "recipe": "fb"})
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        solver = json.loads((out / "resolved_config.json").read_text())["solver"]
        lipschitz = build_from_config(problem).metadata["lipschitz"]
        assert solver["max_iter"] == 2000
        assert solver["gamma"] == 1.0 / lipschitz
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 2000

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
        from proxsplit.data import write_pgm
        from proxsplit.linops import ImageGrid

        rng = np.random.default_rng(5)
        grid = ImageGrid.from_array(np.clip(0.5 + 0.2 * rng.standard_normal((4, 4)),
                                            0, 1))
        img_path = tmp_path / "img.pgm"
        write_pgm(img_path, grid)
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
        for name in ("manifest.json", "y.csv", "x_true.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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
                     "resolved_config.json"):
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
