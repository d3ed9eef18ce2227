import hashlib
import json
import math
import os
import pathlib
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

import proxsplit
from proxsplit import cli
from proxsplit import data as datamod
from proxsplit.cli import main
from proxsplit.linops import DenseOperator, gram_eigh
from proxsplit.problems import CONFIG_TYPES, ProblemInstance, build_from_config
from proxsplit.solvers import SolverConfig

# SHA-256 of the report.json of ``certify all`` at seed 0.  Like the golden
# traces (see tests/test_golden_traces.py), it is generated from the commit
# before the change that moves it, with that change's src/ patched in, and its
# floats depend on the platform in the same ways: BLAS/LAPACK for the dense
# checks, pocketfft for the FFT-backed ones and the x86-64 long double for the
# gradient norms.  They do not depend on NumPy's random generators: the random
# checks draw from proxsplit's own GaussianStream.
CERTIFY_ALL_SHA256 = "1a46caf8459c18be49000730d007439eace6690257d8131b896e004f21a74739"
# the same at seed 3, where every check whose settled tail the suite replays
# settles (rate:fista does not at seed 0)
CERTIFY_ALL_SEED3_SHA256 = "f4c0d6107bd92a952f7273b3d37bad8b1cb5dfd93880bb3172fb156455ca5894"
# the source tree, for child interpreters
SRC = str(pathlib.Path(proxsplit.__file__).resolve().parent.parent)
PIXELS = [[0.2, 0.2, 0.8], [0.2, 0.3, 0.8], [0.1, 0.2, 0.9]]


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


@pytest.fixture(scope="module")
def lasso32(tmp_path_factory):
    # a generated 32x64 lasso bundle, its A dense
    out = tmp_path_factory.mktemp("fixtures")
    cfg = write_config(out / "gen.json", {"kind": "lasso", "dims": [32, 64], "sigma": 0.01,
                                          "lambda": 0.1, "seed": 3})
    assert main(["generate", cfg, "--out", str(out / "lasso32")]) == 0
    return out / "lasso32"


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

    # the prox-gradient recipes record each row one iteration late, and the
    # inertia of fista and fista_beta also reads the previous iterate; the
    # certify suite's replay of a settled tail rests on their prefixes
    @pytest.mark.parametrize("recipe", ["cp", "fb", "fista", "fista_beta"])
    def test_stop_at_fixed_point_truncates_the_trace(self, tmp_path, lasso32, recipe):
        problem = ({"kind": "tv_denoise", "pixels": PIXELS, "lambda": 0.1} if recipe == "cp"
                   else {"kind": "lasso", "fixture": str(lasso32)})
        outs = {}
        for stop in (True, False):
            cfg = write_config(tmp_path / f"solve_{stop}.json", {
                "problem": problem,
                "recipe": recipe,
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
        proc = subprocess.run([sys.executable, "-c", code, self.small_solve_config(tmp_path),
                               str(tmp_path / "run")], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC})
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
        recipes = ["condat", "cp", "dr_split", "dual_fb", "ppxa"]
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "tv_denoise", "pixels": PIXELS, "lambda": 0.1},
            "recipes": recipes,
        })
        out = tmp_path / "curves"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        solver = json.loads((out / "resolved_config.json").read_text())["solver"]
        # the recipe defaults that ran, not the SolverConfig defaults
        assert {name: s["max_iter"] for name, s in solver.items()} == dict.fromkeys(recipes, 3000)
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

    def test_fista_and_dr_agree_on_a_generated_lasso(self, tmp_path, lasso32):
        # gradient steps and exact dense Gram solves reach the same objective
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "lasso", "fixture": str(lasso32)},
            "recipes": ["fista", "dr"],
        })
        out = tmp_path / "cmp"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        finals = json.loads((out / "summary.json").read_text())["final_objectives"]
        assert abs(finals["fista"] - finals["dr"]) <= 1e-8 * abs(finals["dr"])

    def test_an_empty_trace_holds_its_starting_objective(self, tmp_path):
        # y = (3, 0.5) and x0 = 0 start at J = ||y||^2 / 2 = 4.625
        cfg = write_config(tmp_path / "cmp.json", {
            "problem": {"kind": "lasso", "y": [3.0, 0.5], "lambda": 1.0},
            "recipes": ["fb", "dr"],
            "solver": {"fb": {"max_iter": 5}, "dr": {"max_iter": 0}},
        })
        out = tmp_path / "cmp"
        assert main(["compare", cfg, "--out", str(out)]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "n,fb,dr,gap_to_best"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
        assert all(float(r[2]) == 4.625 for r in rows)
        finals = json.loads((out / "summary.json").read_text())["final_objectives"]
        assert finals["dr"] == 4.625 and float(rows[-1][1]) == finals["fb"]

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
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr

    def test_no_command_loads_numpy_random(self, tmp_path):
        # every random draw comes from proxsplit's own GaussianStream; a child
        # interpreter, since this one has numpy.random loaded, runs certify
        # with its checks in process (one usable CPU), a solve and a generate
        write_config(tmp_path / "cert.json", {"checks": ["all"]})
        write_config(tmp_path / "solve.json", {
            "problem": {"kind": "tv_inverse", "rows": 3, "cols": 3, "y": PIXELS[0] * 3,
                        "A": {"kind": "scale", "factor": 0.5}},
            "recipe": "cp2", "solver": {"max_iter": 20}})
        write_config(tmp_path / "gen.json", {"kind": "lasso", "dims": [6, 10], "sigma": 0.02,
                                             "seed": 3, "lambda": 0.15})
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0}\n"
                "from proxsplit.cli import main\n"
                "assert main(['certify', 'cert.json', '--out', 'cert']) == 0\n"
                "assert main(['solve', 'solve.json', '--out', 'solve']) == 0\n"
                "assert main(['generate', 'gen.json', '--out', 'gen']) == 0\n"
                "assert 'numpy.random' not in sys.modules, 'numpy.random was loaded'\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr

    def test_forked_workers_load_no_process_pool(self, tmp_path):
        # two checks on two usable CPUs run on bare forked workers, which the
        # parent reads in turn, so a fresh interpreter's certify loads none of
        # multiprocessing, concurrent.futures, select and selectors
        write_config(tmp_path / "cert.json", {"checks": ["km:rotation", "descent:gd"]})
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from proxsplit.cli import main\n"
                "assert main(['certify', 'cert.json', '--out', 'cert']) == 0\n"
                "loaded = {'multiprocessing', 'concurrent.futures', 'select', 'selectors'}"
                " & set(sys.modules)\n"
                "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC})
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

    # a repeated name runs once and its reports fill every repeat, so the
    # report keeps the bytes it had when each repeat ran again
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
    def test_repeated_names_keep_their_report(self, tmp_path, monkeypatch, capsys, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        cfg = write_config(tmp_path / "cert.json", {
            "checks": ["km:rotation", "equiv:dr_cp", "km:rotation", "controls",
                       "control:fake_convex"], "seed": 2})
        out = tmp_path / "cert"
        assert main(["certify", cfg, "--out", str(out)]) == 3
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == "053b53d4dd0af05d6a9a1da945711c096c64b5a6d7ca4c52374760570d4cfb0e"

    # forked workers, one per usable CPU, write the report that one CPU writes
    # in process; tier-1 turns RuntimeWarnings into errors (pyproject.toml),
    # so neither raises a floating-point warning
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
    def test_full_default_suite_passes(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
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
    def solve(self, tmp_path, name, problem, recipe, solver):
        cfg = write_config(tmp_path / f"{name}.json",
                           {"problem": problem, "recipe": recipe, "solver": solver})
        out = tmp_path / name
        return main(["solve", cfg, "--out", str(out)]), out

    @pytest.mark.parametrize("recipe,gap_tol,header", [
        ("cp", 1e-8, "n,objective,residual,dual_residual,gap"),
        ("dr_split", 1e-8, "n,objective,residual,gap,split_gap"),
        ("fista", 1e-10, "n,objective,residual,gap,inertia_coef"),
    ], ids=["cp", "dr_split", "fista"])
    def test_stops_at_a_certified_gap(self, tmp_path, lasso32, recipe, gap_tol, header):
        problem = ({"kind": "lasso", "fixture": str(lasso32)} if recipe == "fista"
                   else {"kind": "tv_denoise", "pixels": PIXELS, "lambda": 0.1})
        rc, out = self.solve(tmp_path, "on", problem, recipe,
                             {"max_iter": 4000, "gap_tol": gap_tol})
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "tol_reached"
        assert summary["gap"] <= gap_tol * (1.0 + abs(summary["objective"]))
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == summary["iterations"] + 1
        # gap_tol 0, written or not, leaves the trace as it was
        rc_off, off = self.solve(tmp_path, "off", problem, recipe,
                                 {"max_iter": 4000, "gap_tol": 0})
        rc_unset, unset = self.solve(tmp_path, "unset", problem, recipe, {"max_iter": 4000})
        assert rc_off == rc_unset == 0
        full = (off / "trace.csv").read_text()
        assert full == (unset / "trace.csv").read_text()
        assert json.loads((off / "summary.json").read_text())["gap"] >= 0.0
        # and the stopped run's n, objective and residual are its first rows
        rows = full.splitlines()
        assert len(lines) < len(rows)
        assert ([row.split(",")[:3] for row in lines[1:]]
                == [row.split(",")[:3] for row in rows[1:len(lines)]])

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
        ("solve", {"problem": {**LASSO, "A": {"kind": "scale", "factor": [1]}},
                   "recipe": "fb"}, "'factor'"),
        ("solve", {"problem": {**LASSO, "A": {"kind": "scale", "factor": 2, "dim": "2"}},
                   "recipe": "fb"}, "'dim'"),
        ("solve", {"problem": {"kind": "lasso", "y": [1.0] * 5,
                               "A": {"kind": "circular_conv", "kernel": [[1.0]], "shape": 5}},
                   "recipe": "fb"}, "'shape'"),
        ("solve", {"problem": {**LASSO, "A": {"kind": "grad2d", "rows": "1", "cols": 1}},
                   "recipe": "fb"}, "'rows'"),
        ("solve", {"problem": {"kind": "lasso", "y": {"a": 1}}, "recipe": "fb"}, "'y'"),
        ("solve", {"problem": {"kind": "tv_denoise", "pixels": {"a": 1}}, "recipe": "cp"},
         "'pixels'"),
        ("solve", {"problem": {"kind": "tv_inverse", "rows": 2, "cols": 2, "y": {"a": 1}},
                   "recipe": "cp2"}, "'y'"),
        ("solve", {"problem": {"kind": "tv_inverse", "rows": 2.5, "cols": 2, "y": [1.0] * 4},
                   "recipe": "cp2"}, "'rows'"),
        ("certify", {"checks": [], "seed": 1.5}, "'seed'"),
        ("generate", {"kind": "step_image", "dims": 4, "seed": 2.9}, "'seed'"),
        ("solve", {"problem": {"kind": "lasso", "y": [True, 2.0]}, "recipe": "fb"}, "'y'"),
        ("solve", {"problem": {"kind": "tv_denoise", "pixels": [[0.2, False], [0.2, 0.8]]},
                   "recipe": "cp"}, "'pixels'"),
        ("solve", {"problem": {"kind": "lasso", "y": [1.0] * 4,
                               "A": {"kind": "circular_conv", "kernel": [[True]], "shape": [2, 2]}},
                   "recipe": "fb"}, "'kernel'"),
        ("solve", {"problem": {"kind": "lasso", "y": [1.0, 2.0],
                               "A": {"kind": "dense_matrix", "matrix": [[1.0, 0.0], [True, 1.0]]}},
                   "recipe": "fb"}, "'matrix'"),
        ("solve", {"problem": LASSO, "recipe": "fb", "output_dir": 5}, "'output_dir'"),
        ("solve", {"problem": 5, "recipe": "fb"}, "'problem'"),
        ("solve", {"problem": {"kind": "tv_denoise", "image_csv": 5}, "recipe": "cp"},
         "'image_csv'"),
        ("generate", {"kind": "step_image", "dims": 4, "sigma": [0.1]}, "'sigma'"),
        ("solve", {"problem": {"kind": "tv_denoise", "pixels": PIXELS[0]}, "recipe": "cp"},
         "'pixels'"),
        ("solve", {"problem": LASSO, "recipe": ""}, "'recipe'"),
        ("compare", {"problem": LASSO, "recipes": []}, "'recipes'"),
    ], ids=["top_level_array", "checks_number", "seed_array", "dims_null", "dims_empty",
            "generate_lambda_array", "lambda_array", "operator_string", "fixture_number",
            "image_number", "rows_array", "recipe_array", "recipes_string",
            "scale_factor_array", "scale_dim_string", "conv_shape_number",
            "grad2d_rows_string", "lasso_y_object", "pixels_object", "tv_inverse_y_object",
            "tv_inverse_rows_fraction", "certify_seed_fraction", "generate_seed_fraction",
            "lasso_y_boolean", "pixels_boolean", "kernel_boolean", "matrix_boolean",
            "output_dir_number", "problem_number", "image_csv_number", "generate_sigma_array",
            "pixels_1d", "recipe_empty", "recipes_empty"])
    def test_is_config_error(self, tmp_path, capsys, command, config, field):
        cfg = write_config(tmp_path / "run.json", config)
        out = tmp_path / "run"
        assert main([command, cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["step_image", "sparse_vector", "lasso", "tv_denoise"])
    @pytest.mark.parametrize("dims", [[0, 4], [4, -1], 0], ids=["zero_side", "negative_side",
                                                                "zero"])
    def test_generate_needs_positive_dims(self, tmp_path, capsys, kind, dims):
        # a bundle with an empty side is one no command can load
        cfg = write_config(tmp_path / "gen.json", {"kind": kind, "dims": dims})
        out = tmp_path / "bundle"
        assert main(["generate", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'dims'" in err
        assert not out.exists()

    def test_bundle_grid_must_match_its_pixels(self, tmp_path, capsys):
        # a tv_denoise bundle's y is reshaped to rows x cols: 4 x 4 != 12
        data = datamod.generate_synthetic("step_image", (3, 4), sigma=0.1, seed=1)
        datamod.write_fixture(tmp_path / "step", {**data, "rows": 4})
        cfg = write_config(tmp_path / "run.json", {
            "problem": {"kind": "tv_denoise", "fixture": str(tmp_path / "step")},
            "recipe": "cp"})
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_readme_lists_every_typed_field(self):
        # README's config-type paragraph names every key of the type table
        readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
        # the bullet runs to the next bullet, blank line or end of file
        bullet = readme[readme.index("The config file must hold"):]
        paragraph = bullet.split("\n- ")[0].split("\n\n")[0]
        missing = [key for key in CONFIG_TYPES if f"`{key}`" not in paragraph]
        assert not missing


class TestFailedRunLeavesNoOutput:
    # a ConfigError raised while a recipe runs exits 1 before --out is made
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
        from proxsplit.problems import ProblemInstance, _recipe
        from proxsplit.solvers import gradient_descent

        wrong = CallableSmooth(lambda x: 50.0 * float(x @ x),
                               lambda x: 100.0 * x, lipschitz=1.0)
        # a recipe records the config it ran, which solve writes out
        runaway = _recipe(lambda cfg: gradient_descent(wrong, np.ones(1), cfg),
                          gamma=1.9, max_iter=200)
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
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every worker has been reaped

    def test_runtime_warning_in_a_pooled_worker_fails_the_run(self, tmp_path, monkeypatch):
        # tier-1 turns RuntimeWarnings into errors (pyproject.toml), and forked
        # workers inherit that filter: a check that warns fails certify
        import proxsplit.suite as suite

        parent = os.getpid()

        def warns(seed):
            assert os.getpid() != parent, "the check ran in process"
            np.float64(1.0) / 0.0
            return []

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setitem(suite.CHECKS, "nonconvex:double_well", warns)
        cfg = write_config(tmp_path / "cert.json",
                           {"checks": ["km:rotation", "nonconvex:double_well"]})
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            main(["certify", cfg, "--out", str(tmp_path / "cert")])
        assert not (tmp_path / "cert").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# Linux starts a child's ru_maxrss at its spawner's high-water mark, which
# survives fork and exec: a command spawned by this test process reads the
# test process's own peak once that is the larger.  A bare launcher
# interpreter spawns the command instead and prints its exit code and
# ru_maxrss (KiB), whose floor is then the launcher's own few MiB.
_PEAK_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable] + sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kib(args, env=None):
    """Exit code, stderr and peak RSS in KiB of ``python *args``."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_LAUNCHER, *args],
                          capture_output=True, env=env)
    code, peak = proc.stdout.split()[-2:]
    return int(code), proc.stderr.decode(), int(peak)


class TestPeakMemory:
    def test_a_child_reads_its_own_peak_not_the_test_process(self):
        # this process touches 128 MiB and frees it; its high-water mark
        # stays, and a bare child must not read it
        ballast = np.ones(16 * 2 ** 20)
        del ballast
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        code, err, peak = _peak_rss_kib(["-c", "pass"])
        assert code == 0, err
        assert own >= 128 * 1024
        assert peak < 64 * 1024, (peak, own)

    @pytest.mark.parametrize("recipe", ["cp", "dr_split"])
    def test_peak_rss_does_not_grow_with_the_iteration_count(self, tmp_path, recipe):
        # the CLI keeps freed arrays in its heap, and its peak RSS still does
        # not grow with the iteration count
        gen = write_config(tmp_path / "gen.json",
                           {"kind": "step_image", "dims": [128, 128], "sigma": 0.1, "seed": 7})
        assert main(["generate", gen, "--out", str(tmp_path / "step128")]) == 0
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak = {}
        for iters in (200, 2000):
            cfg = write_config(tmp_path / f"{iters}.json", {
                "problem": {"kind": "tv_denoise", "fixture": str(tmp_path / "step128"),
                            "lambda": 0.1},
                "recipe": recipe, "solver": {"max_iter": iters}})
            code, err, peak[iters] = _peak_rss_kib(
                ["-m", "proxsplit.cli", "solve", cfg, "--out", str(tmp_path / str(iters))],
                {**os.environ, "PYTHONPATH": SRC})
            assert code == 0, err
            # the solve's own peak, not this process's
            assert peak[iters] != own, (peak, own)
        assert abs(peak[2000] - peak[200]) < 2048, peak


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
        # dense matrix bounds through eigvalsh; the bundle's A goes inline,
        # since a bundle's stored norm skips eigvalsh (TestGramFactorCache)
        bundle = datamod.load_fixture(lasso_fixture_dir)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(a.shape) or eigvalsh(a))
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": bundle["y"].tolist(), "lambda": 0.15,
                        "A": {"kind": "dense_matrix", "matrix": bundle["A"].tolist()}},
            "recipe": recipe, "solver": {"max_iter": 5}})
        assert main(["solve", cfg, "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == norms

    def test_null_asks_for_the_recipe_default(self, tmp_path):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "lasso", "y": [1.0, 2.0], "lambda": 0.1},
            "recipe": "fista", "solver": {"max_iter": None, "inertia": None}})
        out = tmp_path / "run"
        assert main(["solve", cfg, "--out", str(out)]) == 0
        solver = json.loads((out / "resolved_config.json").read_text())["solver"]
        assert solver["max_iter"] == 2000 and solver["inertia"] == "fista_t"
        assert json.loads((out / "summary.json").read_text())["iterations"] == 2000

    def test_cp_records_the_stepsizes_that_ran(self, tmp_path):
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "tv_denoise", "pixels": PIXELS, "lambda": 0.1},
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
        cfg = write_config(tmp_path / "solve.json", {
            "problem": {"kind": "tv_denoise", "pixels": PIXELS, "lambda": 0.1},
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
                     "A.npy", "x_true.npy", "y.npy", "A_gram_values.npy",
                     "A_gram_vectors.npy", "resolved_config.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "gen.json",
                           {"kind": "step_image", "dims": [4, 4], "sigma": 0.1,
                            "seed": 1})
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        main(["generate", cfg, "--out", str(out1)])
        main(["generate", cfg, "--out", str(out2), "--seed", "2"])
        assert (out1 / "y.csv").read_bytes() != (out2 / "y.csv").read_bytes()


def _run(problem, tmp_path, command, recipe):
    """(trace.csv or comparison.csv, summary.json without its wall-time line)
    of one 300-iteration run"""
    key = "recipes" if command == "compare" else "recipe"
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / f"{command}-{'-'.join(recipe) if command == 'compare' else recipe}"
    cfg = write_config(tmp_path / f"{out.name}.json", {
        "problem": problem, key: recipe, "solver": {"max_iter": 300}})
    assert main([command, cfg, "--out", str(out)]) == 0
    summary = (out / "summary.json").read_text().splitlines(keepends=True)
    csv = out / ("comparison.csv" if command == "compare" else "trace.csv")
    return csv.read_bytes(), "".join(l for l in summary if '"wall_time_seconds"' not in l)


def _count_eigensolvers(monkeypatch) -> list:
    # the name of each np.linalg.eigh and eigvalsh call, in call order
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _s=solver, _n=name, **k:
                            calls.append(_n) or _s(*a, **k))
    return calls


def _without_factor_files(bundle, out):
    # a copy of the bundle whose norm and Gram factors a solve computes
    shutil.copytree(bundle, out)
    for name in datamod.GRAM_FILES:
        (out / name).unlink()
    return out


@pytest.fixture(scope="module", params=[(32, 64), (64, 32)], ids=["wide", "tall"])
def factor_bundle(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("factors")
    cfg = write_config(out / "gen.json", {"kind": "lasso", "dims": list(request.param),
                                          "sigma": 0.01, "lambda": 0.1, "seed": 3})
    assert main(["generate", cfg, "--out", str(out / "bundle")]) == 0
    return out / "bundle"


# each run, with the eigensolver calls it makes when it computes A's factors
FACTOR_RUNS = [pytest.param("solve", "fb", ["eigvalsh"], id="fb"),
               pytest.param("solve", "fista", ["eigvalsh"], id="fista"),
               pytest.param("solve", "dr", ["eigh"], id="dr"),
               pytest.param("compare", ["fista", "dr"], ["eigvalsh", "eigh"], id="compare")]


class TestGramFactorCache:
    """A bundle's A carries its norm bound and the eigh output of its Gram
    matrix, bitwise equal to what a solve would compute."""

    def test_stored_factors_equal_fresh_ones(self, factor_bundle):
        bundle = datamod.load_fixture(factor_bundle)
        A = bundle["A"]
        norm, load = bundle["A_factors"]
        assert norm == DenseOperator(A).norm()
        wide = A.shape[0] < A.shape[1]
        fresh = np.linalg.eigh(A @ A.T if wide else A.T @ A)
        for stored, computed in zip(load(), fresh, strict=True):
            assert stored.dtype == computed.dtype and stored.shape == computed.shape
            assert stored.tobytes() == computed.tobytes()

    @pytest.mark.parametrize("command, recipe, computing", FACTOR_RUNS)
    def test_outputs_do_not_depend_on_the_factor_files(
            self, factor_bundle, tmp_path, monkeypatch, command, recipe, computing):
        bare = _without_factor_files(factor_bundle, tmp_path / "bare")
        calls = _count_eigensolvers(monkeypatch)
        stored = _run({"kind": "lasso", "fixture": str(factor_bundle)},
                      tmp_path / "stored", command, recipe)
        assert calls == []
        computed = _run({"kind": "lasso", "fixture": str(bare)},
                        tmp_path / "computed", command, recipe)
        assert calls == computing
        assert stored == computed

    @pytest.mark.parametrize("command, recipe, computing", FACTOR_RUNS[1:])
    def test_a_bundle_run_calls_no_eigensolver(self, lasso32, tmp_path, monkeypatch,
                                               command, recipe, computing):
        bundle = datamod.load_fixture(lasso32)
        inline = {"kind": "lasso", "y": bundle["y"].tolist(), "lambda": 0.1,
                  "A": {"kind": "dense_matrix", "matrix": bundle["A"].tolist()}}
        calls = _count_eigensolvers(monkeypatch)
        _run({"kind": "lasso", "fixture": str(lasso32)}, tmp_path / "bundle", command, recipe)
        assert calls == []
        _run(inline, tmp_path / "inline", command, recipe)
        assert calls == computing

    @pytest.mark.parametrize("damage", ["csv_edit", "truncated_vectors", "missing_record",
                                        "other_matrix"])
    def test_damaged_factors_are_computed(self, factor_bundle, tmp_path, monkeypatch, damage):
        bundle = tmp_path / "bundle"
        shutil.copytree(factor_bundle, bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        vectors = bundle / "A_gram_vectors.npy"
        if damage == "csv_edit":
            # same size: A is parsed from the CSV, so neither factor is used
            text = (bundle / "A.csv").read_text()
            i = next(i for i, ch in enumerate(text) if ch in "12345678")
            (bundle / "A.csv").write_text(text[:i] + str(int(text[i]) + 1) + text[i + 1:])
        elif damage == "truncated_vectors":
            vectors.write_bytes(vectors.read_bytes()[:-9])
        elif damage == "missing_record":
            del manifest["cache"][vectors.name]
        else:
            # the eigenvectors of another matrix, in a valid file that its
            # record matches: the norm is still A's, but the vectors fail the
            # probe of the Gram matrix and eigh runs
            np.save(vectors, gram_eigh(np.load(bundle / "A.npy") + 1.0)[1])
            manifest["cache"][vectors.name] = datamod._file_check(vectors)
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        bare = _without_factor_files(bundle, tmp_path / "bare")
        calls = _count_eigensolvers(monkeypatch)
        damaged = [_run({"kind": "lasso", "fixture": str(bundle)}, tmp_path / "damaged",
                        "solve", recipe) for recipe in ("fista", "dr")]
        assert calls == ([] if damage == "other_matrix" else ["eigvalsh"]) + ["eigh"]
        assert damaged == [_run({"kind": "lasso", "fixture": str(bare)}, tmp_path / "computed",
                                "solve", recipe) for recipe in ("fista", "dr")]


class TestBundleReference:
    """A bundle's reference objective is reported only for the problem and
    lambda it was computed for."""

    def test_another_lambda_writes_no_expected_objective(self, lasso32, tmp_path):
        _run({"kind": "lasso", "fixture": str(lasso32), "lambda": 0.5}, tmp_path,
             "solve", "fista")
        summary = json.loads((tmp_path / "solve-fista" / "summary.json").read_text())
        assert "expected_objective" not in summary and "objective_error" not in summary
        assert summary["expected_objective_skipped"] == (
            "the bundle's reference solves lasso at lambda 0.1, not lasso at lambda 0.5")

    def test_tvl1_on_a_tv_denoise_bundle_writes_no_expected_objective(self, tmp_path):
        gen = write_config(tmp_path / "gen.json", {"kind": "tv_denoise", "dims": [8, 8],
                                                   "sigma": 0.1, "seed": 7, "lambda": 0.1})
        assert main(["generate", gen, "--out", str(tmp_path / "tv8")]) == 0
        _run({"kind": "tvl1", "fixture": str(tmp_path / "tv8")}, tmp_path, "solve", "cp")
        summary = json.loads((tmp_path / "solve-cp" / "summary.json").read_text())
        assert "expected_objective" not in summary and "objective_error" not in summary
        assert summary["expected_objective_skipped"] == (
            "the bundle's reference solves tv_denoise at lambda 0.1, not tvl1 at lambda 0.1")

    def test_the_bundle_lambda_reports_the_reference(self, lasso32, tmp_path):
        implied = _run({"kind": "lasso", "fixture": str(lasso32)}, tmp_path / "implied",
                       "solve", "fista")
        explicit = _run({"kind": "lasso", "fixture": str(lasso32), "lambda": 0.1},
                        tmp_path / "explicit", "solve", "fista")
        assert implied == explicit
        summary = json.loads((tmp_path / "implied" / "solve-fista" / "summary.json").read_text())
        assert {"expected_objective", "objective_error"} <= set(summary)
        assert "expected_objective_skipped" not in summary

    def test_tv_denoise_reference_stops_at_a_certified_gap(self, tmp_path):
        gen = write_config(tmp_path / "gen.json", {"kind": "tv_denoise", "dims": [8, 8],
                                                   "sigma": 0.1, "seed": 7, "lambda": 0.1})
        assert main(["generate", gen, "--out", str(tmp_path / "tv8")]) == 0
        expected = json.loads((tmp_path / "tv8" / "manifest.json").read_text())["expected"]
        assert (expected["recipe"], expected["termination"]) == ("cp", "tol_reached")
        assert 0 < expected["iterations"] < 20_000
        # the gap bounds P(x) - P*, and a long dual_fb run is above P* by far less
        inst = build_from_config({"kind": "tv_denoise", "fixture": str(tmp_path / "tv8")})
        _, x = inst.run("dual_fb", SolverConfig(max_iter=20_000))
        assert abs(expected["objective"] - inst.objective(x)) <= expected["gap"]


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
