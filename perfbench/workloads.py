"""Workloads of the proxsplit benchmark: inputs, commands and output checks.

Every input comes from the workload seed through the program's own
``generate`` kinds (``step_image``, ``blur_kernel``, ``lasso``) and is made
once per (workload, size, seed), outside any timed region; later runs with
the same seed reuse it.  The program only ever sees the generated configs
and fixture bundles.
"""
from __future__ import annotations

import dataclasses
import json
import math
import pathlib

import numpy as np

import reference

# the default certify suite, which `"checks": ["all"]` expands to
DEFAULT_CHECKS = (
    "admm:consensus", "contraction:gradient", "contraction:prox", "descent:fb",
    "descent:gd", "equiv:dr_admm", "equiv:dr_cp", "gap:cp_scalar", "gap:cp_tv8",
    "km:rotation", "lyapunov:gd_singular", "nonconvex:double_well",
    "nonconvex:hard_threshold", "property:all", "rate:fista", "rate:gd_linear",
    "rate:vfista", "recipes:tv_denoise", "recipes:tv_inverse")

# full-size parameters; "tiny" shrinks the data for the smoke test only
SIZES = {
    "denoise256": {"full": 256, "tiny": 16},
    "deblur64": {"full": 64, "tiny": 16},
    "lasso_dense": {"full": (512, 1024), "tiny": (32, 64)},
    "certify_all": {"full": list(DEFAULT_CHECKS),
                    "tiny": ["admm:consensus", "rate:gd_linear"]},
}

WHY = {
    "denoise256": "TV denoise of a 256^2 noisy step image, cp then dr_split: both the "
                  "largest Grad2D norm estimate (cp set-up) and cold-start CG in the "
                  "dr_split graph projection, plus 1.6 MB of stored iterate per step",
    "deblur64": "TV deblur of a 64^2 step image under a 7x7 Gaussian circular_conv, "
                "condat then cp2: CircularConv dominates iterations, the [blur; grad] "
                "norm dominates set-up, and no CG runs at all",
    "lasso_dense": "dense 512x1024 Gaussian LASSO, fista then dr: BLAS-bound "
                   "DenseOperator, CG on dense normal equations that no FFT "
                   "diagonalises, and fixture loading of a 4 MiB matrix",
    "certify_all": "certify with the 19 default checks: many 8x8 problems where "
                   "per-call Python overhead (as_vector, recorder, objective) "
                   "dominates; the light side for every large-array change",
}


# recipes with requested max_iter, the relative tolerance that defines
# iters_to_tol, and the one the final objective must meet.  The iters_to_tol
# tolerances were picked from the traces of seeds 11-30: each is reached well
# within the requested iterations, and there the summed count moves at most
# about 5% between seeds (deblur64 moved 9% at 2e-2, lasso_dense 9% at 1e-6).
SOLVES = {
    "denoise256": ([("cp", 160), ("dr_split", 50)], 1e-2, 1e-2),
    "deblur64": ([("condat", 400), ("cp2", 400)], 4e-2, 1e-2),
    # max_iter 1000 equals the SolverConfig default, which the recipe
    # replaces with its own 2000; the report shows requested against ran
    "lasso_dense": ([("fista", 1000), ("dr", 100)], 1e-8, 1e-8),
}


@dataclasses.dataclass
class Command:
    """One CLI invocation plus what its outputs must satisfy."""

    label: str
    subcommand: str            # "solve" or "certify"
    config: str                # full-work config
    setup_config: str          # same command with zero work
    requested_iters: int | None = None
    reference: float | None = None
    tol: float | None = None
    final_tol: float | None = None
    checks: list | None = None  # certify: every check that must report


@dataclasses.dataclass
class Outcome:
    ok: bool
    reason: str = ""
    iterations: int | None = None
    iters_to_tol: int | None = None
    objective: float | None = None
    trace_csv_bytes: int = 0


def _write_json(path: pathlib.Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="ascii")
    return str(path)


def _read_vector(path: pathlib.Path) -> np.ndarray:
    return np.array([float(t) for t in path.read_text().split()])


# -- inputs: (problem spec, reference record), made once per seed ------------

def _denoise256(work, seed, size, generate):
    dims = SIZES["denoise256"][size]
    image = work / "image"
    generate({"kind": "step_image", "dims": [dims, dims], "sigma": 0.1}, image, seed)
    y = _read_vector(image / "y.csv").reshape(dims, dims)
    problem = {"kind": "tv_denoise", "fixture": str(image.resolve()), "lambda": 0.1}
    return problem, reference.tv_denoise(y, 0.1)


def _deblur64(work, seed, size, generate):
    dims = SIZES["deblur64"][size]
    image, blur = work / "image", work / "blur"
    generate({"kind": "step_image", "dims": [dims, dims], "sigma": 0.05}, image, seed)
    generate({"kind": "blur_kernel", "dims": 7}, blur, seed)
    image_y = _read_vector(image / "y.csv")
    k = _read_vector(blur / "kernel.csv")
    kernel = np.outer(k, k)
    # inline config, no fixture bundle: given a grid-sized y, the CLI
    # observes the blurred image A y
    problem = {"kind": "tv_inverse", "rows": dims, "cols": dims, "lambda": 0.05,
               "y": image_y.tolist(),
               "A": {"kind": "circular_conv", "kernel": kernel.tolist(),
                     "shape": [dims, dims]}}
    return problem, reference.tv_deblur(image_y.reshape(dims, dims), kernel, 0.05)


def _lasso_dense(work, seed, size, generate):
    m, n = SIZES["lasso_dense"][size]
    bundle = work / "lasso"
    generate({"kind": "lasso", "dims": [m, n], "sigma": 0.01, "lambda": 0.1}, bundle, seed)
    manifest = json.loads((bundle / "manifest.json").read_text())
    A = np.loadtxt(bundle / "A.csv", delimiter=",", ndmin=2)
    ref = reference.lasso(A, _read_vector(bundle / "y.csv"), 0.1)
    # the bundle's own value comes from the program's fista, so it is kept
    # for the record but not trusted as the reference
    ref["bundle_objective"] = float(manifest["expected"]["objective"])
    return {"kind": "lasso", "fixture": str(bundle.resolve())}, ref


def _certify_all(work, seed, size, generate):
    return None, {"method": "certify verdicts; iters_to_tol sums the "
                            "admm:consensus iterations to primal residual 1e-6"}


INPUTS = {
    "denoise256": _denoise256,
    "deblur64": _deblur64,
    "lasso_dense": _lasso_dense,
    "certify_all": _certify_all,
}


def prepare(name: str, cache: pathlib.Path, seed: int, size: str, generate):
    """Commands and reference record for one workload; inputs cached by seed."""
    work = cache / f"{name}-{size}-seed{seed}"
    saved = work / "inputs.json"
    if saved.exists():
        inputs = json.loads(saved.read_text())
    else:
        work.mkdir(parents=True, exist_ok=True)
        problem, ref = INPUTS[name](work, seed, size, generate)
        inputs = {"problem": problem, "reference": ref}
        _write_json(saved, inputs)
    ref = inputs["reference"]
    if name == "certify_all":
        checks = SIZES[name][size]
        requested = ["all"] if size == "full" else checks
        full = _write_json(work / "certify.json", {"checks": requested, "seed": seed})
        zero = _write_json(work / "certify.setup.json", {"checks": [], "seed": seed})
        return [Command("certify", "certify", full, zero, checks=checks)], ref
    runs, tol, final_tol = SOLVES[name]
    cmds = []
    for recipe, iters in runs:
        body = {"problem": inputs["problem"], "recipe": recipe}
        full = _write_json(work / f"{recipe}.json", dict(body, solver={"max_iter": iters}))
        zero = _write_json(work / f"{recipe}.setup.json", dict(body, solver={"max_iter": 0}))
        cmds.append(Command(recipe, "solve", full, zero, iters, ref["objective"],
                            tol, final_tol))
    return cmds, ref


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _load_json(path: pathlib.Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _trace_objectives(path: pathlib.Path):
    try:
        lines = path.read_text(encoding="ascii").splitlines()
        header = lines[0].split(",")
        if header[:3] != ["n", "objective", "residual"]:
            return None
        rows = [line.split(",") for line in lines[1:]]
        steps = [int(r[0]) for r in rows]
        if steps != list(range(1, len(rows) + 1)):
            return None
        return [float(r[1]) for r in rows]
    except (OSError, ValueError, IndexError):
        return None


def check(cmd: Command, out: pathlib.Path, rc: int, zero_work: bool) -> Outcome:
    """Decide whether one command succeeded from its exit code and artifacts."""
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    if cmd.subcommand == "certify":
        return _check_certify(out, [] if zero_work else cmd.checks)
    summary = _load_json(out / "summary.json")
    if not isinstance(summary, dict) or not {"iterations", "objective"} <= set(summary):
        return Outcome(False, "summary.json missing or malformed")
    objectives = _trace_objectives(out / "trace.csv")
    if objectives is None:
        return Outcome(False, "trace.csv missing or malformed")
    iterations = int(summary["iterations"])
    csv_bytes = (out / "trace.csv").stat().st_size
    if len(objectives) != iterations:
        return Outcome(False, f"trace.csv has {len(objectives)} rows for "
                              f"{iterations} iterations")
    final = float(summary["objective"])
    if not math.isfinite(final):
        return Outcome(False, f"non-finite final objective {final}", iterations)
    if zero_work:
        return Outcome(True, "", iterations, None, final, csv_bytes)
    ref = abs(cmd.reference)
    if abs(final - cmd.reference) > cmd.final_tol * ref:
        return Outcome(False, f"final objective {final!r} misses reference "
                              f"{cmd.reference!r} by more than {cmd.final_tol:g} relative",
                       iterations, None, final, csv_bytes)
    hit = next((n for n, v in enumerate(objectives, 1)
                if abs(v - cmd.reference) <= cmd.tol * ref), None)
    if hit is None:
        return Outcome(False, f"objective never came within {cmd.tol:g} relative "
                              f"of the reference", iterations, None, final, csv_bytes)
    return Outcome(True, "", iterations, hit, final, csv_bytes)


def _check_certify(out: pathlib.Path, checks: list) -> Outcome:
    report = _load_json(out / "report.json")
    if not isinstance(report, dict) or not isinstance(report.get("reports"), list):
        return Outcome(False, "report.json missing or malformed")
    if report.get("all_passed") is not True:
        return Outcome(False, f"certify failures: {report.get('failures')}")
    reported = {str(r.get("check", "")).split("/")[0] for r in report["reports"]}
    if reported != set(checks):
        return Outcome(False, f"checks reported {sorted(reported)}, expected {sorted(checks)}")
    if not checks:
        return Outcome(True)
    first_hits = [d["first_hit"] for r in report["reports"]
                  if r.get("check", "").startswith("admm:consensus")
                  for d in r.get("details", []) if d.get("first_hit")]
    if not first_hits:
        return Outcome(False, "admm:consensus reported no iteration count")
    return Outcome(True, "", None, int(sum(first_hits)))
