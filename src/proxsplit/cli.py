"""Command-line front door.

    proxsplit solve|certify|compare|generate <config.json> [--out DIR] [--seed N]

Exit codes: 0 success, 1 config error, 2 divergence or numerical failure,
3 certification failure.  Every command writes the config that ran, as
``resolved_config.json`` next to its outputs, so running it again reproduces
them.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time

import numpy as np

from . import data as datamod
from .linops import CGError, DenseOperator, ImageGrid
from .problems import build_from_config, build_lasso, build_tv_denoise
from .solvers import DIVERGED, DecreaseViolation, SolverConfig
from .suite import CHECKS, CONTROLS, expand_checks, run_checks

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CERT_FAIL = 3


class ConfigFileError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigFileError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"invalid JSON in {path}: {exc}")


def _solver_config(spec: dict | None, seed_override: int | None) -> SolverConfig:
    spec = dict(spec or {})
    allowed = {f.name for f in dataclasses.fields(SolverConfig)}
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigFileError(f"unknown solver config fields: {sorted(unknown)}")
    if seed_override is not None:
        spec["seed"] = seed_override
    return SolverConfig(**spec)


def _fmt(v) -> str:
    f = float(v)
    if np.isnan(f):
        return "nan"
    if np.isposinf(f):
        return "inf"
    if np.isneginf(f):
        return "-inf"
    return repr(f)


def _write_trace_csv(path, trace) -> None:
    extra_keys = sorted(trace.extras)
    header = ["n", "objective", "residual"] + extra_keys
    lines = [",".join(header)]
    for i, n in enumerate(trace.steps):
        row = [str(int(n)), _fmt(trace.objective[i]), _fmt(trace.residual[i])]
        row += [_fmt(trace.extras[k][i]) for k in extra_keys]
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_resolved(out_dir, config: dict, resolved: dict) -> None:
    # the config file with the settings that ran written over it
    _write_json(pathlib.Path(out_dir) / "resolved_config.json", {**config, **resolved})


def cmd_solve(config: dict, out_dir, seed_override=None) -> int:
    problem_spec = config.get("problem")
    if not isinstance(problem_spec, dict):
        raise ConfigFileError("config needs a 'problem' object")
    recipe = config.get("recipe")
    if not recipe:
        raise ConfigFileError("config needs a 'recipe' name")
    inst = build_from_config(problem_spec)
    if recipe not in inst.recipes:
        raise ConfigFileError(
            f"unknown recipe {recipe!r} for problem {inst.name!r}; "
            f"available: {sorted(inst.recipes)}")
    cfg = _solver_config(config.get("solver"), seed_override)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    trace, x = inst.run(recipe, cfg)
    wall = time.perf_counter() - t0

    _write_trace_csv(out / "trace.csv", trace)
    summary = {
        "problem": inst.name,
        "recipe": recipe,
        "iterations": trace.n_iter,
        "termination": trace.termination,
        "objective": inst.objective(x),
        "wall_time_seconds": wall,
    }
    # primal-dual recipes: the stepsizes that ran and the norm bound behind them
    summary.update({k: trace.meta[k] for k in ("sigma", "tau", "operator_norm")
                    if k in trace.meta})
    if inst.ground_truth and "objective" in inst.ground_truth:
        summary["expected_objective"] = float(inst.ground_truth["objective"])
        summary["objective_error"] = abs(summary["objective"]
                                         - summary["expected_objective"])
    _write_json(out / "summary.json", summary)
    # recipes built by proxsplit.problems record the config they ran
    _write_resolved(out, config, {"solver": dataclasses.asdict(trace.meta.get("config", cfg))})
    return EXIT_DIVERGED if trace.termination == DIVERGED else EXIT_OK


def cmd_compare(config: dict, out_dir, seed_override=None) -> int:
    problem_spec = config.get("problem")
    recipes = config.get("recipes")
    if not isinstance(problem_spec, dict) or not recipes:
        raise ConfigFileError("compare needs a 'problem' object and a 'recipes' list")
    inst = build_from_config(problem_spec)
    for name in recipes:
        if name not in inst.recipes:
            raise ConfigFileError(f"unknown recipe {name!r}; available: "
                                  f"{sorted(inst.recipes)}")
    # "solver" is one config for every recipe, or an object keyed by recipe name
    spec = dict(config.get("solver") or {})
    per_recipe = bool(spec) and set(spec) <= set(recipes)
    cfgs = {name: _solver_config(spec.get(name) if per_recipe else spec, seed_override)
            for name in recipes}
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    columns = {}
    finals = {}
    ran = {}
    for name in recipes:
        trace, x = inst.run(name, cfgs[name])
        columns[name] = trace.objective
        finals[name] = inst.objective(x)
        ran[name] = dataclasses.asdict(trace.meta.get("config", cfgs[name]))
    best = min(finals.values())
    length = max(len(c) for c in columns.values())

    def at(col, i):
        return col[i] if i < len(col) else col[-1]

    header = ["n"] + list(recipes) + ["gap_to_best"]
    lines = [",".join(header)]
    for i in range(length):
        row = [str(i + 1)]
        row += [_fmt(at(columns[name], i)) for name in recipes]
        row.append(_fmt(min(at(columns[name], i) for name in recipes) - best))
        lines.append(",".join(row))
    with open(out / "comparison.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_json(out / "summary.json",
                {"problem": inst.name, "final_objectives": finals, "best": best})
    _write_resolved(out, config, {"solver": ran})
    return EXIT_OK


def cmd_certify(config: dict, out_dir, seed_override=None) -> int:
    names = config.get("checks", ["all"])
    if isinstance(names, str):
        names = [names]
    seed = int(seed_override if seed_override is not None
               else config.get("seed", 0))
    try:
        names = expand_checks(names)
    except KeyError as exc:
        raise ConfigFileError(
            f"{exc.args[0]}; known checks: {sorted(CHECKS) + sorted(CONTROLS)}")
    reports = run_checks(names, seed=seed)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_resolved(out, config, {"checks": names, "seed": seed})
    all_passed = all(r.passed for r in reports)
    payload = {
        "seed": seed,
        "all_passed": all_passed,
        "failures": [r.check for r in reports if not r.passed],
        "reports": [r.to_dict() for r in reports],
    }
    _write_json(out / "report.json", payload)
    for rep in reports:
        print(rep)
    return EXIT_OK if all_passed else EXIT_CERT_FAIL


def cmd_generate(config: dict, out_dir, seed_override=None) -> int:
    kind = config.get("kind")
    if not kind:
        raise ConfigFileError("generate needs a 'kind'")
    dims = config.get("dims", 8)
    sigma = float(config.get("sigma", 0.0))
    seed = int(seed_override if seed_override is not None
               else config.get("seed", 0))
    out = pathlib.Path(out_dir)
    resolved = {"kind": kind, "dims": dims, "sigma": sigma, "seed": seed}

    if kind in datamod.SYNTHETIC_KINDS:
        data = datamod.generate_synthetic(kind, dims, sigma=sigma, seed=seed)
        datamod.write_fixture(out, data)
        _write_resolved(out, config, resolved)
        print(f"wrote {kind} fixture to {out}")
        return EXIT_OK

    # problem-level bundles additionally store a reference objective
    if kind not in ("lasso", "tv_denoise"):
        raise ConfigFileError(
            f"unknown fixture kind {kind!r}; data kinds: {datamod.SYNTHETIC_KINDS} "
            "plus problem bundles 'lasso' and 'tv_denoise'")
    lam = float(config.get("lambda", 0.1))
    if kind == "lasso":
        data = datamod.generate_synthetic("sparse_vector", dims, sigma=sigma, seed=seed)
        inst, reference = build_lasso(DenseOperator(data["A"]), data["y"], lam), "fista"
    else:
        data = datamod.generate_synthetic("step_image", dims, sigma=sigma, seed=seed)
        grid = ImageGrid(data["rows"], data["cols"], data["y"])
        inst, reference = build_tv_denoise(grid, lam), "cp"
    trace, x = inst.run(reference, SolverConfig(max_iter=20_000))
    data["lambda"] = lam
    datamod.write_fixture(out, data, expected={"objective": inst.objective(x)})
    _write_resolved(out, config, {**resolved, "lambda": lam})
    print(f"wrote {kind} fixture to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxsplit",
        description="first-order splitting solvers with numerical certification")
    parser.add_argument("command",
                        choices=["solve", "certify", "compare", "generate"])
    parser.add_argument("config", help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        out_dir = args.out or config.get("output_dir", ".")
        handler = {
            "solve": cmd_solve,
            "certify": cmd_certify,
            "compare": cmd_compare,
            "generate": cmd_generate,
        }[args.command]
        return handler(config, out_dir, args.seed)
    except (ConfigFileError, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CGError, DecreaseViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
