"""Command-line front door.

    proxsplit solve|certify|compare|generate <config.json> [--out DIR] [--seed N]

``--seed`` applies to ``certify`` and ``generate``; the solvers are
deterministic, so ``solve`` and ``compare`` reject it.  Exit codes: 0
success, 1 config error, 2 divergence or numerical failure, 3 certification
failure.  Every command writes the config that ran, as
``resolved_config.json`` next to its outputs, so running it again reproduces
them.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import pathlib
import sys
import time
import typing

from . import data as datamod
from .linops import CGError, DenseOperator, ImageGrid
from .problems import build_from_config, build_lasso, build_tv_denoise, config_number
from .solvers import DIVERGED, DecreaseViolation, SolverConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CERT_FAIL = 3


class ConfigFileError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigFileError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"invalid JSON in {path}: {exc}")
    if not isinstance(config, dict):
        raise ConfigFileError(f"the config in {path} must be a JSON object")
    return config


def _solver_spec(spec, where: str = "solver") -> dict:
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ConfigFileError(f"{where} must be an object, got {json.dumps(spec)}")
    return dict(spec)


def _field_type_ok(value, hint) -> bool:
    # JSON gives whole numbers as int, and true/false fill only bool fields
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, hint) or (isinstance(value, int) and isinstance(0.0, hint))


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _solver_config(spec, where: str = "solver") -> SolverConfig:
    spec = _solver_spec(spec, where)
    hints = typing.get_type_hints(SolverConfig)
    unknown = set(spec) - set(hints)
    if unknown:
        raise ConfigFileError(f"unknown solver config fields: {sorted(unknown)}")
    for name, value in spec.items():
        if not _field_type_ok(value, hints[name]):
            raise ConfigFileError(
                f"solver field {name!r} must be {getattr(hints[name], '__name__', hints[name])}"
                f", got {json.dumps(value)}")
    return SolverConfig(**spec)


def _fmt(v) -> str:
    # repr spells a NaN of either sign "nan" and the infinities "inf", "-inf"
    return repr(float(v))


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


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_resolved(out_dir, config: dict, resolved: dict) -> None:
    # the config file with the settings that ran written over it
    _write_json(pathlib.Path(out_dir) / "resolved_config.json", {**config, **resolved})


def cmd_solve(config: dict, out_dir) -> int:
    problem_spec = config.get("problem")
    if not isinstance(problem_spec, dict):
        raise ConfigFileError("config needs a 'problem' object")
    recipe = config.get("recipe")
    if not recipe or not isinstance(recipe, str):
        raise ConfigFileError("config needs a 'recipe' name")
    inst = build_from_config(problem_spec)
    if recipe not in inst.recipes:
        raise ConfigFileError(
            f"unknown recipe {recipe!r} for problem {inst.name!r}; "
            f"available: {sorted(inst.recipes)}")
    cfg = _solver_config(config.get("solver"))

    t0 = time.perf_counter()
    trace, x = inst.run(recipe, cfg)
    wall = time.perf_counter() - t0

    # created after the run, so a run that raises leaves no directory behind
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_trace_csv(out / "trace.csv", trace)
    summary = {
        "problem": inst.name,
        "recipe": recipe,
        "iterations": trace.n_iter,
        "termination": trace.termination,
        "objective": inst.objective(x),
        "wall_time_seconds": wall,
    }
    # primal-dual recipes: the stepsizes that ran and the norm bound behind
    # them; recipes with a closed-form dual: the duality gap of the result
    summary.update({k: trace.meta[k] for k in ("sigma", "tau", "operator_norm", "gap")
                    if k in trace.meta})
    if inst.ground_truth and "objective" in inst.ground_truth:
        summary["expected_objective"] = float(inst.ground_truth["objective"])
        summary["objective_error"] = abs(summary["objective"]
                                         - summary["expected_objective"])
    _write_json(out / "summary.json", summary)
    # recipes built by proxsplit.problems record the config they ran
    _write_resolved(out, config, {"solver": dataclasses.asdict(trace.meta.get("config", cfg))})
    return EXIT_DIVERGED if trace.termination == DIVERGED else EXIT_OK


def cmd_compare(config: dict, out_dir) -> int:
    problem_spec = config.get("problem")
    recipes = config.get("recipes")
    if not isinstance(problem_spec, dict) or not recipes or not _is_names(recipes):
        raise ConfigFileError("compare needs a 'problem' object and a 'recipes' list")
    inst = build_from_config(problem_spec)
    for name in recipes:
        if name not in inst.recipes:
            raise ConfigFileError(f"unknown recipe {name!r}; available: "
                                  f"{sorted(inst.recipes)}")
    # "solver" is one config for every recipe, or an object keyed by recipe name
    spec = _solver_spec(config.get("solver"))
    per_recipe = bool(spec) and set(spec) <= set(recipes)
    cfgs = {name: _solver_config(spec.get(name), f"solver[{name!r}]")
            if per_recipe else _solver_config(spec)
            for name in recipes}

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

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    # imported here, so that solve, compare and generate skip loading the suite
    from .suite import CHECKS, CONTROLS, expand_checks, run_checks

    names = config.get("checks", ["all"])
    if isinstance(names, str):
        names = [names]
    if not _is_names(names):
        raise ConfigFileError(f"'checks' must be a name or a list of names, "
                              f"got {json.dumps(names)}")
    seed = int(seed_override if seed_override is not None else config_number(config, "seed", 0))
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
    sides = dims if isinstance(dims, list) else [dims]
    if not (1 <= len(sides) <= 2 and all(_field_type_ok(n, int) for n in sides)):
        raise ConfigFileError(f"'dims' must be one or two integers, got {json.dumps(dims)}")
    sigma = config_number(config, "sigma", 0.0)
    seed = int(seed_override if seed_override is not None else config_number(config, "seed", 0))
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
    lam = config_number(config, "lambda", 0.1)
    if kind == "lasso":
        data = datamod.generate_synthetic("sparse_vector", dims, sigma=sigma, seed=seed)
        inst, reference = build_lasso(DenseOperator(data["A"]), data["y"], lam), "fista"
    else:
        data = datamod.generate_synthetic("step_image", dims, sigma=sigma, seed=seed)
        grid = ImageGrid(data["rows"], data["cols"], data["y"])
        inst, reference = build_tv_denoise(grid, lam), "cp"
    # both references have a closed-form duality gap: stop once it certifies
    # the objective to about 12 digits
    trace, x = inst.run(reference, SolverConfig(max_iter=20_000, gap_tol=1e-12))
    data["lambda"] = lam
    datamod.write_fixture(out, data, expected={"objective": inst.objective(x)})
    _write_resolved(out, config, {**resolved, "lambda": lam})
    print(f"wrote {kind} fixture to {out}")
    return EXIT_OK


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_arrays() -> None:
    """Keep freed arrays in this process's heap, on glibc.

    By default glibc serves a block of 128 KiB or more from a fresh mapping
    and unmaps it on free, so every iteration of a 256x256 solve
    page-faults its temporaries in again.  Raising the mmap threshold to
    32 MiB, the largest glibc accepts on 64-bit, and the trim threshold to
    256 MiB lets freed arrays be reused instead; the peak stays the same,
    since the next iteration takes the blocks the last one freed.  Without
    a C library that has ``mallopt`` (Windows raises TypeError for a
    ``None`` name) this does nothing.  Only :func:`main` calls it:
    importing proxsplit leaves the host's allocator alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxsplit",
        description="first-order splitting solvers with numerical certification")
    parser.add_argument("command",
                        choices=["solve", "certify", "compare", "generate"])
    parser.add_argument("config", help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed override for certify and generate")
    args = parser.parse_args(argv)
    _retain_freed_arrays()

    try:
        config = _load_config(args.config)
        out_dir = args.out or config.get("output_dir", ".")
        if not isinstance(out_dir, str):
            raise ConfigFileError(f"'output_dir' must be a path, got {json.dumps(out_dir)}")
        handler = {
            "solve": cmd_solve,
            "certify": cmd_certify,
            "compare": cmd_compare,
            "generate": cmd_generate,
        }[args.command]
        if args.command in ("certify", "generate"):
            return handler(config, out_dir, args.seed)
        if args.seed is not None:
            raise ConfigFileError(f"{args.command} takes no --seed: its solvers are deterministic")
        return handler(config, out_dir)
    except (ConfigFileError, ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CGError, DecreaseViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
