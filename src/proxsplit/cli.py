"""Command-line front door.

    proxsplit solve|certify|compare|generate <config.json> [--out DIR] [--seed N]

Each option is given as ``--opt value`` or ``--opt=value``.  ``--seed``
applies to ``certify`` and ``generate``; the solvers are deterministic, so
``solve`` and ``compare`` reject it.  Exit codes: 0 success, 1 config error
or malformed command line, 2 divergence or numerical failure, 3
certification failure.  Every command writes the config that ran, as
``resolved_config.json`` next to its outputs, so running it again reproduces
them.
"""
from __future__ import annotations

import ctypes
import dataclasses
import json
import pathlib
import sys
import time
import typing

from . import data as datamod
from .linops import CGError, DenseOperator
from .problems import build_from_config, build_lasso, build_tv_denoise, config_value
from .solvers import DIVERGED, DecreaseViolation, SolverConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CERT_FAIL = 3


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")
    if not isinstance(config, dict):
        raise ValueError(f"the config in {path} must be a JSON object")
    return config


def _solver_spec(spec, where: str = "solver") -> dict:
    if spec is None:
        return {}
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be an object, got {json.dumps(spec)}")
    return dict(spec)


def _solver_config(spec, where: str = "solver") -> SolverConfig:
    spec = _solver_spec(spec, where)
    hints = typing.get_type_hints(SolverConfig)
    unknown = set(spec) - set(hints)
    if unknown:
        raise ValueError(f"unknown solver config fields: {sorted(unknown)}")
    for name, value in spec.items():
        hint = hints[name]
        # JSON gives whole numbers as int, and true/false fill only bool fields
        if not (hint is bool if isinstance(value, bool)
                else isinstance(value, hint) or isinstance(value, int) and isinstance(0.0, hint)):
            raise ValueError(
                f"solver field {name!r} must be {getattr(hint, '__name__', hint)}"
                f", got {json.dumps(value)}")
    return SolverConfig(**spec)


def _fmt(v) -> str:
    # repr spells a NaN of either sign "nan" and the infinities "inf", "-inf"
    return repr(float(v))


def _write_csv(path, header, rows) -> None:
    # each row is a list of strings, written after its number, counted from 1
    lines = [",".join(header)]
    lines += [",".join([str(i), *row]) for i, row in enumerate(rows, 1)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_trace_csv(path, trace) -> None:
    extra_keys = sorted(trace.extras)
    columns = [trace.objective, trace.residual] + [trace.extras[k] for k in extra_keys]
    _write_csv(path, ["n", "objective", "residual"] + extra_keys,
               ([_fmt(col[i]) for col in columns] for i in range(trace.n_iter)))


def _write_resolved(out_dir, config: dict, resolved: dict) -> None:
    # the config file with the settings that ran written over it
    datamod.write_json(pathlib.Path(out_dir) / "resolved_config.json", {**config, **resolved})


def cmd_solve(config: dict, out_dir) -> int:
    problem_spec = config_value(config, "problem")
    recipe = config_value(config, "recipe")
    inst = build_from_config(problem_spec)
    if recipe not in inst.recipes:
        raise ValueError(
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
    if "expected_objective_skipped" in inst.metadata:
        summary["expected_objective_skipped"] = inst.metadata["expected_objective_skipped"]
    datamod.write_json(out / "summary.json", summary)
    _write_resolved(out, config, {"solver": dataclasses.asdict(trace.meta["config"])})
    return EXIT_DIVERGED if trace.termination == DIVERGED else EXIT_OK


def cmd_compare(config: dict, out_dir) -> int:
    problem_spec = config_value(config, "problem")
    recipes = config_value(config, "recipes")
    inst = build_from_config(problem_spec)
    for name in recipes:
        if name not in inst.recipes:
            raise ValueError(f"unknown recipe {name!r}; available: "
                                  f"{sorted(inst.recipes)}")
    # "solver" is one config for every recipe, or an object keyed by recipe name
    spec = _solver_spec(config.get("solver"))
    per_recipe = bool(spec) and set(spec) <= set(recipes)
    cfgs = {name: _solver_config(spec.get(name), f"solver[{name!r}]")
            if per_recipe else _solver_config(spec)
            for name in recipes}

    # each column is the objective path, so a run with no iterations holds
    # its starting objective; row n reads entry n, or the last one
    columns = {}
    finals = {}
    ran = {}
    for name in recipes:
        trace, x = inst.run(name, cfgs[name])
        columns[name] = trace.objective_path()
        finals[name] = inst.objective(x)
        ran[name] = dataclasses.asdict(trace.meta["config"])
    best = min(finals.values())
    length = max(len(c) for c in columns.values())

    def at(col, n):
        return col[min(n, len(col) - 1)]

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "comparison.csv", ["n"] + list(recipes) + ["gap_to_best"],
               ([_fmt(at(columns[name], n)) for name in recipes]
                + [_fmt(min(at(columns[name], n) for name in recipes) - best)]
                for n in range(1, length)))
    datamod.write_json(out / "summary.json",
                       {"problem": inst.name, "final_objectives": finals, "best": best})
    _write_resolved(out, config, {"solver": ran})
    return EXIT_OK


def cmd_certify(config: dict, out_dir, seed_override=None) -> int:
    # imported here, so that solve, compare and generate skip loading the suite
    from .suite import CHECKS, CONTROLS, expand_checks, run_checks

    names = config_value(config, "checks", ["all"])
    if isinstance(names, str):
        names = [names]
    seed = seed_override if seed_override is not None else config_value(config, "seed", 0)
    try:
        names = expand_checks(names)
    except KeyError as exc:
        raise ValueError(
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
    datamod.write_json(out / "report.json", payload)
    for rep in reports:
        print(rep)
    return EXIT_OK if all_passed else EXIT_CERT_FAIL


def cmd_generate(config: dict, out_dir, seed_override=None) -> int:
    kind = config_value(config, "kind")
    dims = config_value(config, "dims", 8)
    sigma = float(config_value(config, "sigma", 0.0))
    seed = seed_override if seed_override is not None else config_value(config, "seed", 0)
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
        raise ValueError(
            f"unknown fixture kind {kind!r}; data kinds: {datamod.SYNTHETIC_KINDS} "
            "plus problem bundles 'lasso' and 'tv_denoise'")
    lam = float(config_value(config, "lambda", 0.1))
    if kind == "lasso":
        data = datamod.generate_synthetic("sparse_vector", dims, sigma=sigma, seed=seed)
        inst, reference = build_lasso(DenseOperator(data["A"]), data["y"], lam), "fista"
    else:
        data = datamod.generate_synthetic("step_image", dims, sigma=sigma, seed=seed)
        image = data["y"].reshape(data["rows"], data["cols"])
        inst, reference = build_tv_denoise(image, lam), "cp"
    # both references have a closed-form duality gap: stop once it certifies
    # the objective to about 12 digits
    trace, x = inst.run(reference, SolverConfig(max_iter=20_000, gap_tol=1e-12))
    data["lambda"] = lam
    datamod.write_fixture(out, data, expected={
        "objective": inst.objective(x), "recipe": reference,
        "termination": trace.termination, "iterations": trace.n_iter,
        "gap": trace.meta["gap"]})
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


_HANDLERS = {"solve": cmd_solve, "certify": cmd_certify, "compare": cmd_compare,
             "generate": cmd_generate}
_USAGE = "usage: proxsplit {solve,certify,compare,generate} CONFIG [--out DIR] [--seed N]"


def _read_argv(argv):
    """The command line as (command, config, out, seed), an absent option
    None; ValueError names what is malformed."""
    positional, options = [], {"--out": None, "--seed": None}
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            positional.append(word)
            continue
        name, eq, value = word.partition("=")
        if name not in options:
            raise ValueError(f"unknown option {name}")
        value = value if eq else next(words, "")
        # a following option is not a value: "--out --seed 3"
        if not value or not eq and value.startswith("--"):
            raise ValueError(f"option {name} needs a value")
        options[name] = value
    if len(positional) != 2 or positional[0] not in _HANDLERS:
        raise ValueError(f"expected one of {', '.join(_HANDLERS)} and a config file, "
                         f"got {positional}")
    seed = options["--seed"]
    try:
        return (*positional, options["--out"], None if seed is None else int(seed))
    except ValueError:
        raise ValueError(f"--seed must be an integer, got {seed!r}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return EXIT_OK
    try:
        command, config_path, out, seed = _read_argv(argv)
    except ValueError as exc:
        print(f"{_USAGE}\nproxsplit: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _retain_freed_arrays()

    try:
        config = _load_config(config_path)
        # the config's output_dir is checked even when --out overrides it
        configured = config_value(config, "output_dir", ".")
        out_dir = out or configured
        if command in ("certify", "generate"):
            return _HANDLERS[command](config, out_dir, seed)
        if seed is not None:
            raise ValueError(f"{command} takes no --seed: its solvers are deterministic")
        return _HANDLERS[command](config, out_dir)
    except (ValueError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CGError, DecreaseViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
