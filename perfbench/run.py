"""Benchmark of proxsplit's two user commands, `solve` and `certify`.

Run from the repository root:

    python3 perfbench/run.py --workload denoise256 --seed 1 --seconds 10 --trace 0

Workloads: denoise256, deblur64, lasso_dense, certify_all (see
``workloads.WHY`` and BENCHMARK.json).  Inputs are generated from the seed by
the program's own ``generate`` command, outside the timed region, and cached
under ``.perfbench/inputs``.

``--trace 0`` drives the real CLI (``python -m proxsplit.cli`` with ``src``
on PYTHONPATH) as a closed loop from this one process: one client, one
command at a time, one child process per command, BLAS pinned to one
thread.  It first times zero-work passes (``max_iter: 0`` or ``checks: []``)
for ``setup_s`` (up to three, fewer once they take half of ``--seconds``),
then full passes for ``wall_s`` until ``--seconds`` have elapsed, and
reports the end-to-end metrics as medians over the passes.

``--trace 1`` runs the same commands in-process through ``cli.main``: one
untraced pass, then one pass with the wrappers of ``tracing.py`` installed,
and reports the per-layer metrics plus the tracing overhead.

Every command's outputs are checked (``workloads.check``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record, with the environment, goes to
``.perfbench/results``.  Without ``src/proxsplit`` next to this directory the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import os

# pinned before NumPy loads, here and in every child process
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PASSES = 3  # at most; fewer once they fill half of --seconds

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "iters_to_tol": "count"}


def child_env() -> dict:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli(args: list[str], log: pathlib.Path):
    """One child process; returns (exit code, wall seconds, peak RSS in MiB)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "proxsplit.cli", *args],
                                env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def generate(config: dict, out: pathlib.Path, seed: int) -> None:
    """The program's own `generate` command, untimed."""
    out.parent.mkdir(parents=True, exist_ok=True)
    cfg = out.parent / f"{out.name}.generate.json"
    cfg.write_text(json.dumps(config))
    rc, _, _ = run_cli(["generate", str(cfg), "--out", str(out), "--seed", str(seed)],
                       out.parent / f"{out.name}.generate.log")
    if rc != 0:
        raise RuntimeError(f"proxsplit generate {config} exited with {rc}")


def environment() -> dict:
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    caches = {}
    with contextlib.suppress(OSError):
        for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"l{level}"] = (index / "size").read_text().strip()

    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "l2_per_core": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in PINS},
    }


def timing_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it, n."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) > 10:
        ordered = sorted(samples)
        k = len(samples) - 11
        out[f"p{100.0 * (k + 1) / len(samples):.0f}"] = ordered[k]
    return out


class Run:
    """One benchmark run: its commands, samples and outcomes."""

    def __init__(self, name: str, seed: int, size: str):
        self.name, self.seed, self.size = name, seed, size
        self.cmds, self.reference = workloads.prepare(
            name, STATE / "inputs", seed, size, generate)
        self.out = STATE / "runs" / f"{name}-{size}-seed{seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[dict] = []
        self.timings: dict = {}

    def outdir(self, tag: str, cmd) -> pathlib.Path:
        path = self.out / f"{tag}-{cmd.label}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def judge(self, tag, cmd, out, rc, wall, rss, zero_work):
        outcome = workloads.check(cmd, out, rc, zero_work)
        self.attempted += 1
        if not outcome.ok:
            self.failures.append(f"{tag} {cmd.label}: {outcome.reason}")
        self.records.append({"pass": tag, "command": cmd.label, "exit_code": rc,
                             "wall_s": wall, "peak_rss_mb": rss,
                             **vars(outcome)})
        return outcome

    # -- untraced: child processes ----------------------------------------

    def subprocess_pass(self, tag: str, zero_work: bool):
        t0 = time.perf_counter()
        peak, outcomes = 0.0, []
        for cmd in self.cmds:
            out = self.outdir(tag, cmd)
            config = cmd.setup_config if zero_work else cmd.config
            rc, wall, rss = run_cli([cmd.subcommand, config, "--out", str(out)],
                                    self.out / f"{tag}-{cmd.label}.stderr")
            outcomes.append(self.judge(tag, cmd, out, rc, wall, rss, zero_work))
            peak = max(peak, rss)
        return time.perf_counter() - t0, peak, outcomes

    def untraced(self, seconds: float) -> dict:
        # warm the page cache for the interpreter and NumPy; users have it warm
        run_cli(["--help"], self.out / "warmup.log")
        setup = []
        while len(setup) < SETUP_PASSES and (not setup or sum(setup) < seconds / 2):
            setup.append(self.subprocess_pass(f"setup{len(setup)}", True)[0])
        walls, peaks, iters = [], [], []
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 < seconds:
            wall, peak, outcomes = self.subprocess_pass(f"full{len(walls)}", False)
            walls.append(wall)
            peaks.append(peak)
            iters.append(sum(o.iters_to_tol or 0 for o in outcomes))
        self.timings = {"wall_s": timing_summary(walls), "setup_s": timing_summary(setup)}
        for cmd in self.cmds:
            samples = [r["wall_s"] for r in self.records
                       if r["command"] == cmd.label and r["pass"].startswith("full")]
            self.timings[f"command.{cmd.label}.wall_s"] = timing_summary(samples)
        return {"wall_s": statistics.median(walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(peaks),
                "iters_to_tol": statistics.median(iters)}

    # -- traced: in-process ------------------------------------------------

    def inprocess_pass(self, tag: str, cli, tracer=None):
        t0 = time.perf_counter()
        csv_bytes = 0
        for i, cmd in enumerate(self.cmds):
            out = self.outdir(tag, cmd)
            argv = [cmd.subcommand, cmd.config, "--out", str(out)]
            c0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    rc = (tracer.run_command(i, cli.main, argv) if tracer
                          else cli.main(argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
            outcome = self.judge(tag, cmd, out, rc, time.perf_counter() - c0,
                                 None, False)
            csv_bytes += outcome.trace_csv_bytes
        return time.perf_counter() - t0, csv_bytes

    def traced(self) -> dict:
        sys.path.insert(0, str(SRC))
        import proxsplit.cli as cli

        untraced_wall, _ = self.inprocess_pass("untraced", cli)
        tracer = tracing.Tracer()
        tracing.install(tracer, sys.modules["proxsplit"])
        try:
            traced_wall, csv_bytes = self.inprocess_pass("traced", cli, tracer)
        finally:
            tracer.uninstall()
        tracer.save(STATE / "results" / f"{self.name}-{self.size}-seed{self.seed}-spans.npz")
        metrics = tracing.layer_metrics(tracer)
        metrics["cli.trace_csv_bytes"] = csv_bytes
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        self.timings = {"untraced_inprocess_wall_s": untraced_wall,
                        "traced_wall_s": traced_wall, "spans": len(tracer.names)}
        return metrics


def print_report(run: Run, env: dict, metrics: dict, units: dict) -> None:
    print(f"proxsplit benchmark: workload {run.name} ({run.size}), seed {run.seed}")
    print(f"  why: {workloads.WHY[run.name]}")
    print("  environment: " + json.dumps(env, sort_keys=True))
    print("  reference: " + json.dumps(run.reference, sort_keys=True))
    for cmd in run.cmds:
        full = [r for r in run.records if r["command"] == cmd.label
                and not r["pass"].startswith("setup")]
        if cmd.requested_iters is not None and full:
            ran = full[-1]["iterations"]
            note = "" if ran in (None, cmd.requested_iters) else \
                "  <- MISMATCH: the solver ran a different count than requested"
            print(f"  {cmd.label}: requested max_iter {cmd.requested_iters}, ran {ran}, "
                  f"iters_to_tol {full[-1]['iters_to_tol']} at relative tol {cmd.tol:g}, "
                  f"final objective {full[-1]['objective']!r} (must be within {cmd.final_tol:g})"
                  f"{note}")
    for key, value in run.timings.items():
        print(f"  timing {key}: {value}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(f"  error_rate: {len(run.failures)}/{run.attempted} = "
          f"{len(run.failures) / max(run.attempted, 1):g}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "proxsplit" / "cli.py").is_file():
        print(f"no proxsplit sources under {SRC}", file=sys.stderr)
        return 2
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    env = environment()
    run = Run(args.workload, args.seed, args.size)
    if args.trace:
        metrics, units = run.traced(), tracing.layer_metric_units()
    else:
        metrics, units = run.untraced(args.seconds), END_TO_END
    print_report(run, env, metrics, units)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  reference=run.reference, failures=run.failures,
                  timings=run.timings, commands=run.records)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (STATE / "results" / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
