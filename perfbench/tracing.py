"""In-process span tracing of proxsplit, done entirely from the benchmark.

Nothing under ``src/`` is edited: :func:`install` replaces module functions
and class methods of an imported proxsplit with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  Every wrapped call records
one span (name, start, end, parent span, command id) in memory; the spans are
written out once, when the run ends, and the per-layer metrics are computed
from them by :func:`layer_metrics`.
"""
from __future__ import annotations

import functools
import inspect
import re
import sys
import time

import numpy as np

from workloads import DEFAULT_CHECKS as CHECKS

# funcs classes whose prox is reported by name; other prox oracles are traced
# under their snake-cased class name so that solver self time excludes them
PROX_NAMES = {
    "AffineGraphIndicator": "affine_graph",
    "Quadratic": "quadratic",
    "LinfBallIndicator": "linf_ball",
    "L1Norm": "l1",
    "SeparableProx": "separable",
}
KERNELS = ("grad2d", "circular_conv", "dense_matrix", "stack")
SOLVERS = ("gradient_descent", "projected_gradient", "proximal_point",
           "forward_backward", "nonconvex_forward_backward",
           "krasnoselskii_mann", "douglas_rachford", "ppxa", "admm",
           "chambolle_pock", "arrow_hurwicz", "condat")


def suite_span(check: str) -> str:
    """Span name of a certify check: ``gap:cp_tv8`` -> ``suite.gap.cp_tv8``."""
    return "suite." + check.replace(":", ".")


def _snake(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower().lstrip("_")


class Tracer:
    """Span store plus the wrappers that feed it.

    Spans are kept as parallel columns.  ``info`` and ``info2`` hold per-span
    numbers whose meaning depends on the span name: CG iterations, solver
    iterations and stored-iterate bytes, an unconverged-norm flag.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.command: list[int] = []
        self.outer: list[bool] = []
        self.info: list[float] = []
        self.info2: list[float] = []
        self.failed: list[bool] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._cmd = -1
        self._restore: list = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.command.append(self._cmd)
        self.outer.append(depth == 0)
        self.info.append(0.0)
        self.info2.append(0.0)
        self.failed.append(False)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.names[idx]] -= 1

    def run_command(self, cmd_id: int, fn, *args):
        """Run one command inside a top-level ``cli`` span."""
        self._cmd = cmd_id
        return self.wrap("cli", fn)(*args)

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper; ``after(result, args)`` returns (info, info2)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = True
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                tracer.info[idx], tracer.info2[idx] = after(result, args)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def _set_attr(self, owner, attr: str, value) -> None:
        previous = owner.__dict__[attr]
        self._restore.append(lambda: setattr(owner, attr, previous))
        setattr(owner, attr, value)

    def _set_item(self, table: dict, key, value) -> None:
        previous = table[key]
        self._restore.append(lambda: table.__setitem__(key, previous))
        table[key] = value

    def _rebind(self, original, replacement) -> None:
        # every proxsplit module that imported the function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "proxsplit" or mod_name.startswith("proxsplit."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._set_attr(mod, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- output -----------------------------------------------------------

    def save(self, path) -> None:
        """Write the spans as columns of a compressed ``.npz`` file."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        np.savez_compressed(
            path,
            names=np.array(table),
            name=np.array([code[n] for n in self.names], dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            command=np.array(self.command, dtype=np.int32),
            outer=np.array(self.outer, dtype=bool),
            info=np.array(self.info),
            info2=np.array(self.info2),
            failed=np.array(self.failed, dtype=bool),
        )


def iterate_bytes(trace) -> int:
    """Bytes held by a solver trace's stored primal and dual iterates."""
    total = sum(np.asarray(v).nbytes for v in trace.iterates)
    total += sum(np.asarray(v).nbytes for v in trace.meta.get("dual_iterates", ()))
    return total


def install(tracer: Tracer, ps) -> None:
    """Wrap the layers of the imported package ``ps`` (proxsplit)."""
    linops, funcs, solvers = ps.linops, ps.funcs, ps.solvers
    problems, data, suite = ps.problems, ps.data, ps.suite

    # kernels: every concrete _apply/_adjoint, which the public apply and
    # adjoint, StackOperator, ComposedOperator and power iteration all call
    for cls in vars(linops).values():
        if (inspect.isclass(cls) and issubclass(cls, linops.LinearOperator)
                and cls is not linops.LinearOperator):
            for attr in ("_apply", "_adjoint"):
                if attr in cls.__dict__:
                    tracer._set_attr(cls, attr, tracer.wrap(
                        f"linops.{cls.kind}", cls.__dict__[attr]))

    def norm_after(result, args):
        return (0.0 if args[0].norm_converged else 1.0), 0.0

    tracer._set_attr(linops.LinearOperator, "norm", tracer.wrap(
        "linops.norm", linops.LinearOperator.norm, norm_after))

    cg = linops.conjugate_gradient

    @functools.wraps(cg)
    def traced_cg(apply_fn, rhs, *args, **kwargs):
        products = [0]

        def counted(v):
            products[0] += 1
            return apply_fn(v)

        idx = tracer._open("linops.cg")
        try:
            return cg(counted, rhs, *args, **kwargs)
        except BaseException:
            tracer.failed[idx] = True
            raise
        finally:
            tracer._close(idx)
            # one product forms the initial residual, then one per iteration
            tracer.info[idx] = max(products[0] - 1, 0)

    tracer._rebind(cg, traced_cg)
    tracer._rebind(linops.as_vector, tracer.wrap("linops.as_vector", linops.as_vector))

    for cls in vars(funcs).values():
        if not (inspect.isclass(cls) and cls.__module__ == funcs.__name__):
            continue
        if "prox" in cls.__dict__:
            name = PROX_NAMES.get(cls.__name__, _snake(cls.__name__))
            tracer._set_attr(cls, "prox", tracer.wrap(f"funcs.prox.{name}",
                                                      cls.__dict__["prox"]))
        for attr in ("value", "grad"):
            if inspect.isfunction(cls.__dict__.get(attr)):
                tracer._set_attr(cls, attr, tracer.wrap(f"funcs.{attr}",
                                                        cls.__dict__[attr]))

    def solver_after(trace, args):
        return float(trace.n_iter), float(iterate_bytes(trace))

    for name in SOLVERS:
        fn = getattr(solvers, name)
        tracer._rebind(fn, tracer.wrap("solvers", fn, solver_after))

    tracer._rebind(problems.build_from_config,
                   tracer.wrap("problems.build", problems.build_from_config))
    tracer._set_attr(problems.ProblemInstance, "run", tracer.wrap(
        "problems.run", problems.ProblemInstance.run))
    tracer._set_attr(data, "load_fixture", tracer.wrap("data.load_fixture",
                                                       data.load_fixture))
    for check, fn in list(suite.CHECKS.items()):
        tracer._set_item(suite.CHECKS, check, tracer.wrap(suite_span(check), fn))


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for kernel in KERNELS:
        units[f"linops.{kernel}.calls"] = "count"
        units[f"linops.{kernel}.s"] = "s"
    units.update({
        "linops.norm.calls": "count", "linops.norm.s": "s",
        "linops.norm.power_steps": "count", "linops.norm.unconverged": "count",
        "linops.cg.calls": "count", "linops.cg.s": "s",
        "linops.cg.iters": "count", "linops.cg.iters_per_call": "iters/call",
        "linops.cg.failed": "count",
        "linops.as_vector.calls": "count", "linops.as_vector.s": "s",
    })
    for prox in PROX_NAMES.values():
        units[f"funcs.prox.{prox}.calls"] = "count"
        units[f"funcs.prox.{prox}.s"] = "s"
    units.update({
        "funcs.value.calls": "count", "funcs.value.s": "s",
        "funcs.grad.calls": "count", "funcs.grad.s": "s",
        "solvers.iters": "count", "solvers.s": "s", "solvers.self_s": "s",
        "solvers.self_us_per_iter": "us/iter", "solvers.iterates_mb": "MiB",
        "problems.build.s": "s", "problems.run.s": "s",
        "data.load_fixture.s": "s",
        "cli.self_s": "s", "cli.trace_csv_bytes": "bytes",
    })
    for check in CHECKS:
        units[suite_span(check) + ".s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values from the recorded spans, as {name: number}.

    ``<layer>.calls`` counts every span of the layer; ``<layer>.s`` sums the
    outermost ones, child spans included, so a layer that re-enters itself is
    not counted twice.  Self time is a span's duration minus that of its
    direct child spans.
    """
    n = len(tracer.names)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child_time = [0.0] * n
    child_kernels = [0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child_time[p] += dur[i]
            if tracer.names[i].startswith("linops.") and tracer.names[i] not in (
                    "linops.as_vector", "linops.norm", "linops.cg"):
                child_kernels[p] += 1

    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        calls[name] = calls.get(name, 0) + 1
        if tracer.outer[i]:
            secs[name] = secs.get(name, 0.0) + dur[i]

    def idx_of(name):
        return [i for i in range(n) if tracer.names[i] == name]

    out = {}
    for kernel in KERNELS:
        out[f"linops.{kernel}.calls"] = calls.get(f"linops.{kernel}", 0)
        out[f"linops.{kernel}.s"] = secs.get(f"linops.{kernel}", 0.0)
    norms = idx_of("linops.norm")
    out["linops.norm.calls"] = len(norms)
    out["linops.norm.s"] = secs.get("linops.norm", 0.0)
    # power iteration applies the kernel pair K then K* once per step
    out["linops.norm.power_steps"] = sum(child_kernels[i] for i in norms) // 2
    out["linops.norm.unconverged"] = sum(
        1 for i in norms if child_kernels[i] and tracer.info[i])
    cgs = idx_of("linops.cg")
    cg_iters = int(sum(tracer.info[i] for i in cgs))
    out["linops.cg.calls"] = len(cgs)
    out["linops.cg.s"] = secs.get("linops.cg", 0.0)
    out["linops.cg.iters"] = cg_iters
    out["linops.cg.iters_per_call"] = cg_iters / len(cgs) if cgs else 0.0
    out["linops.cg.failed"] = sum(1 for i in cgs if tracer.failed[i])
    out["linops.as_vector.calls"] = calls.get("linops.as_vector", 0)
    out["linops.as_vector.s"] = secs.get("linops.as_vector", 0.0)
    for prox in PROX_NAMES.values():
        out[f"funcs.prox.{prox}.calls"] = calls.get(f"funcs.prox.{prox}", 0)
        out[f"funcs.prox.{prox}.s"] = secs.get(f"funcs.prox.{prox}", 0.0)
    for attr in ("value", "grad"):
        out[f"funcs.{attr}.calls"] = calls.get(f"funcs.{attr}", 0)
        out[f"funcs.{attr}.s"] = secs.get(f"funcs.{attr}", 0.0)
    solver_spans = [i for i in idx_of("solvers") if tracer.outer[i]]
    iters = int(sum(tracer.info[i] for i in solver_spans))
    self_s = sum(dur[i] - child_time[i] for i in solver_spans)
    out["solvers.iters"] = iters
    out["solvers.s"] = secs.get("solvers", 0.0)
    out["solvers.self_s"] = self_s
    out["solvers.self_us_per_iter"] = self_s / iters * 1e6 if iters else 0.0
    out["solvers.iterates_mb"] = sum(tracer.info2[i] for i in solver_spans) / 2**20
    out["problems.build.s"] = secs.get("problems.build", 0.0)
    out["problems.run.s"] = secs.get("problems.run", 0.0)
    out["data.load_fixture.s"] = secs.get("data.load_fixture", 0.0)
    out["cli.self_s"] = sum(dur[i] - child_time[i] for i in idx_of("cli"))
    for check in CHECKS:
        out[suite_span(check) + ".s"] = secs.get(suite_span(check), 0.0)
    return out
