"""Iterative first-order schemes producing uniform per-iteration traces.

All solvers share the same contract: deterministic given the config seed,
objective and residual recorded every iteration, iterates stored only on
request (``keep_iterates``), and a termination reason in {tol_reached,
iter_cap, diverged}.
"""
from __future__ import annotations

import dataclasses
import itertools
import numpy as np

from .funcs import (AffineGraphIndicator, ConsensusIndicator, ProxFn, Quadratic,
                    SaddleProblem, SeparableProx, SmoothFn, solve_gram)
from .linops import IdentityOperator, LinearOperator, ScaleOperator, StackOperator, as_vector

TOL_REACHED = "tol_reached"
ITER_CAP = "iter_cap"
DIVERGED = "diverged"


class ConfigError(ValueError):
    """Invalid solver configuration (stepsize bounds, missing constants...)."""


class DecreaseViolation(RuntimeError):
    """The nonconvex monitor saw a sufficient-decrease margin below -1e-8,
    which signals a wrong Lipschitz constant or a broken oracle."""


@dataclasses.dataclass
class SolverConfig:
    """Shared solver knobs.

    ``gamma`` is the primal stepsize (defaults to 1/L where a Lipschitz
    constant is available); ``sigma``/``tau`` are the dual/primal stepsizes
    of the primal-dual schemes.  ``relaxation`` is the averaging parameter
    (mu for Douglas-Rachford, lambda for Krasnosel'skii-Mann): a constant, or
    ``"harmonic"`` for 1/(n+2).  ``residual_tol`` of 0 disables the
    relative-residual stop, leaving the iteration cap in charge.
    ``keep_iterates`` stores the primal iterates x_0..x_n in
    ``trace.iterates`` (and the dual ones of the primal-dual schemes in
    ``meta["dual_iterates"]``); by default only the final point is kept.
    Recipe defaults fill only :meth:`unset_fields`.
    """

    gamma: float | None = None
    sigma: float | None = None
    tau: float | None = None
    inertia: str = "none"  # none | fista_t | fista_beta | vfista
    beta: float = 4.0
    relaxation: float | str | None = None
    rho: float = 1.0
    bt_shrink: float = 0.5
    max_iter: int = 1000
    residual_tol: float = 0.0
    objective_tol: float = 0.0
    seed: int = 0
    keep_iterates: bool = False
    divergence_cap: float = 1e12

    def __new__(cls, *args, **kwargs):
        # remember the fields the caller passed, whatever their values
        self = super().__new__(cls)
        self._passed = {f.name for f in dataclasses.fields(cls)[:len(args)]}.union(kwargs)
        return self

    def unset_fields(self) -> set:
        """Fields not passed to the constructor and still at their default."""
        return {f.name for f in dataclasses.fields(self)
                if f.name not in self._passed and getattr(self, f.name) == f.default}

    def __post_init__(self):
        if self.max_iter < 0:
            raise ConfigError("max_iter must be nonnegative")
        if self.inertia not in ("none", "fista_t", "fista_beta", "vfista"):
            raise ConfigError(f"unknown inertia mode {self.inertia!r}")
        if self.inertia == "fista_beta" and not self.beta > 3:
            raise ConfigError("fista_beta requires beta > 3")
        if not (0 < self.rho <= 1):
            raise ConfigError("rho must lie in (0, 1]")
        if not (0 < self.bt_shrink < 1):
            raise ConfigError("backtracking shrink factor must lie in (0, 1)")


@dataclasses.dataclass
class SolverTrace:
    """Per-iteration record stream of one solver run."""

    x0: np.ndarray
    objective0: float
    steps: np.ndarray
    objective: np.ndarray
    residual: np.ndarray
    extras: dict
    iterates: list
    termination: str
    x: np.ndarray
    meta: dict = dataclasses.field(default_factory=dict)

    @property
    def n_iter(self) -> int:
        return int(self.steps[-1]) if self.steps.size else 0

    def objective_path(self) -> np.ndarray:
        """Objective including the starting point, indexed 0..n."""
        return np.concatenate([[self.objective0], self.objective])


def _relaxation_sequence(spec, default: float, lo: float, hi: float, name: str):
    if spec is None:
        spec = default
    if isinstance(spec, str):
        if spec != "harmonic":
            raise ConfigError(f"unknown relaxation spec {spec!r}")
        return lambda n: hi / (n + 2.0)
    if callable(spec):
        return spec
    val = float(spec)
    if not (lo <= val <= hi):
        raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {val}")
    return lambda n: val


class _Recorder:
    def __init__(self, x0, objective0, cfg: SolverConfig):
        self.cfg = cfg
        self.x0 = np.array(x0, dtype=float)
        self.objective0 = float(objective0)
        self.obj = []
        self.res = []
        self.extras: dict[str, list] = {}
        # a kept history starts at x0, so an empty list means none is kept
        self.iterates = [self.x0.copy()] if cfg.keep_iterates else []
        self.termination = ITER_CAP

    def record(self, n, x_new, x_prev, objective, extras=None) -> bool:
        """Append one iteration; returns True when the run should stop.

        ``objective=None`` marks solvers that do not track an objective
        (e.g. fixed-point iterations); the divergence guard then only sees
        the iterates.  A +inf objective is a legal infeasible iterate, not
        divergence.
        """
        residual = float(np.linalg.norm(np.asarray(x_new) - np.asarray(x_prev)))
        tracked = objective is not None
        objective = float(objective) if tracked else float("nan")
        self.obj.append(objective)
        self.res.append(residual)
        if extras:
            for key, val in extras.items():
                self.extras.setdefault(key, []).append(float(val))
        if self.iterates:
            self.iterates.append(np.array(x_new, dtype=float))
        if tracked:
            if not np.isfinite(objective) and not np.isposinf(objective):
                self.termination = DIVERGED
                return True
            if np.isfinite(objective) and objective > self.cfg.divergence_cap:
                self.termination = DIVERGED
                return True
        if not np.all(np.isfinite(x_new)):
            self.termination = DIVERGED
            return True
        rtol = self.cfg.residual_tol
        if rtol > 0 and residual <= rtol * (1.0 + float(np.linalg.norm(x_prev))):
            self.termination = TOL_REACHED
            return True
        otol = self.cfg.objective_tol
        if otol > 0 and tracked and len(self.obj) >= 2 and abs(
            self.obj[-1] - self.obj[-2]
        ) <= otol * (1.0 + abs(self.obj[-2])):
            self.termination = TOL_REACHED
            return True
        return False

    def finish(self, x_final, meta=None) -> SolverTrace:
        k = len(self.obj)
        return SolverTrace(
            x0=self.x0,
            objective0=self.objective0,
            steps=np.arange(1, k + 1),
            objective=np.array(self.obj),
            residual=np.array(self.res),
            extras={k_: np.array(v) for k_, v in self.extras.items()},
            iterates=self.iterates,
            termination=self.termination,
            x=np.array(x_final, dtype=float),
            meta=meta or {},
        )


def _default_gamma(cfg: SolverConfig, lipschitz: float) -> float:
    if cfg.gamma is not None:
        return float(cfg.gamma)
    if lipschitz <= 0:
        raise ConfigError("cannot derive a stepsize: Lipschitz constant is zero")
    return 1.0 / lipschitz


def gradient_descent(f: SmoothFn, x0, cfg: SolverConfig | None = None,
                     mode: str = "fixed") -> SolverTrace:
    """Explicit gradient descent: fixed step, backtracking, or exact line
    search on a quadratic.

    Fixed mode requires gamma < 2/L.  Backtracking restarts from
    ``cfg.gamma`` at every iterate and shrinks by ``cfg.bt_shrink`` until
    f(x) - f(x - g*grad) > (g/2)*||grad||^2.  The quadratic line search uses
    gamma_n = ||g||^2 / (scale * ||A g||^2).
    """
    cfg = cfg or SolverConfig()
    x = as_vector(x0)
    if mode not in ("fixed", "backtracking", "optimal_quadratic"):
        raise ConfigError(f"unknown gradient-descent mode {mode!r}")
    if mode == "fixed":
        gamma = _default_gamma(cfg, f.lipschitz)
        if f.lipschitz > 0 and gamma >= 2.0 / f.lipschitz:
            raise ConfigError(
                f"fixed stepsize {gamma} violates gamma < 2/L = {2.0 / f.lipschitz}"
            )
    elif mode == "backtracking":
        gamma0 = cfg.gamma if cfg.gamma is not None else 1.0
        if gamma0 <= 0:
            raise ConfigError("backtracking needs a positive initial stepsize")
    else:
        if not isinstance(f, Quadratic):
            raise ConfigError("optimal_quadratic mode needs a quadratic objective")

    rec = _Recorder(x, f.value(x), cfg)
    for n in range(1, cfg.max_iter + 1):
        g = f.grad(x)
        if mode == "fixed":
            step = gamma
            x_new = x - step * g
        elif mode == "backtracking":
            step = gamma0
            fx = f.value(x)
            gg = float(g @ g)
            if gg == 0.0:
                rec.termination = TOL_REACHED
                break
            while f.value(x - step * g) >= fx - 0.5 * step * gg:
                step *= cfg.bt_shrink
                if step < 1e-20:
                    raise ConfigError("backtracking shrank the stepsize to zero")
            x_new = x - step * g
        else:
            Ag = f.A.apply(g)
            denom = f.scale * float(Ag @ Ag)
            if denom == 0.0:
                rec.termination = TOL_REACHED
                break
            step = float(g @ g) / denom
            x_new = x - step * g
        stop = rec.record(n, x_new, x, f.value(x_new), {"step": step})
        x = x_new
        if stop:
            break
    return rec.finish(x)


def projected_gradient(f: SmoothFn, projection: ProxFn, x0,
                       cfg: SolverConfig | None = None) -> SolverTrace:
    """Gradient step then projection: forward-backward without inertia; gamma < 2/L."""
    cfg = dataclasses.replace(cfg or SolverConfig(), inertia="none")
    return forward_backward(f, projection, x0, cfg)


def proximal_point(g: ProxFn, x0, cfg: SolverConfig | None = None) -> SolverTrace:
    """Iterate the prox of gamma*g; any gamma > 0 works.

    Records the per-step decrease margin
    g(x_n) - g(x_{n+1}) - ||x_n - x_{n+1}||^2 / (2 gamma), which is
    nonnegative by the prox definition.
    """
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else 1.0
    if gamma <= 0:
        raise ConfigError("proximal point needs gamma > 0")
    x = as_vector(x0)
    rec = _Recorder(x, g.value(x), cfg)
    for n in range(1, cfg.max_iter + 1):
        x_new = g.prox(x, gamma)
        val_old, val_new = g.value(x), g.value(x_new)
        margin = val_old - val_new - float(np.sum((x - x_new) ** 2)) / (2 * gamma)
        stop = rec.record(n, x_new, x, val_new, {"prox_decrease_margin": margin})
        x = x_new
        if stop:
            break
    return rec.finish(x)


def _fista_t_coefs():
    t = 1.0
    while True:
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        yield (t - 1.0) / t_next
        t = t_next


def _prox_gradient_loop(f: SmoothFn, g: ProxFn, x0, cfg: SolverConfig,
                        gamma: float, coefs=None, monitor: bool = False,
                        objective=None) -> SolverTrace:
    # x+ = prox_{gamma g}(y - gamma grad f(y)) with y = x + coef (x - x_prev),
    # coef drawn from ``coefs``; without coefs y = x and f + g is tracked for
    # the decrease monitor, whatever ``objective`` reports
    x = as_vector(x0)
    x_prev = x
    inner = lambda z: f.value(z) + g.value(z)
    report = objective if objective is not None else inner
    rec = _Recorder(x, report(x), cfg)
    j_prev = inner(x) if coefs is None else None
    extras = None
    for n in range(1, cfg.max_iter + 1):
        if coefs is None:
            y = x
        else:
            coef = next(coefs)
            y = x + coef * (x - x_prev)
            extras = {"inertia_coef": coef}
        x_new = g.prox(y - gamma * f.grad(y), gamma)
        j_new = inner(x_new) if coefs is None else None
        if monitor:
            sq = float(np.sum((x_new - x) ** 2))
            a = 1.0 / (2.0 * gamma) - f.lipschitz / 2.0
            margin = j_prev - j_new - a * sq
            if margin < -1e-8:
                raise DecreaseViolation(
                    f"sufficient-decrease violated at iteration {n}: margin {margin:.3e}"
                )
            extras = {
                "h1_margin": margin,
                "h2_witness_norm": np.sqrt(sq) / gamma,
            }
        value = j_new if j_new is not None and objective is None else report(x_new)
        stop = rec.record(n, x_new, x, value, extras)
        x_prev, x, j_prev = x, x_new, j_new
        if stop:
            break
    return rec.finish(x, meta={"gamma": gamma})


def forward_backward(f: SmoothFn, g: ProxFn, x0,
                     cfg: SolverConfig | None = None,
                     objective=None) -> SolverTrace:
    """Proximal gradient descent with optional inertial acceleration.

    Inertia modes: ``none`` (gamma < 2/L), ``fista_t`` with the classical
    t-sequence and ``fista_beta`` with coefficient n/(n+beta) (both need
    gamma <= 1/L), and ``vfista`` for strongly convex problems (gamma = 1/L,
    coefficient (sqrt(L)-sqrt(a))/(sqrt(L)+sqrt(a))).  ``objective``
    overrides the reported trace column (dual formulations report the
    recovered primal value); the minimized function stays f + g.
    """
    cfg = cfg or SolverConfig()
    L = f.lipschitz
    gamma = _default_gamma(cfg, L)
    if cfg.inertia == "none":
        if L > 0 and gamma >= 2.0 / L:
            raise ConfigError(f"stepsize {gamma} violates gamma < 2/L")
        return _prox_gradient_loop(f, g, x0, cfg, gamma, objective=objective)

    if L > 0 and gamma > 1.0 / L * (1 + 1e-12):
        raise ConfigError(f"inertial modes require gamma <= 1/L, got {gamma}")
    if cfg.inertia == "fista_t":
        coefs = _fista_t_coefs()
    elif cfg.inertia == "fista_beta":
        coefs = ((n - 1.0) / (n - 1.0 + cfg.beta) for n in itertools.count(1))
    else:
        # vfista; moduli add across the sum f + g
        alpha = f.strong_convexity + getattr(g, "strong_convexity", 0.0)
        if alpha <= 0:
            raise ConfigError("vfista needs a known strong-convexity modulus")
        if abs(gamma - 1.0 / L) > 1e-12 / L:
            raise ConfigError("vfista runs at gamma = 1/L")
        coefs = itertools.repeat((np.sqrt(L) - np.sqrt(alpha)) / (np.sqrt(L) + np.sqrt(alpha)))
    return _prox_gradient_loop(f, g, x0, cfg, gamma, coefs, objective=objective)


def nonconvex_forward_backward(f: SmoothFn, g: ProxFn, x0,
                               cfg: SolverConfig | None = None,
                               weak_convexity: float | None = None) -> SolverTrace:
    """Proximal gradient for nonconvex f and/or g with decrease monitors.

    Stepsize bound gamma < 1/L, relaxed to gamma < 2/(L + a) when g is
    declared a-weakly convex.  The trace carries the sufficient-decrease
    margin (H1) and the subgradient witness norm ||x_{n+1}-x_n||/gamma (H2);
    a negative H1 margin beyond -1e-8 raises :class:`DecreaseViolation`,
    since it signals a broken oracle rather than a modelling choice.
    """
    cfg = cfg or SolverConfig()
    L = f.lipschitz
    gamma = _default_gamma(cfg, 2.0 * L)  # default gamma = 1/(2L), safely inside
    if weak_convexity is not None:
        limit = 2.0 / (L + weak_convexity)
    else:
        limit = 1.0 / L if L > 0 else np.inf
    if gamma >= limit:
        raise ConfigError(f"stepsize {gamma} violates gamma < {limit}")
    return _prox_gradient_loop(f, g, x0, cfg, gamma, monitor=True)


def krasnoselskii_mann(T, x0, cfg: SolverConfig | None = None) -> SolverTrace:
    """Averaged fixed-point iteration x + lambda_n (T x - x).

    ``T`` is any nonexpansive callable; the trace records ||Tx_n - x_n||,
    which is nonincreasing for nonexpansive maps.
    """
    cfg = cfg or SolverConfig()
    lam = _relaxation_sequence(cfg.relaxation, 0.5, 0.0, 1.0, "lambda")
    x = as_vector(x0)
    rec = _Recorder(x, float("nan"), cfg)
    for n in range(1, cfg.max_iter + 1):
        tx = np.asarray(T(x), dtype=float)
        fp_res = float(np.linalg.norm(tx - x))
        x_new = x + lam(n - 1) * (tx - x)
        stop = rec.record(n, x_new, x, None,
                          {"fixed_point_residual": fp_res})
        x = x_new
        if stop:
            break
    return rec.finish(x)


def douglas_rachford(f: ProxFn, g: ProxFn, x0,
                     cfg: SolverConfig | None = None) -> SolverTrace:
    """Douglas-Rachford splitting for f + g, both prox-capable.

        y_n = prox_{gamma g}(x_n)
        z_n = prox_{gamma f}(2 y_n - x_n)
        x_{n+1} = x_n + mu_n (z_n - y_n)

    The reported solution is the shadow sequence y_n.
    """
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else 1.0
    if gamma <= 0:
        raise ConfigError("douglas_rachford needs gamma > 0")
    mu = _relaxation_sequence(cfg.relaxation, 1.0, 0.0, 2.0, "mu")
    x = as_vector(x0)
    # y is always a g-prox point, where a feasible prox makes g vanish
    g_value = (lambda z: 0.0) if g.feasible_prox else g.value
    objective = lambda z: f.value(z) + g_value(z)
    y = g.prox(x, gamma)
    rec = _Recorder(x, objective(y), cfg)
    for n in range(1, cfg.max_iter + 1):
        z = f.prox(2.0 * y - x, gamma)
        x_new = x + mu(n - 1) * (z - y)
        stop = rec.record(n, x_new, x, objective(y), {"split_gap": float(np.linalg.norm(z - y))})
        x = x_new
        # the shadow point of x_{n+1}: next iteration's y, or the result
        y = g.prox(x, gamma)
        if stop:
            break
    return rec.finish(y, meta={"governing": x})


def ppxa(parts, x0, cfg: SolverConfig | None = None) -> SolverTrace:
    """Parallel proximal algorithm over M >= 2 prox-capable terms.

    ``parts`` entries are either a prox function of the base variable or a
    pair ``(fn, L)`` composing it with a linear operator (None: identity).
    PPXA is Douglas-Rachford on the product space (Combettes & Pesquet,
    2008): the separable prox of the terms against the projection onto
    {(p, L_2 p, ..., L_M p)}, a block mean without operators and a graph
    projection otherwise.  ``trace.x`` is the base block of the shadow
    point; the trace has no extras column.
    """
    norm_parts = [entry if isinstance(entry, tuple) else (entry, None) for entry in parts]
    if len(norm_parts) < 2:
        raise ConfigError("ppxa needs at least two terms")
    first_op = norm_parts[0][1]
    if first_op is not None and not isinstance(first_op, IdentityOperator):
        raise ConfigError("the first ppxa term must act on the base variable")

    x = as_vector(x0)
    d = x.size
    ops = [IdentityOperator(d) if op is None else op for _, op in norm_parts[1:]]
    if all(op is None for _, op in norm_parts[1:]):
        link = ConsensusIndicator(len(norm_parts), d)
    else:
        link = AffineGraphIndicator(ops[0] if len(ops) == 1 else StackOperator(ops))
    X0 = np.concatenate([x] + [op.apply(x) for op in ops])
    offsets = np.cumsum([0, d] + [op.out_dim for op in ops])
    terms = SeparableProx([(fn, np.arange(a, b)) for (fn, _), a, b
                           in zip(norm_parts, offsets[:-1], offsets[1:])], offsets[-1])
    trace = douglas_rachford(terms, link, X0, cfg)
    trace.extras.pop("split_gap", None)
    trace.x = trace.x[:d].copy()
    return trace


def _augmented_argmin(fn, op: LinearOperator, c, gamma, subsolver):
    """argmin fn(x) + (gamma/2) ||op x - c||^2 for the supported structures."""
    if subsolver is not None:
        return subsolver(c, gamma)
    if isinstance(op, IdentityOperator):
        return fn.prox(c, 1.0 / gamma)
    if isinstance(op, ScaleOperator):
        s = op.factor
        if s == 0.0:
            raise ConfigError("degenerate zero operator in the coupling constraint")
        return fn.prox(c / s, 1.0 / (gamma * s * s))
    if isinstance(fn, Quadratic):
        rhs = fn.scale * fn.A.adjoint(fn.b) + gamma * op.adjoint(np.asarray(c, dtype=float))
        return solve_gram(rhs, [(fn.scale, fn.A), (gamma, op)], 0.0)
    raise ConfigError(
        "the alternating-direction subproblem needs an identity/scale coupling, "
        "a quadratic term, or an explicit subsolver"
    )


def admm(f: ProxFn, g: ProxFn, A: LinearOperator, B: LinearOperator, b,
         y0=None, z0=None, cfg: SolverConfig | None = None,
         x_solver=None, y_solver=None) -> SolverTrace:
    """Alternating direction method of multipliers for

        min f(x) + g(y)  subject to  A x + B y = b.

    Each partial minimization is solved in closed form when its coupling
    operator is an identity/scale or its term is quadratic; otherwise a user
    subsolver ``(c, gamma) -> argmin fn + (gamma/2)||op . - c||^2`` must be
    supplied.  The trace records the primal residual ||Ax + By - b|| and the
    objective f(x) + g(y).
    """
    cfg = cfg or SolverConfig()
    gamma = cfg.gamma if cfg.gamma is not None else 1.0
    if gamma <= 0:
        raise ConfigError("admm needs gamma > 0")
    if A.out_dim != B.out_dim:
        raise ConfigError("A and B must map into the same constraint space")
    b = as_vector(b, A.out_dim)
    y = np.zeros(B.in_dim) if y0 is None else as_vector(y0, B.in_dim)
    z = np.zeros(A.out_dim) if z0 is None else as_vector(z0, A.out_dim)

    x = np.zeros(A.in_dim)
    rec = _Recorder(np.concatenate([x, y]), f.value(x) + g.value(y), cfg)
    for n in range(1, cfg.max_iter + 1):
        c_x = b - B.apply(y) - z / gamma
        x_new = _augmented_argmin(f, A, c_x, gamma, x_solver)
        c_y = b - A.apply(x_new) - z / gamma
        y_new = _augmented_argmin(g, B, c_y, gamma, y_solver)
        z = z + gamma * (A.apply(x_new) + B.apply(y_new) - b)
        primal_res = float(np.linalg.norm(A.apply(x_new) + B.apply(y_new) - b))
        state_new = np.concatenate([x_new, y_new])
        state_old = np.concatenate([x, y])
        stop = rec.record(n, state_new, state_old,
                          f.value(x_new) + g.value(y_new),
                          {"primal_residual": primal_res})
        x, y = x_new, y_new
        if stop:
            break
    return rec.finish(x, meta={"y": y, "z": z})


def _validate_pd_steps(cfg: SolverConfig, K: LinearOperator):
    L = K.norm()
    if cfg.sigma is None or cfg.tau is None:
        if L == 0:
            sigma = cfg.sigma if cfg.sigma is not None else 1.0
            tau = cfg.tau if cfg.tau is not None else 1.0
        else:
            sigma = cfg.sigma if cfg.sigma is not None else 0.99 / L
            tau = cfg.tau if cfg.tau is not None else 0.99 / L
    else:
        sigma, tau = cfg.sigma, cfg.tau
    if sigma <= 0 or tau <= 0:
        raise ConfigError("primal-dual stepsizes must be positive")
    if tau * sigma * L * L >= 1.0:
        raise ConfigError(
            f"stepsize product tau*sigma*||K||^2 = {tau * sigma * L * L:.6f} >= 1 "
            f"(operator norm estimate {L:.6f})"
        )
    return sigma, tau, L


def _primal_dual_loop(prob: SaddleProblem, x0, y0, cfg: SolverConfig | None,
                      extrapolate: bool, ergodic_at=(), gap_boxes=None) -> SolverTrace:
    # shared loop of the theta = 1 (xbar = 2x+ - x) and theta = 0 (xbar = x+)
    # members of the primal-dual family
    cfg = cfg or SolverConfig()
    sigma, tau, op_norm = _validate_pd_steps(cfg, prob.K)
    x = as_vector(x0, prob.K.in_dim)
    y = as_vector(y0, prob.K.out_dim)
    xbar = x
    obj = prob.primal_objective if prob._primal_objective is not None else lambda z: None
    obj0 = obj(x)
    rec = _Recorder(x, obj0 if obj0 is not None else float("nan"), cfg)
    dual_iterates = [y.copy()] if cfg.keep_iterates else []
    sum_x = np.zeros_like(x)
    sum_y = np.zeros_like(y)
    ergodic = {}
    if gap_boxes is not None:
        from .funcs import partial_primal_dual_gap
    for n in range(1, cfg.max_iter + 1):
        y_new = prob.f_conj.prox(y + sigma * prob.K.apply(xbar), sigma)
        x_new = prob.g.prox(x - tau * prob.K.adjoint(y_new), tau)
        xbar = 2.0 * x_new - x if extrapolate else x_new
        sum_x += x_new
        sum_y += y_new
        if n in ergodic_at:
            ergodic[n] = (sum_x / n, sum_y / n)
        extras = {"dual_residual": float(np.linalg.norm(y_new - y))}
        if gap_boxes is not None:
            extras["pd_gap"] = partial_primal_dual_gap(
                prob, sum_x / n, sum_y / n, gap_boxes[0], gap_boxes[1])
        stop = rec.record(n, x_new, x, obj(x_new), extras)
        if dual_iterates:
            dual_iterates.append(y_new.copy())
        x, y = x_new, y_new
        if stop:
            break
    n_done = len(rec.obj)
    if n_done > 0:
        ergodic.setdefault(n_done, (sum_x / n_done, sum_y / n_done))
    return rec.finish(x, meta={
        "y": y,
        "sigma": sigma,
        "tau": tau,
        "operator_norm": op_norm,
        "dual_iterates": dual_iterates,
        "ergodic": ergodic,
    })


def chambolle_pock(prob: SaddleProblem, x0, y0, cfg: SolverConfig | None = None,
                   ergodic_at=(), gap_boxes=None) -> SolverTrace:
    """Primal-dual iteration with over-relaxed primal extrapolation.

        y_{n+1} = prox_{sigma f*}(y_n + sigma K xbar_n)
        x_{n+1} = prox_{tau g}(x_n - tau K* y_{n+1})
        xbar_{n+1} = 2 x_{n+1} - x_n

    Requires tau*sigma*||K||^2 < 1.  Running ergodic averages are snapshotted
    at the iteration counts in ``ergodic_at`` (and at the final iteration);
    with ``keep_iterates`` the trace stores both primal and dual iterates.
    When ``gap_boxes = (box1, box2)`` is supplied, the partial primal-dual
    gap of the running ergodic pair is recorded each iteration.
    """
    return _primal_dual_loop(prob, x0, y0, cfg, True, ergodic_at, gap_boxes)


def arrow_hurwicz(prob: SaddleProblem, x0, y0,
                  cfg: SolverConfig | None = None) -> SolverTrace:
    """Plain primal-dual alternation without extrapolation (xbar = x)."""
    return _primal_dual_loop(prob, x0, y0, cfg, False)


def condat(f: SmoothFn, g: ProxFn, terms, x0, u0s=None,
           cfg: SolverConfig | None = None, objective=None) -> SolverTrace:
    """Primal-dual splitting with an explicit gradient step and M dual blocks.

    Solves min f(x) + g(x) + sum_i h_i(L_i x); ``terms`` is a list of
    ``(h_conj, L_i)`` pairs where ``h_conj`` is the conjugate-side prox
    oracle of h_i (build it with ``fn.conjugate()`` when only the primal is
    known).  Stepsizes must satisfy tau*(L/2 + sigma*||sum L_i* L_i||) < 1;
    the dual updates within one iteration are independent.
    """
    cfg = cfg or SolverConfig()
    terms = list(terms)
    x = as_vector(x0)
    L = f.lipschitz
    # without terms the coupling is the zero operator
    stack = StackOperator([op for _, op in terms]) if terms else ScaleOperator(0.0, x.size)
    gram_norm = stack.norm() ** 2
    sigma = cfg.sigma
    tau = cfg.tau if cfg.tau is not None else cfg.gamma
    if sigma is None or tau is None:
        if gram_norm > 0:
            default_sigma = (-L / 2.0 + np.sqrt(L * L / 4.0 + 4.0 * gram_norm)) / (
                2.0 * gram_norm
            ) * 0.95
        else:
            default_sigma = 1.0
        sigma = sigma if sigma is not None else default_sigma
        if tau is None:
            tau = 0.95 / (L / 2.0 + sigma * gram_norm) if (L > 0 or gram_norm > 0) else 1.0
    if sigma <= 0 or tau <= 0:
        raise ConfigError("condat stepsizes must be positive")
    if tau * (L / 2.0 + sigma * gram_norm) >= 1.0:
        raise ConfigError(
            f"stepsize check tau*(L/2 + sigma*||sum Li* Li||) = "
            f"{tau * (L / 2.0 + sigma * gram_norm):.6f} >= 1"
        )
    rho = cfg.rho
    if u0s is None:
        us = [np.zeros(op.out_dim) for _, op in terms]
    else:
        us = [as_vector(u, op.out_dim) for u, (_, op) in zip(u0s, terms)]

    if objective is None:
        objective = lambda z: f.value(z) + g.value(z)

    rec = _Recorder(x, objective(x), cfg)
    for n in range(1, cfg.max_iter + 1):
        drift = np.zeros_like(x)
        for (_, op), u in zip(terms, us):
            drift += op.adjoint(u)
        x_tilde = g.prox(x - tau * f.grad(x) - tau * drift, tau)
        x_new = rho * x_tilde + (1.0 - rho) * x
        us_new = []
        for (h_conj, op), u in zip(terms, us):
            u_tilde = h_conj.prox(u + sigma * op.apply(2.0 * x_tilde - x), sigma)
            us_new.append(rho * u_tilde + (1.0 - rho) * u)
        stop = rec.record(n, x_new, x, objective(x_new))
        x = x_new
        us = us_new
        if stop:
            break
    return rec.finish(x, meta={"duals": us, "sigma": sigma, "tau": tau,
                               "operator_norm": stack.norm()})
