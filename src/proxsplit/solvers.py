"""Iterative first-order schemes producing uniform per-iteration traces.

All solvers share the same contract: deterministic given their inputs and
config, objective and residual recorded every iteration, iterates stored
only on request (``keep_iterates``), and a termination reason in
{tol_reached, iter_cap, diverged}.  Start points are validated once, at
entry, against the length every oracle and operator pins; the loops then
call only the unvalidated ``_``-prefixed oracle and operator methods, and a
non-finite iterate ends the run as ``diverged``.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import weakref

import numpy as np

from .funcs import (AffineGraphIndicator, ConsensusIndicator, ProxFn, Quadratic,
                    SaddleProblem, SeparableProx, SmoothFn, ZeroFn, gram_solver)
from .linops import (DimensionError, IdentityOperator, LinearOperator, ScaleOperator,
                     StackOperator, _ratio, as_vector)

TOL_REACHED = "tol_reached"
ITER_CAP = "iter_cap"
DIVERGED = "diverged"
# a finite objective above this ends a run as diverged
DIVERGENCE_CAP = 1e12


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
    ``"harmonic"`` for 1/(n+2).  ``keep_iterates`` stores the primal
    iterates x_0..x_n in ``trace.iterates``; :func:`chambolle_pock` and
    :func:`arrow_hurwicz` also store their dual ones in
    ``meta["dual_iterates"]``, and :func:`condat`, :func:`admm` and
    :func:`douglas_rachford` store none.  By default only the final point
    is kept.
    ``stop_at_fixed_point`` ends a run with ``tol_reached`` once everything
    its next iteration reads is bitwise unchanged, since every later
    iteration would repeat it: x for gradient descent, the proximal point
    and plain prox-gradient loops; x and the previous iterate for inertial
    prox-gradient; x, y and xbar for the primal-dual loop; x and every dual
    block for :func:`condat`; y and z for ADMM.  Douglas-Rachford also needs
    z = y, and Krasnosel'skii-Mann Tx = x, because an n-dependent relaxation
    multiplies that difference.  The trace is then the full run's prefix.
    ``gap_tol`` of 0 disables the duality-gap stop.  A positive value needs
    a run given a ``gap`` callable (the closed-form gap of a recipe); the
    trace then gets a ``gap`` column, and the run ends with ``tol_reached``
    once gap <= gap_tol * (1 + |objective|), |objective| read as 0 in a run
    that tracks none.  Without a ``gap`` it is a :class:`ConfigError`.
    A field left at None is unset: a recipe fills it with the recipe's
    default (JSON ``null`` in a ``solver`` block asks for that default), and
    a solver reads it as the solver's own, ``"none"`` for ``inertia`` and
    1000 for ``max_iter`` (see :meth:`resolved`).
    """

    gamma: float | None = None
    sigma: float | None = None
    tau: float | None = None
    inertia: str | None = None  # none | fista_t | fista_beta | vfista
    relaxation: float | str | None = None
    max_iter: int | None = None
    gap_tol: float = 0.0
    keep_iterates: bool = False
    stop_at_fixed_point: bool = False

    def __post_init__(self):
        if self.max_iter is not None and self.max_iter < 0:
            raise ConfigError("max_iter must be nonnegative")
        if self.inertia not in (None, "none", "fista_t", "fista_beta", "vfista"):
            raise ConfigError(f"unknown inertia mode {self.inertia!r}")
        if not self.gap_tol >= 0:
            raise ConfigError("gap_tol must be nonnegative")

    def resolved(self) -> "SolverConfig":
        """This config with an unset ``inertia`` or ``max_iter`` at the
        solvers' default."""
        return dataclasses.replace(
            self, inertia="none" if self.inertia is None else self.inertia,
            max_iter=1000 if self.max_iter is None else self.max_iter)


@dataclasses.dataclass
class SolverTrace:
    """Per-iteration record stream of one solver run.

    ``x`` is the returned point and never shares memory with the caller's
    start.  The start itself is not kept: ``objective0`` is its objective,
    and a run with ``keep_iterates`` holds a copy of it in ``iterates[0]``.
    """

    objective0: float
    objective: np.ndarray
    residual: np.ndarray
    extras: dict
    iterates: list
    termination: str
    x: np.ndarray
    meta: dict = dataclasses.field(default_factory=dict)

    @property
    def n_iter(self) -> int:
        return self.objective.size

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


def _start(x0, *dims) -> np.ndarray:
    """``x0`` validated as a vector whose length matches every dimension in
    ``dims`` that is not None: the ``dim`` of an oracle, a side of an operator."""
    x = as_vector(x0)
    for dim in dims:
        if dim is not None and dim != x.size:
            raise DimensionError(f"expected length {dim}, got {x.size}")
    return x


def _norm(v) -> float:
    # np.linalg.norm's float for a 1-d array; vdot, unlike v @ v, never warns on overflow
    return math.sqrt(float(np.vdot(v, v)))


def _same_bytes(a, b) -> bool:
    # bytes, not values: +0.0 == -0.0, and the sign of a zero can reach the output
    return a.tobytes() == b.tobytes()


class _Recorder:
    """The rows of one run, and the one place that decides its stop.

    It keeps only weak references to the run's validated starts (``x0`` and
    ``starts``: the dual starts, ADMM's y), so a loop that drops a start
    frees it; a kept history copies ``x0`` at once.  :meth:`owned` copies a
    returned array only when it is one of those starts: after no iteration,
    or when a prox returned its argument (``ZeroFn``).

    ``gap`` maps the state a loop passes to the duality gap of the point it
    would return.  When each row's objective is P(x) of that point bit for
    bit (``row_is_gap_point``), a gap's ``_from_objective(value, *state)``
    gets the row's value instead of evaluating P again.
    """

    def __init__(self, x0, objective0, cfg: SolverConfig, gap=None,
                 row_is_gap_point: bool = False, starts=()):
        if cfg.gap_tol > 0 and gap is None:
            raise ConfigError("gap_tol needs a closed-form duality gap, "
                              "and this run has none")
        self.cfg = cfg
        self.gap = gap
        self.gap_from_row = getattr(gap, "_from_objective", None) if row_is_gap_point else None
        self.starts = [weakref.ref(v) for v in (x0, *starts)]
        self.objective0 = float(objective0)
        self.obj = []
        self.res = []
        self.extras: dict[str, list] = {}
        # a kept history starts at x0, so an empty list means none is kept
        self.iterates = [x0.copy()] if cfg.keep_iterates else []
        self.termination = ITER_CAP

    def record(self, x_new, objective, residual, extras=None, gap_args=(),
               settled=False) -> bool:
        """Append one iteration; returns True when the run should stop.

        ``residual`` is the step ||x_new - x|| from the loop's previous
        point x.  ``objective=None`` marks solvers that do not track an
        objective (e.g. fixed-point iterations); the divergence guard then
        only sees the iterates.  A +inf objective is a legal infeasible
        iterate, not divergence.  With ``cfg.gap_tol > 0`` the gap of
        ``gap_args`` is evaluated and recorded; it is never evaluated
        otherwise.  ``settled`` is the loop's fixed-point test, True only
        under ``cfg.stop_at_fixed_point``.  The stops are tried in one
        order: divergence, then the gap, then ``settled``.

        x is always finite: it is the start point, validated at the solver's
        entry, or the ``x_new`` of the previous record, which passed this
        check.  So a NaN or infinite entry of ``x_new`` makes the residual
        NaN or +inf, and ``x_new`` is scanned for one only when the residual
        is not finite.
        """
        tracked = objective is not None
        objective = float(objective) if tracked else float("nan")
        self.obj.append(objective)
        self.res.append(residual)
        if extras:
            for key, val in extras.items():
                self.extras.setdefault(key, []).append(float(val))
        gap = None
        if self.cfg.gap_tol > 0:
            gap = float(self.gap(*gap_args) if self.gap_from_row is None
                        else self.gap_from_row(objective, *gap_args))
            self.extras.setdefault("gap", []).append(gap)
        if self.iterates:
            self.iterates.append(np.array(x_new, dtype=float))
        # a NaN or -inf objective diverges, and so does a finite one past the
        # cap or a non-finite entry of x_new
        if (tracked and (objective > DIVERGENCE_CAP if math.isfinite(objective)
                         else not (math.isinf(objective) and objective > 0))
                or not math.isfinite(residual) and not np.isfinite(x_new).all()):
            self.termination = DIVERGED
        # a run that tracks no objective stops at an absolute gap
        elif settled or gap is not None and gap <= self.cfg.gap_tol * (
                1.0 + (abs(objective) if tracked else 0.0)):
            self.termination = TOL_REACHED
        else:
            return False
        return True

    def owned(self, v):
        """``v``, copied when it is one of the run's starts, so a run that
        returns a start does not hand its caller the caller's own array."""
        return v.copy() if any(v is start() for start in self.starts) else v

    def finish(self, x_final, meta=None, gap_args=()) -> SolverTrace:
        """The trace; ``meta["gap"]`` holds the gap of ``gap_args``, the final
        state, whenever the run has a gap."""
        meta = meta or {}
        if self.gap is not None:
            meta["gap"] = float(self.gap(*gap_args))
        return SolverTrace(
            objective0=self.objective0,
            objective=np.array(self.obj),
            residual=np.array(self.res),
            extras={k: np.array(v) for k, v in self.extras.items()},
            iterates=self.iterates,
            termination=self.termination,
            x=self.owned(np.asarray(x_final, dtype=float)),
            meta=meta,
        )


def _default_gamma(cfg: SolverConfig, lipschitz: float) -> float:
    if cfg.gamma is not None:
        return float(cfg.gamma)
    if lipschitz <= 0:
        raise ConfigError("cannot derive a stepsize: Lipschitz constant is zero")
    return 1.0 / lipschitz


def gradient_descent(f: SmoothFn, x0, cfg: SolverConfig | None = None) -> SolverTrace:
    """Explicit gradient descent with a fixed step gamma < 2/L: forward-backward
    with g = 0, on the shared prox-gradient loop (``meta["gamma"]`` holds the step)."""
    cfg = dataclasses.replace(cfg or SolverConfig(), inertia="none")
    return forward_backward(f, ZeroFn(), x0, cfg)


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
    cfg = (cfg or SolverConfig()).resolved()
    gamma = cfg.gamma if cfg.gamma is not None else 1.0
    if gamma <= 0:
        raise ConfigError("proximal point needs gamma > 0")
    x = _start(x0, g.dim)
    value = g._value(x)
    rec = _Recorder(x, value, cfg)
    for _ in range(cfg.max_iter):
        x_new = g._prox(x, gamma)
        value_new = g._value(x_new)
        margin = value - value_new - float(np.sum((x - x_new) ** 2)) / (2 * gamma)
        stop = rec.record(x_new, value_new, _norm(x_new - x), {"prox_decrease_margin": margin},
                          settled=cfg.stop_at_fixed_point and _same_bytes(x_new, x))
        x, value = x_new, value_new
        if stop:
            break
    return rec.finish(x)


def _fista_t_coefs():
    t = 1.0
    while True:
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        yield (t - 1.0) / t_next
        t = t_next


def _prox_gradient_loop(f: SmoothFn, g: ProxFn, x0, cfg: SolverConfig,
                        gamma: float, coefs=None, monitor: bool = False,
                        objective=None, gap=None) -> SolverTrace:
    # x+ = prox_{gamma g}(y - gamma grad f(y)) with y = x + coef (x - x_prev),
    # coef drawn from ``coefs``; without coefs y = x and f + g is tracked for
    # the decrease monitor, whatever ``objective`` reports.  The row of x_n
    # is recorded in iteration n + 1, whose one product w = A y_{n+1} of a
    # Quadratic f also gives A x_n (see forward_backward)
    x = _start(x0, f.dim, g.dim)
    A = f.A if isinstance(f, Quadratic) else None
    # without an explicit objective an inertial row recombines A x_n, which
    # is then not P(x_n) bit for bit
    rec = _Recorder(x, objective(x) if objective is not None
                    else f._value(x) + g._value(x), cfg, gap,
                    row_is_gap_point=objective is not None or coefs is None)
    j_prev = rec.objective0
    x_prev = x_prev2 = x
    extras = row_coef = None
    # max_iter steps, then a pass that only records the last row (no pass
    # and no row for max_iter 0)
    for n in range(1, cfg.max_iter + 2 if cfg.max_iter else 1):
        last = n > cfg.max_iter
        if coefs is None or last:
            c, y = 0.0, x
        else:
            c = next(coefs)
            y = x + c * (x - x_prev)
        # the last pass reads A y only for an objective it forms from A x
        if A is not None and (objective is None or not last):
            w = A._apply(y)
            if objective is None:
                # y equal to x in value, not in bytes: y = x + c (+0) turns a -0 of
                # a settled x into +0, and the rows after a fixed point must repeat
                same = y is x or not np.count_nonzero(y != x)
                Ax = w if same else (w + c * Ax) / (1.0 + c)
        if n > 1:
            if objective is not None:
                value = objective(x)
            else:
                value = (f._value(x) if A is None else f._value_from(Ax)) + g._value(x)
            if coefs is not None:
                extras = {"inertia_coef": row_coef}
            if monitor:
                sq = float(np.sum((x - x_prev) ** 2))
                a = 1.0 / (2.0 * gamma) - f.lipschitz / 2.0
                margin = j_prev - value - a * sq
                if margin < -1e-8:
                    raise DecreaseViolation(
                        f"sufficient-decrease violated at iteration {n - 1}: "
                        f"margin {margin:.3e}")
                extras = {
                    "h1_margin": margin,
                    "h2_witness_norm": np.sqrt(sq) / gamma,
                }
                j_prev = value
            # inertia also reads x_prev; once x - x_prev is zero, its
            # n-dependent coefficient multiplies zero
            settled = cfg.stop_at_fixed_point and _same_bytes(x, x_prev) and (
                coefs is None or _same_bytes(x_prev, x_prev2))
            if rec.record(x, value, _norm(x - x_prev), extras, (x,), settled):
                break
        if last:
            break
        x_new = g._prox(y - gamma * (f._grad(y) if A is None else f._grad_from(w)), gamma)
        x_prev2, x_prev, x, row_coef = x_prev, x, x_new, c
    return rec.finish(x, {"gamma": gamma}, (x,))


def forward_backward(f: SmoothFn, g: ProxFn, x0,
                     cfg: SolverConfig | None = None,
                     objective=None, gap=None) -> SolverTrace:
    """Proximal gradient descent with optional inertial acceleration.

    Inertia modes: ``none`` (gamma < 2/L), ``fista_t`` with the classical
    t-sequence and ``fista_beta`` with coefficient (n-1)/(n-1+4) (both need
    gamma <= 1/L), and ``vfista`` for strongly convex problems (gamma = 1/L,
    coefficient (sqrt(L)-sqrt(a))/(sqrt(L)+sqrt(a))).  ``objective``
    overrides the reported trace column (dual formulations report the
    recovered primal value); the minimized function stays f + g.
    ``gap(x)`` is the duality gap of the point ``x`` the run would return
    (see :class:`SolverConfig` ``gap_tol``).

    For a :class:`~proxsplit.funcs.Quadratic` f = (s/2)||A x - b||^2 and no
    ``objective``, a run of n iterations makes n + 2 products with A (one
    per iteration, one for the start's row, one for the last row) and n
    with A*.  An iteration's product w = A y gives the gradient
    s A*(w - b) on y's own bits, so the iterates are those of a direct
    gradient.  Row n's f(x_n) is recorded once w = A y_{n+1} is known: from
    A x_n = w when y_{n+1} equals x_n in value, which holds for every
    ``none`` row and every row after a fixed point, and otherwise from
    A x_n = (w + c A x_{n-1}) / (1 + c), c the coefficient of
    y_{n+1} = x_n + c (x_n - x_{n-1}).  So the objective column is exact
    without inertia and within rounding of the direct product with it
    (relative differences of a few 1e-16 on the test lassos); the start's
    and the last row's products are direct.
    ``objective`` rows are ``objective(x_n)``, formed directly.
    """
    cfg = (cfg or SolverConfig()).resolved()
    L = f.lipschitz
    gamma = _default_gamma(cfg, L)
    if cfg.inertia == "none":
        if L > 0 and gamma >= 2.0 / L:
            raise ConfigError(f"stepsize {gamma} violates gamma < 2/L")
        return _prox_gradient_loop(f, g, x0, cfg, gamma, objective=objective, gap=gap)

    if L > 0 and gamma > 1.0 / L * (1 + 1e-12):
        raise ConfigError(f"inertial modes require gamma <= 1/L, got {gamma}")
    if cfg.inertia == "fista_t":
        coefs = _fista_t_coefs()
    elif cfg.inertia == "fista_beta":
        coefs = ((n - 1.0) / (n - 1.0 + 4.0) for n in itertools.count(1))
    else:
        # vfista; moduli add across the sum f + g
        alpha = f.strong_convexity + getattr(g, "strong_convexity", 0.0)
        if alpha <= 0:
            raise ConfigError("vfista needs a known strong-convexity modulus")
        if abs(gamma - 1.0 / L) > 1e-12 / L:
            raise ConfigError("vfista runs at gamma = 1/L")
        coefs = itertools.repeat((np.sqrt(L) - np.sqrt(alpha)) / (np.sqrt(L) + np.sqrt(alpha)))
    return _prox_gradient_loop(f, g, x0, cfg, gamma, coefs, objective=objective, gap=gap)


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
    cfg = (cfg or SolverConfig()).resolved()
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
    cfg = (cfg or SolverConfig()).resolved()
    lam = _relaxation_sequence(cfg.relaxation, 0.5, 0.0, 1.0, "lambda")
    # an operator pins the length; any other callable takes x as given
    x = _start(x0, getattr(T, "in_dim", None))
    rec = _Recorder(x, float("nan"), cfg)
    for n in range(1, cfg.max_iter + 1):
        tx = np.asarray(T(x), dtype=float)
        d = tx - x
        x_new = x + lam(n - 1) * d
        stop = rec.record(x_new, None, _norm(x_new - x), {"fixed_point_residual": _norm(d)},
                          settled=cfg.stop_at_fixed_point and _same_bytes(x_new, x)
                          and _same_bytes(tx, x))
        x = x_new
        if stop:
            break
    return rec.finish(x)


def douglas_rachford(f: ProxFn, g: ProxFn, x0,
                     cfg: SolverConfig | None = None, gap=None) -> SolverTrace:
    """Douglas-Rachford splitting for f + g, both prox-capable.

        y_n = prox_{gamma g}(x_n)
        z_n = prox_{gamma f}(2 y_n - x_n)
        x_{n+1} = x_n + mu_n (z_n - y_n)

    The reported solution is the shadow sequence y_n.  ``gap(y, u)`` is the
    duality gap of a shadow point y given u = (x - y)/gamma, an element of
    the subdifferential of g at y; it is evaluated at the shadow point the
    run would return.  A gap may offer ``gap._of_shadow(y, x, gamma)``, the
    same value from the part of u it reads, which the loop then calls.

    2 y_n - x_n is formed in one buffer, which f's ``_prox_into`` may write
    z_n into, and z_n - y_n goes into z_n's buffer.  Everything row n
    reads from x_n, y_n and z_n (split gap, objective at y_n, step residual,
    fixed-point byte tests) is computed, and those three dropped, before the
    projection y_{n+1} = prox_{gamma g}(x_{n+1}); while it runs, the loop
    holds only x_{n+1}.  The loop keeps no name for the start, so a start
    nothing else holds is freed in the first iteration.
    """
    cfg = (cfg or SolverConfig()).resolved()
    gamma = cfg.gamma if cfg.gamma is not None else 1.0
    if gamma <= 0:
        raise ConfigError("douglas_rachford needs gamma > 0")
    mu = _relaxation_sequence(cfg.relaxation, 1.0, 0.0, 2.0, "mu")
    x = _start(x0, f.dim, g.dim)
    del x0
    # y is always a g-prox point, where a feasible prox makes g vanish
    g_value = (lambda z: 0.0) if g.feasible_prox else g._value
    objective = lambda z: f._value(z) + g_value(z)
    of_shadow = getattr(gap, "_of_shadow", None)
    if of_shadow is not None:
        shadow_gap = lambda y, x: of_shadow(y, x, gamma)
    else:
        shadow_gap = None if gap is None else lambda y, x: gap(y, (x - y) / gamma)
    y = g._prox(x, gamma)
    rec = _Recorder(x, objective(y), cfg, shadow_gap)
    for n in range(1, cfg.max_iter + 1):
        z = np.multiply(2.0, y)
        np.subtract(z, x, out=z)
        z = f._prox_into(z, gamma, z)
        # mu_n multiplies z - y, so x alone may stand still while z - y does not
        settled = cfg.stop_at_fixed_point and _same_bytes(z, y)
        step = np.subtract(z, y, out=z)
        del z
        split_gap = _norm(step)
        value = objective(y)
        del y
        # x_{n+1} = x_n + mu_n (z_n - y_n), then its step from x_n, both in
        # the buffer of z_n - y_n
        np.multiply(step, mu(n - 1), out=step)
        x_prev, x = x, x + step
        np.subtract(x, x_prev, out=step)
        settled = settled and _same_bytes(x, x_prev)
        del x_prev
        residual = _norm(step)
        del step
        # the shadow point of x_{n+1}: next iteration's y, or the result
        y = g._prox(x, gamma)
        # both fixed-point pairs were compared before the projection
        if rec.record(x, value, residual, {"split_gap": split_gap}, (y, x), settled):
            break
    return rec.finish(y, {"governing": rec.owned(x)}, (y, x))


def ppxa(parts, x0, cfg: SolverConfig | None = None, gap=None) -> SolverTrace:
    """Parallel proximal algorithm over M >= 2 prox-capable terms.

    ``parts`` entries are either a prox function of the base variable or a
    pair ``(fn, L)`` composing it with a linear operator (None: identity).
    PPXA is Douglas-Rachford on the product space (Combettes & Pesquet,
    2008): the separable prox of the terms against the projection onto
    {(p, L_2 p, ..., L_M p)}, a block mean without operators and a graph
    projection otherwise.  ``trace.x`` is the base block of the shadow
    point; the trace has no extras column, apart from ``gap`` when
    ``gap_tol`` asks for it.  ``gap`` is passed to :func:`douglas_rachford`
    and sees the product-space blocks.
    """
    norm_parts = [entry if isinstance(entry, tuple) else (entry, None) for entry in parts]
    if len(norm_parts) < 2:
        raise ConfigError("ppxa needs at least two terms")
    first_op = norm_parts[0][1]
    if first_op is not None and not isinstance(first_op, IdentityOperator):
        raise ConfigError("the first ppxa term must act on the base variable")

    # a term without an operator pins the base length, and so does an operator
    x = _start(x0, *(fn.dim if op is None else op.in_dim for fn, op in norm_parts))
    d = x.size
    ops = [IdentityOperator(d) if op is None else op for _, op in norm_parts[1:]]
    if all(op is None for _, op in norm_parts[1:]):
        link = ConsensusIndicator(len(norm_parts), d)
    else:
        link = AffineGraphIndicator(ops[0] if len(ops) == 1 else StackOperator(ops))
    offsets = np.cumsum([0, d] + [op.out_dim for op in ops])
    terms = SeparableProx([(fn, slice(a, b)) for (fn, _), a, b
                           in zip(norm_parts, offsets[:-1], offsets[1:])], offsets[-1])
    # the product-space start goes to the loop unnamed, which then frees it
    trace = douglas_rachford(terms, link, np.concatenate([x] + [op.apply(x) for op in ops]),
                             cfg, gap)
    trace.extras.pop("split_gap", None)
    trace.x = trace.x[:d].copy()
    return trace


def _augmented_argmin(fn, op: LinearOperator, gamma):
    """c -> argmin fn(x) + (gamma/2) ||op x - c||^2 for the supported
    structures, built once per run."""
    if isinstance(op, IdentityOperator):
        return lambda c: fn._prox(c, 1.0 / gamma)
    if isinstance(op, ScaleOperator):
        s = op.factor
        if s == 0.0:
            raise ConfigError("degenerate zero operator in the coupling constraint")
        return lambda c: fn._prox(c / s, 1.0 / (gamma * s * s))
    if isinstance(fn, Quadratic):
        solve = gram_solver([(fn.scale, fn.A), (gamma, op)], 0.0)
        atb = fn.scale * fn.A._adjoint(fn.b)
        return lambda c: solve(atb + gamma * op._adjoint(c))
    raise ConfigError(
        "the alternating-direction subproblem needs an identity/scale coupling "
        "or a quadratic term"
    )


def admm(f: ProxFn, g: ProxFn, A: LinearOperator, B: LinearOperator, b,
         y0=None, cfg: SolverConfig | None = None) -> SolverTrace:
    """Alternating direction method of multipliers for

        min f(x) + g(y)  subject to  A x + B y = b.

    Each partial minimization is solved in closed form, so its coupling
    operator must be an identity/scale or its term quadratic; any other
    pairing is a :class:`ConfigError`, raised before the first iteration.
    The trace records the primal residual ||Ax + By - b|| and the
    objective f(x) + g(y).
    """
    cfg = (cfg or SolverConfig()).resolved()
    gamma = cfg.gamma if cfg.gamma is not None else 1.0
    if gamma <= 0:
        raise ConfigError("admm needs gamma > 0")
    if A.out_dim != B.out_dim:
        raise ConfigError("A and B must map into the same constraint space")
    b = as_vector(b, A.out_dim)
    # x starts at 0, so only the length of f is checked against A
    x = _start(np.zeros(A.in_dim), f.dim)
    y = _start(np.zeros(B.in_dim) if y0 is None else y0, B.in_dim, g.dim)
    z = np.zeros(A.out_dim)

    argmin_x = _augmented_argmin(f, A, gamma)
    argmin_y = _augmented_argmin(g, B, gamma)
    # the trace's iterates are the pairs (x, y)
    xy = np.concatenate([x, y])
    rec = _Recorder(xy, f._value(x) + g._value(y), cfg, starts=(y,))
    By = B._apply(y)
    for _ in range(cfg.max_iter):
        x_new = argmin_x(b - By - z / gamma)
        Ax = A._apply(x_new)
        y_new = argmin_y(b - Ax - z / gamma)
        # one product with each operator: B y_new is the next iteration's B y
        By = B._apply(y_new)
        r = Ax + By - b
        z_new = z + gamma * r
        xy_new = np.concatenate([x_new, y_new])
        stop = rec.record(xy_new, f._value(x_new) + g._value(y_new), _norm(xy_new - xy),
                          {"primal_residual": _norm(r)},
                          settled=cfg.stop_at_fixed_point and _same_bytes(y_new, y)
                          and _same_bytes(z_new, z))
        x, y, z, xy = x_new, y_new, z_new, xy_new
        if stop:
            break
    return rec.finish(x, meta={"y": rec.owned(y), "z": z})


def _exact(*values) -> list:
    """Each float as integers (p, q), p/q its exact value, for a step guard
    that must not round; a non-finite operand is a :class:`ConfigError`."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"stepsize guard operands must be finite, got {values}")
    return [_ratio(float(v)) for v in values]


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
    (t, tq), (s, sq), (n, nq) = _exact(tau, sigma, L)
    if t * s * n * n >= tq * sq * nq * nq:
        raise ConfigError(
            f"stepsize product tau*sigma*||K||^2 = {tau * sigma * L * L:.6f} >= 1 "
            f"(operator norm bound {L:.6f})"
        )
    return sigma, tau, L


def _primal_dual_loop(prob: SaddleProblem, x0, y0, cfg: SolverConfig | None,
                      extrapolate: bool, gap=None) -> SolverTrace:
    # shared loop of the theta = 1 (xbar = 2x+ - x) and theta = 0 (xbar = x+)
    # members of the primal-dual family
    cfg = (cfg or SolverConfig()).resolved()
    sigma, tau, op_norm = _validate_pd_steps(cfg, prob.K)
    x = _start(x0, prob.K.in_dim, prob.g.dim)
    y = _start(y0, prob.K.out_dim, prob.f_conj.dim)
    xbar = x
    obj = prob._primal_objective or (lambda z: None)
    obj0 = obj(x)
    rec = _Recorder(x, obj0 if obj0 is not None else float("nan"), cfg, gap,
                    row_is_gap_point=obj0 is not None, starts=(y,))
    dual_iterates = [y.copy()] if cfg.keep_iterates else []
    for _ in range(cfg.max_iter):
        v = y + sigma * prob.K._apply(xbar)
        y_new = prob.f_conj._prox_into(v, sigma, v)
        del v
        x_new = prob.g._prox(x - tau * prob.K._adjoint(y_new), tau)
        xbar_new = 2.0 * x_new - x if extrapolate else x_new
        # everything the row reads from x_n, xbar_n and y_n, before the
        # objective product runs without them
        extras = {"dual_residual": _norm(y_new - y)}
        residual = _norm(x_new - x)
        settled = (cfg.stop_at_fixed_point and _same_bytes(xbar_new, xbar)
                   and _same_bytes(x_new, x) and _same_bytes(y_new, y))
        x, xbar, y = x_new, xbar_new, y_new
        if dual_iterates:
            dual_iterates.append(y.copy())
        if rec.record(x, obj(x), residual, extras, (x, y), settled):
            break
    return rec.finish(x, {
        "y": rec.owned(y),
        "sigma": sigma,
        "tau": tau,
        "operator_norm": op_norm,
        "dual_iterates": dual_iterates,
    }, (x, y))


def chambolle_pock(prob: SaddleProblem, x0, y0, cfg: SolverConfig | None = None,
                   gap=None) -> SolverTrace:
    """Primal-dual iteration with over-relaxed primal extrapolation.

        y_{n+1} = prox_{sigma f*}(y_n + sigma K xbar_n)
        x_{n+1} = prox_{tau g}(x_n - tau K* y_{n+1})
        xbar_{n+1} = 2 x_{n+1} - x_n

    Requires tau*sigma*||K||^2 < 1, tested exactly on the float operands.
    With ``keep_iterates`` the trace stores both primal and dual iterates,
    from which ergodic averages can be formed (see
    :func:`proxsplit.certify.cp_gap_certificate`).  ``gap(x, y)`` is the
    duality gap of the pair, used by :class:`SolverConfig` ``gap_tol``.
    """
    return _primal_dual_loop(prob, x0, y0, cfg, True, gap)


def arrow_hurwicz(prob: SaddleProblem, x0, y0,
                  cfg: SolverConfig | None = None) -> SolverTrace:
    """Plain primal-dual alternation without extrapolation (xbar = x)."""
    return _primal_dual_loop(prob, x0, y0, cfg, False)


def condat(f: SmoothFn, g: ProxFn, terms, x0, u0s=None,
           cfg: SolverConfig | None = None, objective=None, gap=None) -> SolverTrace:
    """Primal-dual splitting with an explicit gradient step and M dual blocks.

        x_{n+1} = prox_{tau g}(x_n - tau grad f(x_n) - tau sum_i L_i* u_{i,n})
        u_{i,n+1} = prox_{sigma h_i*}(u_{i,n} + sigma L_i (2 x_{n+1} - x_n))

    This is Condat's (2013) scheme without relaxation (rho = 1).
    Solves min f(x) + g(x) + sum_i h_i(L_i x); ``terms`` is a list of
    ``(h_conj, L_i)`` pairs where ``h_conj`` is the conjugate-side prox
    oracle of h_i (build it with ``fn.conjugate()`` when only the primal is
    known).  Stepsizes must satisfy tau*(L/2 + sigma*||sum L_i* L_i||) < 1,
    tested exactly on the float operands;
    the dual updates within one iteration are independent.  ``gap(x, us)``
    is the duality gap of x with the dual blocks ``us``.
    """
    cfg = (cfg or SolverConfig()).resolved()
    terms = list(terms)
    x = _start(x0, f.dim, g.dim, *(op.in_dim for _, op in terms))
    L = f.lipschitz
    # without terms the coupling is the zero operator
    stack = StackOperator([op for _, op in terms]) if terms else ScaleOperator(0.0, x.size)
    op_norm = stack.norm()
    gram_norm = op_norm ** 2
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
    (t, tq), (s, sq), (lip, lq), (n, nq) = _exact(tau, sigma, L, op_norm)
    if t * (lip * sq * nq * nq + 2 * lq * s * n * n) >= 2 * tq * lq * sq * nq * nq:
        raise ConfigError(
            f"stepsize check tau*(L/2 + sigma*||sum Li* Li||) = "
            f"{tau * (L / 2.0 + sigma * gram_norm):.6f} >= 1"
        )
    if u0s is None:
        u0s = [np.zeros(op.out_dim) for _, op in terms]
    us = [_start(u, op.out_dim, h_conj.dim) for u, (h_conj, op) in zip(u0s, terms)]

    if objective is None:
        objective = lambda z: f._value(z) + g._value(z)

    rec = _Recorder(x, objective(x), cfg, gap, row_is_gap_point=True, starts=us)
    for _ in range(cfg.max_iter):
        drift = np.zeros_like(x)
        for (_, op), u in zip(terms, us):
            drift += op._adjoint(u)
        x_new = g._prox(x - tau * f._grad(x) - tau * drift, tau)
        us_new = [h_conj._prox(u + sigma * op._apply(2.0 * x_new - x), sigma)
                  for (h_conj, op), u in zip(terms, us)]
        stop = rec.record(x_new, objective(x_new), _norm(x_new - x), None, (x_new, us_new),
                          cfg.stop_at_fixed_point and _same_bytes(x_new, x) and all(
                              map(_same_bytes, us_new, us)))
        x = x_new
        us = us_new
        if stop:
            break
    return rec.finish(x, {"duals": [rec.owned(u) for u in us],
                          "sigma": sigma, "tau": tau,
                          "operator_norm": stack.norm()}, (x, us))
