"""Numerical certification of descent inequalities, rates and algorithm
equivalences.

Each check is a pure function of traces and function oracles: rerunning with
the same seed reproduces the report bit for bit.  Inequalities are asserted
with slack 1e-9 absolute + 1e-12 relative to absorb rounding; negative
controls that violate each inequality are provided so the suite is known to
be able to fail.
"""
from __future__ import annotations

import dataclasses
import math
import numpy as np

from .funcs import (
    CallableSmooth,
    ConjugateProx,
    L1Norm,
    ProxFn,
    SaddleProblem,
    SmoothFn,
    finite_difference_grad,
    precompose_prox,
    soft_threshold,
)
from .linops import DenseOperator, DimensionError, LinearOperator, as_vector
from .solvers import SolverConfig, SolverTrace, _norm, chambolle_pock

ABS_SLACK = 1e-9
REL_SLACK = 1e-12
ADJOINT_TOL = 1e-10


def _slack(scale: float) -> float:
    return ABS_SLACK + REL_SLACK * abs(scale)


def _check_dim(fn, dim: int) -> None:
    # the random checks pass their own finite draws of length ``dim`` to the
    # unvalidated oracle methods, so the length is checked once
    if getattr(fn, "dim", None) not in (None, dim):
        raise DimensionError(f"expected length {fn.dim}, got {dim}")


@dataclasses.dataclass
class CheckReport:
    """Outcome of one certification check."""

    check: str
    instance: str
    passed: bool
    worst_margin: float
    n_violations: int
    details: list = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "n_violations": self.n_violations,
            "details": self.details,
        }

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.check} ({self.instance}): "
                f"worst margin {self.worst_margin:.3e}, "
                f"{self.n_violations} violations")


def _report_from_margins(check, instance, margins, details=None) -> CheckReport:
    margins = np.asarray(margins, dtype=float)
    if margins.size == 0:
        return CheckReport(check, instance, True, 0.0, 0, details or [])
    worst = float(np.min(margins))
    # a NaN margin is a violation: nothing certified it
    violations = int(np.sum(~(margins >= 0)))
    return CheckReport(check, instance, violations == 0, worst, violations, details or [])


def check_descent_inequality(trace: SolverTrace, L: float, gamma: float,
                             kind: str = "gd", instance: str = "") -> CheckReport:
    """Per-step sufficient decrease: J(x_{n+1}) + c ||x_{n+1}-x_n||^2 <= J(x_n).

    c = (2 - gamma L)/(2 gamma) for plain gradient steps and
    c = 1/gamma - L/2 for proximal-gradient steps.
    """
    if kind == "gd":
        c = (2.0 - gamma * L) / (2.0 * gamma)
    elif kind == "fb":
        c = 1.0 / gamma - L / 2.0
    else:
        raise ValueError(f"unknown descent kind {kind!r}")
    path = trace.objective_path()
    margins = []
    for k in range(len(trace.residual)):
        lhs = path[k + 1] + c * trace.residual[k] ** 2
        margins.append(path[k] - lhs + _slack(path[k]))
    return _report_from_margins("descent_inequality", instance or kind, margins)


def check_lyapunov_gd(trace: SolverTrace, L: float, x_star, f_star: float,
                      instance: str = "") -> CheckReport:
    """Monotonicity of S_n = n (f(x_n) - f*) + (L/2)||x_n - x*||^2, plus the
    implied O(1/n) objective bound, on a trace that kept its iterates."""
    if not trace.iterates:
        raise ValueError("lyapunov check needs the iterates (keep_iterates=True)")
    x_star = np.asarray(x_star, dtype=float)
    path = trace.objective_path()
    s_vals = []
    prev = None
    for n, xn in enumerate(trace.iterates):
        if xn is not prev:  # a replayed settled tail repeats one array
            prev, dist = xn, 0.5 * L * float(np.sum((xn - x_star) ** 2))
        s_vals.append(n * (path[n] - f_star) + dist)
    margins = [s_vals[n] - s_vals[n + 1] + _slack(s_vals[n])
               for n in range(len(s_vals) - 1)]
    d0 = 0.5 * L * float(np.sum((trace.x0 - x_star) ** 2))
    bound_margins = [d0 / n - (path[n] - f_star) + _slack(d0)
                     for n in range(1, len(path))]
    details = [{"property": "lyapunov_monotone", "worst": float(np.min(margins))},
               {"property": "objective_inv_n_bound", "worst": float(np.min(bound_margins))}]
    return _report_from_margins("lyapunov_gd", instance, margins + bound_margins, details)


def check_linear_rate(objective_path, f_star: float, ratio: float,
                      instance: str = "") -> CheckReport:
    """f(x_n) - f* <= ratio^n (f(x_0) - f*) for every n in the path."""
    path = np.asarray(objective_path, dtype=float)
    gap0 = path[0] - f_star
    margins = [ratio ** n * gap0 - (path[n] - f_star) + _slack(gap0)
               for n in range(1, len(path))]
    return _report_from_margins("linear_rate", instance, margins)


def check_fista_bound(objective_path, f_star: float, gamma: float,
                      x0, x_star, instance: str = "") -> CheckReport:
    """J(x_n) - J* <= 2 ||x0 - x*||^2 / (gamma (n+1)^2)."""
    d0 = float(np.sum((np.asarray(x0) - np.asarray(x_star)) ** 2))
    path = np.asarray(objective_path, dtype=float)
    margins = [2.0 * d0 / (gamma * (n + 1) ** 2) - (path[n] - f_star) + _slack(d0)
               for n in range(1, len(path))]
    return _report_from_margins("fista_bound", instance, margins)


def _contraction(check, fn, dim, trials, seed, radius, target, step) -> CheckReport:
    # ||step(x) - step(y)|| / ||x - y|| on random pairs against target(alpha)
    alpha = fn.strong_convexity
    if alpha <= 0:
        raise ValueError("contraction check needs a strong-convexity modulus")
    _check_dim(fn, dim)
    target = target(alpha) + 1e-10
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(trials):
        x = radius * rng.standard_normal(dim)
        y = radius * rng.standard_normal(dim)
        dx = _norm(x - y)
        if dx == 0:
            continue
        margins.append(target - _norm(step(x) - step(y)) / dx)
    return _report_from_margins(check, f"alpha={alpha}", margins)


def gradient_step_contraction(f: SmoothFn, gamma: float, dim: int,
                              trials: int = 1000, seed: int = 0,
                              radius: float = 2.0) -> CheckReport:
    """Empirical Lipschitz ratio of Id - gamma grad f against sqrt(1 - gamma a)."""
    return _contraction("gradient_step_contraction", f, dim, trials, seed, radius,
                        lambda alpha: np.sqrt(1.0 - gamma * alpha),
                        lambda x: x - gamma * f._grad(x))


def prox_contraction(fn: ProxFn, gamma: float, dim: int, trials: int = 1000,
                     seed: int = 0, radius: float = 2.0) -> CheckReport:
    """Prox of an a-strongly convex function is 1/(1+a*gamma)-Lipschitz."""
    return _contraction("prox_contraction", fn, dim, trials, seed, radius,
                        lambda alpha: 1.0 / (1.0 + alpha * gamma),
                        lambda x: fn._prox(x, gamma))


def check_pd_gap(prob: SaddleProblem, x, y, box1, box2) -> float:
    """Partial primal-dual gap of (x, y) over bounded boxes B1 x B2.

    Evaluated through the componentwise box-linear minimization oracle
    ``linearized_box_min``, which g and f* must define: a ``Quadratic`` whose
    Gram matrix is diagonal in the identity basis, and the l-inf ball.  Any
    other g or f* is rejected with ValueError rather than approximated.
    """
    x, y = as_vector(x, prob.K.in_dim), as_vector(y, prob.K.out_dim)
    for fn in (prob.g, prob.f_conj):
        if not hasattr(fn, "linearized_box_min"):
            raise ValueError(
                f"{type(fn).__name__} has no box-linear oracle; the partial "
                "gap is only evaluated for the catalog function family"
            )
    kx = prob.K._apply(x)
    _, neg_max = prob.f_conj.linearized_box_min(-kx, box2[0], box2[1])
    max_term = -neg_max + prob.g._value(x)
    _, min_term = prob.g.linearized_box_min(prob.K._adjoint(y), box1[0], box1[1])
    min_side = min_term - prob.f_conj._value(y)
    return float(max_term - min_side)


def cp_gap_certificate(prob: SaddleProblem, x0, y0, cfg: SolverConfig,
                       horizons, saddle, box1, box2,
                       instance: str = "") -> CheckReport:
    """Ergodic gap bound and per-iteration boundedness of the primal-dual run.

    At each horizon N the averaged pair must satisfy
    G(x^N, y^N) <= (1/N)(||x0-x*||^2/(2 tau) + ||y0-y*||^2/(2 sigma)
                         - <K(x0-x*), y0-y*>),
    and the weighted distance to the saddle stays within 1/(1 - tau sigma L^2)
    of its initial value at every iteration.  The averages x^N, y^N are
    formed from the kept iterates x_1..x_N, y_1..y_N.  The run goes on to
    the last horizon; a horizon a diverged run never reached is a violation.
    """
    horizons = sorted(horizons)
    cfg = cfg.with_(max_iter=max(horizons), keep_iterates=True, stop_at_fixed_point=False)
    trace = chambolle_pock(prob, x0, y0, cfg)
    sigma, tau = trace.meta["sigma"], trace.meta["tau"]
    x_star, y_star = (np.asarray(saddle[0], dtype=float),
                      np.asarray(saddle[1], dtype=float))
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    ergodic = {}
    sum_x, sum_y = np.zeros_like(x0), np.zeros_like(y0)
    pairs = zip(trace.iterates[1:], trace.meta["dual_iterates"][1:])
    for n, (xn, yn) in enumerate(pairs, 1):
        sum_x = sum_x + xn
        sum_y = sum_y + yn
        if n in horizons:
            ergodic[n] = (sum_x / n, sum_y / n)
    dx0 = x0 - x_star
    dy0 = y0 - y_star
    rhs0 = (float(dx0 @ dx0) / (2 * tau) + float(dy0 @ dy0) / (2 * sigma)
            - float(prob.K.apply(dx0) @ dy0))
    details = []
    margins = []
    for n in horizons:
        bound = rhs0 / n
        if n not in ergodic:
            details.append({"N": n, "gap": None, "bound": bound})
            margins.append(-np.inf)
            continue
        xn, yn = ergodic[n]
        gap = check_pd_gap(prob, xn, yn, box1, box2)
        details.append({"N": n, "gap": gap, "bound": bound})
        margins.append(bound - gap + _slack(bound))
        margins.append(gap + 1e-8)  # gap must be essentially nonnegative
    # boundedness of the iterates relative to the saddle point
    L = prob.K.norm()
    contraction = 1.0 / (1.0 - tau * sigma * L * L)
    init = float(dy0 @ dy0) / (2 * sigma) + float(dx0 @ dx0) / (2 * tau)
    for xn, yn in zip(trace.iterates, trace.meta["dual_iterates"]):
        lhs = (float(((yn - y_star) ** 2).sum()) / (2 * sigma)
               + float(((xn - x_star) ** 2).sum()) / (2 * tau))
        margins.append(contraction * init - lhs + 1e-6 * (1.0 + init))
    return _report_from_margins("cp_gap_certificate", instance, margins, details)


def fit_rate(series, model: str):
    """Least-squares fit of a positive series against a decay model.

    Models: ``inv_n`` fits C/n and returns C, ``inv_n2`` fits C/n^2 and
    returns C, ``geometric`` fits C*r^n and returns the ratio r.  The second
    return value is the R^2 of the fit in log space.  Trailing exact zeros
    (converged runs) are cut before fitting.
    """
    s = np.asarray(series, dtype=float)
    nonpos = np.where(s <= 0)[0]
    if nonpos.size:
        s = s[: nonpos[0]]
    if s.size < 2:
        raise ValueError("need at least two positive values to fit a rate")
    n = np.arange(1, s.size + 1, dtype=float)
    logs = np.log(s)
    if model in ("inv_n", "inv_n2"):
        pred_slope = -np.log(n) if model == "inv_n" else -2.0 * np.log(n)
        log_c = float(np.mean(logs - pred_slope))
        fitted = np.exp(log_c)
        resid = logs - (log_c + pred_slope)
    elif model == "geometric":
        slope, intercept = np.polyfit(n, logs, 1)
        fitted = np.exp(slope)
        resid = logs - (intercept + slope * n)
    else:
        raise ValueError(f"unknown rate model {model!r}")
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(fitted), float(r2)


def dr_cp_equivalence(f: ProxFn, g: ProxFn, gamma: float, x0, w0,
                      iters: int = 50, instance: str = "") -> CheckReport:
    """Douglas-Rachford and the primal-dual iteration coincide for K = Id.

    With sigma = 1/gamma, tau = gamma the change of variables
    x_{n+1} = v_{n+1}, gamma*y_{n+1} = v_n - w_{n+1} maps one run onto the
    other; the report carries the largest per-iteration defect.
    """
    v = np.asarray(x0, dtype=float).copy()
    w = np.asarray(w0, dtype=float).copy()
    f_conj = ConjugateProx(f)
    sigma = 1.0 / gamma
    xc = v.copy()
    xc_prev = v.copy()
    yc = (v - w) / gamma
    worst = 0.0
    for _ in range(iters):
        # primal-dual side (K = Id)
        xbar = 2.0 * xc - xc_prev
        yc = f_conj.prox(yc + sigma * xbar, sigma)
        xc_new = g.prox(xc - gamma * yc, gamma)
        # splitting side
        w_new = w + f.prox(2.0 * v - w, gamma) - v
        v_new = g.prox(w_new, gamma)
        defect = max(
            float(np.max(np.abs(xc_new - v_new))),
            float(np.max(np.abs(gamma * yc - (v - w_new)))),
        )
        worst = max(worst, defect)
        xc_prev, xc = xc, xc_new
        v, w = v_new, w_new
    # float defects can grow at most linearly with the horizon:
    # 1e-8 at 50 iterations, 1e-6 at 5000
    tol = 1e-8 * max(1.0, iters / 50.0)
    return _report_from_margins("dr_cp_equivalence", instance or f"gamma={gamma}",
                                [tol - worst],
                                [{"max_defect": worst, "iters": iters, "tolerance": tol}])


def dr_admm_equivalence(f: ProxFn, g: ProxFn, K: LinearOperator, gamma: float,
                        iters: int = 50, w0=None,
                        instance: str = "") -> CheckReport:
    """Dual multiplier iteration recovers the primal splitting through

        z_n = -v_n,  gamma y_n = w_n - v_n,  -gamma K* x_{n+1} = w_{n+1} - v_n.

    The dual-side metric prox is evaluated through the pseudo-inverse
    identity prox^A_{f/gamma}(x) = A+ (x - prox_{gamma f o A*}(gamma x)/gamma)
    with A = K*; K* must be injective (checked on the materialized matrix).
    """
    # materialize K to check injectivity of K* and form the pseudo-inverse
    cols = [K.apply(e) for e in np.eye(K.in_dim)]
    M = np.stack(cols, axis=1)
    svals = np.linalg.svd(M, compute_uv=False)
    if svals.size < K.out_dim or svals[min(K.out_dim, len(svals)) - 1] <= 1e-10 * svals[0]:
        raise ValueError("K* is not injective; the dual equivalence needs full row rank")
    pinv_kt = np.linalg.pinv(M.T)

    prox_fk = precompose_prox(f, K)
    if w0 is None:
        w0 = np.zeros(K.in_dim)
    w = np.asarray(w0, dtype=float).copy()
    v = g.prox(w, gamma)
    z = -v
    y = (w - v) / gamma
    worst = 0.0
    for _ in range(iters):
        # multiplier side on the dual problem
        s = -y - z / gamma
        p = prox_fk.prox(gamma * s, gamma)
        x_dual = pinv_kt @ (s - p / gamma)
        t = -(M.T @ x_dual) - z / gamma
        y_new = t - g.prox(gamma * t, gamma) / gamma
        z_new = z + gamma * (y_new + M.T @ x_dual)
        # splitting side on the primal
        w_new = w + prox_fk.prox(2.0 * v - w, gamma) - v
        v_new = g.prox(w_new, gamma)
        defect = max(
            float(np.max(np.abs(z_new + v_new))),
            float(np.max(np.abs(gamma * y_new - (w_new - v_new)))),
            float(np.max(np.abs(-gamma * (M.T @ x_dual) - (w_new - v)))),
        )
        worst = max(worst, defect)
        w, v, z, y = w_new, v_new, z_new, y_new
    tol = 1e-8 * max(1.0, iters / 50.0)
    return _report_from_margins("dr_admm_equivalence", instance or f"gamma={gamma}",
                                [tol - worst],
                                [{"max_defect": worst, "iters": iters, "tolerance": tol}])


def property_suite(fn, dim: int, trials: int = 200, seed: int = 0,
                   radius: float = 2.0, gammas=(0.1, 1.0, 10.0),
                   instance: str = "") -> CheckReport:
    """Random-pair verification of the declared analytic properties.

    Smooth oracles: descent lemma, finite-difference gradient agreement,
    cocoercivity (convex), strong monotonicity and gradient-step contraction
    (strongly convex).  Prox oracles: firm nonexpansiveness of the prox and
    its complement, nonexpansiveness of the reflected prox, the Moreau
    identity, the subgradient characterization of the prox, fixed points at
    registered minimizers, and the strongly convex contraction factor.
    The suite's own draws, and probes around a validated prox output, go to
    the unvalidated oracle methods; prox outputs, the finite-difference
    gradient and the minimizer fixed points to the validating public ones.
    """
    _check_dim(fn, dim)
    rng = np.random.default_rng(seed)
    details = []
    all_margins = []

    def add(name, margins):
        margins = np.asarray(margins, dtype=float)
        if margins.size == 0:
            return
        details.append({
            "property": name,
            "pass": bool((margins >= 0).all()),
            "worst_margin": float(margins.min()),
            "n_violations": int((~(margins >= 0)).sum()),
        })
        all_margins.extend(margins.tolist())

    if isinstance(fn, SmoothFn):
        L = fn.lipschitz
        descent, coco, strong = [], [], []
        for _ in range(trials):
            x = radius * rng.standard_normal(dim)
            y = radius * rng.standard_normal(dim)
            gx, gy = fn._grad(x), fn._grad(y)
            rhs = fn._value(y) + float(gy @ (x - y)) + 0.5 * L * float(((x - y) ** 2).sum())
            descent.append(rhs - fn._value(x) + _slack(rhs))
            inner = float((gx - gy) @ (x - y))
            if fn.convex and L > 0:
                coco.append(inner - float(((gx - gy) ** 2).sum()) / L + _slack(inner))
            if fn.strong_convexity > 0:
                strong.append(inner - fn.strong_convexity * float(((x - y) ** 2).sum())
                              + _slack(inner))
        add("descent_lemma", descent)
        if coco:
            add("cocoercivity", coco)
        if strong:
            add("strong_monotonicity", strong)
        fd = []
        for _ in range(min(trials, 10)):
            x = radius * rng.standard_normal(dim)
            g_exact = fn._grad(x)
            g_fd = finite_difference_grad(fn, x)
            err = _norm(g_exact - g_fd) / (1.0 + _norm(g_exact))
            fd.append(1e-5 - err)
        add("gradient_finite_difference", fd)
        if fn.strong_convexity > 0 and L > 0:
            rep = gradient_step_contraction(fn, 0.9 / L, dim, trials=trials,
                                            seed=seed + 1, radius=radius)
            add("gradient_step_contraction", [rep.worst_margin])

    if isinstance(fn, ProxFn) and hasattr(fn, "prox"):
        if fn.convex:
            firm, firm_c, rprox, moreau, witness, contraction = [], [], [], [], [], []
            conj = fn.conjugate()
            for _ in range(trials):
                x = radius * rng.standard_normal(dim)
                y = radius * rng.standard_normal(dim)
                # the same draw as rng.choice(gammas), without its overhead
                gamma = float(gammas[rng.integers(len(gammas))])
                p = fn._prox(x, gamma)
                q = fn._prox(y, gamma)
                dd = float(((x - y) ** 2).sum())
                pq = float(((p - q) ** 2).sum())
                cc = float((((x - p) - (y - q)) ** 2).sum())
                firm.append(dd - pq - cc + _slack(dd))
                rp = 2.0 * p - x
                rq = 2.0 * q - y
                rprox.append(math.sqrt(dd) - _norm(rp - rq) + _slack(math.sqrt(dd)))
                firm_c.append(dd - cc - pq + _slack(dd))
                moreau_defect = _norm(p + gamma * conj._prox(x / gamma, 1.0 / gamma) - x)
                moreau.append(1e-8 - moreau_defect)
                # subgradient characterization of p = prox_{gamma fn}(x)
                fp = fn.value(p)
                if math.isfinite(fp):
                    u = (x - p) / gamma
                    for _ in range(3):
                        probe = p + radius * rng.standard_normal(dim)
                        fprobe = fn._value(probe)
                        gap = fprobe - fp - float(u @ (probe - p))
                        if math.isfinite(gap):
                            witness.append(gap + _slack(fprobe))
                if fn.strong_convexity > 0:
                    target = math.sqrt(dd) / (1.0 + fn.strong_convexity * gamma)
                    contraction.append(target - _norm(p - q) + _slack(target))
            add("firm_nonexpansive_prox", firm)
            add("firm_nonexpansive_complement", firm_c)
            add("rprox_nonexpansive", rprox)
            add("moreau_identity", moreau)
            add("prox_subgradient_witness", witness)
            if contraction:
                add("strongly_convex_contraction", contraction)
        else:
            # nonconvex prox: only the direct optimality comparison applies
            opt = []
            for _ in range(trials):
                x = radius * rng.standard_normal(dim)
                gamma = float(gammas[rng.integers(len(gammas))])
                p = fn._prox(x, gamma)
                lhs = fn.value(p) + float(((p - x) ** 2).sum()) / (2 * gamma)
                opt.append(fn._value(x) - lhs + _slack(lhs))
            add("prox_optimality_vs_input", opt)
        if fn.minimizer is not None:
            fixed = []
            m = np.broadcast_to(np.asarray(fn.minimizer, dtype=float), (dim,)).astype(float)
            for gamma in gammas:
                fixed.append(1e-10 - float(np.linalg.norm(fn.prox(m, gamma) - m)))
            add("minimizer_fixed_point", fixed)

    return _report_from_margins("property_suite", instance or type(fn).__name__,
                                all_margins, details)


def kl_monitor(trace: SolverTrace, gamma: float, L: float,
               instance: str = "") -> CheckReport:
    """Check the computable single-point-convergence hypotheses on a
    monitored nonconvex run: sufficient decrease with a = 1/(2 gamma) - L/2
    and the relative-error witness with b = 1/gamma.

    Only these two hypotheses are evaluated; sharpness of the objective
    around critical points is outside numerical reach and is not claimed.
    """
    if "h1_margin" not in trace.extras:
        raise ValueError("kl_monitor needs a trace with decrease monitors")
    margins = [float(m) + 1e-8 for m in trace.extras["h1_margin"]]
    b = 1.0 / gamma
    witness = trace.extras["h2_witness_norm"]
    margins += [b * r - w + _slack(w) for w, r in zip(witness, trace.residual)]
    details = []
    pos = trace.residual[trace.residual > 0]
    if pos.size >= 2:
        n = np.arange(1, pos.size + 1, dtype=float)
        slope = float(np.polyfit(np.log(n), np.log(pos), 1)[0])
        details.append({"residual_decay_exponent": slope})
    return _report_from_margins("kl_monitor", instance, margins, details)


def sqrt_decay_certificate(trace: SolverTrace, gamma: float, L: float,
                           horizons=(100, 1000, 10000),
                           instance: str = "") -> CheckReport:
    """min_{n<N} ||x_{n+1}-x_n|| <= sqrt((J(x0)-J(x_N)) / (a N)) at each
    horizon, with a = 1/(2 gamma) - L/2; the summed decrease makes the
    constant fully computable from the trace."""
    a = 1.0 / (2.0 * gamma) - L / 2.0
    if a <= 0:
        raise ValueError("decrease constant must be positive for the decay bound")
    path = trace.objective_path()
    margins = []
    details = []
    for N in horizons:
        N = min(N, len(trace.residual))
        if N < 1:
            continue
        best = float(np.min(trace.residual[:N]))
        bound = np.sqrt(max(path[0] - path[N], 0.0) / (a * N))
        margins.append(bound - best + _slack(bound))
        details.append({"N": N, "min_residual": best, "bound": bound,
                        "scaled_constant": best * np.sqrt(N)})
    return _report_from_margins("sqrt_decay", instance, margins, details)


def adjoint_report(op: LinearOperator, trials: int = 100, seed: int = 0,
                   instance: str = "") -> CheckReport:
    """Probe <Kx, y> == <x, K*y> on random pairs; passes at a relative
    defect of at most ``ADJOINT_TOL``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.adjoint(y))
        defect = abs(lhs - rhs) / (1.0 + float(np.linalg.norm(x)) * float(np.linalg.norm(y)))
        worst = max(worst, float(defect))
    return _report_from_margins("adjoint_consistency", instance or op.kind,
                                [ADJOINT_TOL - worst],
                                [{"kind": op.kind, "trials": trials, "max_defect": worst,
                                  "passed": bool(worst <= ADJOINT_TOL)}])


def double_well(lipschitz: float = 6.0, convex: bool = False) -> CallableSmooth:
    """f(x) = (x^2-1)^2/4 with the Lipschitz constant valid on [-1.5, 1.5]."""
    return CallableSmooth(
        lambda x: float(np.sum(0.25 * (x ** 2 - 1.0) ** 2)),
        lambda x: x ** 3 - x,
        lipschitz=lipschitz,
        convex=convex,
    )


# ---------------------------------------------------------------------------
# negative controls: fixtures that must fail their checks
# ---------------------------------------------------------------------------

def fake_convex_double_well() -> CallableSmooth:
    """Double well declared convex: cocoercivity must fail."""
    return double_well(11.0, convex=True)


class BrokenL1Prox(L1Norm):
    """Soft threshold with a wrong threshold scaling; the subgradient witness
    and the Moreau identity both catch it."""

    def _prox(self, x, gamma):
        return soft_threshold(x, 0.5 * self.weight * gamma)


class CorruptedAdjoint(DenseOperator):
    """Dense operator whose adjoint is deliberately perturbed."""

    def _adjoint(self, y):
        out = super()._adjoint(y)
        out[0] += 1e-3 * y[0]
        return out


def ascending_trace(n: int = 20) -> SolverTrace:
    """Objective that goes up: the descent certificate must flag it."""
    obj = np.linspace(1.0, 2.0, n)
    return SolverTrace(
        x0=np.zeros(1),
        objective0=0.5,
        steps=np.arange(1, n + 1),
        objective=obj,
        residual=np.full(n, 0.1),
        extras={},
        iterates=[np.zeros(1)] + [np.full(1, v) for v in obj],
        termination="iter_cap",
        x=np.full(1, obj[-1]),
    )
