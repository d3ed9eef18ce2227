"""Named certification checks over shipped fixtures.

The registry maps check names to callables ``check(seed) -> CheckReport`` or
a list of reports.  The default suite is every non-control check; controls
are deliberately broken fixtures that must fail, proving the certifier can
reject bad oracles.
"""
from __future__ import annotations

import dataclasses
import os

import numpy as np

from . import certify
from .certify import (
    CheckReport,
    adjoint_report,
    ascending_trace,
    check_descent_inequality,
    check_fista_bound,
    check_linear_rate,
    check_lyapunov_gd,
    cp_gap_certificate,
    dr_admm_equivalence,
    double_well,
    dr_cp_equivalence,
    fit_rate,
    gradient_step_contraction,
    kl_monitor,
    property_suite,
    prox_contraction,
    sqrt_decay_certificate,
)
from .data import GaussianStream, generate_synthetic
from .funcs import (
    AffineGraphIndicator,
    BoxIndicator,
    ConsensusIndicator,
    HardThreshold,
    L1Norm,
    L1Residual,
    LinfBallIndicator,
    OrthogonalComposition,
    Quadratic,
    SaddleProblem,
    ZeroFn,
    soft_threshold,
)
from .linops import DenseOperator, IdentityOperator, MaskOperator, ScaleOperator
from .problems import build_lasso, build_tv_denoise, build_tv_inverse
from .solvers import (
    ITER_CAP,
    TOL_REACHED,
    SolverConfig,
    SolverTrace,
    admm,
    chambolle_pock,
    gradient_descent,
    krasnoselskii_mann,
    nonconvex_forward_backward,
)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def singular_quadratic_fixture():
    """Rank-deficient least squares; the limit point keeps the null-space
    component of the start, computed here by an SVD oracle."""
    A = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 2.0, 1.0, 0.0],
    ])
    b = np.array([1.0, 2.0, 3.5])
    x0 = np.array([1.0, -1.0, 0.5, 2.0])
    f = Quadratic(DenseOperator(A), b)
    # SVD-based oracle for the gradient-flow limit from x0
    u, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-12 * s[0]))
    vr = vt[:rank].T
    x_p = np.linalg.pinv(A) @ b
    x_star = x_p + (x0 - vr @ (vr.T @ x0))
    return f, x0, x_star, f.value(x_star)


def anisotropic_quadratic():
    """f(x) = (x1^2 + 10 x2^2)/2, the classic conditioned-quadratic fixture."""
    A = DenseOperator(np.diag([1.0, np.sqrt(10.0)]))
    return Quadratic(A, np.zeros(2), strong_convexity=1.0)


def lasso_diag_fixture(seed: int = 0):
    """Diagonal-design lasso with an exact componentwise solution."""
    diag = np.array([1.0, 0.9, 1.3, 0.7, 1.1, 0.8, 1.2, 0.95])
    stream = GaussianStream(seed + 11)
    y = 2.0 * stream.normals(diag.size)
    lam = 0.2
    inst = build_lasso(DenseOperator(np.diag(diag)), y, lam,
                       strong_convexity=float(np.min(diag) ** 2))
    x_star = soft_threshold(diag * y, lam) / diag ** 2
    inst.ground_truth = {"x": x_star, "objective": inst.objective(x_star)}
    return inst


def lasso_dense_fixture(seed: int = 0):
    """Small dense over-complete lasso used for curve comparisons."""
    stream = GaussianStream(seed + 23)
    m, n = 12, 20
    A = stream.normals(m * n).reshape(m, n) / np.sqrt(m)
    x_true = np.zeros(n)
    x_true[[1, 7, 13]] = [1.5, -2.0, 1.0]
    y = A @ x_true + 0.01 * stream.normals(m)
    return build_lasso(DenseOperator(A), y, 0.1)


def tv_denoise_fixture(rows: int = 8, lam: float = 0.1, sigma: float = 0.05,
                       seed: int = 7):
    data = generate_synthetic("step_image", (rows, rows), sigma=sigma, seed=seed)
    return build_tv_denoise(data["y"].reshape(data["rows"], data["cols"]), lam)


def tv_inverse_fixture(rows: int = 8, lam: float = 0.05, seed: int = 5):
    data = generate_synthetic("step_image", (rows, rows), sigma=0.0, seed=seed)
    mask = generate_synthetic("mask_pattern", rows * rows, seed=seed + 1)
    A = MaskOperator(mask["pattern"])
    y = A.apply(data["x_true"])
    return build_tv_inverse(A, y, lam, rows, rows)


def scalar_saddle_fixture():
    """min_x max_{|y|<=1} x*y + x^2/2: the saddle point sits at the origin."""
    prob = SaddleProblem(
        K=ScaleOperator(1.0, 1),
        g=Quadratic(IdentityOperator(1), np.zeros(1)),
        f_conj=LinfBallIndicator(1.0),
        f_primal=L1Norm(1.0),
    )
    return prob, np.zeros(1), np.zeros(1)


def rotation_by_90():
    mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    return lambda v: mat @ v


def haar4_operator():
    h = np.array([
        [0.5, 0.5, 0.5, 0.5],
        [0.5, 0.5, -0.5, -0.5],
        [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0), 0.0, 0.0],
        [0.0, 0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)],
    ])
    return DenseOperator(h)


# ---------------------------------------------------------------------------
# named checks
# ---------------------------------------------------------------------------

def _rate_fit(series, model: str, theorem: float) -> dict:
    # informational detail, outside pass/fail: the fitted rate next to the
    # theorem's (a C/n constant, or the ratio r of C r^n)
    value, r2 = fit_rate(series, model)
    name = "ratio" if model == "geometric" else "constant"
    return {f"fitted_{model}_{name}": value, "fit_r2": r2,
            f"theorem_{name}": float(theorem)}


# x stops changing bitwise after iteration 305 of 10,000 (see _settled_run)
def _check_gd_sublinear(seed: int) -> CheckReport:
    f, x0, x_star, f_star = singular_quadratic_fixture()
    trace = _settled_run(lambda cfg: gradient_descent(f, x0, cfg), 10_000,
                         gamma=1.0 / f.lipschitz, keep_iterates=True)
    rep = check_lyapunov_gd(trace, f.lipschitz, x_star, f_star,
                            instance="singular_quadratic")
    rep.details.append(_rate_fit(np.maximum(trace.objective - f_star, 0.0), "inv_n",
                                 0.5 * f.lipschitz * float(np.sum((x0 - x_star) ** 2))))
    return rep


def _check_gd_linear(seed: int) -> CheckReport:
    f = anisotropic_quadratic()
    cfg = SolverConfig(gamma=1.0 / f.lipschitz, max_iter=500)
    trace = gradient_descent(f, np.array([1.0, 1.0]), cfg)
    ratio = 1.0 - f.strong_convexity / f.lipschitz
    rep = check_linear_rate(trace.objective_path(), 0.0, ratio,
                            instance="anisotropic_quadratic")
    rep.details.append(_rate_fit(trace.objective, "geometric", ratio))
    return rep


def _check_contraction_gradient(seed: int) -> CheckReport:
    f = anisotropic_quadratic()
    return gradient_step_contraction(f, 0.9 / f.lipschitz, dim=2,
                                     trials=1000, seed=seed)


def _check_contraction_prox(seed: int) -> CheckReport:
    fn = Quadratic(IdentityOperator(3), np.zeros(3), scale=2.0)
    return prox_contraction(fn, 0.7, dim=3, trials=1000, seed=seed)


# x stops changing bitwise after iteration 176 of 10,000 at seed 3, but not
# within 10,000 at seed 0, which reads the whole run (see _settled_run); a
# replayed trace has no inertia_coef column, which nothing here reads
def _check_fista_rate(seed: int) -> CheckReport:
    inst = lasso_diag_fixture(seed)
    f = inst.metadata["f"]
    gamma = 1.0 / f.lipschitz
    trace = _settled_run(lambda cfg: inst.run("fista", cfg)[0], 10_000)
    j_star = inst.ground_truth["objective"]
    x_star = inst.ground_truth["x"]
    rep = check_fista_bound(trace.objective_path(), j_star, gamma,
                            np.zeros(x_star.size), x_star, instance="lasso_diag")
    gaps = trace.objective - j_star
    constant, _ = fit_rate(np.maximum(gaps, 0.0), "inv_n2")
    theorem = 2.0 * float(np.sum(x_star ** 2)) / gamma
    fitted_ok = constant <= 1.05 * theorem
    rep.details.append({"fitted_inv_n2_constant": constant,
                        "theorem_constant": theorem, "pass": bool(fitted_ok)})
    if not fitted_ok:
        rep.passed = False
        rep.n_violations += 1
    return rep


def _check_vfista_rate(seed: int) -> CheckReport:
    inst = lasso_diag_fixture(seed)
    f = inst.metadata["f"]
    trace, _ = inst.run("vfista", SolverConfig(max_iter=400))
    j_star = inst.ground_truth["objective"]
    ratio = 1.0 - np.sqrt(f.strong_convexity / f.lipschitz)
    rep = check_linear_rate(trace.objective_path(), j_star, ratio,
                            instance="lasso_diag_vfista")
    rep.details.append(_rate_fit(np.maximum(trace.objective - j_star, 0.0), "geometric",
                                 ratio))
    return rep


def _property_checks(seed: int) -> list[CheckReport]:
    stream = GaussianStream(seed + 3)
    dense = stream.normals(30).reshape(5, 6) / np.sqrt(5.0)
    graph_k = DenseOperator(stream.normals(6).reshape(2, 3))
    cases = [
        ("l1", L1Norm(0.7), 6),
        ("linf_ball", LinfBallIndicator(1.3), 6),
        ("box", BoxIndicator(-0.5, 1.5), 6),
        ("quadratic_identity", Quadratic(IdentityOperator(4), np.arange(4.0)), 4),
        ("quadratic_dense", Quadratic(DenseOperator(dense), stream.normals(5)), 6),
        ("l1_residual", L1Residual(np.array([1.0, -2.0, 0.5])), 3),
        ("consensus", ConsensusIndicator(2, 3), 6),
        ("hard_threshold", HardThreshold(0.8), 5),
        ("orthogonal_l1", OrthogonalComposition(haar4_operator(), L1Norm(0.5)), 4),
        ("affine_graph", AffineGraphIndicator(graph_k), 5),
    ]
    reports = []
    for name, fn, dim in cases:
        rep = property_suite(fn, dim, trials=200, seed=seed, instance=name)
        reports.append(rep)
    return reports


def _check_equiv_dr_cp(seed: int) -> list[CheckReport]:
    f = L1Norm(1.0)
    g = Quadratic(IdentityOperator(1), np.array([3.0]))
    reports = []
    for gamma in (0.1, 1.0, 10.0):
        reports.append(dr_cp_equivalence(f, g, gamma, np.array([0.5]),
                                         np.array([-1.0]), iters=50,
                                         instance=f"scalar_gamma={gamma}"))
    return reports


def _check_equiv_dr_admm(seed: int) -> list[CheckReport]:
    f = Quadratic(DenseOperator(np.diag([1.5, 0.8])), np.array([1.0, -2.0]))
    g = Quadratic(IdentityOperator(2), np.array([0.5, 1.0]))
    reports = []
    for K, label in ((IdentityOperator(2), "K=id"),
                     (DenseOperator(np.diag([1.0, 2.0])), "K=diag(1,2)")):
        for gamma in (0.5, 1.0, 2.0):
            reports.append(dr_admm_equivalence(
                f, g, K, gamma, iters=50, w0=np.array([0.3, -0.7]),
                instance=f"{label}_gamma={gamma}"))
    return reports


def _check_gap_scalar(seed: int) -> CheckReport:
    prob, x_star, y_star = scalar_saddle_fixture()
    cfg = SolverConfig(sigma=0.9, tau=0.9)
    return cp_gap_certificate(prob, np.array([1.5]), np.array([0.5]), cfg,
                              horizons=(10, 100, 1000), saddle=(x_star, y_star),
                              box1=(-2.0, 2.0), box2=(-1.0, 1.0),
                              instance="scalar_saddle")


def _check_gap_tv(seed: int) -> CheckReport:
    inst = tv_denoise_fixture()
    prob = inst.metadata["saddle"]
    y = inst.metadata["y"]
    grad = inst.metadata["grad"]
    lam = inst.metadata["lambda"]
    norm_k = grad.norm()
    # only the reference's final point is read, so it may stop at a fixed point
    ref_cfg = SolverConfig(sigma=0.9 / norm_k, tau=0.9 / norm_k, max_iter=20_000,
                           stop_at_fixed_point=True)
    ref = chambolle_pock(prob, y, np.zeros(grad.out_dim), ref_cfg)
    saddle = (ref.x, ref.meta["y"])
    cfg = SolverConfig(sigma=0.7 / norm_k, tau=0.7 / norm_k)
    lo = float(np.min(y)) - 1.0
    hi = float(np.max(y)) + 1.0
    return cp_gap_certificate(prob, y, np.zeros(grad.out_dim), cfg,
                              horizons=(10, 100, 1000), saddle=saddle,
                              box1=(lo, hi), box2=(-lam, lam),
                              instance="tv_denoise_8x8")


def _check_admm_consensus(seed: int) -> list[CheckReport]:
    # ||x||_1 + ||x - y||^2/2 split as x - z = 0, against the componentwise
    # closed form; the scalar case has its minimum 2.5 at x = 2
    # only the first hit and the final objective are read, and once y and z
    # stand still every later iterate is the same
    cfg = SolverConfig(gamma=1.0, max_iter=5000, stop_at_fixed_point=True)
    reports = []
    for instance, y in (("scalar_lasso", np.array([3.0])),
                        ("vector_lasso", np.array([3.0, -0.5, 2.0]))):
        d = y.size
        x_star = soft_threshold(y, 1.0)
        j_star = float(np.sum(np.abs(x_star)) + 0.5 * np.sum((x_star - y) ** 2))
        trace = admm(L1Norm(1.0), Quadratic(IdentityOperator(d), y),
                     IdentityOperator(d), ScaleOperator(-1.0, d), np.zeros(d), cfg=cfg)
        res = trace.extras["primal_residual"]
        hit = np.where(res <= 1e-6)[0]
        obj_err = abs(trace.objective[-1] - j_star)
        ok = hit.size > 0 and obj_err <= 1e-6
        reports.append(CheckReport(
            "admm_consensus", instance, bool(ok),
            1e-6 - float(res[-1]), 0 if ok else 1,
            [{"first_hit": int(hit[0]) + 1 if hit.size else None,
              "objective_error": float(obj_err)}]))
    return reports


# extras that follow the iteration count, not the state: a settled run's last
# row says nothing of their later values
_N_INDEXED = ("inertia_coef",)


def _replay_settled(trace: SolverTrace, max_iter: int) -> SolverTrace:
    """The trace of a run to ``max_iter`` iterations, from the same run
    stopped at its bitwise fixed point.

    A deterministic iteration at a bitwise fixed point repeats its last row
    forever, so that row's objective, residual, state-derived extras and
    kept iterate are repeated up to ``max_iter``; the n-indexed extras are
    left out.  A trace that did not end in tol_reached comes back unchanged.
    """
    if trace.termination != TOL_REACHED:
        return trace
    pad = max_iter - trace.objective.size

    def tail(col):
        return np.concatenate([col, np.repeat(col[-1:], pad)])

    return dataclasses.replace(
        trace, objective=tail(trace.objective), residual=tail(trace.residual),
        extras={k: tail(v) for k, v in trace.extras.items() if k not in _N_INDEXED},
        iterates=trace.iterates + trace.iterates[-1:] * pad, termination=ITER_CAP)


def _settled_run(solve, max_iter: int, **knobs) -> SolverTrace:
    # the trace of ``solve(cfg)`` to ``max_iter`` iterations, for a check whose
    # margins and fits read every row: a run that settles stops there, and
    # the rows after it are replayed
    cfg = SolverConfig(max_iter=max_iter, stop_at_fixed_point=True, **knobs)
    return _replay_settled(solve(cfg), max_iter)


def _recipe_agreement(inst, max_iters: dict, tol=1e-4, gap_tol=0.0) -> CheckReport:
    # ``max_iters`` maps each recipe to its cap, None for the recipe default;
    # only final points are compared, so every run may stop at a fixed point,
    # or, with ``gap_tol``, at a certified duality gap, which is then recorded
    values, gaps = {}, {}
    for name, cap in max_iters.items():
        trace, x = inst.run(name, SolverConfig(max_iter=cap, stop_at_fixed_point=True,
                                               gap_tol=gap_tol))
        values[name] = inst.objective(x)
        if gap_tol > 0:
            gaps[name] = {"gap": trace.meta["gap"]}
    best = min(values.values())
    scale = max(abs(best), 1e-12)
    margins = [tol - (v - best) / scale for v in values.values()]
    details = [{"recipe": k, "objective": v, "rel_gap": (v - best) / scale, **gaps.get(k, {})}
               for k, v in sorted(values.items())]
    return certify._report_from_margins(f"cross_recipe_{inst.name}",
                                        ",".join(max_iters), margins, details)


def _check_recipes_tv_denoise(seed: int) -> CheckReport:
    inst = tv_denoise_fixture()
    # ppxa is left out: on this instance it runs the dr_split iteration float
    # for float.  A relative gap of 1e-10 certifies each objective far inside
    # the 1e-4 agreement tolerance.
    return _recipe_agreement(inst, {"dr_split": None, "cp": 6000, "dual_fb": 6000,
                                    "condat": 6000}, gap_tol=1e-10)


def _check_recipes_tv_inverse(seed: int) -> CheckReport:
    inst = tv_inverse_fixture()
    return _recipe_agreement(inst, {"condat": 8000, "cp2": 8000})


def _nonconvex_reports(f, g, x0, gamma: float, instance: str) -> list[CheckReport]:
    trace = _settled_run(lambda cfg: nonconvex_forward_backward(f, g, x0, cfg), 10_000,
                         gamma=gamma)
    return [
        kl_monitor(trace, gamma, f.lipschitz, instance=instance),
        sqrt_decay_certificate(trace, gamma, f.lipschitz, instance=instance),
    ]


# x stops changing bitwise after iteration 164 of 10,000 (see _settled_run)
def _check_nonconvex_double_well(seed: int) -> list[CheckReport]:
    return _nonconvex_reports(double_well(), ZeroFn(), np.array([0.5]), 0.1,
                              "double_well")


# x stops changing bitwise after iteration 54 of 10,000 (see _settled_run)
def _check_nonconvex_hard_threshold(seed: int) -> list[CheckReport]:
    return _nonconvex_reports(Quadratic(IdentityOperator(1), np.array([3.0])),
                              HardThreshold(1.0), np.zeros(1), 0.5,
                              "hard_threshold_lasso")


def _check_km_rotation(seed: int) -> CheckReport:
    T = rotation_by_90()
    cfg = SolverConfig(relaxation=0.5, max_iter=100)
    trace = krasnoselskii_mann(T, np.array([1.0, 0.5]), cfg)
    res = trace.extras["fixed_point_residual"]
    margins = [res[k] - res[k + 1] for k in range(len(res) - 1)]
    margins.append(1e-8 - res[-1])
    return certify._report_from_margins("km_rotation", "rotation90", margins,
                                        [{"final_residual": float(res[-1])}])


def _check_descent_gd(seed: int) -> CheckReport:
    f = anisotropic_quadratic()
    gamma = 1.0 / f.lipschitz
    trace = gradient_descent(f, np.array([1.3, -0.8]),
                             SolverConfig(gamma=gamma, max_iter=300))
    return check_descent_inequality(trace, f.lipschitz, gamma, kind="gd",
                                    instance="anisotropic_quadratic")


def _check_descent_fb(seed: int) -> CheckReport:
    inst = lasso_dense_fixture(seed)
    f = inst.metadata["f"]
    gamma = 1.0 / f.lipschitz
    trace, _ = inst.run("fb", SolverConfig(max_iter=500))
    return check_descent_inequality(trace, f.lipschitz, gamma, kind="fb",
                                    instance="lasso_dense")


# ---------------------------------------------------------------------------
# negative controls: these must FAIL
# ---------------------------------------------------------------------------

def _control_ascending(seed: int) -> CheckReport:
    return check_descent_inequality(ascending_trace(), 1.0, 1.0, kind="gd",
                                    instance="ascending_control")


def _control_fake_convex(seed: int) -> CheckReport:
    return property_suite(certify.fake_convex_double_well(), 1, trials=200,
                          seed=seed, instance="fake_convex_control")


def _control_corrupted_adjoint(seed: int) -> CheckReport:
    stream = GaussianStream(seed + 41)
    op = certify.CorruptedAdjoint(stream.normals(36).reshape(6, 6))
    return adjoint_report(op, trials=50, seed=seed, instance="corrupted_control")


def _control_broken_prox(seed: int) -> CheckReport:
    return property_suite(certify.BrokenL1Prox(1.0), 4, trials=100, seed=seed,
                          instance="broken_prox_control")


CHECKS = {
    "lyapunov:gd_singular": _check_gd_sublinear,
    "rate:gd_linear": _check_gd_linear,
    "rate:fista": _check_fista_rate,
    "rate:vfista": _check_vfista_rate,
    "contraction:gradient": _check_contraction_gradient,
    "contraction:prox": _check_contraction_prox,
    "descent:gd": _check_descent_gd,
    "descent:fb": _check_descent_fb,
    "property:all": _property_checks,
    "equiv:dr_cp": _check_equiv_dr_cp,
    "equiv:dr_admm": _check_equiv_dr_admm,
    "gap:cp_scalar": _check_gap_scalar,
    "gap:cp_tv8": _check_gap_tv,
    "admm:consensus": _check_admm_consensus,
    "recipes:tv_denoise": _check_recipes_tv_denoise,
    "recipes:tv_inverse": _check_recipes_tv_inverse,
    "nonconvex:double_well": _check_nonconvex_double_well,
    "nonconvex:hard_threshold": _check_nonconvex_hard_threshold,
    "km:rotation": _check_km_rotation,
}

CONTROLS = {
    "control:ascending_trace": _control_ascending,
    "control:fake_convex": _control_fake_convex,
    "control:corrupted_adjoint": _control_corrupted_adjoint,
    "control:broken_prox": _control_broken_prox,
}


def expand_checks(names) -> list[str]:
    """Check names with ``all`` expanded to the default suite and
    ``controls`` to the negative controls."""
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(sorted(CHECKS))
        elif name == "controls":
            expanded.extend(sorted(CONTROLS))
        elif name in CHECKS or name in CONTROLS:
            expanded.append(name)
        else:
            raise KeyError(f"unknown check {name!r}")
    return expanded


def _run_check(name: str, seed: int) -> list[CheckReport]:
    # looked up by name at call time, so a forked worker runs the registry as
    # it stood at the fork, patched entries included
    out = (CHECKS.get(name) or CONTROLS[name])(seed)
    return [out] if isinstance(out, CheckReport) else out


def _map_checks(names: list[str], seed: int) -> list[list[CheckReport]]:
    # the checks are independent and deterministic given the seed, so they
    # spread over forked workers, one per usable CPU, with the results in
    # ``names`` order; one CPU, one check or no fork runs them in process,
    # and so does a caller with other threads, which a fork could deadlock
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(names), cpus)
    if workers > 1:
        import multiprocessing
        import threading
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers,
                                     mp_context=multiprocessing.get_context("fork")) as pool:
                return list(pool.map(_run_check, names, [seed] * len(names)))
    return [_run_check(name, seed) for name in names]


def run_checks(names, seed: int = 0) -> list[CheckReport]:
    """Run the named checks; ``all`` expands to the default suite.

    With two or more usable CPUs the checks run in forked worker processes,
    one per CPU; the reports are the same, in the same order, as in process.
    """
    names = expand_checks(names)
    reports = []
    for name, out in zip(names, _map_checks(names, seed)):
        for rep in out:
            rep.check = f"{name}/{rep.check}" if not rep.check.startswith(name) else rep.check
            reports.append(rep)
    return reports
