"""Named certification checks over shipped fixtures.

The registry maps check names to callables ``check(seed) -> CheckReport`` or
a list of reports.  The default suite is every non-control check; controls
are deliberately broken fixtures that must fail, proving the certifier can
reject bad oracles.
"""
from __future__ import annotations

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
    CallableSmooth,
    ConsensusIndicator,
    HardThreshold,
    L1Norm,
    L1Residual,
    LinfBallIndicator,
    OrthogonalComposition,
    Quadratic,
    SaddleProblem,
    ZeroFn,
)
from .linops import DenseOperator, IdentityOperator, ImageGrid, ScaleOperator
from .problems import build_lasso, build_tv_denoise, build_tv_inverse
from .solvers import (
    SolverConfig,
    admm,
    chambolle_pock,
    forward_backward,
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
    from .funcs import soft_threshold
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
    grid = ImageGrid(data["rows"], data["cols"], data["y"])
    return build_tv_denoise(grid, lam)


def tv_inverse_fixture(rows: int = 8, lam: float = 0.05, seed: int = 5):
    data = generate_synthetic("step_image", (rows, rows), sigma=0.0, seed=seed)
    mask = generate_synthetic("mask_pattern", rows * rows, seed=seed + 1)
    from .linops import MaskOperator
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


def double_well(lipschitz: float = 6.0):
    """f(x) = (x^2-1)^2/4 with the Lipschitz constant valid on [-1.5, 1.5]."""
    return CallableSmooth(
        lambda x: float(np.sum(0.25 * (x ** 2 - 1.0) ** 2)),
        lambda x: x ** 3 - x,
        lipschitz=lipschitz,
        convex=False,
    )


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


def _check_gd_sublinear(seed: int) -> CheckReport:
    f, x0, x_star, f_star = singular_quadratic_fixture()
    cfg = SolverConfig(gamma=1.0 / f.lipschitz, max_iter=10_000, keep_iterates=True)
    trace = gradient_descent(f, x0, cfg)
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


def _check_fista_rate(seed: int) -> CheckReport:
    inst = lasso_diag_fixture(seed)
    f = inst.metadata["f"]
    gamma = 1.0 / f.lipschitz
    trace, _ = inst.run("fista", SolverConfig(max_iter=10_000))
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
    ref_cfg = SolverConfig(sigma=0.9 / norm_k, tau=0.9 / norm_k, max_iter=20_000)
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
    from .funcs import soft_threshold
    cfg = SolverConfig(gamma=1.0, max_iter=5000)
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


def _recipe_agreement(inst, recipes, cfg_map=None, tol=1e-4) -> CheckReport:
    values = {}
    for name in recipes:
        cfg = (cfg_map or {}).get(name)
        _, x = inst.run(name, cfg)
        values[name] = inst.objective(x)
    best = min(values.values())
    scale = max(abs(best), 1e-12)
    margins = [tol - (v - best) / scale for v in values.values()]
    details = [{"recipe": k, "objective": v, "rel_gap": (v - best) / scale}
               for k, v in sorted(values.items())]
    return certify._report_from_margins(f"cross_recipe_{inst.name}",
                                        ",".join(recipes), margins, details)


def _check_recipes_tv_denoise(seed: int) -> CheckReport:
    inst = tv_denoise_fixture()
    # ppxa is left out: on this instance it runs the dr_split iteration float
    # for float
    return _recipe_agreement(inst, ["dr_split", "cp", "dual_fb", "condat"],
                             cfg_map={"cp": SolverConfig(max_iter=6000),
                                      "condat": SolverConfig(max_iter=6000),
                                      "dual_fb": SolverConfig(max_iter=6000)})


def _check_recipes_tv_inverse(seed: int) -> CheckReport:
    inst = tv_inverse_fixture()
    return _recipe_agreement(inst, ["condat", "cp2"],
                             cfg_map={"condat": SolverConfig(max_iter=8000),
                                      "cp2": SolverConfig(max_iter=8000)})


def _nonconvex_reports(f, g, x0, gamma: float, instance: str) -> list[CheckReport]:
    cfg = SolverConfig(gamma=gamma, max_iter=10_000)
    trace = nonconvex_forward_backward(f, g, x0, cfg)
    return [
        kl_monitor(trace, gamma, f.lipschitz, instance=instance),
        sqrt_decay_certificate(trace, gamma, f.lipschitz, instance=instance),
    ]


def _check_nonconvex_double_well(seed: int) -> list[CheckReport]:
    return _nonconvex_reports(double_well(), ZeroFn(), np.array([0.5]), 0.1,
                              "double_well")


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


def run_checks(names, seed: int = 0) -> list[CheckReport]:
    """Run the named checks; ``all`` expands to the default suite."""
    reports = []
    for name in expand_checks(names):
        fn = CHECKS.get(name) or CONTROLS[name]
        out = fn(seed)
        if isinstance(out, CheckReport):
            out = [out]
        for rep in out:
            rep.check = f"{name}/{rep.check}" if not rep.check.startswith(name) else rep.check
            reports.append(rep)
    return reports
