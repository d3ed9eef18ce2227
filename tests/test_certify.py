import numpy as np
import pytest

from proxsplit.certify import (
    BrokenL1Prox,
    CorruptedAdjoint,
    adjoint_report,
    ascending_trace,
    check_descent_inequality,
    check_fista_bound,
    check_linear_rate,
    check_lyapunov_gd,
    check_pd_gap,
    cp_gap_certificate,
    dr_admm_equivalence,
    dr_cp_equivalence,
    fake_convex_double_well,
    fit_rate,
    kl_monitor,
    property_suite,
    sqrt_decay_certificate,
)
from proxsplit.funcs import (
    BoxIndicator,
    CallableSmooth,
    HardThreshold,
    L1Norm,
    LinfBallIndicator,
    Quadratic,
    SaddleProblem,
    ZeroFn,
)
from proxsplit.linops import DenseOperator, IdentityOperator, ScaleOperator
from proxsplit.solvers import (
    SolverConfig,
    chambolle_pock,
    gradient_descent,
    nonconvex_forward_backward,
)


def quad(dim=1, center=0.0):
    return Quadratic(IdentityOperator(dim), np.full(dim, center))


class TestDescentInequality:
    def test_gd_on_half_square(self):
        f = quad()
        trace = gradient_descent(f, [4.0], SolverConfig(gamma=1.0, max_iter=20))
        rep = check_descent_inequality(trace, f.lipschitz, 1.0, kind="gd")
        assert rep.passed and rep.worst_margin > 0

    def test_constant_trace_at_minimizer(self):
        f = quad()
        trace = gradient_descent(f, [0.0], SolverConfig(gamma=1.0, max_iter=5))
        rep = check_descent_inequality(trace, f.lipschitz, 1.0, kind="gd")
        assert rep.passed

    def test_ascending_control_flagged(self):
        rep = check_descent_inequality(ascending_trace(), 1.0, 1.0, kind="gd")
        assert not rep.passed and rep.n_violations > 0

    def test_fb_constant(self):
        rep = check_descent_inequality(ascending_trace(), 1.0, 0.5, kind="fb")
        assert not rep.passed

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_descent_inequality(ascending_trace(), 1.0, 1.0, kind="xx")


class TestLyapunov:
    def test_monotone_on_quadratic(self):
        f = Quadratic(DenseOperator(np.diag([1.0, 0.5])), np.zeros(2))
        cfg = SolverConfig(gamma=1.0 / f.lipschitz, max_iter=1000, keep_iterates=True)
        trace = gradient_descent(f, [2.0, -1.0], cfg)
        rep = check_lyapunov_gd(trace, f.lipschitz, np.zeros(2), 0.0)
        assert rep.passed

    def test_initial_term_definition(self):
        # S_0 reduces to (L/2)||x0 - x*||^2: verified through the bound at n=1
        f = quad(2)
        cfg = SolverConfig(gamma=1.0, max_iter=3, keep_iterates=True)
        x0 = np.array([1.0, 1.0])
        trace = gradient_descent(f, x0, cfg)
        rep = check_lyapunov_gd(trace, 1.0, np.zeros(2), 0.0)
        assert rep.passed
        # one exact step reaches the optimum: f(x_1) <= (L/2)||x0||^2 / 1
        assert trace.objective[0] <= 0.5 * float(x0 @ x0)

    def test_strongly_convex_also_passes(self):
        f = Quadratic(DenseOperator(np.diag([1.0, np.sqrt(10.0)])),
                      np.zeros(2), strong_convexity=1.0)
        cfg = SolverConfig(gamma=1.0 / f.lipschitz, max_iter=500, keep_iterates=True)
        trace = gradient_descent(f, [1.0, 1.0], cfg)
        rep = check_lyapunov_gd(trace, f.lipschitz, np.zeros(2), 0.0)
        assert rep.passed

    def test_requires_unthinned_trace(self):
        f = quad()
        trace = gradient_descent(f, [1.0], SolverConfig(gamma=0.5, max_iter=10))
        with pytest.raises(ValueError):
            check_lyapunov_gd(trace, 1.0, np.zeros(1), 0.0)


class TestFitRate:
    def test_exact_inverse_n(self):
        series = 1.0 / np.arange(1, 101)
        c, r2 = fit_rate(series, "inv_n")
        assert c == pytest.approx(1.0, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_exact_geometric(self):
        series = 0.9 ** np.arange(1, 60)
        ratio, r2 = fit_rate(series, "geometric")
        assert ratio == pytest.approx(0.9, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-10)

    def test_inverse_n2(self):
        series = 3.0 / np.arange(1, 50) ** 2
        c, _ = fit_rate(series, "inv_n2")
        assert c == pytest.approx(3.0, rel=1e-10)

    def test_zero_suffix_cut(self):
        series = np.array([1.0, 0.5, 0.25, 0.0, 0.0])
        ratio, _ = fit_rate(series, "geometric")
        assert ratio == pytest.approx(0.5, rel=1e-10)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.5], "cubic")


def scalar_saddle():
    return SaddleProblem(
        K=ScaleOperator(1.0, 1),
        g=quad(),
        f_conj=LinfBallIndicator(1.0),
        f_primal=L1Norm(1.0),
    )


class TestPartialGap:
    def test_zero_at_analytic_saddle(self):
        prob = scalar_saddle()
        gap = check_pd_gap(prob, np.zeros(1), np.zeros(1), (-2.0, 2.0), (-1.0, 1.0))
        assert abs(gap) <= 1e-12

    def test_positive_away_from_saddle(self):
        prob = scalar_saddle()
        gap = check_pd_gap(prob, np.array([1.5]), np.array([0.5]),
                           (-2.0, 2.0), (-1.0, 1.0))
        assert gap > 0.1

    def test_small_after_convergence(self):
        prob = scalar_saddle()
        trace = chambolle_pock(prob, np.array([1.5]), np.array([0.5]),
                               SolverConfig(max_iter=2000))
        gap = check_pd_gap(prob, trace.x, trace.meta["y"], (-2.0, 2.0), (-1.0, 1.0))
        assert 0.0 <= gap + 1e-12 <= 1e-6

    def test_rejects_functions_without_box_oracle(self):
        # a shifted quadratic has no closed-form conjugate here, so its
        # conjugate prox is a Moreau wrapper without the box oracle
        bad = SaddleProblem(K=IdentityOperator(1), g=L1Norm(1.0),
                            f_conj=quad(center=1.0).conjugate())
        with pytest.raises(ValueError):
            check_pd_gap(bad, np.zeros(1), np.zeros(1), (-1, 1), (-1, 1))

    @pytest.mark.parametrize("g", [L1Norm(1.0), BoxIndicator(-1.0, 1.0), ZeroFn()],
                             ids=["l1", "box", "zero"])
    def test_rejects_g_without_box_oracle(self, g):
        # only a diagonal Quadratic and the l-inf ball carry the box oracle
        prob = SaddleProblem(K=IdentityOperator(1), g=g, f_conj=LinfBallIndicator(1.0))
        with pytest.raises(ValueError, match=type(g).__name__):
            check_pd_gap(prob, np.zeros(1), np.zeros(1), (-1.0, 1.0), (-1.0, 1.0))

    def test_gap_certificate_bound(self):
        prob = scalar_saddle()
        rep = cp_gap_certificate(prob, np.array([1.5]), np.array([0.5]),
                                 SolverConfig(sigma=0.9, tau=0.9),
                                 horizons=(10, 100, 1000),
                                 saddle=(np.zeros(1), np.zeros(1)),
                                 box1=(-2.0, 2.0), box2=(-1.0, 1.0))
        assert rep.passed
        gaps = [d["gap"] for d in rep.details]
        bounds = [d["bound"] for d in rep.details]
        assert all(g <= b for g, b in zip(gaps, bounds))
        assert gaps[0] > gaps[-1]  # ergodic gap shrinks with the horizon

    def test_gap_certificate_runs_to_every_horizon(self):
        # started at the saddle, a run that stops at a fixed point would end
        # at n = 1; the certificate needs the averages at every horizon
        prob = scalar_saddle()
        rep = cp_gap_certificate(prob, np.zeros(1), np.zeros(1),
                                 SolverConfig(sigma=0.9, tau=0.9, stop_at_fixed_point=True),
                                 horizons=(10, 100), saddle=(np.zeros(1), np.zeros(1)),
                                 box1=(-2.0, 2.0), box2=(-1.0, 1.0))
        assert rep.passed
        assert [d["N"] for d in rep.details] == [10, 100]

    def test_gap_certificate_unreached_horizon_is_a_violation(self):
        # an objective past the divergence cap ends the run at n = 1
        base = scalar_saddle()
        prob = SaddleProblem(K=base.K, g=base.g, f_conj=base.f_conj,
                             primal_objective=lambda x: 1e13)
        rep = cp_gap_certificate(prob, np.array([1.5]), np.array([0.5]),
                                 SolverConfig(sigma=0.9, tau=0.9),
                                 horizons=(10, 100), saddle=(np.zeros(1), np.zeros(1)),
                                 box1=(-2.0, 2.0), box2=(-1.0, 1.0))
        assert not rep.passed
        assert rep.n_violations == 2 and rep.worst_margin == -np.inf
        assert [(d["N"], d["gap"]) for d in rep.details] == [(10, None), (100, None)]


class TestEquivalences:
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_dr_cp_scalar(self, gamma):
        rep = dr_cp_equivalence(L1Norm(1.0), quad(center=3.0), gamma,
                                np.array([0.5]), np.array([-1.0]), iters=50)
        assert rep.passed
        assert rep.details[0]["max_defect"] <= 1e-12

    def test_dr_cp_initial_consistency(self):
        rep = dr_cp_equivalence(quad(center=1.0), quad(center=3.0), 1.0,
                                np.array([0.0]), np.array([0.0]), iters=1)
        assert rep.details[0]["max_defect"] <= 1e-15

    def test_dr_cp_is_falsifiable(self):
        # breaking the extrapolation breaks the mapping: rerun the algebra
        # with xbar = x and watch the defect blow up
        from proxsplit.funcs import ConjugateProx

        f = quad(center=1.0)
        g = quad(center=3.0)
        gamma = 0.7
        sigma = 1.0 / gamma
        v = np.array([0.5]); w = np.array([-1.0])
        f_conj = ConjugateProx(f)
        xc = v.copy(); xc_prev = v.copy(); yc = (v - w) / gamma
        worst = 0.0
        for _ in range(20):
            xbar = xc  # deliberately wrong
            yc = f_conj.prox(yc + sigma * xbar, sigma)
            xc_new = g.prox(xc - gamma * yc, gamma)
            w_new = w + f.prox(2 * v - w, gamma) - v
            v_new = g.prox(w_new, gamma)
            worst = max(worst, float(np.max(np.abs(xc_new - v_new))))
            xc_prev, xc = xc, xc_new
            v, w = v_new, w_new
        assert worst > 1e-3

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_dr_admm_identity_coupling(self, gamma):
        f = Quadratic(DenseOperator(np.diag([1.5, 0.8])), np.array([1.0, -2.0]))
        g = Quadratic(IdentityOperator(2), np.array([0.5, 1.0]))
        rep = dr_admm_equivalence(f, g, IdentityOperator(2), gamma, iters=50,
                                  w0=np.array([0.3, -0.7]))
        assert rep.passed

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_dr_admm_diagonal_coupling(self, gamma):
        f = Quadratic(DenseOperator(np.diag([1.5, 0.8])), np.array([1.0, -2.0]))
        g = Quadratic(IdentityOperator(2), np.array([0.5, 1.0]))
        K = DenseOperator(np.diag([1.0, 2.0]))
        rep = dr_admm_equivalence(f, g, K, gamma, iters=50,
                                  w0=np.array([0.3, -0.7]))
        assert rep.passed

    def test_dr_admm_l1_with_diagonal(self):
        rep = dr_admm_equivalence(L1Norm(0.7), quad(2, 1.0),
                                  DenseOperator(np.diag([2.0, 0.5])), 1.0,
                                  iters=50, w0=np.array([1.0, -1.0]))
        assert rep.passed

    def test_dr_admm_rejects_rank_deficient(self):
        f = quad(2)
        g = quad(2)
        K = DenseOperator(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            dr_admm_equivalence(f, g, K, 1.0)

    def test_long_horizon_linear_tolerance(self):
        # the defect budget grows linearly: 1e-6 at 5000 iterations
        rep = dr_cp_equivalence(L1Norm(1.0), quad(center=3.0), 1.0,
                                np.array([0.5]), np.array([-1.0]), iters=5000)
        assert rep.passed
        assert rep.details[0]["tolerance"] == pytest.approx(1e-6)
        assert rep.details[0]["max_defect"] <= 1e-6


class TestPropertySuite:
    def test_l1_all_pass(self):
        rep = property_suite(L1Norm(1.0), 5, trials=200, seed=0)
        assert rep.passed
        names = {d["property"] for d in rep.details}
        assert {"firm_nonexpansive_prox", "rprox_nonexpansive",
                "moreau_identity", "minimizer_fixed_point"} <= names

    def test_quadratic_smooth_all_pass(self):
        rep = property_suite(quad(4), 4, trials=200, seed=1)
        assert rep.passed
        names = {d["property"] for d in rep.details}
        assert {"descent_lemma", "cocoercivity",
                "gradient_finite_difference"} <= names

    def test_fake_convex_control_fails_cocoercivity(self):
        rep = property_suite(fake_convex_double_well(), 1, trials=200, seed=0)
        assert not rep.passed
        failing = {d["property"] for d in rep.details if not d["pass"]}
        assert "cocoercivity" in failing

    def test_broken_prox_control_fails(self):
        rep = property_suite(BrokenL1Prox(1.0), 4, trials=100, seed=0)
        assert not rep.passed

    def test_hard_threshold_nonconvex_subset(self):
        rep = property_suite(HardThreshold(1.0), 4, trials=100, seed=0)
        assert rep.passed
        names = {d["property"] for d in rep.details}
        assert "prox_optimality_vs_input" in names
        assert "firm_nonexpansive_prox" not in names

    def test_nan_margins_are_counted_as_violations(self):
        # a NaN value leaves every descent-lemma and finite-difference margin
        # NaN; cocoercivity reads only the gradient and holds
        nan_valued = CallableSmooth(lambda x: float("nan"), lambda x: x, lipschitz=1.0)
        rep = property_suite(nan_valued, 3, trials=10, seed=0)
        assert not rep.passed
        assert [(d["property"], d["n_violations"]) for d in rep.details] == [
            ("descent_lemma", 10), ("cocoercivity", 0), ("gradient_finite_difference", 10)]
        assert rep.n_violations == 20

    def test_reports_deterministic(self):
        r1 = property_suite(L1Norm(0.5), 4, trials=50, seed=3)
        r2 = property_suite(L1Norm(0.5), 4, trials=50, seed=3)
        assert r1.to_dict() == r2.to_dict()


class TestMonitors:
    def _double_well_trace(self):
        from proxsplit.funcs import CallableSmooth
        f = CallableSmooth(lambda x: float(np.sum(0.25 * (x ** 2 - 1) ** 2)),
                           lambda x: x ** 3 - x, lipschitz=6.0, convex=False)
        cfg = SolverConfig(gamma=0.1, max_iter=2000)
        return nonconvex_forward_backward(f, ZeroFn(), [0.5], cfg), 0.1, 6.0

    def test_double_well_monitors(self):
        trace, gamma, L = self._double_well_trace()
        rep = kl_monitor(trace, gamma, L)
        assert rep.passed

    def test_hard_threshold_monitors(self):
        f = quad(center=3.0)
        trace = nonconvex_forward_backward(f, HardThreshold(1.0), [0.0],
                                           SolverConfig(gamma=0.5, max_iter=500))
        assert kl_monitor(trace, 0.5, 1.0).passed

    def test_convex_run_same_inequality(self):
        f = quad(2)
        trace = nonconvex_forward_backward(f, L1Norm(0.5), [2.0, -1.0],
                                           SolverConfig(gamma=0.5, max_iter=200))
        assert kl_monitor(trace, 0.5, 1.0).passed

    def test_sqrt_decay_bound(self):
        trace, gamma, L = self._double_well_trace()
        rep = sqrt_decay_certificate(trace, gamma, L, horizons=(100, 1000))
        assert rep.passed
        assert all("scaled_constant" in d for d in rep.details)

    def test_monitor_requires_monitored_trace(self):
        f = quad()
        trace = gradient_descent(f, [1.0], SolverConfig(gamma=1.0, max_iter=5))
        with pytest.raises(ValueError):
            kl_monitor(trace, 1.0, 1.0)


class TestControls:
    def test_corrupted_adjoint_flagged(self):
        rng = np.random.default_rng(0)
        rep = adjoint_report(CorruptedAdjoint(rng.standard_normal((5, 5))),
                             trials=20, seed=1)
        assert not rep.passed

    def test_reports_serializable(self):
        import json
        rep = check_descent_inequality(ascending_trace(), 1.0, 1.0)
        payload = json.dumps(rep.to_dict())
        assert "worst_margin" in payload


class TestRateBounds:
    def test_linear_rate_certificate(self):
        f = Quadratic(DenseOperator(np.diag([1.0, np.sqrt(10.0)])),
                      np.zeros(2), strong_convexity=1.0)
        trace = gradient_descent(f, [1.0, 1.0],
                                 SolverConfig(gamma=1.0 / f.lipschitz, max_iter=500))
        rep = check_linear_rate(trace.objective_path(), 0.0, 0.9)
        assert rep.passed

    def test_linear_rate_flags_slow_run(self):
        f = Quadratic(DenseOperator(np.diag([1.0, np.sqrt(10.0)])),
                      np.zeros(2), strong_convexity=1.0)
        trace = gradient_descent(f, [1.0, 1.0],
                                 SolverConfig(gamma=0.01, max_iter=200))
        rep = check_linear_rate(trace.objective_path(), 0.0, 0.5)
        assert not rep.passed  # demanded ratio is unattainably fast

    def test_nan_margin_is_a_violation(self):
        # a NaN objective certifies nothing
        rep = check_linear_rate([1.0, float("nan"), 0.5], 0.0, 0.9)
        assert not rep.passed and rep.n_violations == 1

    def test_fista_bound_shape(self):
        x_star = np.zeros(2)
        path = [1.0] + [2.0 / (n + 1) ** 2 for n in range(1, 50)]
        rep = check_fista_bound(path, 0.0, 1.0, np.array([1.0, 1.0]), x_star)
        assert rep.passed

    def test_fista_beta_variant_envelope(self):
        # the (n-1)/(n-1+beta) coefficient family, run at beta = 4, obeys the
        # looser (beta+1)/(2 gamma (n+1)^2) envelope
        from proxsplit.suite import lasso_diag_fixture

        inst = lasso_diag_fixture(0)
        f = inst.metadata["f"]
        gamma = 1.0 / f.lipschitz
        beta = 4.0
        trace, _ = inst.run("fista_beta", SolverConfig(max_iter=3000))
        j_star = inst.ground_truth["objective"]
        x_star = inst.ground_truth["x"]
        d0 = float(np.sum(x_star ** 2))
        path = trace.objective_path()
        for n in range(1, len(path)):
            bound = (beta + 1.0) * d0 / (2.0 * gamma * (n + 1) ** 2)
            assert path[n] - j_star <= bound + 1e-9

    def test_fista_bound_on_dense_problem(self):
        # no strong convexity here: the 1/(n+1)^2 envelope is the live bound;
        # the reference optimum comes from a much longer accelerated run
        from proxsplit.suite import lasso_dense_fixture

        inst = lasso_dense_fixture(0)
        f = inst.metadata["f"]
        gamma = 1.0 / f.lipschitz
        _, x_ref = inst.run("fista", SolverConfig(max_iter=50_000))
        j_star = inst.objective(x_ref)
        trace, _ = inst.run("fista", SolverConfig(max_iter=3000))
        rep = check_fista_bound(trace.objective_path(), j_star, gamma,
                                np.zeros(x_ref.size), x_ref)
        assert rep.passed
        constant, _ = fit_rate(np.maximum(trace.objective - j_star, 0.0),
                               "inv_n2")
        theorem = 2.0 * float(np.sum(x_ref ** 2)) / gamma
        assert constant <= 1.05 * theorem
