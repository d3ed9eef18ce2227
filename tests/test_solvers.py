import dataclasses
import hashlib
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxsplit.funcs import (
    BoxIndicator,
    CallableSmooth,
    HardThreshold,
    L1Norm,
    LinfBallIndicator,
    ProxFn,
    Quadratic,
    SaddleProblem,
    SeparableProx,
    ZeroFn,
)
from proxsplit.linops import (
    AdjointOperator,
    DenseOperator,
    DimensionError,
    Grad2D,
    IdentityOperator,
    LinearOperator,
    ScaleOperator,
    StackOperator,
)
from proxsplit.problems import build_lasso
from proxsplit.solvers import (
    DIVERGED,
    DIVERGENCE_CAP,
    ITER_CAP,
    TOL_REACHED,
    ConfigError,
    DecreaseViolation,
    SolverConfig,
    _fista_t_coefs,
    _norm,
    _Recorder,
    _same_bytes,
    _validate_pd_steps,
    admm,
    arrow_hurwicz,
    chambolle_pock,
    condat,
    douglas_rachford,
    forward_backward,
    gradient_descent,
    krasnoselskii_mann,
    nonconvex_forward_backward,
    ppxa,
    projected_gradient,
    proximal_point,
)
from proxsplit.suite import (
    lasso_dense_fixture,
    lasso_diag_fixture,
    tv_denoise_fixture,
    tv_inverse_fixture,
)


def half_square(dim=1):
    return Quadratic(IdentityOperator(dim), np.zeros(dim))


def anisotropic():
    return Quadratic(DenseOperator(np.diag([1.0, np.sqrt(10.0)])),
                     np.zeros(2), strong_convexity=1.0)


def _record(rec, x_new, x_prev, objective):
    # one row whose residual is the step from x_prev, as a loop forms it
    return rec.record(x_new, objective, _norm(x_new - x_prev))


class TestGradientDescent:
    def test_one_exact_step(self):
        trace = gradient_descent(half_square(), [5.0],
                                 SolverConfig(gamma=1.0, max_iter=1))
        assert trace.x == pytest.approx([0.0])
        assert trace.objective[0] == pytest.approx(0.0)

    def test_hand_step_and_linear_bound(self):
        f = anisotropic()
        trace = gradient_descent(f, [1.0, 1.0], SolverConfig(gamma=0.1, max_iter=1,
                                                            keep_iterates=True))
        assert np.allclose(trace.iterates[1], [0.9, 0.0])
        assert trace.objective[0] == pytest.approx(0.405)
        assert trace.objective[0] <= 0.9 * f.value(np.array([1.0, 1.0]))

    def test_stepsize_guard(self):
        with pytest.raises(ConfigError):
            gradient_descent(half_square(), [1.0], SolverConfig(gamma=2.0))

    def test_divergence_guard(self):
        # declared Lipschitz constant far below the truth: iterates blow up
        wrong = CallableSmooth(lambda x: 50.0 * float(x @ x),
                               lambda x: 100.0 * x, lipschitz=1.0)
        trace = gradient_descent(wrong, [1.0], SolverConfig(gamma=1.9, max_iter=100))
        assert trace.termination == DIVERGED

    def test_max_iter_zero_empty_trace(self):
        trace = gradient_descent(half_square(), [1.0], SolverConfig(max_iter=0))
        assert trace.n_iter == 0
        assert trace.termination == ITER_CAP


class TestProjectedGradient:
    def test_box_constrained_quadratic(self):
        f = Quadratic(IdentityOperator(2), np.array([2.0, 2.0]))
        box = BoxIndicator(0.0, 1.0)
        trace = projected_gradient(f, box, np.zeros(2),
                                   SolverConfig(gamma=1.0, max_iter=200))
        assert np.allclose(trace.x, [1.0, 1.0], atol=1e-10)
        # variational inequality at the solution over sampled feasible points
        rng = np.random.default_rng(0)
        g = f.grad(trace.x)
        for _ in range(100):
            y = rng.uniform(0.0, 1.0, size=2)
            assert float(g @ (y - trace.x)) >= -1e-6

    def test_fixed_point_start(self):
        f = Quadratic(IdentityOperator(2), np.array([0.5, 0.5]))
        box = BoxIndicator(0.0, 1.0)
        trace = projected_gradient(f, box, np.array([0.5, 0.5]),
                                   SolverConfig(gamma=1.0, max_iter=3))
        assert trace.residual[0] == 0.0

    def test_whole_space_matches_gradient_descent(self):
        f = anisotropic()
        cfg = SolverConfig(gamma=0.1, max_iter=40)
        free = BoxIndicator(-1e18, 1e18)
        t1 = projected_gradient(f, free, np.array([1.0, -2.0]), cfg)
        t2 = gradient_descent(f, np.array([1.0, -2.0]), cfg)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.residual, t2.residual)


class TestProximalPoint:
    def test_l1_walk(self):
        trace = proximal_point(L1Norm(1.0), [10.0],
                               SolverConfig(gamma=1.0, max_iter=15, keep_iterates=True))
        vals = [float(it[0]) for it in trace.iterates]
        assert vals[:11] == pytest.approx([10.0 - k for k in range(11)])
        assert vals[-1] == pytest.approx(0.0)

    def test_minimizer_is_fixed(self):
        trace = proximal_point(L1Norm(1.0), [0.0], SolverConfig(max_iter=5))
        assert np.all(trace.residual == 0.0)

    def test_quadratic_halving(self):
        trace = proximal_point(half_square(), [8.0],
                               SolverConfig(gamma=1.0, max_iter=3, keep_iterates=True))
        assert [float(v[0]) for v in trace.iterates] == pytest.approx([8, 4, 2, 1])

    def test_decrease_margin_nonnegative(self):
        trace = proximal_point(L1Norm(1.0), [3.7], SolverConfig(max_iter=10))
        assert np.all(trace.extras["prox_decrease_margin"] >= -1e-12)

    def test_one_value_per_iterate(self, monkeypatch):
        # g(x_n) is carried to the next margin, not evaluated again
        calls = []
        original = L1Norm._value
        monkeypatch.setattr(L1Norm, "_value", lambda self, x: calls.append(1) or original(self, x))
        trace = proximal_point(L1Norm(1.0), [10.0], SolverConfig(gamma=1.0, max_iter=5))
        assert trace.n_iter == 5
        assert len(calls) == 6


class TestForwardBackward:
    def test_zero_g_matches_gradient_descent(self):
        f = anisotropic()
        cfg = SolverConfig(gamma=0.1, max_iter=30)
        t1 = forward_backward(f, ZeroFn(), np.array([1.0, 1.0]), cfg)
        t2 = gradient_descent(f, np.array([1.0, 1.0]), cfg)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.objective, t2.objective)

    def test_lasso_identity_closed_form(self):
        f = Quadratic(IdentityOperator(2), np.array([3.0, 0.5]))
        trace = forward_backward(f, L1Norm(1.0), np.zeros(2),
                                 SolverConfig(gamma=1.0, max_iter=100))
        assert np.allclose(trace.x, [2.0, 0.0], atol=1e-10)

    def test_fista_t_sequence(self):
        f = half_square(2)
        trace = forward_backward(f, L1Norm(0.1), np.array([2.0, -1.0]),
                                 SolverConfig(gamma=1.0, inertia="fista_t",
                                              max_iter=3))
        t2 = (1.0 + np.sqrt(5.0)) / 2.0  # successor of t1 = 1
        t3 = (1.0 + np.sqrt(1.0 + 4.0 * t2 * t2)) / 2.0
        assert t2 == pytest.approx(1.6180, abs=1e-4)
        coefs = trace.extras["inertia_coef"]
        assert coefs[0] == 0.0  # (t1 - 1)/t2 with t1 = 1
        assert coefs[1] == pytest.approx((t2 - 1.0) / t3)

    def test_t_recurrence_identity(self):
        t = 1.0
        for _ in range(50):
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            assert abs(t_next ** 2 - t_next - t ** 2) <= 1e-10 * max(1.0, t ** 2)
            t = t_next

    def test_inertia_needs_small_step(self):
        with pytest.raises(ConfigError):
            forward_backward(half_square(), L1Norm(1.0), [1.0],
                             SolverConfig(gamma=1.5, inertia="fista_t"))

    def test_vfista_needs_modulus(self):
        f = Quadratic(DenseOperator(np.diag([1.0, 2.0])), np.zeros(2))
        with pytest.raises(ConfigError):
            forward_backward(f, L1Norm(1.0), np.zeros(2),
                             SolverConfig(inertia="vfista"))

    def test_fista_beats_fb_after_burn_in(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((12, 20)) / np.sqrt(12)
        f = Quadratic(DenseOperator(A), rng.standard_normal(12))
        g = L1Norm(0.1)
        cfg = SolverConfig(max_iter=300, gamma=1.0 / f.lipschitz)
        fb = forward_backward(f, g, np.zeros(20), cfg)
        fista = forward_backward(f, g, np.zeros(20),
                                 dataclasses.replace(cfg, inertia="fista_t"))
        assert np.all(fista.objective[5:] <= fb.objective[5:] + 1e-12)


class TestNonconvexForwardBackward:
    def test_double_well_reaches_stationary_point(self):
        f = CallableSmooth(lambda x: float(np.sum(0.25 * (x ** 2 - 1) ** 2)),
                           lambda x: x ** 3 - x, lipschitz=6.0, convex=False)
        trace = nonconvex_forward_backward(f, ZeroFn(), [0.5],
                                           SolverConfig(gamma=0.1, max_iter=500))
        assert trace.x == pytest.approx([1.0], abs=1e-6)
        assert abs(f.grad(trace.x)[0]) <= 1e-6

    def test_hard_threshold_margins_nonnegative(self):
        f = Quadratic(IdentityOperator(1), np.array([3.0]))
        trace = nonconvex_forward_backward(f, HardThreshold(1.0), [0.0],
                                           SolverConfig(gamma=0.5, max_iter=200))
        assert np.all(trace.extras["h1_margin"] >= -1e-8)
        assert trace.x == pytest.approx([3.0], abs=1e-8)

    def test_convex_instance_matches_forward_backward_exactly(self):
        f = Quadratic(IdentityOperator(3), np.array([1.0, -2.0, 0.5]))
        g = L1Norm(0.3)
        cfg = SolverConfig(gamma=0.5, max_iter=60)
        t1 = forward_backward(f, g, np.zeros(3), cfg)
        t2 = nonconvex_forward_backward(f, g, np.zeros(3), cfg)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.objective, t2.objective)
        assert np.array_equal(t1.residual, t2.residual)

    def test_weakly_convex_stepsize_relaxation(self):
        f = Quadratic(IdentityOperator(1), np.array([1.0]))
        # gamma = 1.2 violates gamma < 1/L but passes 2/(L + 0.1)
        with pytest.raises(ConfigError):
            nonconvex_forward_backward(f, L1Norm(1.0), [0.0],
                                       SolverConfig(gamma=1.2, max_iter=5))
        trace = nonconvex_forward_backward(f, L1Norm(1.0), [0.0],
                                           SolverConfig(gamma=1.2, max_iter=5),
                                           weak_convexity=0.1)
        assert trace.n_iter == 5

    def test_stepsize_guard(self):
        f = half_square()
        with pytest.raises(ConfigError):
            nonconvex_forward_backward(f, ZeroFn(), [1.0], SolverConfig(gamma=1.0))


def _lasso(fixture):
    inst = fixture()
    f, g = inst.metadata["f"], inst.metadata["g"]
    return f, g, np.zeros(f.dim)


def _direct_objective(f, g):
    # f + g of a point, its A x formed anew
    return lambda z: f._value(z) + g._value(z)


class BrokenProx(ProxFn):
    """l1 value with a prox that moves every point by +0.3: not a prox, so
    the decrease monitor must catch it."""

    def _value(self, x):
        return float(np.abs(x).sum())

    def _prox(self, x, gamma):
        return x + 0.3


class TestOneForwardProduct:
    # a Quadratic f makes one forward product per iteration; the row of x_n
    # is recorded one iteration late, its A x_n recombined from that product

    @pytest.mark.parametrize("inertia", ["none", "fista_t", "fista_beta"])
    def test_products_per_run(self, inertia, monkeypatch):
        f, g, x0 = _lasso(lasso_dense_fixture)
        f.lipschitz  # the norm, before the spy
        calls = {"_apply": 0, "_adjoint": 0}
        for name in calls:
            original = getattr(DenseOperator, name)

            def counted(self, v, name=name, original=original):
                calls[name] += 1
                return original(self, v)

            monkeypatch.setattr(DenseOperator, name, counted)
        trace = forward_backward(f, g, x0, SolverConfig(max_iter=50, inertia=inertia))
        assert trace.n_iter == 50
        # objective0, one per iteration, and the last row's direct product
        assert calls == {"_apply": 52, "_adjoint": 50}

    def test_an_explicit_objective_skips_the_last_product(self, monkeypatch):
        # dual_fb reports objective(x) directly, so its record-only last pass
        # forms no A y
        inst = tv_denoise_fixture()
        calls = []
        original = AdjointOperator._apply
        monkeypatch.setattr(AdjointOperator, "_apply",
                            lambda self, v: calls.append(1) or original(self, v))
        trace, _ = inst.run("dual_fb", SolverConfig(max_iter=10))
        assert trace.n_iter == 10
        assert len(calls) == 10

    @pytest.mark.parametrize("fixture", [lasso_dense_fixture, lasso_diag_fixture])
    def test_plain_rows_are_the_direct_objective(self, fixture):
        f, g, x0 = _lasso(fixture)
        cfg = SolverConfig(max_iter=200, keep_iterates=True)
        direct = _direct_objective(f, g)
        # the monitor's margins read the same rows
        monitored = nonconvex_forward_backward(
            f, g, x0, dataclasses.replace(cfg, gamma=0.9 / f.lipschitz))
        for trace in (forward_backward(f, g, x0, cfg), monitored):
            rows = np.array([direct(z) for z in trace.iterates])
            assert trace.objective_path().tobytes() == rows.tobytes()

    def test_override_rows_are_the_override(self):
        inst = tv_denoise_fixture()
        y, grad = inst.metadata["y"], inst.metadata["grad"]
        trace, _ = inst.run("dual_fb", SolverConfig(max_iter=200, keep_iterates=True))
        rows = np.array([inst.objective(y + grad._adjoint(p)) for p in trace.iterates])
        assert trace.objective_path().tobytes() == rows.tobytes()

    @pytest.mark.parametrize("fixture,inertia", [
        (lasso_dense_fixture, "fista_t"), (lasso_dense_fixture, "fista_beta"),
        (lasso_diag_fixture, "fista_t"), (lasso_diag_fixture, "fista_beta"),
        (lasso_diag_fixture, "vfista")])
    def test_inertial_rows_agree_with_the_direct_objective(self, fixture, inertia):
        f, g, x0 = _lasso(fixture)
        trace = forward_backward(f, g, x0, SolverConfig(max_iter=300, inertia=inertia,
                                                        keep_iterates=True))
        direct = _direct_objective(f, g)
        rows = np.array([direct(z) for z in trace.iterates])
        path = trace.objective_path()
        assert path[0] == rows[0] and path[-1] == rows[-1]  # direct products
        assert np.all(np.abs(path - rows) <= 1e-14 * np.abs(rows))

    @pytest.mark.parametrize("max_iter", [0, 1])
    @pytest.mark.parametrize("inertia", ["none", "fista_t", "vfista"])
    def test_shortest_runs(self, inertia, max_iter):
        f, g, x0 = _lasso(lasso_diag_fixture)
        trace = forward_backward(f, g, x0, SolverConfig(max_iter=max_iter, inertia=inertia,
                                                        keep_iterates=True))
        longer = forward_backward(f, g, x0, SolverConfig(max_iter=5, inertia=inertia,
                                                         keep_iterates=True))
        direct = _direct_objective(f, g)
        assert trace.n_iter == max_iter and trace.termination == ITER_CAP
        assert trace.objective_path().tobytes() == np.array(
            [direct(z) for z in longer.iterates[:max_iter + 1]]).tobytes()
        assert trace.x.tobytes() == longer.iterates[max_iter].tobytes()
        assert trace.residual.tobytes() == longer.residual[:max_iter].tobytes()

    def test_gap_stop_is_unmoved(self):
        # the stop of the parent of the one-product loop: same n, same x bytes
        inst = lasso_dense_fixture()
        trace, _ = inst.run("fista", SolverConfig(gap_tol=1e-10))
        assert trace.termination == TOL_REACHED and trace.n_iter == 535
        assert hashlib.sha256(trace.x.tobytes()).hexdigest().startswith("0cf9e6333813aa42")
        assert trace.meta["gap"] <= 1e-10 * (1.0 + abs(trace.objective[-1]))
        # and the first row where the gap with the direct objective is small
        full, _ = inst.run("fista", SolverConfig(max_iter=535, keep_iterates=True,
                                                 gap_tol=1e-300))
        f, g = inst.metadata["f"], inst.metadata["g"]
        gaps = full.extras["gap"]
        small = [gap <= 1e-10 * (1.0 + abs(f._value(z) + g._value(z)))
                 for gap, z in zip(gaps, full.iterates[1:])]
        assert small.index(True) == 534

    @pytest.mark.parametrize("inertia", ["none", "fista_t", "fista_beta"])
    def test_divergence_stops_before_the_next_prox(self, inertia):
        f, _, x0 = _lasso(lasso_dense_fixture)
        g = NaNAfter(L1Norm(0.1), k=4)
        trace = forward_backward(f, g, x0, SolverConfig(max_iter=50, inertia=inertia))
        assert trace.termination == DIVERGED and trace.n_iter == 4
        assert g.calls == 4

    def test_decrease_violation_at_the_same_iteration(self):
        f, _, x0 = _lasso(lasso_dense_fixture)
        g = BrokenProx()
        gamma = 0.9 / f.lipschitz
        # the first failing margin, from the iterates and objectives formed anew
        a = 1.0 / (2.0 * gamma) - f.lipschitz / 2.0
        x, j = x0, f._value(x0) + g._value(x0)
        for n in range(1, 100):
            x_new = g._prox(x - gamma * f._grad(x), gamma)
            j_new = f._value(x_new) + g._value(x_new)
            if j - j_new - a * float(np.sum((x_new - x) ** 2)) < -1e-8:
                break
            x, j = x_new, j_new
        with pytest.raises(DecreaseViolation, match=f"at iteration {n}: "):
            nonconvex_forward_backward(f, g, x0, SolverConfig(gamma=gamma, max_iter=100))

    def test_fista_t_coefficient_bytes(self):
        # math.sqrt rounds as np.sqrt does, so the coefficients are unchanged
        expected, t = [], 1.0
        for _ in range(10_000):
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            expected.append((t - 1.0) / t_next)
            t = t_next
        coefs = _fista_t_coefs()
        got = [next(coefs) for _ in range(10_000)]
        assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestKrasnoselskiiMann:
    def test_rotation_converges_averaged(self):
        mat = np.array([[0.0, -1.0], [1.0, 0.0]])
        T = lambda v: mat @ v
        trace = krasnoselskii_mann(T, [1.0, 0.0],
                                   SolverConfig(relaxation=0.5, max_iter=100))
        assert np.linalg.norm(trace.x) <= 1e-8
        res = trace.extras["fixed_point_residual"]
        assert np.all(np.diff(res) <= 1e-15)

    def test_plain_iteration_orbits(self):
        # sanity for the fixture: lambda = 1 never converges
        mat = np.array([[0.0, -1.0], [1.0, 0.0]])
        trace = krasnoselskii_mann(lambda v: mat @ v, [1.0, 0.0],
                                   SolverConfig(relaxation=1.0, max_iter=50))
        assert np.linalg.norm(trace.x) == pytest.approx(1.0)

    def test_identity_map_constant(self):
        trace = krasnoselskii_mann(lambda v: v, [1.0, 2.0],
                                   SolverConfig(relaxation=0.5, max_iter=10))
        assert np.all(trace.residual == 0.0)

    def test_zero_relaxation_constant(self):
        mat = np.array([[0.0, -1.0], [1.0, 0.0]])
        trace = krasnoselskii_mann(lambda v: mat @ v, [1.0, 0.0],
                                   SolverConfig(relaxation=0.0, max_iter=10))
        assert np.all(trace.residual == 0.0)

    def test_relaxation_range(self):
        with pytest.raises(ConfigError):
            krasnoselskii_mann(lambda v: v, [1.0], SolverConfig(relaxation=1.5))

    def test_forms_tx_minus_x_once(self):
        # Tx - x overflows here, and numpy reports each subtraction that does
        calls = []
        with np.errstate(all="call", call=lambda kind, flag: calls.append(kind)):
            trace = krasnoselskii_mann(lambda v: -v, [-1e308], SolverConfig(max_iter=5))
        assert trace.termination == DIVERGED and trace.n_iter == 1
        assert calls == ["overflow"]

    def test_harmonic_and_callable_relaxation(self):
        mat = np.array([[0.0, -1.0], [1.0, 0.0]])
        T = lambda v: mat @ v
        t1 = krasnoselskii_mann(T, [1.0, 0.0],
                                SolverConfig(relaxation="harmonic", max_iter=50))
        assert t1.extras["fixed_point_residual"][-1] < t1.extras[
            "fixed_point_residual"][0]
        t2 = krasnoselskii_mann(T, [1.0, 0.0],
                                SolverConfig(relaxation=lambda n: 0.5, max_iter=50))
        t3 = krasnoselskii_mann(T, [1.0, 0.0],
                                SolverConfig(relaxation=0.5, max_iter=50))
        assert np.array_equal(t2.x, t3.x)


class TestDouglasRachford:
    def test_two_quadratics_meet_in_middle(self):
        f = Quadratic(IdentityOperator(1), np.array([0.0]))
        g = Quadratic(IdentityOperator(1), np.array([4.0]))
        trace = douglas_rachford(f, g, [0.0], SolverConfig(gamma=1.0, max_iter=200))
        assert trace.x == pytest.approx([2.0], abs=1e-8)

    def test_common_minimizer_is_fixed_point(self):
        f = Quadratic(IdentityOperator(2), np.array([1.0, -1.0]))
        g = L1Norm(0.0)  # zero weight: prox is identity, minimizer everywhere
        trace = douglas_rachford(f, f, np.array([1.0, -1.0]),
                                 SolverConfig(gamma=1.0, max_iter=5))
        assert np.all(trace.residual == 0.0)

    def test_matches_two_sequence_form(self):
        # independent implementation of the (x, y) two-sequence recursion
        f = L1Norm(1.0)
        g = Quadratic(IdentityOperator(1), np.array([3.0]))
        gamma = 0.7
        x = np.array([0.25])
        ys, xs = [], []
        xv = x.copy()
        for _ in range(30):
            y = g.prox(xv, gamma)
            xv = xv + f.prox(2 * y - xv, gamma) - y
            ys.append(y.copy())
            xs.append(xv.copy())
        trace = douglas_rachford(f, g, x, SolverConfig(gamma=gamma, max_iter=30,
                                                       keep_iterates=True))
        # identical up to float association order in the relaxation update
        govern = trace.meta["governing"]
        assert np.allclose(govern, xs[-1], atol=1e-12, rtol=0)
        assert np.allclose(trace.x, g.prox(xs[-1], gamma), atol=1e-12)

    def test_relaxation_range(self):
        f = g = L1Norm(1.0)
        with pytest.raises(ConfigError):
            douglas_rachford(f, g, [0.0], SolverConfig(relaxation=2.5))

    def test_infeasible_iterates_report_inf_not_error(self):
        # the shadow point is feasible for g but may violate the indicator f
        # early on; the objective column carries +inf and the run continues
        f = BoxIndicator(0.0, 1.0)
        g = Quadratic(IdentityOperator(1), np.array([5.0]))
        trace = douglas_rachford(f, g, [5.0], SolverConfig(gamma=1.0, max_iter=400))
        assert np.isposinf(trace.objective[0])
        assert trace.termination == ITER_CAP
        assert trace.x == pytest.approx([1.0], abs=1e-6)
        assert np.isfinite(trace.objective[-1])

    def test_feasible_prox_value_is_not_evaluated(self, monkeypatch):
        # the graph projection is feasible by construction, so its indicator
        # is 0 at every shadow point and dr_split does not evaluate it
        from proxsplit.funcs import AffineGraphIndicator

        def refuse(self, x):
            raise AssertionError("graph indicator evaluated")

        monkeypatch.setattr(AffineGraphIndicator, "value", refuse)
        trace, _ = tv_denoise_fixture().run("dr_split", SolverConfig(max_iter=5))
        assert trace.n_iter == 5 and np.all(np.isfinite(trace.objective))


class TestPPXA:
    def test_identical_terms_consensus(self):
        c = np.array([1.5])
        q = Quadratic(IdentityOperator(1), c)
        trace = ppxa([q, q], [0.0], SolverConfig(gamma=1.0, max_iter=100))
        assert trace.x == pytest.approx([1.5], abs=1e-8)

    def test_scalar_lasso_consensus(self):
        trace = ppxa([L1Norm(1.0), Quadratic(IdentityOperator(1), np.array([3.0]))],
                     [0.0], SolverConfig(gamma=1.0, max_iter=300))
        assert trace.x == pytest.approx([2.0], abs=1e-7)

    def test_matches_douglas_rachford_limit(self):
        f = L1Norm(1.0)
        g = Quadratic(IdentityOperator(1), np.array([3.0]))
        t_ppxa = ppxa([f, g], [0.0], SolverConfig(gamma=1.0, max_iter=2000))
        t_dr = douglas_rachford(f, g, [0.0], SolverConfig(gamma=1.0, max_iter=2000))
        assert abs(t_ppxa.x[0] - t_dr.x[0]) <= 1e-6

    def test_operator_blocks(self):
        # min (x-3)^2/2 + |2x| has solution soft(3, 2) = 1 after rescaling:
        # grad block carries the factor-2 operator
        q = Quadratic(IdentityOperator(1), np.array([3.0]))
        trace = ppxa([(q, None), (L1Norm(1.0), ScaleOperator(2.0, 1))],
                     [0.0], SolverConfig(gamma=1.0, max_iter=2000))
        # oracle: scalar grid search
        zs = np.linspace(-1, 4, 100001)
        vals = 0.5 * (zs - 3.0) ** 2 + np.abs(2.0 * zs)
        assert abs(trace.x[0] - zs[np.argmin(vals)]) <= 1e-4

    @pytest.mark.parametrize("second_op", ["dense", "identity"])
    def test_two_operator_terms_match_normal_equations(self, second_op):
        # sum_i 0.5 ||L_i x - b_i||^2 with L_0 = Id: the projection runs on
        # the stack [L_1; L_2]; the oracle is the dense normal equations
        rng = np.random.default_rng(7)
        d = 4
        mats = [np.eye(d), rng.standard_normal((3, d)),
                rng.standard_normal((5, d)) if second_op == "dense" else np.eye(d)]
        bs = [rng.standard_normal(m.shape[0]) for m in mats]
        parts = [Quadratic(IdentityOperator(d), bs[0])]
        parts.append((Quadratic(IdentityOperator(3), bs[1]), DenseOperator(mats[1])))
        parts.append((Quadratic(IdentityOperator(mats[2].shape[0]), bs[2]),
                      DenseOperator(mats[2]) if second_op == "dense" else None))
        trace = ppxa(parts, np.zeros(d), SolverConfig(gamma=1.0, max_iter=600))
        oracle = np.linalg.solve(sum(m.T @ m for m in mats),
                                 sum(m.T @ b for m, b in zip(mats, bs)))
        assert np.max(np.abs(trace.x - oracle)) <= 1e-8
        assert list(trace.extras) == []

    def test_zero_iterations_return_the_start(self):
        q = Quadratic(IdentityOperator(1), np.array([3.0]))
        trace = ppxa([q, L1Norm(1.0)], [1.0], SolverConfig(max_iter=0))
        assert trace.n_iter == 0 and trace.extras == {}
        assert trace.x == pytest.approx([1.0])

    def test_needs_two_terms(self):
        with pytest.raises(ConfigError):
            ppxa([L1Norm(1.0)], [0.0])


class TestADMM:
    def test_identity_specialization_matches_prox_form(self):
        f = L1Norm(1.0)
        g = Quadratic(IdentityOperator(1), np.array([3.0]))
        gamma = 1.0
        cfg = SolverConfig(gamma=gamma, max_iter=40)
        trace = admm(f, g, IdentityOperator(1), ScaleOperator(-1.0, 1),
                     np.zeros(1), cfg=cfg)
        # direct prox recursion for the x = y constraint
        x = np.zeros(1)
        y = np.zeros(1)
        z = np.zeros(1)
        for _ in range(40):
            x = f.prox(y - z / gamma, 1.0 / gamma)
            y = g.prox(x + z / gamma, 1.0 / gamma)
            z = z + gamma * (x - y)
        assert np.array_equal(trace.x, x)
        assert np.array_equal(trace.meta["y"], y)
        assert np.array_equal(trace.meta["z"], z)

    def test_scalar_consensus_limit(self):
        f = L1Norm(1.0)
        g = Quadratic(IdentityOperator(1), np.array([3.0]))
        trace = admm(f, g, IdentityOperator(1), ScaleOperator(-1.0, 1),
                     np.zeros(1), cfg=SolverConfig(gamma=1.0, max_iter=2000))
        assert trace.x == pytest.approx([2.0], abs=1e-7)
        assert trace.meta["y"] == pytest.approx([2.0], abs=1e-7)
        assert trace.extras["primal_residual"][-1] <= 1e-7

    def test_constraint_shift_oracle(self):
        # shifting b and translating g moves the solution consistently
        f = L1Norm(1.0)
        g0 = Quadratic(IdentityOperator(1), np.array([3.0]))
        c = 0.8
        g_shift = Quadratic(IdentityOperator(1), np.array([3.0 - c]))
        base = admm(f, g0, IdentityOperator(1), ScaleOperator(-1.0, 1),
                    np.zeros(1), cfg=SolverConfig(gamma=1.0, max_iter=3000))
        shifted = admm(f, g_shift, IdentityOperator(1), ScaleOperator(-1.0, 1),
                       np.full(1, c), cfg=SolverConfig(gamma=1.0, max_iter=3000))
        assert shifted.x[0] == pytest.approx(base.x[0], abs=1e-6)
        assert shifted.meta["y"][0] == pytest.approx(base.meta["y"][0] - c, abs=1e-6)

    def test_quadratic_coupling_via_cg(self):
        # A = diag(1, 2) with quadratic f: the x-update solves a linear system
        rng = np.random.default_rng(2)
        f = Quadratic(DenseOperator(rng.standard_normal((2, 2))),
                      rng.standard_normal(2))
        g = Quadratic(IdentityOperator(2), np.array([1.0, -1.0]))
        A = DenseOperator(np.diag([1.0, 2.0]))
        trace = admm(f, g, A, ScaleOperator(-1.0, 2), np.zeros(2),
                     cfg=SolverConfig(gamma=1.0, max_iter=3000))
        assert trace.extras["primal_residual"][-1] <= 1e-8

    def test_one_concatenation_per_iteration(self, monkeypatch):
        # (x, y) is formed once per iterate and is the next step's previous point
        calls = []
        original = np.concatenate
        monkeypatch.setattr(np, "concatenate", lambda *a, **k: calls.append(1) or original(*a, **k))
        trace = admm(L1Norm(1.0), Quadratic(IdentityOperator(1), np.array([3.0])),
                     IdentityOperator(1), ScaleOperator(-1.0, 1), np.zeros(1),
                     cfg=SolverConfig(gamma=1.0, max_iter=7))
        assert trace.n_iter == 7
        assert len(calls) == 8

    def test_rejects_unsupported_structure(self):
        with pytest.raises(ConfigError):
            admm(L1Norm(1.0), L1Norm(1.0),
                 DenseOperator(np.array([[1.0, 1.0], [0.0, 1.0]])),
                 ScaleOperator(-1.0, 2), np.zeros(2),
                 cfg=SolverConfig(max_iter=2))


def scalar_saddle():
    return SaddleProblem(
        K=ScaleOperator(1.0, 1),
        g=Quadratic(IdentityOperator(1), np.zeros(1)),
        f_conj=LinfBallIndicator(1.0),
        f_primal=L1Norm(1.0),
    )


class TestChambollePock:
    def test_zero_coupling_decouples_into_prox_chains(self):
        prob = SaddleProblem(
            K=ScaleOperator(0.0, 2),
            g=Quadratic(IdentityOperator(2), np.array([1.0, -1.0])),
            f_conj=LinfBallIndicator(0.5),
        )
        cfg = SolverConfig(sigma=1.0, tau=1.0, max_iter=20)
        trace = chambolle_pock(prob, np.array([3.0, 3.0]), np.array([2.0, -2.0]), cfg)
        # x chain: prox of g iterated; y chain: ball projection is idempotent
        pp = proximal_point(prob.g, np.array([3.0, 3.0]),
                            SolverConfig(gamma=1.0, max_iter=20))
        assert np.allclose(trace.x, pp.x)
        assert np.allclose(trace.meta["y"], [0.5, -0.5])

    def test_saddle_point_start_is_stationary(self):
        prob = scalar_saddle()
        cfg = SolverConfig(sigma=0.9, tau=0.9, max_iter=10)
        trace = chambolle_pock(prob, np.zeros(1), np.zeros(1), cfg)
        assert np.all(trace.residual == 0.0)
        assert np.all(trace.extras["dual_residual"] == 0.0)

    def test_stepsize_product_guard_names_bound(self):
        prob = scalar_saddle()
        with pytest.raises(ConfigError) as err:
            chambolle_pock(prob, np.zeros(1), np.zeros(1),
                           SolverConfig(sigma=2.0, tau=2.0, max_iter=5))
        assert "operator norm bound" in str(err.value)

    def test_converges_on_scalar_saddle(self):
        prob = scalar_saddle()
        trace = chambolle_pock(prob, np.array([1.5]), np.array([0.5]),
                               SolverConfig(max_iter=400))
        assert abs(trace.x[0]) <= 1e-6
        assert abs(trace.meta["y"][0]) <= 1e-5


def _power_iteration(op: LinearOperator, tol: float, max_iter: int, seed: int):
    # seeded power iteration on K*K: its Rayleigh quotient estimates ||K||^2
    # from below, which is what the guard tests below need
    if tol <= 0:
        raise ValueError("power iteration tolerance must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.in_dim)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v[0] = 1.0
        nv = 1.0
    v /= nv
    lam_prev = None
    lam = 0.0
    for _ in range(max_iter):
        w = op._adjoint(op._apply(v))
        lam = float(v @ w)  # Rayleigh quotient of K*K
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True
        v = w / nw
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-30):
            return float(np.sqrt(max(lam, 0.0))), True
        lam_prev = lam
    return float(np.sqrt(max(lam, 0.0))), False


def tv8_just_above_power_estimate():
    # tau*sigma*L^2 = (1 - 1e-9)^2 for the power-iteration estimate L of the
    # 8x8 gradient norm; L sits 4e-8 below the true norm, so the true product
    # is about 1 + 7.7e-8
    from proxsplit.suite import tv_denoise_fixture

    inst = tv_denoise_fixture()
    estimate = _power_iteration(inst.metadata["grad"], 1e-8, 10_000, 0)[0]
    step = (1 - 1e-9) / estimate
    return inst, SolverConfig(sigma=step, tau=step, max_iter=1)


def _largest_float_below(limit: Fraction) -> float:
    tau = float(limit)
    while Fraction(tau) >= limit:
        tau = float(np.nextafter(tau, 0.0))
    return tau


def _floats_beside(limit: Fraction) -> tuple:
    # the largest float below the limit and the next one up, when the limit
    # is inside the float range
    if limit >= Fraction(sys.float_info.max):
        return ()
    below = _largest_float_below(limit)
    return below, math.nextafter(below, math.inf)


def _refuses(run, *args, **kwargs) -> bool:
    try:
        run(*args, **kwargs)
    except ConfigError:
        return True
    return False


# finite positive floats, subnormals and the ends of the range included
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308) | st.sampled_from(
    [5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308])


class TestSoundStepsizeGuards:
    def test_chambolle_pock_rejects_steps_valid_only_for_the_estimate(self):
        inst, cfg = tv8_just_above_power_estimate()
        with pytest.raises(ConfigError):
            chambolle_pock(inst.metadata["saddle"], np.zeros(64), np.zeros(128), cfg)

    def test_condat_rejects_steps_valid_only_for_the_estimate(self):
        inst, cfg = tv8_just_above_power_estimate()
        terms = [(LinfBallIndicator(inst.metadata["lambda"]), inst.metadata["grad"])]
        with pytest.raises(ConfigError):
            condat(ZeroFn(), ZeroFn(), terms, np.zeros(64), cfg=cfg)

    # a guard evaluated in floating point accepts each pair: tau*sigma*||K||^2
    # rounds to 0.9999999999999999, and is exactly 1 + 1.4e-18 and 1 + 7.4e-18
    @pytest.mark.parametrize("K, tau, sigma", [
        (ScaleOperator(4.783593380034321, 3), 0.043366478335465905, 1.0077140919300402),
        (Grad2D(64, 64), 0.4264327389949093, 0.2933061135285487),
    ], ids=["scale", "grad64"])
    def test_primal_dual_guard_is_exact(self, K, tau, sigma):
        assert tau * sigma * K.norm() * K.norm() < 1.0
        prob = SaddleProblem(K, ZeroFn(), LinfBallIndicator(1.0))
        cfg = SolverConfig(tau=tau, sigma=sigma, max_iter=1)
        for run in (chambolle_pock, arrow_hurwicz):
            with pytest.raises(ConfigError):
                run(prob, np.zeros(K.in_dim), np.zeros(K.out_dim), cfg)

    def test_primal_dual_guard_accepts_the_largest_passing_step(self):
        K = ScaleOperator(4.783593380034321, 3)
        prob = SaddleProblem(K, ZeroFn(), LinfBallIndicator(1.0))
        sigma = 1.0077140919300402
        tau = _largest_float_below(1 / (Fraction(sigma) * Fraction(K.norm()) ** 2))
        run = lambda t: chambolle_pock(prob, np.zeros(3), np.zeros(3),
                                       SolverConfig(tau=t, sigma=sigma, max_iter=1))
        assert run(tau).meta["tau"] == tau
        with pytest.raises(ConfigError):
            run(float(np.nextafter(tau, 1.0)))

    # tau*(L/2 + sigma*||K||^2) is exactly 1 + 3.1e-17, rounded 0.9999999999999999
    CONDAT_EDGE = (1.1960296738157263, 0.36012999928609557, 0.9850651559628559)

    def test_condat_guard_is_exact(self):
        c, sigma, tau = self.CONDAT_EDGE
        assert tau * (0.5 + sigma * c * c) < 1.0
        with pytest.raises(ConfigError):
            condat(half_square(), ZeroFn(), [(LinfBallIndicator(1.0), ScaleOperator(c, 1))],
                   [0.0], cfg=SolverConfig(sigma=sigma, tau=tau, max_iter=1))

    def test_condat_guard_accepts_the_largest_passing_step(self):
        c, sigma, _ = self.CONDAT_EDGE
        tau = _largest_float_below(1 / (Fraction(1, 2) + Fraction(sigma) * Fraction(c) ** 2))
        run = lambda t: condat(half_square(), ZeroFn(),
                               [(LinfBallIndicator(1.0), ScaleOperator(c, 1))], [0.0],
                               cfg=SolverConfig(sigma=sigma, tau=t, max_iter=1))
        assert run(tau).meta["tau"] == tau
        with pytest.raises(ConfigError):
            run(float(np.nextafter(tau, 1.0)))

    # the guards against their Fraction forms: on each drawn step and on
    # the floats on either side of the exact limit it leaves for tau
    @given(POSITIVE, POSITIVE, POSITIVE)
    @example(0.043366478335465905, 1.0077140919300402, 4.783593380034321)
    @example(0.4264327389949093, 0.2933061135285487, 2.827575255377068)
    @example(1.0, 0.25, 2.0)  # tau*sigma*||K||^2 is exactly 1
    @example(1e-300, 5e-324, 1e300)
    @settings(max_examples=300, deadline=None)
    def test_primal_dual_guard_matches_fractions(self, tau, sigma, norm):
        K = ScaleOperator(norm, 1)
        limit = 1 / (Fraction(sigma) * Fraction(norm) ** 2)
        for t in (tau, *_floats_beside(limit)):
            refused = _refuses(_validate_pd_steps, SolverConfig(tau=t, sigma=sigma), K)
            assert refused == (t <= 0 or Fraction(t) >= limit)

    # the norm is a one-block stack's, whose bound squares it: kept where
    # that square is a normal float
    @given(POSITIVE, POSITIVE, POSITIVE, st.floats(min_value=1e-150, max_value=1e150))
    @example(0.9850651559628559, 0.36012999928609557, 1.0, 1.1960296738157263)
    @example(1.0, 0.5, 1.0, 1.0)  # tau*(L/2 + sigma*||K||^2) is exactly 1
    @example(1e300, 5e-324, 1e-300, 1e150)
    @settings(max_examples=300, deadline=None)
    def test_condat_guard_matches_fractions(self, tau, sigma, lip, c):
        op = ScaleOperator(c, 1)
        f = CallableSmooth(lambda x: 0.0, np.zeros_like, lip)
        norm = StackOperator([op]).norm()
        limit = 1 / (Fraction(lip) / 2 + Fraction(sigma) * Fraction(norm) ** 2)
        for t in (tau, *_floats_beside(limit)):
            refused = _refuses(condat, f, ZeroFn(), [(LinfBallIndicator(1.0), op)], [0.0],
                               cfg=SolverConfig(sigma=sigma, tau=t, max_iter=0))
            assert refused == (t <= 0 or Fraction(t) >= limit)

    @pytest.mark.parametrize("steps", [{"sigma": float("nan"), "tau": 0.1},
                                       {"sigma": 0.1, "tau": float("inf")}])
    def test_non_finite_steps_are_rejected(self, steps):
        prob = SaddleProblem(ScaleOperator(0.0, 1), ZeroFn(), LinfBallIndicator(1.0))
        with pytest.raises(ConfigError):
            chambolle_pock(prob, [0.0], [0.0], SolverConfig(max_iter=1, **steps))
        with pytest.raises(ConfigError):
            condat(half_square(), ZeroFn(), [], [0.0], cfg=SolverConfig(max_iter=1, **steps))

    def test_steps_and_norm_recorded(self):
        from proxsplit.suite import tv_denoise_fixture

        inst = tv_denoise_fixture()
        grad = inst.metadata["grad"]
        cp = chambolle_pock(inst.metadata["saddle"], np.zeros(64), np.zeros(128),
                            SolverConfig(max_iter=1))
        cd = condat(ZeroFn(), ZeroFn(), [(LinfBallIndicator(0.1), grad)], np.zeros(64),
                    cfg=SolverConfig(max_iter=1))
        for trace in (cp, cd):
            assert trace.meta["operator_norm"] == grad.norm()
            assert "norm_converged" not in trace.meta
        assert cp.meta["sigma"] * cp.meta["tau"] * grad.norm() ** 2 < 1.0


class TestArrowHurwicz:
    def test_converges_with_strong_convexity(self):
        prob = scalar_saddle()  # the primal side is strongly convex
        trace = arrow_hurwicz(prob, np.array([1.5]), np.array([0.5]),
                              SolverConfig(sigma=0.7, tau=0.7, max_iter=800))
        assert abs(trace.x[0]) <= 1e-8

    def test_matches_cp_at_fixed_point(self):
        prob = scalar_saddle()
        cfg = SolverConfig(sigma=0.9, tau=0.9, max_iter=5)
        t1 = arrow_hurwicz(prob, np.zeros(1), np.zeros(1), cfg)
        t2 = chambolle_pock(prob, np.zeros(1), np.zeros(1), cfg)
        assert np.array_equal(t1.x, t2.x)

    def test_zero_coupling_decouples(self):
        prob = SaddleProblem(
            K=ScaleOperator(0.0, 1),
            g=Quadratic(IdentityOperator(1), np.array([2.0])),
            f_conj=LinfBallIndicator(1.0),
        )
        trace = arrow_hurwicz(prob, np.zeros(1), np.zeros(1),
                              SolverConfig(sigma=1.0, tau=1.0, max_iter=30))
        pp = proximal_point(prob.g, np.zeros(1), SolverConfig(gamma=1.0, max_iter=30))
        assert np.allclose(trace.x, pp.x)


class TestCondat:
    def test_no_terms_zero_g_is_plain_gradient_descent(self):
        f = anisotropic()
        cfg = SolverConfig(tau=0.1, max_iter=30)
        t1 = condat(f, ZeroFn(), [], np.array([1.0, 1.0]), cfg=cfg)
        t2 = gradient_descent(f, np.array([1.0, 1.0]),
                              SolverConfig(gamma=0.1, max_iter=30))
        assert np.allclose(t1.x, t2.x)
        assert np.allclose(t1.objective, t2.objective)

    def test_matches_chambolle_pock_when_aligned(self):
        # with f = g = 0 and one identity-coupled term, the primal chain
        # coincides with the over-relaxed primal-dual one after aligning the
        # dual initialization u0 = y1
        lam = 1.0
        prob = SaddleProblem(
            K=IdentityOperator(1),
            g=ZeroFn(),
            f_conj=LinfBallIndicator(lam),
        )
        sigma = tau = 0.9
        x0 = np.array([1.3])
        y0 = np.array([0.2])
        cp = chambolle_pock(prob, x0, y0,
                            SolverConfig(sigma=sigma, tau=tau, max_iter=40,
                                         keep_iterates=True))
        y1 = LinfBallIndicator(lam).prox(y0 + sigma * x0, sigma)
        cd = condat(ZeroFn(), ZeroFn(), [(LinfBallIndicator(lam), IdentityOperator(1))],
                    x0, u0s=[y1],
                    cfg=SolverConfig(sigma=sigma, tau=tau, max_iter=40,
                                     keep_iterates=True))
        for a, b in zip(cp.iterates, cd.iterates):
            assert np.allclose(a, b, atol=1e-12)

    def test_stepsize_guard(self):
        f = half_square()
        with pytest.raises(ConfigError):
            condat(f, ZeroFn(), [(LinfBallIndicator(1.0), IdentityOperator(1))],
                   [0.0], cfg=SolverConfig(sigma=2.0, tau=2.0))

    def test_duals_are_recorded(self):
        trace = condat(half_square(), ZeroFn(),
                       [(LinfBallIndicator(1.0), IdentityOperator(1))],
                       [2.0], cfg=SolverConfig(max_iter=10))
        assert len(trace.meta["duals"]) == 1


class TestDescentAndResidualInvariants:
    def test_descent_methods_are_monotone_and_residuals_vanish(self):
        f = Quadratic(IdentityOperator(3), np.array([1.0, -2.0, 0.5]))
        g = L1Norm(0.3)
        runs = [
            gradient_descent(f, np.array([2.0, 2.0, 2.0]),
                             SolverConfig(gamma=1.0 / f.lipschitz, max_iter=300)),
            forward_backward(f, g, np.array([2.0, 2.0, 2.0]),
                             SolverConfig(gamma=1.0 / f.lipschitz, max_iter=300)),
            proximal_point(f, np.array([2.0, 2.0, 2.0]),
                           SolverConfig(gamma=1.0, max_iter=300)),
        ]
        for trace in runs:
            path = trace.objective_path()
            assert np.all(np.diff(path) <= 1e-12)
            assert trace.residual[-1] <= 1e-10


class TestTraceContract:
    def test_runs_are_deterministic(self):
        f = anisotropic()
        g = L1Norm(0.2)
        cfg = SolverConfig(gamma=0.05, inertia="fista_t", max_iter=100)
        t1 = forward_backward(f, g, np.array([1.0, -1.0]), cfg)
        t2 = forward_backward(f, g, np.array([1.0, -1.0]), cfg)
        assert np.array_equal(t1.objective, t2.objective)
        assert np.array_equal(t1.residual, t2.residual)
        assert np.array_equal(t1.x, t2.x)
        d1 = douglas_rachford(g, f, np.array([0.5, 0.5]),
                              SolverConfig(gamma=1.0, max_iter=60))
        d2 = douglas_rachford(g, f, np.array([0.5, 0.5]),
                              SolverConfig(gamma=1.0, max_iter=60))
        assert np.array_equal(d1.x, d2.x)

    def test_finite_objective_above_the_cap_diverges(self):
        # the documented cap is a constant; it and the other removed knobs
        # are no SolverConfig fields
        assert DIVERGENCE_CAP == 1e12
        rec = _Recorder(np.zeros(1), 0.0, SolverConfig())
        assert not _record(rec, np.ones(1), np.zeros(1), DIVERGENCE_CAP)
        assert _record(rec, np.ones(1), np.ones(1), 2.0 * DIVERGENCE_CAP)
        assert rec.termination == DIVERGED
        for field in ("seed", "objective_tol", "divergence_cap", "rho", "beta",
                      "bt_shrink", "residual_tol"):
            with pytest.raises(TypeError):
                SolverConfig(**{field: 0})

    def test_record_count_bounded_by_cap(self):
        trace = gradient_descent(half_square(), [1.0],
                                 SolverConfig(gamma=1.0, max_iter=7))
        assert len(trace.objective) <= 7
        assert np.all(trace.residual >= 0.0)
        assert trace.termination in ("tol_reached", "iter_cap", "diverged")

    @staticmethod
    def _storage_runs(keep):
        # one run each of gradient descent, Douglas-Rachford and Chambolle-Pock
        f = half_square(2)
        saddle = SaddleProblem(K=IdentityOperator(1), g=ZeroFn(),
                               f_conj=LinfBallIndicator(1.0))
        return (
            gradient_descent(f, [1.0, -1.0],
                             SolverConfig(gamma=0.5, max_iter=10, keep_iterates=keep)),
            douglas_rachford(L1Norm(0.3), f, [1.0, -1.0],
                             SolverConfig(max_iter=10, keep_iterates=keep)),
            chambolle_pock(saddle, [1.3], [0.2],
                           SolverConfig(sigma=0.9, tau=0.9, max_iter=10,
                                        keep_iterates=keep)),
        )

    def test_iterates_not_stored_by_default(self):
        gd, dr, cp = self._storage_runs(False)
        for trace in (gd, dr, cp):
            assert trace.iterates == []
            # the scalars are still recorded every iteration
            assert len(trace.objective) == 10
        assert cp.meta["dual_iterates"] == []

    def test_kept_iterates_span_the_run(self):
        gd, dr, cp = self._storage_runs(True)
        for trace, x0 in ((gd, [1.0, -1.0]), (dr, [1.0, -1.0]), (cp, [1.3])):
            assert len(trace.iterates) == trace.n_iter + 1 == 11
            assert np.array_equal(trace.iterates[0], x0)
        assert np.array_equal(gd.iterates[-1], gd.x)
        assert np.array_equal(cp.iterates[-1], cp.x)
        # Douglas-Rachford keeps the governing sequence, not the shadow x
        assert np.array_equal(dr.iterates[-1], dr.meta["governing"])
        duals = cp.meta["dual_iterates"]
        assert len(duals) == cp.n_iter + 1
        assert np.array_equal(duals[0], [0.2])
        assert np.array_equal(duals[-1], cp.meta["y"])

    def test_default_cp_run_memory_is_bounded(self):
        # 2000 stored primal and dual iterates at 32x32 would take 47 MiB
        inst = tv_denoise_fixture(rows=32)
        tracemalloc.start()
        try:
            trace, _ = inst.run("cp", SolverConfig(max_iter=2000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.n_iter == 2000
        assert peak < 4 * 2 ** 20

    @staticmethod
    def _live_peak_vectors(inst, recipe, iters):
        # the tracemalloc peak of a run, in vectors of the split's length 3n;
        # a one-iteration run first builds what the oracles build lazily
        inst.run(recipe, SolverConfig(max_iter=1))
        tracemalloc.start()
        try:
            trace, _ = inst.run(recipe, SolverConfig(max_iter=iters))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.n_iter == iters
        return peak / (3 * inst.metadata["rows"] * inst.metadata["cols"] * 8)

    # Python 3.11 moves a call's arguments into the callee's frame, so a start
    # passed unnamed is freed once the loop drops it; 3.10 keeps it on the
    # caller's stack until the call returns, one more vector for the whole run
    HELD_START = 0.0 if sys.version_info >= (3, 11) else 1.0

    def test_dr_split_live_peak(self):
        # x_n, y_n and z_n are dropped before the graph projection, nothing
        # holds the start after the first iteration, the result is not
        # copied, the split's prox writes into 2 y_n - x_n, and the gap forms
        # only the z block of u: about 3.92 vectors (5.05 with the start held
        # and copied, 6.4 with a separate prox output and the whole u)
        inst = tv_denoise_fixture(rows=64)
        assert self._live_peak_vectors(inst, "dr_split", 20) <= 4.1 + self.HELD_START

    def test_ppxa_live_peak(self):
        # the product-space start goes to the inner split unnamed: about 4.26
        # vectors (5.40 with it held and the start and result copied)
        inst = tv_denoise_fixture(rows=64)
        assert self._live_peak_vectors(inst, "ppxa", 20) <= 4.45 + self.HELD_START

    def test_cp_live_peak(self):
        # the ball clips y + sigma K xbar in place, the identity data term's
        # value reads x without a copy, and x_n, xbar_n and y_n are dropped
        # before the row's objective product: about 4.04 vectors
        inst = tv_denoise_fixture(rows=64)
        assert self._live_peak_vectors(inst, "cp", 20) <= 4.2

    @pytest.mark.parametrize("iters", [0, 5])
    @pytest.mark.parametrize("run", [
        lambda x0, n: gradient_descent(half_square(3), x0, SolverConfig(gamma=0.5, max_iter=n)),
        lambda x0, n: forward_backward(half_square(3), L1Norm(0.3), x0,
                                       SolverConfig(inertia="fista_t", max_iter=n)),
        lambda x0, n: douglas_rachford(L1Norm(0.3), half_square(3), x0, SolverConfig(max_iter=n)),
        lambda x0, n: chambolle_pock(SaddleProblem(IdentityOperator(3), half_square(3),
                                                   LinfBallIndicator(0.3)),
                                     x0, np.zeros(3), SolverConfig(max_iter=n)),
        lambda x0, n: krasnoselskii_mann(lambda v: 0.5 * v, x0, SolverConfig(max_iter=n)),
        # the prox of zero returns its argument: every iterate is the start
        lambda x0, n: proximal_point(ZeroFn(), x0, SolverConfig(max_iter=n)),
        lambda x0, n: douglas_rachford(half_square(3), ZeroFn(), x0, SolverConfig(max_iter=n)),
    ], ids=["gd", "fista", "dr", "cp", "km", "zero_prox", "dr_zero_g"])
    def test_x_never_shares_memory_with_the_start(self, run, iters):
        # the recorder keeps no start; it copies the result only when the
        # result is the start, so neither array can write into the other
        start = np.array([2.0, -1.0, 0.5])
        trace = run(start, iters)
        assert trace.n_iter == iters
        assert not np.shares_memory(trace.x, start)
        assert start.tobytes() == np.array([2.0, -1.0, 0.5]).tobytes()
        assert not hasattr(trace, "x0")

    def test_x_of_a_no_op_run_is_a_copy_of_a_zero_d_start(self):
        # a 0-d start is validated into a 1-d view of the caller's array
        start = np.array(3.0)
        trace = proximal_point(ZeroFn(), start, SolverConfig(max_iter=2))
        assert trace.x.tobytes() == np.array([3.0]).tobytes()
        assert not np.shares_memory(trace.x, start)

    @pytest.mark.parametrize("iters", [0, 5])
    @pytest.mark.parametrize("run", [
        lambda s, n: chambolle_pock(SaddleProblem(IdentityOperator(3), half_square(3),
                                                  LinfBallIndicator(0.3)),
                                    np.ones(3), s, SolverConfig(max_iter=n)).meta["y"],
        lambda s, n: arrow_hurwicz(SaddleProblem(IdentityOperator(3), half_square(3),
                                                 LinfBallIndicator(0.3)),
                                   np.ones(3), s, SolverConfig(max_iter=n)).meta["y"],
        lambda s, n: condat(half_square(3), ZeroFn(), [(LinfBallIndicator(0.3),
                                                        IdentityOperator(3))],
                            np.ones(3), [s], SolverConfig(max_iter=n)).meta["duals"][0],
        lambda s, n: admm(half_square(3), ZeroFn(), IdentityOperator(3),
                          ScaleOperator(-1.0, 3), np.zeros(3), s,
                          SolverConfig(max_iter=n)).meta["y"],
        lambda s, n: douglas_rachford(L1Norm(0.3), half_square(3), s,
                                      SolverConfig(max_iter=n)).meta["governing"],
    ], ids=["cp", "arrow_hurwicz", "condat", "admm", "dr_governing"])
    def test_a_returned_dual_never_shares_memory_with_its_start(self, run, iters):
        # a dual start, or DR's governing start, is returned after no
        # iteration, and then copied like x
        start = np.array([0.1, -0.2, 0.05])
        returned = run(start, iters)
        assert not np.shares_memory(returned, start)
        assert start.tobytes() == np.array([0.1, -0.2, 0.05]).tobytes()

    def test_objective_path_includes_start(self):
        trace = gradient_descent(half_square(), [2.0],
                                 SolverConfig(gamma=0.5, max_iter=4))
        path = trace.objective_path()
        assert path[0] == pytest.approx(2.0)
        assert len(path) == 5


def _assert_stopped_prefix(stopped, full, cap, varying=()):
    # ``stopped`` ended at an exact fixed point and ``full`` ran to ``cap``:
    # the stopped rows are the full run's first rows, and every later full row
    # repeats the last stopped one, except in the n-dependent ``varying`` extras
    k = stopped.n_iter
    assert stopped.termination == TOL_REACHED and 0 < k < cap
    assert full.termination == ITER_CAP and full.n_iter == cap
    assert stopped.x.tobytes() == full.x.tobytes()
    assert set(stopped.extras) == set(full.extras)
    columns = {"objective": (stopped.objective, full.objective),
               "residual": (stopped.residual, full.residual)}
    columns.update({key: (stopped.extras[key], full.extras[key]) for key in full.extras})
    for key, (short, long) in columns.items():
        assert short.tobytes() == long[:k].tobytes(), key
        if key not in varying:
            assert long[k:].tobytes() == np.repeat(short[-1:], cap - k).tobytes(), key


class TestStopAtFixedPoint:
    @staticmethod
    def _pair(run, **cfg):
        return run(SolverConfig(stop_at_fixed_point=True, **cfg)), run(SolverConfig(**cfg))

    @pytest.mark.parametrize("fixture,recipe", [
        (tv_denoise_fixture, "cp"), (tv_denoise_fixture, "condat"),
        (tv_inverse_fixture, "cp2"), (tv_inverse_fixture, "condat"),
    ])
    def test_tv_recipes_stop_on_the_full_run_point(self, fixture, recipe):
        inst = fixture()
        (stopped, x_stopped), (full, x_full) = self._pair(
            lambda cfg: inst.run(recipe, cfg), max_iter=1000)
        _assert_stopped_prefix(stopped, full, 1000)
        assert x_stopped.tobytes() == x_full.tobytes()
        if recipe == "condat":
            duals = zip(stopped.meta["duals"], full.meta["duals"], strict=True)
        else:
            duals = [(stopped.meta["y"], full.meta["y"])]
        for a, b in duals:
            assert a.tobytes() == b.tobytes()

    def test_recipe_defaults_still_fill_in(self):
        trace, _ = tv_denoise_fixture().run("cp", SolverConfig(stop_at_fixed_point=True))
        assert trace.meta["config"].max_iter == 3000
        assert trace.meta["config"].stop_at_fixed_point

    def test_gradient_descent(self):
        f = Quadratic(IdentityOperator(3), np.array([1.0, -2.0, 0.5]))
        stopped, full = self._pair(
            lambda cfg: gradient_descent(f, np.array([2.0, 2.0, 2.0]), cfg),
            gamma=0.5, max_iter=200)
        _assert_stopped_prefix(stopped, full, 200)

    def test_proximal_point(self):
        stopped, full = self._pair(
            lambda cfg: proximal_point(L1Norm(0.3), np.array([2.0, -1.0, 0.5]), cfg),
            gamma=1.0, max_iter=200)
        _assert_stopped_prefix(stopped, full, 200)

    @pytest.mark.parametrize("inertia", ["none", "fista_t"])
    def test_prox_gradient(self, inertia):
        f = Quadratic(IdentityOperator(3), np.array([1.0, -2.0, 0.5]))
        stopped, full = self._pair(
            lambda cfg: forward_backward(f, L1Norm(0.3), np.array([2.0, 2.0, 2.0]), cfg),
            gamma=0.5, inertia=inertia, max_iter=400)
        _assert_stopped_prefix(stopped, full, 400, varying=("inertia_coef",))

    def test_admm(self):
        f = Quadratic(IdentityOperator(3), np.array([1.0, -2.0, 0.5]))
        stopped, full = self._pair(
            lambda cfg: admm(L1Norm(1.0), f, IdentityOperator(3), ScaleOperator(-1.0, 3),
                             np.zeros(3), cfg=cfg),
            gamma=1.0, max_iter=400)
        _assert_stopped_prefix(stopped, full, 400)
        for key in ("y", "z"):
            assert stopped.meta[key].tobytes() == full.meta[key].tobytes()

    def test_douglas_rachford(self):
        f = Quadratic(IdentityOperator(3), np.array([1.0, -2.0, 0.5]))
        stopped, full = self._pair(
            lambda cfg: douglas_rachford(L1Norm(0.3), f, np.array([2.0, 2.0, 2.0]), cfg),
            gamma=1.0, max_iter=400)
        _assert_stopped_prefix(stopped, full, 400)
        assert stopped.meta["governing"].tobytes() == full.meta["governing"].tobytes()

    def test_dr_split_recipe(self):
        # the noise-free step settles exactly (the noisy one never does)
        inst = tv_denoise_fixture(sigma=0.0)
        (stopped, x_stopped), (full, x_full) = self._pair(
            lambda cfg: inst.run("dr_split", cfg), max_iter=200)
        _assert_stopped_prefix(stopped, full, 200)
        assert x_stopped.tobytes() == x_full.tobytes()
        assert stopped.meta["governing"].tobytes() == full.meta["governing"].tobytes()
        # and it is the run capped at the same n
        capped, x_capped = inst.run("dr_split", SolverConfig(max_iter=stopped.n_iter))
        assert capped.n_iter == stopped.n_iter
        assert x_capped.tobytes() == x_stopped.tobytes()
        assert capped.objective.tobytes() == stopped.objective.tobytes()
        assert capped.residual.tobytes() == stopped.residual.tobytes()

    def test_krasnoselskii_mann(self):
        stopped, full = self._pair(
            lambda cfg: krasnoselskii_mann(lambda v: 0.5 * (v + 1.0), [3.0, 0.0], cfg),
            relaxation=1.0, max_iter=300)
        _assert_stopped_prefix(stopped, full, 300)

    def test_standing_x_with_moving_difference_does_not_stop(self):
        # a relaxation of 0 leaves x bitwise unchanged while z - y (DR) and
        # Tx - x (KM) are not zero, so the iteration goes on once it grows
        late = lambda n: 0.0 if n < 5 else 1.0
        f = Quadratic(IdentityOperator(3), np.array([1.0, -2.0, 0.5]))
        runs = [
            self._pair(lambda cfg: douglas_rachford(
                L1Norm(0.3), f, np.array([2.0, 2.0, 2.0]), cfg),
                relaxation=late, max_iter=400),
            self._pair(lambda cfg: krasnoselskii_mann(
                lambda v: 0.5 * (v + 1.0), [3.0, 0.0], cfg),
                relaxation=late, max_iter=300),
        ]
        for (stopped, full), cap in zip(runs, (400, 300)):
            assert stopped.residual[0] == 0.0
            assert stopped.n_iter > 5
            _assert_stopped_prefix(stopped, full, cap)

    def test_signed_zeros_differ(self):
        rec = _Recorder(np.zeros(1), 0.0, SolverConfig())
        assert not rec.record(np.array([0.0]), 0.0, 0.0,
                              settled=_same_bytes(np.array([0.0]), np.array([-0.0])))
        assert rec.termination == ITER_CAP
        assert rec.record(np.array([-0.0]), 0.0, 0.0,
                          settled=_same_bytes(np.array([-0.0]), np.array([-0.0])))
        assert rec.termination == TOL_REACHED


# every solver on oracles and operators of length 6, started from length 5
WRONG_LENGTH_RUNS = {
    "gradient_descent": lambda x0, cfg: gradient_descent(half_square(6), x0, cfg),
    "proximal_point": lambda x0, cfg: proximal_point(
        SeparableProx([(L1Norm(1.0), range(6))], 6), x0, cfg),
    "projected_gradient": lambda x0, cfg: projected_gradient(
        CallableSmooth(lambda x: 0.5 * float(x @ x), lambda x: x, 1.0),
        BoxIndicator(np.zeros(6), np.ones(6)), x0, cfg),
    "forward_backward": lambda x0, cfg: forward_backward(
        half_square(6), L1Norm(0.1), x0, cfg),
    "nonconvex_forward_backward": lambda x0, cfg: nonconvex_forward_backward(
        half_square(6), HardThreshold(0.1), x0, cfg),
    "krasnoselskii_mann": lambda x0, cfg: krasnoselskii_mann(
        ScaleOperator(0.5, 6), x0, cfg),
    "douglas_rachford": lambda x0, cfg: douglas_rachford(
        SeparableProx([(L1Norm(1.0), range(3)), (BoxIndicator(0.0, 1.0), range(3, 6))], 6),
        half_square(6), x0, cfg),
    "ppxa": lambda x0, cfg: ppxa([half_square(6), L1Norm(0.1)], x0, cfg),
    "admm": lambda x0, cfg: admm(L1Norm(1.0), half_square(6), IdentityOperator(6),
                                 ScaleOperator(-1.0, 6), np.zeros(6), y0=x0, cfg=cfg),
    "chambolle_pock": lambda x0, cfg: chambolle_pock(
        SaddleProblem(IdentityOperator(6), half_square(6), LinfBallIndicator(1.0)),
        x0, np.zeros(6), cfg),
    "arrow_hurwicz": lambda x0, cfg: arrow_hurwicz(
        SaddleProblem(IdentityOperator(6), half_square(6), LinfBallIndicator(1.0)),
        x0, np.zeros(6), cfg),
    "condat": lambda x0, cfg: condat(half_square(6), ZeroFn(),
                                     [(LinfBallIndicator(1.0), IdentityOperator(6))], x0,
                                     cfg=cfg),
}


class TestUnsetFields:
    @pytest.mark.parametrize("solver", sorted(WRONG_LENGTH_RUNS))
    def test_unset_max_iter_and_inertia_run_the_solver_defaults(self, solver):
        # None is unset: 1000 iterations, and no inertia (the start has the right length)
        trace = WRONG_LENGTH_RUNS[solver](np.ones(6), SolverConfig(max_iter=None, inertia=None))
        assert trace.n_iter == 1000
        assert "inertia_coef" not in trace.extras


class TestValidateAtEntry:
    @pytest.mark.parametrize("solver", sorted(WRONG_LENGTH_RUNS))
    def test_wrong_length_start_is_a_dimension_error(self, solver):
        # the loops no longer validate, so the check must come at entry
        cfg = SolverConfig(gamma=0.5, max_iter=3)
        assert WRONG_LENGTH_RUNS[solver](np.ones(6), cfg).n_iter == 3
        with pytest.raises(DimensionError, match="expected length 6, got 5"):
            WRONG_LENGTH_RUNS[solver](np.ones(5), cfg)

    def test_operator_and_oracle_lengths_must_agree(self):
        with pytest.raises(DimensionError):
            condat(half_square(6), ZeroFn(), [(LinfBallIndicator(1.0), DenseOperator(
                np.ones((4, 6))))], np.ones(6), u0s=[np.zeros(5)])
        with pytest.raises(DimensionError):
            SeparableProx([(half_square(3), [0, 1])], 2)


class NaNAfter(ProxFn):
    """``inner`` whose prox returns NaN from its ``k``-th call on."""

    def __init__(self, inner, k):
        self.inner, self.k, self.calls = inner, k, 0

    def _value(self, x):
        return self.inner._value(x)

    def _prox(self, x, gamma):
        self.calls += 1
        p = self.inner._prox(x, gamma)
        return p if self.calls < self.k else np.full_like(p, np.nan)


class TestNonFiniteIntermediate:
    # a NaN out of a dual oracle reaches the primal iterate, and the recorder
    # ends the run as diverged instead of an operator rejecting the NaN
    RUNS = {
        "chambolle_pock": lambda dual, cfg: chambolle_pock(
            SaddleProblem(IdentityOperator(3), half_square(3), dual, f_primal=L1Norm(1.0)),
            np.ones(3), np.zeros(3), cfg),
        "condat": lambda dual, cfg: condat(half_square(3), ZeroFn(),
                                           [(dual, IdentityOperator(3))], np.ones(3), cfg=cfg),
        "admm": lambda dual, cfg: admm(half_square(3), dual, IdentityOperator(3),
                                       ScaleOperator(-1.0, 3), np.zeros(3), cfg=cfg),
    }

    @pytest.mark.parametrize("solver", sorted(RUNS))
    def test_nan_from_the_dual_oracle_diverges(self, solver):
        dual = NaNAfter(LinfBallIndicator(1.0), k=4)
        trace = self.RUNS[solver](dual, SolverConfig(max_iter=50))
        assert trace.termination == DIVERGED
        assert trace.n_iter <= 5


class TestRecorderFiniteness:
    # the recorder scans x_new only once the step residual is not finite;
    # from a finite x_prev, a non-finite entry always makes it so

    @pytest.mark.parametrize("objective", [1.0, None], ids=["tracked", "untracked"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_entry_diverges_at_that_step(self, bad, objective):
        rec = _Recorder(np.zeros(3), 0.0, SolverConfig())
        assert not _record(rec, np.ones(3), np.zeros(3), objective)
        assert _record(rec, np.array([1.0, bad, 1.0]), np.ones(3), objective)
        assert rec.termination == DIVERGED
        trace = rec.finish(np.ones(3))
        assert trace.n_iter == 2
        assert not np.isfinite(trace.residual[1])

    @pytest.mark.parametrize("objective", [1.0, None], ids=["tracked", "untracked"])
    def test_overflowing_finite_step_goes_on(self, objective):
        # d @ d overflows to inf, yet every entry of x_new is finite
        rec = _Recorder(np.zeros(2), 0.0, SolverConfig())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not _record(rec, np.full(2, 1e200), np.full(2, -1e200), objective)
            assert not _record(rec, np.full(2, 1.0), np.full(2, 1e200), objective)
        assert rec.termination == ITER_CAP
        assert rec.finish(np.ones(2)).residual[0] == np.inf

    @pytest.mark.parametrize("row", [(np.array([1.0, np.nan]), 1.0),
                                     (np.ones(2), np.nan),
                                     (np.ones(2), 2.0 * DIVERGENCE_CAP)],
                             ids=["nan_entry", "nan_objective", "above_cap"])
    def test_divergence_comes_before_a_settled_row(self, row):
        rec = _Recorder(np.zeros(2), 0.0, SolverConfig(stop_at_fixed_point=True))
        x_new, objective = row
        assert rec.record(x_new, objective, _norm(x_new), settled=True)
        assert rec.termination == DIVERGED

    def test_a_settled_row_reaches_tol(self):
        rec = _Recorder(np.zeros(2), 0.0, SolverConfig(stop_at_fixed_point=True))
        assert not rec.record(np.ones(2), 1.0, _norm(np.ones(2)))
        assert rec.record(np.ones(2), 1.0, 0.0, settled=True)
        assert rec.termination == TOL_REACHED
        assert rec.finish(np.ones(2)).n_iter == 2


class TestValidationOutsideTheLoop:
    @staticmethod
    def _runs():
        tv = tv_denoise_fixture()
        rng = np.random.default_rng(2)
        lasso = build_lasso(DenseOperator(rng.standard_normal((8, 8))),
                            rng.standard_normal(8), 0.1)
        y = rng.standard_normal(64)
        return {
            "cp": lambda cfg: tv.run("cp", cfg),
            "condat": lambda cfg: tv.run("condat", cfg),
            "dr_split": lambda cfg: tv.run("dr_split", cfg),
            "fista": lambda cfg: lasso.run("fista", cfg),
            "admm": lambda cfg: (admm(L1Norm(1.0), Quadratic(IdentityOperator(64), y),
                                      IdentityOperator(64), ScaleOperator(-1.0, 64),
                                      np.zeros(64), cfg=cfg), None),
        }

    @pytest.mark.parametrize("name", ["cp", "condat", "dr_split", "fista", "admm"])
    def test_as_vector_calls_do_not_grow_with_iterations(self, name, monkeypatch):
        import proxsplit.funcs as funcs
        import proxsplit.linops as linops
        import proxsplit.problems as problems
        import proxsplit.solvers as solvers

        run = self._runs()[name]
        original = linops.as_vector
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (linops, funcs, problems, solvers):
            monkeypatch.setattr(module, "as_vector", counted)
        counts = []
        for max_iter in (10, 100):
            calls.clear()
            trace, _ = run(SolverConfig(max_iter=max_iter))
            assert trace.n_iter == max_iter
            counts.append(len(calls))
        assert counts[0] == counts[1]


# the solvers that take a duality gap, on a 3-long lasso-like problem; each
# entry maps (cfg, gap) to a trace
GAP_RUNS = {
    "forward_backward": lambda cfg, gap: forward_backward(
        half_square(3), L1Norm(0.3), np.array([2.0, 2.0, 2.0]), cfg, gap=gap),
    "douglas_rachford": lambda cfg, gap: douglas_rachford(
        L1Norm(0.3), half_square(3), np.array([2.0, 2.0, 2.0]), cfg, gap),
    "ppxa": lambda cfg, gap: ppxa([half_square(3), L1Norm(0.3)], np.array([2.0, 2.0, 2.0]),
                                  cfg, gap),
    # no primal objective: the stop compares the gap with gap_tol alone
    "chambolle_pock": lambda cfg, gap: chambolle_pock(
        SaddleProblem(IdentityOperator(3), half_square(3), LinfBallIndicator(0.3)),
        np.array([2.0, 2.0, 2.0]), np.zeros(3), cfg, gap=gap),
    "condat": lambda cfg, gap: condat(half_square(3), ZeroFn(),
                                      [(LinfBallIndicator(0.3), IdentityOperator(3))],
                                      np.array([2.0, 2.0, 2.0]), cfg=cfg, gap=gap),
}


class TestDualityGapStop:
    @pytest.mark.parametrize("solver", sorted(WRONG_LENGTH_RUNS))
    def test_positive_gap_tol_without_a_gap_is_a_config_error(self, solver):
        with pytest.raises(ConfigError, match="duality gap"):
            WRONG_LENGTH_RUNS[solver](np.zeros(6), SolverConfig(gap_tol=1e-8, max_iter=5))

    @pytest.mark.parametrize("gap_tol", [-1e-8, float("nan")])
    def test_gap_tol_must_be_nonnegative(self, gap_tol):
        with pytest.raises(ConfigError, match="gap_tol"):
            SolverConfig(gap_tol=gap_tol)

    @pytest.mark.parametrize("solver", sorted(GAP_RUNS))
    def test_gap_is_evaluated_in_the_loop_only_when_the_stop_is_on(self, solver):
        calls = []

        def gap(*state):
            calls.append(state)
            return 1.0

        off = GAP_RUNS[solver](SolverConfig(max_iter=7), gap)
        # one evaluation after the loop, for meta["gap"]
        assert len(calls) == 1 and off.meta["gap"] == 1.0
        assert "gap" not in off.extras
        calls.clear()
        on = GAP_RUNS[solver](SolverConfig(max_iter=7, gap_tol=1e-12), gap)
        assert len(calls) == 8
        assert on.extras["gap"].tolist() == [1.0] * 7
        assert on.termination == ITER_CAP
        assert off.objective.tobytes() == on.objective.tobytes()
        assert off.x.tobytes() == on.x.tobytes()

    @pytest.mark.parametrize("solver", sorted(GAP_RUNS))
    def test_stops_at_the_first_gap_within_tolerance(self, solver):
        values = iter([1.0, 0.5, 0.25, 1e-3, 1e-9, 1e-12])
        trace = GAP_RUNS[solver](SolverConfig(max_iter=50, gap_tol=1e-3),
                                 lambda *state: next(values))
        # gap <= gap_tol * (1 + |objective|) first holds at the fourth row
        assert trace.termination == TOL_REACHED
        assert trace.n_iter == 4
        assert trace.extras["gap"].tolist() == [1.0, 0.5, 0.25, 1e-3]
        assert trace.meta["gap"] == 1e-9

    def test_dr_split_gap_stop_is_the_capped_run(self):
        inst = tv_denoise_fixture()
        stopped, x_stopped = inst.run("dr_split", SolverConfig(max_iter=4000, gap_tol=1e-8))
        k = stopped.n_iter
        assert stopped.termination == TOL_REACHED and 0 < k < 4000
        assert stopped.meta["gap"] <= 1e-8 * (1.0 + abs(stopped.objective[-1]))
        capped, x_capped = inst.run("dr_split", SolverConfig(max_iter=k))
        assert x_capped.tobytes() == x_stopped.tobytes()
        for column in ("objective", "residual"):
            assert getattr(capped, column).tobytes() == getattr(stopped, column).tobytes()
        assert capped.extras["split_gap"].tobytes() == stopped.extras["split_gap"].tobytes()
        assert capped.meta["gap"] == stopped.meta["gap"]

    def test_douglas_rachford_gap_sees_the_returned_shadow_point(self):
        # row n sees the shadow point of x_n, the one a stop at n returns, and
        # u = (x_n - y)/gamma, which belongs to the subdifferential of g at y
        g, seen = half_square(3), []
        trace = douglas_rachford(L1Norm(0.3), g, np.array([2.0, 2.0, 2.0]),
                                 SolverConfig(gamma=0.5, max_iter=4, gap_tol=1e-12,
                                              keep_iterates=True),
                                 lambda y, u: seen.append((y, u)) or 1.0)
        assert len(seen) == 5  # four rows and the final state
        for (y, u), x in zip(seen, trace.iterates[1:] + [trace.iterates[-1]]):
            assert y.tobytes() == g.prox(x, 0.5).tobytes()
            assert np.array_equal(u, (x - y) / 0.5)
            assert np.allclose(u, y)  # the gradient of half_square at y
        assert seen[-1][0].tobytes() == trace.x.tobytes()
