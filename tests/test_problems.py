import dataclasses
import json
import pathlib

import numpy as np
import pytest

from proxsplit import data as datamod, problems
from proxsplit.data import (
    SYNTHETIC_KINDS,
    FixtureError,
    GaussianStream,
    generate_synthetic,
    load_fixture,
    read_csv_rows,
    read_image,
    read_pgm,
    write_csv_rows,
    write_fixture,
)
from proxsplit.funcs import AffineGraphIndicator, soft_threshold
from proxsplit.linops import (
    DenseOperator,
    DimensionError,
    Grad2D,
    IdentityOperator,
    MaskOperator,
    ScaleOperator,
)
from proxsplit.problems import (
    build_from_config,
    build_lasso,
    build_poisson_editing,
    build_tv_denoise,
    build_tv_inverse,
    build_tvl1,
    build_wavelet_reg,
)
from proxsplit.solvers import ConfigError, SolverConfig
from proxsplit.suite import (
    lasso_dense_fixture,
    lasso_diag_fixture,
    tv_denoise_fixture,
    tv_inverse_fixture,
)


class TestLasso:
    def test_identity_design_closed_form(self):
        y = np.array([3.0, 0.5, -2.0])
        inst = build_lasso(IdentityOperator(3), y, 1.0)
        assert np.allclose(inst.ground_truth["x"], [2.0, 0.0, -1.0])
        _, x = inst.run("fista", SolverConfig(max_iter=200))
        assert np.allclose(x, [2.0, 0.0, -1.0], atol=1e-8)

    def test_derived_config_keeps_the_recipe_defaults(self):
        # a config derived with dataclasses.replace leaves its unset fields
        # None, so fista still runs with its recipe's inertia
        cfg = dataclasses.replace(SolverConfig(max_iter=50), max_iter=60, keep_iterates=True)
        trace, _ = lasso_diag_fixture(3).run("fista", cfg)
        assert trace.meta["config"].inertia == "fista_t"
        assert "inertia_coef" in trace.extras
        assert trace.n_iter == 60 and len(trace.iterates) == 61
        # a default the caller set stays set
        trace, _ = lasso_diag_fixture(3).run(
            "fista", dataclasses.replace(SolverConfig(inertia="none"), max_iter=50))
        assert trace.meta["config"].inertia == "none"
        assert "inertia_coef" not in trace.extras

    def test_huge_weight_kills_everything(self):
        y = np.array([3.0, 0.5, -2.0])
        inst = build_lasso(IdentityOperator(3), y, 100.0)
        _, x = inst.run("fb", SolverConfig(max_iter=50))
        assert np.allclose(x, 0.0)

    def test_zero_weight_is_least_squares(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        inst = build_lasso(DenseOperator(A), y, 0.0)
        _, x = inst.run("fista", SolverConfig(max_iter=5000))
        oracle, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert np.allclose(x, oracle, atol=1e-6)

    def test_all_recipes_agree(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((8, 12)) / np.sqrt(8)
        y = rng.standard_normal(8)
        inst = build_lasso(DenseOperator(A), y, 0.15)
        vals = {}
        for name in ("fb", "fista", "fista_beta", "dr"):
            _, x = inst.run(name, SolverConfig(max_iter=4000))
            vals[name] = inst.objective(x)
        spread = max(vals.values()) - min(vals.values())
        assert spread <= 1e-6 * max(1.0, abs(min(vals.values())))

    def test_vfista_only_with_modulus(self):
        inst = build_lasso(IdentityOperator(2), np.array([1.0, 2.0]), 0.1,
                           strong_convexity=1.0)
        assert "vfista" in inst.recipes
        rng = np.random.default_rng(2)
        inst2 = build_lasso(DenseOperator(rng.standard_normal((3, 5))),
                            rng.standard_normal(3), 0.1)
        assert "vfista" not in inst2.recipes

    def test_explicit_default_max_iter_is_kept(self):
        # 1000 is the SolverConfig default but an explicit request, not unset
        rng = np.random.default_rng(5)
        inst = build_lasso(DenseOperator(rng.standard_normal((4, 6))),
                           rng.standard_normal(4), 0.1)
        for max_iter in (999, 1000):
            trace, _ = inst.run("fb", SolverConfig(max_iter=max_iter))
            assert trace.n_iter == max_iter
        trace, _ = inst.run("fb")
        assert trace.n_iter == 2000

    def test_unknown_recipe_raises(self):
        inst = build_lasso(IdentityOperator(2), np.array([1.0, 2.0]), 0.1)
        with pytest.raises(KeyError):
            inst.run("newton")

    @pytest.mark.parametrize("A", [ScaleOperator(0.0, 2),
                                   MaskOperator(np.zeros(2, dtype=bool))],
                             ids=["scale0", "empty_mask"])
    def test_zero_operator_builds_and_only_fb_needs_a_stepsize(self, A):
        # L = 0: the fb family cannot derive 1/L, Douglas-Rachford needs none
        inst = build_lasso(A, np.array([1.0, 2.0]), 0.1)
        for name in ("fb", "fista", "fista_beta"):
            with pytest.raises(ConfigError, match="Lipschitz constant is zero"):
                inst.run(name)
        _, x = inst.run("dr", SolverConfig(max_iter=50))
        assert np.array_equal(x, np.zeros(2))
        # an explicit stepsize runs the fb family too
        _, x = inst.run("fb", SolverConfig(gamma=1.0, max_iter=5))
        assert np.array_equal(x, np.zeros(2))


class TestTVDenoise:
    def test_constant_image_is_fixed(self):
        inst = build_tv_denoise(np.full((4, 4), 0.7), 0.3)
        _, x = inst.run("cp", SolverConfig(max_iter=300))
        assert np.allclose(x, 0.7, atol=1e-8)

    def test_step_signal_recipes_agree(self):
        sig = np.array([[0.0, 0.0, 0.1, 0.9, 1.0, 1.0]])
        inst = build_tv_denoise(sig, 0.05)
        vals = {}
        for name in inst.recipes:
            _, x = inst.run(name, SolverConfig(max_iter=4000))
            vals[name] = inst.objective(x)
        best = min(vals.values())
        for name, v in vals.items():
            assert (v - best) / max(abs(best), 1e-12) <= 1e-4, (name, vals)

    def test_explicit_no_inertia_is_kept(self):
        # "none" is the SolverConfig default; dual_fb defaults to fista_t
        data = generate_synthetic("step_image", (4, 4), sigma=0.1, seed=1)
        inst = build_tv_denoise(data["y"].reshape(4, 4), 0.1)
        trace, _ = inst.run("dual_fb", SolverConfig(inertia="none", max_iter=20))
        assert trace.meta["config"].inertia == "none"
        assert "inertia_coef" not in trace.extras
        trace, _ = inst.run("dual_fb", SolverConfig(max_iter=20))
        assert "inertia_coef" in trace.extras

    def test_huge_weight_flattens_to_mean(self):
        rng = np.random.default_rng(3)
        img = rng.standard_normal((4, 4))
        img -= img.mean()
        inst = build_tv_denoise(img, 50.0)
        _, x = inst.run("cp", SolverConfig(max_iter=4000))
        assert np.max(np.abs(x - img.mean())) <= 1e-3

    def test_16x16_recipes_agree(self):
        # top of the supported desk-scale range
        data = generate_synthetic("step_image", (16, 16), sigma=0.05, seed=3)
        inst = build_tv_denoise(data["y"].reshape(16, 16), 0.1)
        vals = {}
        for name in ("cp", "condat", "dual_fb"):
            _, x = inst.run(name, SolverConfig(max_iter=8000))
            vals[name] = inst.objective(x)
        best = min(vals.values())
        assert all((v - best) / abs(best) <= 1e-4 for v in vals.values())

    def test_ppxa_runs_the_dr_split_iteration(self):
        # ppxa builds the dr_split product space from its two terms, so the
        # recipe agreement check need not run both
        inst = tv_denoise_fixture()
        cfg = SolverConfig(max_iter=300)
        dr, x_dr = inst.run("dr_split", cfg)
        pp, x_pp = inst.run("ppxa", cfg)
        assert np.array_equal(dr.objective, pp.objective)
        assert np.array_equal(dr.residual, pp.residual)
        assert np.array_equal(x_dr, x_pp)
        assert dr.meta["gap"] == pp.meta["gap"]

    def test_dual_recovery_matches_primal(self):
        data = generate_synthetic("step_image", (6, 6), sigma=0.05, seed=2)
        inst = build_tv_denoise(data["y"].reshape(6, 6), 0.1)
        _, x_cp = inst.run("cp", SolverConfig(max_iter=6000))
        _, x_dual = inst.run("dual_fb", SolverConfig(max_iter=6000))
        assert np.max(np.abs(x_cp - x_dual)) <= 1e-4


def _reference_objective(inst):
    # any objective value bounds P* from above, so a sound gap satisfies
    # gap >= P(x) - P* >= P(x) - P_ref
    reference = "cp" if inst.name == "tv_denoise" else "fista"
    _, x = inst.run(reference, SolverConfig(max_iter=20_000, stop_at_fixed_point=True))
    return inst.objective(x)


class TestDualityGap:
    @pytest.mark.parametrize("fixture,recipe", [
        ("tv_denoise", "cp"), ("tv_denoise", "condat"), ("tv_denoise", "dual_fb"),
        ("tv_denoise", "dr_split"), ("lasso", "fb"), ("lasso", "fista"), ("lasso", "dr"),
    ])
    def test_every_recorded_gap_bounds_the_suboptimality(self, fixture, recipe):
        inst = tv_denoise_fixture() if fixture == "tv_denoise" else lasso_dense_fixture(3)
        p_ref = _reference_objective(inst)
        trace, x = inst.run(recipe, SolverConfig(gap_tol=1e-12, max_iter=300))
        gap = trace.extras["gap"]
        # row n holds the gap of the point returned on a stop at n: for DR the
        # shadow point of x_{n+1}, whose objective is the next row's
        values = trace.objective
        if "dr" in recipe:
            values = np.append(values[1:], inst.objective(x))
        assert gap.size == trace.n_iter >= 1
        assert np.all(np.isfinite(gap))
        assert np.all(gap >= values - p_ref - 1e-14)
        assert trace.meta["gap"] == gap[-1]

    def test_dr_split_dual_points_outside_the_ball_are_clipped(self):
        # DR's multiplier of z = grad x approaches the ball from outside;
        # unclipped, its bound would exceed the optimal value
        inst = tv_denoise_fixture()
        y, grad, lam = inst.metadata["y"], inst.metadata["grad"], inst.metadata["lambda"]
        p_ref = _reference_objective(inst)
        trace, x = inst.run("dr_split", SolverConfig(gap_tol=1e-12, max_iter=300,
                                                     keep_iterates=True))
        graph = AffineGraphIndicator(grad)
        n = y.size
        outside, unclipped = [], []
        for governing in trace.iterates[1:]:
            p = (graph.prox(governing, 1.0) - governing)[n:]
            r = y - grad.adjoint(p)
            outside.append(np.max(np.abs(p)) > lam)
            unclipped.append(0.5 * float(y @ y) - 0.5 * float(r @ r))
        assert any(outside)
        assert max(unclipped) > p_ref
        values = np.append(trace.objective[1:], inst.objective(x))
        assert np.all(trace.extras["gap"] >= values - p_ref - 1e-14)

    @pytest.mark.parametrize("recipe", ["dr_split", "ppxa"])
    def test_split_gap_of_the_z_block_is_the_full_u_gap(self, recipe, monkeypatch):
        # the split gap forms -u_z = -(x_z - y_z)/gamma alone; without that
        # path the loop forms all of u = (x - y)/gamma and the gap reads its
        # z block: the same bytes, in every row and at the end
        inst = tv_denoise_fixture()
        cfg = SolverConfig(gamma=0.7, gap_tol=1e-13, max_iter=60)
        z_block, x_z = inst.run(recipe, cfg)
        monkeypatch.delattr(problems._SplitGap, "_of_shadow")
        full_u, x_u = inst.run(recipe, cfg)
        assert z_block.n_iter == full_u.n_iter == 60
        assert np.unique(z_block.extras["gap"]).size > 50
        assert z_block.extras["gap"].tobytes() == full_u.extras["gap"].tobytes()
        assert np.float64(z_block.meta["gap"]).tobytes() == np.float64(full_u.meta["gap"]).tobytes()
        assert x_z.tobytes() == x_u.tobytes()

    @pytest.mark.parametrize("fixture,recipe,reused", [
        ("tv_denoise", "cp", True), ("tv_denoise", "condat", True),
        ("tv_denoise", "dual_fb", True), ("lasso", "fb", True),
        # a recombined row (fista) and a row one iteration behind its gap
        # point (dr_split) evaluate P again
        ("lasso", "fista", False), ("tv_denoise", "dr_split", False),
    ])
    def test_gap_reuses_the_recorded_objective(self, fixture, recipe, reused, monkeypatch):
        # where a row holds P(x) of the gap's point bit for bit, the gap
        # takes it and skips one forward product per row, with equal bytes
        def counted(inst):
            op = inst.metadata["grad"] if fixture == "tv_denoise" else inst.metadata["f"].A
            apply, calls = op._apply, []
            op._apply = lambda x: calls.append(1) or apply(x)
            trace, x = inst.run(recipe, SolverConfig(gap_tol=1e-13, max_iter=40))
            return trace, x, len(calls)

        build = tv_denoise_fixture if fixture == "tv_denoise" else lambda: lasso_dense_fixture(3)
        trace, x, calls = counted(build())
        monkeypatch.delattr(problems._DualityGap, "_from_objective")
        direct, x_direct, direct_calls = counted(build())
        assert trace.n_iter == direct.n_iter == 40
        assert direct_calls - calls == (trace.n_iter if reused else 0)
        for column in ("objective", "residual"):
            assert getattr(trace, column).tobytes() == getattr(direct, column).tobytes()
        assert trace.extras["gap"].tobytes() == direct.extras["gap"].tobytes()
        assert x.tobytes() == x_direct.tobytes()

    @pytest.mark.parametrize("build,recipe", [
        ("tvl1", "cp"), ("tvl1", "dr_split"), ("tv_inverse", "condat"),
        ("tv_inverse", "cp2"), ("wavelet_reg", "fb"), ("wavelet_reg", "fista"),
        ("poisson_editing", "projected_gradient"),
    ])
    def test_recipes_without_a_gap_reject_gap_tol(self, build, recipe):
        grid = generate_synthetic("step_image", (4, 4), sigma=0.1, seed=1)["y"].reshape(4, 4)
        inst = {
            "tvl1": lambda: build_tvl1(grid, 0.3),
            "tv_inverse": tv_inverse_fixture,
            "wavelet_reg": lambda: build_wavelet_reg(
                IdentityOperator(16), grid.ravel(), 0.1, IdentityOperator(16)),
            "poisson_editing": lambda: build_poisson_editing(
                np.zeros(32), grid, np.arange(16) % 3 == 0),
        }[build]()
        with pytest.raises(ConfigError, match="duality gap"):
            inst.run(recipe, SolverConfig(gap_tol=1e-8, max_iter=5))
        trace, _ = inst.run(recipe, SolverConfig(max_iter=5))
        assert "gap" not in trace.meta


class TestTVInverse:
    def test_identity_reduces_to_denoise(self):
        data = generate_synthetic("step_image", (5, 5), sigma=0.05, seed=4)
        den = build_tv_denoise(data["y"].reshape(5, 5), 0.08)
        inv = build_tv_inverse(IdentityOperator(25), data["y"], 0.08, 5, 5)
        _, x_den = den.run("cp", SolverConfig(max_iter=5000))
        _, x_inv = inv.run("cp2", SolverConfig(max_iter=5000))
        assert abs(den.objective(x_den) - inv.objective(x_inv)) <= 1e-5

    def test_mask_inpainting_recipes_agree(self):
        data = generate_synthetic("step_image", (6, 6), sigma=0.0, seed=5)
        mask = generate_synthetic("mask_pattern", 36, seed=6)
        A = MaskOperator(mask["pattern"])
        inst = build_tv_inverse(A, A.apply(data["x_true"]), 0.02, 6, 6)
        _, x_condat = inst.run("condat", SolverConfig(max_iter=6000))
        _, x_cp = inst.run("cp2", SolverConfig(max_iter=6000))
        best = min(inst.objective(x_condat), inst.objective(x_cp))
        assert abs(inst.objective(x_condat) - inst.objective(x_cp)) <= 1e-4 * max(
            abs(best), 1e-12)

    def test_zero_weight_invertible_design(self):
        data = generate_synthetic("ramp", (3, 4), sigma=0.0, seed=1)
        A = ScaleOperator(2.0, 12)
        y = A.apply(data["x_true"])
        inst = build_tv_inverse(A, y, 0.0, 3, 4)
        _, x = inst.run("condat", SolverConfig(max_iter=4000))
        assert np.allclose(x, data["x_true"], atol=1e-6)

    def test_deblurring_recipes_agree(self):
        # 8x8 deblurring through a periodic 2-d blur kernel
        data = generate_synthetic("step_image", (8, 8), sigma=0.0, seed=12)
        blur = generate_synthetic("blur_kernel", 3, seed=0)
        k1 = blur["kernel"]
        from proxsplit.linops import CircularConv
        A = CircularConv(np.outer(k1, k1), shape=(8, 8))
        y = A.apply(data["x_true"])
        inst = build_tv_inverse(A, y, 0.01, 8, 8)
        _, x_condat = inst.run("condat", SolverConfig(max_iter=8000))
        _, x_cp = inst.run("cp2", SolverConfig(max_iter=8000))
        v1, v2 = inst.objective(x_condat), inst.objective(x_cp)
        assert abs(v1 - v2) <= 1e-4 * max(abs(min(v1, v2)), 1e-12)

    def test_explicit_gradient_recipe_settles_monotone(self):
        # primal-dual with an explicit data step oscillates early, then the
        # objective stops rising above its running minimum
        data = generate_synthetic("step_image", (6, 6), sigma=0.0, seed=5)
        mask = generate_synthetic("mask_pattern", 36, seed=6)
        A = MaskOperator(mask["pattern"])
        inst = build_tv_inverse(A, A.apply(data["x_true"]), 0.05, 6, 6)
        trace, x = inst.run("condat", SolverConfig(max_iter=4000))
        obj = trace.objective
        run_min = np.minimum.accumulate(obj)
        assert np.max(obj[500:] - run_min[500:]) <= 1e-10
        _, x_cp = inst.run("cp2", SolverConfig(max_iter=6000))
        best = min(inst.objective(x), inst.objective(x_cp))
        assert (abs(inst.objective(x) - inst.objective(x_cp))
                <= 1e-4 * max(abs(best), 1e-12))


class TestTVL1:
    def test_constant_image_fixed(self):
        inst = build_tvl1(np.full((3, 3), 0.4), 0.5)
        _, x = inst.run("cp", SolverConfig(max_iter=500))
        assert np.allclose(x, 0.4, atol=1e-6)

    def test_two_pixel_grid_oracle(self):
        y = np.array([[0.0, 1.0]])
        lam = 0.3
        inst = build_tvl1(y, lam)
        _, x = inst.run("cp", SolverConfig(max_iter=20000))
        # brute-force oracle over a fine 2-d grid
        g = np.linspace(-0.5, 1.5, 801)
        zz = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = (np.abs(zz[:, 0]) + np.abs(zz[:, 1] - 1.0)
                + lam * np.abs(zz[:, 1] - zz[:, 0]))
        best = vals.min()
        assert inst.objective(x) <= best + 5e-3

    def test_recipes_agree(self):
        data = generate_synthetic("step_image", (4, 4), sigma=0.1, seed=8)
        inst = build_tvl1(data["y"].reshape(4, 4), 0.2)
        _, x_cp = inst.run("cp", SolverConfig(max_iter=8000))
        _, x_dr = inst.run("dr_split", SolverConfig(max_iter=8000))
        best = min(inst.objective(x_cp), inst.objective(x_dr))
        assert (abs(inst.objective(x_cp) - inst.objective(x_dr))
                <= 1e-4 * max(abs(best), 1e-12))


class TestPoissonEditing:
    def test_source_equals_target_is_fixed(self):
        target = np.linspace(0, 1, 16).reshape(4, 4)
        grad = Grad2D(4, 4)
        omega = np.zeros(16, dtype=bool)
        omega[[5, 6, 9, 10]] = True
        inst = build_poisson_editing(grad.apply(target.ravel()), target, omega)
        _, x = inst.run("projected_gradient", SolverConfig(max_iter=500))
        assert np.allclose(x, target.ravel(), atol=1e-8)

    def test_interior_matches_linear_system_oracle(self):
        rows = cols = 5
        rng = np.random.default_rng(9)
        target = np.zeros((rows, cols))
        source = rng.standard_normal(rows * cols)
        grad = Grad2D(rows, cols)
        s_grad = grad.apply(source)
        omega = np.zeros(rows * cols, dtype=bool)
        for r in range(1, rows - 1):
            for c in range(1, cols - 1):
                omega[r * cols + c] = True
        inst = build_poisson_editing(s_grad, target, omega)
        _, x = inst.run("projected_gradient", SolverConfig(max_iter=20000))
        # oracle: solve the reduced least squares over the free pixels
        M2 = np.concatenate([omega, omega])
        G = np.stack([grad.apply(e) for e in np.eye(rows * cols)], axis=1)
        Gm = G[M2]
        free = np.where(omega)[0]
        target_vec = target.ravel().copy()
        rhs = s_grad[M2] - Gm @ np.where(omega, 0.0, target_vec)
        sol, *_ = np.linalg.lstsq(Gm[:, free], rhs, rcond=None)
        expected = target_vec.copy()
        expected[free] = sol
        assert np.max(np.abs(x - expected)) <= 1e-5

    def test_empty_interior_returns_target(self):
        target = np.ones((3, 3))
        grad = Grad2D(3, 3)
        omega = np.zeros(9, dtype=bool)
        inst = build_poisson_editing(np.zeros(grad.out_dim), target, omega)
        _, x = inst.run("projected_gradient", SolverConfig(max_iter=2))
        assert np.array_equal(x, target.ravel())

    def test_full_mask_warns(self):
        target = np.ones((3, 3))
        with pytest.warns(UserWarning):
            build_poisson_editing(np.zeros(18), target, np.ones(9, dtype=bool))


@pytest.mark.parametrize("image", [np.zeros(4), np.zeros((1, 2, 2))], ids=["1d", "3d"])
@pytest.mark.parametrize("build", [
    lambda image: build_tv_denoise(image, 0.1),
    lambda image: build_tvl1(image, 0.1),
    lambda image: build_poisson_editing(np.zeros(8), image, np.zeros(4, dtype=bool)),
], ids=["tv_denoise", "tvl1", "poisson_editing"])
def test_builders_reject_a_non_2d_image(build, image):
    with pytest.raises(DimensionError):
        build(image)


def test_builders_copy_the_image():
    image = np.full((3, 3), 0.5)
    inst = build_tv_denoise(image, 0.1)
    image[0, 0] = 9.0
    assert np.array_equal(inst.metadata["y"], np.full(9, 0.5))


class TestWaveletReg:
    def test_identity_transform_is_lasso(self):
        y = np.array([3.0, 0.5, -2.0])
        inst = build_wavelet_reg(IdentityOperator(3), y, 1.0, IdentityOperator(3))
        _, x = inst.run("fista", SolverConfig(max_iter=300))
        assert np.allclose(x, [2.0, 0.0, -1.0], atol=1e-8)

    def test_haar_closed_form(self):
        h = np.array([
            [0.5, 0.5, 0.5, 0.5],
            [0.5, 0.5, -0.5, -0.5],
            [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0, 0.0],
            [0.0, 0.0, 1 / np.sqrt(2), -1 / np.sqrt(2)],
        ])
        T = DenseOperator(h)
        y = np.array([1.0, 0.2, -0.4, 0.8])
        lam = 0.3
        inst = build_wavelet_reg(IdentityOperator(4), y, lam, T)
        _, x = inst.run("fista", SolverConfig(max_iter=2000))
        expected = h.T @ soft_threshold(h @ y, lam)
        assert np.allclose(x, expected, atol=1e-7)

    def test_zero_weight_least_squares(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((5, 4))
        y = rng.standard_normal(5)
        h = np.eye(4)
        inst = build_wavelet_reg(DenseOperator(A), y, 0.0, DenseOperator(h))
        _, x = inst.run("fista", SolverConfig(max_iter=5000))
        oracle, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert np.allclose(x, oracle, atol=1e-6)


class TestSynthetic:
    def test_zero_noise_is_exact(self):
        data = generate_synthetic("sparse_vector", (6, 6), sigma=0.0, seed=1)
        assert np.array_equal(data["y"], data["A"] @ data["x_true"])

    def test_deterministic_given_seed(self):
        a = generate_synthetic("step_image", (4, 4), sigma=0.3, seed=42)
        b = generate_synthetic("step_image", (4, 4), sigma=0.3, seed=42)
        assert np.array_equal(a["y"], b["y"])
        c = generate_synthetic("step_image", (4, 4), sigma=0.3, seed=43)
        assert not np.array_equal(a["y"], c["y"])

    def test_sparse_vector_exact_count(self):
        data = generate_synthetic("sparse_vector", (50, 100), sigma=0.0, seed=0)
        assert np.count_nonzero(data["x_true"]) == 10

    def test_mask_pattern_keeps_half(self):
        data = generate_synthetic("mask_pattern", 20, seed=3)
        assert data["pattern"].sum() == 10

    def test_blur_kernel_normalized(self):
        data = generate_synthetic("blur_kernel", 5, seed=0)
        assert data["kernel"].sum() == pytest.approx(1.0)

    def test_unknown_kind(self):
        with pytest.raises(FixtureError):
            generate_synthetic("fractal", 8)

    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    @pytest.mark.parametrize("dims", [(4, 5, 6), (), (0, 4), [4, -1], 0, 4.0, True, "4"],
                             ids=["three", "empty", "zero_side", "negative_side", "zero",
                                  "float", "bool", "string"])
    def test_dims_are_one_or_two_positive_integers(self, kind, dims):
        with pytest.raises(FixtureError, match="dims"):
            generate_synthetic(kind, dims)

    @pytest.mark.parametrize("dims", [[7, 9], (5, 3), [7, 7]])
    def test_blur_kernel_takes_one_width(self, dims):
        with pytest.raises(FixtureError, match="one odd width"):
            generate_synthetic("blur_kernel", dims)

    def test_blur_kernel_width_bare_or_listed(self):
        bare = generate_synthetic("blur_kernel", 7)["kernel"]
        assert generate_synthetic("blur_kernel", [7])["kernel"].tobytes() == bare.tobytes()

    @pytest.mark.parametrize("dims,n", [(6, 6), ([6], 6), ((6,), 6), ([2, 3], 6), ([4, 4], 16)])
    def test_mask_pattern_has_one_entry_per_cell(self, dims, n):
        data = generate_synthetic("mask_pattern", dims, seed=3)
        assert data["n"] == data["pattern"].size == n
        assert data["pattern"].tobytes() == generate_synthetic(
            "mask_pattern", n, seed=3)["pattern"].tobytes()

    def test_gaussian_stream_moments(self):
        stream = GaussianStream(0)
        draws = stream.normals(20000)
        assert abs(draws.mean()) <= 0.03
        assert abs(draws.std() - 1.0) <= 0.03

    # calls of every parity, with the spare sine carried across uniforms and
    # empty calls
    CALLS = [("normals", 5), ("uniforms", 3), ("normals", 4), ("normals", 1), ("normals", 0),
             ("uniforms", 0), ("normals", 7), ("uniforms", 2), ("normals", 2), ("normals", 3),
             ("uniforms", 1), ("normals", 64), ("normals", 101), ("uniforms", 50)]

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**32 + 1, 2**40 - 1, 2**40])
    def test_gaussian_stream_is_the_scalar_definition(self, seed):
        stream, ref = GaussianStream(seed), _ScalarStream(seed)
        for method, n in self.CALLS:
            draw = ref.normal if method == "normals" else ref.uniform
            want = np.array([draw() for _ in range(n)], dtype=float)
            assert getattr(stream, method)(n).tobytes() == want.tobytes(), (method, n)


class _ScalarStream:
    # splitmix64 on Python ints, one draw at a time, then Box-Muller in pairs
    # (cos first, sin kept for the next draw)
    GOLDEN = 0x9E3779B97F4A7C15

    def __init__(self, seed):
        self.state = (seed * self.GOLDEN + 0x1234567) % 2**64
        self.spare = None

    def uniform(self):
        self.state = (self.state + self.GOLDEN) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        z ^= z >> 31
        return ((z >> 11) + 1) / 2.0**53

    def normal(self):
        if self.spare is not None:
            z, self.spare = self.spare, None
            return z
        u1, u2 = self.uniform(), self.uniform()
        r = np.sqrt(-2.0 * np.log(u1))
        self.spare = r * np.sin(2.0 * np.pi * u2)
        return r * np.cos(2.0 * np.pi * u2)


def _write_pgm(path, img):
    # binary PGM: P5 header (width, height, maxval 255), then one byte per pixel
    rows, cols = img.shape
    path.write_bytes(f"P5\n{cols} {rows}\n255\n".encode("ascii")
                     + np.round(img * 255.0).astype(np.uint8).tobytes())


class TestCsvMatrix:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.5,-4.0\n")
        assert np.array_equal(read_csv_rows(path), [[1.0, 2.0], [3.5, -4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.5\n")
        with pytest.raises(ValueError):
            read_csv_rows(path)


class TestImageIO:
    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.random((3, 5))
        path = tmp_path / "img.csv"
        write_csv_rows(path, img)
        assert np.array_equal(read_image(path), img)

    def test_pgm_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.random((4, 6))
        path = tmp_path / "img.pgm"
        _write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (4, 6)
        assert np.max(np.abs(back - img)) <= 1.0 / 255.0

    def test_truncated_pgm_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        _write_pgm(path, np.random.default_rng(0).random((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FixtureError):
            read_pgm(path)

    def test_image_key_reads_csv_like_image_csv(self, tmp_path):
        path = tmp_path / "img.csv"
        write_csv_rows(path, np.random.default_rng(3).random((3, 5)))
        insts = [build_from_config({"kind": "tv_denoise", key: str(path), "lambda": 0.1})
                 for key in ("image", "image_csv")]
        for key in ("rows", "cols", "y"):
            assert (np.asarray(insts[0].metadata[key]).tobytes()
                    == np.asarray(insts[1].metadata[key]).tobytes())
        x = np.linspace(0.0, 1.0, 15)
        assert insts[0].objective(x) == insts[1].objective(x)

    def test_image_key_reads_upper_case_pgm(self, tmp_path):
        path = tmp_path / "IMG.PGM"
        _write_pgm(path, np.random.default_rng(4).random((4, 6)))
        inst = build_from_config({"kind": "tv_denoise", "image": str(path), "lambda": 0.1})
        assert (inst.metadata["rows"], inst.metadata["cols"]) == (4, 6)
        assert inst.metadata["y"].tobytes() == read_pgm(path).tobytes()

    def test_non_rectangular_csv_rejected(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FixtureError):
            read_image(path)


class TestFixtureBundles:
    def test_roundtrip(self, tmp_path):
        data = generate_synthetic("sparse_vector", (5, 8), sigma=0.1, seed=2)
        out = write_fixture(tmp_path / "bundle", data,
                            expected={"objective": 1.25})
        back = load_fixture(out)
        assert np.array_equal(back["y"], data["y"])
        assert np.array_equal(back["A"], data["A"])
        assert back["expected"]["objective"] == 1.25

    def test_ragged_matrix_payload_names_the_file(self, tmp_path):
        data = generate_synthetic("sparse_vector", (3, 4), sigma=0.0, seed=2)
        out = write_fixture(tmp_path / "bundle", data)
        (out / "A.csv").write_text("1.0,2.0,3.0,4.0\n5.0,6.0\n1.0,1.0,1.0,1.0\n")
        with pytest.raises(FixtureError, match="A.csv"):
            load_fixture(out)

    def test_malformed_vector_payload_names_the_file(self, tmp_path):
        data = generate_synthetic("sparse_vector", (3, 4), sigma=0.0, seed=2)
        out = write_fixture(tmp_path / "bundle", data)
        (out / "y.csv").write_text("1.0\nabc\n2.0\n")
        with pytest.raises(FixtureError, match="y.csv"):
            load_fixture(out)

    def test_vector_payload_with_two_columns_rejected(self, tmp_path):
        data = generate_synthetic("sparse_vector", (3, 4), sigma=0.0, seed=2)
        out = write_fixture(tmp_path / "bundle", data)
        (out / "y.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(FixtureError, match="y.csv"):
            load_fixture(out)

    def test_one_writer_for_vectors_and_matrices(self, tmp_path):
        path = tmp_path / "v.csv"
        write_csv_rows(path, np.array([1.0, 0.1, -3.0]))
        assert path.read_text() == "1.0\n0.1\n-3.0\n"
        write_csv_rows(path, np.array([True, False]))
        assert path.read_text() == "1.0\n0.0\n"
        write_csv_rows(path, np.array([[1.0, 2.5], [0.1, -3.0]]))
        assert path.read_text() == "1.0,2.5\n0.1,-3.0\n"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FixtureError):
            load_fixture(tmp_path)

    # -- the checked binary cache: <key>.npy next to each CSV payload --------

    @pytest.mark.parametrize("kind, dims, keys", [
        ("sparse_vector", (5, 8), ("A", "y", "x_true")),
        ("blur_kernel", 5, ("kernel",)),
        ("mask_pattern", 12, ("pattern",)),
    ])
    def test_cached_payloads_equal_the_parsed_ones(self, tmp_path, monkeypatch,
                                                   kind, dims, keys):
        data = generate_synthetic(kind, dims, sigma=0.1, seed=5)
        out = write_fixture(tmp_path / "bundle", data)
        reads = []

        def counted(path):
            reads.append(pathlib.Path(path).name)
            return read_csv_rows(path)

        monkeypatch.setattr(datamod, "read_csv_rows", counted)
        cached = load_fixture(out)
        assert reads == []
        for key in keys:
            (out / f"{key}.npy").unlink()
        parsed = load_fixture(out)
        assert sorted(reads) == sorted(f"{key}.csv" for key in keys)
        for key in keys:
            assert cached[key].dtype == parsed[key].dtype == np.asarray(data[key]).dtype
            assert cached[key].shape == parsed[key].shape == np.shape(data[key])
            assert cached[key].tobytes() == parsed[key].tobytes()
        assert set(cached) == set(parsed) and "cache" not in cached

    def test_same_size_edit_of_the_csv_is_read_from_the_csv(self, tmp_path):
        data = generate_synthetic("sparse_vector", (4, 6), sigma=0.0, seed=2)
        out = write_fixture(tmp_path / "bundle", data)
        text = (out / "A.csv").read_text()
        i = next(i for i, ch in enumerate(text) if ch in "12345678")
        edited = text[:i] + str(int(text[i]) + 1) + text[i + 1:]
        (out / "A.csv").write_text(edited)
        assert len(edited) == len(text)
        back = load_fixture(out)["A"]
        assert back.tobytes() == read_csv_rows(out / "A.csv").tobytes()
        assert np.sum(back != data["A"]) == 1

    @pytest.mark.parametrize("damage", ["truncated", "truncated_and_recorded",
                                        "other_array"])
    def test_damaged_cache_falls_back_to_the_csv(self, tmp_path, damage):
        data = generate_synthetic("sparse_vector", (4, 6), sigma=0.1, seed=2)
        out = write_fixture(tmp_path / "bundle", data)
        npy = out / "A.npy"
        if damage == "other_array":
            np.save(npy, data["A"] + 1.0)
        else:
            npy.write_bytes(npy.read_bytes()[:-9])
        if damage == "truncated_and_recorded":
            # a record that matches the damaged file: np.load itself fails
            manifest = json.loads((out / "manifest.json").read_text())
            manifest["cache"]["A.npy"] = datamod._file_check(npy)
            (out / "manifest.json").write_text(json.dumps(manifest))
        back = load_fixture(out)
        assert back["A"].tobytes() == data["A"].tobytes()
        assert back["y"].tobytes() == data["y"].tobytes()

    @pytest.mark.parametrize("npy_files", ["absent", "stale"])
    def test_bundle_without_a_cache_record_loads(self, tmp_path, npy_files):
        data = generate_synthetic("sparse_vector", (4, 6), sigma=0.1, seed=2)
        out = write_fixture(tmp_path / "bundle", data)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["cache"]
        (out / "manifest.json").write_text(json.dumps(manifest))
        for key in ("A", "y", "x_true"):
            if npy_files == "absent":
                (out / f"{key}.npy").unlink()
            else:
                np.save(out / f"{key}.npy", np.zeros((6, 1)))
        back = load_fixture(out)
        for key in ("A", "y", "x_true"):
            assert back[key].tobytes() == data[key].tobytes()

    def test_build_from_config_with_fixture(self, tmp_path, monkeypatch):
        data = generate_synthetic("sparse_vector", (5, 8), sigma=0.0, seed=2)
        data["lambda"] = 0.2
        write_fixture(tmp_path / "b", data)
        monkeypatch.setenv("PROXSPLIT_FIXTURES", str(tmp_path))
        inst = build_from_config({"kind": "lasso", "fixture": "b"})
        assert inst.name == "lasso"
        assert inst.metadata["lambda"] == 0.2

    def test_build_from_config_inline(self):
        inst = build_from_config({"kind": "lasso", "y": [3.0, 0.5], "lambda": 1.0})
        _, x = inst.run("fb", SolverConfig(max_iter=100))
        assert np.allclose(x, [2.0, 0.0], atol=1e-9)

    def test_build_unknown_kind(self):
        with pytest.raises(ValueError):
            build_from_config({"kind": "sudoku"})


class TestObjectiveConsistency:
    def test_shared_probe_point(self):
        # the same evaluator serves every recipe: probing is recipe-free
        data = generate_synthetic("step_image", (4, 4), sigma=0.1, seed=11)
        inst = build_tv_denoise(data["y"].reshape(4, 4), 0.15)
        probe = data["y"] * 0.5
        v = inst.objective(probe)
        grad = inst.metadata["grad"]
        direct = (0.5 * np.sum((probe - data["y"]) ** 2)
                  + 0.15 * np.sum(np.abs(grad.apply(probe))))
        assert v == pytest.approx(direct, abs=1e-10)
