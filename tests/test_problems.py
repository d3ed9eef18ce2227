import numpy as np
import pytest

from proxsplit.data import (
    FixtureError,
    GaussianStream,
    generate_synthetic,
    load_fixture,
    read_csv_grid,
    read_pgm,
    write_csv_rows,
    write_fixture,
    write_pgm,
)
from proxsplit.funcs import soft_threshold
from proxsplit.linops import (
    DenseOperator,
    Grad2D,
    IdentityOperator,
    ImageGrid,
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
from proxsplit.suite import tv_denoise_fixture


class TestLasso:
    def test_identity_design_closed_form(self):
        y = np.array([3.0, 0.5, -2.0])
        inst = build_lasso(IdentityOperator(3), y, 1.0)
        assert np.allclose(inst.ground_truth["x"], [2.0, 0.0, -1.0])
        _, x = inst.run("fista", SolverConfig(max_iter=200))
        assert np.allclose(x, [2.0, 0.0, -1.0], atol=1e-8)

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
        grid = ImageGrid.from_array(np.full((4, 4), 0.7))
        inst = build_tv_denoise(grid, 0.3)
        _, x = inst.run("cp", SolverConfig(max_iter=300))
        assert np.allclose(x, 0.7, atol=1e-8)

    def test_step_signal_recipes_agree(self):
        sig = np.array([[0.0, 0.0, 0.1, 0.9, 1.0, 1.0]])
        inst = build_tv_denoise(ImageGrid.from_array(sig), 0.05)
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
        inst = build_tv_denoise(ImageGrid(4, 4, data["y"]), 0.1)
        trace, _ = inst.run("dual_fb", SolverConfig(inertia="none", max_iter=20))
        assert trace.meta["config"].inertia == "none"
        assert "inertia_coef" not in trace.extras
        trace, _ = inst.run("dual_fb", SolverConfig(max_iter=20))
        assert "inertia_coef" in trace.extras

    def test_huge_weight_flattens_to_mean(self):
        rng = np.random.default_rng(3)
        img = rng.standard_normal((4, 4))
        img -= img.mean()
        inst = build_tv_denoise(ImageGrid.from_array(img), 50.0)
        _, x = inst.run("cp", SolverConfig(max_iter=4000))
        assert np.max(np.abs(x - img.mean())) <= 1e-3

    def test_16x16_recipes_agree(self):
        # top of the supported desk-scale range
        data = generate_synthetic("step_image", (16, 16), sigma=0.05, seed=3)
        inst = build_tv_denoise(ImageGrid(16, 16, data["y"]), 0.1)
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

    def test_dual_recovery_matches_primal(self):
        data = generate_synthetic("step_image", (6, 6), sigma=0.05, seed=2)
        grid = ImageGrid(6, 6, data["y"])
        inst = build_tv_denoise(grid, 0.1)
        _, x_cp = inst.run("cp", SolverConfig(max_iter=6000))
        _, x_dual = inst.run("dual_fb", SolverConfig(max_iter=6000))
        assert np.max(np.abs(x_cp - x_dual)) <= 1e-4


class TestTVInverse:
    def test_identity_reduces_to_denoise(self):
        data = generate_synthetic("step_image", (5, 5), sigma=0.05, seed=4)
        grid = ImageGrid(5, 5, data["y"])
        den = build_tv_denoise(grid, 0.08)
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
        grid = ImageGrid.from_array(np.full((3, 3), 0.4))
        inst = build_tvl1(grid, 0.5)
        _, x = inst.run("cp", SolverConfig(max_iter=500))
        assert np.allclose(x, 0.4, atol=1e-6)

    def test_two_pixel_grid_oracle(self):
        y = np.array([[0.0, 1.0]])
        lam = 0.3
        inst = build_tvl1(ImageGrid.from_array(y), lam)
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
        inst = build_tvl1(ImageGrid(4, 4, data["y"]), 0.2)
        _, x_cp = inst.run("cp", SolverConfig(max_iter=8000))
        _, x_dr = inst.run("dr_split", SolverConfig(max_iter=8000))
        best = min(inst.objective(x_cp), inst.objective(x_dr))
        assert (abs(inst.objective(x_cp) - inst.objective(x_dr))
                <= 1e-4 * max(abs(best), 1e-12))


class TestPoissonEditing:
    def test_source_equals_target_is_fixed(self):
        target = ImageGrid.from_array(np.linspace(0, 1, 16).reshape(4, 4))
        grad = Grad2D(4, 4)
        omega = np.zeros(16, dtype=bool)
        omega[[5, 6, 9, 10]] = True
        inst = build_poisson_editing(grad.apply(target.pixels), target, omega)
        _, x = inst.run("projected_gradient", SolverConfig(max_iter=500))
        assert np.allclose(x, target.pixels, atol=1e-8)

    def test_interior_matches_linear_system_oracle(self):
        rows = cols = 5
        rng = np.random.default_rng(9)
        target = ImageGrid.from_array(np.zeros((rows, cols)))
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
        target_vec = target.pixels.copy()
        rhs = s_grad[M2] - Gm @ np.where(omega, 0.0, target_vec)
        sol, *_ = np.linalg.lstsq(Gm[:, free], rhs, rcond=None)
        expected = target_vec.copy()
        expected[free] = sol
        assert np.max(np.abs(x - expected)) <= 1e-5

    def test_empty_interior_returns_target(self):
        target = ImageGrid.from_array(np.ones((3, 3)))
        grad = Grad2D(3, 3)
        omega = np.zeros(9, dtype=bool)
        inst = build_poisson_editing(np.zeros(grad.out_dim), target, omega)
        _, x = inst.run("projected_gradient", SolverConfig(max_iter=2))
        assert np.array_equal(x, target.pixels)

    def test_full_mask_warns(self):
        target = ImageGrid.from_array(np.ones((3, 3)))
        with pytest.warns(UserWarning):
            build_poisson_editing(np.zeros(18), target, np.ones(9, dtype=bool))


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

    def test_gaussian_stream_moments(self):
        stream = GaussianStream(0)
        draws = stream.normals(20000)
        assert abs(draws.mean()) <= 0.03
        assert abs(draws.std() - 1.0) <= 0.03


class TestImageIO:
    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = ImageGrid.from_array(rng.random((3, 5)))
        path = tmp_path / "img.csv"
        write_csv_rows(path, grid.to_array())
        back = read_csv_grid(path)
        assert np.array_equal(back.pixels, grid.pixels)

    def test_pgm_roundtrip_quantized(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = ImageGrid.from_array(rng.random((4, 6)))
        path = tmp_path / "img.pgm"
        write_pgm(path, grid)
        back = read_pgm(path)
        assert back.rows == 4 and back.cols == 6
        assert np.max(np.abs(back.pixels - grid.pixels)) <= 1.0 / 255.0

    def test_truncated_pgm_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        grid = ImageGrid.from_array(np.random.default_rng(0).random((4, 4)))
        write_pgm(path, grid)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FixtureError):
            read_pgm(path)

    def test_non_rectangular_csv_rejected(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FixtureError):
            read_csv_grid(path)


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

    def test_build_from_config_with_fixture(self, tmp_path):
        data = generate_synthetic("sparse_vector", (5, 8), sigma=0.0, seed=2)
        data["lambda"] = 0.2
        write_fixture(tmp_path / "b", data)
        inst = build_from_config({"kind": "lasso", "fixture": "b"},
                                 fixtures_root=tmp_path)
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
        inst = build_tv_denoise(ImageGrid(4, 4, data["y"]), 0.15)
        probe = data["y"] * 0.5
        v = inst.objective(probe)
        grad = inst.metadata["grad"]
        direct = (0.5 * np.sum((probe - data["y"]) ** 2)
                  + 0.15 * np.sum(np.abs(grad.apply(probe))))
        assert v == pytest.approx(direct, abs=1e-10)
