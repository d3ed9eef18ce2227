import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxsplit.funcs import (
    AffineGraphIndicator,
    BoxIndicator,
    ConjugateProx,
    ConsensusIndicator,
    HardThreshold,
    L1Norm,
    L1Residual,
    LinfBallIndicator,
    OrthogonalComposition,
    Quadratic,
    SeparableProx,
    ZeroFn,
    finite_difference_grad,
    indicator_prox,
    make_quadratic,
    precompose_prox,
    prox_conjugate,
    soft_threshold,
    solve_gram,
)
from proxsplit.linops import (
    CircularConv,
    ComposedOperator,
    DenseOperator,
    Grad2D,
    IdentityOperator,
    MaskOperator,
    ScaleOperator,
    StackOperator,
    conjugate_gradient,
)


def scalar_prox_oracle(value_fn, x, gamma, lo=-20.0, hi=20.0):
    """Coarse-to-fine grid search for argmin value_fn(z) + (z-x)^2/(2 gamma)."""
    center, width = 0.5 * (lo + hi), hi - lo
    best = None
    for _ in range(6):
        grid = np.linspace(center - width / 2, center + width / 2, 401)
        vals = np.array([value_fn(z) + (z - x) ** 2 / (2 * gamma) for z in grid])
        best = grid[int(np.argmin(vals))]
        center, width = best, 4 * width / 400
    return best


class TestQuadratic:
    def test_identity_prox(self):
        q = make_quadratic(IdentityOperator(1), [0.0], 1.0)
        assert q.prox([2.0], 1.0) == pytest.approx([1.0])

    def test_identity_grad(self):
        q = make_quadratic(IdentityOperator(1), [4.0], 1.0)
        assert q.grad([1.0]) == pytest.approx([-3.0])

    def test_wide_system_prox(self):
        # (Id + A*A) p = A* b solved by hand for A = [1, 1], b = 2
        q = make_quadratic(DenseOperator([[1.0, 1.0]]), [2.0], 1.0)
        assert np.allclose(q.prox([0.0, 0.0], 1.0), [2.0 / 3.0, 2.0 / 3.0], atol=1e-9)

    def test_cg_prox_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        x = rng.standard_normal(7)
        gamma, lam = 0.7, 2.0
        q = make_quadratic(DenseOperator(A), b, lam)
        expected = np.linalg.solve(np.eye(7) + gamma * lam * A.T @ A,
                                   x + gamma * lam * A.T @ b)
        assert np.allclose(q.prox(x, gamma), expected, atol=1e-9)

    def test_lipschitz_is_scaled_norm_squared(self):
        q = make_quadratic(DenseOperator(np.diag([2.0, 1.0])), np.zeros(2), 3.0)
        assert q.lipschitz == pytest.approx(12.0, rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        q = make_quadratic(DenseOperator(rng.standard_normal((4, 3))),
                           rng.standard_normal(4), 1.5)
        x = rng.standard_normal(3)
        fd = finite_difference_grad(q, x)
        exact = q.grad(x)
        assert np.linalg.norm(fd - exact) <= 1e-5 * (1 + np.linalg.norm(exact))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            make_quadratic(IdentityOperator(2), np.zeros(2), 0.0)


def _kernel(shape, seed=5):
    return np.random.default_rng(seed).standard_normal(shape)


class TestSolveGram:
    # operators whose Gram matrix is diagonal in one transform: the identity
    # basis, the DFT (periodic gradients, circular convolutions) or the
    # DCT-II (Neumann gradients), on odd, even and non-square grids
    SPECTRAL = {
        "identity": lambda: [IdentityOperator(6)],
        "scale": lambda: [ScaleOperator(-1.5, 6)],
        "mask": lambda: [MaskOperator(np.arange(6) % 2 == 0)],
        "grad_neumann_5x7": lambda: [Grad2D(5, 7)],
        "grad_neumann_8x8": lambda: [Grad2D(8, 8)],
        "grad_periodic_5x7": lambda: [Grad2D(5, 7, "periodic")],
        "grad_periodic_8x8": lambda: [Grad2D(8, 8, "periodic")],
        "conv_1d": lambda: [CircularConv(_kernel(3), dim=6)],
        "conv_1d_wrapped": lambda: [CircularConv(_kernel(9), dim=6)],
        "conv_2d": lambda: [CircularConv(_kernel((3, 3)), shape=(5, 7))],
        "conv_2d_wrapped": lambda: [CircularConv(_kernel((4, 5)), shape=(3, 4))],
        "stack_periodic_grad_conv": lambda: [StackOperator([
            Grad2D(5, 7, "periodic"), CircularConv(_kernel((3, 3)), shape=(5, 7))])],
        "scale_plus_grad": lambda: [ScaleOperator(2.0, 35), Grad2D(5, 7)],
    }
    # no shared basis: a blur over a Neumann gradient, dense, composed
    NO_BASIS = {
        "stack_conv_neumann_grad": lambda: StackOperator([
            CircularConv(_kernel((3, 3)), shape=(5, 7)), Grad2D(5, 7)]),
        "dense": lambda: DenseOperator(_kernel((4, 6))),
        "composition": lambda: ComposedOperator(Grad2D(2, 3), IdentityOperator(6)),
    }

    @staticmethod
    def _terms(ops):
        # a second, definite scale term keeps ridge 0 solvable for the
        # singular kinds (mask, gradients)
        n = ops[0].in_dim
        return [(0.7, K) for K in ops] + [(1.3, ScaleOperator(0.5, n))]

    @pytest.mark.parametrize("ridge", [0.0, 1.0])
    @pytest.mark.parametrize("kind", sorted(SPECTRAL))
    def test_diagonal_path_matches_cg_and_skips_it(self, kind, ridge, monkeypatch):
        import proxsplit.funcs as funcs

        terms = self._terms(self.SPECTRAL[kind]())
        n = terms[0][1].in_dim
        rhs = np.random.default_rng(4).standard_normal(n)
        # a composition with the identity hides the spectrum: CG path
        hidden = [(w, ComposedOperator(K, IdentityOperator(n))) for w, K in terms]
        via_cg = solve_gram(rhs, hidden, ridge)

        def no_cg(*args, **kwargs):
            raise AssertionError("the spectral path called conjugate gradient")

        monkeypatch.setattr(funcs, "conjugate_gradient", no_cg)
        exact = solve_gram(rhs, terms, ridge)
        assert np.max(np.abs(exact - via_cg)) <= 1e-10
        with pytest.raises(AssertionError):
            solve_gram(rhs, hidden, ridge)

    @pytest.mark.parametrize("kind", sorted(NO_BASIS))
    def test_without_a_shared_basis_runs_cg(self, kind, monkeypatch):
        import proxsplit.funcs as funcs

        calls = []

        def counted_cg(*args, **kwargs):
            calls.append(1)
            return conjugate_gradient(*args, **kwargs)

        monkeypatch.setattr(funcs, "conjugate_gradient", counted_cg)
        K = self.NO_BASIS[kind]()
        rhs = np.random.default_rng(4).standard_normal(K.in_dim)
        p = solve_gram(rhs, [(0.7, K)], 1.0)
        assert calls == [1]
        assert np.linalg.norm(p + 0.7 * K.adjoint(K.apply(p)) - rhs) <= 1e-10


class TestSoftThreshold:
    def test_catalog_cases(self):
        assert np.allclose(soft_threshold(np.array([2.0, -0.5, 1.0]), 1.0),
                           [1.0, 0.0, 0.0])

    def test_zero_weight_is_identity(self):
        x = np.array([3.0, -1.0, 0.2])
        assert np.array_equal(L1Norm(0.0).prox(x, 5.0), x)

    def test_negative_branch(self):
        assert L1Norm(1.0).prox(np.array([-3.0]), 1.0) == pytest.approx([-2.0])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_scalar_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = float(rng.uniform(-5, 5))
        gamma = float(rng.uniform(0.1, 3.0))
        lam = float(rng.uniform(0.1, 2.0))
        fn = L1Norm(lam)
        oracle = scalar_prox_oracle(lambda z: lam * abs(z), x, gamma)
        assert abs(fn.prox(np.array([x]), gamma)[0] - oracle) <= 2e-3


class TestIndicators:
    def test_box_clamp(self):
        fn = indicator_prox("box", {"lo": 0.0, "hi": 1.0})
        assert np.allclose(fn.prox(np.array([-1.0, 0.5, 9.0]), 1.0),
                           [0.0, 0.5, 1.0])

    def test_affine_graph_identity(self):
        fn = AffineGraphIndicator(IdentityOperator(1))
        assert np.allclose(fn.prox(np.array([0.0, 2.0]), 1.0), [1.0, 1.0])

    def test_consensus_mean(self):
        fn = ConsensusIndicator(2, 1)
        assert np.allclose(fn.prox(np.array([1.0, 3.0]), 1.0), [2.0, 2.0])

    def test_consensus_value_and_block_mismatch(self):
        fn = ConsensusIndicator(2, 2)
        assert fn.value(np.array([1.0, 2.0, 1.0, 2.0])) == 0.0
        assert fn.value(np.array([1.0, 2.0, 5.0, 2.0])) == np.inf
        with pytest.raises(Exception):
            fn.prox(np.array([1.0, 2.0, 3.0]), 1.0)

    def test_linf_ball_projection(self):
        fn = LinfBallIndicator(0.5)
        assert np.allclose(fn.prox(np.array([2.0, -0.2, -3.0]), 7.0),
                           [0.5, -0.2, -0.5])

    def test_affine_graph_general_projection_oracle(self):
        rng = np.random.default_rng(2)
        K = DenseOperator(rng.standard_normal((3, 2)))
        fn = AffineGraphIndicator(K)
        x = rng.standard_normal(5)
        p = fn.prox(x, 1.0)
        # oracle: least squares on the parameterized graph (p1, K p1)
        M = np.vstack([np.eye(2), K.matrix])
        p1, *_ = np.linalg.lstsq(M, x, rcond=None)
        assert np.allclose(p[:2], p1, atol=1e-8)
        assert np.allclose(p[2:], K.matrix @ p1, atol=1e-8)

    def test_prox_is_gamma_independent(self):
        fn = BoxIndicator(-1.0, 1.0)
        x = np.array([2.0, -3.0, 0.1])
        assert np.array_equal(fn.prox(x, 0.1), fn.prox(x, 10.0))


class TestL1Residual:
    def test_fixed_point_at_anchor(self):
        fn = L1Residual(np.array([1.0, -2.0]))
        assert np.allclose(fn.prox(np.array([1.0, -2.0]), 3.0), [1.0, -2.0])

    def test_reduces_to_plain_shrinkage(self):
        fn = L1Residual(np.array([0.0]))
        assert fn.prox(np.array([3.0]), 1.0) == pytest.approx([2.0])

    def test_collapse_inside_threshold(self):
        fn = L1Residual(np.array([5.0]))
        assert fn.prox(np.array([5.5]), 1.0) == pytest.approx([5.0])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_scalar_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        y = float(rng.uniform(-2, 2))
        x = float(rng.uniform(-5, 5))
        gamma = float(rng.uniform(0.2, 2.0))
        fn = L1Residual(np.array([y]))
        oracle = scalar_prox_oracle(lambda z: abs(z - y), x, gamma)
        assert abs(fn.prox(np.array([x]), gamma)[0] - oracle) <= 2e-3


class TestConjugation:
    def test_l1_conjugate_is_ball_projection(self):
        out = prox_conjugate(L1Norm(1.0), np.array([0.5]), 1.0)
        assert out == pytest.approx([0.5])
        out = prox_conjugate(L1Norm(1.0), np.array([2.5]), 1.0)
        assert out == pytest.approx([1.0])

    def test_half_square_self_conjugate(self):
        q = make_quadratic(IdentityOperator(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.3])
        assert np.allclose(prox_conjugate(q, x, 1.0), x / 2.0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_sum_identity_at_gamma_one(self, seed):
        rng = np.random.default_rng(seed)
        fns = [L1Norm(0.8), LinfBallIndicator(1.2),
               make_quadratic(IdentityOperator(4), rng.standard_normal(4))]
        fn = fns[seed % len(fns)]
        x = 3.0 * rng.standard_normal(4)
        total = fn.prox(x, 1.0) + prox_conjugate(fn, x, 1.0)
        assert np.allclose(total, x, atol=1e-10)

    def test_moreau_identity_against_independent_conjugates(self):
        # soft threshold vs ball clamp: two independent closed forms
        rng = np.random.default_rng(5)
        lam = 0.7
        f = L1Norm(lam)
        conj = f.conjugate()
        assert isinstance(conj, LinfBallIndicator)
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(50):
                x = 4.0 * rng.standard_normal(6)
                lhs = f.prox(x, gamma) + gamma * conj.prox(x / gamma, 1.0 / gamma)
                assert np.linalg.norm(lhs - x) <= 1e-8

    def test_conjugate_prox_requires_convex(self):
        with pytest.raises(ValueError):
            ConjugateProx(HardThreshold(1.0))


class TestSeparable:
    def test_two_l1_blocks_match_concatenation(self):
        fn = SeparableProx([(L1Norm(1.0), [0, 1]), (L1Norm(1.0), [2, 3])], 4)
        x = np.array([2.0, -0.5, 1.0, -3.0])
        assert np.allclose(fn.prox(x, 1.0), L1Norm(1.0).prox(x, 1.0))

    def test_mixed_blocks(self):
        fn = SeparableProx([(L1Norm(1.0), [0]), (BoxIndicator(0.0, 1.0), [1])], 2)
        assert np.allclose(fn.prox(np.array([2.0, 2.0]), 1.0), [1.0, 1.0])

    def test_single_block_is_underlying(self):
        fn = SeparableProx([(L1Norm(0.5), [0, 1, 2])], 3)
        x = np.array([1.0, -1.0, 0.2])
        assert np.array_equal(fn.prox(x, 2.0), L1Norm(0.5).prox(x, 2.0))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SeparableProx([(L1Norm(1.0), [0, 1]), (L1Norm(1.0), [1, 2])], 3)

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            SeparableProx([(L1Norm(1.0), [0])], 2)


class TestOrthogonalComposition:
    def test_identity_transform_reduces_to_inner(self):
        fn = OrthogonalComposition(IdentityOperator(3), L1Norm(1.0))
        x = np.array([2.0, -0.5, 1.0])
        assert np.allclose(fn.prox(x, 1.0), L1Norm(1.0).prox(x, 1.0))

    def test_haar_2x2_grid_oracle(self):
        h = DenseOperator(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
        lam = 0.6
        fn = OrthogonalComposition(h, L1Norm(lam))
        x = np.array([1.3, -0.4])
        p = fn.prox(x, 1.0)
        # brute-force minimization of ||z-x||^2/2 + lam ||Hz||_1 on a 2-d grid,
        # coarse-to-fine down to resolution ~1e-3
        center, width = np.zeros(2), 8.0
        for _ in range(5):
            g = np.linspace(-width / 2, width / 2, 81)
            zz = np.stack(np.meshgrid(center[0] + g, center[1] + g, indexing="ij"),
                          axis=-1).reshape(-1, 2)
            vals = (0.5 * np.sum((zz - x) ** 2, axis=1)
                    + lam * np.sum(np.abs(zz @ h.matrix.T), axis=1))
            center = zz[int(np.argmin(vals))]
            width = 4 * width / 80
        assert np.linalg.norm(p - center) <= 2e-3

    def test_permutation_transform(self):
        perm = DenseOperator(np.array([[0.0, 1.0, 0.0],
                                       [0.0, 0.0, 1.0],
                                       [1.0, 0.0, 0.0]]))
        fn = OrthogonalComposition(perm, L1Norm(1.0))
        x = np.array([2.0, -0.5, 1.0])
        expected = perm.adjoint(L1Norm(1.0).prox(perm.apply(x), 1.0))
        assert np.allclose(fn.prox(x, 1.0), expected)
        assert np.allclose(fn.prox(x, 1.0), L1Norm(1.0).prox(x, 1.0))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            OrthogonalComposition(DenseOperator([[2.0, 0.0], [0.0, 1.0]]),
                                  L1Norm(1.0))


class TestHardThreshold:
    def test_keep_above(self):
        assert HardThreshold(1.0).prox(np.array([3.0]), 1.0) == pytest.approx([3.0])

    def test_kill_below(self):
        assert HardThreshold(1.0).prox(np.array([1.0]), 1.0) == pytest.approx([0.0])

    def test_zero_fixed(self):
        assert HardThreshold(1.0).prox(np.array([0.0]), 1.0) == pytest.approx([0.0])

    def test_tie_resolves_to_zero(self):
        x = np.sqrt(2.0)  # x^2 == 2*weight*gamma exactly up to rounding
        out = HardThreshold(1.0).prox(np.array([x]), 1.0)
        assert out[0] == 0.0 or out[0] == x  # rounding may land either side
        exact = HardThreshold(0.5).prox(np.array([1.0]), 1.0)  # 1 == 2*0.5*1
        assert exact[0] == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_two_point_oracle(self, seed):
        # the prox is argmin over {0, x} of (p-x)^2/2 + lam*gamma*[p != 0]
        rng = np.random.default_rng(seed)
        x = float(rng.uniform(-4, 4))
        lam = float(rng.uniform(0.2, 2.0))
        gamma = float(rng.uniform(0.2, 2.0))
        keep_cost = lam * gamma
        kill_cost = 0.5 * x * x
        expected = 0.0 if kill_cost <= keep_cost else x
        assert HardThreshold(lam).prox(np.array([x]), gamma)[0] == expected

    def test_idempotent(self):
        fn = HardThreshold(0.8)
        x = np.array([2.0, 0.3, -1.5, 0.0])
        once = fn.prox(x, 1.0)
        assert np.array_equal(fn.prox(once, 1.0), once)


class TestPrecompose:
    def test_identity_passthrough(self):
        f = L1Norm(1.0)
        assert precompose_prox(f, IdentityOperator(3)) is f

    def test_diagonal_l1_oracle(self):
        d = np.array([2.0, -0.5])
        fn = precompose_prox(L1Norm(0.7), DenseOperator(np.diag(d)))
        x = np.array([1.1, -3.0])
        gamma = 0.9
        for i in range(2):
            oracle = scalar_prox_oracle(lambda z: 0.7 * abs(d[i] * z), x[i], gamma)
            assert abs(fn.prox(x, gamma)[i] - oracle) <= 2e-3

    def test_quadratic_absorbs_operator(self):
        q = make_quadratic(DenseOperator(np.diag([1.0, 2.0])), np.array([1.0, 1.0]))
        K = DenseOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        composed = precompose_prox(q, K)
        x = np.array([0.5, -0.5])
        direct = composed.value(x)
        assert direct == pytest.approx(q.value(K.apply(x)))

    def test_rejects_unsupported(self):
        with pytest.raises(NotImplementedError):
            precompose_prox(L1Norm(1.0), DenseOperator(np.array([[1.0, 1.0],
                                                                 [0.0, 1.0]])))


class TestContractionProperties:
    def test_strongly_convex_prox_contraction(self):
        rng = np.random.default_rng(7)
        alpha = 1.5
        fn = make_quadratic(IdentityOperator(4), rng.standard_normal(4), alpha)
        gamma = 0.8
        for _ in range(100):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            lhs = np.linalg.norm(fn.prox(x, gamma) - fn.prox(y, gamma))
            assert lhs <= np.linalg.norm(x - y) / (1 + alpha * gamma) + 1e-10

    def test_gradient_step_contraction_factor(self):
        rng = np.random.default_rng(8)
        q = make_quadratic(DenseOperator(np.diag([1.0, np.sqrt(10.0)])),
                           np.zeros(2), strong_convexity=1.0)
        gamma = 0.09  # below 1/L = 0.1
        factor = np.sqrt(1 - gamma * q.strong_convexity)
        for _ in range(200):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            tx = x - gamma * q.grad(x)
            ty = y - gamma * q.grad(y)
            assert np.linalg.norm(tx - ty) <= factor * np.linalg.norm(x - y) + 1e-10

    def test_zero_fn(self):
        z = ZeroFn()
        x = np.array([1.0, 2.0])
        assert z.value(x) == 0.0
        assert np.array_equal(z.prox(x, 3.0), x)
        assert np.array_equal(z.grad(x), np.zeros(2))
