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
    precompose_prox,
    gram_solver,
    soft_threshold,
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
    gram_spectrum_sum,
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
        q = Quadratic(IdentityOperator(1), [0.0], 1.0)
        assert q.prox([2.0], 1.0) == pytest.approx([1.0])

    def test_identity_grad(self):
        q = Quadratic(IdentityOperator(1), [4.0], 1.0)
        assert q.grad([1.0]) == pytest.approx([-3.0])

    def test_wide_system_prox(self):
        # (Id + A*A) p = A* b solved by hand for A = [1, 1], b = 2
        q = Quadratic(DenseOperator([[1.0, 1.0]]), [2.0], 1.0)
        assert np.allclose(q.prox([0.0, 0.0], 1.0), [2.0 / 3.0, 2.0 / 3.0], atol=1e-9)

    def test_cg_prox_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        x = rng.standard_normal(7)
        gamma, lam = 0.7, 2.0
        q = Quadratic(DenseOperator(A), b, lam)
        expected = np.linalg.solve(np.eye(7) + gamma * lam * A.T @ A,
                                   x + gamma * lam * A.T @ b)
        assert np.allclose(q.prox(x, gamma), expected, atol=1e-9)

    def test_lipschitz_is_scaled_norm_squared(self):
        q = Quadratic(DenseOperator(np.diag([2.0, 1.0])), np.zeros(2), 3.0)
        assert q.lipschitz == pytest.approx(12.0, rel=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        q = Quadratic(DenseOperator(rng.standard_normal((4, 3))),
                      rng.standard_normal(4), 1.5)
        x = rng.standard_normal(3)
        fd = finite_difference_grad(q, x)
        exact = q.grad(x)
        assert np.linalg.norm(fd - exact) <= 1e-5 * (1 + np.linalg.norm(exact))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            Quadratic(IdentityOperator(2), np.zeros(2), 0.0)

    @pytest.mark.parametrize("op", [
        DenseOperator(np.random.default_rng(2).standard_normal((5, 7))),
        Grad2D(3, 4),
        ComposedOperator(MaskOperator([1, 0] * 14), Grad2D(2, 7)),
    ], ids=["dense", "grad2d", "composed"])
    def test_prox_forms_the_data_term_once_per_weight(self, op):
        rng = np.random.default_rng(4)
        b = rng.standard_normal(op.out_dim)
        q = Quadratic(op, b, 1.5)
        calls = []
        adjoint = op._adjoint

        def counting(y):
            calls.append(y is q.b)
            return adjoint(y)

        q.A._adjoint = counting
        for gamma in (0.3, 0.3, 0.3, 2.0, 2.0, 0.3):
            x = rng.standard_normal(op.in_dim)
            w = gamma * 1.5
            # the formula of a prox that forms w A* b every time
            expected = gram_solver([(w, op)], 1.0)(x + w * adjoint(b))
            assert q.prox(x, gamma).tobytes() == expected.tobytes()
        # once per change of the weight: 0.3, 2.0, then 0.3 again
        assert sum(calls) == 3


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
        # a dense matrix in its own eigenbasis
        "dense": lambda: [DenseOperator(_kernel((4, 6)))],
    }
    # no shared basis: a blur over a Neumann gradient, composed operators
    NO_BASIS = {
        "stack_conv_neumann_grad": lambda: StackOperator([
            CircularConv(_kernel((3, 3)), shape=(5, 7)), Grad2D(5, 7)]),
        "composition": lambda: ComposedOperator(Grad2D(2, 3), IdentityOperator(6)),
        "dense_composed": lambda: ComposedOperator(DenseOperator(_kernel((4, 6))),
                                                   IdentityOperator(6)),
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
        via_cg = gram_solver(hidden, ridge)(rhs)

        def no_cg(*args, **kwargs):
            raise AssertionError("the spectral path called conjugate gradient")

        monkeypatch.setattr(funcs, "conjugate_gradient", no_cg)
        exact = gram_solver(terms, ridge)(rhs)
        assert np.max(np.abs(exact - via_cg)) <= 1e-10
        with pytest.raises(AssertionError):
            gram_solver(hidden, ridge)(rhs)

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
        p = gram_solver([(0.7, K)], 1.0)(rhs)
        assert calls == [1]
        assert np.linalg.norm(p + 0.7 * K.adjoint(K.apply(p)) - rhs) <= 1e-10


class TestDenseSpectralSolve:
    # tall, wide, square and rank-deficient matrices
    MATRICES = {
        "tall": lambda: _kernel((7, 4)),
        "wide": lambda: _kernel((4, 7)),
        "square": lambda: _kernel((5, 5)),
        "tall_rank2": lambda: _kernel((7, 2)) @ _kernel((2, 4), seed=6),
        "wide_rank2": lambda: _kernel((4, 2)) @ _kernel((2, 7), seed=6),
        "square_rank2": lambda: _kernel((5, 2)) @ _kernel((2, 5), seed=6),
    }

    @pytest.mark.parametrize("weight", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("ridge", [0.5, 1.0])
    @pytest.mark.parametrize("kind", sorted(MATRICES))
    def test_matches_cg_without_calling_it(self, kind, ridge, weight, monkeypatch):
        import proxsplit.funcs as funcs

        M = self.MATRICES[kind]()
        n = M.shape[1]
        rhs = np.random.default_rng(4).standard_normal(n)
        via_cg = gram_solver([(weight, ComposedOperator(DenseOperator(M),
                                                        IdentityOperator(n)))], ridge)(rhs)

        def no_cg(*args, **kwargs):
            raise AssertionError("the dense solve called conjugate gradient")

        monkeypatch.setattr(funcs, "conjugate_gradient", no_cg)
        exact = gram_solver([(weight, DenseOperator(M))], ridge)(rhs)
        tol = 1e-10 * (1.0 + np.linalg.norm(rhs))
        assert np.linalg.norm(ridge * exact + weight * M.T @ (M @ exact) - rhs) <= tol
        assert np.linalg.norm(exact - via_cg) <= tol / ridge

    def test_singular_system_at_ridge_zero_runs_cg(self, monkeypatch):
        import proxsplit.funcs as funcs

        calls = []

        def counted_cg(*args, **kwargs):
            calls.append(1)
            return conjugate_gradient(*args, **kwargs)

        monkeypatch.setattr(funcs, "conjugate_gradient", counted_cg)
        M = self.MATRICES["tall"]()
        rhs = M.T @ np.ones(7)
        gram_solver([(1.0, DenseOperator(M))], 0.0)(rhs)  # definite: eigenbasis
        assert calls == []
        for singular in (self.MATRICES["wide"](), self.MATRICES["tall_rank2"]()):
            rhs = singular.T @ np.ones(singular.shape[0])
            p = gram_solver([(1.0, DenseOperator(singular))], 0.0)(rhs)
            assert np.linalg.norm(singular.T @ (singular @ p) - rhs) <= 1e-10
        assert calls == [1, 1]

    @staticmethod
    def _count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_factored_once_on_the_first_solve_and_never_at_build(self, monkeypatch):
        from proxsplit.problems import build_lasso
        from proxsplit.solvers import SolverConfig

        calls = self._count_eigh(monkeypatch)
        M, y = _kernel((12, 20)), _kernel(12, seed=6)
        inst = build_lasso(DenseOperator(M), y, 0.1)
        inst.run("dr", SolverConfig(max_iter=0))
        inst.run("fista", SolverConfig(max_iter=5))
        q = Quadratic(DenseOperator(M), y)
        assert calls == []
        x = np.zeros(20)
        for _ in range(100):
            x = q.prox(x, 0.7)
        assert calls == [(12, 12)]
        expected = np.linalg.solve(np.eye(20) + 0.7 * M.T @ M, x + 0.7 * M.T @ y)
        assert np.allclose(q.prox(x, 0.7), expected, atol=1e-12)
        assert calls == [(12, 12)]

    def test_stack_with_a_dense_block_factors_on_the_first_prox(self, monkeypatch):
        calls = self._count_eigh(monkeypatch)
        M, y = _kernel((12, 20)), _kernel(32, seed=6)
        K = StackOperator([DenseOperator(M), ScaleOperator(0.5, 20)])
        q = Quadratic(K, y)
        assert calls == []
        x = np.ones(20)
        p = q.prox(x, 0.7)
        assert calls == [(12, 12)]
        q.prox(p, 0.7)
        assert calls == [(12, 12)]
        gram = M.T @ M + 0.25 * np.eye(20)
        expected = np.linalg.solve(np.eye(20) + 0.7 * gram, x + 0.7 * K.adjoint(y))
        assert np.allclose(p, expected, atol=1e-12)


class TestGramSolverBuilds:
    # every consumer builds its gram_solver once and keeps it
    @staticmethod
    def _count_builds(monkeypatch):
        import proxsplit.funcs as funcs
        import proxsplit.solvers as solvers

        builds = []
        build = funcs.gram_solver

        def counted(terms, ridge):
            builds.append([K.kind for _, K in terms])
            return build(terms, ridge)

        monkeypatch.setattr(funcs, "gram_solver", counted)
        monkeypatch.setattr(solvers, "gram_solver", counted)
        return builds

    def test_dr_split_builds_its_graph_solver_once(self, monkeypatch):
        from proxsplit.solvers import SolverConfig
        from proxsplit.suite import tv_denoise_fixture

        inst = tv_denoise_fixture()
        builds = self._count_builds(monkeypatch)
        trace, _ = inst.run("dr_split", SolverConfig(max_iter=50))
        assert trace.n_iter == 50
        # the projection onto {(x, grad x)}, and the prox of the data term
        assert sorted(builds) == [["grad2d"], ["identity"]]

    def test_admm_builds_each_subproblem_solver_once(self, monkeypatch):
        from proxsplit.solvers import SolverConfig, admm

        factored = TestDenseSpectralSolve._count_eigh(monkeypatch)
        builds = self._count_builds(monkeypatch)
        D = DenseOperator(_kernel((6, 4)))
        f = Quadratic(D, _kernel(6, seed=7))
        g = Quadratic(DenseOperator(_kernel((5, 6), seed=6)), _kernel(5, seed=8))
        # min f(x) + g(y) subject to D x - y = 0: the x-subproblem solves
        # in the eigenbasis of D, the y-subproblem is the prox of g
        trace = admm(f, g, D, ScaleOperator(-1.0, 6), np.zeros(6),
                     cfg=SolverConfig(gamma=0.5, max_iter=30))
        assert trace.n_iter == 30
        assert builds == [["dense_matrix", "dense_matrix"], ["dense_matrix"]]
        assert factored == [(4, 4), (5, 5)]

    def test_quadratic_prox_rebuilds_only_when_gamma_changes(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        q = Quadratic(Grad2D(4, 4), _kernel(32, seed=7))
        x = np.ones(16)
        for _ in range(5):
            x = q.prox(x, 0.7)
        assert len(builds) == 1
        p = q.prox(x, 0.3)
        assert len(builds) == 2
        assert np.array_equal(q.prox(x, 0.3), p) and len(builds) == 2
        again = q.prox(x, 0.7)
        assert len(builds) == 3
        assert np.array_equal(again, Quadratic(Grad2D(4, 4), q.b).prox(x, 0.7))

    def test_dense_block_without_a_shared_basis_is_never_factored(self, monkeypatch):
        # the dense block shares no basis with the Neumann gradient, so the
        # stack's spectrum is None without an eigh, and the solve runs CG
        import proxsplit.funcs as funcs

        factored = TestDenseSpectralSolve._count_eigh(monkeypatch)
        cg = []

        def counted_cg(*args, **kwargs):
            cg.append(1)
            return conjugate_gradient(*args, **kwargs)

        monkeypatch.setattr(funcs, "conjugate_gradient", counted_cg)
        M = _kernel((12, 16))
        K = StackOperator([DenseOperator(M), Grad2D(4, 4)])
        q = Quadratic(K, _kernel(44, seed=6))
        assert factored == []
        x = np.ones(16)
        for gamma in (0.7, 0.7, 0.3):
            p = q.prox(x, gamma)
        assert factored == [] and cg == [1, 1, 1]
        D = Grad2D(4, 4)
        gram = M.T @ M + np.array([D.adjoint(D.apply(e)) for e in np.eye(16)]).T
        expected = np.linalg.solve(np.eye(16) + 0.3 * gram, x + 0.3 * K.adjoint(q.b))
        assert np.allclose(p, expected, atol=1e-9)


class TestSoftThreshold:
    def test_catalog_cases(self):
        assert np.allclose(soft_threshold(np.array([2.0, -0.5, 1.0]), 1.0),
                           [1.0, 0.0, 0.0])

    def test_zero_weight_is_identity(self):
        x = np.array([3.0, -1.0, 0.2])
        assert np.array_equal(L1Norm(0.0).prox(x, 5.0), x)

    def test_negative_branch(self):
        assert L1Norm(1.0).prox(np.array([-3.0]), 1.0) == pytest.approx([-2.0])

    def test_bytes_equal_the_allocating_formula(self):
        # the in-place steps keep every bit, signed zeros and NaNs included
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25, 0.5])
        for t in (0.0, 1.0, np.inf, np.linspace(-1.0, 2.0, x.size)):
            with np.errstate(invalid="ignore"):
                expected = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
                assert soft_threshold(x, t).tobytes() == expected.tobytes()
        assert soft_threshold(-3.0, 1.0) == -2.0

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


# signed zeros, NaNs of both signs, infinities, and finite values on both
# sides of a threshold of 1
SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.25, 0.5, -1.0])


def _special_inputs():
    # 0-d inputs, one-element arrays (NumPy may swap the operands of an
    # in-place commutative ufunc there) and the whole row
    return ([np.array(v) for v in SPECIALS] + [SPECIALS[i:i + 1].copy() for i in
                                              range(SPECIALS.size)] + [SPECIALS.copy()])


class TestBufferKernels:
    # each prox that writes into a buffer the caller owns, the argument
    # itself included, has the bytes of the allocating formula

    @staticmethod
    def _into(fn, x, gamma, aliased):
        x = x.copy()
        out = x if aliased else np.full_like(x, 7.0)
        with np.errstate(invalid="ignore"):
            p = fn._prox_into(x, gamma, out)
        assert p is out
        return p

    @pytest.mark.parametrize("aliased", [True, False])
    def test_soft_threshold(self, aliased):
        for x in _special_inputs():
            for gamma in (0.0, 1.0, np.inf):
                # the formula on a 1-d array: on 0-d operands NumPy takes its
                # scalar path, whose product of two NaNs has another sign
                v = x.reshape(-1)
                with np.errstate(invalid="ignore"):
                    expected = (np.sign(v) * np.maximum(np.abs(v) - 0.5 * gamma, 0.0)
                                ).reshape(x.shape)
                    assert soft_threshold(x, 0.5 * gamma).tobytes() == expected.tobytes()
                    assert L1Norm(0.5)._prox(x, gamma).tobytes() == expected.tobytes()
                p = self._into(L1Norm(0.5), x, gamma, aliased)
                assert p.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("aliased", [True, False])
    def test_ball_clip(self, aliased):
        for x in _special_inputs():
            for radius in (0.0, 1.0, np.inf):
                expected = np.clip(x, -radius, radius)
                ball = LinfBallIndicator(radius)
                assert self._into(ball, x, 0.3, aliased).tobytes() == expected.tobytes()
                assert ball._prox(x, 0.3).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spectrum", [
        lambda n: IdentityOperator(n).gram_spectrum(),
        lambda n: gram_spectrum_sum([(0.7, ScaleOperator(-2.0, n))], 1.0),
        lambda n: gram_spectrum_sum([(0.7, MaskOperator(np.arange(n) % 2 == 0))], 1.0),
    ], ids=["identity", "scale", "mask"])
    def test_identity_basis_solve(self, spectrum):
        for rhs in _special_inputs():
            spec = spectrum(rhs.size)
            if rhs.ndim == 0 and not isinstance(spec.eigenvalues, float):
                continue  # an array of eigenvalues is shaped like a 1-d input
            kept = rhs.copy()
            expected = spec.solve(rhs)
            assert rhs.tobytes() == kept.tobytes()  # the public solve keeps rhs
            p = spec._solve_in_place(rhs)
            assert p is rhs and p.tobytes() == expected.tobytes()

    def test_separable_prox_into_its_argument(self):
        # slice blocks write into their views of the output, gathered ones
        # into their own copies, so the output may be the argument itself
        rng = np.random.default_rng(6)
        x = np.concatenate([SPECIALS, rng.standard_normal(10)])
        blocks = [(L1Norm(0.5), slice(0, 4)),
                  (LinfBallIndicator(1.0), [9, 5, 7]),
                  (Quadratic(IdentityOperator(3), rng.standard_normal(3)), slice(4, 10, 2)),
                  (Quadratic(IdentityOperator(4), rng.standard_normal(4)), np.arange(10, 14)),
                  (L1Norm(0.2), [15, 14, 17, 16]),
                  (ZeroFn(), [19, 18])]
        fn = SeparableProx(blocks, 20)
        assert [type(idx) for _, idx in fn.parts] == [slice, np.ndarray, np.ndarray, slice,
                                                      np.ndarray, np.ndarray]
        expected = np.empty(20)
        with np.errstate(invalid="ignore"):
            for part, idx in blocks:
                expected[idx] = part._prox(x[idx], 0.7)
            assert fn._prox(x, 0.7).tobytes() == expected.tobytes()
        for aliased in (True, False):
            assert self._into(fn, x, 0.7, aliased).tobytes() == expected.tobytes()

    def test_separable_prox_takes_slices(self):
        fn = SeparableProx([(L1Norm(1.0), slice(2, None)), (ZeroFn(), slice(0, 2))], 5)
        assert [idx for _, idx in fn.parts] == [slice(2, 5), slice(0, 2)]
        for bad in (slice(2, 2), slice(3, 1)):
            with pytest.raises(ValueError, match="nonempty"):
                SeparableProx([(L1Norm(1.0), bad), (ZeroFn(), slice(0, 5))], 5)
        with pytest.raises(ValueError, match="overlapping"):
            SeparableProx([(L1Norm(1.0), slice(0, 3)), (ZeroFn(), slice(2, 5))], 5)


class TestIndicators:
    def test_box_clamp(self):
        fn = BoxIndicator(0.0, 1.0)
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
        out = ConjugateProx(L1Norm(1.0)).prox(np.array([0.5]), 1.0)
        assert out == pytest.approx([0.5])
        out = ConjugateProx(L1Norm(1.0)).prox(np.array([2.5]), 1.0)
        assert out == pytest.approx([1.0])

    def test_half_square_self_conjugate(self):
        q = Quadratic(IdentityOperator(3), np.zeros(3))
        x = np.array([1.0, -2.0, 0.3])
        assert np.allclose(ConjugateProx(q).prox(x, 1.0), x / 2.0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_sum_identity_at_gamma_one(self, seed):
        rng = np.random.default_rng(seed)
        fns = [L1Norm(0.8), LinfBallIndicator(1.2),
               Quadratic(IdentityOperator(4), rng.standard_normal(4))]
        fn = fns[seed % len(fns)]
        x = 3.0 * rng.standard_normal(4)
        total = fn.prox(x, 1.0) + ConjugateProx(fn).prox(x, 1.0)
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

    def test_blocks_out_of_order_are_gathered(self):
        # an ascending contiguous block is held as a slice; a permuted,
        # gapped or descending one keeps its index array, and each block's
        # function still sees its coordinates in the order given
        rng = np.random.default_rng(5)
        blocks = [(Quadratic(IdentityOperator(3), rng.standard_normal(3)), [4, 0, 2]),
                  (Quadratic(IdentityOperator(2), rng.standard_normal(2)), [3, 1]),
                  (L1Norm(0.5), [5, 6, 7]),
                  (Quadratic(IdentityOperator(2), rng.standard_normal(2), 3.0), [9, 8])]
        fn = SeparableProx(blocks, 10)
        assert [type(idx) for _, idx in fn.parts] == [np.ndarray, np.ndarray, slice, np.ndarray]
        x = rng.standard_normal(10)
        gathered = np.empty(10)
        for part, idx in blocks:
            gathered[idx] = part._prox(x[idx], 0.7)
        assert fn._prox(x, 0.7).tobytes() == gathered.tobytes()
        assert fn._value(x) == float(sum(part._value(x[idx]) for part, idx in blocks))

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
        q = Quadratic(DenseOperator(np.diag([1.0, 2.0])), np.array([1.0, 1.0]))
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
        fn = Quadratic(IdentityOperator(4), rng.standard_normal(4), alpha)
        gamma = 0.8
        for _ in range(100):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            lhs = np.linalg.norm(fn.prox(x, gamma) - fn.prox(y, gamma))
            assert lhs <= np.linalg.norm(x - y) / (1 + alpha * gamma) + 1e-10

    def test_gradient_step_contraction_factor(self):
        rng = np.random.default_rng(8)
        q = Quadratic(DenseOperator(np.diag([1.0, np.sqrt(10.0)])),
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
