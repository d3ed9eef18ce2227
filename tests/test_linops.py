import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxsplit.linops import (
    AdjointReport,
    CGError,
    CircularConv,
    ComposedOperator,
    DenseOperator,
    DimensionError,
    Grad2D,
    IdentityOperator,
    MaskOperator,
    ScaleOperator,
    StackOperator,
    adjoint_consistency_check,
    as_vector,
    conjugate_gradient,
    construct_operator,
    dense_from_csv,
    operator_norm,
)


def all_operator_kinds(seed=0):
    rng = np.random.default_rng(seed)
    return [
        IdentityOperator(5),
        ScaleOperator(-2.5, 4),
        DenseOperator(rng.standard_normal((3, 5))),
        MaskOperator(np.array([True, False, True, True])),
        Grad2D(4, 4, "neumann"),
        Grad2D(4, 4, "periodic"),
        CircularConv(np.array([0.5, 0.3, 0.2]), dim=6),
        CircularConv(np.array([[0.25, 0.25], [0.25, 0.25]]), shape=(3, 4)),
        StackOperator([IdentityOperator(4), Grad2D(2, 2, "neumann")]),
        ComposedOperator(DenseOperator(rng.standard_normal((2, 3))),
                         DenseOperator(rng.standard_normal((3, 4)))),
    ]


class TestVectors:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            as_vector(np.array([]))

    def test_pins_length(self):
        with pytest.raises(DimensionError):
            as_vector([1.0, 2.0], dim=3)


class TestConstruction:
    def test_identity_apply(self):
        op = construct_operator("identity", {"dim": 3})
        assert np.allclose(op.apply([1, 2, 3]), [1, 2, 3])

    def test_grad2d_neumann_1x3(self):
        # by-hand finite differences of (1,2,4); last difference is zero
        op = construct_operator("grad2d", {"rows": 1, "cols": 3})
        out = op.apply([1.0, 2.0, 4.0])
        assert np.allclose(out[:3], [1.0, 2.0, 0.0])
        assert np.allclose(out[3:], [0.0, 0.0, 0.0])

    def test_mask_pattern(self):
        op = construct_operator("mask", {"pattern": [1, 0, 1]})
        assert np.allclose(op.apply([5.0, 6.0, 7.0]), [5.0, 0.0, 7.0])

    def test_dimension_mismatch_reported(self):
        with pytest.raises(DimensionError) as err:
            ComposedOperator(DenseOperator(np.ones((2, 3))),
                             DenseOperator(np.ones((2, 3))))
        assert "2" in str(err.value) and "3" in str(err.value)

    def test_stack_requires_matching_inputs(self):
        with pytest.raises(DimensionError):
            StackOperator([IdentityOperator(3), IdentityOperator(4)])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            construct_operator("sparse", {})


class TestApply:
    def test_dense(self):
        op = DenseOperator([[2.0, 0.0], [0.0, 3.0]])
        assert np.allclose(op.apply([1.0, 1.0]), [2.0, 3.0])

    def test_delta_kernel_is_identity(self):
        op = CircularConv(np.array([1.0, 0.0, 0.0]), dim=5)
        x = np.arange(5.0)
        assert np.allclose(op.apply(x), x)

    def test_composition_of_scalings(self):
        op = ComposedOperator(ScaleOperator(2.0, 1), ScaleOperator(3.0, 1))
        assert np.allclose(op.apply([1.0]), [6.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            DenseOperator(np.ones((2, 3))).apply([1.0, 2.0])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        ops = all_operator_kinds(seed % 7)
        op = ops[seed % len(ops)]
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.in_dim)
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))


class TestAdjoint:
    def test_dense_transpose(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(op.adjoint([1.0, 0.0]), [1.0, 2.0])

    def test_grad2d_zero(self):
        op = Grad2D(2, 2)
        assert np.allclose(op.adjoint(np.zeros(8)), np.zeros(4))

    def test_mask_self_adjoint(self):
        op = MaskOperator(np.array([True, False]))
        assert np.allclose(op.adjoint([4.0, 9.0]), [4.0, 0.0])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_adjoint_defect_all_kinds(self, seed):
        ops = all_operator_kinds(seed % 5)
        op = ops[seed % len(ops)]
        rep = adjoint_consistency_check(op, trials=10, seed=seed)
        assert rep.passed, f"{op.kind}: defect {rep.max_defect}"


class TestOperatorNorm:
    def test_diagonal(self):
        op = DenseOperator(np.diag([2.0, 3.0]))
        assert abs(operator_norm(op) - 3.0) <= 1e-6
        assert op.norm() == op.cached_norm

    def test_identity(self):
        assert abs(IdentityOperator(7).norm() - 1.0) <= 1e-12

    def test_grad2d_periodic_enumeration_oracle(self):
        # eigenvalues of the periodic-difference normal operator on an n-by-n
        # grid are (2-2cos(2 pi k/n)) + (2-2cos(2 pi l/n)); enumerate at n=4
        n = 4
        freqs = [2.0 - 2.0 * np.cos(2.0 * np.pi * k / n) for k in range(n)]
        oracle = np.sqrt(max(a + b for a in freqs for b in freqs))
        op = Grad2D(n, n, "periodic")
        assert abs(op.norm() - oracle) <= 1e-6 * oracle
        assert oracle == pytest.approx(np.sqrt(8.0))

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_grad2d_bounded_by_sqrt8(self, n):
        for mode in ("neumann", "periodic"):
            assert Grad2D(n, n, mode).norm() <= np.sqrt(8.0) + 1e-8

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        base = DenseOperator(rng.standard_normal((4, 4)))
        scaled = ComposedOperator(ScaleOperator(-2.5, 4), base)
        assert abs(scaled.norm() - 2.5 * base.norm()) <= 1e-6 * base.norm()

    def test_norm_cached(self):
        op = DenseOperator(np.diag([2.0, 3.0]))
        first = op.norm()
        assert op.cached_norm == first
        assert op.norm() == first

    def test_cached_norm_bounds_amplification(self):
        rng = np.random.default_rng(6)
        for op in all_operator_kinds(2):
            bound = op.norm()
            for _ in range(20):
                x = rng.standard_normal(op.in_dim)
                amplified = np.linalg.norm(op.apply(x))
                assert amplified <= bound * np.linalg.norm(x) * (1 + 1e-6) + 1e-12

    def test_nonconvergence_flagged(self):
        from proxsplit import linops as L

        op = DenseOperator(np.diag([1.0, 1.0 - 1e-12]))
        est, converged = L._power_iteration(op, 1e-30, 5, 0)
        assert not converged
        assert est > 0

    def test_zero_operator_norm(self):
        assert ScaleOperator(0.0, 3).norm() == 0.0
        assert MaskOperator(np.zeros(4, dtype=bool)).norm() == 0.0


def explicit_matrix(op):
    return np.column_stack([op.apply(e) for e in np.eye(op.in_dim)])


def gaussian_deblur_stack(n):
    from proxsplit.data import generate_synthetic

    k = generate_synthetic("blur_kernel", 7)["kernel"]
    return StackOperator([CircularConv(np.outer(k, k), shape=(n, n)), Grad2D(n, n)])


def closed_form_cases():
    return all_operator_kinds(0) + [
        Grad2D(5, 6, "neumann"),
        Grad2D(5, 6, "periodic"),
        CircularConv(np.arange(1.0, 21.0).reshape(4, 5) / 10.0, shape=(3, 4)),
        gaussian_deblur_stack(16),
    ]


class TestClosedFormNorms:
    # the periodic symbol bounds the Neumann gradient's Gram matrix, 8 against
    # 8 sin^2(15 pi / 32) at 16x16, so the deblur stack bound is 4.8e-3 loose
    LOOSENESS = {"stack": 5e-3}

    @pytest.mark.parametrize("op", closed_form_cases(), ids=lambda op: op.kind)
    def test_bound_is_sound_and_tight(self, op):
        exact = np.linalg.norm(explicit_matrix(op), 2)
        bound = op.norm()
        assert op.norm_converged
        assert bound >= exact * (1 - 1e-12)
        if op.kind != "composition":
            assert bound <= exact * (1 + self.LOOSENESS.get(op.kind, 1e-12))

    def test_deblur_stack_symbol_beats_block_sum(self):
        op = gaussian_deblur_stack(16)
        block_sum = np.sqrt(sum(o.norm() ** 2 for o in op.ops))
        assert op.norm() < 0.95 * block_sum

    def test_no_power_iteration_for_builtin_kinds(self, monkeypatch):
        from proxsplit import linops as L

        def refuse(*args):
            raise AssertionError("power iteration called")

        monkeypatch.setattr(L, "_power_iteration", refuse)
        for op in closed_form_cases() + [IdentityOperator(3).T, Grad2D(3, 4).T]:
            assert op.norm() >= 0.0

    def test_fallback_for_class_without_closed_form(self):
        class Opaque(DenseOperator):
            def _norm_bound(self):
                return None

        op = Opaque(np.diag([2.0, 3.0]))
        assert abs(op.norm() - 3.0) <= 1e-6
        assert op.norm_converged

    @pytest.mark.parametrize("op", [
        Grad2D(3, 5, "periodic"),
        CircularConv(np.array([0.5, 0.3, 0.2]), dim=6),
        CircularConv(np.arange(1.0, 21.0).reshape(4, 5), shape=(3, 4)),
    ], ids=["grad2d_periodic", "conv_1d", "conv_2d_wrapped"])
    def test_gram_symbol_is_the_gram_spectrum(self, op):
        m = explicit_matrix(op)
        eig = np.linalg.eigvalsh(m.T @ m)
        assert np.allclose(np.sort(op.gram_symbol().ravel()), eig,
                           atol=1e-12 * max(eig[-1], 1.0))

    def test_neumann_gram_below_its_symbol(self):
        op = Grad2D(4, 5, "neumann")
        m = explicit_matrix(op)
        # the DFT-diagonal matrix of the symbol minus the Gram matrix is PSD
        f = np.kron(np.fft.fft(np.eye(4)), np.fft.fft(np.eye(5))) / np.sqrt(20)
        upper = (f.conj().T @ np.diag(op.gram_symbol().ravel()) @ f).real
        assert np.linalg.eigvalsh(upper - m.T @ m)[0] >= -1e-12


class TestAdjointConsistencyCheck:
    def test_identity_defect_zero(self):
        rep = adjoint_consistency_check(IdentityOperator(4), trials=10, seed=1)
        assert rep.passed and rep.max_defect == 0.0

    def test_grad2d_self_certifies(self):
        rep = adjoint_consistency_check(Grad2D(4, 4), trials=100, seed=2)
        assert rep.passed and rep.max_defect <= 1e-10

    def test_corrupted_adjoint_flagged(self):
        class Corrupt(DenseOperator):
            def _adjoint(self, y):
                return super()._adjoint(y) + 1e-4

        rep = adjoint_consistency_check(Corrupt(np.eye(3)), trials=10, seed=0)
        assert not rep.passed

    def test_report_shape(self):
        rep = adjoint_consistency_check(IdentityOperator(2), trials=3)
        assert isinstance(rep, AdjointReport)
        assert rep.to_dict()["trials"] == 3


class TestInvariants:
    def test_mask_idempotent(self):
        rng = np.random.default_rng(0)
        op = MaskOperator(rng.random(6) > 0.5)
        x = rng.standard_normal(6)
        assert np.array_equal(op.apply(op.apply(x)), op.apply(x))

    @pytest.mark.parametrize("mode", ["neumann", "periodic"])
    def test_grad_of_constant_is_zero(self, mode):
        op = Grad2D(3, 5, mode)
        assert np.allclose(op.apply(np.full(15, 2.7)), 0.0)

    def test_adjoint_wrapper_roundtrip(self):
        rng = np.random.default_rng(1)
        op = DenseOperator(rng.standard_normal((3, 5)))
        x = rng.standard_normal(3)
        v = rng.standard_normal(5)
        assert np.allclose(op.T.apply(x), op.adjoint(x))
        assert np.allclose(op.T.T.apply(v), op.apply(v))


class TestImageGrid:
    def test_flattening_is_a_bijection(self):
        from proxsplit.linops import ImageGrid

        rng = np.random.default_rng(2)
        arr = rng.random((3, 5))
        grid = ImageGrid.from_array(arr)
        assert np.array_equal(grid.to_array(), arr)
        back = ImageGrid(3, 5, grid.to_vector())
        assert np.array_equal(back.pixels, grid.pixels)

    def test_pixel_count_must_match(self):
        from proxsplit.linops import ImageGrid

        with pytest.raises(DimensionError):
            ImageGrid(2, 3, np.zeros(5))

    def test_rejects_unknown_boundary(self):
        from proxsplit.linops import ImageGrid

        with pytest.raises(ValueError):
            ImageGrid(2, 2, np.zeros(4), boundary="dirichlet")


class TestConjugateGradient:
    def test_solves_spd_system(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        spd = m @ m.T + 6 * np.eye(6)
        rhs = rng.standard_normal(6)
        x = conjugate_gradient(lambda p: spd @ p, rhs)
        assert np.linalg.norm(spd @ x - rhs) <= 1e-9

    def test_failure_carries_residual(self):
        with pytest.raises(CGError) as err:
            conjugate_gradient(lambda p: 0.0 * p, np.ones(3))
        assert err.value.residual > 0


class TestCsvMatrix:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.5,-4.0\n")
        op = dense_from_csv(path)
        assert np.allclose(op.matrix, [[1.0, 2.0], [3.5, -4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.5\n")
        with pytest.raises(ValueError):
            dense_from_csv(path)
