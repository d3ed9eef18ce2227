import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from proxsplit import linops
from proxsplit.certify import adjoint_report
from proxsplit.linops import (
    CGError,
    CircularConv,
    ComposedOperator,
    DenseOperator,
    DimensionError,
    Grad2D,
    IdentityOperator,
    LinearOperator,
    MaskOperator,
    ScaleOperator,
    StackOperator,
    as_vector,
    conjugate_gradient,
    construct_operator,
    gram_eigh,
    gram_spectrum_sum,
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


def roll_convolution(kernel, x, shape=None, sign=1):
    """Circular convolution as a sum of shifted copies (sign -1: its
    adjoint), the reference for the FFT implementation."""
    if shape is None:
        return sum(c * np.roll(x, sign * k) for k, c in enumerate(kernel))
    img = x.reshape(shape)
    out = np.zeros_like(img)
    for a in range(kernel.shape[0]):
        for b in range(kernel.shape[1]):
            out += kernel[a, b] * np.roll(img, (sign * a, sign * b), axis=(0, 1))
    return out.ravel()


class TestCircularConv:
    CASES = {
        "1d": (7, 12, None),
        "1d_wrapped": (9, 6, None),
        "2d": ((3, 3), None, (5, 7)),
        "2d_wrapped": ((4, 5), None, (3, 4)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fft_matches_roll_reference(self, case):
        kshape, dim, shape = self.CASES[case]
        rng = np.random.default_rng(11)
        kernel = rng.standard_normal(kshape)
        op = CircularConv(kernel, dim=dim, shape=shape)
        for _ in range(5):
            x = rng.standard_normal(op.in_dim)
            for got, sign in ((op.apply(x), 1), (op.adjoint(x), -1)):
                ref = roll_convolution(kernel, x, shape, sign)
                assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
        assert adjoint_report(op, trials=50, seed=3).passed

    @pytest.mark.parametrize("kernel, grid", [
        ([[np.nan]], {"shape": (4, 4)}),
        ([[1.0, np.inf]], {"shape": (4, 4)}),
        ([[]], {"shape": (4, 4)}),
        (np.zeros((0, 2)), {"shape": (4, 4)}),
        ([], {"dim": 4}),
        ([[1.0]], {"shape": (2, 2, 2)}),
    ], ids=["nan", "inf", "empty_row", "empty_2d", "empty_1d", "3d_shape"])
    def test_rejects_invalid_kernel_or_shape(self, kernel, grid):
        # DimensionError is a ValueError: the CLI reports both as config errors
        with pytest.raises(ValueError):
            CircularConv(kernel, **grid)


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
        rep = adjoint_report(op, trials=10, seed=seed)
        assert rep.passed, f"{op.kind}: defect {rep.details[0]['max_defect']}"


def grad2d_reference(op, x):
    # the allocating formulas Grad2D._apply replaced, kept as the reference
    img = x.reshape(op.rows, op.cols)
    if op.boundary == "neumann":
        dx = np.zeros_like(img)
        dy = np.zeros_like(img)
        dx[:, :-1] = img[:, 1:] - img[:, :-1]
        dy[:-1, :] = img[1:, :] - img[:-1, :]
    else:
        dx = np.roll(img, -1, axis=1) - img
        dy = np.roll(img, -1, axis=0) - img
    return np.concatenate([dx.ravel(), dy.ravel()])


def grad2d_adjoint_reference(op, y):
    # the allocating formulas Grad2D._adjoint replaced, kept as the reference
    n = op.rows * op.cols
    yx = y[:n].reshape(op.rows, op.cols)
    yy = y[n:].reshape(op.rows, op.cols)
    ax = np.zeros_like(yx)
    ay = np.zeros_like(yy)
    if op.boundary == "neumann":
        ax[:, 1:] += yx[:, :-1]
        ax[:, :-1] -= yx[:, :-1]
        ay[1:, :] += yy[:-1, :]
        ay[:-1, :] -= yy[:-1, :]
    else:
        ax = np.roll(yx, 1, axis=1) - yx
        ay = np.roll(yy, 1, axis=0) - yy
    return (ax + ay).ravel()


# cols = 2 and the 2-row grids exercise the column and row fix-ups of the
# flat kernels; 64x64 is past every small-size special case
GRAD_SHAPES = [(1, 1), (1, 6), (6, 1), (5, 7), (2, 2), (2, 3), (3, 2), (64, 64)]


class TestGrad2DKernels:
    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    @pytest.mark.parametrize("shape", GRAD_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_bytes_equal_the_reference(self, boundary, shape):
        # signed zeros, infinities and NaNs included: every output bit,
        # the sign of a zero and of a NaN too, is the reference's
        op = Grad2D(*shape, boundary)
        rng = np.random.default_rng(sum(shape))
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.25])
        with np.errstate(invalid="ignore"):
            for _ in range(50):
                x = rng.choice(values, op.in_dim)
                y = rng.choice(values, op.out_dim)
                assert op._apply(x).tobytes() == grad2d_reference(op, x).tobytes()
                assert op._adjoint(y).tobytes() == grad2d_adjoint_reference(op, y).tobytes()

    @pytest.mark.parametrize("boundary", ["neumann", "periodic"])
    @pytest.mark.parametrize("shape", GRAD_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_adjoint_identity(self, boundary, shape):
        # small integers keep every product and sum exact, so <Kx, y> and
        # <x, K*y> agree bitwise
        op = Grad2D(*shape, boundary)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.integers(-4, 5, op.in_dim).astype(float)
            y = rng.integers(-4, 5, op.out_dim).astype(float)
            assert float(op._apply(x) @ y) == float(x @ op._adjoint(y))


class NoClosedForm(LinearOperator):
    """An operator class with neither ``_norm_bound`` nor ``gram_symbol``."""

    def _apply(self, x):
        return 2.0 * x

    def _adjoint(self, y):
        return 2.0 * y


class TestOperatorNorm:
    def test_diagonal(self):
        op = DenseOperator(np.diag([2.0, 3.0]))
        assert abs(op.norm() - 3.0) <= 1e-6
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

    def test_wrappers_of_an_operator_without_closed_form_raise(self):
        opaque = NoClosedForm(3, 3)
        for op in (opaque.T, ComposedOperator(IdentityOperator(3), opaque),
                   StackOperator([IdentityOperator(3), opaque])):
            with pytest.raises(NotImplementedError, match="NoClosedForm"):
                op.norm()
            assert op.cached_norm is None

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
        assert bound >= exact * (1 - 1e-12)
        if op.kind != "composition":
            assert bound <= exact * (1 + self.LOOSENESS.get(op.kind, 1e-12))

    @pytest.mark.parametrize("op, exact", [
        (Grad2D(2, 2), 2.0),
        (Grad2D(4, 1, "periodic"), 2.0),
        (DenseOperator(np.ones((3, 3))), 3.0),
        (DenseOperator(np.ones((2, 8))), 4.0),
        (DenseOperator(np.ones((8, 2))), 4.0),
        (ComposedOperator(Grad2D(2, 2), ScaleOperator(3.0, 4)), 6.0),
        (StackOperator([Grad2D(2, 2), ScaleOperator(0.0, 4)]), 2.0),
    ], ids=["grad2d_neumann", "grad2d_periodic", "dense_square", "dense_wide",
            "dense_tall", "composition", "stack"])
    def test_rounded_closed_forms_lie_above_the_true_norm(self, op, exact):
        # exactly representable true norms, which a closed form that rounds
        # must not undercut (Grad2D(2, 2) once gave 1.9999999999999998)
        assert op.norm() >= exact
        assert op.norm() <= exact * (1 + 1e-13)

    def test_exact_closed_forms_stay_exact(self):
        assert IdentityOperator(3).norm() == 1.0
        assert ScaleOperator(-2.5, 3).norm() == 2.5
        assert MaskOperator(np.array([True, False])).norm() == 1.0
        assert IdentityOperator(3).T.norm() == 1.0

    def test_dense_pad_covers_the_eigensolver(self):
        # norm^2 >= lambda_max + (m + n) eps ||M||_F^2, compared exactly
        from fractions import Fraction

        m = np.random.default_rng(2).standard_normal((6, 9))
        gram = m @ m.T
        lam = np.linalg.eigvalsh(gram)[-1]
        pad = 15 * np.finfo(float).eps * np.trace(gram)
        norm = DenseOperator(m).norm()
        assert Fraction(norm) ** 2 >= Fraction(lam) + Fraction(pad)
        assert norm <= np.sqrt(lam) * (1 + 1e-12)

    def test_deblur_stack_symbol_beats_block_sum(self):
        op = gaussian_deblur_stack(16)
        block_sum = np.sqrt(sum(o.norm() ** 2 for o in op.ops))
        assert op.norm() < 0.95 * block_sum

    def test_no_power_iteration_for_builtin_kinds(self):
        # every built-in kind, and the adjoint of one, has a closed form
        for op in closed_form_cases() + [IdentityOperator(3).T, Grad2D(3, 4).T]:
            assert op.norm() >= 0.0

    def test_class_without_closed_form_raises(self):
        # no estimate stands in for a missing closed form
        with pytest.raises(NotImplementedError, match="NoClosedForm"):
            NoClosedForm(2, 2).norm()

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


# finite positive floats, subnormals and the ends of the range included
POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308) | st.sampled_from(
    [5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308])
# the least positive normal float
TINY = Fraction(2.2250738585072014e-308)


def ceil_sqrt_reference(square: Fraction, rel_error: float = 0.0) -> float:
    # linops._ceil_sqrt written with fractions.Fraction
    square *= 1 + Fraction(rel_error)
    r = math.sqrt(square)
    while Fraction(r) ** 2 < square:
        r = math.nextafter(r, math.inf)
    return r


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


class KnownNorm(LinearOperator):
    """A 1x1 operator known only by its norm, with no Gram symbol."""

    def __init__(self, norm):
        super().__init__(1, 1)
        self.cached_norm = norm


class TestExactRatios:
    """Every norm bound equals the one computed with Fractions, bit for bit.

    A square below the normal range is left out unless it is a float: the
    float start of ``_ceil_sqrt`` then loses its precision, and the search
    up from it does not end in reasonable time, with either helper.
    """

    @given(POSITIVE, POSITIVE, st.floats(min_value=0.0, max_value=1.0))
    @example(1.0, 3.0, 8 * linops.LONG_EPS)
    @example(5e-324, 1.0, 0.0)
    @settings(max_examples=300, deadline=None)
    def test_ceil_sqrt(self, a, b, rel_error):
        # a float, a long double and an unreduced ratio
        long = linops.LONG(a) / linops.LONG(b)
        exact = Fraction(a) / Fraction(b)
        for p, q in [linops._ratio(a), linops._ratio(long),
                     (exact.numerator * 4, exact.denominator * 4)]:
            square = Fraction(p, q)
            # below the normal range the float start is exact only when the
            # square is a float
            if square < TINY and (rel_error or Fraction(p / q) != square):
                continue
            assert (outcome(linops._ceil_sqrt, p, q, rel_error)
                    == outcome(ceil_sqrt_reference, square, rel_error))

    @given(st.floats(min_value=5e-324, max_value=1e150), st.integers(0, 10 ** 6))
    @example(1e-160, 0)
    @example(1e150, 1)
    @settings(max_examples=100, deadline=None)
    def test_dense_bound(self, scale, seed):
        op = DenseOperator(scale * np.random.default_rng(seed).standard_normal((3, 4)))
        gram = linops._smaller_gram(op.matrix)
        pad = (op.in_dim + op.out_dim) * linops.EPS * np.trace(gram)
        reference = ceil_sqrt_reference(
            Fraction(max(np.linalg.eigvalsh(gram)[-1], 0.0)) + Fraction(pad))
        assert op._norm_bound() == reference

    @given(st.lists(POSITIVE, min_size=1, max_size=4))
    @example([1e-300, 1e-10])
    @example([1e150, 1e154])
    @settings(max_examples=200, deadline=None)
    def test_stack_bound(self, norms):
        square = sum(Fraction(v) ** 2 for v in norms)
        assume(square >= TINY)
        op = StackOperator([KnownNorm(v) for v in norms])
        assert outcome(op._norm_bound) == outcome(ceil_sqrt_reference, square)

    @given(POSITIVE, POSITIVE)
    @example(5e-324, 1e300)
    @example(1e300, 1e300)
    @settings(max_examples=200, deadline=None)
    def test_composed_bound(self, a, b):
        square = (Fraction(a) * Fraction(b)) ** 2
        assume(square >= TINY)
        op = ComposedOperator(KnownNorm(a), KnownNorm(b))
        assert outcome(op._norm_bound) == outcome(ceil_sqrt_reference, square)


class TestDenseGramSpectrum:
    def test_eigenvalues_per_eigenspace(self):
        rng = np.random.default_rng(8)
        tall = rng.standard_normal((7, 4))
        eig = DenseOperator(tall).gram_spectrum().eigenvalues
        assert np.allclose(eig, np.linalg.eigvalsh(tall.T @ tall), atol=1e-12)
        # wide: the eigenvalues of M M^T, then 0 for the null space of M
        wide = tall.T
        eig = DenseOperator(wide).gram_spectrum().eigenvalues
        assert eig.shape == (5,) and eig[-1] == 0.0
        assert np.allclose(eig[:-1], np.linalg.eigvalsh(wide @ wide.T), atol=1e-12)
        # rank 1: the eigenvalues within rounding of zero are exactly zero
        eig = DenseOperator(np.outer(np.arange(1.0, 5.0), np.ones(3))).gram_spectrum().eigenvalues
        assert np.count_nonzero(eig) == 1

    def test_spectrum_is_cached_on_the_operator(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        m = np.random.default_rng(8).standard_normal((5, 3))
        op = DenseOperator(m)
        stack = StackOperator([op, ScaleOperator(2.0, 3)])
        assert calls == []
        spectrum = op.gram_spectrum()
        assert calls == [1] and spectrum.eigenvalues.shape == (3,)
        for _ in range(3):
            assert op.gram_spectrum() is spectrum
            p = op.gram_spectrum().solve(np.ones(3))
            assert np.allclose(m.T @ (m @ p), np.ones(3), atol=1e-12)
            # a stack sums its blocks from the same cached factors
            q = stack.gram_spectrum().solve(np.ones(3))
            assert np.allclose(m.T @ (m @ q) + 4.0 * q, np.ones(3), atol=1e-12)
        assert calls == [1]


    def test_rank_deficient_wide_matrix_solves(self):
        # a 3x5 matrix of rank 2: M M^T has one eigenvalue within rounding
        # of zero, which the basis drops along with its eigenvector
        rng = np.random.default_rng(9)
        m = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))
        op = DenseOperator(m)
        assert np.count_nonzero(op.gram_spectrum().eigenvalues) == 2
        rhs = rng.standard_normal(5)
        p = gram_spectrum_sum([(1.0, op)], ridge=0.5).solve(rhs)
        assert np.allclose(m.T @ (m @ p) + 0.5 * p, rhs, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 7), (7, 4)])
    def test_stored_eigh_replaces_the_factorization(self, monkeypatch, shape):
        m = np.random.default_rng(10).standard_normal(shape)
        fresh = gram_spectrum_sum([(1.0, DenseOperator(m))], ridge=0.5)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        stored = gram_eigh(m)
        rhs = np.linspace(-1.0, 1.0, shape[1])
        op = DenseOperator(m, stored_eigh=lambda: stored)
        spectrum = gram_spectrum_sum([(1.0, op)], ridge=0.5)
        assert calls == [1]  # gram_eigh above, none in the operator
        assert spectrum.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert spectrum.solve(rhs).tobytes() == fresh.solve(rhs).tobytes()
        # the factors of another matrix, or none, mean one eigh of its own
        other = gram_eigh(m + 1.0)
        for given in (other, None):
            calls.clear()
            op = DenseOperator(m, stored_eigh=lambda: given)
            spectrum = gram_spectrum_sum([(1.0, op)], ridge=0.5)
            assert calls == [1]
            assert spectrum.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()


class TestAdjointConsistencyCheck:
    def test_identity_defect_zero(self):
        rep = adjoint_report(IdentityOperator(4), trials=10, seed=1)
        assert rep.passed and rep.details[0]["max_defect"] == 0.0

    def test_grad2d_self_certifies(self):
        rep = adjoint_report(Grad2D(4, 4), trials=100, seed=2)
        assert rep.passed and rep.details[0]["max_defect"] <= 1e-10

    def test_corrupted_adjoint_flagged(self):
        class Corrupt(DenseOperator):
            def _adjoint(self, y):
                return super()._adjoint(y) + 1e-4

        rep = adjoint_report(Corrupt(np.eye(3)), trials=10, seed=0)
        assert not rep.passed

    def test_report_shape(self):
        rep = adjoint_report(IdentityOperator(2), trials=3)
        assert rep.check == "adjoint_consistency" and rep.instance == "identity"
        assert rep.details == [{"kind": "identity", "trials": 3, "max_defect": 0.0,
                                "passed": True}]


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

    def test_failure_survives_pickling(self):
        # a CG failure in a forked certify worker reaches the parent this way
        import pickle
        err = CGError(1e-3, 50)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is CGError
        assert (back.residual, back.iterations) == (1e-3, 50)
        assert str(back) == str(err)

