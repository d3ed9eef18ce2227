"""Golden hashes of solver output: ``trace.csv`` bytes and final-iterate bytes.

Each case runs one recipe or solver on a tiny input (8x8 images, a 12x20
dense lasso) for at most 300 iterations, so BLAS threading cannot reorder
any sum.  The hashes pin the exact floating-point behaviour of the solver
loops, recipe defaults and operator construction: a refactor of those must
leave every hash unchanged.  If a deliberate behaviour change requires new
hashes, regenerate them from the commit before that change, never from the
change itself.

The dense cases depend on BLAS/LAPACK: their norms on ``eigvalsh`` and the
``lasso/dr`` prox on the ``eigh`` of its Gram matrix.  The FFT-backed cases
depend on NumPy's pocketfft in the same way: the circular convolution of
``tv_inverse_conv/*`` and the DCT graph projection of ``tv_denoise/dr_split``,
``tv_denoise/ppxa`` and ``tvl1/dr_split``.  The gradient norms are evaluated
in long double, so the hashes assume the x86-64 extended format.

The ``trace.csv`` hashes of ``lasso/fista``, ``lasso/fista_beta``,
``lasso/vfista`` and ``wavelet_reg/fista`` moved once, when the
prox-gradient loop stopped forming A x_n for the recorded objective and
began to recombine it from the gradient's product, A x_n = (A y_{n+1} +
c A x_{n-1}) / (1 + c): those objective columns differ from the direct
product in the last bits.  Their ``trace.x`` hashes did not move, since the
gradient still takes the product of y's own bits and every iterate is the
same.  The plain ``fb`` cases take A x_n = A y_{n+1} with y = x, and keep
their hashes.

The gradient-descent cases hash the objective path (start included), the
residual column, ``trace.x`` and every kept iterate, and record the
termination and the iteration count.  They leave out the trace's extras
columns, since gradient descent once recorded a ``step`` column that its run
on the shared prox-gradient loop no longer writes.
"""
import hashlib

import numpy as np
import pytest

from proxsplit.cli import _write_trace_csv
from proxsplit.data import generate_synthetic
from proxsplit.funcs import BoxIndicator, CallableSmooth, HardThreshold, Quadratic, ZeroFn
from proxsplit.linops import DenseOperator, Grad2D, IdentityOperator, ImageGrid
from proxsplit.problems import (
    build_from_config,
    build_poisson_editing,
    build_tvl1,
    build_wavelet_reg,
)
from proxsplit.solvers import (
    SolverConfig,
    arrow_hurwicz,
    chambolle_pock,
    gradient_descent,
    nonconvex_forward_backward,
    projected_gradient,
)
from proxsplit.suite import (
    anisotropic_quadratic,
    double_well,
    haar4_operator,
    lasso_dense_fixture,
    lasso_diag_fixture,
    scalar_saddle_fixture,
    singular_quadratic_fixture,
    tv_denoise_fixture,
)

CFG = SolverConfig(max_iter=200)


def _recipe(inst, name, cfg=CFG):
    trace, _ = inst.run(name, cfg)
    return trace


def _tvl1():
    data = generate_synthetic("step_image", (8, 8), sigma=0.1, seed=3)
    return build_tvl1(ImageGrid(8, 8, data["y"]), 0.3)


def _tv_inverse_conv():
    data = generate_synthetic("step_image", (8, 8), sigma=0.0, seed=1)
    kernel = np.array([[0.05, 0.1, 0.05], [0.1, 0.4, 0.1], [0.05, 0.1, 0.05]])
    return build_from_config({
        "kind": "tv_inverse", "rows": 8, "cols": 8, "lambda": 0.05,
        "y": data["x_true"].tolist(),
        "A": {"kind": "circular_conv", "kernel": kernel.tolist(), "shape": [8, 8]},
    })


def _poisson():
    rows = cols = 8
    target = ImageGrid.from_array(np.linspace(0.0, 1.0, rows * cols).reshape(rows, cols))
    source = generate_synthetic("step_image", (rows, cols), sigma=0.2, seed=4)["y"]
    omega = np.zeros((rows, cols), dtype=bool)
    omega[2:6, 1:7] = True
    inst = build_poisson_editing(Grad2D(rows, cols).apply(source), target,
                                 omega.ravel())
    return _recipe(inst, "projected_gradient")


def _wavelet(name):
    A = DenseOperator(np.array([[1.0, 0.3, 0.0, -0.2],
                                [0.1, 0.9, 0.4, 0.0],
                                [0.0, -0.3, 1.2, 0.2],
                                [0.2, 0.0, 0.1, 0.8],
                                [0.5, 0.5, -0.5, 0.5]]))
    y = np.array([1.0, -0.4, 0.7, 0.2, 0.9])
    return _recipe(build_wavelet_reg(A, y, 0.15, haar4_operator()), name)


def _double_well():
    return nonconvex_forward_backward(double_well(), ZeroFn(), np.array([0.5]),
                                      SolverConfig(gamma=0.1, max_iter=300))


def _hard_threshold():
    f = Quadratic(IdentityOperator(3), np.array([3.0, 0.4, -1.5]))
    return nonconvex_forward_backward(f, HardThreshold(1.0), np.zeros(3),
                                      SolverConfig(gamma=0.5, max_iter=50))


def _arrow_hurwicz():
    prob = tv_denoise_fixture().metadata["saddle"]
    return arrow_hurwicz(prob, np.zeros(64), np.zeros(128), CFG)


def _cp_gap_scalar():
    prob, _, _ = scalar_saddle_fixture()
    return chambolle_pock(prob, np.array([1.5]), np.array([0.5]),
                          SolverConfig(sigma=0.9, tau=0.9, max_iter=100))


def _projected_gradient():
    A = DenseOperator(generate_synthetic("sparse_vector", (12, 20), seed=2)["A"])
    f = Quadratic(A, np.linspace(-1.0, 1.0, 12))
    return projected_gradient(f, BoxIndicator(-0.25, 0.5), np.zeros(20), CFG)


CASES = {
    **{f"lasso/{r}": (lambda r=r: _recipe(lasso_dense_fixture(), r))
       for r in ("fb", "fista", "fista_beta", "dr")},
    "lasso/vfista": lambda: _recipe(lasso_diag_fixture(), "vfista"),
    **{f"tv_denoise/{r}": (lambda r=r: _recipe(tv_denoise_fixture(), r))
       for r in ("dr_split", "ppxa", "cp", "dual_fb", "condat")},
    **{f"tvl1/{r}": (lambda r=r: _recipe(_tvl1(), r)) for r in ("cp", "dr_split")},
    **{f"tv_inverse_conv/{r}": (lambda r=r: _recipe(_tv_inverse_conv(), r))
       for r in ("condat", "cp2")},
    "poisson_editing/projected_gradient": _poisson,
    "wavelet_reg/fb": lambda: _wavelet("fb"),
    "wavelet_reg/fista": lambda: _wavelet("fista"),
    "nonconvex/double_well": _double_well,
    "nonconvex/hard_threshold": _hard_threshold,
    "arrow_hurwicz/tv8": _arrow_hurwicz,
    "chambolle_pock/gap_scalar": _cp_gap_scalar,
    "projected_gradient/box": _projected_gradient,
}

# (sha256 of trace.csv, sha256 of trace.x.tobytes())
GOLDEN = {
    "arrow_hurwicz/tv8": (
        "c19b7d9c76a61bee27579bf19810c25728b200cd126645a0365503f2687eda4f",
        "249b4d1b35f7fa7c3732684d3aac3056d81edb99620dbba597ff94ffc28c3a30"),
    "chambolle_pock/gap_scalar": (
        "ddd68ce067eb69673bc3b6bdca31b7d626379b5fb99da82d76f8ff7035632430",
        "27ea28c4d43eb8fe9a0808ca58f9dc8c1c37238e9eb1685de4da54215abd926f"),
    "lasso/dr": (
        "0017c5e5bbd416221d3a6244a04dbe3524922370b828c3bf776f1dc08197e39b",
        "c9c413e047724dcbf78e49509cb94afe043629484fbb77de38a6519cbe5b7b70"),
    "lasso/fb": (
        "91aec5e581915d779481d0feeccf688ade5ded52d3a56766423983deffe47d92",
        "34bc84a85346c8eabab8f0f75ba7f3ebb36b9f431b39b3bbdfb35235caee9523"),
    "lasso/fista": (
        "5a0112f36e504df62dc7ceb897ab81861f76fdd8924ad2cd0895e771989cbecd",
        "e6ef8ff9275b55a453d444290d58fe1a9352b0f314c13482b29e486c825264df"),
    "lasso/fista_beta": (
        "d23113df04433f6268a8376c398def39069d8b5f3c0edbe13695371776bcda87",
        "b479feead68037f50666048ae80aa587c3054b8caee9d5f7ae273f63fda38bb7"),
    "lasso/vfista": (
        "f6fc9312634662a7f4fdd75c33761ddf81160ca97945e9432d3e3b7cbedbe2ee",
        "f3804ed379dcb1adc7952f569e89e27a3cc6584f29a99cb9e273c336ca1e898f"),
    "nonconvex/double_well": (
        "a5f8b96b795fb276606ae3dbc461996031d1cd0e0317304a7eb6dc1678dfe449",
        "86a1df26e123ded0411c700bbd64622f89b4b3e2f8676a7b38c3e9f4517bc0a0"),
    "nonconvex/hard_threshold": (
        "5379c8928606fdff6b6b3eeed20b033234b038c1019fd1bcd3634eeb7a15fd6e",
        "99ef37e78136c7a61e344e17440a0dd1b8aa2c75c36a31e9409195971b2b0633"),
    "poisson_editing/projected_gradient": (
        "61f2577041fa6e62bac5b75afbfdcaad0ea2153c142bea0ff9535c290e1bcfcf",
        "db59abacc73c1bf12e77ffef545e4ab35b3908062bb876aa10c06a74858fe7a3"),
    "projected_gradient/box": (
        "96069bd165f22a0a82b682fbff9d9f6209e92c373baf0a45c4bd407e0855b7f9",
        "3a3068558c3a19341974fe2e8d0dadfc65fcc8a622e904f8326490474fe25697"),
    "tv_denoise/condat": (
        "5eef9832ae46773d522da64caf5959a6df1b464236584f57ca26ef007ad33d6a",
        "5ec713b8db53cca956627eafc890ff33e9d615682ba2e7fba0831d0bd30bee19"),
    "tv_denoise/cp": (
        "c03b4f217cb16428a4e13d47d5d35d51a1a4cc054a2ac816ee018fe1a738553a",
        "c55d83f5093748d46c48f67cc99ccb765922639cea58c1d6d27f11b9d70ffdfd"),
    "tv_denoise/dr_split": (
        "47e0dd9caee44696385347b80bbd4139ad84478b9c140028475e3eb04879d328",
        "c1d505365bd45c242888ec4bd1428120710fa636e64e6f16f58a27a49376e034"),
    "tv_denoise/dual_fb": (
        "c03a7ffff915f8b984c28be0709a0891e0d711f6785d14c799d1869ccc4f6012",
        "c560b588067a1349c25a6d8647915229e5a1364bc3a40af3571b157db14d8d82"),
    "tv_denoise/ppxa": (
        "339a85f03fae8d4486c966c9e48a314c71345a88d6ad154e907c06ba243e076d",
        "3f67f1dec9084df97362385b118c67ab302fa848432df61b10da2e95230d6d56"),
    "tv_inverse_conv/condat": (
        "9b9bc104ed1ff56e78e78fbc9e935901c08d848dfa25f004dcc35f7118bdebbb",
        "5be279ef8681359c26c6e4179481aebcef768115eaa8ba99dab4252403b17108"),
    "tv_inverse_conv/cp2": (
        "5055437822cc3efa9493928289a8e9ce621e2b9b47fd023a76a0eb64b6a79ad0",
        "50a78076be26e3393f0d77aef0edba644aa8e0922364e3c0a9ac84edd35e7d44"),
    "tvl1/cp": (
        "5c953bf9bba30ca4eecc8afa309f1199375e3e14b6077a0b165577ee729430dd",
        "afde628b4cd0d71987153b56316db7e93e4aea3e1126c567be09b999cc23d6ec"),
    "tvl1/dr_split": (
        "51030286bba3609f0f1ba0aa126f14753095f9beb349ebd24e18db5f479481ee",
        "69e61fd42bc7c4a61dc673385e0d907ac7685492658dda29d6a9860d636bbc49"),
    "wavelet_reg/fb": (
        "8736b490e3941cc73d81279b0637f2b706354c9e48791436a7abd97542ab514b",
        "3c596a036816f68e88afbc4c436258550b55f41c8a4c2beff21712dd0c9db111"),
    "wavelet_reg/fista": (
        "b2ec913033cd53497cf2bb0aca798b9f9dab94d39fd99901c85072c91000d001",
        "785dfcc5a9f2380d5c7e9d377ddd965ee5523c17689c267428c2c4a8c4d6f1af"),
}


def _hashes(trace, tmp_path):
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, trace)
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(np.ascontiguousarray(trace.x).tobytes()).hexdigest())


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_and_iterate_bytes_match_golden(case, tmp_path):
    assert _hashes(CASES[case](), tmp_path) == GOLDEN[case]


def _gd_singular():
    f, x0, _, _ = singular_quadratic_fixture()
    return gradient_descent(f, x0, SolverConfig(max_iter=10_000, stop_at_fixed_point=True))


def _gd_diverging():
    # the declared Lipschitz constant is 100 times too small
    wrong = CallableSmooth(lambda x: 50.0 * float(x @ x), lambda x: 100.0 * x, lipschitz=1.0)
    return gradient_descent(wrong, np.array([1.0]), SolverConfig(gamma=1.9, max_iter=100))


GD_CASES = {
    "anisotropic": lambda: gradient_descent(
        anisotropic_quadratic(), np.array([1.0, 1.0]),
        SolverConfig(gamma=0.1, max_iter=300, keep_iterates=True)),
    "singular_fixed_point": _gd_singular,
    "double_well": lambda: gradient_descent(double_well(), np.array([0.5]),
                                            SolverConfig(gamma=0.1, max_iter=300)),
    "diverging": _gd_diverging,
}

# (termination, iterations, sha256 of objective path, residual, x and iterates)
GD_GOLDEN = {
    "anisotropic": ("iter_cap", 300,
        "a506700bd5d06bd0524076bef52a66636dd910af87ee24e707e77edc57dc4051"),
    "diverging": ("diverged", 3,
        "3a678becb4250a50bf25e89c1837f563dab1b891853939b03046daf092e09b06"),
    "double_well": ("iter_cap", 300,
        "ffb13c909ce3e7da97494488e2108b10c12f9ed7df4377a534f128f83699343e"),
    "singular_fixed_point": ("tol_reached", 306,
        "eba28c11def166b4c767d903c26ca0c0b697e55e921da409943b303714a53b76"),
}


def _gd_hash(trace):
    digest = hashlib.sha256()
    for arr in (trace.objective_path(), trace.residual, trace.x, *trace.iterates):
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GD_CASES))
def test_gradient_descent_bytes_match_golden(case):
    trace = GD_CASES[case]()
    assert (trace.termination, trace.n_iter, _gd_hash(trace)) == GD_GOLDEN[case]
