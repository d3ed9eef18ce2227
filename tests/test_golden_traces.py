"""Golden hashes of solver output: ``trace.csv`` bytes and final-iterate bytes.

Each case runs one recipe or solver on a tiny input (8x8 images, a 12x20
dense lasso) for at most 300 iterations, so BLAS threading cannot reorder
any sum.  The hashes pin the exact floating-point behaviour of the solver
loops, recipe defaults and operator construction: a refactor of those must
leave every hash unchanged.  If a deliberate behaviour change requires new
hashes, regenerate them from the commit before that change, never from the
change itself.
"""
import hashlib

import numpy as np
import pytest

from proxsplit.cli import _write_trace_csv
from proxsplit.data import generate_synthetic
from proxsplit.funcs import BoxIndicator, HardThreshold, Quadratic, ZeroFn
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
    nonconvex_forward_backward,
    projected_gradient,
)
from proxsplit.suite import (
    double_well,
    haar4_operator,
    lasso_dense_fixture,
    lasso_diag_fixture,
    scalar_saddle_fixture,
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
                          SolverConfig(sigma=0.9, tau=0.9, max_iter=100),
                          gap_boxes=((-2.0, 2.0), (-1.0, 1.0)))


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
        "3572eacacabab1819322933cca1a4bf5521441fed0d30c840e6c4ef4ff1e6bb6",
        "a94434211cac7cf40e24ada23306fede40ac3e4b51397958acaeb2dc9d6e51bb"),
    "chambolle_pock/gap_scalar": (
        "6a0297bb1f5a205a59fc71157ccde778a233c2ad7e780c3bc8eb77ef90f41e01",
        "27ea28c4d43eb8fe9a0808ca58f9dc8c1c37238e9eb1685de4da54215abd926f"),
    "lasso/dr": (
        "6789fb79c3e01dfb70372217ecfd03f7e3c6407260f048d56eb3793fb8fa578f",
        "0dec9f8cb18c45d0297e78b5ba67e692aafde2c881d26d4ac582bca9dd20542e"),
    "lasso/fb": (
        "c5d891678becea3ca7697591e592ecc869aa1dfb35ae8f5ee02e97e6c52e6636",
        "689c9de690b08075cddc3ab871d57c3712dc97dbb252c86c01a54894a9f963a6"),
    "lasso/fista": (
        "c298b583ffc6cf952c894d1635717804678620fd45783a2222a8938d6793f591",
        "9bde1da31ce3f8107a37d7dd4b1e8e33acee08f6d1f3efd98ce1fb4cb9297b34"),
    "lasso/fista_beta": (
        "b84d6382fbc1e59584cc17c42a7a1eb25f46644f50074d984ddc195979c1c993",
        "aaa51ace4f45858827edd50d28fcb46e09c0999ef5b8113f4fe2059cdd0a4984"),
    "lasso/vfista": (
        "10bc1a3bcced8a3a7a97e2db022adaee01dd633cbe22b256a0622f9213f0c2f2",
        "7322e5bdafb36c81851f595a167b145ad1f606ee5b71c82b61a3d15c2c074833"),
    "nonconvex/double_well": (
        "a5f8b96b795fb276606ae3dbc461996031d1cd0e0317304a7eb6dc1678dfe449",
        "86a1df26e123ded0411c700bbd64622f89b4b3e2f8676a7b38c3e9f4517bc0a0"),
    "nonconvex/hard_threshold": (
        "5379c8928606fdff6b6b3eeed20b033234b038c1019fd1bcd3634eeb7a15fd6e",
        "99ef37e78136c7a61e344e17440a0dd1b8aa2c75c36a31e9409195971b2b0633"),
    "poisson_editing/projected_gradient": (
        "7e3203d77cb4a9e9fae43acad4808ad710c14fab093163a1c0fe55cedd8be553",
        "32d125f218c5055900f8b1f5274ce59d574f02f5f33bd1e4388163b55c36effb"),
    "projected_gradient/box": (
        "820c75ceeed44a3f6a48c0a0e441f25d2daad2ff875911057ad0ea14c0215d3a",
        "e66188e49f47de3b0d7b91a08cf01ee2e213e1534b9f20c439579c4b8b1f2f21"),
    "tv_denoise/condat": (
        "52b300e4038491ba79f7cbdb4fe5d138a7f0987e026e94a866d2ec52bc05da3b",
        "083795c71fa8624f4c88facaa2d2d82045643be38fa1ed5dd7ef0e67c407b3ae"),
    "tv_denoise/cp": (
        "ecc0a3147c2a3b1d6622d9c5c7bc5027aec2d1d9d4908ac3769fe48bac7e2c0b",
        "f0bd6eefaf38cac51dae3e90dc002766b48a08bd58a6c8804fac1e4b2189f9c2"),
    "tv_denoise/dr_split": (
        "890eb23b3413a802fe6b8e24948fbbeca0c0eeae564db4a74ff26e46e81a7942",
        "dd0ea1497d81fe75aa5886ffc278cfaa219ef129cb5b6d855170e7e6ff6b5a91"),
    "tv_denoise/dual_fb": (
        "194feeb0fad4fd6a5938b96be53f52ac11b2e82efe42616234c7094867bb3887",
        "dd925f127a737e802f26e528f6acefd87b2202777bbc85ce48741358fd80963e"),
    "tv_denoise/ppxa": (
        "9ded42d5d92dba790bd4ff03580e09006e40087e6e97466ed9b47e295a8bf439",
        "dbe89bcf08faa815dd010084931ead5380963e7ef03edce7cbee3daa4e9636cb"),
    "tv_inverse_conv/condat": (
        "60214aef1afc9cba89ebd803f2f99e63235e685b625613b2b42f070ac64a6bec",
        "8f388f991fda792b85caae5eb58e008d92a68122e3c3e678362534382415981a"),
    "tv_inverse_conv/cp2": (
        "e509d6ffe1918db55238399284f9de1fe481286e03bbc9b7fbfe8f037e0d37b5",
        "d8a5f7adc83944f63a5f9206ed53cb04ae8120584f89e9bcb7e24ab3b4413100"),
    "tvl1/cp": (
        "f30e296c149b44d2ebd9dd3c10facc752d828504a5bbbc3c04e6d3c10b5a99df",
        "b616f54f1278833550a82dc93a9d4d4f4230e5201d05b5dbf0a451441e6c8cbe"),
    "tvl1/dr_split": (
        "54a6b4145b04783dcac43897bc1ddfae04c2605021042d4698659abdcb6edb23",
        "ff93715a4d079801086a18d7235eec96ddb212a52262b49d6342739b5a8308a4"),
    "wavelet_reg/fb": (
        "60beb48d69b88bd12727f85c9ef1bca986546fdaacc7b46b265a18252bde4b01",
        "7e85ed2258c1fc21dceadc00987a89dff1e756c2a316b581b7c2f8e04a21178f"),
    "wavelet_reg/fista": (
        "0aa6af961f61e3ffe210e175d56a79529720829f2913d7f3721ff04340acc8d3",
        "3fceb95d26b63d2494a453955a2bc778f6837d8c3a09056118a3e8e1b94adfa8"),
}


def _hashes(trace, tmp_path):
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, trace)
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(np.ascontiguousarray(trace.x).tobytes()).hexdigest())


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_and_iterate_bytes_match_golden(case, tmp_path):
    assert _hashes(CASES[case](), tmp_path) == GOLDEN[case]
