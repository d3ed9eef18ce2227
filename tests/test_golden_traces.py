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
        "c19b7d9c76a61bee27579bf19810c25728b200cd126645a0365503f2687eda4f",
        "249b4d1b35f7fa7c3732684d3aac3056d81edb99620dbba597ff94ffc28c3a30"),
    "chambolle_pock/gap_scalar": (
        "6a0297bb1f5a205a59fc71157ccde778a233c2ad7e780c3bc8eb77ef90f41e01",
        "27ea28c4d43eb8fe9a0808ca58f9dc8c1c37238e9eb1685de4da54215abd926f"),
    "lasso/dr": (
        "6789fb79c3e01dfb70372217ecfd03f7e3c6407260f048d56eb3793fb8fa578f",
        "0dec9f8cb18c45d0297e78b5ba67e692aafde2c881d26d4ac582bca9dd20542e"),
    "lasso/fb": (
        "a47d8842d79c0a99464d85d6122f8c245486386b4f9ac57583a897ac19c70023",
        "46302bf76bdb00a8f11fa9a02abdda89ed51c7f87bd6738646ce6cc941dcab29"),
    "lasso/fista": (
        "8b2a5889c5f4ad7231b0e1dac2b87a664ff7b43e8c98b0f0f623a6b649b147a2",
        "27649b924b505398ae52bd53e8fac417907a7f284881d42bb17e18ecf8358221"),
    "lasso/fista_beta": (
        "dfe75a10e77c15a5236696921fe7b4ed7b17358fc969ed3e76567a14280b9ddf",
        "5b2dc655f5d07f69f3d08a1e4e1f6610d2addce88c5647c807114aec2ee39a57"),
    "lasso/vfista": (
        "aa348fa72c6687f762e77233a728323ead436994b3173c0e7f4f3c7528b6a663",
        "44a6c7682128ff0788baa0e12d8de377a85c36c23a06fb00ac9f16511635c7bf"),
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
        "9bfcf65c740cb85d6a214db616daff925976b382667d6c9aa677886e1d6cc96f",
        "f6260c5abbe43b2b3d5b505a090d19beea77bda0b1c7ca2329ae8160cdcbe4e3"),
    "tv_denoise/condat": (
        "5eef9832ae46773d522da64caf5959a6df1b464236584f57ca26ef007ad33d6a",
        "5ec713b8db53cca956627eafc890ff33e9d615682ba2e7fba0831d0bd30bee19"),
    "tv_denoise/cp": (
        "c03b4f217cb16428a4e13d47d5d35d51a1a4cc054a2ac816ee018fe1a738553a",
        "c55d83f5093748d46c48f67cc99ccb765922639cea58c1d6d27f11b9d70ffdfd"),
    "tv_denoise/dr_split": (
        "890eb23b3413a802fe6b8e24948fbbeca0c0eeae564db4a74ff26e46e81a7942",
        "dd0ea1497d81fe75aa5886ffc278cfaa219ef129cb5b6d855170e7e6ff6b5a91"),
    "tv_denoise/dual_fb": (
        "c03a7ffff915f8b984c28be0709a0891e0d711f6785d14c799d1869ccc4f6012",
        "c560b588067a1349c25a6d8647915229e5a1364bc3a40af3571b157db14d8d82"),
    "tv_denoise/ppxa": (
        "9ded42d5d92dba790bd4ff03580e09006e40087e6e97466ed9b47e295a8bf439",
        "dbe89bcf08faa815dd010084931ead5380963e7ef03edce7cbee3daa4e9636cb"),
    "tv_inverse_conv/condat": (
        "d6d53ca643e0ccbb3569ee9a8295989cf8101dfee1c602d1fc97e737e23f9576",
        "b9b11dad9422c7ab81c47d7c0faf0ced80090897f4695ead23677f064b3cd3ac"),
    "tv_inverse_conv/cp2": (
        "25fc532c4a099027037bc96de8ae7e1284fe8589e33d422442fc268acf67ad96",
        "447853e4b0d82142ee6a5e690d4f7984b4647834ea8f7e518d4f44dc58d952d3"),
    "tvl1/cp": (
        "5c953bf9bba30ca4eecc8afa309f1199375e3e14b6077a0b165577ee729430dd",
        "afde628b4cd0d71987153b56316db7e93e4aea3e1126c567be09b999cc23d6ec"),
    "tvl1/dr_split": (
        "54a6b4145b04783dcac43897bc1ddfae04c2605021042d4698659abdcb6edb23",
        "ff93715a4d079801086a18d7235eec96ddb212a52262b49d6342739b5a8308a4"),
    "wavelet_reg/fb": (
        "9cf7ba0ad94b3dba8d678b721bea29abc49e96e1b279b3a701770e4687aa23a5",
        "357227a383a249afef4833a79d7c053061b6a04e4b908ab8048edc2413425e70"),
    "wavelet_reg/fista": (
        "d85c77c4a4b3e09064d7cf71c2efcda13498cea90ce90d91f5cc8b8da4e48f26",
        "4a1e8f36206872bedbb1fe527d395adf504e9d455808b238f74795f9e31784ab"),
}


def _hashes(trace, tmp_path):
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, trace)
    return (hashlib.sha256(path.read_bytes()).hexdigest(),
            hashlib.sha256(np.ascontiguousarray(trace.x).tobytes()).hexdigest())


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_and_iterate_bytes_match_golden(case, tmp_path):
    assert _hashes(CASES[case](), tmp_path) == GOLDEN[case]
