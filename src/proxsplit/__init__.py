"""First-order proximal splitting solvers with a certification engine."""

import importlib

from .linops import (
    AdjointOperator,
    CircularConv,
    ComposedOperator,
    DenseOperator,
    Grad2D,
    IdentityOperator,
    ImageGrid,
    LinearOperator,
    MaskOperator,
    ScaleOperator,
    StackOperator,
    conjugate_gradient,
    construct_operator,
)
from .funcs import (
    AffineGraphIndicator,
    BoxIndicator,
    CallableSmooth,
    ConjugateProx,
    ConsensusIndicator,
    HardThreshold,
    L1Norm,
    L1Residual,
    LinfBallIndicator,
    OrthogonalComposition,
    ProxFn,
    Quadratic,
    SaddleProblem,
    SeparableProx,
    SmoothFn,
    ZeroFn,
    soft_threshold,
)
from .solvers import (
    ConfigError,
    DecreaseViolation,
    SolverConfig,
    SolverTrace,
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
from .problems import (
    ProblemInstance,
    build_from_config,
    build_lasso,
    build_poisson_editing,
    build_tv_denoise,
    build_tv_inverse,
    build_tvl1,
    build_wavelet_reg,
)
from .data import generate_synthetic, load_fixture, read_image, write_fixture

__version__ = "0.1.0"


def __getattr__(name):
    # the certify suite loads on first use, so a solve skips importing it
    if name == "suite":
        return importlib.import_module(".suite", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
