"""Problem builders: each instance carries one primal objective and several
solver recipes that must all reach it.

A recipe is a callable ``run(cfg=None) -> (trace, x)`` where ``x`` is the
primal solution extracted from that formulation (shadow point, dual
recovery, consensus block...).  All recipes of one instance evaluate the
same objective, which is what the cross-recipe agreement checks compare.
The solvers evaluate it on the private oracle paths; ``instance.objective``
validates its argument first.

Where the dual is in closed form (TV denoise, LASSO) the builder defines one
dual bound D, a lower bound on the optimal value at every dual-feasible
point, and each recipe maps its solver state to a (primal point, dual point)
pair; the solver gets the gap P(x) - D(p), which bounds P(x) - P* from above
(see ``SolverConfig.gap_tol``).  The recipes of the other builders have no
gap, and their solvers reject a positive ``gap_tol``.
"""
from __future__ import annotations

import dataclasses
import json
import warnings
import numpy as np

from . import data as datamod
from .funcs import (
    AffineGraphIndicator,
    L1Norm,
    L1Residual,
    LinfBallIndicator,
    OrthogonalComposition,
    ProxFn,
    Quadratic,
    SaddleProblem,
    SeparableProx,
    ZeroFn,
    soft_threshold,
)
from .linops import (
    AdjointOperator,
    ComposedOperator,
    Grad2D,
    IdentityOperator,
    ImageGrid,
    LinearOperator,
    MaskOperator,
    StackOperator,
    as_vector,
    construct_operator,
)
from .solvers import (
    SolverConfig,
    chambolle_pock,
    condat,
    douglas_rachford,
    forward_backward,
    ppxa,
    projected_gradient,
)


@dataclasses.dataclass
class ProblemInstance:
    name: str
    objective: callable
    recipes: dict
    ground_truth: dict | None = None
    metadata: dict = dataclasses.field(default_factory=dict)

    def run(self, recipe: str, cfg: SolverConfig | None = None):
        if recipe not in self.recipes:
            raise KeyError(
                f"unknown recipe {recipe!r} for {self.name}; "
                f"available: {sorted(self.recipes)}"
            )
        return self.recipes[recipe](cfg)


def _checked(objective, dim: int):
    # the instance's public objective: the recipes' one behind a length check
    return lambda x: objective(as_vector(x, dim))


def _merge_cfg(cfg: SolverConfig | None, **defaults) -> SolverConfig:
    if cfg is None:
        return SolverConfig(**defaults)
    unset = cfg.unset_fields()
    # ``dataclasses.replace``, not ``with_``: the merged config is the one that
    # runs, and every field of it counts as passed
    return dataclasses.replace(cfg, **{k: v for k, v in defaults.items() if k in unset})


def _recipe(solve, extract=None, **defaults):
    """Recipe ``run(cfg=None) -> (trace, x)``: ``solve`` runs on ``cfg`` merged
    with ``defaults``, ``extract`` recovers x from the trace (default trace.x).

    A callable default is evaluated when the recipe runs, so a norm-derived
    stepsize costs nothing until used.  ``trace.meta["config"]`` keeps the
    merged config, the one that ran, with the stepsizes the solver chose.
    """
    def run(cfg=None):
        merged = _merge_cfg(cfg, **{k: v() if callable(v) else v
                                    for k, v in defaults.items()})
        trace = solve(merged)
        trace.meta["config"] = dataclasses.replace(
            merged, **{k: trace.meta[k] for k in ("gamma", "sigma", "tau") if k in trace.meta})
        return trace, trace.x if extract is None else extract(trace)

    return run


def _duality_gap(objective, dual_bound, pair):
    """Gap callable for a solver: ``pair`` maps the solver's state to a
    (primal point x, dual point p), and the gap is P(x) - D(p)."""
    def gap(*state):
        x, p = pair(*state)
        return objective(x) - dual_bound(p)

    return gap


def _half_residual_bound(y, adjoint):
    """D(p) = 1/2 ||y||^2 - 1/2 ||y - adjoint(p)||^2, the dual bound shared by
    ROF (adjoint = grad*, clipped to the ball) and LASSO (adjoint = Id)."""
    half_yy = 0.5 * float(y @ y)

    def bound(p):
        r = y - adjoint(p)
        return half_yy - 0.5 * float(r @ r)

    return bound


# inertia mode of each forward-backward recipe
_FB_INERTIA = {"fb": "none", "fista": "fista_t", "fista_beta": "fista_beta",
               "vfista": "vfista"}


def _fb_recipes(f, g, x0, names, gap=None) -> dict:
    """Forward-backward recipes on f + g from x0, with the duality gap
    ``gap(x)`` if there is one; the solver derives the stepsize 1/L when the
    recipe runs."""
    fb = lambda cfg: forward_backward(f, g, x0, cfg, gap=gap)
    return {name: _recipe(fb, inertia=_FB_INERTIA[name], max_iter=2000) for name in names}


def build_lasso(A: LinearOperator, y, lam: float,
                strong_convexity: float | None = None) -> ProblemInstance:
    """min 0.5 ||Ax - y||^2 + lam ||x||_1."""
    if lam < 0:
        raise ValueError("the l1 weight must be nonnegative")
    y = as_vector(y, A.out_dim)
    f = Quadratic(A, y, 1.0, strong_convexity)
    g = L1Norm(lam)
    objective = lambda x: f._value(x) + g._value(x)
    x0 = np.zeros(A.in_dim)

    def scaled_residual(x):
        # theta = r / max(1, ||A* r||_inf / lam), written so that lam = 0
        # (the feasible set A* theta = 0) never divides 0 by 0
        r = y - A._apply(x)
        c = float(np.max(np.abs(A._adjoint(r)), initial=0.0))
        return r if c <= lam else r * (lam / c)

    gap = _duality_gap(objective, _half_residual_bound(y, lambda theta: theta),
                       lambda x, *_: (x, scaled_residual(x)))
    names = ["fb", "fista", "fista_beta"] + (["vfista"] if f.strong_convexity > 0 else [])
    recipes = _fb_recipes(f, g, x0, names, gap)
    recipes["dr"] = _recipe(lambda cfg: douglas_rachford(f, g, x0, cfg, gap),
                            gamma=1.0, max_iter=2000)

    ground_truth = None
    if f._diag is not None and np.all(f._diag > 0):
        # A*A diagonal, so a separable closed form: soft threshold of the
        # normal-equation data
        x_star = soft_threshold(A.adjoint(y), lam) / f._diag
        ground_truth = {"x": x_star, "objective": objective(x_star)}

    return ProblemInstance(
        name="lasso",
        objective=_checked(objective, A.in_dim),
        recipes=recipes,
        ground_truth=ground_truth,
        metadata={"lambda": lam, "dim": A.in_dim, "f": f, "g": g},
    )


def _tv_objective(data_fit, grad, lam: float):
    """P(x) = data_fit(x) + lam ||grad x||_1, with |grad x| taken in place on
    its own temporary; ``lam`` is the float an ``L1Norm(lam)`` holds."""
    def objective(x):
        gx = grad._apply(x)
        return data_fit._value(x) + lam * float(np.abs(gx, out=gx).sum())

    return objective


def _tv_split_and_saddle(grad, y, data_fit, tv: L1Norm, objective, max_iter: int,
                         split_gap=None, cp_gap=None):
    """Recipes shared by the TV models with a prox-capable data term:
    ``dr_split`` on the extended variable (x, z) with z = grad x, and the
    saddle-point form ``cp``, each with its duality gap if the model has
    one.  Returns the recipes and the saddle problem."""
    n = grad.in_dim
    split_fn = SeparableProx([(data_fit, np.arange(n)), (tv, np.arange(n, 3 * n))], 3 * n)
    graph = AffineGraphIndicator(grad)
    saddle = SaddleProblem(K=grad, g=data_fit, f_conj=tv.conjugate(),
                           f_primal=tv, primal_objective=objective)
    recipes = {
        "dr_split": _recipe(
            lambda cfg: douglas_rachford(split_fn, graph,
                                         np.concatenate([y, grad.apply(y)]), cfg, split_gap),
            lambda trace: trace.x[:n], gamma=1.0, max_iter=max_iter),
        "cp": _recipe(lambda cfg: chambolle_pock(saddle, y, np.zeros(grad.out_dim), cfg,
                                                 gap=cp_gap),
                      max_iter=max_iter),
    }
    return recipes, saddle


def build_tv_denoise(y_img: ImageGrid, lam: float) -> ProblemInstance:
    """min 0.5 ||x - y||^2 + lam ||grad x||_1, in four reformulations.

    Recipes: Douglas-Rachford on the extended variable (x, z) with
    z = grad x (``dr_split``, and ``ppxa``, which builds the same split
    from its two terms and drops the ``split_gap`` column), the
    saddle-point form (``cp``), the dual projection form recovered by
    x = y + grad* p (``dual_fb``), and the explicit-gradient primal-dual
    form (``condat``).
    """
    if lam < 0:
        raise ValueError("the TV weight must be nonnegative")
    n = y_img.rows * y_img.cols
    grad = Grad2D(y_img.rows, y_img.cols, y_img.boundary)
    y = y_img.to_vector()
    data_fit = Quadratic(IdentityOperator(n), y)
    tv = L1Norm(lam)
    objective = _tv_objective(data_fit, grad, float(lam))

    # ROF dual: x = y - grad* p for p in the ball ||p||_inf <= lam; clipping
    # keeps the bound valid at iterates outside the ball
    dual = _half_residual_bound(y, lambda p: grad._adjoint(np.clip(p, -lam, lam)))
    cp_gap, condat_gap, dual_fb_gap, split_gap = (
        _duality_gap(objective, dual, pair) for pair in (
            lambda x, p: (x, p),
            lambda x, us: (x, us[0]),
            lambda p: (y + grad._adjoint(p), -p),
            # the shadow point (x, z) of dr_split and ppxa, and u in the normal
            # cone of the graph there: -u_z is the multiplier of z = grad x
            lambda w, u: (w[:n], -u[n:])))

    recipes, saddle = _tv_split_and_saddle(grad, y, data_fit, tv, objective, 3000,
                                           split_gap, cp_gap)
    dual_quad = Quadratic(AdjointOperator(grad), -y)
    ball = LinfBallIndicator(lam)
    recipes.update({
        "ppxa": _recipe(lambda cfg: ppxa([(data_fit, None), (tv, grad)], y, cfg, split_gap),
                        gamma=1.0, max_iter=3000),
        # minimizes the dual projection problem but reports the primal
        # objective of the recovered point, keeping curves comparable
        "dual_fb": _recipe(
            lambda cfg: forward_backward(
                dual_quad, ball, np.zeros(grad.out_dim), cfg,
                objective=lambda p: objective(y + grad._adjoint(p)), gap=dual_fb_gap),
            lambda trace: y + grad.adjoint(trace.x), inertia="fista_t", max_iter=3000),
        "condat": _recipe(
            lambda cfg: condat(data_fit, ZeroFn(), [(LinfBallIndicator(lam), grad)], y,
                               cfg=cfg, objective=objective, gap=condat_gap),
            max_iter=3000),
    })

    return ProblemInstance(
        name="tv_denoise",
        objective=_checked(objective, n),
        recipes=recipes,
        metadata={"lambda": lam, "rows": y_img.rows, "cols": y_img.cols,
                  "grad": grad, "saddle": saddle, "y": y},
    )


def build_tv_inverse(A: LinearOperator, y, lam: float, rows: int, cols: int) -> ProblemInstance:
    """min 0.5 ||Ax - y||^2 + lam ||grad x||_1 for a general forward map.

    Recipes: explicit gradient on the data term with a dualized TV block
    (``condat``) and a fully dualized saddle point over the stacked operator
    [A; grad] (``cp2``).
    """
    if lam < 0:
        raise ValueError("the TV weight must be nonnegative")
    n = rows * cols
    if A.in_dim != n:
        raise ValueError("forward operator does not match the grid size")
    y = as_vector(y, A.out_dim)
    grad = Grad2D(rows, cols)
    data_fit = Quadratic(A, y)
    objective = _tv_objective(data_fit, grad, float(lam))

    K = StackOperator([A, grad])
    conj_parts = SeparableProx(
        [(Quadratic(IdentityOperator(A.out_dim), -y), np.arange(A.out_dim)),
         (LinfBallIndicator(lam), np.arange(A.out_dim, A.out_dim + grad.out_dim))],
        K.out_dim)
    saddle = SaddleProblem(K=K, g=ZeroFn(), f_conj=conj_parts,
                           primal_objective=objective)
    recipes = {
        "condat": _recipe(
            lambda cfg: condat(data_fit, ZeroFn(), [(LinfBallIndicator(lam), grad)],
                               np.zeros(n), cfg=cfg, objective=objective),
            max_iter=4000),
        "cp2": _recipe(
            lambda cfg: chambolle_pock(saddle, np.zeros(n), np.zeros(K.out_dim), cfg),
            max_iter=4000),
    }

    return ProblemInstance(
        name="tv_inverse",
        objective=_checked(objective, n),
        recipes=recipes,
        metadata={"lambda": lam, "rows": rows, "cols": cols, "grad": grad,
                  "A": A, "saddle": saddle},
    )


def build_tvl1(y_img: ImageGrid, lam: float) -> ProblemInstance:
    """min ||x - y||_1 + lam ||grad x||_1, the impulsive-noise variant."""
    if lam < 0:
        raise ValueError("the TV weight must be nonnegative")
    grad = Grad2D(y_img.rows, y_img.cols, y_img.boundary)
    y = y_img.to_vector()
    data_fit = L1Residual(y)
    tv = L1Norm(lam)
    objective = _tv_objective(data_fit, grad, float(lam))

    recipes, saddle = _tv_split_and_saddle(grad, y, data_fit, tv, objective, 4000)

    return ProblemInstance(
        name="tvl1",
        objective=_checked(objective, grad.in_dim),
        recipes=recipes,
        metadata={"lambda": lam, "rows": y_img.rows, "cols": y_img.cols,
                  "grad": grad, "saddle": saddle},
    )


class OverwriteOutside(ProxFn):
    """Indicator of {x : x = target outside the mask}; prox overwrites."""

    def __init__(self, inside: np.ndarray, target: np.ndarray):
        self.inside = np.asarray(inside, dtype=bool)
        self.dim = self.inside.size
        self.target = as_vector(target, self.dim)
        self.minimizer = self.target

    def _value(self, x):
        dev = np.abs(np.where(self.inside, 0.0, x - self.target))
        tol = 1e-8 * (1.0 + float(np.max(np.abs(x))))
        return 0.0 if float(np.max(dev, initial=0.0)) <= tol else np.inf

    def _prox(self, x, gamma):
        return np.where(self.inside, x, self.target)


def build_poisson_editing(source_grad, target: ImageGrid, omega) -> ProblemInstance:
    """Seamless cloning: match the source gradient inside the mask while
    pinning pixels outside it to the target.

        min 0.5 ||M (grad x - s)||^2   s.t.  x = target outside omega

    solved by projected gradient with stepsize below 2 / ||M grad||^2.
    """
    omega = np.asarray(omega, dtype=bool).ravel()
    n = target.rows * target.cols
    if omega.size != n:
        raise ValueError("mask size does not match the grid")
    if np.all(omega):
        warnings.warn("mask covers the whole grid; the pinning constraint is vacuous")
    grad = Grad2D(target.rows, target.cols, target.boundary)
    source_grad = as_vector(source_grad, grad.out_dim)
    mask2 = MaskOperator(np.concatenate([omega, omega]))
    smooth = Quadratic(ComposedOperator(mask2, grad), mask2.apply(source_grad))
    proj = OverwriteOutside(omega, target.to_vector())
    objective = lambda x: smooth._value(x) + proj._value(x)

    pg = _recipe(lambda cfg: projected_gradient(smooth, proj, target.to_vector(), cfg),
                 gamma=lambda: 1.0 / max(smooth.lipschitz, 1e-12), max_iter=4000)

    return ProblemInstance(
        name="poisson_editing",
        objective=_checked(objective, n),
        recipes={"projected_gradient": pg},
        metadata={"rows": target.rows, "cols": target.cols, "omega": omega,
                  "smooth": smooth, "projection": proj},
    )


def build_wavelet_reg(A: LinearOperator, y, lam: float,
                      T: LinearOperator) -> ProblemInstance:
    """min 0.5 ||Ax - y||^2 + lam ||T x||_1 for an orthogonal transform T."""
    y = as_vector(y, A.out_dim)
    f = Quadratic(A, y)
    g = OrthogonalComposition(T, L1Norm(lam))
    objective = lambda x: f._value(x) + g._value(x)
    x0 = np.zeros(A.in_dim)

    return ProblemInstance(
        name="wavelet_reg",
        objective=_checked(objective, A.in_dim),
        recipes=_fb_recipes(f, g, x0, ["fb", "fista"]),
        metadata={"lambda": lam, "f": f, "g": g},
    )


# ---------------------------------------------------------------------------
# config/fixture entry point used by the command-line front end
# ---------------------------------------------------------------------------

def config_number(spec: dict, key: str, default) -> float:
    """``spec[key]``, or ``default`` when absent, as a float: a JSON number or a ValueError."""
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key!r} must be a number, got {json.dumps(value)}")
    return float(value)


def _operator_from_config(spec, n: int) -> LinearOperator:
    # operator specs go through the linops registry; "dim" defaults to the
    # problem dimension
    spec = {"kind": "identity"} if spec in (None, "identity") else spec
    if not isinstance(spec, dict):
        raise ValueError(f"an operator must be 'identity' or an object, got {json.dumps(spec)}")
    params = {"dim": n, **spec}
    kind = params.pop("kind")
    return construct_operator(kind, params)


def build_from_config(spec: dict) -> ProblemInstance:
    """Build a problem instance from a JSON-style config dict.

    ``spec`` carries ``kind`` plus either inline parameters or a ``fixture``
    bundle directory (resolved against the PROXSPLIT_FIXTURES environment
    variable).
    """
    import pathlib

    kind = spec.get("kind")
    for key in ("fixture", "image", "image_csv"):
        if not isinstance(spec.get(key, ""), str):
            raise ValueError(f"{key!r} must be a path, got {json.dumps(spec[key])}")
    bundle = None
    if "fixture" in spec:
        path = pathlib.Path(spec["fixture"])
        bundle = datamod.load_fixture(path if path.is_absolute() else datamod.fixture_root() / path)
    lam = config_number(spec, "lambda", bundle.get("lambda", 0.1) if bundle else 0.1)

    if kind == "lasso":
        if bundle is not None:
            y = np.asarray(bundle["y"], dtype=float)
            A = {"kind": "dense_matrix", "matrix": bundle["A"]} if "A" in bundle else None
        else:
            y = np.asarray(spec["y"], dtype=float)
            A = spec.get("A")
        inst = build_lasso(_operator_from_config(A, y.size), y, lam)
        if bundle is not None and "expected" in bundle:
            inst.ground_truth = inst.ground_truth or {}
            inst.ground_truth.update(bundle["expected"])
        return inst

    if kind in ("tv_denoise", "tvl1"):
        if bundle is not None:
            rows, cols = int(bundle["rows"]), int(bundle["cols"])
            grid = ImageGrid(rows, cols, np.asarray(bundle["y"], dtype=float))
        elif "image" in spec:
            grid = datamod.read_image(spec["image"])
        elif "image_csv" in spec:
            grid = datamod.read_csv_grid(spec["image_csv"])
        else:
            grid = ImageGrid.from_array(np.asarray(spec["pixels"], dtype=float))
        builder = build_tv_denoise if kind == "tv_denoise" else build_tvl1
        inst = builder(grid, lam)
        if bundle is not None and "expected" in bundle:
            inst.ground_truth = bundle["expected"]
        return inst

    if kind == "tv_inverse":
        source = spec if bundle is None else bundle
        rows, cols = (int(config_number(source, key, None)) for key in ("rows", "cols"))
        y_clean = np.asarray(source["y"], dtype=float)
        A = _operator_from_config(spec.get("A"), rows * cols)
        y_obs = A.apply(y_clean) if y_clean.size == A.in_dim else y_clean
        return build_tv_inverse(A, y_obs, lam, rows, cols)

    raise ValueError(f"unknown problem kind {kind!r}")
