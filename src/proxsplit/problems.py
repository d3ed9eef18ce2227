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
import pathlib
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
    DenseOperator,
    DimensionError,
    Grad2D,
    IdentityOperator,
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


def _image(image):
    """``rows, cols`` and a flat float copy, never the caller's array, of a
    finite, non-empty 2-d image array."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise DimensionError(f"an image must be a 2-d array, got shape {img.shape}")
    return img.shape[0], img.shape[1], as_vector(img.flatten())


def _checked(objective, dim: int):
    # the instance's public objective: the recipes' one behind a length check
    return lambda x: objective(as_vector(x, dim))


def _merge_cfg(cfg: SolverConfig | None, **defaults) -> SolverConfig:
    # a recipe default fills only a field the caller left unset
    cfg = cfg or SolverConfig()
    return dataclasses.replace(
        cfg, **{k: v for k, v in defaults.items() if getattr(cfg, k) is None}).resolved()


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


class _DualityGap:
    """Gap callable for a solver: ``primal`` and ``dual`` map the solver's
    state to the primal point x and the dual point p, and the gap is
    P(x) - D(p); ``_from_objective`` is given P(x) (see ``solvers._Recorder``)."""

    def __init__(self, objective, dual_bound, primal, dual):
        self.objective, self.dual_bound = objective, dual_bound
        self.primal, self.dual = primal, dual

    def __call__(self, *state):
        return self.objective(self.primal(*state)) - self.dual_bound(self.dual(*state))

    def _from_objective(self, value, *state):
        return value - self.dual_bound(self.dual(*state))


class _SplitGap(_DualityGap):
    """The ROF gap of a shadow point w = (x, z) of the split z = grad x in
    ``dr_split`` and ``ppxa``: the dual point is -u_z, clipped in place by
    ``clip_owned``; ``_of_shadow`` forms only that block of u."""

    def __init__(self, objective, dual_bound, n: int, clip_owned):
        super().__init__(objective, dual_bound, lambda w, u: w[:n],
                         lambda w, u: clip_owned(-u[n:]))
        self.n, self.clip_owned = n, clip_owned

    def _of_shadow(self, w, x, gamma):
        # -(x_z - w_z)/gamma in one buffer: the bytes of -u[n:]
        n = self.n
        p = np.subtract(x[n:], w[n:])
        np.divide(p, gamma, out=p)
        np.negative(p, out=p)
        return self.objective(w[:n]) - self.dual_bound(self.clip_owned(p))


def _half_residual_bound(y, adjoint):
    """D(p) = 1/2 ||y||^2 - 1/2 ||y - adjoint(p)||^2, the dual bound shared by
    ROF (adjoint = grad*, on a dual point clipped to the ball) and LASSO
    (adjoint = Id)."""
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

    gap = _DualityGap(objective, _half_residual_bound(y, lambda theta: theta),
                      lambda x, *_: x, lambda x, *_: scaled_residual(x))
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
    split_fn = SeparableProx([(data_fit, slice(0, n)), (tv, slice(n, 3 * n))], 3 * n)
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


def build_tv_denoise(image, lam: float) -> ProblemInstance:
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
    rows, cols, y = _image(image)
    n = y.size
    grad = Grad2D(rows, cols)
    data_fit = Quadratic(IdentityOperator(n), y)
    tv = L1Norm(lam)
    objective = _tv_objective(data_fit, grad, float(lam))

    # ROF dual: x = y - grad* p for p in the ball ||p||_inf <= lam; clipping
    # keeps the bound valid at iterates outside the ball (in place only on
    # a dual point the gap formed itself)
    dual = _half_residual_bound(y, grad._adjoint)
    clip_owned = lambda p: np.clip(p, -lam, lam, out=p)
    cp_gap = _DualityGap(objective, dual, lambda x, p: x,
                         lambda x, p: np.clip(p, -lam, lam))
    condat_gap = _DualityGap(objective, dual, lambda x, us: x,
                             lambda x, us: np.clip(us[0], -lam, lam))
    dual_fb_gap = _DualityGap(objective, dual, lambda p: y + grad._adjoint(p),
                              lambda p: clip_owned(-p))
    # the shadow point (x, z) of dr_split and ppxa, and u in the normal cone
    # of the graph there: -u_z is the multiplier of z = grad x
    split_gap = _SplitGap(objective, dual, n, clip_owned)

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
        metadata={"lambda": lam, "rows": rows, "cols": cols,
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
        [(Quadratic(IdentityOperator(A.out_dim), -y), slice(0, A.out_dim)),
         (LinfBallIndicator(lam), slice(A.out_dim, K.out_dim))],
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


def build_tvl1(image, lam: float) -> ProblemInstance:
    """min ||x - y||_1 + lam ||grad x||_1, the impulsive-noise variant."""
    if lam < 0:
        raise ValueError("the TV weight must be nonnegative")
    rows, cols, y = _image(image)
    grad = Grad2D(rows, cols)
    data_fit = L1Residual(y)
    tv = L1Norm(lam)
    objective = _tv_objective(data_fit, grad, float(lam))

    recipes, saddle = _tv_split_and_saddle(grad, y, data_fit, tv, objective, 4000)

    return ProblemInstance(
        name="tvl1",
        objective=_checked(objective, grad.in_dim),
        recipes=recipes,
        metadata={"lambda": lam, "rows": rows, "cols": cols,
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


def build_poisson_editing(source_grad, target, omega) -> ProblemInstance:
    """Seamless cloning: match the source gradient inside the mask while
    pinning pixels outside it to the target.

        min 0.5 ||M (grad x - s)||^2   s.t.  x = target outside omega

    solved by projected gradient with stepsize below 2 / ||M grad||^2.
    """
    rows, cols, pinned = _image(target)
    omega = np.asarray(omega, dtype=bool).ravel()
    n = pinned.size
    if omega.size != n:
        raise ValueError("mask size does not match the grid")
    if np.all(omega):
        warnings.warn("mask covers the whole grid; the pinning constraint is vacuous")
    grad = Grad2D(rows, cols)
    source_grad = as_vector(source_grad, grad.out_dim)
    mask2 = MaskOperator(np.concatenate([omega, omega]))
    smooth = Quadratic(ComposedOperator(mask2, grad), mask2.apply(source_grad))
    proj = OverwriteOutside(omega, pinned)
    objective = lambda x: smooth._value(x) + proj._value(x)

    pg = _recipe(lambda cfg: projected_gradient(smooth, proj, pinned.copy(), cfg),
                 gamma=lambda: 1.0 / max(smooth.lipschitz, 1e-12), max_iter=4000)

    return ProblemInstance(
        name="poisson_editing",
        objective=_checked(objective, n),
        recipes={"projected_gradient": pg},
        metadata={"rows": rows, "cols": cols, "omega": omega,
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

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_side(value) -> bool:
    return _is_count(value) and value > 0


def _is_numbers(value, leaf=_is_number) -> bool:
    # a JSON number (or another ``leaf``), or arrays of them nested to any depth
    if isinstance(value, list):
        return all(_is_numbers(v, leaf) for v in value)
    return leaf(value)


def _is_name(value) -> bool:
    return isinstance(value, str) and value != ""


def _is_names(value) -> bool:
    return isinstance(value, list) and all(map(_is_name, value))


_NAME = ("a name", _is_name)
_PATH = ("a path", lambda v: isinstance(v, str))
_NUMBER = ("a number", _is_number)
_COUNT = ("an integer", _is_count)
_SIDE = ("a positive integer", _is_side)
_ARRAY = ("an array of numbers", _is_numbers)
# the JSON type of every config field, at the top level, in a problem and in
# an operator, as (description, test); config_value reads each through it
CONFIG_TYPES = {
    "problem": ("an object", lambda v: isinstance(v, dict)),
    "kind": _NAME, "recipe": _NAME, "boundary": _NAME,
    "recipes": ("a non-empty list of names", lambda v: bool(v) and _is_names(v)),
    "checks": ("a name or a list of names", lambda v: _is_name(v) or _is_names(v)),
    "dims": ("one or two positive integers", lambda v: _is_side(v) or (
        isinstance(v, list) and 1 <= len(v) <= 2 and all(map(_is_side, v)))),
    "seed": _COUNT, "dim": _COUNT, "rows": _SIDE, "cols": _SIDE,
    "lambda": _NUMBER, "sigma": _NUMBER, "factor": _NUMBER,
    "fixture": _PATH, "image": _PATH, "image_csv": _PATH, "output_dir": _PATH,
    "y": _ARRAY, "kernel": _ARRAY, "matrix": _ARRAY,
    "pixels": ("a 2-d array of numbers", lambda v: isinstance(v, list) and all(
        isinstance(row, list) and all(map(_is_number, row)) for row in v)),
    "pattern": ("an array of numbers or booleans",
                lambda v: _is_numbers(v, lambda x: isinstance(x, (int, float)))),
    "shape": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_count, v))),
    "A": ('an operator, "identity" or an object',
          lambda v: v in (None, "identity") or isinstance(v, dict)),
}
_REQUIRED = object()


def config_value(spec: dict, key: str, default=_REQUIRED):
    """``spec[key]``, or ``default`` when absent, if it has the JSON type that
    ``CONFIG_TYPES`` gives ``key``; a ValueError naming the key otherwise, and
    when a field without a default is absent."""
    what, ok = CONFIG_TYPES[key]
    value = spec.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"config needs {key!r}: {what}")
    if not ok(value):
        raise ValueError(f"{key!r} must be {what}, got {json.dumps(value)}")
    return value


def _operator_from_config(spec, n: int) -> LinearOperator:
    # operator specs go through the linops registry; "dim" defaults to the
    # problem dimension
    params = {"dim": n, **({"kind": "identity"} if spec in (None, "identity") else spec)}
    for key in params:
        if key in CONFIG_TYPES:
            config_value(params, key)
    return construct_operator(config_value(params, "kind"), params)


# the problem kind whose reference generate stores with a bundle of each data kind
_REFERENCE_PROBLEMS = {"sparse_vector": "lasso", "step_image": "tv_denoise"}


def build_from_config(spec: dict) -> ProblemInstance:
    """Build a problem instance from a JSON-style config dict.

    ``spec`` carries ``kind`` plus either inline parameters or a ``fixture``
    bundle directory (resolved against the PROXSPLIT_FIXTURES environment
    variable).  Every field is read through :func:`config_value`.
    """
    kind = config_value(spec, "kind")
    bundle = None
    if "fixture" in spec:
        path = pathlib.Path(config_value(spec, "fixture"))
        bundle = datamod.load_fixture(path if path.is_absolute() else datamod.fixture_root() / path)
    lam = float(config_value(spec, "lambda", bundle.get("lambda", 0.1) if bundle else 0.1))

    if kind == "tv_inverse":
        source = spec if bundle is None else bundle
        rows, cols = (config_value(source, key) for key in ("rows", "cols"))
        y_clean = np.asarray(config_value(spec, "y") if bundle is None else bundle["y"],
                             dtype=float)
        A = _operator_from_config(config_value(spec, "A", None), rows * cols)
        y_obs = A.apply(y_clean) if y_clean.size == A.in_dim else y_clean
        return build_tv_inverse(A, y_obs, lam, rows, cols)
    if kind == "lasso":
        if bundle is not None:
            y = np.asarray(bundle["y"], dtype=float)
            if "A" in bundle:
                # the bundle's stored norm and Gram factors, when checked
                norm, stored_eigh = bundle["A_factors"] or (None, None)
                A = DenseOperator(bundle["A"], stored_eigh)
                A.cached_norm = norm
            else:
                A = IdentityOperator(y.size)
        else:
            y = np.asarray(config_value(spec, "y"), dtype=float)
            A = _operator_from_config(config_value(spec, "A", None), y.size)
        inst = build_lasso(A, y, lam)
    elif kind in ("tv_denoise", "tvl1"):
        if bundle is not None:
            image = np.reshape(bundle["y"], (config_value(bundle, "rows"),
                                             config_value(bundle, "cols")))
        elif "image" in spec:
            image = datamod.read_image(config_value(spec, "image"))
        elif "image_csv" in spec:
            image = datamod.read_csv_rows(config_value(spec, "image_csv"))
        else:
            image = config_value(spec, "pixels")
        inst = (build_tv_denoise if kind == "tv_denoise" else build_tvl1)(image, lam)
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    if bundle is not None and "expected" in bundle:
        # the reference that generate stored with a lasso or tv_denoise
        # bundle answers only its own problem kind and lambda
        solved = _REFERENCE_PROBLEMS.get(bundle.get("kind"))
        if (solved, bundle.get("lambda")) == (kind, lam):
            inst.ground_truth = {**(inst.ground_truth or {}), **bundle["expected"]}
        else:
            inst.metadata["expected_objective_skipped"] = (
                f"the bundle's reference solves {solved or bundle.get('kind')} at lambda "
                f"{bundle.get('lambda')}, not {kind} at lambda {lam}")
    return inst
