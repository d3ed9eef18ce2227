"""Function objects with value/gradient/prox oracles and conjugation.

Two oracle families are used throughout: smooth functions (value, gradient,
Lipschitz constant of the gradient, optional strong-convexity modulus) and
prox-capable functions (value, possibly +inf, and the proximal map with an
explicit stepsize).  The catalog below covers the quadratics, l1 penalties,
indicator projections and nonconvex thresholds the solvers need.
"""
from __future__ import annotations

import numpy as np

from .linops import (
    IDENTITY_BASIS,
    IdentityOperator,
    LinearOperator,
    ScaleOperator,
    as_vector,
    conjugate_gradient,
    gram_spectrum_sum,
)

FEAS_TOL = 1e-8


def soft_threshold(x, t):
    """Componentwise shrinkage toward zero by ``t`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def solve_gram(rhs, terms, ridge: float) -> np.ndarray:
    """Solve (ridge*Id + sum_i w_i K_i* K_i) p = rhs for ``terms`` = [(w_i, K_i)]
    with nonnegative ridge and weights.

    When every K_i* K_i is diagonal in one shared basis on one grid (the
    identity, the DFT or the DCT-II; see ``linops.gram_spectrum_sum``) and
    the system is definite, exact division in that transform domain;
    conjugate gradient (absolute residual 1e-10) otherwise, for example for
    a circular blur over a Neumann gradient, dense operators and
    compositions.
    """
    spectrum = gram_spectrum_sum(terms, ridge)
    if spectrum is not None and (ridge > 0 or np.all(spectrum.eigenvalues > 0)):
        return spectrum.solve(rhs)

    def gram(p):
        # unit weights (graph projections, unit-scale quadratics) skip a pass
        out = p if ridge == 1.0 else ridge * p if ridge else None
        for w, K in terms:
            t = K.adjoint(K.apply(p))
            if w != 1.0:
                t = w * t
            out = t if out is None else out + t
        return out

    return conjugate_gradient(gram, rhs)


def _linear_box_argmin(c, lo, hi):
    # argmin of <c, z> over [lo, hi]: the bound c points away from, and the
    # box point nearest 0 where c vanishes
    return np.where(c > 0, lo, np.where(c < 0, hi, np.clip(0.0, lo, hi)))


class SmoothFn:
    """Differentiable function oracle.

    Attributes
    ----------
    lipschitz : Lipschitz constant of the gradient (may be 0 for the zero
        function).
    strong_convexity : modulus alpha >= 0, 0 when unknown.
    convex : declared convexity flag, trusted by solvers and checked by the
        certification suite.
    """

    convex = True
    strong_convexity = 0.0
    lipschitz = None

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError


class ProxFn:
    """Proper l.s.c. function oracle: value (may be +inf) and prox."""

    convex = True
    strong_convexity = 0.0
    #: known minimizer, used by fixed-point checks when available
    minimizer = None
    #: True when value(prox(x)) is 0 for every x, as for an indicator whose
    #: prox is the projection onto its set; solvers then skip that evaluation
    feasible_prox = False

    def value(self, x) -> float:
        raise NotImplementedError

    def prox(self, x, gamma: float) -> np.ndarray:
        raise NotImplementedError

    def conjugate(self) -> "ProxFn":
        """Convex conjugate; default falls back to the Moreau identity."""
        return ConjugateProx(self)


class ZeroFn(SmoothFn, ProxFn):
    """The zero function: gradient 0, prox = identity."""

    lipschitz = 0.0

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def prox(self, x, gamma):
        return np.array(x, dtype=float)

    def linearized_box_min(self, c, lo, hi):
        c = np.asarray(c, dtype=float)
        z = _linear_box_argmin(c, lo, hi)
        return z, float(c @ z)


class CallableSmooth(SmoothFn):
    """Wrap explicit value/grad callables with declared constants."""

    def __init__(self, value_fn, grad_fn, lipschitz, strong_convexity=0.0, convex=True):
        self._value = value_fn
        self._grad = grad_fn
        self.lipschitz = float(lipschitz)
        self.strong_convexity = float(strong_convexity)
        self.convex = bool(convex)

    def value(self, x):
        return float(self._value(as_vector(x)))

    def grad(self, x):
        return np.asarray(self._grad(as_vector(x)), dtype=float)


class Quadratic(SmoothFn, ProxFn):
    """f(x) = (scale/2) ||A x - b||^2, smooth and prox-capable.

    The prox solves (Id + gamma*scale*A*A) p = x + gamma*scale*A*b through
    :func:`solve_gram`: exact division in the transform domain when A*A is
    diagonal in the identity, DFT or DCT-II basis, conjugate gradient
    otherwise.  Strong convexity, the minimizer and the box-linear oracle
    use the closed forms of an A*A diagonal in the identity basis.
    """

    def __init__(self, A: LinearOperator, b, scale: float = 1.0,
                 strong_convexity: float | None = None):
        if scale <= 0:
            raise ValueError("quadratic scale must be positive")
        self.A = A
        self.b = as_vector(b, A.out_dim)
        self.scale = float(scale)
        spectrum = A.gram_spectrum()
        self._diag = (spectrum.eigenvalues if spectrum is not None
                      and spectrum.basis == IDENTITY_BASIS else None)
        if strong_convexity is not None:
            self.strong_convexity = float(strong_convexity)
        elif self._diag is not None:
            self.strong_convexity = self.scale * float(np.min(self._diag))
        else:
            self.strong_convexity = 0.0
        self._lip = None
        if self._diag is not None and np.min(self._diag) > 0:
            self.minimizer = solve_gram(self.A.adjoint(self.b) * self.scale,
                                        [(self.scale, A)], 0.0)

    @property
    def lipschitz(self):
        if self._lip is None:
            self._lip = self.scale * self.A.norm() ** 2
        return self._lip

    def value(self, x):
        r = self.A.apply(x) - self.b
        return 0.5 * self.scale * float(r @ r)

    def grad(self, x):
        return self.scale * self.A.adjoint(self.A.apply(x) - self.b)

    def prox(self, x, gamma):
        x = as_vector(x, self.A.in_dim)
        w = gamma * self.scale
        return solve_gram(x + w * self.A.adjoint(self.b), [(w, self.A)], 1.0)

    def conjugate(self):
        # closed form only for the isotropic case f = (scale/2)||x||^2
        if isinstance(self.A, IdentityOperator) and not np.any(self.b):
            return Quadratic(IdentityOperator(self.A.in_dim), self.b, 1.0 / self.scale)
        return ConjugateProx(self)

    def linearized_box_min(self, c, lo, hi):
        # min over the box of <c, z> + f(z); componentwise when A*A is diagonal
        if self._diag is None:
            raise NotImplementedError("box-linear minimization needs a diagonal quadratic")
        c = np.asarray(c, dtype=float)
        d = self.scale * self._diag
        atb = self.scale * self.A.adjoint(self.b)
        # stationary point of d/2 z^2 - (atb - c) z, clamped to the box
        with np.errstate(divide="ignore", invalid="ignore"):
            z_free = np.where(d > 0, (atb - c) / np.where(d > 0, d, 1.0), 0.0)
        z = np.clip(z_free, lo, hi)
        # where the quadratic part vanishes the objective is linear
        z = np.where(d > 0, z, _linear_box_argmin(c, lo, hi))
        return z, float(c @ z) + self.value(z)


def make_quadratic(A: LinearOperator, b, scale: float = 1.0,
                   strong_convexity: float | None = None) -> Quadratic:
    return Quadratic(A, b, scale, strong_convexity)


class L1Norm(ProxFn):
    """weight * ||x||_1; prox is soft thresholding at weight*gamma."""

    def __init__(self, weight: float = 1.0):
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        self.weight = float(weight)
        self.minimizer = 0.0

    def value(self, x):
        return self.weight * float(np.sum(np.abs(x)))

    def prox(self, x, gamma):
        return soft_threshold(np.asarray(x, dtype=float), self.weight * gamma)

    def conjugate(self):
        return LinfBallIndicator(self.weight)

    def linearized_box_min(self, c, lo, hi):
        c = np.asarray(c, dtype=float)
        lo_a = np.broadcast_to(np.asarray(lo, dtype=float), c.shape)
        hi_a = np.broadcast_to(np.asarray(hi, dtype=float), c.shape)
        cands = [lo_a, hi_a, np.clip(0.0, lo_a, hi_a)]
        vals = [c * z + self.weight * np.abs(z) for z in cands]
        stacked = np.stack(vals)
        pick = np.argmin(stacked, axis=0)
        z = np.choose(pick, cands)
        return z, float(np.min(stacked, axis=0).sum())


class L1Residual(ProxFn):
    """weight * ||x - y||_1, the shifted l1 data-attachment term."""

    def __init__(self, y, weight: float = 1.0):
        self.y = as_vector(y)
        self.weight = float(weight)
        self.minimizer = self.y

    def value(self, x):
        return self.weight * float(np.sum(np.abs(as_vector(x, self.y.size) - self.y)))

    def prox(self, x, gamma):
        x = as_vector(x, self.y.size)
        return self.y + soft_threshold(x - self.y, self.weight * gamma)

    def linearized_box_min(self, c, lo, hi):
        inner = L1Norm(self.weight)
        z, v = inner.linearized_box_min(c, np.asarray(lo) - self.y, np.asarray(hi) - self.y)
        return z + self.y, v + float(np.asarray(c) @ self.y)


class BoxIndicator(ProxFn):
    """Indicator of the box [lo, hi]; prox clamps componentwise."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.lo > self.hi):
            raise ValueError("box lower bounds exceed upper bounds")
        self.minimizer = np.clip(0.0, self.lo, self.hi)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        tol = FEAS_TOL * (1.0 + float(np.max(np.abs(x))))
        inside = np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol)
        return 0.0 if inside else np.inf

    def prox(self, x, gamma):
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    def linearized_box_min(self, c, lo, hi):
        c = np.asarray(c, dtype=float)
        lo_eff = np.maximum(np.broadcast_to(np.asarray(lo, dtype=float), c.shape), self.lo)
        hi_eff = np.minimum(np.broadcast_to(np.asarray(hi, dtype=float), c.shape), self.hi)
        if np.any(lo_eff > hi_eff):
            raise ValueError("empty intersection of boxes")
        z = _linear_box_argmin(c, lo_eff, hi_eff)
        return z, float(c @ z)


class LinfBallIndicator(ProxFn):
    """Indicator of {||x||_inf <= radius}; the conjugate of radius*||.||_1."""

    def __init__(self, radius: float):
        if radius < 0:
            raise ValueError("ball radius must be nonnegative")
        self.radius = float(radius)
        self.minimizer = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        tol = FEAS_TOL * (1.0 + float(np.max(np.abs(x))))
        return 0.0 if np.max(np.abs(x)) <= self.radius + tol else np.inf

    def prox(self, x, gamma):
        return np.clip(np.asarray(x, dtype=float), -self.radius, self.radius)

    def conjugate(self):
        return L1Norm(self.radius)

    def linearized_box_min(self, c, lo, hi):
        c = np.asarray(c, dtype=float)
        lo_eff = np.maximum(np.broadcast_to(np.asarray(lo, dtype=float), c.shape), -self.radius)
        hi_eff = np.minimum(np.broadcast_to(np.asarray(hi, dtype=float), c.shape), self.radius)
        if np.any(lo_eff > hi_eff):
            raise ValueError("box does not intersect the ball")
        z = _linear_box_argmin(c, lo_eff, hi_eff)
        return z, float(c @ z)


class AffineGraphIndicator(ProxFn):
    """Indicator of {(x1, x2): x2 = K x1}; prox is the graph projection.

    The projection solves (Id + K*K) p1 = x1 + K* x2 through
    :func:`solve_gram` (exact division in the transform domain when K*K is
    diagonal in the identity, DFT or DCT-II basis, conjugate gradient
    otherwise) and sets p2 = K p1, so every point it returns is feasible.
    With K a stack [L_1; ...; L_m] this is the projection onto
    {(p, L_1 p, ..., L_m p)}.
    """

    feasible_prox = True

    def __init__(self, K: LinearOperator):
        self.K = K
        self.dim = K.in_dim + K.out_dim

    def _split(self, x):
        x = as_vector(x, self.dim)
        return x[: self.K.in_dim], x[self.K.in_dim:]

    def value(self, x):
        x1, x2 = self._split(x)
        gap = np.linalg.norm(x2 - self.K.apply(x1))
        return 0.0 if gap <= FEAS_TOL * (1.0 + np.linalg.norm(x)) else np.inf

    def prox(self, x, gamma):
        x1, x2 = self._split(x)
        p1 = solve_gram(x1 + self.K.adjoint(x2), [(1.0, self.K)], 1.0)
        return np.concatenate([p1, self.K.apply(p1)])


class ConsensusIndicator(ProxFn):
    """Indicator of the diagonal {x_1 = ... = x_M}; prox is the block mean."""

    def __init__(self, n_blocks: int, block_dim: int):
        if n_blocks < 2:
            raise ValueError("consensus needs at least two blocks")
        self.n_blocks = int(n_blocks)
        self.block_dim = int(block_dim)
        self.dim = self.n_blocks * self.block_dim

    def value(self, x):
        blocks = as_vector(x, self.dim).reshape(self.n_blocks, self.block_dim)
        dev = float(np.max(np.abs(blocks - blocks.mean(axis=0))))
        return 0.0 if dev <= FEAS_TOL * (1.0 + np.max(np.abs(blocks))) else np.inf

    def prox(self, x, gamma):
        blocks = as_vector(x, self.dim).reshape(self.n_blocks, self.block_dim)
        mean = blocks.mean(axis=0)
        return np.tile(mean, self.n_blocks)


def indicator_prox(kind: str, params: dict) -> ProxFn:
    """Config-facing dispatch for the indicator family."""
    if kind == "box":
        return BoxIndicator(params["lo"], params["hi"])
    if kind == "linf_ball":
        return LinfBallIndicator(params["radius"])
    if kind == "affine_graph":
        return AffineGraphIndicator(params["K"])
    if kind == "consensus":
        return ConsensusIndicator(params["n_blocks"], params["block_dim"])
    raise ValueError(f"unknown indicator kind {kind!r}")


class SeparableProx(ProxFn):
    """Blockwise sum of prox-capable functions over a partition of indices."""

    def __init__(self, parts, dim: int):
        self.dim = int(dim)
        self.parts = []
        seen = np.zeros(self.dim, dtype=bool)
        for fn, idx in parts:
            idx = np.asarray(idx, dtype=int)
            if idx.ndim != 1 or idx.size == 0:
                raise ValueError("each block needs a nonempty index list")
            if np.any(seen[idx]):
                raise ValueError("overlapping blocks in separable prox")
            seen[idx] = True
            self.parts.append((fn, idx))
        if not np.all(seen):
            raise ValueError("blocks do not cover all coordinates")
        self.convex = all(fn.convex for fn, _ in self.parts)

    def value(self, x):
        x = as_vector(x, self.dim)
        return float(sum(fn.value(x[idx]) for fn, idx in self.parts))

    def prox(self, x, gamma):
        x = as_vector(x, self.dim)
        out = np.empty_like(x)
        for fn, idx in self.parts:
            out[idx] = fn.prox(x[idx], gamma)
        return out

    def linearized_box_min(self, c, lo, hi):
        c = np.asarray(c, dtype=float)
        lo_a = np.broadcast_to(np.asarray(lo, dtype=float), c.shape)
        hi_a = np.broadcast_to(np.asarray(hi, dtype=float), c.shape)
        z = np.empty_like(c)
        total = 0.0
        for fn, idx in self.parts:
            zi, vi = fn.linearized_box_min(c[idx], lo_a[idx], hi_a[idx])
            z[idx] = zi
            total += vi
        return z, total


class OrthogonalComposition(ProxFn):
    """prox of inner(T x) for an orthogonal transform T (T*T = TT* = Id).

    Orthogonality is validated statistically at construction: 20 random
    vectors, defect tolerance 1e-8.
    """

    def __init__(self, T: LinearOperator, inner: ProxFn, check_seed: int = 0):
        if T.in_dim != T.out_dim:
            raise ValueError("orthogonal transforms must be square")
        rng = np.random.default_rng(check_seed)
        for _ in range(20):
            v = rng.standard_normal(T.in_dim)
            d1 = np.linalg.norm(T.adjoint(T.apply(v)) - v)
            d2 = np.linalg.norm(T.apply(T.adjoint(v)) - v)
            if max(d1, d2) > 1e-8 * (1.0 + np.linalg.norm(v)):
                raise ValueError("transform failed the orthogonality check")
        self.T = T
        self.inner = inner
        self.convex = inner.convex

    def value(self, x):
        return self.inner.value(self.T.apply(x))

    def prox(self, x, gamma):
        x = as_vector(x, self.T.in_dim)
        return self.T.adjoint(self.inner.prox(self.T.apply(x), gamma))


class HardThreshold(ProxFn):
    """weight * (number of nonzeros); nonconvex counting penalty.

    The prox keeps x_i when x_i^2 > 2*weight*gamma and zeroes it otherwise;
    ties resolve to 0, which makes the map deterministic and idempotent.
    """

    convex = False

    def __init__(self, weight: float):
        if weight <= 0:
            raise ValueError("hard-threshold weight must be positive")
        self.weight = float(weight)
        self.minimizer = 0.0

    def value(self, x):
        return self.weight * float(np.count_nonzero(np.asarray(x)))

    def prox(self, x, gamma):
        x = np.asarray(x, dtype=float)
        return np.where(x * x > 2.0 * self.weight * gamma, x, 0.0)


class ConjugateProx(ProxFn):
    """prox of the convex conjugate, computed through the Moreau identity:

        prox_{gamma f*}(x) = x - gamma * prox_{f/gamma}(x/gamma).
    """

    def __init__(self, base: ProxFn):
        if not base.convex:
            raise ValueError("conjugate prox requires a convex base function")
        self.base = base

    def value(self, x):
        raise NotImplementedError("conjugate value has no general closed form")

    def prox(self, x, gamma):
        return prox_conjugate(self.base, x, gamma)


def prox_conjugate(f: ProxFn, x, gamma: float) -> np.ndarray:
    """One-shot Moreau-identity evaluation of prox_{gamma f*}(x)."""
    x = np.asarray(x, dtype=float)
    return x - gamma * f.prox(x / gamma, 1.0 / gamma)


class SaddleProblem:
    """min_x max_y <Kx, y> + g(x) - f*(y), the primal-dual pairing.

    ``f_conj`` is the conjugate-side prox oracle (prox of sigma*f*).  When
    only the primal ``f_primal`` is known, the conjugate prox is derived via
    the Moreau identity.
    """

    def __init__(self, K: LinearOperator, g: ProxFn, f_conj: ProxFn | None = None,
                 f_primal: ProxFn | None = None, primal_objective=None):
        if f_conj is None and f_primal is None:
            raise ValueError("need the conjugate prox or the primal function")
        self.K = K
        self.g = g
        self.f_primal = f_primal
        self.f_conj = f_conj if f_conj is not None else ConjugateProx(f_primal)
        if primal_objective is not None:
            self._primal_objective = primal_objective
        elif f_primal is not None:
            self._primal_objective = lambda x: g.value(x) + f_primal.value(K.apply(x))
        else:
            self._primal_objective = None

    def primal_objective(self, x) -> float:
        if self._primal_objective is None:
            return float("nan")
        return float(self._primal_objective(x))


def partial_primal_dual_gap(prob: "SaddleProblem", x, y, box1, box2) -> float:
    """Partial primal-dual gap of (x, y) over bounded boxes B1 x B2.

    Evaluated through the componentwise box-linear minimization oracles of
    the catalog functions; functions without that structure are rejected
    rather than approximated.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for fn in (prob.g, prob.f_conj):
        if not hasattr(fn, "linearized_box_min"):
            raise ValueError(
                f"{type(fn).__name__} has no box-linear oracle; the partial "
                "gap is only evaluated for the catalog function family"
            )
    kx = prob.K.apply(x)
    _, neg_max = prob.f_conj.linearized_box_min(-kx, box2[0], box2[1])
    max_term = -neg_max + prob.g.value(x)
    _, min_term = prob.g.linearized_box_min(prob.K.adjoint(y), box1[0], box1[1])
    min_side = min_term - prob.f_conj.value(y)
    return float(max_term - min_side)


def precompose_prox(f: ProxFn, K: LinearOperator) -> ProxFn:
    """Prox oracle for x -> f(Kx) in the cases with a usable closed form.

    Supported: K identity (returns f unchanged); quadratic f with any K
    (absorbed into the quadratic); scale/diagonal K with a separable f
    (componentwise substitution rule).
    """
    if isinstance(K, IdentityOperator):
        return f
    if isinstance(f, Quadratic):
        from .linops import ComposedOperator
        return Quadratic(ComposedOperator(f.A, K), f.b, f.scale)
    diag = None
    if isinstance(K, ScaleOperator):
        diag = np.full(K.in_dim, K.factor)
    else:
        from .linops import DenseOperator
        if isinstance(K, DenseOperator) and K.matrix.shape[0] == K.matrix.shape[1]:
            off = K.matrix - np.diag(np.diag(K.matrix))
            if not np.any(off):
                diag = np.diag(K.matrix).copy()
    if diag is None or np.any(diag == 0.0):
        raise NotImplementedError(
            "prox of a precomposition is only available for identity, "
            "invertible diagonal, or quadratic cases"
        )
    return _DiagonalPrecomposition(f, diag)


class _DiagonalPrecomposition(ProxFn):
    """prox of h(x) = f(d .* x) for separable f and nonzero diagonal d.

    Uses the scalar substitution u = d_i x_i blockwise:
    prox_{gamma h}(x)_i = prox_{gamma d_i^2 f}(d_i x_i)_i / d_i, which is
    valid because f acts componentwise for the catalog functions used here.
    """

    def __init__(self, f: ProxFn, diag: np.ndarray):
        self.f = f
        self.diag = np.asarray(diag, dtype=float)
        self.convex = f.convex

    def value(self, x):
        return self.f.value(self.diag * as_vector(x, self.diag.size))

    def prox(self, x, gamma):
        x = as_vector(x, self.diag.size)
        out = np.empty_like(x)
        for i, d in enumerate(self.diag):
            u = self.f.prox(np.array([d * x[i]]), gamma * d * d)
            out[i] = u[0] / d
        return out


def finite_difference_grad(fn: SmoothFn, x, step: float | None = None) -> np.ndarray:
    """Central finite-difference gradient, the independent derivative oracle."""
    x = as_vector(x)
    if step is None:
        step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fn.value(x + e) - fn.value(x - e)) / (2.0 * step)
    return g
