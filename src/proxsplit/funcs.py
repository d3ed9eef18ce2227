"""Function objects with value/gradient/prox oracles and conjugation.

Two oracle families are used throughout: smooth functions (value, gradient,
Lipschitz constant of the gradient, optional strong-convexity modulus) and
prox-capable functions (value, possibly +inf, and the proximal map with an
explicit stepsize).  The catalog below covers the quadratics, l1 penalties,
indicator projections and nonconvex thresholds the solvers need.  Each
linear system (ridge*Id + sum_i w_i K_i* K_i) p = r that an oracle solves, a
quadratic's prox or a graph projection, goes through a :func:`gram_solver`
the oracle builds on its first solve and keeps, so that building an oracle
factors nothing.

The public oracle methods validate: ``value``, ``grad`` and ``prox`` of the
base classes pass their argument through :func:`~proxsplit.linops.as_vector`,
pinned to the oracle's ``dim`` (None where any length goes), and hand it to
the ``_``-prefixed ``_value``, ``_grad`` and ``_prox`` that each class
implements.  Those take a finite, 1-d float64 array of the right length as
given.  Solver loops and composite oracles call only the private methods, on
arrays validated once at the solver's entry; a non-finite intermediate then
reaches the iterate, and the recorder ends the run as ``diverged``.
"""
from __future__ import annotations

import numpy as np

from .linops import (
    ComposedOperator,
    DenseOperator,
    DimensionError,
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
    # sign(x) * max(|x| - t, 0) with the last two steps in place: one
    # temporary fewer, which sets the peak memory of a 256^2 TV split
    m = np.asarray(np.abs(x) - t)
    np.maximum(m, 0.0, out=m)
    return np.multiply(np.sign(x), m, out=m)


def gram_solver(terms, ridge: float):
    """``solve(rhs)``, the solution p of (ridge*Id + sum_i w_i K_i* K_i) p = rhs
    for ``terms`` = [(w_i, K_i)] with nonnegative ridge and weights.

    When every K_i* K_i is diagonal in one shared basis (the identity, the
    DFT or the DCT-II of one grid, or the eigenbasis of one dense matrix; see
    ``linops.gram_spectrum_sum``) and the system is definite, the exact
    solution by division in that basis, whose eigenvalues are summed here,
    once.  Conjugate gradient (absolute residual 1e-10) otherwise: for
    compositions, stacks without a shared basis such as a circular blur over
    a Neumann gradient, and a singular system at ridge 0.  Each consumer
    builds its solver on its first solve and keeps it.
    """
    spectrum = gram_spectrum_sum(terms, ridge)
    if spectrum is not None and (ridge > 0 or np.all(spectrum.eigenvalues > 0)):
        return spectrum.solve

    def gram(p):
        # unit weights (graph projections, unit-scale quadratics) skip a pass
        out = p if ridge == 1.0 else ridge * p if ridge else None
        for w, K in terms:
            t = K._adjoint(K._apply(p))
            if w != 1.0:
                t = w * t
            out = t if out is None else out + t
        return out

    return lambda rhs: conjugate_gradient(gram, rhs)


def _linear_box_argmin(c, lo, hi):
    # argmin of <c, z> over [lo, hi]: the bound c points away from, and the
    # box point nearest 0 where c vanishes
    return np.where(c > 0, lo, np.where(c < 0, hi, np.clip(0.0, lo, hi)))


class SmoothFn:
    """Differentiable function oracle.

    Subclasses implement ``_value`` and ``_grad``; ``value`` and ``grad``
    validate their argument against ``dim`` first.

    Attributes
    ----------
    lipschitz : Lipschitz constant of the gradient (may be 0 for the zero
        function).
    strong_convexity : modulus alpha >= 0, 0 when unknown.
    convex : declared convexity flag, trusted by solvers and checked by the
        certification suite.
    dim : input length, None when any length goes.
    """

    convex = True
    strong_convexity = 0.0
    lipschitz = None
    dim = None

    def value(self, x) -> float:
        return self._value(as_vector(x, self.dim))

    def grad(self, x) -> np.ndarray:
        return self._grad(as_vector(x, self.dim))

    def _value(self, x) -> float:
        raise NotImplementedError

    def _grad(self, x) -> np.ndarray:
        raise NotImplementedError


class ProxFn:
    """Proper l.s.c. function oracle: value (may be +inf) and prox.

    Subclasses implement ``_value`` and ``_prox``; ``value`` and ``prox``
    validate their argument against ``dim`` first.
    """

    convex = True
    strong_convexity = 0.0
    #: known minimizer, used by fixed-point checks when available
    minimizer = None
    #: True when value(prox(x)) is 0 for every x, as for an indicator whose
    #: prox is the projection onto its set; solvers then skip that evaluation
    feasible_prox = False
    #: input length, None when any length goes
    dim = None

    def value(self, x) -> float:
        return self._value(as_vector(x, self.dim))

    def prox(self, x, gamma: float) -> np.ndarray:
        return self._prox(as_vector(x, self.dim), gamma)

    def _value(self, x) -> float:
        raise NotImplementedError

    def _prox(self, x, gamma: float) -> np.ndarray:
        raise NotImplementedError

    def conjugate(self) -> "ProxFn":
        """Convex conjugate; default falls back to the Moreau identity."""
        return ConjugateProx(self)


class ZeroFn(SmoothFn, ProxFn):
    """The zero function: gradient 0, prox = identity."""

    lipschitz = 0.0

    def _value(self, x):
        return 0.0

    def _grad(self, x):
        return np.zeros_like(x)

    def _prox(self, x, gamma):
        return x.copy()


class CallableSmooth(SmoothFn):
    """Wrap explicit value/grad callables with declared constants."""

    def __init__(self, value_fn, grad_fn, lipschitz, strong_convexity=0.0, convex=True):
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self.lipschitz = float(lipschitz)
        self.strong_convexity = float(strong_convexity)
        self.convex = bool(convex)

    def _value(self, x):
        return float(self._value_fn(x))

    def _grad(self, x):
        return np.asarray(self._grad_fn(x), dtype=float)


class Quadratic(SmoothFn, ProxFn):
    """f(x) = (scale/2) ||A x - b||^2, smooth and prox-capable.

    The prox solves (Id + gamma*scale*A*A) p = x + gamma*scale*A*b with a
    :func:`gram_solver` built on the first prox and again only when
    gamma*scale changes: exact division in the transform domain when A*A is
    diagonal in the identity, DFT or DCT-II basis, exact through the cached
    eigendecomposition of a dense A (factored on the first prox, never at
    construction), conjugate gradient otherwise.  Strong convexity, the
    minimizer and the box-linear oracle use the closed forms of an A*A
    diagonal in the identity basis (``A.diagonal_gram``).
    """

    def __init__(self, A: LinearOperator, b, scale: float = 1.0,
                 strong_convexity: float | None = None):
        if scale <= 0:
            raise ValueError("quadratic scale must be positive")
        self.A = A
        self.dim = A.in_dim
        self.b = as_vector(b, A.out_dim)
        self.scale = float(scale)
        self._diag = A.gram_spectrum().eigenvalues if A.diagonal_gram else None
        if strong_convexity is not None:
            self.strong_convexity = float(strong_convexity)
        elif self._diag is not None:
            self.strong_convexity = self.scale * float(np.min(self._diag))
        else:
            self.strong_convexity = 0.0
        self._lip = None
        # the prox solver, the gamma*scale it was built for and the
        # gamma*scale*A*b each prox adds to its argument
        self._solve, self._solve_w, self._solve_rhs = None, None, None
        if self._diag is not None and np.min(self._diag) > 0:
            self.minimizer = gram_solver([(self.scale, A)], 0.0)(
                self.A._adjoint(self.b) * self.scale)

    @property
    def lipschitz(self):
        if self._lip is None:
            self._lip = self.scale * self.A.norm() ** 2
        return self._lip

    def _value(self, x):
        return self._value_from(self.A._apply(x))

    def _grad(self, x):
        return self._grad_from(self.A._apply(x))

    # f and its gradient at a point z, from the product A z
    def _value_from(self, Az):
        r = Az - self.b
        return 0.5 * self.scale * float(r @ r)

    def _grad_from(self, Az):
        return self.scale * self.A._adjoint(Az - self.b)

    def _prox(self, x, gamma):
        w = gamma * self.scale
        if w != self._solve_w:
            self._solve, self._solve_w = gram_solver([(w, self.A)], 1.0), w
            self._solve_rhs = w * self.A._adjoint(self.b)
        return self._solve(x + self._solve_rhs)

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
        atb = self.scale * self.A._adjoint(self.b)
        # stationary point of d/2 z^2 - (atb - c) z, clamped to the box
        with np.errstate(divide="ignore", invalid="ignore"):
            z_free = np.where(d > 0, (atb - c) / np.where(d > 0, d, 1.0), 0.0)
        z = np.clip(z_free, lo, hi)
        # where the quadratic part vanishes the objective is linear
        z = np.where(d > 0, z, _linear_box_argmin(c, lo, hi))
        return z, float(c @ z) + self.value(z)


class L1Norm(ProxFn):
    """weight * ||x||_1; prox is soft thresholding at weight*gamma."""

    def __init__(self, weight: float = 1.0):
        if weight < 0:
            raise ValueError("l1 weight must be nonnegative")
        self.weight = float(weight)
        self.minimizer = 0.0

    def _value(self, x):
        return self.weight * float(np.abs(x).sum())

    def _prox(self, x, gamma):
        return soft_threshold(x, self.weight * gamma)

    def conjugate(self):
        return LinfBallIndicator(self.weight)


class L1Residual(ProxFn):
    """weight * ||x - y||_1, the shifted l1 data-attachment term."""

    def __init__(self, y, weight: float = 1.0):
        self.y = as_vector(y)
        self.dim = self.y.size
        self.weight = float(weight)
        self.minimizer = self.y

    def _value(self, x):
        return self.weight * float(np.abs(x - self.y).sum())

    def _prox(self, x, gamma):
        return self.y + soft_threshold(x - self.y, self.weight * gamma)


class BoxIndicator(ProxFn):
    """Indicator of the box [lo, hi]; prox clamps componentwise."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.lo > self.hi):
            raise ValueError("box lower bounds exceed upper bounds")
        # vector bounds pin the length
        shape = np.broadcast(self.lo, self.hi).shape
        self.dim = shape[0] if len(shape) == 1 else None
        self.minimizer = np.clip(0.0, self.lo, self.hi)

    def _value(self, x):
        tol = FEAS_TOL * (1.0 + float(np.abs(x).max()))
        inside = (x >= self.lo - tol).all() and (x <= self.hi + tol).all()
        return 0.0 if inside else np.inf

    def _prox(self, x, gamma):
        return np.clip(x, self.lo, self.hi)


class LinfBallIndicator(ProxFn):
    """Indicator of {||x||_inf <= radius}; the conjugate of radius*||.||_1."""

    def __init__(self, radius: float):
        if radius < 0:
            raise ValueError("ball radius must be nonnegative")
        self.radius = float(radius)
        self.minimizer = 0.0

    def _value(self, x):
        top = np.abs(x).max()
        tol = FEAS_TOL * (1.0 + float(top))
        return 0.0 if top <= self.radius + tol else np.inf

    def _prox(self, x, gamma):
        return np.clip(x, -self.radius, self.radius)

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

    The projection solves (Id + K*K) p1 = x1 + K* x2 with a
    :func:`gram_solver` built on the first projection (exact division in the
    transform domain when K*K is diagonal in the identity, DFT or DCT-II
    basis or K is dense, conjugate gradient otherwise) and sets p2 = K p1, so
    every point it returns is feasible.
    With K a stack [L_1; ...; L_m] this is the projection onto
    {(p, L_1 p, ..., L_m p)}.
    """

    feasible_prox = True

    def __init__(self, K: LinearOperator):
        self.K = K
        self.dim = K.in_dim + K.out_dim
        self._solve = None

    def _value(self, x):
        x1, x2 = x[: self.K.in_dim], x[self.K.in_dim:]
        gap = np.linalg.norm(x2 - self.K._apply(x1))
        return 0.0 if gap <= FEAS_TOL * (1.0 + np.linalg.norm(x)) else np.inf

    def _prox(self, x, gamma):
        x1, x2 = x[: self.K.in_dim], x[self.K.in_dim:]
        if self._solve is None:
            self._solve = gram_solver([(1.0, self.K)], 1.0)
        # p1 and K p1 written into one output: no separate p1 outlives the solve
        out = np.empty(self.dim)
        p1 = out[: self.K.in_dim]
        p1[...] = self._solve(x1 + self.K._adjoint(x2))
        out[self.K.in_dim:] = self.K._apply(p1)
        return out


class ConsensusIndicator(ProxFn):
    """Indicator of the diagonal {x_1 = ... = x_M}; prox is the block mean."""

    def __init__(self, n_blocks: int, block_dim: int):
        if n_blocks < 2:
            raise ValueError("consensus needs at least two blocks")
        self.n_blocks = int(n_blocks)
        self.block_dim = int(block_dim)
        self.dim = self.n_blocks * self.block_dim

    def _value(self, x):
        blocks = x.reshape(self.n_blocks, self.block_dim)
        dev = float(np.max(np.abs(blocks - blocks.mean(axis=0))))
        return 0.0 if dev <= FEAS_TOL * (1.0 + np.max(np.abs(blocks))) else np.inf

    def _prox(self, x, gamma):
        mean = x.reshape(self.n_blocks, self.block_dim).mean(axis=0)
        return np.tile(mean, self.n_blocks)


class SeparableProx(ProxFn):
    """Blockwise sum of prox-capable functions over a partition of indices.

    A block whose indices run contiguously upward is held as a slice, so
    reading it is a view and writing it a slice store; any other block is
    gathered and scattered through its index array.
    """

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
            if fn.dim not in (None, idx.size):
                raise DimensionError(
                    f"a block of {idx.size} indices holds a function of length {fn.dim}")
            seen[idx] = True
            start = int(idx[0])
            if start >= 0 and np.array_equal(idx, np.arange(start, start + idx.size)):
                idx = slice(start, start + idx.size)
            self.parts.append((fn, idx))
        if not np.all(seen):
            raise ValueError("blocks do not cover all coordinates")
        self.convex = all(fn.convex for fn, _ in self.parts)

    def _value(self, x):
        return float(sum(fn._value(x[idx]) for fn, idx in self.parts))

    def _prox(self, x, gamma):
        out = np.empty_like(x)
        for fn, idx in self.parts:
            out[idx] = fn._prox(x[idx], gamma)
        return out


class OrthogonalComposition(ProxFn):
    """prox of inner(T x) for an orthogonal transform T (T*T = TT* = Id).

    Orthogonality is validated statistically at construction: 20 random
    vectors drawn with seed 0, defect tolerance 1e-8.
    """

    def __init__(self, T: LinearOperator, inner: ProxFn):
        if T.in_dim != T.out_dim:
            raise ValueError("orthogonal transforms must be square")
        if inner.dim not in (None, T.out_dim):
            raise DimensionError(
                f"transform of length {T.out_dim} under a function of length {inner.dim}")
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(T.in_dim)
            d1 = np.linalg.norm(T.adjoint(T.apply(v)) - v)
            d2 = np.linalg.norm(T.apply(T.adjoint(v)) - v)
            if max(d1, d2) > 1e-8 * (1.0 + np.linalg.norm(v)):
                raise ValueError("transform failed the orthogonality check")
        self.T = T
        self.dim = T.in_dim
        self.inner = inner
        self.convex = inner.convex

    def _value(self, x):
        return self.inner._value(self.T._apply(x))

    def _prox(self, x, gamma):
        return self.T._adjoint(self.inner._prox(self.T._apply(x), gamma))


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

    def _value(self, x):
        return self.weight * float(np.count_nonzero(x))

    def _prox(self, x, gamma):
        return np.where(x * x > 2.0 * self.weight * gamma, x, 0.0)


class ConjugateProx(ProxFn):
    """prox of the convex conjugate, computed through the Moreau identity:

        prox_{gamma f*}(x) = x - gamma * prox_{f/gamma}(x/gamma).
    """

    def __init__(self, base: ProxFn):
        if not base.convex:
            raise ValueError("conjugate prox requires a convex base function")
        self.base = base
        self.dim = base.dim

    def _value(self, x):
        raise NotImplementedError("conjugate value has no general closed form")

    def _prox(self, x, gamma):
        return x - gamma * self.base._prox(x / gamma, 1.0 / gamma)


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
            self._primal_objective = lambda x: g._value(x) + f_primal._value(K._apply(x))
        else:
            self._primal_objective = None


def precompose_prox(f: ProxFn, K: LinearOperator) -> ProxFn:
    """Prox oracle for x -> f(Kx) in the cases with a usable closed form.

    Supported: K identity (returns f unchanged); quadratic f with any K
    (absorbed into the quadratic); scale/diagonal K with a separable f
    (componentwise substitution rule).
    """
    if isinstance(K, IdentityOperator):
        return f
    if isinstance(f, Quadratic):
        return Quadratic(ComposedOperator(f.A, K), f.b, f.scale)
    diag = None
    if isinstance(K, ScaleOperator):
        diag = np.full(K.in_dim, K.factor)
    elif isinstance(K, DenseOperator) and K.matrix.shape[0] == K.matrix.shape[1]:
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
        if f.dim not in (None, 1):
            raise DimensionError(
                f"the substitution rule applies f to one coordinate at a time; "
                f"f has length {f.dim}")
        self.f = f
        self.diag = np.asarray(diag, dtype=float)
        self.dim = self.diag.size
        self.convex = f.convex

    def _value(self, x):
        return self.f._value(self.diag * x)

    def _prox(self, x, gamma):
        out = np.empty_like(x)
        for i, d in enumerate(self.diag):
            u = self.f._prox(np.array([d * x[i]]), gamma * d * d)
            out[i] = u[0] / d
        return out


def finite_difference_grad(fn: SmoothFn, x) -> np.ndarray:
    """Central finite-difference gradient, the independent derivative oracle."""
    x = as_vector(x)
    step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fn.value(x + e) - fn.value(x - e)) / (2.0 * step)
    return g
