"""Finite-dimensional vectors, image grids, and linear operators.

Every operator carries a matching ``apply``/``adjoint`` pair and a cached
spectral norm.  Every built-in kind has that norm in closed form, exact or a
guaranteed upper bound, so stepsize guards are never checked against an
underestimate; seeded power iteration on ``K*K`` remains only as the fallback
for an operator class without one.  Kinds whose Gram matrix ``K*K`` is
diagonal in the DFT of the input grid, or bounded by such a matrix, expose its
eigenvalues as ``gram_symbol()``.  Operators are immutable after construction
and safe to share between solver runs.
"""
from __future__ import annotations

import dataclasses
import numpy as np

NEUMANN = "neumann"
PERIODIC = "periodic"

ADJOINT_TOL = 1e-10


class DimensionError(ValueError):
    """Raised when vector/operator dimensions do not line up."""


class CGError(RuntimeError):
    """Conjugate gradient failed to reach the requested residual."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"conjugate gradient stalled at residual {residual:.3e} "
            f"after {iterations} iterations"
        )


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return ``x`` as a 1-d float64 array.

    Entries must be finite and the length at least one; ``dim`` optionally
    pins the expected length.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {v.shape}")
    if v.size < 1:
        raise DimensionError("vectors must have at least one entry")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    if dim is not None and v.size != dim:
        raise DimensionError(f"expected length {dim}, got {v.size}")
    return v


@dataclasses.dataclass(frozen=True)
class ImageGrid:
    """Rectangular image stored row-major as a flat float vector."""

    rows: int
    cols: int
    pixels: np.ndarray
    boundary: str = NEUMANN

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("image dimensions must be positive")
        if self.boundary not in (NEUMANN, PERIODIC):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        object.__setattr__(self, "pixels", as_vector(self.pixels, self.rows * self.cols))

    @classmethod
    def from_array(cls, arr, boundary: str = NEUMANN) -> "ImageGrid":
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2:
            raise DimensionError("expected a 2-d array")
        return cls(a.shape[0], a.shape[1], a.ravel(), boundary)

    def to_array(self) -> np.ndarray:
        return self.pixels.reshape(self.rows, self.cols)

    def to_vector(self) -> np.ndarray:
        return self.pixels.copy()


def conjugate_gradient(apply_fn, rhs: np.ndarray, tol: float = 1e-10,
                       max_iter: int | None = None, x0: np.ndarray | None = None) -> np.ndarray:
    """Solve ``M x = rhs`` for a symmetric positive (semi-)definite map.

    Stops at absolute residual ``tol``; the iteration cap defaults to ten
    times the dimension and exhausting it raises :class:`CGError` carrying
    the final residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    if max_iter is None:
        max_iter = 10 * n
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = rhs - apply_fn(x)
    p = r.copy()
    rs = float(r @ r)
    if np.sqrt(rs) <= tol:
        return x
    for k in range(max_iter):
        Mp = apply_fn(p)
        denom = float(p @ Mp)
        if denom <= 0.0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * Mp
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise CGError(float(np.sqrt(rs)), max_iter)


class LinearOperator:
    """Base class: an apply/adjoint pair between fixed-dimension spaces."""

    kind = "abstract"

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise DimensionError("operator dimensions must be positive")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.cached_norm: float | None = None
        self.norm_converged: bool = True

    # concrete classes implement _apply/_adjoint on validated arrays
    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, x) -> np.ndarray:
        return self._apply(as_vector(x, self.in_dim))

    def adjoint(self, y) -> np.ndarray:
        return self._adjoint(as_vector(y, self.out_dim))

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    def norm(self, tol: float = 1e-8, max_iter: int = 10_000, seed: int = 0) -> float:
        """Spectral norm sqrt(||K*K||), cached.

        Returns the class's closed form, which is exact or a guaranteed upper
        bound, with ``norm_converged`` True.  Only a class without one falls
        back to seeded power iteration (``tol``, ``max_iter``, ``seed``); its
        Rayleigh quotient can sit below the true norm, and
        ``norm_converged`` records whether it converged.
        """
        if self.cached_norm is None:
            bound = self._norm_bound()
            converged = True
            if bound is None:
                bound, converged = _power_iteration(self, tol, max_iter, seed)
            self.cached_norm = float(bound)
            self.norm_converged = converged
        return self.cached_norm

    def _norm_bound(self) -> float | None:
        # closed-form norm, exact or an upper bound; None selects power iteration
        symbol = self.gram_symbol()
        return None if symbol is None else float(np.sqrt(np.max(symbol)))

    def gram_symbol(self) -> np.ndarray | float | None:
        """Eigenvalues of K*K on the DFT grid of the input, or an upper bound
        on them in the Loewner order: an array shaped like the grid, a float
        when K*K is bounded by a multiple of Id, None when there is neither."""
        return None

    @property
    def T(self) -> "LinearOperator":
        return AdjointOperator(self)

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return ComposedOperator(self, other)


def _power_iteration(op: LinearOperator, tol: float, max_iter: int, seed: int):
    if tol <= 0:
        raise ValueError("power iteration tolerance must be positive")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.in_dim)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        v[0] = 1.0
        nv = 1.0
    v /= nv
    lam_prev = None
    lam = 0.0
    for _ in range(max_iter):
        w = op._adjoint(op._apply(v))
        lam = float(v @ w)  # Rayleigh quotient of K*K
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True
        v = w / nw
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-30):
            return float(np.sqrt(max(lam, 0.0))), True
        lam_prev = lam
    return float(np.sqrt(max(lam, 0.0))), False


def operator_norm(op: LinearOperator, tol: float = 1e-8, max_iter: int = 10_000,
                  seed: int = 0) -> float:
    return op.norm(tol=tol, max_iter=max_iter, seed=seed)


class IdentityOperator(LinearOperator):
    kind = "identity"

    def __init__(self, dim: int):
        super().__init__(dim, dim)

    def _apply(self, x):
        return x.copy()

    def _adjoint(self, y):
        return y.copy()

    def gram_symbol(self):
        return 1.0


class ScaleOperator(LinearOperator):
    kind = "scale"

    def __init__(self, factor: float, dim: int):
        super().__init__(dim, dim)
        self.factor = float(factor)

    def _apply(self, x):
        return self.factor * x

    def _adjoint(self, y):
        return self.factor * y

    def _norm_bound(self):
        return abs(self.factor)

    def gram_symbol(self):
        return self.factor ** 2


class DenseOperator(LinearOperator):
    kind = "dense_matrix"

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionError("dense operator needs a 2-d matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        super().__init__(m.shape[1], m.shape[0])
        self.matrix = m

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y

    def _norm_bound(self):
        # largest eigenvalue of the smaller of M M^T and M^T M
        m = self.matrix
        gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
        return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


class MaskOperator(LinearOperator):
    """Diagonal 0/1 operator; its own adjoint and idempotent."""

    kind = "mask"

    def __init__(self, pattern):
        p = np.asarray(pattern)
        if p.ndim != 1:
            raise DimensionError("mask pattern must be 1-d")
        super().__init__(p.size, p.size)
        self.pattern = p.astype(bool)

    def _apply(self, x):
        return np.where(self.pattern, x, 0.0)

    def _adjoint(self, y):
        return np.where(self.pattern, y, 0.0)

    def gram_symbol(self):
        # mask <= Id
        return float(self.pattern.any())


class Grad2D(LinearOperator):
    """Discrete 2-d gradient: horizontal then vertical differences, stacked.

    Output length is ``2*rows*cols``.  Neumann boundary zeroes the last
    difference of each line; periodic wraps around.
    """

    kind = "grad2d"

    def __init__(self, rows: int, cols: int, boundary: str = NEUMANN):
        if boundary not in (NEUMANN, PERIODIC):
            raise ValueError(f"unknown boundary mode {boundary!r}")
        super().__init__(rows * cols, 2 * rows * cols)
        self.rows = rows
        self.cols = cols
        self.boundary = boundary

    def _apply(self, x):
        img = x.reshape(self.rows, self.cols)
        if self.boundary == NEUMANN:
            dx = np.zeros_like(img)
            dy = np.zeros_like(img)
            dx[:, :-1] = img[:, 1:] - img[:, :-1]
            dy[:-1, :] = img[1:, :] - img[:-1, :]
        else:
            dx = np.roll(img, -1, axis=1) - img
            dy = np.roll(img, -1, axis=0) - img
        return np.concatenate([dx.ravel(), dy.ravel()])

    def _adjoint(self, y):
        n = self.rows * self.cols
        yx = y[:n].reshape(self.rows, self.cols)
        yy = y[n:].reshape(self.rows, self.cols)
        ax = np.zeros_like(yx)
        ay = np.zeros_like(yy)
        if self.boundary == NEUMANN:
            ax[:, 1:] += yx[:, :-1]
            ax[:, :-1] -= yx[:, :-1]
            ay[1:, :] += yy[:-1, :]
            ay[:-1, :] -= yy[:-1, :]
        else:
            ax = np.roll(yx, 1, axis=1) - yx
            ay = np.roll(yy, 1, axis=0) - yy
        return (ax + ay).ravel()

    def _norm_bound(self):
        if self.boundary == PERIODIC:
            return super()._norm_bound()
        # path-Laplacian spectra 4 sin^2(pi k / 2n), largest at k = n - 1
        r, c = self.rows, self.cols
        return float(np.sqrt(4.0 * np.sin(np.pi * (r - 1) / (2 * r)) ** 2
                             + 4.0 * np.sin(np.pi * (c - 1) / (2 * c)) ** 2))

    def gram_symbol(self):
        # exact for periodic boundaries; for Neumann an upper bound, since a
        # path Laplacian is below the cycle Laplacian in the Loewner order
        def cycle(n):
            return 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
        return cycle(self.rows)[:, None] + cycle(self.cols)[None, :]


class CircularConv(LinearOperator):
    """Direct circular convolution, 1-d or 2-d depending on ``shape``."""

    kind = "circular_conv"

    def __init__(self, kernel, dim: int | None = None, shape: tuple[int, int] | None = None):
        k = np.asarray(kernel, dtype=float)
        if shape is not None:
            if k.ndim != 2:
                raise DimensionError("2-d convolution needs a 2-d kernel")
            n = shape[0] * shape[1]
        else:
            if k.ndim != 1:
                raise DimensionError("1-d convolution needs a 1-d kernel")
            if dim is None:
                raise DimensionError("1-d convolution needs the signal length")
            n = dim
        super().__init__(n, n)
        self.kernel = k
        self.shape = shape

    def _apply(self, x):
        if self.shape is None:
            out = np.zeros_like(x)
            for k, c in enumerate(self.kernel):
                if c != 0.0:
                    out += c * np.roll(x, k)
            return out
        img = x.reshape(self.shape)
        out = np.zeros_like(img)
        for a in range(self.kernel.shape[0]):
            for b in range(self.kernel.shape[1]):
                c = self.kernel[a, b]
                if c != 0.0:
                    out += c * np.roll(np.roll(img, a, axis=0), b, axis=1)
        return out.ravel()

    def _adjoint(self, y):
        if self.shape is None:
            out = np.zeros_like(y)
            for k, c in enumerate(self.kernel):
                if c != 0.0:
                    out += c * np.roll(y, -k)
            return out
        img = y.reshape(self.shape)
        out = np.zeros_like(img)
        for a in range(self.kernel.shape[0]):
            for b in range(self.kernel.shape[1]):
                c = self.kernel[a, b]
                if c != 0.0:
                    out += c * np.roll(np.roll(img, -a, axis=0), -b, axis=1)
        return out.ravel()

    def gram_symbol(self):
        # |DFT|^2 of the kernel wrapped circularly onto the grid
        grid = self.shape if self.shape is not None else (self.in_dim,)
        index = np.ix_(*(np.arange(k) % n for k, n in zip(self.kernel.shape, grid)))
        wrapped = np.zeros(grid)
        np.add.at(wrapped, index, self.kernel)
        return np.abs(np.fft.fftn(wrapped)) ** 2


class StackOperator(LinearOperator):
    """Vertical stack [K1; K2; ...]; adjoint sums the component adjoints."""

    kind = "stack"

    def __init__(self, ops):
        ops = list(ops)
        if not ops:
            raise DimensionError("stack needs at least one operator")
        in_dim = ops[0].in_dim
        for op in ops:
            if op.in_dim != in_dim:
                raise DimensionError(
                    f"stack components must share the input dimension "
                    f"({op.in_dim} != {in_dim})"
                )
        super().__init__(in_dim, sum(op.out_dim for op in ops))
        self.ops = ops
        self._offsets = np.cumsum([0] + [op.out_dim for op in ops])

    def _apply(self, x):
        return np.concatenate([op._apply(x) for op in self.ops])

    def _adjoint(self, y):
        out = np.zeros(self.in_dim)
        for op, a, b in zip(self.ops, self._offsets[:-1], self._offsets[1:]):
            out += op._adjoint(y[a:b])
        return out

    def _norm_bound(self):
        bound = np.sqrt(sum(op.norm() ** 2 for op in self.ops))
        symbol = self.gram_symbol()
        if symbol is not None:
            bound = min(bound, np.sqrt(np.max(symbol)))
        return float(bound)

    def gram_symbol(self):
        # sum of the block symbols when they all live on one grid
        symbols = [op.gram_symbol() for op in self.ops]
        if any(s is None for s in symbols) or len({np.shape(s) for s in symbols} - {()}) > 1:
            return None
        return sum(symbols)


class ComposedOperator(LinearOperator):
    kind = "composition"

    def __init__(self, outer: LinearOperator, inner: LinearOperator):
        if outer.in_dim != inner.out_dim:
            raise DimensionError(
                f"cannot compose: inner output {inner.out_dim} != outer input {outer.in_dim}"
            )
        super().__init__(inner.in_dim, outer.out_dim)
        self.outer = outer
        self.inner = inner

    def _apply(self, x):
        return self.outer._apply(self.inner._apply(x))

    def _adjoint(self, y):
        return self.inner._adjoint(self.outer._adjoint(y))

    def _norm_bound(self):
        return self.outer.norm() * self.inner.norm()


class AdjointOperator(LinearOperator):
    kind = "adjoint"

    def __init__(self, base: LinearOperator):
        super().__init__(base.out_dim, base.in_dim)
        self.base = base

    def _apply(self, x):
        return self.base._adjoint(x)

    def _adjoint(self, y):
        return self.base._apply(y)

    def _norm_bound(self):
        return self.base.norm()


def compose(outer: LinearOperator, inner: LinearOperator) -> LinearOperator:
    return ComposedOperator(outer, inner)


def gram_diagonal(K: LinearOperator) -> np.ndarray | float | None:
    """Diagonal of K*K for the operator kinds whose Gram matrix is diagonal:
    a scalar for identity and scale (a multiple of Id), the pattern for a
    mask; None for every other kind."""
    if isinstance(K, IdentityOperator):
        return 1.0
    if isinstance(K, ScaleOperator):
        return K.factor ** 2
    if isinstance(K, MaskOperator):
        return K.pattern.astype(float)
    return None


_KINDS = {
    "identity": lambda p: IdentityOperator(p["dim"]),
    "scale": lambda p: ScaleOperator(p["factor"], p["dim"]),
    "dense_matrix": lambda p: DenseOperator(p["matrix"]),
    "mask": lambda p: MaskOperator(p["pattern"]),
    "grad2d": lambda p: Grad2D(p["rows"], p["cols"], p.get("boundary", NEUMANN)),
    "circular_conv": lambda p: CircularConv(
        p["kernel"], dim=p.get("dim"), shape=tuple(p["shape"]) if "shape" in p else None
    ),
    "stack": lambda p: StackOperator(p["ops"]),
    "composition": lambda p: ComposedOperator(p["outer"], p["inner"]),
}


def construct_operator(kind: str, params: dict) -> LinearOperator:
    """Build an operator from a kind name and a parameter payload."""
    try:
        factory = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown operator kind {kind!r}") from None
    return factory(params)


@dataclasses.dataclass
class AdjointReport:
    kind: str
    trials: int
    max_defect: float
    passed: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def adjoint_consistency_check(op: LinearOperator, trials: int = 100,
                              seed: int = 0) -> AdjointReport:
    """Probe <Kx, y> == <x, K*y> on random pairs; passes at defect <= 1e-10."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(op.in_dim)
        y = rng.standard_normal(op.out_dim)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.adjoint(y))
        defect = abs(lhs - rhs) / (1.0 + float(np.linalg.norm(x)) * float(np.linalg.norm(y)))
        worst = max(worst, float(defect))
    return AdjointReport(op.kind, trials, worst, bool(worst <= ADJOINT_TOL))


def read_csv_rows(path, error=ValueError) -> np.ndarray:
    """Read a comma-separated file, one row per line, as a 2-d float array.

    Blank lines are skipped; an empty file, rows of different widths or a
    token that is not a number raise ``error`` naming the file.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise error(f"empty CSV file: {path}")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise error(f"malformed CSV file {path}: {exc}") from None


def dense_from_csv(path) -> DenseOperator:
    """Load a dense matrix from a comma-separated file, one row per line."""
    return DenseOperator(read_csv_rows(path))
