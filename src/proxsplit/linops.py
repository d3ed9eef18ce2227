"""Finite-dimensional vectors and linear operators.

Every operator carries a matching ``apply``/``adjoint`` pair and a cached
spectral norm in closed form, exact or a guaranteed upper bound, so stepsize
guards are never checked against an underestimate; an operator class without
a closed form has no norm.  Two spectral hooks describe the Gram matrix
``K*K``:

- ``gram_spectrum()`` gives it exactly, as eigenvalues in a transform that
  diagonalises it: the identity (identity, scale, mask), the DFT of the grid
  (circular convolution, periodic gradient), the DCT-II of the grid
  (Neumann gradient) or a dense matrix's own eigenbasis, summed over the
  blocks of a stack that share one.  A dense matrix runs its one ``eigh`` on
  the first call and keeps the result, or reads a stored one (see
  :class:`Eigenbasis`); a sum calls it only when the other terms leave that
  eigenbasis shared.  :func:`proxsplit.funcs.gram_solver`
  reads it once per solver it builds and divides by it; building an oracle
  reads only the class attribute ``diagonal_gram``, and factors nothing.
- ``gram_symbol()`` gives eigenvalues on the DFT grid that bound ``K*K`` from
  above in the Loewner order, exact for periodic kinds; norms are read off it
  and nothing divides by it.

Operators are immutable after construction and safe to share between solver
runs.

Inputs are validated where they enter the library.  The public ``apply`` and
``adjoint`` pass their argument through :func:`as_vector` (a finite, 1-d
float64 array of the operator's length); the ``_``-prefixed ``_apply`` and
``_adjoint`` take such an array as given and check nothing.  Code inside the
library, solver loops included, calls the private pair on arrays it already
holds: each solver validates its start points once, and its recorder turns
any non-finite iterate into a ``diverged`` run.

An image is a 2-d array, which the problem builders validate and flatten;
the operators on it (``Grad2D``, ``CircularConv``) act on its row-major flat
vector.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

NEUMANN = "neumann"
PERIODIC = "periodic"

# transforms in which a Gram matrix can be diagonal
IDENTITY_BASIS = "identity"
DFT = "dft"
DCT = "dct"

EPS = float(np.finfo(float).eps)
# long double: a 64-bit significand on x86-64, the same as float elsewhere
LONG = np.longdouble
LONG_EPS = float(np.finfo(LONG).eps)


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

    def __reduce__(self):
        # rebuilt from its fields, so it keeps them across a process boundary
        return type(self), (self.residual, self.iterations)


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
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    if dim is not None and v.size != dim:
        raise DimensionError(f"expected length {dim}, got {v.size}")
    return v


def conjugate_gradient(apply_fn, rhs: np.ndarray) -> np.ndarray:
    """Solve ``M x = rhs`` for a symmetric positive (semi-)definite map.

    Starts at 0 and stops at absolute residual 1e-10; the iteration cap is
    ten times the dimension, and exhausting it raises :class:`CGError`
    carrying the final residual.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.size
    tol, max_iter = 1e-10, 10 * n
    x = np.zeros(n)
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


def _dct(x: np.ndarray) -> np.ndarray:
    # unnormalised DCT-II along the last axis, X_k = sum_n x_n cos(pi k (2n+1) / 2N),
    # through one real FFT (Makhoul 1980): the even samples, then the odd ones
    # reversed, and a quarter-sample twiddle W_k; X_k = Re W_k, X_{N-k} = -Im W_k.
    # Each step fills its output or works in place; the twiddle stays the
    # first operand, since for complex arrays W *= tw is not the same bytes
    n, half = x.shape[-1], (x.shape[-1] + 1) // 2
    v = np.empty(x.shape)
    v[..., :half] = x[..., ::2]
    v[..., half:] = x[..., 1::2][..., ::-1]
    W = np.fft.rfft(v, axis=-1)
    del v
    np.multiply(np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n), W, out=W)
    X = np.empty(x.shape)
    X[..., : n // 2 + 1] = W.real
    np.negative(W.imag[..., half - 1:0:-1], out=X[..., n // 2 + 1:])
    return X


def _idct(X: np.ndarray) -> np.ndarray:
    # exact inverse of _dct: the real FFT of the reordered signal is
    # exp(i pi k / 2N) (X_k - i X_{N-k}) for k <= N/2, with X_N = 0; V is
    # formed in place, each product and difference with its operands in the
    # order of that formula, on which its bytes depend (see _dct)
    n = X.shape[-1]
    mirrored = np.zeros(X.shape[:-1] + (n // 2 + 1,))
    mirrored[..., 1:] = X[..., ::-1][..., : n // 2]
    V = np.multiply(1j, mirrored)
    del mirrored
    np.subtract(X[..., : n // 2 + 1], V, out=V)
    np.multiply(np.exp(0.5j * np.pi * np.arange(n // 2 + 1) / n), V, out=V)
    v = np.fft.irfft(V, n, axis=-1)
    del V
    x = np.empty_like(v)
    half = (n + 1) // 2
    x[..., ::2] = v[..., :half]
    x[..., 1::2] = v[..., half:][..., ::-1]
    return x


class GramSpectrum(NamedTuple):
    """K*K = T^-1 diag(eigenvalues) T for the transform T of ``basis`` on the
    row-major ``grid`` of the input.

    ``IDENTITY_BASIS``: eigenvalues shaped like the input, or a float for a
    multiple of Id, which is diagonal in every basis.  ``DFT``: the real
    ``rfftn`` of the grid, eigenvalues on its half grid (last axis
    ``n // 2 + 1``).  ``DCT``: the DCT-II along both axes of a 2-d grid.
    An :class:`Eigenbasis`: the eigenvectors of a dense matrix, with one
    eigenvalue per eigenspace (see there).
    """

    basis: str | Eigenbasis
    grid: tuple
    eigenvalues: np.ndarray | float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The exact solution of K*K p = rhs: T^-1 (T rhs / eigenvalues)."""
        if isinstance(self.basis, Eigenbasis):
            return self.basis.solve(rhs, self.eigenvalues)
        if self.basis == IDENTITY_BASIS:
            return rhs / self.eigenvalues
        x = rhs.reshape(self.grid)
        if self.basis == DFT:
            axes = tuple(range(x.ndim))
            p = np.fft.irfftn(np.fft.rfftn(x, s=self.grid, axes=axes) / self.eigenvalues,
                              s=self.grid, axes=axes)
        else:
            # along axis 0 (the last axis of the transpose), then axis 1
            X = _dct(_dct(x.T).T)
            X /= self.eigenvalues
            p = _idct(_idct(X.T).T)
        return p.ravel()

    def _solve_in_place(self, rhs: np.ndarray) -> np.ndarray:
        """:meth:`solve` for a caller that drops ``rhs``: the identity basis
        divides it in place and returns it."""
        if self.basis == IDENTITY_BASIS:
            return np.divide(rhs, self.eigenvalues, out=rhs)
        return self.solve(rhs)


def _smaller_gram(m: np.ndarray) -> np.ndarray:
    # the smaller of M M^T and M^T M (M^T M when square)
    return m @ m.T if m.shape[0] < m.shape[1] else m.T @ m


def gram_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``np.linalg.eigh`` output for the smaller Gram matrix of ``m``:
    what :class:`Eigenbasis` factors, and what a fixture bundle stores.

    For a wide ``m`` the eigenvectors are column-major, the layout that
    the basis's ``vectors[:, keep]`` yields: a stored copy then loads in the
    layout the basis keeps, needs no copy of its own, and runs the same BLAS
    products as a fresh one, so both round alike.
    """
    lam, vectors = np.linalg.eigh(_smaller_gram(m))
    return lam, np.asfortranarray(vectors) if m.shape[0] < m.shape[1] else vectors


def _factors_fit(m: np.ndarray, lam, vectors) -> bool:
    # stored eigh output (lam, vectors) of the smaller Gram matrix G of m
    # must have its shapes and reproduce G v for one fixed probe v to within
    # sqrt(eps) ||m||_F^2 ||v||, far above eigh's rounding of about
    # r eps ||G||; the factors of another matrix miss by about ||G|| ||v||
    r = min(m.shape)
    if not (lam.shape == (r,) and vectors.shape == (r, r)
            and lam.dtype == vectors.dtype == np.float64):
        return False
    v = np.cos(np.arange(r, dtype=float))
    gv = m @ (m.T @ v) if m.shape[0] < m.shape[1] else m.T @ (m @ v)
    miss = np.linalg.norm(gv - vectors @ (lam * (vectors.T @ v)))
    return bool(miss <= math.sqrt(EPS) * np.vdot(m, m) * np.linalg.norm(v))


class Eigenbasis:
    """The eigenbasis of M*M for a dense M, from one ``np.linalg.eigh`` of the
    smaller of M*M and MM*, run when the basis is built.

    The operator's ``stored_eigh``, when set, returns that ``eigh`` output
    as computed earlier (a fixture bundle stores it), or None.  Stored output
    is used only when it has the right shapes and reproduces the Gram matrix
    on a probe vector (:func:`_factors_fit`); otherwise ``eigh`` runs.
    Fresh and stored output then go through the same steps.

    Eigenvalues within the eigensolver's rounding of zero (at most
    r * eps * lambda_max for an r x r Gram matrix) are set to 0, so a singular
    Gram matrix reads as singular.  One eigenvalue per eigenspace:

    - tall or square M (M*M = V diag(lam) V*): the n eigenvalues of M*M;
    - wide M (MM* = Q diag(lam) Q*): the nonzero eigenvalues of MM*, each
      with eigenvector M* q / sqrt(lam), then 0 for the null space of M,
      which has dimension n - rank(M) >= 1.
    """

    def __init__(self, op: DenseOperator):
        self.op = op
        m = op.matrix
        self.wide = m.shape[0] < m.shape[1]
        stored = op.stored_eigh() if op.stored_eigh is not None else None
        lam, vectors = stored if stored is not None and _factors_fit(m, *stored) else gram_eigh(m)
        lam[lam <= lam[-1] * lam.size * EPS] = 0.0
        if self.wide:
            keep = lam > 0
            lam = np.append(lam[keep], 0.0)
            if not keep.all():
                vectors = vectors[:, keep]
        self.eigenvalues, self.vectors = lam, vectors

    def solve(self, rhs: np.ndarray, total: np.ndarray) -> np.ndarray:
        """p with (sum of the terms) p = rhs, for ``total`` the eigenvalues of
        that sum in this basis, laid out as ``eigenvalues``."""
        vectors = self.vectors
        if not self.wide:
            return vectors @ ((vectors.T @ rhs) / total)
        # Woodbury through MM* (Boyd et al. 2011, sec. 4.2): with c the
        # eigenvalue on the null space and t_i on M* q_i,
        # p = rhs / c + sum_i (1/t_i - 1/c) / lam_i  M* q_i q_i* M rhs
        c, t = total[-1], total[:-1]
        coef = (1.0 / t - 1.0 / c) / self.eigenvalues[:-1]
        return rhs / c + self.op._adjoint(vectors @ (coef * (vectors.T @ self.op._apply(rhs))))


def gram_spectrum_sum(terms, ridge: float = 0.0) -> GramSpectrum | None:
    """Spectrum of ridge*Id + sum_i w_i K_i* K_i for ``terms`` = [(w_i, K_i)]
    on one input space, when every K_i* K_i is diagonal in one shared basis
    on one grid; None otherwise.  The eigenvalues are summed left to right.

    A dense matrix's eigenbasis is its own, so a dense term is factored only
    when every other term is a multiple of Id or the same operator."""
    dense = [K for _, K in terms if isinstance(K, DenseOperator)]
    others = [K.gram_spectrum() for _, K in terms if not isinstance(K, DenseOperator)]
    if any(s is None for s in others) or dense and (
            any(K is not dense[0] for K in dense)
            or any(not isinstance(s.eigenvalues, float) for s in others)):
        return None
    rest = iter(others)
    spectra = [K.gram_spectrum() if isinstance(K, DenseOperator) else next(rest)
               for _, K in terms]
    # a multiple of Id (a float eigenvalue) is diagonal in every basis
    bases = {s[:2] for s in spectra if not isinstance(s[2], float)}
    if len(bases) > 1:
        return None
    basis, grid = bases.pop() if bases else (IDENTITY_BASIS, (terms[0][1].in_dim,))
    total = ridge
    for (w, _), spectrum in zip(terms, spectra):
        total = total + w * spectrum.eigenvalues
    return GramSpectrum(basis, grid, total)


class LinearOperator:
    """Base class: an apply/adjoint pair between fixed-dimension spaces."""

    kind = "abstract"
    # every norm is a closed form; kept only because the perfbench harness reads it
    norm_converged = True
    #: True when gram_spectrum() is diagonal in the identity basis, which
    #: building an oracle can read without factoring anything
    diagonal_gram = False

    def __init__(self, in_dim: int, out_dim: int):
        if in_dim < 1 or out_dim < 1:
            raise DimensionError("operator dimensions must be positive")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.cached_norm: float | None = None

    # concrete classes implement _apply/_adjoint on validated arrays, each
    # returning a new array that the caller may keep
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

    def norm(self) -> float:
        """Spectral norm sqrt(||K*K||) from the class's closed form, which is
        exact or a guaranteed upper bound, rounded toward +inf by
        :func:`_ceil_sqrt` where its evaluation rounds; cached."""
        if self.cached_norm is None:
            self.cached_norm = float(self._norm_bound())
        return self.cached_norm

    def _norm_bound(self) -> float:
        # closed-form norm, exact or an upper bound; by default read off the symbol
        symbol = self.gram_symbol()
        if symbol is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no closed-form norm: "
                "define _norm_bound or gram_symbol")
        return _ceil_sqrt(*_ratio(np.max(symbol)), _symbol_error(symbol))

    def gram_symbol(self) -> np.ndarray | float | None:
        """Eigenvalues of K*K on the DFT grid of the input, or an upper bound
        on them in the Loewner order: an array shaped like the grid, a float
        when K*K is bounded by a multiple of Id, None when there is neither.
        A norm bound only: for a mask or a Neumann gradient it is not the
        spectrum, so nothing may divide by it."""
        return None

    def gram_spectrum(self) -> GramSpectrum | None:
        """The exact spectrum of K*K in a transform that diagonalises it, or
        None when the kind has none."""
        return None

    @property
    def T(self) -> "LinearOperator":
        return AdjointOperator(self)


class IdentityOperator(LinearOperator):
    kind = "identity"
    diagonal_gram = True

    def __init__(self, dim: int):
        super().__init__(dim, dim)

    def _apply(self, x):
        return x.copy()

    def _adjoint(self, y):
        return y.copy()

    def _norm_bound(self):
        return 1.0

    def gram_symbol(self):
        return 1.0

    def gram_spectrum(self):
        return GramSpectrum(IDENTITY_BASIS, (self.in_dim,), 1.0)


class ScaleOperator(LinearOperator):
    kind = "scale"
    diagonal_gram = True

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

    def gram_spectrum(self):
        return GramSpectrum(IDENTITY_BASIS, (self.in_dim,), self.factor ** 2)


class DenseOperator(LinearOperator):
    """An m x n matrix.

    ``stored_eigh``, a callable with no arguments, returns
    :func:`gram_eigh` of the matrix as computed earlier, or None; the first
    :meth:`gram_spectrum` call checks and uses it (see :class:`Eigenbasis`).
    """

    kind = "dense_matrix"

    def __init__(self, matrix, stored_eigh=None):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionError("dense operator needs a 2-d matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        super().__init__(m.shape[1], m.shape[0])
        self.matrix = m
        self.stored_eigh = stored_eigh
        self._spectrum = None

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y

    def _norm_bound(self):
        """sqrt(lambda_max(G) + (m + n) eps trace G) for the smaller Gram
        matrix G (r x r) of the m x n matrix M, rounded toward +inf.

        The pad covers the float error of lambda_max: forming G errs by at
        most max(m, n) u ||M||_F^2 in the 2-norm and ``eigvalsh`` by about
        r u ||G||, with u = eps / 2 and ||G|| <= ||M||_F^2 = trace G.
        """
        gram = _smaller_gram(self.matrix)
        pad = (self.in_dim + self.out_dim) * EPS * np.trace(gram)
        (a, b), (c, d) = _ratio(max(np.linalg.eigvalsh(gram)[-1], 0.0)), _ratio(pad)
        return _ceil_sqrt(a * d + c * b, b * d)

    def gram_spectrum(self):
        # one eigh, on the first call; construction factors nothing
        if self._spectrum is None:
            basis = Eigenbasis(self)
            self._spectrum = GramSpectrum(basis, (self.in_dim,), basis.eigenvalues)
        return self._spectrum


class MaskOperator(LinearOperator):
    """Diagonal 0/1 operator; its own adjoint and idempotent."""

    kind = "mask"
    diagonal_gram = True

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

    def _norm_bound(self):
        return float(self.pattern.any())

    def gram_symbol(self):
        # mask <= Id
        return float(self.pattern.any())

    def gram_spectrum(self):
        return GramSpectrum(IDENTITY_BASIS, (self.in_dim,), self.pattern.astype(float))


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

    # Both kernels work on the flat row-major vectors, in place into the
    # arrays they return: at 256^2 a temporary per difference cost more than
    # the arithmetic.  A flat horizontal difference also spans each pair of
    # adjacent rows (x[r+1, 0] - x[r, c-1]); those wrap entries, the first
    # or last column (x[::c], x[c-1::c]), are then overwritten with the
    # boundary values, and so is the last row of the vertical differences.
    def _apply(self, x):
        n, c = self.rows * self.cols, self.cols
        out = np.empty(2 * n)
        dx, dy = out[:n], out[n:]
        np.subtract(x[1:], x[:-1], out=dx[:-1])
        np.subtract(x[c:], x[:-c], out=dy[:-c])
        if self.boundary == NEUMANN:
            dx[c - 1::c] = 0.0
            dy[-c:] = 0.0
        else:
            np.subtract(x[::c], x[c - 1::c], out=dx[c - 1::c])
            np.subtract(x[:c], x[-c:], out=dy[-c:])
        return out

    def _adjoint(self, y):
        n, c = self.rows * self.cols, self.cols
        yx, yy = y[:n], y[n:]
        # each term in the order of the sums it replaces, so signed zeros
        # come out as they did: 0.0 + y, then - y, then ax + ay.  The buffers
        # are allocated 2-d and used through flat views: allocated 1-d, they
        # left the glibc heap of a 256^2 dr_split run 0.4 MiB higher.
        ax = np.empty((self.rows, c)).ravel()
        ay = np.empty((self.rows, c)).ravel()
        if self.boundary == NEUMANN:
            if c > 1:
                ax[0] = 0.0
                np.add(yx[:-1], 0.0, out=ax[1:])
                np.subtract(ax[:-1], yx[:-1], out=ax[:-1])
                np.subtract(0.0, yx[::c], out=ax[::c])
                np.add(yx[c - 2::c], 0.0, out=ax[c - 1::c])
            else:
                ax[:] = 0.0
            ay[:c] = 0.0
            np.add(yy[:-c], 0.0, out=ay[c:])
            np.subtract(ay[:-c], yy[:-c], out=ay[:-c])
        else:
            np.subtract(yx[:-1], yx[1:], out=ax[1:])
            np.subtract(yx[c - 1::c], yx[::c], out=ax[::c])
            np.subtract(yy[:-c], yy[c:], out=ay[c:])
            np.subtract(yy[-c:], yy[:c], out=ay[:c])
        # into ay: NumPy adds a one-element array in place into its first
        # operand with the operands swapped, which changes the NaN it returns
        return np.add(ax, ay, out=ay)

    def _norm_bound(self):
        # the largest eigenvalue of a path Laplacian (Neumann) is
        # 4 sin^2(pi k / 2n) at k = n - 1, of a cycle Laplacian (periodic)
        # 4 sin^2(pi k / n) at k = n // 2; evaluated in long double
        def top(n):
            k, period = (n - 1, 2 * n) if self.boundary == NEUMANN else (n // 2, n)
            return 4 * np.sin(4 * np.arctan(LONG(1)) * k / period) ** 2
        return _ceil_sqrt(*_ratio(top(self.rows) + top(self.cols)), 8 * LONG_EPS)

    def gram_symbol(self):
        # exact for periodic boundaries; for Neumann an upper bound, since a
        # path Laplacian is below the cycle Laplacian in the Loewner order
        return _cycle(self.rows)[:, None] + _cycle(self.cols)[None, :]

    def gram_spectrum(self):
        grid = (self.rows, self.cols)
        if self.boundary == PERIODIC:
            # the symbol on the rfftn half grid
            half = _cycle(self.cols)[: self.cols // 2 + 1]
            return GramSpectrum(DFT, grid, _cycle(self.rows)[:, None] + half[None, :])
        # path Laplacians, diagonal in the DCT-II (Strang 1999)
        def path(n):
            return 4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
        return GramSpectrum(DCT, grid, path(self.rows)[:, None] + path(self.cols)[None, :])


def _ratio(v) -> tuple[int, int]:
    """A finite float or long double as integers (p, q), q a power of two."""
    return LONG(v).as_integer_ratio()


def _ceil_sqrt(p: int, q: int, rel_error: float = 0.0) -> float:
    """sqrt(p/q) rounded to nearest, then raised ulp by ulp until
    r^2 >= (p/q) * (1 + rel_error), compared exactly in integers.

    The square p/q, q > 0, is evaluated with a relative error of at most
    ``rel_error``; the result is never below the true root, at most about
    one ulp above the tightest such float, and exact when the root is.
    """
    a, b = _ratio(rel_error)
    p, q = p * (b + a), q * b
    r = math.sqrt(p / q)
    rp, rq = r.as_integer_ratio()
    while rp * rp * q < p * rq * rq:
        r = math.nextafter(r, math.inf)
        rp, rq = r.as_integer_ratio()
    return r


def _symbol_error(symbol) -> float:
    # a symbol read off a float FFT errs by O(log2 N) eps relative
    return 4.0 * max(1.0, np.log2(np.size(symbol))) * EPS


def _cycle(n: int) -> np.ndarray:
    # eigenvalues of the cycle Laplacian on n points, in DFT order
    return 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)


class CircularConv(LinearOperator):
    """Circular convolution, 1-d or 2-d depending on ``shape``: the kernel,
    wrapped circularly onto the grid, filters through the real FFT."""

    kind = "circular_conv"

    def __init__(self, kernel, dim: int | None = None, shape: tuple[int, int] | None = None):
        k = np.asarray(kernel, dtype=float)
        if shape is not None:
            if k.ndim != 2 or len(shape) != 2:
                raise DimensionError("2-d convolution needs a 2-d kernel and a 2-d shape")
            grid = tuple(int(n) for n in shape)
        else:
            if k.ndim != 1:
                raise DimensionError("1-d convolution needs a 1-d kernel")
            if dim is None:
                raise DimensionError("1-d convolution needs the signal length")
            grid = (int(dim),)
        if k.size == 0:
            raise ValueError("convolution kernel is empty")
        if not np.all(np.isfinite(k)):
            raise ValueError("kernel entries must be finite")
        super().__init__(int(np.prod(grid)), int(np.prod(grid)))
        self.kernel = k
        self.shape = shape
        self.grid = grid
        self._axes = tuple(range(len(grid)))
        index = np.ix_(*(np.arange(m) % n for m, n in zip(k.shape, grid)))
        self._wrapped = np.zeros(grid)
        np.add.at(self._wrapped, index, k)
        self._transfer = np.fft.rfftn(self._wrapped, axes=self._axes)
        self._transfer_conj = self._transfer.conj()

    def _filter(self, x, transfer):
        # an explicit s spares rfftn from looking up the shape on every call
        spectrum = transfer * np.fft.rfftn(x.reshape(self.grid), s=self.grid, axes=self._axes)
        return np.fft.irfftn(spectrum, s=self.grid, axes=self._axes).ravel()

    def _apply(self, x):
        return self._filter(x, self._transfer)

    def _adjoint(self, y):
        return self._filter(y, self._transfer_conj)

    def gram_symbol(self):
        # |DFT|^2 of the wrapped kernel on the full grid
        return np.abs(np.fft.fftn(self._wrapped)) ** 2

    def gram_spectrum(self):
        return GramSpectrum(DFT, self.grid, np.abs(self._transfer) ** 2)


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
        self.diagonal_gram = all(op.diagonal_gram for op in ops)

    def _apply(self, x):
        return np.concatenate([op._apply(x) for op in self.ops])

    def _adjoint(self, y):
        out = np.zeros(self.in_dim)
        for op, a, b in zip(self.ops, self._offsets[:-1], self._offsets[1:]):
            out += op._adjoint(y[a:b])
        return out

    def _norm_bound(self):
        # the sum of the squared block norms; every denominator is a power
        # of two, so the largest squared is a multiple of each squared
        ratios = [_ratio(op.norm()) for op in self.ops]
        q = max(b for _, b in ratios) ** 2
        bound = _ceil_sqrt(sum(a * a * (q // (b * b)) for a, b in ratios), q)
        symbol = self.gram_symbol()
        if symbol is not None:
            bound = min(bound, _ceil_sqrt(*_ratio(np.max(symbol)), _symbol_error(symbol)))
        return bound

    def gram_symbol(self):
        # sum of the block symbols when they all live on one grid
        symbols = [op.gram_symbol() for op in self.ops]
        if any(s is None for s in symbols) or len({np.shape(s) for s in symbols} - {()}) > 1:
            return None
        return sum(symbols)

    def gram_spectrum(self):
        return gram_spectrum_sum([(1.0, op) for op in self.ops])


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
        (a, b), (c, d) = _ratio(self.outer.norm()), _ratio(self.inner.norm())
        return _ceil_sqrt((a * c) ** 2, (b * d) ** 2)


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


_KINDS = {
    "identity": lambda p: IdentityOperator(p["dim"]),
    "scale": lambda p: ScaleOperator(p["factor"], p["dim"]),
    "dense_matrix": lambda p: DenseOperator(p["matrix"]),
    "mask": lambda p: MaskOperator(p["pattern"]),
    "grad2d": lambda p: Grad2D(p["rows"], p["cols"], p.get("boundary", NEUMANN)),
    "circular_conv": lambda p: CircularConv(
        p["kernel"], dim=p.get("dim"), shape=tuple(p["shape"]) if "shape" in p else None
    ),
}


def construct_operator(kind: str, params: dict) -> LinearOperator:
    """Build an operator from a kind name and a parameter payload."""
    try:
        factory = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown operator kind {kind!r}") from None
    return factory(params)

