"""Reference objectives computed by the benchmark itself, in plain NumPy.

They share no code with proxsplit, so a defect in the program cannot move
both the solve and the value it is checked against.  The TV problems use
Neumann forward differences, the convention of ``proxsplit.Grad2D``.
"""
from __future__ import annotations

import numpy as np


def _grad(img):
    dx = np.zeros_like(img)
    dy = np.zeros_like(img)
    dx[:, :-1] = img[:, 1:] - img[:, :-1]
    dy[:-1, :] = img[1:, :] - img[:-1, :]
    return dx, dy


def _grad_adjoint(px, py):
    out = np.zeros_like(px)
    out[:, 1:] += px[:, :-1]
    out[:, :-1] -= px[:, :-1]
    out[1:, :] += py[:-1, :]
    out[:-1, :] -= py[:-1, :]
    return out


def _tv(img) -> float:
    dx, dy = _grad(img)
    return float(np.abs(dx).sum() + np.abs(dy).sum())


def tv_denoise(y, lam: float, rel_gap: float = 1e-6, max_iter: int = 20_000) -> dict:
    """min 0.5||x - y||^2 + lam ||grad x||_1 by FISTA on the dual.

    The dual is min over |p| <= lam of 0.5||y - grad* p||^2 with
    x = y - grad* p, and ||grad||^2 <= 8 gives the step.  Iteration stops
    once the duality gap certifies the primal value to ``rel_gap``; the
    primal value is an upper bound and the dual value a lower bound on the
    optimum.
    """
    y = np.asarray(y, dtype=float)
    step = 1.0 / 8.0
    px = np.zeros_like(y)
    py = np.zeros_like(y)
    qx, qy, t = px, py, 1.0
    primal = dual = np.nan
    k = 0
    while k < max_iter:
        k += 1
        gx, gy = _grad(y - _grad_adjoint(qx, qy))
        nx = np.clip(qx + step * gx, -lam, lam)
        ny = np.clip(qy + step * gy, -lam, lam)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_next
        qx, qy = nx + beta * (nx - px), ny + beta * (ny - py)
        px, py, t = nx, ny, t_next
        if k % 100 == 0 or k == max_iter:
            x = y - _grad_adjoint(px, py)
            primal = 0.5 * float(np.sum((x - y) ** 2)) + lam * _tv(x)
            dual = 0.5 * float(np.sum(y * y) - np.sum(x * x))
            if primal - dual <= rel_gap * abs(primal):
                break
    return {"objective": primal, "lower_bound": dual, "iterations": k,
            "method": "FISTA on the TV dual, stopped by the duality gap "
                      f"(relative gap {(primal - dual) / abs(primal):.2e})"}


def tv_deblur(image, kernel, lam: float, iters: int = 8000) -> dict:
    """min 0.5||k * x - y||^2 + lam ||grad x||_1 for y = k * image.

    ``*`` is circular convolution with the kernel anchored at pixel (0, 0),
    the convention of ``proxsplit.CircularConv``.

    One long Chambolle-Pock run on K = [conv; grad] with the convolution done
    by FFT, ||conv|| <= sum|k| = 1 and ||grad||^2 <= 8, so ||K|| <= 3.  The
    step pair tau = 0.99/(3r), sigma = 0.99r/3 with r = 3 converged fastest
    on 64^2 trials.  ``drift`` is the relative change of the objective over
    the second half of the run.
    """
    image = np.asarray(image, dtype=float)
    rows, cols = image.shape
    pad = np.zeros((rows, cols))
    kh, kw = kernel.shape
    pad[:kh, :kw] = kernel
    spectrum = np.fft.rfft2(pad)

    def conv(x):
        return np.fft.irfft2(np.fft.rfft2(x) * spectrum, s=x.shape)

    def conv_adjoint(x):
        return np.fft.irfft2(np.fft.rfft2(x) * np.conj(spectrum), s=x.shape)

    y = conv(image)

    def objective(x):
        r = conv(x) - y
        return 0.5 * float(np.sum(r * r)) + lam * _tv(x)

    norm_bound, ratio = 3.0, 3.0
    tau = 0.99 / (norm_bound * ratio)
    sigma = 0.99 * ratio / norm_bound
    x = np.zeros_like(y)
    xbar = x.copy()
    u = np.zeros_like(y)
    px = np.zeros_like(y)
    py = np.zeros_like(y)
    half = None
    for k in range(1, iters + 1):
        # prox of the conjugate of 0.5||. - y||^2, then projection on |p| <= lam
        u = (u + sigma * (conv(xbar) - y)) / (1.0 + sigma)
        gx, gy = _grad(xbar)
        px = np.clip(px + sigma * gx, -lam, lam)
        py = np.clip(py + sigma * gy, -lam, lam)
        x_new = x - tau * (conv_adjoint(u) + _grad_adjoint(px, py))
        xbar = 2.0 * x_new - x
        x = x_new
        if k == iters // 2:
            half = objective(x)
    final = objective(x)
    return {"objective": final, "iterations": iters,
            "drift": abs(half - final) / abs(final),
            "method": f"Chambolle-Pock with FFT convolution, {iters} iterations"}


def lasso(A, y, lam: float, rel_gap: float = 1e-12, max_iter: int = 50_000) -> dict:
    """min 0.5||A x - y||^2 + lam ||x||_1 by FISTA with step 1/||A||^2.

    Stops once the duality gap certifies the primal value to ``rel_gap``;
    the dual point is the residual scaled into {u : ||A^T u||_inf <= lam}.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    step = 1.0 / np.linalg.norm(A, 2) ** 2
    x = np.zeros(A.shape[1])
    z, t = x, 1.0
    primal = dual = np.nan
    k = 0
    while k < max_iter:
        k += 1
        v = z - step * (A.T @ (A @ z - y))
        x_new = np.sign(v) * np.maximum(np.abs(v) - step * lam, 0.0)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = x_new + (t - 1.0) / t_next * (x_new - x)
        x, t = x_new, t_next
        if k % 50 == 0 or k == max_iter:
            r = y - A @ x
            primal = 0.5 * float(r @ r) + lam * float(np.abs(x).sum())
            u = r * min(1.0, lam / max(float(np.abs(A.T @ r).max()), 1e-300))
            dual = float(u @ y) - 0.5 * float(u @ u)
            if primal - dual <= rel_gap * abs(primal):
                break
    return {"objective": primal, "lower_bound": dual, "iterations": k,
            "method": "FISTA, stopped by the duality gap "
                      f"(relative gap {(primal - dual) / abs(primal):.2e})"}
