"""Synthetic test data, image IO, and fixture bundles.

Gaussian noise comes from an explicit splitmix64 + Box-Muller stream so
fixtures are reproducible byte for byte from their seed, independent of any
library RNG version.
"""
from __future__ import annotations

import json
import os
import pathlib
import zlib

import numpy as np

from .linops import ImageGrid, read_csv_rows

_MASK64 = (1 << 64) - 1


class FixtureError(ValueError):
    """Malformed fixture bundle or image file."""


class GaussianStream:
    """Deterministic standard-normal stream: splitmix64 uniforms fed through
    the Box-Muller transform."""

    def __init__(self, seed: int):
        self._state = (int(seed) * 0x9E3779B97F4A7C15 + 0x1234567) & _MASK64
        self._spare = None

    def _next_uint(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def _next_uniform(self) -> float:
        # uniform in (0, 1], safe for the log below
        return ((self._next_uint() >> 11) + 1) * (1.0 / 9007199254740992.0)

    def normal(self) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        u1 = self._next_uniform()
        u2 = self._next_uniform()
        r = np.sqrt(-2.0 * np.log(u1))
        self._spare = r * np.sin(2.0 * np.pi * u2)
        return r * np.cos(2.0 * np.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)])

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self._next_uniform() for _ in range(n)])


SYNTHETIC_KINDS = ("step_image", "ramp", "sparse_vector", "blur_kernel", "mask_pattern")


def generate_synthetic(kind: str, dims, sigma: float = 0.0, seed: int = 0) -> dict:
    """Deterministic synthetic data: ground truth, operator parameters when
    applicable, and the noisy observation y = A x + sigma * noise."""
    stream = GaussianStream(seed)
    if kind == "step_image":
        rows, cols = _as_dims(dims)
        img = np.full((rows, cols), 0.2)
        img[:, cols // 2:] = 0.8
        x_true = img.ravel()
        y = x_true + sigma * stream.normals(x_true.size)
        return {"kind": kind, "rows": rows, "cols": cols, "x_true": x_true,
                "y": y, "sigma": sigma, "seed": seed}
    if kind == "ramp":
        rows, cols = _as_dims(dims)
        col = np.linspace(0.0, 1.0, cols)
        x_true = np.tile(col, rows)
        y = x_true + sigma * stream.normals(x_true.size)
        return {"kind": kind, "rows": rows, "cols": cols, "x_true": x_true,
                "y": y, "sigma": sigma, "seed": seed}
    if kind == "sparse_vector":
        if isinstance(dims, (tuple, list)) and len(dims) == 2:
            m, n = int(dims[0]), int(dims[1])
        else:
            m = n = int(dims if np.isscalar(dims) else dims[0])
        density = 0.1
        k = int(round(density * n))
        x_true = np.zeros(n)
        order = np.argsort(stream.uniforms(n))
        support = order[:k]
        signs = np.where(stream.uniforms(k) < 0.5, -1.0, 1.0)
        x_true[support] = signs * (0.5 + stream.uniforms(k))
        if m == n:
            A = np.eye(n)
        else:
            A = stream.normals(m * n).reshape(m, n) / np.sqrt(m)
        y = A @ x_true + sigma * stream.normals(m)
        return {"kind": kind, "m": m, "n": n, "x_true": x_true, "A": A,
                "y": y, "sigma": sigma, "seed": seed, "nnz": k}
    if kind == "blur_kernel":
        width = int(dims if np.isscalar(dims) else dims[0])
        if width < 1 or width % 2 == 0:
            raise FixtureError("blur kernel width must be odd and positive")
        half = width // 2
        t = np.arange(-half, half + 1, dtype=float)
        k = np.exp(-0.5 * (t / max(half, 1)) ** 2)
        k /= k.sum()
        return {"kind": kind, "kernel": k, "seed": seed}
    if kind == "mask_pattern":
        n = int(np.prod(_as_dims(dims))) if isinstance(dims, (tuple, list)) else int(dims)
        keep = max(1, n // 2)
        order = np.argsort(stream.uniforms(n))
        pattern = np.zeros(n, dtype=bool)
        pattern[order[:keep]] = True
        return {"kind": kind, "pattern": pattern, "n": n, "seed": seed, "kept": keep}
    raise FixtureError(f"unknown synthetic kind {kind!r}")


def _as_dims(dims):
    if np.isscalar(dims):
        return int(dims), int(dims)
    if len(dims) == 1:
        return int(dims[0]), int(dims[0])
    return int(dims[0]), int(dims[1])


# ---------------------------------------------------------------------------
# image IO: binary PGM (P5, maxval 255, scaled to [0,1]) and CSV grids
# ---------------------------------------------------------------------------

def read_pgm(path) -> ImageGrid:
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(raw):
            raise FixtureError(f"truncated PGM header in {path}")
        ch = raw[i:i + 1]
        if ch == b"#":
            while i < len(raw) and raw[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j:j + 1].isspace():
                j += 1
            tokens.append(raw[i:j])
            i = j
    if tokens[0] != b"P5":
        raise FixtureError(f"not a binary PGM file: {path}")
    cols, rows, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise FixtureError(f"only maxval 255 is supported, got {maxval}")
    i += 1  # single whitespace after maxval
    pixels = raw[i:i + rows * cols]
    if len(pixels) != rows * cols:
        raise FixtureError(f"truncated PGM payload in {path}")
    arr = np.frombuffer(pixels, dtype=np.uint8).astype(float) / 255.0
    return ImageGrid(rows, cols, arr)


def write_csv_rows(path, rows) -> None:
    """Write a 2-d array one row per line, or a 1-d array one entry per line,
    in shortest round-trip decimals."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_grid(path) -> ImageGrid:
    rows = read_csv_rows(path, FixtureError)
    return ImageGrid(rows.shape[0], rows.shape[1], rows.ravel())


def read_image(path) -> ImageGrid:
    """Read an image: binary PGM when the suffix is .pgm in any letter case,
    CSV otherwise."""
    path = pathlib.Path(path)
    return read_pgm(path) if path.suffix.lower() == ".pgm" else read_csv_grid(path)


# ---------------------------------------------------------------------------
# fixture bundles: a directory with manifest.json plus CSV payloads, each with
# a checked binary cache
# ---------------------------------------------------------------------------

def _file_check(path) -> dict:
    """Byte size and CRC-32 of a file, read in 1 MiB chunks."""
    size, crc = 0, 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            size, crc = size + len(chunk), zlib.crc32(chunk, crc)
    return {"bytes": size, "crc32": crc}


def write_fixture(out_dir, data: dict, expected: dict | None = None) -> pathlib.Path:
    """Persist a synthetic-data dict as a fixture bundle.

    The manifest stores scalars; each array payload goes to ``<key>.csv`` next
    to it, and to a binary cache ``<key>.npy`` holding the array that reading
    the CSV back returns.  The manifest's ``cache`` record holds the byte size
    and CRC-32 of both files.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"kind": data["kind"], "seed": data.get("seed", 0),
                "sigma": data.get("sigma", 0.0), "files": {}, "cache": {}}
    for key in ("rows", "cols", "m", "n", "nnz", "kept"):
        if key in data:
            manifest[key] = int(data[key])
    if "lambda" in data:
        manifest["lambda"] = float(data["lambda"])
    for key in ("x_true", "y", "kernel", "pattern", "A"):
        if key in data:
            rows = np.asarray(data[key], dtype=float)
            if rows.ndim == 1:
                rows = rows[:, None]
            csv, npy = f"{key}.csv", f"{key}.npy"
            write_csv_rows(out / csv, rows)
            np.save(out / npy, rows, allow_pickle=False)
            manifest["files"][key] = csv
            manifest["cache"][csv] = _file_check(out / csv)
            manifest["cache"][npy] = _file_check(out / npy)
    if expected:
        manifest["expected"] = expected
    with open(out / "manifest.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _read_payload(csv: pathlib.Path, npy: pathlib.Path, cache: dict) -> np.ndarray:
    """A payload as ``read_csv_rows`` returns it, from its ``.npy`` cache when
    both files still match the manifest's ``cache`` record.

    The CSV is the source of truth: an edited CSV, a missing, changed or
    unreadable ``.npy`` or a bundle without a record means the CSV is parsed.
    CRC-32 guards against a stale cache by accident, not against tampering:
    whoever can edit the CSV can edit the manifest and the ``.npy`` too.
    """
    try:
        if (npy.name in cache and cache.get(csv.name) == _file_check(csv)
                and cache[npy.name] == _file_check(npy)):
            return np.load(npy, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        pass
    return read_csv_rows(csv, FixtureError)


def load_fixture(bundle_dir) -> dict:
    bundle = pathlib.Path(bundle_dir)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        raise FixtureError(f"no manifest.json in {bundle}")
    with open(manifest_path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    data = dict(manifest)
    files = data.pop("files", {})
    cache = data.pop("cache", {})
    for key, fname in files.items():
        path = bundle / fname
        if not path.exists():
            raise FixtureError(f"bundle {bundle} is missing payload {fname}")
        rows = _read_payload(path, bundle / f"{key}.npy", cache)
        if key != "A":
            # every other payload is a vector, one entry per line
            if rows.shape[1] != 1:
                raise FixtureError(f"vector file {path} has {rows.shape[1]} columns, not one")
            rows = rows[:, 0].astype(bool) if key == "pattern" else rows[:, 0]
        data[key] = rows
    return data


def fixture_root() -> pathlib.Path:
    """Fixture base directory, overridable through PROXSPLIT_FIXTURES."""
    return pathlib.Path(os.environ.get("PROXSPLIT_FIXTURES", "."))
