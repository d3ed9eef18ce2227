"""Synthetic test data, image IO, and fixture bundles.

Gaussian noise comes from an explicit splitmix64 + Box-Muller stream so
fixtures are reproducible byte for byte from their seed, independent of any
library RNG version.  It is the package's one random number generator: the
certification engine and the orthogonality probe of ``OrthogonalComposition``
draw from it too, so no part of proxsplit loads NumPy's random module.
"""
from __future__ import annotations

import json
import os
import pathlib
import zlib

import numpy as np

from .linops import DenseOperator, gram_eigh

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # the splitmix64 increment


class FixtureError(ValueError):
    """Malformed fixture bundle or image file."""


class GaussianStream:
    """Deterministic standard-normal stream: splitmix64 uniforms fed through
    the Box-Muller transform, a block at a time.

    The splitmix64 state is a Python int; a block of n draws hashes the next
    n states as ``uint64`` arrays, whose arithmetic wraps modulo 2**64.  Each
    uniform pair (u1, u2) gives the normals r cos(2 pi u2) and r sin(2 pi u2)
    with r = sqrt(-2 log u1), in that order; when a call asks for an odd
    count, the sine is kept for the next call to ``normals``.
    """

    def __init__(self, seed: int):
        self._state = (int(seed) * _GOLDEN + 0x1234567) & _MASK64
        self._spare = None

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms, in (0, 1] so that their log is finite."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        z += np.uint64(1)
        return z.astype(float) * (1.0 / 9007199254740992.0)

    def normals(self, n: int) -> np.ndarray:
        out = np.empty(n)
        head = 0
        if n and self._spare is not None:
            out[0], self._spare, head = self._spare, None, 1
        pairs = (n - head + 1) // 2
        # contiguous u1 and u2, so that log, cos and sin take the same SIMD
        # loops as one draw at a time did
        u1, u2 = self.uniforms(2 * pairs).reshape(pairs, 2).T.copy()
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty((pairs, 2))
        np.multiply(r, np.cos(theta), out=z[:, 0])
        np.multiply(r, np.sin(theta), out=z[:, 1])
        z = z.ravel()
        if (n - head) % 2:
            self._spare = z[-1]
        out[head:] = z[:n - head]
        return out


SYNTHETIC_KINDS = ("step_image", "ramp", "sparse_vector", "blur_kernel", "mask_pattern")


def generate_synthetic(kind: str, dims, sigma: float = 0.0, seed: int = 0) -> dict:
    """Deterministic synthetic data: ground truth, operator parameters when
    applicable, and the noisy observation y = A x + sigma * noise.

    ``dims`` is one or two positive integers, one standing for both sides;
    anything else is a :class:`FixtureError`."""
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
        m, n = _as_dims(dims)
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
        width = _as_dims(dims)[0]
        if width % 2 == 0:
            raise FixtureError("blur kernel width must be odd")
        half = width // 2
        t = np.arange(-half, half + 1, dtype=float)
        k = np.exp(-0.5 * (t / max(half, 1)) ** 2)
        k /= k.sum()
        return {"kind": kind, "kernel": k, "seed": seed}
    if kind == "mask_pattern":
        rows, cols = _as_dims(dims)
        n = rows * cols if isinstance(dims, (tuple, list)) else rows
        keep = max(1, n // 2)
        order = np.argsort(stream.uniforms(n))
        pattern = np.zeros(n, dtype=bool)
        pattern[order[:keep]] = True
        return {"kind": kind, "pattern": pattern, "n": n, "seed": seed, "kept": keep}
    raise FixtureError(f"unknown synthetic kind {kind!r}")


def _as_dims(dims):
    # one or two positive integers as two sides, one side standing for both
    sides = list(dims) if isinstance(dims, (tuple, list)) else [dims]
    if not (1 <= len(sides) <= 2 and all(
            isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s > 0
            for s in sides)):
        raise FixtureError(f"dims must be one or two positive integers, got {dims!r}")
    return int(sides[0]), int(sides[-1])


# ---------------------------------------------------------------------------
# image IO: binary PGM (P5, maxval 255, scaled to [0,1]) and CSV grids
# ---------------------------------------------------------------------------

def read_pgm(path) -> np.ndarray:
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
    return arr.reshape(rows, cols)


def read_csv_rows(path) -> np.ndarray:
    """Read a comma-separated file, one row per line, as a 2-d float array.

    Blank lines are skipped; an empty file, rows of different widths or a
    token that is not a number raise :class:`FixtureError` naming the file.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise FixtureError(f"empty CSV file: {path}")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise FixtureError(f"malformed CSV file {path}: {exc}") from None


def write_csv_rows(path, rows) -> None:
    """Write a 2-d array one row per line, or a 1-d array one entry per line,
    in shortest round-trip decimals."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    lines = [",".join(repr(float(v)) for v in row) for row in rows]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_image(path) -> np.ndarray:
    """Read an image as a 2-d array: binary PGM when the suffix is .pgm in any
    letter case, CSV otherwise."""
    path = pathlib.Path(path)
    return read_pgm(path) if path.suffix.lower() == ".pgm" else read_csv_rows(path)


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


def write_json(path, payload) -> None:
    """Write ``payload`` as ASCII JSON with sorted keys, indented by two."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# the stored np.linalg.eigh output (eigenvalues, eigenvectors) for the Gram
# matrix of a bundle's A
GRAM_FILES = ("A_gram_values.npy", "A_gram_vectors.npy")


def write_fixture(out_dir, data: dict, expected: dict | None = None) -> pathlib.Path:
    """Persist a synthetic-data dict as a fixture bundle.

    The manifest stores scalars; each array payload goes to ``<key>.csv`` next
    to it, and to a binary cache ``<key>.npy`` holding the array that reading
    the CSV back returns.  A matrix ``A`` also gets its spectral factors,
    computed from that array by the code a solve would run: its norm bound
    ``DenseOperator(A).norm()`` as the manifest's ``A_norm``, and
    :func:`~proxsplit.linops.gram_eigh` as the two ``GRAM_FILES``.  The
    manifest's ``cache`` record holds the byte size and CRC-32 of every
    ``.csv`` and ``.npy`` file.
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
    if "A" in data:
        A = np.load(out / "A.npy", allow_pickle=False)
        manifest["A_norm"] = DenseOperator(A).norm()
        for name, array in zip(GRAM_FILES, gram_eigh(A)):
            np.save(out / name, array, allow_pickle=False)
            manifest["cache"][name] = _file_check(out / name)
    if expected:
        manifest["expected"] = expected
    write_json(out / "manifest.json", manifest)
    return out


def _read_payload(csv: pathlib.Path, npy: pathlib.Path, cache: dict) -> tuple[np.ndarray, bool]:
    """A payload as ``read_csv_rows`` returns it, and whether it came from
    its ``.npy`` cache, which it does when both files still match the
    manifest's ``cache`` record.

    The CSV is the source of truth: an edited CSV, a missing, changed or
    unreadable ``.npy`` or a bundle without a record means the CSV is parsed.
    CRC-32 guards against a stale cache by accident, not against tampering:
    whoever can edit the CSV can edit the manifest and the ``.npy`` too.
    """
    try:
        if (npy.name in cache and cache.get(csv.name) == _file_check(csv)
                and cache[npy.name] == _file_check(npy)):
            return np.load(npy, allow_pickle=False), True
    except (OSError, ValueError, EOFError):
        pass
    return read_csv_rows(csv), False


def _gram_factors(bundle: pathlib.Path, cache: dict, norm):
    # (norm, loader) while the manifest holds A's norm and both GRAM_FILES
    # match their records, else None; the loader reads the files when called
    paths = [bundle / name for name in GRAM_FILES]
    try:
        if not (isinstance(norm, float)
                and all(cache.get(path.name) == _file_check(path) for path in paths)):
            return None
    except OSError:
        return None

    def load():
        try:
            return tuple(np.load(path, allow_pickle=False) for path in paths)
        except (OSError, ValueError, EOFError):
            return None
    return norm, load


def load_fixture(bundle_dir) -> dict:
    """Read a bundle back: the manifest's scalars, and each payload as its
    CSV reads, from the ``.npy`` cache where that is checked (see
    :func:`_read_payload`).

    A matrix ``A`` comes with ``A_factors``: when ``A`` was read from its
    cache, the manifest holds ``A_norm`` and both ``GRAM_FILES`` match their
    records, the pair (norm bound, loader) for ``DenseOperator``'s
    ``cached_norm`` and ``stored_eigh``; otherwise None, and a solve
    computes both.  The loader reads the files only when called, so a
    solve that needs no Gram eigenbasis never loads them.
    """
    bundle = pathlib.Path(bundle_dir)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.exists():
        raise FixtureError(f"no manifest.json in {bundle}")
    with open(manifest_path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    data = dict(manifest)
    files = data.pop("files", {})
    cache = data.pop("cache", {})
    norm = data.pop("A_norm", None)
    for key, fname in files.items():
        path = bundle / fname
        if not path.exists():
            raise FixtureError(f"bundle {bundle} is missing payload {fname}")
        rows, cached = _read_payload(path, bundle / f"{key}.npy", cache)
        if key == "A":
            data["A_factors"] = _gram_factors(bundle, cache, norm) if cached else None
        else:
            # every other payload is a vector, one entry per line
            if rows.shape[1] != 1:
                raise FixtureError(f"vector file {path} has {rows.shape[1]} columns, not one")
            rows = rows[:, 0].astype(bool) if key == "pattern" else rows[:, 0]
        data[key] = rows
    return data


def fixture_root() -> pathlib.Path:
    """Fixture base directory, overridable through PROXSPLIT_FIXTURES."""
    return pathlib.Path(os.environ.get("PROXSPLIT_FIXTURES", "."))
