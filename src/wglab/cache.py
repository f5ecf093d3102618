"""On-disk cache for expensive window artifacts.

Layout of a cache file:

    bytes 0..4    magic b"WGLAB"
    bytes 5..6    format version, uint16 little-endian
    bytes 7..10   header length H, uint32 little-endian
    bytes 11..    header JSON (UTF-8, sorted keys): kind, key, array manifest
    then          raw array payloads in manifest order, C-contiguous,
                  little-endian dtypes

Files are named {kind}-{sha256(key)[:20]}.wgc inside the cache directory
and written atomically (temp file + rename), so concurrent writers of the
same artifact race benignly: whichever rename lands last wins and every
reader sees a complete file.  The key is stored verbatim in the header
and compared on load; a hash collision therefore degrades to a miss, not
to wrong data.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import CacheMiss, CacheVersionMismatch, ParameterDomain

MAGIC = b"WGLAB"
VERSION = 1

_ALLOWED_DTYPES = {"<i8", "<f8", "<c16", "|b1"}


def _canonical_key(key: dict) -> str:
    def norm(v):
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating,)):
            return float(v)
        if isinstance(v, dict):
            return {str(k): norm(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [norm(x) for x in v]
        return v

    return json.dumps(norm(key), sort_keys=True, separators=(",", ":"))


def cache_path(cache_dir: str | Path, kind: str, key: dict) -> Path:
    if not kind or any(c in kind for c in "/\\. "):
        raise ParameterDomain(f"bad cache kind {kind!r}")
    digest = hashlib.sha256(_canonical_key(key).encode()).hexdigest()[:20]
    return Path(cache_dir) / f"{kind}-{digest}.wgc"


def store(cache_dir: str | Path, kind: str, key: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write named arrays under (kind, key); returns the file path."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        dt = arr.dtype.newbyteorder("<")
        if dt.str not in _ALLOWED_DTYPES:
            raise ParameterDomain(f"unsupported dtype {arr.dtype} for array {name!r}")
        arr = arr.astype(dt, copy=False)
        manifest.append({"dtype": dt.str, "name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"arrays": manifest, "key": json.loads(_canonical_key(key)), "kind": kind},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    path = cache_path(cache_dir, kind, key)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(VERSION.to_bytes(2, "little"))
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load(cache_dir: str | Path, kind: str, key: dict) -> dict[str, np.ndarray]:
    """Read the arrays stored under (kind, key).

    Raises cache-miss when absent (or when the stored key disagrees,
    which only happens on a hash collision) and cache-version when the
    file comes from a different format version or is truncated or
    garbled.
    """
    path = cache_path(cache_dir, kind, key)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CacheMiss(f"no cache entry for kind={kind!r}") from None
    if len(raw) < 11 or raw[:5] != MAGIC:
        raise CacheVersionMismatch(f"{path.name}: bad magic")
    version = int.from_bytes(raw[5:7], "little")
    if version != VERSION:
        raise CacheVersionMismatch(
            f"{path.name}: format version {version}, expected {VERSION}"
        )
    hlen = int.from_bytes(raw[7:11], "little")
    try:
        header, layout = _parse_header(raw, hlen)
    except ValueError as exc:
        raise CacheVersionMismatch(f"{path.name}: {exc}") from None
    if json.dumps(header["key"], sort_keys=True, separators=(",", ":")) != _canonical_key(key):
        raise CacheMiss(f"{path.name}: key mismatch (hash collision)")
    out: dict[str, np.ndarray] = {}
    offset = 11 + hlen
    for name, dt, shape, count in layout:
        arr = np.frombuffer(raw, dtype=dt, count=count, offset=offset).reshape(shape)
        out[name] = arr.copy()
        offset += dt.itemsize * count
    return out


def _parse_header(raw: bytes, hlen: int) -> tuple[dict, list[tuple[str, np.dtype, list, int]]]:
    """The header object and its array layout (name, dtype, shape, count).

    Raises ValueError unless the header fits the file, is the expected JSON
    object, names only allowed dtypes, and its payloads fill the rest of
    the file exactly.
    """
    if 11 + hlen > len(raw):
        raise ValueError(f"header length {hlen} exceeds the file")
    header = json.loads(raw[11 : 11 + hlen].decode())
    if not (
        isinstance(header, dict)
        and set(header) == {"arrays", "key", "kind"}
        and isinstance(header["arrays"], list)
    ):
        raise ValueError("header is not a cache manifest")
    layout = []
    for entry in header["arrays"]:
        if not isinstance(entry, dict) or set(entry) != {"dtype", "name", "shape"}:
            raise ValueError("malformed array entry")
        dtype, name, shape = entry["dtype"], entry["name"], entry["shape"]
        if not isinstance(dtype, str) or dtype not in _ALLOWED_DTYPES:
            raise ValueError(f"dtype {dtype!r} not allowed")
        if not (
            isinstance(name, str)
            and isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)
        ):
            raise ValueError(f"malformed array entry {name!r}")
        layout.append((name, np.dtype(dtype), shape, math.prod(shape)))
    payload = sum(dt.itemsize * count for _, dt, _, count in layout)
    if 11 + hlen + payload != len(raw):
        raise ValueError(
            f"payload is {len(raw) - 11 - hlen} bytes, manifest needs {payload}"
        )
    return header, layout
