"""On-disk cache for the columns of an exceptional-set scan.

One entry of kind `scan` holds the arrays n, rho, tuple_count, sigma and
jay of one scan window.  Its key (`experiment._scan_key`) names the
scan's inputs, and every entry records `_code`, the sha256 of the
package's modules.  An entry written by other code is refused and
recomputed, so a cache never serves what an older algorithm computed
(any edit, a docstring included, costs one recompute).  The reader also
checks that the stored n equals the targets before serving the columns.  A key holds plain JSON values (no numpy
scalars, which raise TypeError); its text is `json.dumps`, keys sorted.

A cache file is an uncompressed numpy archive (`np.savez`): one `.npy`
member per named array, plus a `__meta__` member holding the canonical
JSON object {"key": ..., "kind": ..., "code": ...} as a unicode array.
`np.load(..., allow_pickle=False)` checks every member's header, dtype,
shape and size, and the zip layer checks each member's CRC-32, so a
truncated, garbled or foreign file fails to load instead of serving
wrong numbers; every such failure is reported as cache-version.

Files are named {kind}-{sha256(key)[:20]}.wgc inside the cache directory
and written atomically (temp file + rename), so concurrent writers of the
same entry race benignly: whichever rename lands last wins and every
reader sees a complete file.  The key is stored verbatim in `__meta__`
and compared on load; a hash collision therefore degrades to a miss, not
to wrong data.  Archive members carry the zip format's fixed default
timestamp, so storing the same arrays twice writes the same bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path

import numpy as np

from .errors import CacheMiss, CacheVersionMismatch, ParameterDomain

_META = "__meta__"


@functools.cache
def _code() -> str:
    """sha256 of the package's modules, file by file in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


_code()  # at import, so the digest names the code this process loaded


def _canonical_key(key: dict) -> str:
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def _meta(kind: str, key: dict) -> dict:
    return {"key": json.loads(_canonical_key(key)), "kind": kind, "code": _code()}


def cache_path(cache_dir: str | Path, kind: str, key: dict) -> Path:
    if not kind or any(c in kind for c in "/\\. "):
        raise ParameterDomain(f"bad cache kind {kind!r}")
    digest = hashlib.sha256(_canonical_key(key).encode()).hexdigest()[:20]
    return Path(cache_dir) / f"{kind}-{digest}.wgc"


def store(cache_dir: str | Path, kind: str, key: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Write named arrays under (kind, key); returns the file path."""
    members = {}
    for name in sorted(arrays):
        if name == _META:
            raise ParameterDomain(f"array name {_META!r} is reserved")
        arr = np.asarray(arrays[name])
        if arr.dtype.hasobject:
            raise ParameterDomain(f"unsupported dtype {arr.dtype} for array {name!r}")
        members[name] = arr
    members[_META] = np.array(_canonical_key(_meta(kind, key)))
    path = cache_path(cache_dir, kind, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **members)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load(cache_dir: str | Path, kind: str, key: dict) -> dict[str, np.ndarray]:
    """Read the arrays stored under (kind, key).

    Raises cache-miss when absent (or when the stored key disagrees,
    which only happens on a hash collision) and cache-version when the
    file was written by other code or cannot be read back intact:
    truncated, garbled, empty, or not a numpy archive.
    """
    path = cache_path(cache_dir, kind, key)
    if not path.exists():
        raise CacheMiss(f"no cache entry for kind={kind!r}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            out = {name: archive[name] for name in archive.files}
        meta = json.loads(str(out.pop(_META)))
        if not isinstance(meta, dict) or set(meta) != {"key", "kind", "code"}:
            raise ValueError("__meta__ is not a cache manifest")
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise CacheVersionMismatch(f"{path.name}: unreadable cache file ({exc})") from None
    if meta["code"] != _code():
        raise CacheVersionMismatch(f"{path.name}: written by other code")
    if meta != _meta(kind, key):
        raise CacheMiss(f"{path.name}: key mismatch (hash collision)")
    return out
