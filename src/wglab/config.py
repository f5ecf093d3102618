"""Run configuration and deterministic serialization.

A run is captured by a flat key = value text file so an experiment can be
re-launched from a single artifact.  Parsing is strict: unknown or
duplicated keys are rejected rather than ignored.

`canonical_json` renders report payloads with sorted keys and every float
printed to 12 significant digits, which keeps golden files and rerun
comparisons byte-stable across platforms as long as summation orders are
fixed (they are, throughout the package).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import ProblemContext
from .errors import ParameterDomain

_INT_FIELDS = ("k", "s", "Q0", "grid_size", "batch_size", "threads")
_FLOAT_FIELDS = {"theta", "N", "x", "A"}


@dataclass
class RunConfig:
    """All knobs of a run.  N and x are alternatives: set at most one."""

    k: int = 2
    s: int = 5
    theta: float = 0.8
    N: Optional[float] = None
    x: Optional[float] = 400.0
    A: float = 1.0
    Q0: int = 400
    grid_size: int = 1000
    batch_size: int = 4096
    cache_dir: Optional[str] = None
    output: str = "json"
    threads: int = 1

    def __post_init__(self):
        if self.output not in ("json", "csv"):
            raise ParameterDomain(f"output must be json or csv, got {self.output!r}")
        for name in _INT_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ParameterDomain(f"{name} must be a positive integer, got {v!r}")

    def context(self) -> ProblemContext:
        # N takes precedence when both are set; the parse and flag-merge
        # layers reject genuinely conflicting assignments before this.
        if self.N is not None:
            return ProblemContext.from_scale(self.k, self.s, self.theta, self.N)
        if self.x is not None:
            y = float(self.x) ** self.theta
            return ProblemContext.from_parts(self.k, self.s, float(self.x), y)
        raise ParameterDomain("need N or x to build a problem context")


_FIELD_ORDER = [f.name for f in dataclasses.fields(RunConfig)]


def parse_config(text: str) -> RunConfig:
    """Parse the flat key = value format.  Strict on keys and duplicates."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterDomain(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_ORDER:
            raise ParameterDomain(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParameterDomain(f"config line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val, lineno)
    if "N" in values and "x" in values:
        raise ParameterDomain("config sets both N and x; choose one")
    if "N" in values and "x" not in values:
        values["x"] = None  # an explicit N displaces the default x
    return RunConfig(**values)


def _parse_value(key: str, val: str, lineno: int):
    try:
        if key in _INT_FIELDS:
            return int(val)
        if key in _FLOAT_FIELDS:
            return float(val)
    except ValueError:
        raise ParameterDomain(f"config line {lineno}: bad value {val!r} for {key}") from None
    return val


def render_config(cfg: RunConfig) -> str:
    """Inverse of parse_config: parse(render(cfg)) == cfg."""
    lines = []
    for name in _FIELD_ORDER:
        v = getattr(cfg, name)
        if v is None:
            continue
        if isinstance(v, float):
            lines.append(f"{name} = {v!r}")
        else:
            lines.append(f"{name} = {v}")
    return "\n".join(lines) + "\n"


def format_float(v: float) -> str:
    """12-significant-digit rendering used in all textual output; nan,
    inf and -inf print as such."""
    return f"{v:.12g}"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, floats at 12
    significant digits.

    Non-finite floats are rendered as the strings "inf", "-inf", "nan"
    (JSON has no literal for them).  numpy scalars and arrays are
    accepted; dataclasses are serialized by field.
    """
    return _render(obj, 0) + "\n"


def _render(obj, level: int) -> str:
    pad = "  " * (level + 1)
    close = "  " * level
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return json.dumps(format_float(obj))
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            items.append(f"{pad}{json.dumps(str(key))}: {_render(obj[key], level + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{close}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}{_render(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{close}]"
    if isinstance(obj, complex):
        return _render({"re": obj.real, "im": obj.imag}, level)
    raise ParameterDomain(f"cannot serialize {type(obj).__name__} to canonical JSON")
