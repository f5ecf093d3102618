import dataclasses
import json
import math

import numpy as np
import pytest

from wglab.config import RunConfig, canonical_json, format_float, parse_config
from wglab.errors import ParameterDomain


class TestRunConfig:
    def test_default_context(self):
        ctx = RunConfig().context()
        assert (ctx.k, ctx.s) == (2, 5)
        assert ctx.x == 400.0
        assert ctx.y == pytest.approx(400.0 ** 0.8)

    def test_scale_precedence(self):
        # a set N wins over x when both are present on the object itself
        cfg = RunConfig(N=800_000.0, x=123.0)
        assert cfg.context().N == 800_000

    def test_neither_scale(self):
        with pytest.raises(ParameterDomain):
            RunConfig(N=None, x=None).context()

    def test_field_validation(self):
        with pytest.raises(ParameterDomain):
            RunConfig(output="yaml")
        with pytest.raises(ParameterDomain):
            RunConfig(k=0)
        with pytest.raises(ParameterDomain):
            RunConfig(threads=0)
        with pytest.raises(ParameterDomain):
            RunConfig(grid_size=-5)

    def test_every_annotation_is_parsed(self):
        # parse_config reads the int and float fields off these strings
        kinds = {f.type for f in dataclasses.fields(RunConfig)}
        assert kinds <= {"int", "float", "Optional[float]", "str", "Optional[str]"}


class TestParseRender:
    def test_every_field(self):
        # N and x are alternatives: the text sets N, which displaces x
        text = (
            "k = 3\ns = 7\ntheta = 0.75\nN = 216000\nA = 1.5\nQ0 = 250\n"
            "grid_size = 2000\nbatch_size = 1024\ncache_dir = runs/cache\n"
            "output = csv\nthreads = 2\n"
        )
        keys = {line.partition("=")[0].strip() for line in text.splitlines()}
        assert keys | {"x"} == {f.name for f in dataclasses.fields(RunConfig)}
        cfg = parse_config(text)
        assert cfg == RunConfig(
            k=3, s=7, theta=0.75, N=216000.0, x=None, A=1.5, Q0=250, grid_size=2000,
            batch_size=1024, cache_dir="runs/cache", output="csv", threads=2,
        )
        # each value is parsed to its field's annotated type
        for f in dataclasses.fields(RunConfig):
            v = getattr(cfg, f.name)
            assert v is None or type(v).__name__ == f.type.removeprefix("Optional[").rstrip("]")
        assert parse_config("x = 250\n") == RunConfig(x=250.0)

    def test_parse_basic(self):
        cfg = parse_config("k = 3\ns = 7\ntheta = 0.75\nQ0 = 250\n")
        assert (cfg.k, cfg.s, cfg.theta, cfg.Q0) == (3, 7, 0.75, 250)

    def test_comments_and_blanks(self):
        cfg = parse_config("# a run\n\nk = 3\n  # trailing comment line\n")
        assert cfg.k == 3

    def test_unknown_key(self):
        with pytest.raises(ParameterDomain):
            parse_config("kk = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ParameterDomain):
            parse_config("k = 3\nk = 4\n")

    def test_both_scales_rejected(self):
        with pytest.raises(ParameterDomain):
            parse_config("N = 100\nx = 10\n")

    def test_explicit_scale_displaces_default_window(self):
        cfg = parse_config("N = 800000\n")
        assert cfg.x is None
        assert cfg.context().N == 800_000

    def test_bad_value(self):
        with pytest.raises(ParameterDomain):
            parse_config("k = two\n")
        with pytest.raises(ParameterDomain):
            parse_config("just a line\n")


class TestFormatFloat:
    def test_twelve_significant_digits(self):
        assert format_float(math.pi) == "3.14159265359"
        assert format_float(400.0) == "400"
        assert format_float(-0.014168808571464936) == "-0.0141688085715"

    def test_non_finite(self):
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"
        assert format_float(float("nan")) == "nan"


class TestCanonicalJson:
    def test_sorted_keys(self):
        out = canonical_json({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert json.loads(out) == {"a": 2, "b": 1}

    def test_scalar_rendering(self):
        assert canonical_json(math.pi) == "3.14159265359\n"
        assert canonical_json(True) == "true\n"
        assert canonical_json(None) == "null\n"
        assert canonical_json(5) == "5\n"

    def test_non_finite_floats_quoted(self):
        out = canonical_json({"a": float("inf"), "b": float("nan")})
        assert json.loads(out) == {"a": "inf", "b": "nan"}

    def test_numpy_and_tuples(self):
        # np.float64 is a float; other numpy values, arrays among them,
        # are no payload values
        out = canonical_json({"v": np.float64(1.5), "t": (1, 2)})
        assert json.loads(out) == {"v": 1.5, "t": [1, 2]}
        for value in (np.int64(7), np.array([1.5, 2.5])):
            with pytest.raises(ParameterDomain, match="cannot serialize"):
                canonical_json({"v": value})

    def test_complex_values(self):
        assert json.loads(canonical_json(1 + 2j)) == {"re": 1, "im": 2}

    def test_dataclass_payload(self):
        from wglab.representations import RepresentationRecord

        rec = RepresentationRecord(n=98, value=3.5, tuple_count=1)
        assert json.loads(canonical_json(rec)) == {
            "n": 98, "value": 3.5, "tuple_count": 1,
        }

    def test_empty_containers(self):
        assert canonical_json({}) == "{}\n"
        assert canonical_json([]) == "[]\n"

    def test_unserializable(self):
        with pytest.raises(ParameterDomain):
            canonical_json({"bad": {1, 2}})

    def test_byte_determinism(self):
        payload = {"z": [1.0, math.e], "a": {"nested": np.float64(0.1)}}
        assert canonical_json(payload) == canonical_json(payload)
