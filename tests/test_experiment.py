import glob
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import wglab.cache as cache
from wglab.arcs import ArcParams
from wglab.arith import ProblemContext, prime_window
from wglab.errors import (
    CacheVersionMismatch,
    EmptyRegion,
    EmptyWindow,
    ParameterDomain,
    UnsupportedKind,
)
from wglab.experiment import (
    cache_load,
    cache_store,
    exceptional_scan,
    major_arc_rho_numeric,
    minor_arc_moment,
    predict,
    window_cached,
)
from wglab.representations import moment, rho_mitm
from wglab.singular_integral import j_integral
from wglab.singular_series import truncated_sigma

TINY = ProblemContext.from_parts(2, 2, 10.0, 4.0)


class TestPredict:
    def test_factors_multiply(self):
        pred = predict(218, TINY, q0=50)
        assert pred.sigma == truncated_sigma(218, TINY, 50).value
        assert pred.jay == j_integral(218, TINY)
        assert pred.main_term == pred.sigma * pred.jay
        assert pred.admissible is True  # 218 = 2 (mod 24)

    def test_outside_support(self):
        pred = predict(10 ** 9, TINY, q0=50)
        assert pred.jay == 0.0
        assert pred.main_term == 0.0

    def test_inadmissible_flag(self):
        assert predict(219, TINY, q0=50).admissible is False


class TestMajorArcQuadrature:
    def test_full_circle_recovers_rho(self):
        # at 4096 nodes the full-circle quadrature of f^s e(-n alpha) is
        # the exact representation count; checked against the
        # meet-in-the-middle value
        params = ArcParams.from_context(TINY)
        for n in (98, 170, 218, 100):
            ref = rho_mitm([n], TINY)[0].value
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = major_arc_rho_numeric(n, TINY, params, 4096, region="full")
            assert got == pytest.approx(ref, abs=1e-9)

    def test_major_region_quadrature_converges(self):
        # doubling the node count must not move the major-region value:
        # the integrand is smooth on each short arc
        params = ArcParams.explicit(4.0, 40.0, ctx=TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            coarse = major_arc_rho_numeric(218, TINY, params, 256, region="major")
            fine = major_arc_rho_numeric(218, TINY, params, 512, region="major")
        assert fine == pytest.approx(coarse, rel=1e-9, abs=1e-9)

    def test_zero_arc_region(self):
        params = ArcParams.from_context(TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            val = major_arc_rho_numeric(218, TINY, params, 256, region="zero_arc")
        assert isinstance(val, float)
        assert math.isfinite(val)

    def test_under_resolution_warning(self):
        params = ArcParams.from_context(TINY)
        with pytest.warns(RuntimeWarning, match="under-resolved"):
            major_arc_rho_numeric(218, TINY, params, 8, region="full")

    def test_domain(self):
        params = ArcParams.from_context(TINY)
        with pytest.raises(ParameterDomain):
            major_arc_rho_numeric(218, TINY, params, 4)
        with pytest.raises(ParameterDomain):
            major_arc_rho_numeric(218, TINY, params, 64, region="nowhere")


class TestExceptionalScan:
    def test_single_target_window(self):
        # window (200, 240]: the only n = 2 (mod 24) is 218
        rep = exceptional_scan(TINY, q0=50)
        assert rep.window == (201, 240)
        assert rep.scanned == 1
        assert rep.per_n is not None
        assert rep.per_n.n.tolist() == [218]
        assert rep.per_n.rho[0] == pytest.approx(
            2 * math.log(7) * math.log(13), rel=1e-12
        )
        assert rep.threshold == pytest.approx(4.0 / 10.0 / math.log(10.0))
        assert rep.exceptional_one_sided <= rep.exceptional <= rep.scanned

    def test_flag_consistency(self):
        ctx = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        rep = exceptional_scan(ctx, q0=80)
        assert rep.scanned > 1
        det = rep.per_n
        main = det.sigma * det.jay
        dev = det.rho - main
        assert np.array_equal(det.flagged, np.abs(dev) >= rep.threshold)
        assert rep.exceptional == int(np.count_nonzero(det.flagged))
        assert rep.exceptional_one_sided == int(np.count_nonzero(dev >= rep.threshold))
        finite = det.ratio[np.isfinite(det.ratio)]
        assert rep.ratios.min == float(np.min(finite))
        assert rep.ratios.median == float(np.median(finite))
        assert rep.ratios.max == float(np.max(finite))

    def test_no_admissible_targets(self):
        ctx = ProblemContext.from_parts(2, 2, 10.0, 0.2)  # targets 201, 202
        rep = exceptional_scan(ctx, q0=20)
        assert rep.scanned == 0
        assert rep.ratios is None and rep.per_n is None
        assert rep.exceptional_fraction() == 0.0

    def test_window_without_integers(self):
        ctx = ProblemContext(k=2, s=2, theta=-1.3, N=200, x=10.0, y=0.05)
        with pytest.raises(EmptyWindow):
            exceptional_scan(ctx, q0=20)

    def test_threshold_formula(self):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        # threshold must track y^(s-1) x^(1-k) / log x; probe via a direct
        # scan over a context small enough to run
        small = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        rep = exceptional_scan(small, q0=40)
        expect = small.y ** 2 * small.x ** -1 / math.log(small.x)
        assert rep.threshold == pytest.approx(expect, rel=1e-13)
        assert ctx.y ** 4 / ctx.x / math.log(ctx.x) > 0  # formula shape sanity

    def test_per_n_suppression(self):
        ctx = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        full = exceptional_scan(ctx, q0=40, keep_per_n=True)
        slim = exceptional_scan(ctx, q0=40, keep_per_n=False)
        assert slim.per_n is None
        assert slim.scanned == full.scanned
        assert slim.exceptional == full.exceptional
        assert slim.ratios == full.ratios

    def test_threading_stability(self):
        ctx = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        solo = exceptional_scan(ctx, q0=40, threads=1)
        multi = exceptional_scan(ctx, q0=40, threads=3, batch_size=7)
        assert solo.per_n.rho.tolist() == multi.per_n.rho.tolist()
        assert solo.per_n.sigma.tolist() == multi.per_n.sigma.tolist()
        assert solo.exceptional == multi.exceptional

    def test_knob_domain(self):
        ctx = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        with pytest.raises(ParameterDomain):
            exceptional_scan(ctx, q0=40, batch_size=0)
        with pytest.raises(ParameterDomain):
            exceptional_scan(ctx, q0=40, threads=0)

    def test_sigma_cache_key_carries_floor(self, tmp_path, monkeypatch):
        # a changed partial-sum floor must miss the cache and recompute
        import wglab.singular_series as ss

        ctx = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        exceptional_scan(ctx, q0=40, cache_dir=str(tmp_path))
        assert len(glob.glob(str(tmp_path / "sigbatch-*.wgc"))) == 1
        monkeypatch.setattr(ss, "_PARTIAL_FLOOR", 1e-6)
        exceptional_scan(ctx, q0=40, cache_dir=str(tmp_path))
        assert len(glob.glob(str(tmp_path / "sigbatch-*.wgc"))) == 2

    def test_sigma_cache_round_trip(self, tmp_path):
        ctx = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        cold = exceptional_scan(ctx, q0=40, cache_dir=str(tmp_path))
        assert glob.glob(str(tmp_path / "sigbatch-*"))
        warm = exceptional_scan(ctx, q0=40, cache_dir=str(tmp_path))
        assert cold.per_n.sigma.tolist() == warm.per_n.sigma.tolist()
        bare = exceptional_scan(ctx, q0=40)
        assert bare.per_n.sigma.tolist() == warm.per_n.sigma.tolist()


class TestMinorArcMoment:
    def test_full_grid_matches_even_moment(self):
        # grid mean of |f|^2 equals the aggregated moment exactly once the
        # grid outruns the top frequency of |f|^2
        params = ArcParams.from_context(TINY)
        got = minor_arc_moment(TINY, params, 2, 1024, region="full")
        assert got == pytest.approx(moment(1, TINY).value, rel=1e-10)

    def test_minor_below_full(self):
        ctx = ProblemContext.from_parts(2, 5, 1e4, 1e3)
        params = ArcParams.from_context(ctx)
        minor = minor_arc_moment(ctx, params, 2, 1000)
        full = minor_arc_moment(ctx, params, 2, 1000, region="full")
        assert 0.0 < minor < full

    def test_blanketed_circle_returns_zero(self):
        # P just under Q: the major family overlaps and covers every grid
        # point, so the minor contribution is exactly zero
        ctx = ProblemContext.from_parts(2, 5, 1e4, 1e3)
        params = ArcParams.explicit(1200.0, 1300.0, ctx=ctx)
        assert minor_arc_moment(ctx, params, 2, 1000) == 0.0

    def test_uncovered_empty_grid_raises(self):
        # every j/1000 reduces to q <= 1000 = P (major), yet the arcs
        # cover ~60% of the circle: the grid is too coarse to see the
        # minor region and the call must refuse rather than return 0
        ctx = ProblemContext.from_parts(2, 5, 1e4, 1e3)
        params = ArcParams.explicit(1000.0, 2001.0, ctx=ctx)
        with pytest.raises(EmptyRegion):
            minor_arc_moment(ctx, params, 2, 1000)

    def test_domain(self):
        params = ArcParams.from_context(TINY)
        with pytest.raises(ParameterDomain):
            minor_arc_moment(TINY, params, 2, 999)
        with pytest.raises(ParameterDomain):
            minor_arc_moment(TINY, params, 0, 1000)
        with pytest.raises(ParameterDomain):
            minor_arc_moment(TINY, params, 2, 1000, region="zero_arc")


class TestArtifactCache:
    def test_window_round_trip(self, tmp_path):
        win = prime_window(100.0, 30.0)
        path = cache_store(win, str(tmp_path))
        assert path.endswith(".wgc")
        back = cache_load({"kind": "window", "x": 100.0, "y": 30.0}, str(tmp_path))
        assert back == win  # frozen dataclass equality covers all fields

    def test_sigma_round_trip(self, tmp_path):
        t = truncated_sigma(53, ProblemContext.from_scale(2, 5, 0.8, 800_000), 120)
        cache_store(t, str(tmp_path))
        back = cache_load(
            {"kind": "sigma", "n": 53, "k": 2, "s": 5, "q0": 120}, str(tmp_path)
        )
        assert back.value.hex() == t.value.hex()
        assert back.partials == t.partials

    def test_miss_raises(self, tmp_path):
        with pytest.raises(cache.CacheMiss):
            cache_load({"kind": "window", "x": 1.0, "y": 1.0}, str(tmp_path))

    def test_unsupported_kinds(self, tmp_path):
        with pytest.raises(UnsupportedKind):
            cache_store(42, str(tmp_path))
        with pytest.raises(UnsupportedKind):
            cache_load({"kind": "nope"}, str(tmp_path))

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        win = prime_window(50.0, 10.0)
        cache_store(win, str(tmp_path))
        monkeypatch.setattr(cache, "VERSION", cache.VERSION + 1)
        with pytest.raises(CacheVersionMismatch):
            cache_load({"kind": "window", "x": 50.0, "y": 10.0}, str(tmp_path))

    def test_read_through_window(self, tmp_path):
        first = window_cached(200.0, 50.0, str(tmp_path))
        files = glob.glob(str(tmp_path / "window-*"))
        assert len(files) == 1
        second = window_cached(200.0, 50.0, str(tmp_path))
        assert second == first
        assert window_cached(200.0, 50.0, None) == first

    @staticmethod
    def _overlong_header(raw):
        return raw[:7] + len(raw).to_bytes(4, "little") + raw[11:]

    @staticmethod
    def _non_object_header(raw):
        hlen = int.from_bytes(raw[7:11], "little")
        return raw[:11] + b"[" + b" " * (hlen - 2) + b"]" + raw[11 + hlen:]

    @staticmethod
    def _foreign_dtype(raw):
        # same item size, so only the dtype check can catch it
        return raw.replace(b'"<f8"', b'">f8"', 1)

    @staticmethod
    def _short_payload(raw):
        return raw[:-5]

    @pytest.mark.parametrize(
        "corrupt", ["_overlong_header", "_non_object_header", "_foreign_dtype", "_short_payload"]
    )
    def test_garbled_file_is_rejected_then_rewritten(self, tmp_path, corrupt):
        win = prime_window(50.0, 10.0)
        path = Path(cache_store(win, str(tmp_path)))
        raw = path.read_bytes()
        path.write_bytes(getattr(self, corrupt)(raw))
        with pytest.raises(CacheVersionMismatch) as err:
            cache_load({"kind": "window", "x": 50.0, "y": 10.0}, str(tmp_path))
        assert err.value.code == "cache-version"
        assert path.name in err.value.message
        assert window_cached(50.0, 10.0, str(tmp_path)) == win
        assert path.read_bytes() == raw

    def test_concurrent_writers_single_winner(self, tmp_path):
        # eight writers race on one key with different payloads; the
        # stored artifact must be exactly one of them, not a blend
        key = {"kind": "window", "x": 9.0, "y": 2.0}
        payloads = [
            {"primes": np.array([7, 11], dtype=np.int64),
             "weights": np.full(2, float(i))}
            for i in range(8)
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(
                lambda p: cache.store(str(tmp_path), "window", key, p), payloads
            ))
        back = cache.load(str(tmp_path), "window", key)
        matches = [
            np.array_equal(back["weights"], p["weights"]) for p in payloads
        ]
        assert sum(matches) == 1
