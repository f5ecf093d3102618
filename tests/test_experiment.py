import glob
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import wglab.cache as cache
import wglab.experiment as experiment
import wglab.singular_integral as si
from wglab.arcs import ArcDecomposition, ArcParams, classify
from wglab.arith import ProblemContext
from wglab.errors import (
    CacheVersionMismatch, EmptyRegion, EmptyWindow, MemoryBudgetExceeded, ParameterDomain,
    RangeTooLarge,
)
from wglab.experiment import (
    _ARC_MEMO,
    _admissible_targets,
    _arc_integrand,
    _sorted_median,
    exceptional_scan,
    major_arc_rho_numeric,
    minor_arc_moment,
)
from wglab.expsums import build_sequence, eval_sum, exact_phase
from wglab.representations import moment, rho_mitm
from wglab.singular_integral import gauss_legendre_panels, j_array

TINY = ProblemContext.from_parts(2, 2, 10.0, 4.0)


def _quadrature_per_node(n, ctx, params, nodes_per_arc, region):
    """The arc quadrature one node at a time: f by `eval_sum`, e(-n alpha)
    by `exact_phase`, summed arc by arc."""
    seq = build_sequence(ctx, "prime_log")
    if region == "major":
        arcs = ArcDecomposition.build(params).intervals
        intervals = [(m.center - m.half_width, m.center + m.half_width) for m in arcs]
    elif region == "full":
        intervals = [(0.0, 1.0)]
    else:
        intervals = [(-1.0 / params.Q, 1.0 / params.Q)]
    panels = max(1, math.ceil(nodes_per_arc / 16))
    total = 0.0 + 0.0j
    for lo, hi in intervals:
        half, mid, x, w = gauss_legendre_panels(lo, hi, panels)
        vals = [
            eval_sum(seq, ctx.k, a) ** ctx.s * exact_phase(a, n).conjugate()
            for a in (mid[:, None] + half * x).ravel().tolist()
        ]
        total += half * np.dot(vals, np.tile(w, panels))
    return total.real


class TestMajorArcQuadrature:
    @pytest.mark.parametrize(
        "region, nodes", [("major", 32), ("full", 256), ("zero_arc", 64)]
    )
    def test_matches_per_node_oracle(self, region, nodes):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        params = ArcParams.from_context(ctx)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for n in (801125, 823205, 848261):
                got = major_arc_rho_numeric(n, ctx, params, nodes, region=region)
                want = _quadrature_per_node(n, ctx, params, nodes, region)
                assert got == pytest.approx(want, rel=1e-12)

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
        params = ArcParams.explicit(4.0, 40.0)
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
        # refused before the memo lookup: an unhashable region would be a
        # TypeError there, nan/inf nodes a math.ceil error, 218.7 became
        # 218 and -5 failed inside PhasePowers
        for region in (["major"], None, b"major"):
            with pytest.raises(ParameterDomain, match="region"):
                major_arc_rho_numeric(218, TINY, params, 64, region=region)
        for nodes in (math.nan, math.inf, 32.0, 7, -16, "32"):
            with pytest.raises(ParameterDomain, match="nodes_per_arc"):
                major_arc_rho_numeric(218, TINY, params, nodes)
        for n in (218.7, 218.0, -5, 0, math.nan, "218"):
            with pytest.raises(ParameterDomain, match="target n"):
                major_arc_rho_numeric(n, TINY, params, 64)

    def test_node_budget_refuses_before_allocating(self, monkeypatch):
        # 10^15 panels were numpy's "Unable to allocate 7.11 PiB"; 2^27
        # panels would have asked for 16 GiB of alphas
        monkeypatch.setattr(experiment, "gauss_legendre_panels", lambda *a: pytest.fail("allocated"))
        for nodes in (16 * 10 ** 15, 2 ** 31):
            with pytest.raises(MemoryBudgetExceeded, match="quadrature budget"):
                major_arc_rho_numeric(218, TINY, ArcParams.explicit(1.0, 50.0), nodes, "full")

    def test_numpy_integers_accepted(self):
        params = ArcParams.from_context(TINY)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = major_arc_rho_numeric(218, TINY, params, 64, region="full")
            got = major_arc_rho_numeric(np.int64(218), TINY, params, np.int32(64), region="full")
        assert got == want


class TestArcIntegrandMemo:
    """f^s at the nodes is computed once per (ctx, params, panels, region)
    and shared by the targets; a shared value must equal a cold one."""

    CTX = ProblemContext.from_scale(2, 5, 0.8, 800_000)
    TARGETS = (801125, 823205, 848261)

    @staticmethod
    def _cold(*args, **kwargs):
        _ARC_MEMO.clear()
        return major_arc_rho_numeric(*args, **kwargs)

    @pytest.fixture(autouse=True)
    def _quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            yield

    @pytest.fixture(autouse=True)
    def _count_evaluations(self, monkeypatch):
        # every f^s set calls panel_sums once; the kept entry must be gone
        # by then
        self.evaluations = 0
        real = experiment.panel_sums

        def counted(*args):
            assert not _ARC_MEMO
            self.evaluations += 1
            return real(*args)

        monkeypatch.setattr(experiment, "panel_sums", counted)
        _ARC_MEMO.clear()

    def test_hit_equals_cold(self):
        params = ArcParams.from_context(self.CTX)
        self._cold(self.TARGETS[0], self.CTX, params, 64)
        hits = [major_arc_rho_numeric(n, self.CTX, params, 64) for n in self.TARGETS]
        assert self.evaluations == 1
        cold = [self._cold(n, self.CTX, params, 64) for n in self.TARGETS]
        assert hits == cold

    def test_keys_do_not_collide(self):
        p1 = ArcParams.from_context(self.CTX)
        p2 = ArcParams.from_context(self.CTX, A=1.5)
        other = ProblemContext.from_scale(2, 5, 0.8, 810_000)
        n = self.TARGETS[1]
        calls = [
            (n, self.CTX, p1, 64, "major"),
            (n, self.CTX, p1, 64, "zero_arc"),
            (n, self.CTX, p1, 64, "full"),
            (n, self.CTX, p1, 32, "major"),
            (n, self.CTX, p2, 32, "major"),
            (n, other, p2, 32, "major"),
            (n, self.CTX, p1, 64, "major"),
        ]
        cold = [self._cold(*c[:4], region=c[4]) for c in calls]
        assert len(set(cold[:-1])) == len(cold) - 1  # every key gives its own value
        _ARC_MEMO.clear()
        for _ in range(2):  # the second pass alternates keys after a warm start
            assert [major_arc_rho_numeric(*c[:4], region=c[4]) for c in calls] == cold

    def test_warning_on_hit(self):
        params = ArcParams.from_context(TINY)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="under-resolved"):
                major_arc_rho_numeric(218, TINY, params, 8, region="full")
        assert self.evaluations == 1

    def test_cached_arrays_read_only(self):
        params = ArcParams.from_context(TINY)
        major_arc_rho_numeric(218, TINY, params, 64)
        nodes, fw, _ = _arc_integrand(TINY, params, 4, "major")
        for a in (nodes.mid, nodes.table, nodes.offsets, nodes.err, fw):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_budget_covers_the_measured_peak(self, monkeypatch):
        # require_node_budget charges 128 bytes per node: a cold call
        # peaks at about 103 of them here (the kept arrays, f and
        # panel_sums' blocks), a memo hit at 33 and one oscillatory_I
        # refinement at 49
        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = self.TARGETS[0]
        for A, nodes in ((1.0, 2048), (2.0, 64)):
            params = ArcParams.from_context(self.CTX, A=A)
            arcs = len(ArcDecomposition.build(params).intervals)
            count = 16 * math.ceil(nodes / 16) * arcs
            self._cold(n, self.CTX, params, nodes)  # the prime window is built once
            _ARC_MEMO.clear()
            cold = peak(lambda: major_arc_rho_numeric(n, self.CTX, params, nodes))
            hit = peak(lambda: major_arc_rho_numeric(n + 24, self.CTX, params, nodes))
            assert hit < cold <= 128 * count, (A, nodes)
        panels = []
        real = si.require_node_budget
        monkeypatch.setattr(si, "require_node_budget", lambda p: (panels.append(p), real(p)))
        osc = peak(lambda: si.oscillatory_I(0.05, ProblemContext.from_parts(2, 2, 1e3, 1e2)))
        assert osc <= 128 * 16 * panels[-1]

    def test_no_budget_check_on_a_hit(self, monkeypatch):
        params = ArcParams.from_context(TINY)
        want = self._cold(218, TINY, params, 64)
        monkeypatch.setattr(experiment, "require_node_budget", lambda *a: pytest.fail("checked"))
        assert major_arc_rho_numeric(218, TINY, params, 64) == want

    def test_kept_entry_released_before_a_miss(self, monkeypatch):
        # the node budget charges only the new set: the kept f^s must be
        # gone before the next miss evaluates f
        params = ArcParams.from_context(TINY)
        major_arc_rho_numeric(218, TINY, params, 64, region="full")
        old = weakref.ref(_arc_integrand(TINY, params, 4, "full")[1])
        evaluate = experiment.panel_sums

        def after_release(*args):
            assert old() is None
            return evaluate(*args)

        monkeypatch.setattr(experiment, "panel_sums", after_release)
        major_arc_rho_numeric(218, TINY, params, 64, region="zero_arc")
        assert self.evaluations == 2 and len(_ARC_MEMO) == 1

    def test_keeps_one_entry(self):
        params = ArcParams.from_context(TINY)
        for region in ("major", "full", "zero_arc"):
            for nodes in (32, 64):
                major_arc_rho_numeric(218, TINY, params, nodes, region=region)
                assert len(_ARC_MEMO) == 1


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

    def test_window_outside_the_support(self):
        # N is not tied to x here: the window past 10^6 lies beyond
        # s p_max^k = 338, so every target has rho = 0 and jay = 0
        ctx = ProblemContext(k=2, s=2, theta=1.0, N=10 ** 6, x=10.0, y=4.0)
        rep = exceptional_scan(ctx, q0=20)
        assert rep.scanned > 0
        assert not rep.per_n.jay.any()
        assert not rep.per_n.rho.any() and not rep.per_n.tuple_count.any()

    def test_window_without_integers(self):
        ctx = ProblemContext(k=2, s=2, theta=-1.3, N=200, x=10.0, y=0.05)
        with pytest.raises(EmptyWindow):
            exceptional_scan(ctx, q0=20)

    def test_unit_scale_is_refused(self):
        # the threshold divides by log x, and x = (5/5)^(1/2) = 1
        with pytest.raises(ParameterDomain, match="x > 1"):
            exceptional_scan(ProblemContext.from_scale(2, 5, 0.8, 5), q0=20)

    def test_threshold_formula(self):
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        # threshold must track y^(s-1) x^(1-k) / log x; probe via a direct
        # scan over a context small enough to run
        small = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        rep = exceptional_scan(small, q0=40)
        expect = small.y ** 2 * small.x ** -1 / math.log(small.x)
        assert rep.threshold == pytest.approx(expect, rel=1e-13)
        assert ctx.y ** 4 / ctx.x / math.log(ctx.x) > 0  # formula shape sanity

    def test_sigma_cache_round_trip(self, tmp_path):
        ctx = ProblemContext.from_parts(2, 3, 40.0, 15.0)
        cold = exceptional_scan(ctx, q0=40, cache_dir=str(tmp_path))
        assert glob.glob(str(tmp_path / "scan-*"))
        warm = exceptional_scan(ctx, q0=40, cache_dir=str(tmp_path))
        assert cold.per_n.sigma.tolist() == warm.per_n.sigma.tolist()
        bare = exceptional_scan(ctx, q0=40)
        assert bare.per_n.sigma.tolist() == warm.per_n.sigma.tolist()

    def test_warm_scan_reads_the_cache(self, tmp_path, monkeypatch):
        import wglab.experiment as experiment

        cold = exceptional_scan(SCAN_CTX, q0=40, cache_dir=str(tmp_path))

        for name in ("rho_scan", "sigma_batch", "j_array"):
            def refuse(*args, name=name, **kwargs):
                raise AssertionError(f"{name} recomputed on a warm scan")

            monkeypatch.setattr(experiment, name, refuse)
        warm = exceptional_scan(SCAN_CTX, q0=40, cache_dir=str(tmp_path))
        for col in ("rho", "tuple_count", "sigma", "jay"):
            got, want = getattr(warm.per_n, col), getattr(cold.per_n, col)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("change", ["x", "y", "window", "q0", "code", "numpy"])
    def test_scan_key_change_misses(self, tmp_path, monkeypatch, change):
        # every input that picks the columns' bits is in the key or the
        # code digest: a changed input misses and writes a second entry
        # beside the first, other code recomputes the entry in place
        import dataclasses

        ctx, q0 = SCAN_CTX, 40
        cold = exceptional_scan(ctx, q0=q0, cache_dir=str(tmp_path))
        computed = []
        compute = experiment._compute_columns
        monkeypatch.setattr(
            experiment, "_compute_columns", lambda *args: (computed.append(1), compute(*args))[1]
        )
        if change == "x":
            ctx = dataclasses.replace(ctx, x=ctx.x + 1e-9)  # same window
        elif change == "y":
            ctx = dataclasses.replace(ctx, y=ctx.y + 1e-9)
        elif change == "window":
            # 4800 and 5400 are inadmissible: one step down keeps the targets
            ctx = dataclasses.replace(ctx, N=ctx.N - 1)
        elif change == "q0":
            q0 = 41
        elif change == "code":
            monkeypatch.setattr(cache, "_code", lambda: "0" * 64)
        else:
            monkeypatch.setattr(np, "__version__", np.__version__ + "+other")
        other = exceptional_scan(ctx, q0=q0, cache_dir=str(tmp_path))
        assert other.per_n.n.tobytes() == cold.per_n.n.tobytes()
        assert computed == [1]
        entries = 1 if change == "code" else 2
        assert len(glob.glob(str(tmp_path / "scan-*.wgc"))) == entries

    def test_entry_with_other_targets_is_recomputed(self, tmp_path):
        import wglab.experiment as experiment

        cold = exceptional_scan(SCAN_CTX, q0=40, cache_dir=str(tmp_path)).per_n
        (path,) = tmp_path.glob("scan-*.wgc")
        raw = path.read_bytes()
        # same key, shifted targets and doubled columns: never served
        key = experiment._scan_key(SCAN_CTX, 40)
        cache.store(tmp_path, "scan", key, {
            "n": cold.n + 1, "rho": 2 * cold.rho, "tuple_count": 2 * cold.tuple_count,
            "sigma": 2 * cold.sigma, "jay": 2 * cold.jay,
        })
        assert path.read_bytes() != raw
        warm = exceptional_scan(SCAN_CTX, q0=40, cache_dir=str(tmp_path)).per_n
        for col in ("rho", "tuple_count", "sigma", "jay"):
            assert getattr(warm, col).tobytes() == getattr(cold, col).tobytes()
        assert path.read_bytes() == raw

    def test_entry_from_other_code_is_recomputed(self, tmp_path, monkeypatch):
        # an entry whose code digest is not the running package's, under
        # the same key and with other bits in every column, is never
        # served: the scan recomputes it and rewrites the cold entry
        cold = exceptional_scan(SCAN_CTX, q0=40, cache_dir=str(tmp_path)).per_n
        (path,) = tmp_path.glob("scan-*.wgc")
        raw = path.read_bytes()
        with monkeypatch.context() as old:
            old.setattr(cache, "_code", lambda: "0" * 64)
            cache.store(tmp_path, "scan", experiment._scan_key(SCAN_CTX, 40), {
                "n": cold.n, "rho": 2 * cold.rho, "tuple_count": 2 * cold.tuple_count,
                "sigma": 2 * cold.sigma, "jay": cold.jay * (1 + 2e-11),
            })
        assert path.read_bytes() != raw
        warm = exceptional_scan(SCAN_CTX, q0=40, cache_dir=str(tmp_path)).per_n
        for col in ("rho", "tuple_count", "sigma", "jay"):
            assert getattr(warm, col).tobytes() == getattr(cold, col).tobytes()
        assert path.read_bytes() == raw

    @pytest.mark.parametrize("k,s", [(2, 5), (2, 4), (3, 7), (3, 8)])
    def test_targets_on_their_class_equal_the_mask(self, k, s):
        # stepping through n = s (mod R(k)) and then the rest of the rule
        # gives the targets that masking the whole window gives
        from wglab.arith import admissible_rule
        from wglab.experiment import _admissible_targets

        for n_lo, n_hi in [(1, 500), (799_990, 801_013), (1_000_003, 1_000_005), (37, 61)]:
            ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
            want = ns[admissible_rule(ns, k, s)]
            got = _admissible_targets(ProblemContext.from_parts(k, s, 60.0, 20.0), n_lo, n_hi)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_target_budget_refuses_before_allocating(self, monkeypatch):
        # _TARGET_BYTES per member of the class n = 5 (mod 24); the
        # window's top must fit int64
        import wglab.experiment as experiment

        ctx = ProblemContext.from_parts(2, 5, 60.0, 20.0)
        charge = experiment._TARGET_BYTES
        assert charge * 5_358_691 <= experiment._SCAN_BYTES  # the x = 32000 rung
        monkeypatch.setattr(experiment, "_SCAN_BYTES", charge * 100)
        assert _admissible_targets(ctx, 1, 5 + 24 * 99).size == 100
        with pytest.raises(MemoryBudgetExceeded, match="101 targets"):
            _admissible_targets(ctx, 1, 5 + 24 * 100)
        top = 2 ** 63 - 1
        assert _admissible_targets(ctx, top - 999, top).max() <= top
        with pytest.raises(RangeTooLarge):
            _admissible_targets(ctx, top - 999, top + 1)

    @pytest.mark.parametrize(
        "ctx",
        [
            ProblemContext.from_scale(2, 5, 0.8, 800_000),
            ProblemContext.from_parts(3, 7, 30.0, 30.0 ** 0.8),
        ],
        ids=["k2-N800000", "k3-x30"],
    )
    def test_jay_matches_the_unit_step_table(self, ctx):
        # the scan inverts j on its targets' class only: step 24 at k = 2,
        # step 2 at k = 3, where the targets skip n = 0 (mod 9), so the
        # table holds entries that are no target
        rep = exceptional_scan(ctx, q0=40)
        ns = rep.per_n.n
        g = int(np.gcd.reduce(np.diff(ns)))
        assert g == {2: 24, 3: 2}[ctx.k]
        assert ((ns[-1] - ns[0]) // g + 1 > ns.size) == (ctx.k == 3)
        off, tab = j_array(ctx, int(ns[0]), int(ns[-1]))
        want = tab[ns - off]
        assert np.all(want > 0)
        assert np.all(np.abs(rep.per_n.jay - want) <= 1e-13 * want)

    def test_scan_leaves_numpy_ma_unimported(self):
        # np.median imports numpy.ma, about 15 ms of a warm rerun
        code = (
            "import sys\n"
            "from wglab.arith import ProblemContext\n"
            "from wglab.experiment import exceptional_scan\n"
            "rep = exceptional_scan(ProblemContext.from_parts(2, 3, 40.0, 15.0), 40)\n"
            "assert rep.ratios is not None\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestSortedMedian:
    @pytest.mark.parametrize("size", [1, 2, 3, 10, 11, 2011, 2012])
    def test_matches_np_median_bitwise(self, size):
        rng = np.random.default_rng(size)
        for v in (
            rng.uniform(0.3, 1.5, size),
            rng.integers(0, 4, size) / 3.0,  # ties
            np.full(size, 0.1),
        ):
            assert _sorted_median(np.sort(v)).hex() == float(np.median(v)).hex()


class TestMinorArcMoment:
    def test_full_grid_matches_even_moment(self):
        # grid mean of |f|^2 equals the aggregated moment exactly once the
        # grid outruns the top frequency of |f|^2
        params = ArcParams.from_context(TINY)
        got = minor_arc_moment(TINY, params, 2, 1024, region="full")
        assert got == pytest.approx(moment(1, TINY).value, rel=1e-10)

    def test_minor_region_matches_per_point_oracle(self):
        # minor points by `classify`, f by `eval_sum`, |f|^t one point at a time
        ctx = ProblemContext.from_scale(2, 5, 0.8, 800_000)
        params = ArcParams.from_context(ctx)
        seq = build_sequence(ctx, "prime_log")
        G = 4096
        mags = [
            abs(eval_sum(seq, ctx.k, j / G))
            for j in range(G)
            if classify(j / G, params)[0] == "minor"
        ]
        assert 0 < len(mags) < G
        for t in range(1, 7):
            want = sum(m ** t for m in mags) / G
            assert minor_arc_moment(ctx, params, t, G) == pytest.approx(want, rel=1e-13)

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
        params = ArcParams.explicit(1200.0, 1300.0)
        assert minor_arc_moment(ctx, params, 2, 1000) == 0.0

    def test_uncovered_empty_grid_raises(self):
        # every j/1000 reduces to q <= 1000 = P (major), yet the arcs
        # cover ~60% of the circle: the grid is too coarse to see the
        # minor region and the call must refuse rather than return 0
        ctx = ProblemContext.from_parts(2, 5, 1e4, 1e3)
        params = ArcParams.explicit(1000.0, 2001.0)
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


PROBE_KEY = {"kind": "probe", "x": 9.0, "y": 2.0}
SCAN_CTX = ProblemContext.from_parts(2, 3, 40.0, 15.0)


class TestArtifactCache:
    """`wglab.cache` store/load and the scan read-through over it."""

    def test_round_trip_is_bitwise(self, tmp_path):
        arrays = {
            "ints": np.array([-(2 ** 62), 0, 7], dtype=np.int64),
            "floats": np.array([math.pi, -0.0, np.inf, np.nan, 5e-324]),
            "complex": np.array([1 + 2j, complex(-0.0, np.nan)]),
            "flags": np.array([True, False, True]),
            "grid": np.arange(12, dtype=np.float64).reshape(3, 4),
            "empty": np.zeros(0, dtype=np.int64),
        }
        path = cache.store(tmp_path, "probe", PROBE_KEY, arrays)
        assert path == cache.cache_path(tmp_path, "probe", PROBE_KEY)
        assert path.name.startswith("probe-") and path.suffix == ".wgc"
        back = cache.load(tmp_path, "probe", PROBE_KEY)
        assert sorted(back) == sorted(arrays)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()

    def test_same_arrays_same_bytes(self, tmp_path, monkeypatch):
        # the bytes of an entry must not depend on when it was written
        arrays = {"n": np.arange(5, dtype=np.int64), "sigma": np.linspace(0, 1, 5)}
        raw = cache.store(tmp_path, "probe", PROBE_KEY, arrays).read_bytes()
        later = time.time() + 86400.0
        monkeypatch.setattr(time, "time", lambda: later)
        assert cache.store(tmp_path, "probe", PROBE_KEY, arrays).read_bytes() == raw

    def test_kind_must_be_a_plain_name(self, tmp_path):
        for kind in ("", "a/b", "a\\b", "a.b", "a b"):
            with pytest.raises(ParameterDomain, match="bad cache kind") as err:
                cache.cache_path(tmp_path, kind, PROBE_KEY)
            assert err.value.code == "parameter-domain"

    def test_miss_raises(self, tmp_path):
        with pytest.raises(cache.CacheMiss):
            cache.load(tmp_path, "probe", PROBE_KEY)

    def test_stored_key_must_match(self, tmp_path):
        # a file under another key's name (a hash collision) is a miss
        other = {**PROBE_KEY, "x": 10.0}
        path = cache.store(tmp_path, "probe", PROBE_KEY, {"v": np.ones(2)})
        path.rename(cache.cache_path(tmp_path, "probe", other))
        with pytest.raises(cache.CacheMiss):
            cache.load(tmp_path, "probe", other)

    def test_entry_from_other_code_is_refused(self, tmp_path, monkeypatch):
        with monkeypatch.context() as old:
            old.setattr(cache, "_code", lambda: "0" * 64)
            cache.store(tmp_path, "probe", PROBE_KEY, {"v": np.ones(2)})
            assert cache.load(tmp_path, "probe", PROBE_KEY)["v"].tolist() == [1.0, 1.0]
        with pytest.raises(CacheVersionMismatch, match="written by other code"):
            cache.load(tmp_path, "probe", PROBE_KEY)

    def test_code_digest_is_the_package_sha256(self, tmp_path):
        # every module of the package, file by file in name order; an
        # entry records it beside its key and kind
        digest = hashlib.sha256()
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "wglab").glob("*.py")):
            digest.update(path.read_bytes())
        assert cache._code() == digest.hexdigest()
        with np.load(cache.store(tmp_path, "probe", PROBE_KEY, {})) as archive:
            meta = json.loads(str(archive["__meta__"]))
        assert meta == {"key": PROBE_KEY, "kind": "probe", "code": digest.hexdigest()}

    def test_refuses_object_arrays_and_reserved_name(self, tmp_path):
        with pytest.raises(ParameterDomain):
            cache.store(tmp_path, "probe", PROBE_KEY, {"v": np.array([1, "a"], dtype=object)})
        with pytest.raises(ParameterDomain):
            cache.store(tmp_path, "probe", PROBE_KEY, {"__meta__": np.ones(2)})
        assert not cache.cache_path(tmp_path, "probe", PROBE_KEY).exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", fail)
        with pytest.raises(OSError):
            cache.store(tmp_path, "probe", PROBE_KEY, {"v": np.ones(2)})
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_writers_single_winner(self, tmp_path):
        # eight writers race on one key with different payloads; the
        # stored entry must be exactly one of them, not a blend
        payloads = [
            {"primes": np.array([7, 11], dtype=np.int64),
             "weights": np.full(2, float(i))}
            for i in range(8)
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(
                lambda p: cache.store(str(tmp_path), "probe", PROBE_KEY, p), payloads
            ))
        back = cache.load(str(tmp_path), "probe", PROBE_KEY)
        matches = [
            np.array_equal(back["weights"], p["weights"]) for p in payloads
        ]
        assert sum(matches) == 1
        assert not list(tmp_path.glob("*.tmp"))

    @staticmethod
    def _short_payload(raw, sigma):
        return raw[:-5]

    @staticmethod
    def _flip_payload_bit(raw, sigma):
        # the lowest exponent bit of the first stored sigma: a silent
        # read would halve or double it
        first = sigma[:1].tobytes()
        assert raw.count(first) == 1
        at = raw.index(first) + 6
        return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:]

    @staticmethod
    def _parent_format(raw, sigma):
        # the earlier hand-rolled layout: magic, version 1, header, payload
        header = json.dumps({
            "arrays": [{"dtype": "<f8", "name": "sigma", "shape": [sigma.size]}],
            "key": {}, "kind": "sigbatch",
        }).encode()
        return (b"WGLAB" + (1).to_bytes(2, "little") + len(header).to_bytes(4, "little")
                + header + sigma.tobytes())

    @staticmethod
    def _empty(raw, sigma):
        return b""

    @staticmethod
    def _non_object_header(raw, sigma):
        # a well-formed archive whose __meta__ holds a JSON list
        with np.load(io.BytesIO(raw)) as archive:
            members = {name: archive[name] for name in archive.files}
        members["__meta__"] = np.array("[1, 2]")
        buf = io.BytesIO()
        np.savez(buf, **members)
        return buf.getvalue()

    @pytest.mark.parametrize(
        "corrupt",
        ["_short_payload", "_flip_payload_bit", "_parent_format", "_empty", "_non_object_header"],
    )
    def test_garbled_file_is_rejected_then_rewritten(self, tmp_path, corrupt):
        cold = exceptional_scan(SCAN_CTX, q0=40, cache_dir=str(tmp_path)).per_n
        (path,) = tmp_path.glob("scan-*.wgc")
        raw = path.read_bytes()
        damage = getattr(self, corrupt)

        probe_dir = tmp_path / "probe"
        probe = cache.store(probe_dir, "probe", PROBE_KEY, {"n": cold.n, "sigma": cold.sigma})
        probe.write_bytes(damage(probe.read_bytes(), cold.sigma))
        with pytest.raises(CacheVersionMismatch) as err:
            cache.load(probe_dir, "probe", PROBE_KEY)
        assert err.value.code == "cache-version"
        assert probe.name in err.value.message

        path.write_bytes(damage(raw, cold.sigma))
        warm = exceptional_scan(SCAN_CTX, q0=40, cache_dir=str(tmp_path)).per_n
        assert warm.sigma.tobytes() == cold.sigma.tobytes()
        assert path.read_bytes() == raw
