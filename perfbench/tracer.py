"""Layer timings for wglab, taken from outside the package.

`install()` replaces the public functions the pipeline calls with timing
wrappers, in every wglab module that holds a reference to them, so no
source file of the package changes.  Two kinds of wrapper exist:

* a span, for calls made a few times per run (`rho_mitm`, `sigma_batch`,
  `j_array`, ...).  Spans nest; a span's self time is its duration minus
  the time of the spans and point calls made inside it.
* a point, for calls made once per grid point or quadrature node
  (`classify`, `PhasePowers.phases`).  These are aggregated as a call
  count plus summed time, never recorded one by one, and their time is
  charged to the enclosing span as child time.

Counts are recorded at the same boundaries.  Everything stays in memory;
`Tracer.summary()` returns it as a JSON-ready dict at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

clock = time.perf_counter

# spans whose point calls are grid points, and the quadrature span
_GRID_SPANS = ("expsums.sup_scan", "experiment.minor_arc_moment")
_QUAD_SPAN = "experiment.major_arc_rho_numeric"


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.spans: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.points: dict[str, list] = {}  # name -> [calls, total s]
        self.counts: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self.rho_calls: list[tuple] = []  # (ctx, targets) per rho_mitm call
        self.originals: dict[str, object] = {}

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.stack.pop()
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if self.stack:
                    self.stack[-1][1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def point(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            rec = self.points.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += dt
            if self.stack:
                self.stack[-1][1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Spans, points and counts; join probes are computed here, after
        the timed region, from the window each rho_mitm call saw."""
        for ctx, targets in self.rho_calls:
            self.add("representations.join_probes", targets * _t2_size(self, ctx))
        self.rho_calls = []
        return {
            "spans": self.spans,
            "points": self.points,
            "counts": self.counts,
            "values": self.values,
        }


def _t2_size(tracer: Tracer, ctx) -> int:
    # |T2|: distinct floor(s/2)-fold sums of p^k over the window
    win = tracer.originals["arith.prime_window"](ctx.x, ctx.y)
    base = np.array([p ** ctx.k for p in win.primes], dtype=np.int64)
    vals = base
    for _ in range(ctx.s // 2 - 1):
        vals = np.unique((vals[:, None] + base[None, :]).ravel())
    return int(np.unique(vals).size)


def _rebind(tracer: Tracer, name: str, orig, wrapper) -> None:
    """Point every wglab module attribute that holds orig at wrapper."""
    tracer.originals[name] = orig
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "wglab" and not mod_name.startswith("wglab."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install() -> Tracer:
    """Wrap the pipeline's public functions; returns the recording Tracer."""
    from wglab import (
        arcs,
        arith,
        cache,
        cli,
        config,
        experiment,
        expsums,
        representations,
        singular_integral,
        singular_series,
    )

    t = Tracer()

    def on_rho(args, kwargs, result):
        ctx = args[1] if len(args) > 1 else kwargs["ctx"]
        t.rho_calls.append((ctx, len(result)))
        t.add("representations.targets", len(result))
        t.add("representations.nonzero", sum(1 for r in result if r.tuple_count))

    def on_sigma(args, kwargs, result):
        n_values = args[0]
        q_max = args[2] if len(args) > 2 else kwargs["q_max"]
        t.add("singular_series.terms", (int(q_max) - 1) * int(np.asarray(n_values).size))

    def on_j(args, kwargs, result):
        ctx = args[0]
        size = int(result[1].size)
        t.add("singular_integral.conv_len", size)
        t.values["singular_integral.window_frac"] = ctx.window_width / size

    def on_store(args, kwargs, path):
        t.add("cache.bytes", path.stat().st_size)

    load = cache.load

    def counting_load(cache_dir, kind, key):
        try:
            arrays = load(cache_dir, kind, key)
        except (cache.CacheMiss, cache.CacheVersionMismatch):
            t.add("cache.misses", 1)
            raise
        t.add("cache.hits", 1)
        t.add("cache.bytes", cache.cache_path(cache_dir, kind, key).stat().st_size)
        return arrays

    def on_window(args, kwargs, win):
        t.add("arith.primes", len(win.primes))

    def on_phases(args, kwargs, result):
        t.add("expsums.phase_evals", args[0].size)
        where = t.stack[-1][0] if t.stack else None
        if where in _GRID_SPANS:
            t.add("expsums.grid_points", 1)
        elif where == _QUAD_SPAN:
            t.add("experiment.quad_nodes", 1)

    spans = [
        ("cli.main", cli.main, None),
        ("config.canonical_json", config.canonical_json, None),
        ("experiment.exceptional_scan", experiment.exceptional_scan, None),
        ("experiment.minor_arc_moment", experiment.minor_arc_moment, None),
        (_QUAD_SPAN, experiment.major_arc_rho_numeric, None),
        ("representations.rho_mitm", representations.rho_mitm, on_rho),
        ("representations.moment", representations.moment, None),
        ("singular_series.sigma_batch", singular_series.sigma_batch, on_sigma),
        ("singular_integral.j_array", singular_integral.j_array, on_j),
        ("cache.store", cache.store, on_store),
        ("arith.prime_window", arith.prime_window, on_window),
        ("expsums.sup_scan", expsums.sup_scan, None),
        ("expsums.dichotomy_report", expsums.dichotomy_report, None),
    ]
    for name, fn, after in spans:
        _rebind(t, name, fn, t.span(name, fn, after))
    _rebind(t, "cache.load", load, t.span("cache.load", counting_load))
    _rebind(t, "arcs.classify", arcs.classify, t.point("arcs.classify", arcs.classify))

    phases = expsums.PhasePowers.phases
    t.originals["expsums.phases"] = phases
    expsums.PhasePowers.phases = t.point("expsums.phases", phases, on_phases)

    build = arcs.ArcDecomposition.__dict__["build"].__func__
    t.originals["arcs.build"] = build
    arcs.ArcDecomposition.build = classmethod(t.span("arcs.build", build))
    return t
