#!/usr/bin/env python3
"""Benchmark of the wglab circle-method pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):

* report-k2-x1000  `wglab report` at k=2, s=5, theta=0.8, x=1000, q0=400
* report-k3-x60    `wglab report` at k=3, s=7, theta=0.8, x=60, q0=400
* circle-x400      grid scans, arc quadrature and dichotomy reports at
                   N=800,000, called in process through the public API

On the report workloads one sample is a pair of fresh interpreters: the
cold command, with an empty cache directory, then the same command again
against the cache directory the cold one filled.  circle-x400 keeps no
cache, so there one sample is a single fresh interpreter.  Samples repeat
closed-loop, one after another, until a sample of median length would
overrun --seconds (at least three).  Every process gets pinned BLAS/OpenMP
thread variables, a fixed PYTHONHASHSEED, no WGLAB_CACHE_DIR, and `src/`
of this checkout on PYTHONPATH.

Before every sample a probe process times fixed work that calls no
wglab code; its median time over the run, relative to PROBE_REF_S, is the
host factor.

--trace 0 prints the end-to-end metrics: setup_s (interpreter start to
imports done), wall_s (cold command), rerun_s (the rerun; on circle-x400,
where every process is cold, the same median as wall_s), each divided by
the host factor, and peak_rss_mb (cold process).  --trace 1 also runs
traced samples, whose wrappers time each layer from outside (tracer.py),
and prints the per-layer metrics, in raw seconds.

The first cold output is checked against reference/ (integers exactly,
floats within 1e-9 relative); every other output must equal it byte for
byte.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count checked values,
so failed / attempted is the failed fraction.  Names and units of the
metrics come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import lzma
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"

TOL = 1e-9  # relative tolerance on floats against the reference
MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

REPORTS = {
    "report-k2-x1000": ["--k", "2", "--s", "5", "--theta", "0.8", "--x", "1000", "--q0", "400"],
    "report-k3-x60": ["--k", "3", "--s", "7", "--theta", "0.8", "--x", "60", "--q0", "400"],
}
# circle-x400: grid G = 32768 >= 4Q (Q ~ 8057) resolves the peaks; the
# seed draws PICKS quadrature targets and dichotomy alphas from the pools
# stored in the reference
CIRCLE = {"N": 800_000, "grid": 32768, "nodes": 2048, "rho": 0.25}
PICKS = 3
WORKLOADS = (*REPORTS, "circle-x400")
# about the median probe time on the development host (2-vCPU Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6), where the time metrics read as
# plain seconds
PROBE_REF_S = 0.55


class BenchError(Exception):
    """A child failed, or an output missed the reference."""


# ------------------------------------------------------------ processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WGLAB_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"  # same str-hash layout in every process
    for var in THREAD_VARS:
        env[var] = "1"  # every workload is single-threaded; 1 <= nproc
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(spec: dict, deadline: float) -> dict:
    """Run child.py in a fresh interpreter; returns its record plus the
    set-up time measured from launch."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['kind']} child timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{spec['kind']} child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(rec["wglab_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"child imported wglab from {rec['wglab_file']}, not this checkout")
    rec["setup"] = rec["ready"] - t0
    rec["wall"] = rec["end"] - rec["start"]
    return rec


# ------------------------------------------------------------- checking


def close(got, want) -> bool:
    if got == want:
        return True
    if isinstance(got, float) and isinstance(want, float) and math.isnan(got) and math.isnan(want):
        return True
    return abs(got - want) <= TOL * max(abs(got), abs(want))


def compare(got, want, path: str, fails: list, skip=()) -> int:
    """Compare a JSON-like value with the reference; returns the number of
    leaf values checked and appends a message per mismatch to fails."""
    if path in skip:
        return 0
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            fails.append(f"{path}: keys differ")
            return 1
        return sum(compare(got[k], want[k], f"{path}.{k}", fails, skip) for k in sorted(want))
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            fails.append(f"{path}: length differs")
            return 1
        return sum(compare(g, w, f"{path}[{i}]", fails, skip) for i, (g, w) in enumerate(zip(got, want)))
    exact = want is None or isinstance(want, (bool, str)) or (
        isinstance(want, int) and isinstance(got, int) and not isinstance(got, bool)
    )
    if exact:
        ok = type(got) is type(want) and got == want
    else:
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and close(float(got), float(want))
    if not ok:
        fails.append(f"{path}: got {got!r}, want {want!r}")
    return 1


def check_per_n(got_csv: str, want_csv: str, threshold: float, fails: list) -> tuple[int, int, int]:
    """Row-by-row check of the per-n stream.  Returns (values checked,
    two-sided flags exempt, one-sided flags exempt): a flag is exempt when
    |dev| (or dev) lies within TOL of the threshold."""
    got = [line.split(",") for line in got_csv.splitlines()]
    want = [line.split(",") for line in want_csv.splitlines()]
    if got[:1] != want[:1] or len(got) != len(want):
        fails.append(f"per-n: header or row count differs ({len(got)} vs {len(want)} lines)")
        return 1, 0, 0
    header = want[0]
    ints = {"n", "tuple_count"}
    floats = {"rho", "sigma", "jay", "ratio"}
    col = {name: i for i, name in enumerate(header)}
    checked = exempt2 = exempt1 = 0
    for g, w in zip(got[1:], want[1:]):
        for name in ints:
            checked += 1
            if g[col[name]] != w[col[name]]:
                fails.append(f"per-n n={w[0]} {name}: got {g[col[name]]}, want {w[col[name]]}")
        for name in floats:
            checked += 1
            if not close(float(g[col[name]]), float(w[col[name]])):
                fails.append(f"per-n n={w[0]} {name}: got {g[col[name]]}, want {w[col[name]]}")
        dev = float(w[col["rho"]]) - float(w[col["sigma"]]) * float(w[col["jay"]])
        near2 = abs(abs(dev) - threshold) <= TOL * threshold
        exempt2 += near2
        exempt1 += abs(dev - threshold) <= TOL * threshold
        if not near2:
            checked += 1
            if g[col["flagged"]] != w[col["flagged"]]:
                fails.append(f"per-n n={w[0]} flagged: got {g[col['flagged']]}, want {w[col['flagged']]}")
    return checked, exempt2, exempt1


# ------------------------------------------------------------ workloads


class Report:
    """`wglab report` as a user runs it: one process per command."""

    steps = ("cold", "rerun")

    def __init__(self, name: str):
        # the command is a fixed rung of the scale ladder: no seed
        self.name = name
        self.flags = REPORTS[name] + ["--threads", "1"]

    def spec(self, sample: Path, step: str, traced: bool) -> dict:
        out = sample / step / "report.json"
        out.parent.mkdir()
        argv = ["report", *self.flags, "--out", str(out), "--cache-dir", str(sample / "cache")]
        return {"kind": "report", "argv": argv, "trace": traced}

    def outputs(self, sample: Path, step: str) -> tuple[bytes, ...]:
        d = sample / step
        return (d / "report.json").read_bytes(), (d / "report.per-n.csv").read_bytes()

    def check(self, outputs: tuple[bytes, ...], fails: list) -> int:
        want = json.loads((REFERENCE / f"{self.name}.json").read_text())
        got = json.loads(outputs[0])
        want_csv = lzma.decompress((REFERENCE / f"{self.name}.per-n.csv.xz").read_bytes()).decode()
        flag_counts = ("exceptional", "exceptional_one_sided")
        checked = compare(got, want, "report", fails, skip={f"report.summary.{k}" for k in flag_counts})
        threshold = float(want["summary"]["threshold"])
        rows, exempt2, exempt1 = check_per_n(outputs[1].decode(), want_csv, threshold, fails)
        for key, allowance in zip(flag_counts, (exempt2, exempt1)):
            checked += 1
            if abs(got["summary"][key] - want["summary"][key]) > allowance:
                fails.append(f"report.summary.{key}: got {got['summary'][key]}, want {want['summary'][key]}")
        return checked + rows


class Circle:
    """Public circle-side calls at N = 800,000, in one process."""

    steps = ("cold",)  # no cache: a second process would be another cold run

    def __init__(self, seed: int):
        self.ref = json.loads((REFERENCE / "circle-x400.json").read_text())
        rng = random.Random(seed)
        self.ti = sorted(rng.sample(range(len(self.ref["targets"])), PICKS))
        # every draw holds one alpha near a rational: its witness makes
        # dichotomy_report factorize q, which builds a 4 MB prime table, so
        # peak RSS would otherwise depend on the seed
        split = self.ref["rational_from"]
        self.ai = sorted(
            rng.sample(range(split), PICKS - 1) + rng.sample(range(split, len(self.ref["alphas"])), 1)
        )

    def spec(self, sample: Path, step: str, traced: bool) -> dict:
        return {
            "kind": "circle", **CIRCLE, "trace": traced, "out": str(sample / f"{step}.json"),
            "targets": [self.ref["targets"][i] for i in self.ti],
            "alphas": [self.ref["alphas"][i] for i in self.ai],
        }

    def outputs(self, sample: Path, step: str) -> tuple[bytes, ...]:
        return ((sample / f"{step}.json").read_bytes(),)

    def check(self, outputs: tuple[bytes, ...], fails: list) -> int:
        got = json.loads(outputs[0])
        res = self.ref["results"]
        want = dict(res, quadrature=[res["quadrature"][i] for i in self.ti],
                    dichotomy=[res["dichotomy"][i] for i in self.ai])
        # |f(alpha)| = |f(1 - alpha)|, so the argmax may land on either twin
        a, a_ref = got["sup_scan"]["argmax_alpha"], want["sup_scan"]["argmax_alpha"]
        checked = compare(got, want, "circle", fails, skip={"circle.sup_scan.argmax_alpha"}) + 1
        if not (close(a, a_ref) or close(a, 1.0 - a_ref)):
            fails.append(f"circle.sup_scan.argmax_alpha: got {a!r}, want {a_ref!r} or its twin")
        return checked


def make_workload(name: str, seed: int):
    return Report(name) if name in REPORTS else Circle(seed)


def run_sample(workload, work: Path, index: int, traced: bool, deadline: float):
    """One sample: the cold process, then (report workloads) the rerun
    against its cache."""
    sample = work / f"sample{index}"
    sample.mkdir()
    recs, outs = [], []
    for step in workload.steps:
        recs.append(launch(workload.spec(sample, step, traced), deadline))
        outs.append(workload.outputs(sample, step))
    shutil.rmtree(sample)
    return recs, outs


# -------------------------------------------------------------- metrics


def span_total(trace: dict, name: str) -> float:
    return trace["spans"].get(name, [0, 0.0, 0.0])[1]


def layer_sample(recs: list, output_bytes: int) -> tuple[dict, dict, set]:
    """Per-layer (times, counts, entered sources) of one traced sample.

    Everything describes the cold process except the cache layer, which
    covers the cold process and its rerun: hits happen only on the rerun."""
    cold = recs[0]
    c = cold["trace"]
    r = recs[1]["trace"] if len(recs) > 1 else {"spans": {}, "points": {}, "counts": {}}
    spans, points = c["spans"], c["points"]

    def n(key: str) -> int:
        return c["counts"].get(key, 0)

    def cache_count(key: str) -> int:
        return n(key) + r["counts"].get(key, 0)

    exp_self = sum(v[2] for k, v in spans.items() if k.startswith("experiment."))
    attributed = sum(v[2] for v in spans.values()) + sum(v[1] for v in points.values())
    times = {
        "representations.rho_mitm_s": span_total(c, "representations.rho_mitm"),
        "singular_integral.j_array_s": span_total(c, "singular_integral.j_array"),
        "singular_series.sigma_batch_s": span_total(c, "singular_series.sigma_batch"),
        "cache.store_s": span_total(c, "cache.store") + span_total(r, "cache.store"),
        "cache.load_s": span_total(c, "cache.load") + span_total(r, "cache.load"),
        "arith.prime_window_s": span_total(c, "arith.prime_window"),
        "expsums.sup_scan_s": span_total(c, "expsums.sup_scan"),
        "arcs.classify_s": points.get("arcs.classify", [0, 0.0])[1],
        "arcs.build_s": span_total(c, "arcs.build"),
        "experiment.minor_arc_moment_s": span_total(c, "experiment.minor_arc_moment"),
        "experiment.major_arc_quad_s": span_total(c, "experiment.major_arc_rho_numeric"),
        "experiment.exceptional_scan_s": span_total(c, "experiment.exceptional_scan"),
        "experiment.self_s": exp_self,
        "cli.main_s": span_total(c, "cli.main"),
        "cli.self_s": spans.get("cli.main", [0, 0.0, 0.0])[2],
        "config.canonical_json_s": span_total(c, "config.canonical_json"),
        "bench.residual_s": cold["wall"] - attributed,
        "bench.attributed_s": attributed,  # printed on the accounting line only
    }
    cnts = {
        "representations.targets": n("representations.targets"),
        "representations.join_probes": n("representations.join_probes"),
        "representations.nonzero_frac": n("representations.nonzero") / max(n("representations.targets"), 1),
        "singular_integral.conv_len": n("singular_integral.conv_len"),
        "singular_integral.window_frac": c["values"].get("singular_integral.window_frac", 0.0),
        "singular_series.terms": n("singular_series.terms"),
        "cache.hits": cache_count("cache.hits"),
        "cache.misses": cache_count("cache.misses"),
        "cache.bytes": cache_count("cache.bytes"),
        "arith.primes": n("arith.primes"),
        "expsums.grid_points": n("expsums.grid_points"),
        "expsums.phase_evals": n("expsums.phase_evals"),
        "arcs.classify_calls": points.get("arcs.classify", [0, 0.0])[0],
        "experiment.quad_nodes": n("experiment.quad_nodes"),
        "cli.output_bytes": output_bytes if "cli.main" in spans else 0,
    }
    entered = set(spans) | set(points) | set(r["spans"]) | set(r["points"])
    return times, cnts, entered


# which wrapped call a per-layer metric comes from; a metric whose calls
# never ran is reported as absent
SOURCES = {
    "representations.": ("representations.rho_mitm",),
    "singular_integral.": ("singular_integral.j_array",),
    "singular_series.": ("singular_series.sigma_batch",),
    "cache.": ("cache.load", "cache.store"),
    "arith.": ("arith.prime_window",),
    "expsums.sup_scan_s": ("expsums.sup_scan",),
    "expsums.grid_points": ("expsums.sup_scan", "experiment.minor_arc_moment"),
    "expsums.phase_evals": ("expsums.phases",),
    "arcs.classify": ("arcs.classify",),
    "arcs.build_s": ("arcs.build",),
    "experiment.minor_arc_moment_s": ("experiment.minor_arc_moment",),
    "experiment.major_arc_quad_s": ("experiment.major_arc_rho_numeric",),
    "experiment.quad_nodes": ("experiment.major_arc_rho_numeric",),
    "experiment.exceptional_scan_s": ("experiment.exceptional_scan",),
    "experiment.self_s": ("experiment.exceptional_scan", "experiment.minor_arc_moment",
                          "experiment.major_arc_rho_numeric"),
    "cli.": ("cli.main",),
    "config.": ("config.canonical_json",),
}


def is_absent(metric: str, entered: set) -> bool:
    for prefix, sources in SOURCES.items():
        if metric.startswith(prefix):
            return not entered.intersection(sources)
    return False


def spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f} of {len(values)},"
            f" min {min(values):.4f}, max {max(values):.4f}")


# ------------------------------------------------------------------ main


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def schedule(trace: int):
    """Yield traced? for each sample: untraced only, or for --trace 1 one
    untraced, two traced, then alternating."""
    if trace:
        yield from (False, True, True)
        while True:
            yield from (False, True)
    while True:
        yield False


def measure(args, workload, work: Path, deadline: float):
    """Samples until the budget is spent, each one after a probe process;
    returns the samples and the probe times."""
    budget_end = time.monotonic() + args.seconds
    samples: list[tuple[bool, list, list]] = []
    probes: list[float] = []
    durations: list[float] = []
    for traced in schedule(args.trace):
        untraced = sum(not t for t, _, _ in samples)
        traced_n = len(samples) - untraced
        enough = untraced >= MIN_SAMPLES if not args.trace else (untraced >= 1 and traced_n >= 2)
        now = time.monotonic()
        # stop when a typical sample would overrun --seconds, or the
        # slowest one so far the hard time limit
        if enough and now + statistics.median(durations) > budget_end:
            break
        if now + max(durations, default=0.0) > deadline:
            break
        t0 = time.monotonic()
        probes.append(launch({"kind": "probe"}, deadline)["wall"])
        recs, outs = run_sample(workload, work, len(samples), traced, deadline)
        durations.append(time.monotonic() - t0)
        samples.append((traced, recs, outs))
    return samples, probes


def stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: kills the running child, removes the work dir


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    if not (ROOT / "src" / "wglab" / "cli.py").is_file():
        print(f"error: no wglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = make_workload(args.workload, args.seed)
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    fails: list[str] = []
    attempted = 0
    try:
        launch({"kind": "warmup"}, deadline)  # byte-compile and page in, untimed
        samples, probes = measure(args, workload, work, deadline)
        first = samples[0][2][0]
        attempted += workload.check(first, fails)
        others = [out for _, _, outs in samples for out in outs][1:]
        for out in others:
            for got, want in zip(out, first):
                attempted += 1
                if got != want:
                    fails.append("an output differs from the first cold output")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        failed = max(attempted, 1)
        print(json.dumps({"correct": False, "attempted": failed, "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [recs for traced, recs, _ in samples if not traced]
    colds = [recs[0] for recs in untraced]
    # circle-x400 samples hold one cold process, which then also counts as
    # its rerun: both metrics are the median over every process of the run
    reruns = [recs[-1] for recs in untraced]
    setups = [rec["setup"] for recs in untraced for rec in recs]
    walls = [r["wall"] for r in colds]
    rewalls = [r["wall"] for r in reruns]
    # the shared host runs the same work up to 1.8x faster or slower from
    # one minute to the next; a probe process of fixed work runs before
    # every sample, and the time metrics are divided by its median time
    # relative to PROBE_REF_S, so host drift between runs cancels while a
    # change of the program moves them in full
    host = statistics.median(probes) / PROBE_REF_S
    metrics: dict[str, float] = {
        "setup_s": statistics.median(setups) / host,
        "wall_s": statistics.median(walls) / host,
        "rerun_s": statistics.median(rewalls) / host,
        "peak_rss_mb": statistics.median(r["maxrss_kib"] / 1024 for r in colds),
    }
    print(f"host        {host:.4f}     (probe time {spread(probes)} s, over {PROBE_REF_S} s)")
    print(f"setup_s     {metrics['setup_s']:.4f} s   (raw {spread(setups)} processes)")
    print(f"wall_s      {metrics['wall_s']:.4f} s   (raw {spread(walls)} cold runs)")
    print(f"rerun_s     {metrics['rerun_s']:.4f} s   (raw {spread(rewalls)} reruns)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")

    wanted = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        layers = [
            layer_sample(recs, len(outs[0][0]) + len(outs[0][1]) if len(outs[0]) > 1 else 0)
            for traced, recs, outs in samples if traced
        ]
        counts = layers[0][1]
        attempted += len(layers) - 1
        for _, other, _ in layers[1:]:
            if other != counts:
                fails.append("layer counts differ between traced samples")
        traced_walls = [recs[0]["wall"] for traced, recs, _ in samples if traced]
        metrics = {name: statistics.median(s[0][name] for s in layers) for name in layers[0][0]}
        metrics.update(counts)
        metrics["bench.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        entered = layers[0][2]
        absent = sorted(m["name"] for m in spec["per_layer"] if is_absent(m["name"], entered))
        for name in absent:
            metrics[name] = 0
        print("absent (layer never entered, printed as 0): " + (", ".join(absent) or "none"))
        print(
            f"accounting (medians): layer self-times {metrics['bench.attributed_s']:.4f} s"
            f" + residual {metrics['bench.residual_s']:.4f} s;"
            f" traced wall {statistics.median(traced_walls):.4f} s"
            f" = untraced raw wall {statistics.median(walls):.4f} s"
            f" + trace overhead {metrics['bench.trace_overhead_s']:.4f} s"
        )

    failed = len(fails)
    for msg in fails[:20]:
        print(f"mismatch: {msg}", file=sys.stderr)
    print(f"failed_frac {failed / attempted:.6g}  ({failed} of {attempted} checked values)")
    out = {}
    for m in spec[wanted]:
        if m["name"] not in metrics:
            raise KeyError(f"metric {m['name']} is listed in BENCHMARK.json but not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
