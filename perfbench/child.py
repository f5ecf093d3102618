"""One benchmark process: import wglab, run one workload command, report.

Run as `python3 perfbench/child.py SPEC` where SPEC is a JSON object:

    {"kind": "warmup" | "probe" | "report" | "circle", "trace": bool, ...}

* report: {"argv": [...]} is passed to `wglab.cli.main`, exactly as the
  `wglab` entry point would.
* circle: {"N", "grid", "nodes", "rho", "targets", "alphas", "out"} runs
  the public circle-side calls in process and writes their results to
  "out" as JSON.
* probe: fixed work that calls no wglab code; its time tells how fast the
  shared host runs at the moment.

The last line on stdout is a JSON record with monotonic clock readings
("ready" after the imports, "start"/"end" around the command), the peak
RSS of this process in KiB, and the layer trace when "trace" is set.
The peak is VmHWM of this address space: ru_maxrss would not do, because
Linux carries the launching process's peak over the exec into it.
The parent takes set-up time as ready minus its own launch reading, which
is valid because CLOCK_MONOTONIC is shared by all processes of a machine.
"""

import json
import sys
import time
import warnings

import numpy  # set-up covers the numpy import
import wglab.cli  # noqa: F401  (and the whole wglab package)

READY = time.monotonic()


def run_report(spec: dict) -> None:
    code = wglab.cli.main(spec["argv"])
    if code != 0:
        raise SystemExit(f"wglab report exited with {code}")


def run_circle(spec: dict) -> dict:
    from wglab import arcs, arith, experiment, expsums, representations

    ctx = arith.ProblemContext.from_scale(k=2, s=5, theta=0.8, N=spec["N"])
    params = arcs.ArcParams.from_context(ctx)
    grid = spec["grid"]
    decomp = arcs.ArcDecomposition.build(params)
    seq = expsums.build_sequence(ctx, "prime_log")
    sup = expsums.sup_scan(seq, ctx.k, decomp, "minor", grid)
    minor4 = experiment.minor_arc_moment(ctx, params, 4, grid)
    moment2 = representations.moment(2, ctx)
    with warnings.catch_warnings():
        # the quadrature's phase-jump diagnostic fires at this node count;
        # it is advice, not an error, and would only clutter stderr
        warnings.filterwarnings("ignore", message="arc quadrature under-resolved")
        quad = [
            experiment.major_arc_rho_numeric(n, ctx, params, nodes_per_arc=spec["nodes"])
            for n in spec["targets"]
        ]
    dich = [expsums.dichotomy_report(ctx, spec["rho"], a) for a in spec["alphas"]]
    return {
        "sup_scan": {
            "points_in_region": sup.points_in_region,
            "sup_abs": sup.sup_abs,
            "argmax_alpha": sup.argmax_alpha,
            "witness_q": sup.nearest_rational.q,
        },
        "minor_arc_moment": minor4,
        "moment2": moment2.value,
        "quadrature": quad,
        "dichotomy": [
            {
                "observed": d.observed,
                "bound_k1": d.bound_k1,
                "bound_k3": d.bound_k3,
                "q_bound": d.q_bound,
                "approx": None if d.approx is None else [d.approx.a, d.approx.q, d.approx.beta],
            }
            for d in dich
        ],
    }


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status")


def run_probe() -> None:
    """Interpreted integer and dict traffic, complex exponentials over a
    30 MB table, and random and streaming reads of a 64 MiB array: the
    kinds of work the workloads do, in and beyond the caches of one core,
    about 0.55 s of it on the development host."""
    rng = numpy.random.default_rng(0)
    big = rng.standard_normal(1 << 23)
    idx = rng.integers(0, big.size, 1 << 21)
    table: dict[int, int] = {}
    acc = 0
    for _ in range(400_000):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        table[acc & 4095] = table.get(acc & 4095, 0) + 1
    numpy.exp(2j * numpy.pi * numpy.outer(numpy.arange(1, 229), big[:8192])).sum(axis=0)
    for _ in range(2):
        big[idx].sum()
        (big * 1.0001).sum()


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod  # perfbench/ is sys.path[0] for a script

        tracer = tracer_mod.install()
    start = end = time.monotonic()
    results = None
    if spec["kind"] == "report":
        start = time.monotonic()
        run_report(spec)
        end = time.monotonic()
    elif spec["kind"] == "circle":
        start = time.monotonic()
        results = run_circle(spec)
        end = time.monotonic()
        with open(spec["out"], "w", encoding="utf-8") as fh:
            json.dump(results, fh, sort_keys=True)
    elif spec["kind"] == "probe":
        start = time.monotonic()
        run_probe()
        end = time.monotonic()
    elif spec["kind"] != "warmup":
        raise SystemExit(f"unknown kind {spec['kind']!r}")
    record = {
        "ready": READY,
        "start": start,
        "end": end,
        "maxrss_kib": peak_rss_kib(),
        "wglab_file": wglab.__file__,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
