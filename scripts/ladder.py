#!/usr/bin/env python3
"""Run the exceptional-set scan up the scale ladder and record each rung.

Each rung is two fresh interpreters that run `exceptional_scan` at
q0 = 400 with one new cache directory: the first cold, filling the
cache, the second warm, reading it.  The default ladder is k=2, s=5,
theta=0.8 at x = 400, 1000, 2000, 4000, plus k=3, s=7, x=60;
`--extra-x 8000` adds k=2 rungs and `--extra-k3-x 100 150` k=3, s=7
ones.  Per rung the record holds, for the cold process:

  * the stage times of the scan: prime window (inside rho), rho, sigma
    and j, taken by wrapping `arith.prime_window` and the names
    `experiment` looks up, and read as soon as the scan returns;
  * the rho route the cost rule took ("lattice" or "mitm");
  * the peak RSS of the process (VmHWM);
  * the seconds `wglab.csvtext.write_csv` takes to write the per-n stream
    (`per_n_table`) to a temporary file, and the process VmHWM right
    after that write;
  * output_sha256, the scan's fingerprint: the sha256 of what
    `wglab exceptional` prints (`canonical_json` of `exceptional_payload`)
    followed by the per-n stream just written, the bytes of the
    `.per-n.csv` that `wglab report` writes, every float at 12
    significant digits (see `fingerprint`);
  * the report's median rho/(sigma j);
  * the median rho/(sigma j) over the represented targets (rho > 0)
    and the share of targets with rho = 0: where most targets have no
    representation (k=3, x=60) the report's median is 0.0 and says
    nothing about the main term;
  * or, when the scan refuses, its error code and message;

and under "rerun" the warm process's scan seconds, its stage times (zero
when the cache served the columns), its stream-write seconds and whether
its output_sha256 equals the cold one.

The records go into the `--label` entry of `--out` (BENCH_ladder.json by
default); other labels already in that file are kept, and so are the
label's records of rungs not run this time.  Each rung runs under an
address-space limit of MEM_LIMIT_GB, so a scan that outgrows its budget
fails inside its own process.

    python3 scripts/ladder.py --label after
    python3 scripts/ladder.py --label after --extra-x 8000
    python3 scripts/ladder.py --label after --extra-k3-x 100 150
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

LADDER = [(2, 5, 0.8, x) for x in (400, 1000, 2000, 4000)] + [(3, 7, 0.8, 60)]
Q0 = 400
MEM_LIMIT_GB = 6


def _vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def fingerprint(rep, stream: Path) -> str:
    """sha256 of the scan's JSON payload, as `wglab exceptional` prints
    it, followed by the bytes of its per-n stream file."""
    from wglab.cli import exceptional_payload
    from wglab.config import canonical_json

    digest = hashlib.sha256(canonical_json(exceptional_payload(rep)).encode())
    with open(stream, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def run_rung(k: int, s: int, theta: float, x: int, cache_dir=None) -> dict:
    """One scan in this process, against cache_dir when given; the
    record described above."""
    from wglab import arith, experiment, representations
    from wglab.arith import ProblemContext
    from wglab.cli import per_n_table
    from wglab.csvtext import write_csv
    from wglab.errors import WglabError

    stages = {"prime_window": 0.0, "rho": 0.0, "sigma": 0.0, "j": 0.0}

    def timed(module, name, stage):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stages[stage] += time.perf_counter() - t0

        setattr(module, name, wrapper)

    timed(arith, "prime_window", "prime_window")
    timed(experiment, "rho_scan", "rho")
    timed(experiment, "sigma_batch", "sigma")
    timed(experiment, "j_array", "j")

    ctx = ProblemContext.from_scale(k, s, theta, s * x ** k)
    record = {"k": k, "s": s, "theta": theta, "x": x, "N": ctx.N, "q0": Q0}
    t0 = time.perf_counter()
    try:
        rep = experiment.exceptional_scan(ctx, Q0, cache_dir=cache_dir)
    except WglabError as exc:
        record.update(error=exc.code, message=exc.message)
        record["peak_rss_mb"] = round(_vm_hwm_mb(), 1)
        return record
    scan_s = time.perf_counter() - t0
    stages_s = {name: round(v, 4) for name, v in stages.items()}
    peak_rss_mb = round(_vm_hwm_mb(), 1)
    with tempfile.TemporaryDirectory(prefix="wglab-ladder-stream-") as tmp:
        stream = Path(tmp) / "per-n.csv"
        t0 = time.perf_counter()
        write_csv(stream, *per_n_table(rep))
        stream_s = time.perf_counter() - t0
        stream_peak_rss_mb = round(_vm_hwm_mb(), 1)
        output_sha256 = fingerprint(rep, stream)
    ns = rep.per_n.n
    rho, ratio = rep.per_n.rho, rep.per_n.ratio
    represented = (rho > 0) & np.isfinite(ratio)
    record.update(
        targets=rep.scanned,
        route=representations.rho_route(ctx, int(ns[0]), int(ns[-1])),
        scan_s=round(scan_s, 3),
        stages_s=stages_s,
        peak_rss_mb=peak_rss_mb,
        stream_s=round(stream_s, 3),
        stream_peak_rss_mb=stream_peak_rss_mb,
        output_sha256=output_sha256,
        median_ratio=rep.ratios.median,
        median_ratio_represented=(
            float(np.median(ratio[represented])) if represented.any() else None
        ),
        zero_rho_share=float(np.mean(rho == 0)),
    )
    return record


def _run_process(rung, cache_dir: str) -> dict:
    """Run one rung in a fresh interpreter and return its record."""
    limit = MEM_LIMIT_GB * 2 ** 30

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = [sys.executable, __file__, "--rung", *map(str, rung), "--cache-dir", cache_dir]
    proc = subprocess.run(argv, capture_output=True, text=True, preexec_fn=cap)
    if proc.returncode != 0:
        k, s, theta, x = rung
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"k": k, "s": s, "theta": theta, "x": x,
                "error": f"exit {proc.returncode}", "message": tail[0]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn(rung) -> dict:
    """The cold process of a rung, then the warm one over its cache."""
    with tempfile.TemporaryDirectory(prefix="wglab-ladder-") as cache_dir:
        record = _run_process(rung, cache_dir)
        if "error" in record:
            return record
        warm = _run_process(rung, cache_dir)
    if "error" in warm:
        record["rerun"] = {"error": warm["error"], "message": warm["message"]}
    else:
        record["rerun"] = {
            "scan_s": warm["scan_s"],
            "stages_s": warm["stages_s"],
            "stream_s": warm["stream_s"],
            "same_output": warm["output_sha256"] == record["output_sha256"],
        }
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="current", help="entry of the output file")
    ap.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    ap.add_argument("--extra-x", type=int, nargs="*", default=[],
                    help="more k=2, s=5, theta=0.8 rungs")
    ap.add_argument("--extra-k3-x", type=int, nargs="*", default=[],
                    help="more k=3, s=7, theta=0.8 rungs")
    ap.add_argument("--rung", nargs=4, help=argparse.SUPPRESS)
    ap.add_argument("--cache-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.rung:
        k, s, theta, x = args.rung
        print(json.dumps(run_rung(int(k), int(s), float(theta), int(x), args.cache_dir)))
        return 0

    rungs = (
        LADDER
        + [(2, 5, 0.8, x) for x in args.extra_x]
        + [(3, 7, 0.8, x) for x in args.extra_k3_x]
    )
    records = []
    for rung in rungs:
        rec = spawn(rung)
        print(json.dumps(rec), flush=True)
        records.append(rec)
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    run = {(r["k"], r["s"], r["theta"], r["x"]) for r in records}
    kept = [
        r for r in doc.get(args.label, {}).get("rungs", [])
        if (r["k"], r["s"], r["theta"], r["x"]) not in run
    ]
    rungs_out = sorted(kept + records, key=lambda r: (r["k"], r["x"]))
    doc[args.label] = {"q0": Q0, "rungs": rungs_out}
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
