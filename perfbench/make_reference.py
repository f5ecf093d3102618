#!/usr/bin/env python3
"""Write perfbench/reference/ from the program as it stands.

    python3 perfbench/make_reference.py

The reference holds what the benchmark checks every run against: the
report JSON and per-n CSV (xz-compressed, verbatim) of each report
workload, and for circle-x400 the pools of quadrature targets and
dichotomy alphas the seed draws from, with the results for every pool
entry.  Regenerate it only at a commit whose answers are trusted: a
reference rewritten from a changed program checks nothing.
"""

import json
import lzma
import math
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

POOL = 32
POOL_SEED = 2204


def circle_pools() -> tuple[list[int], list[float], int]:
    sys.path.insert(0, str(run.ROOT / "src"))
    from wglab.arith import ProblemContext, admissible

    ctx = ProblemContext.from_scale(k=2, s=5, theta=0.8, N=run.CIRCLE["N"])
    n_lo = int(ctx.N) + 1
    n_hi = int(ctx.N + ctx.window_width)
    rng = random.Random(POOL_SEED)
    targets = sorted(rng.sample([n for n in range(n_lo, n_hi + 1) if admissible(n, 2, 5)], POOL))
    # half the alphas uniform, half just off a/q with q <= 10, where the
    # dichotomy finds a rational witness and the second bound applies
    alphas = [rng.random() for _ in range(POOL // 2)]
    while len(alphas) < POOL:
        q = rng.randint(2, 10)
        a = rng.randint(1, q - 1)
        if math.gcd(a, q) == 1:
            alphas.append(a / q + rng.uniform(-1e-5, 1e-5))
    return targets, alphas, POOL // 2


def main() -> None:
    run.REFERENCE.mkdir(exist_ok=True)
    deadline = time.monotonic() + 3600
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for name in run.REPORTS:
            wl = run.Report(name)
            sample = work / name
            sample.mkdir()
            run.launch(wl.spec(sample, "cold", False), deadline)
            report, per_n = wl.outputs(sample, "cold")
            (run.REFERENCE / f"{name}.json").write_bytes(report)
            (run.REFERENCE / f"{name}.per-n.csv.xz").write_bytes(
                lzma.compress(per_n, preset=9 | lzma.PRESET_EXTREME)
            )
        targets, alphas, rational_from = circle_pools()
        spec = {"kind": "circle", **run.CIRCLE, "trace": False, "out": str(work / "circle.json"),
                "targets": targets, "alphas": alphas}
        run.launch(spec, deadline)
        results = json.loads((work / "circle.json").read_text())
        ref = {**run.CIRCLE, "targets": targets, "alphas": alphas, "rational_from": rational_from,
               "results": results}
        (run.REFERENCE / "circle-x400.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
