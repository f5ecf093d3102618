#!/usr/bin/env python3
"""Run the desk-scale exceptional-set experiment end to end.

Scans every admissible target in the window attached to the configured
scale, compares each count against its predicted main term, and writes a
deterministic JSON report plus plot-ready CSV files (and PNG renderings
when matplotlib is importable) into the output directory.

Typical invocation, using the defaults (k=2, s=5, theta=0.8, N=800000):

    python3 scripts/run_desk_experiment.py --out-dir results/desk
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wglab.arcs import ArcParams
from wglab.arith import ProblemContext
from wglab.cli import (
    arc_profile_table,
    csv_lines,
    partial_sums_table,
    per_n_table,
    ratio_histogram_table,
)
from wglab.config import canonical_json
from wglab.experiment import exceptional_scan
from wglab.expsums import arc_profile
from wglab.singular_series import truncated_sigma


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--s", type=int, default=5)
    ap.add_argument("--theta", type=float, default=0.8)
    ap.add_argument("--N", type=int, default=800_000)
    ap.add_argument("--q0", type=int, default=400, help="singular-series truncation")
    ap.add_argument("--grid-size", type=int, default=2000, help="arc-profile resolution")
    ap.add_argument("--cache-dir", default=None, help="reuse the cached scan columns")
    ap.add_argument("--out-dir", default="results/desk")
    return ap.parse_args(argv)


def render_pngs(out: Path, rep, profile) -> list[str]:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return []

    written = []
    if rep.scanned:
        finite = rep.per_n.ratio[np.isfinite(rep.per_n.ratio)]
        fig, ax = plt.subplots(figsize=(7, 4))
        ax.hist(finite, bins=40, color="#4878d0", edgecolor="white")
        ax.axvline(1.0, color="#d65f5f", linestyle="--", label="predicted ratio 1")
        ax.set_xlabel("count / main term")
        ax.set_ylabel("targets")
        ax.legend()
        fig.tight_layout()
        fig.savefig(out / "ratio_histogram.png", dpi=130)
        plt.close(fig)
        written.append("ratio_histogram.png")

    fig, ax = plt.subplots(figsize=(8, 4))
    colors = {"major": "#d65f5f", "minor": "#4878d0"}
    pts = np.array([colors[lab] == "#d65f5f" for lab in profile.labels])
    ax.plot(profile.alphas, profile.magnitudes, lw=0.5, color="#aaaaaa")
    ax.scatter(
        profile.alphas[pts], profile.magnitudes[pts], s=4, color=colors["major"],
        label="major", zorder=3,
    )
    ax.set_xlabel("alpha")
    ax.set_ylabel("|f(alpha)|")
    ax.set_yscale("log")
    ax.legend(loc="upper right")
    fig.tight_layout()
    fig.savefig(out / "arc_profile.png", dpi=130)
    plt.close(fig)
    written.append("arc_profile.png")
    return written


def main(argv=None) -> int:
    args = parse_args(argv)
    ctx = ProblemContext.from_scale(args.k, args.s, args.theta, args.N)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rep = exceptional_scan(ctx, q0=args.q0, cache_dir=args.cache_dir)

    (out / "report.json").write_text(
        canonical_json({"kind": "exceptional_scan", "q0": args.q0, "report": rep})
    )
    (out / "per_n.csv").write_text(csv_lines(*per_n_table(rep)))
    (out / "ratio_histogram.csv").write_text(csv_lines(*ratio_histogram_table(rep)))

    params = ArcParams.from_context(ctx)
    profile = arc_profile(ctx, params, args.grid_size)
    (out / "arc_profile.csv").write_text(csv_lines(*arc_profile_table(profile)))

    # partial-sum trajectory for the scanned target nearest the window center
    if rep.scanned:
        mid = rep.window[0] + (rep.window[1] - rep.window[0]) // 2
        n_star = int(rep.per_n.n[np.argmin(np.abs(rep.per_n.n - mid))])
        table = partial_sums_table(truncated_sigma(n_star, ctx, args.q0))
        (out / "partial_sums.csv").write_text(csv_lines(*table))

    pngs = render_pngs(out, rep, profile)

    print(f"window ({rep.window[0]}, {rep.window[1]}], scanned {rep.scanned}")
    print(
        f"exceptional {rep.exceptional} ({rep.exceptional_fraction():.2%}), "
        f"one-sided excess {rep.exceptional_one_sided}, "
        f"threshold {rep.threshold:.6g}"
    )
    if rep.ratios is not None:
        r = rep.ratios
        print(f"count/main-term ratio: min {r.min:.4f} median {r.median:.4f} max {r.max:.4f}")
        # a clean window at this scale keeps the median near
        # (pi(x+y)-pi(x-y))ln(x)/(2y) in the fifth power; print it for context
        density = ctx.y * 2 / math.log(ctx.x)
        print(f"(window holds about {density:.0f} primes over width {2 * ctx.y:.0f})")
    print(f"artifacts in {out}/: report.json per_n.csv + {3 + len(pngs)} plot files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
