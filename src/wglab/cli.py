"""Command-line front end.

The subcommands map one-to-one onto the package operations, from the
interval sieve up to the full exceptional-set report.  Each is declared
once, in `build_parser`, with its flags and its `_cmd_*` handler; every
subcommand takes the common run flags of `_add_common`, each flag's dest the
`RunConfig` field it sets, and every handler takes (cfg, args), --y in args.
A run is configured by a flat key = value file (--config), overridden by
flags; the cache directory can also come from the WGLAB_CACHE_DIR variable.
Flag precedence: explicit flag > environment > config file > default.

Exit status: 0 on success, 1 on domain errors (printed as
"error[<code>]: <message>" on stderr) and on file errors (as
"error[io]: <message>"), 2 on usage errors.

All floats are printed with 12 significant digits so golden outputs are
stable across platforms.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Optional

import numpy as np

from .arcs import ArcDecomposition, ArcParams
from .arith import ProblemContext, admissible, modulus_R, sieve_interval
from .config import RunConfig, canonical_json, format_float, parse_config
from .errors import ParameterDomain, RangeTooLarge, WglabError
from .experiment import ExceptionalReport, PerNDetail, exceptional_scan, minor_arc_moment
from .expsums import ArcProfile, arc_profile, build_sequence, dichotomy_report, sup_scan
from .representations import moment, rho_mitm
from .singular_integral import j_integral
from .singular_series import SeriesTruncation, gauss_sum, truncated_sigma

_ENV_CACHE = "WGLAB_CACHE_DIR"

PLOT_KINDS = ("arc_profile", "ratio_histogram", "partial_sums")


# ---------------------------------------------------------------- plumbing


def _add_common(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("run configuration")
    g.add_argument("--config", help="flat key = value config file")
    g.add_argument("--k", type=int)
    g.add_argument("--s", type=int)
    g.add_argument("--theta", type=float)
    g.add_argument("--x", type=float)
    g.add_argument("--y", type=float, help="window half-width; implies theta = log y/log x")
    g.add_argument("--N", type=float, dest="N")
    g.add_argument("--A", type=float, dest="A")
    g.add_argument("--q0", type=int, dest="Q0")
    g.add_argument("--grid-size", type=int)
    g.add_argument("--batch-size", type=int)
    g.add_argument("--cache-dir")
    g.add_argument("--output", choices=("json", "csv"))
    g.add_argument("--threads", type=int)
    g.add_argument("--out", help="write results here instead of stdout")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Layer flags over environment over config file over defaults."""
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = RunConfig()
    values = dataclasses.asdict(cfg)
    env_cache = os.environ.get(_ENV_CACHE)
    if env_cache:
        values["cache_dir"] = env_cache
    if args.N is not None and args.x is not None:
        raise ParameterDomain("--N and --x are mutually exclusive")
    if args.N is not None:
        values["x"] = None
    if args.x is not None:
        values["N"] = None
    for name in values:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    if args.y is not None and values["x"] is None:
        raise ParameterDomain("--y needs --x")
    return RunConfig(**values)


def _context(cfg: RunConfig, args: argparse.Namespace) -> ProblemContext:
    if args.y is not None:
        return ProblemContext.from_parts(cfg.k, cfg.s, float(cfg.x), float(args.y))
    return cfg.context()


def _moment_scale(ctx: ProblemContext, t: int) -> float:
    """y^(t-1) x^(1-k), the size of j at s = t and of the t-th moment of
    |f|; refused when it leaves the positive floats."""
    try:
        scale = ctx.y ** (t - 1) * ctx.x ** (1 - ctx.k)
    except OverflowError:
        scale = math.inf
    if not (0 < scale < math.inf):
        raise RangeTooLarge(f"scale y^{t - 1} x^{1 - ctx.k} is out of float range at x={ctx.x}")
    return scale


def _params(cfg: RunConfig, args: argparse.Namespace, ctx: ProblemContext) -> ArcParams:
    P, Q = args.P, args.Q
    if (P is None) != (Q is None):
        raise ParameterDomain("--P and --Q must be given together")
    if P is not None:
        return ArcParams.explicit(P=P, Q=Q)
    return ArcParams.from_context(ctx, A=cfg.A)


def _csv_column(col) -> list[str]:
    """The CSV cells of one column: a numpy float, int or bool array in
    one pass, anything else value by value; floats at 12 significant
    digits, bools lowercase."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "fiub":
        values = col.tolist()
        if col.dtype.kind == "f":
            return [f"{v:.12g}" for v in values]
        if col.dtype.kind == "b":
            return ["true" if v else "false" for v in values]
        return [str(v) for v in values]

    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    return [cell(v) for v in col]


def csv_lines(header: list[str], columns: list) -> str:
    """CSV text of equal-length columns, one per header field."""
    rows = zip(*(_csv_column(col) for col in columns))
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    """(name, value) of every leaf of a list-free payload, nested dict
    keys joined by dots, sorted by key at each level."""
    items: list[tuple[str, object]] = []
    for key in sorted(payload, key=str):
        val = payload[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            items.extend(_flatten(val, prefix=f"{name}."))
        else:
            items.append((name, val))
    return items


def _emit(cfg: RunConfig, payload: dict, table: Optional[tuple[list[str], list]]) -> str:
    """Render a command result: JSON payload or the CSV view of it;
    table is (header, columns)."""
    if cfg.output == "csv":
        if table is not None:
            return csv_lines(*table)
        flat = _flatten(payload)
        return csv_lines([k for k, _ in flat], [[v] for _, v in flat])
    return canonical_json(payload)


# ------------------------------------------------------------- subcommands


def _cmd_sieve(cfg, args):
    primes = sieve_interval(args.lo, args.hi)
    return " ".join(str(p) for p in primes) + "\n"


def _cmd_admissible(cfg, args):
    ok = admissible(args.n, cfg.k, cfg.s)
    payload = {
        "n": args.n, "k": cfg.k, "s": cfg.s,
        "modulus": modulus_R(cfg.k), "admissible": ok,
    }
    return _emit(cfg, payload, None)


def _cmd_gauss_sum(cfg, args):
    g = gauss_sum(args.q, args.a, cfg.k)
    payload = {
        "q": g.q, "a": g.a, "k": g.k,
        "re": g.value.real, "im": g.value.imag, "abs": abs(g.value),
    }
    return _emit(cfg, payload, None)


def _cmd_sigma(cfg, args):
    # the truncated series depends on (n, k, s, q0) only; the context's
    # window scale is irrelevant here
    ctx = _context(cfg, args)
    tr = truncated_sigma(args.n, ctx, cfg.Q0)
    payload = {
        "n": tr.n, "k": tr.k, "s": tr.s, "q0": tr.q0,
        "value": tr.value, "terms_kept": len(tr.partials),
    }
    return _emit(cfg, payload, None)


def _cmd_jay(cfg, args):
    ctx = _context(cfg, args)
    val = j_integral(args.n, ctx)
    scale = _moment_scale(ctx, ctx.s)
    payload = {
        "n": args.n, "context": dataclasses.asdict(ctx),
        "value": val, "scale": scale, "normalized": val / scale,
    }
    return _emit(cfg, payload, None)


def _cmd_rho(cfg, args):
    ctx = _context(cfg, args)
    rec = rho_mitm([args.n], ctx)[0]
    payload = {"n": rec.n, "rho": rec.value, "tuple_count": rec.tuple_count}
    return _emit(cfg, payload, None)


def _cmd_moment(cfg, args):
    ctx = _context(cfg, args)
    return _emit(cfg, dataclasses.asdict(moment(args.t, ctx)), None)


def _cmd_arcs(cfg, args):
    ctx = _context(cfg, args)
    params = _params(cfg, args, ctx)
    decomp = ArcDecomposition.build(params)
    arcs = [dataclasses.asdict(m) for m in decomp.intervals]
    payload = {
        "P": params.P, "Q": params.Q, "A": params.A,
        "arc_count": len(arcs), "measure": decomp.measure(), "arcs": arcs,
    }
    fields = ["q", "a", "center", "half_width"]
    table = (fields, [[arc[f] for arc in arcs] for f in fields])
    return _emit(cfg, payload, table)


def _cmd_scan_sup(cfg, args):
    ctx = _context(cfg, args)
    params = _params(cfg, args, ctx)
    decomp = ArcDecomposition.build(params)
    seq = build_sequence(ctx, "prime_log")
    rep = sup_scan(seq, ctx.k, decomp, args.region, cfg.grid_size)
    payload = {
        "region": rep.region, "grid_size": rep.grid_size,
        "points_in_region": rep.points_in_region, "sup_abs": rep.sup_abs,
        "argmax_alpha": rep.argmax_alpha,
        "witness": dataclasses.asdict(rep.nearest_rational),
    }
    return _emit(cfg, payload, None)


def _cmd_dichotomy(cfg, args):
    ctx = _context(cfg, args)
    rep = dichotomy_report(ctx, args.rho, args.alpha)
    return _emit(cfg, dataclasses.asdict(rep), None)


def _report_summary(rep: ExceptionalReport) -> dict:
    """Every report field but ctx and per_n, and the exceptional fraction."""
    summary = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    del summary["ctx"], summary["per_n"]
    summary["exceptional_fraction"] = rep.exceptional_fraction()
    return summary


def per_n_table(rep: ExceptionalReport) -> tuple[list[str], list]:
    """(header, columns) of a scan's per-n stream, one per `PerNDetail` field."""
    header = [f.name for f in dataclasses.fields(PerNDetail)]
    if rep.per_n is None:
        return header, [[] for _ in header]
    return header, [getattr(rep.per_n, name) for name in header]


def _cmd_exceptional(cfg, args):
    ctx = _context(cfg, args)
    rep = exceptional_scan(ctx, cfg.Q0, cache_dir=cfg.cache_dir)
    payload = {"context": dataclasses.asdict(ctx), "summary": _report_summary(rep)}
    return _emit(cfg, payload, per_n_table(rep))


def _cmd_minor_moment(cfg, args):
    ctx = _context(cfg, args)
    params = _params(cfg, args, ctx)
    val = minor_arc_moment(ctx, params, args.t, cfg.grid_size, region=args.region)
    scale = _moment_scale(ctx, args.t)
    payload = {
        "t": args.t, "region": args.region, "grid_size": cfg.grid_size,
        "P": params.P, "Q": params.Q,
        "value": val, "scale": scale, "ratio_to_scale": val / scale,
    }
    return _emit(cfg, payload, None)


def _cmd_report(cfg, args):
    # refuse plot flags that do not fit together before any scan or write
    if args.plot and not args.plot_out:
        raise ParameterDomain("--plot needs --plot-out")
    if args.plot_out and not args.plot:
        raise ParameterDomain("--plot-out needs --plot")
    if args.plot_n is not None and args.plot != "partial_sums":
        raise ParameterDomain("--plot-n needs --plot partial_sums")
    ctx = _context(cfg, args)
    rep = exceptional_scan(ctx, cfg.Q0, cache_dir=cfg.cache_dir)
    parameters = dataclasses.asdict(cfg)
    del parameters["cache_dir"]
    stream_name = None
    if args.out:
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        stream_path = base + ".per-n.csv"
        with open(stream_path, "w", encoding="utf-8") as fh:
            fh.write(csv_lines(*per_n_table(rep)))
        stream_name = os.path.basename(stream_path)
    payload = {
        "schema_version": 1,
        "context": dataclasses.asdict(ctx),
        "parameters": parameters,
        "summary": _report_summary(rep),
        "per_n_stream": stream_name,
    }
    if args.plot:
        if args.plot == "ratio_histogram":
            table = ratio_histogram_table(rep)
        elif args.plot == "partial_sums":
            if args.plot_n is not None:
                n = args.plot_n
            elif rep.scanned:
                n = int(rep.per_n.n[0])
            else:
                raise ParameterDomain("no scanned n to plot; give --plot-n")
            table = partial_sums_table(truncated_sigma(n, ctx, cfg.Q0))
        else:  # arc_profile
            params = ArcParams.from_context(ctx, A=cfg.A)
            table = arc_profile_table(arc_profile(ctx, params, cfg.grid_size))
        with open(args.plot_out, "w", encoding="utf-8") as fh:
            fh.write(csv_lines(*table))
    return canonical_json(payload)


# -------------------------------------------------------------- plot data


def ratio_histogram_table(rep: ExceptionalReport) -> tuple[list[str], list]:
    """(header, columns) of a 20-bin histogram of a scan's finite
    count/main-term ratios; no rows when there are none."""
    header = ["bin_lo", "bin_hi", "count"]
    if rep.scanned:
        finite = rep.per_n.ratio[np.isfinite(rep.per_n.ratio)]
        if finite.size:
            counts, edges = np.histogram(finite, bins=20)
            return header, [edges[:-1], edges[1:], counts]
    return header, [[], [], []]


def partial_sums_table(tr: SeriesTruncation) -> tuple[list[str], list]:
    """(header, columns) of the singular series' kept terms and running sums."""
    return ["q", "a_q", "partial_sum"], [
        [q for q, _ in tr.partials],
        [a for _, a in tr.partials],
        [acc for _, acc in tr.trajectory()],
    ]


def arc_profile_table(profile: ArcProfile) -> tuple[list[str], list]:
    """(header, columns) of |f| over the grid, each point labelled by arc."""
    return ["alpha", "abs_f", "label"], [profile.alphas, profile.magnitudes, profile.labels]


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wglab",
        description="circle-method laboratory for prime powers from a short window",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p = command("sieve", _cmd_sieve, "primes in (lo, hi]")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = command("admissible", _cmd_admissible, "congruence admissibility of n")
    p.add_argument("--n", type=int, required=True)

    p = command("gauss-sum", _cmd_gauss_sum, "complete exponential sum S(q, a)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = command("sigma", _cmd_sigma, "truncated singular series at n")
    p.add_argument("--n", type=int, required=True)

    p = command("jay", _cmd_jay, "singular integral at n")
    p.add_argument("--n", type=int, required=True)

    p = command("rho", _cmd_rho, "exact weighted representation count of n")
    p.add_argument("--n", type=int, required=True)

    p = command("moment", _cmd_moment, "even moment of |f| over the circle")
    p.add_argument("--t", type=int, required=True)

    p = command("arcs", _cmd_arcs, "enumerate the major-arc family")
    p.add_argument("--P", type=float)
    p.add_argument("--Q", type=float)

    p = command("scan-sup", _cmd_scan_sup, "grid supremum of |f| over a region")
    p.add_argument("--region", choices=("major", "minor", "full"), default="minor")
    p.add_argument("--P", type=float)
    p.add_argument("--Q", type=float)

    p = command("dichotomy", _cmd_dichotomy, "short unit sum vs regime bounds at alpha")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)

    command("exceptional", _cmd_exceptional, "scan a window for main-term failures")

    p = command("minor-moment", _cmd_minor_moment, "Riemann estimate of a minor-arc moment")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--region", choices=("minor", "full"), default="minor")
    p.add_argument("--P", type=float)
    p.add_argument("--Q", type=float)

    p = command("report", _cmd_report, "full experiment report (JSON + per-n CSV)")
    p.add_argument("--plot", choices=PLOT_KINDS)
    p.add_argument("--plot-out")
    p.add_argument("--plot-n", type=int)

    # after each command's own flags, so --help lists them first
    for p in sub.choices.values():
        _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
        text = args.run(cfg, args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except WglabError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
