"""Smoke tests of the benchmark's traced child process, on a small circle
spec and on a small report run cold then warm: the tracer wraps package
attributes by name (`PhasePowers.phases`, `arcs.classify`,
`ArcDecomposition.build`, `rho_mitm`, `sigma_batch`, `j_array`,
`cache.load`, ...), so a rename in the package shows up here rather than
in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_child(spec: dict) -> dict:
    """Run perfbench/child.py on spec with tracing; its trace summary."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps({**spec, "trace": True})],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])["trace"]


def test_traced_circle_child(tmp_path):
    out = tmp_path / "circle.json"
    spec = {
        "kind": "circle", "N": 800_000, "grid": 1024, "nodes": 16,
        "rho": 0.25, "targets": [801125], "alphas": [0.25], "out": str(out),
    }
    trace = _traced_child(spec)
    assert trace["spans"]["expsums.sup_scan"][0] == 1
    assert trace["points"]["expsums.phases"][0] >= 1
    results = json.loads(out.read_text())
    assert results["sup_scan"]["points_in_region"] > 0
    assert len(results["quadrature"]) == 1


def test_traced_report_child_cold_then_warm(tmp_path):
    # k=2, s=3 takes the join route; the warm run reads the scan's columns
    # from the cache and computes no sigma
    def report(step):
        argv = ["report", "--k", "2", "--s", "3", "--x", "60", "--y", "60", "--q0", "60",
                "--threads", "1", "--out", str(tmp_path / f"{step}.json"),
                "--cache-dir", str(tmp_path / "cache")]
        return _traced_child({"kind": "report", "argv": argv})

    cold = report("cold")
    for name in ("representations.rho_mitm", "singular_series.sigma_batch",
                 "singular_integral.j_array", "cache.store"):
        assert cold["spans"][name][0] >= 1, name
    assert cold["counts"]["representations.join_probes"] > 0
    warm = report("warm")
    assert warm["counts"]["cache.hits"] == 1
    assert "singular_series.sigma_batch" not in warm["spans"]
