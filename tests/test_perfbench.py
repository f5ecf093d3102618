"""Smoke test of the benchmark's traced child process on a small circle
spec: the tracer wraps package attributes by name (`PhasePowers.phases`,
`arcs.classify`, `ArcDecomposition.build`), so a rename in the package
shows up here rather than in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_circle_child(tmp_path):
    out = tmp_path / "circle.json"
    spec = {
        "kind": "circle", "trace": True, "N": 800_000, "grid": 1024, "nodes": 16,
        "rho": 0.25, "targets": [801125], "alphas": [0.25], "out": str(out),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    trace = json.loads(proc.stdout.strip().splitlines()[-1])["trace"]
    assert trace["spans"]["expsums.sup_scan"][0] == 1
    assert trace["points"]["expsums.phases"][0] >= 1
    results = json.loads(out.read_text())
    assert results["sup_scan"]["points_in_region"] > 0
    assert len(results["quadrature"]) == 1
