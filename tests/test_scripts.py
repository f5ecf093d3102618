import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_desk_experiment_writes_its_artifacts(tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPTS / "run_desk_experiment.py"),
         "--N", "20000", "--grid-size", "500", "--out-dir", str(tmp_path)],
        check=True, capture_output=True, timeout=120,
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["kind"] == "exceptional_scan"
    headers = {
        "per_n.csv": "n,rho,tuple_count,sigma,jay,ratio,flagged",
        "ratio_histogram.csv": "bin_lo,bin_hi,count",
        "arc_profile.csv": "alpha,abs_f,label",
        "partial_sums.csv": "q,a_q,partial_sum",
    }
    for name, header in headers.items():
        assert (tmp_path / name).read_text().splitlines()[0] == header


def test_explore_minor_arcs_reports_the_minor_sup():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "explore_minor_arcs.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    sup = [l for l in proc.stdout.splitlines() if l.startswith("sup over ")]
    assert len(sup) == 1
    assert " minor grid points: |f| = " in sup[0]
