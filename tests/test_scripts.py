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


def test_ladder_rung_records_the_desk_scan(tmp_path):
    # one rung in this interpreter's stead: k=2, s=5, theta=0.8, x=400
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "ladder.py"),
         "--rung", "2", "5", "0.8", "400", "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["route"] == "lattice"
    assert record["targets"] == 2011
    assert abs(record["median_ratio"] - 0.7623) < 5e-5
    sha = record["report_sha256"]
    assert len(sha) == 64 and set(sha) <= set("0123456789abcdef")
