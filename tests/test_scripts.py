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
