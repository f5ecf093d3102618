import dataclasses
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wglab.arith import ProblemContext
from wglab.cli import exceptional_payload, per_n_table
from wglab.config import canonical_json
from wglab.csvtext import write_csv
from wglab.experiment import exceptional_scan

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_desk_experiment_writes_its_artifacts(tmp_path):
    subprocess.run(
        [sys.executable, str(SCRIPTS / "run_desk_experiment.py"),
         "--N", "20000", "--grid-size", "500", "--out-dir", str(tmp_path)],
        check=True, capture_output=True, timeout=120,
    )
    report = json.loads((tmp_path / "report.json").read_text())
    # the payload `wglab exceptional` prints; the per-n columns are in the CSV
    assert sorted(report) == ["context", "kind", "per_n_stream", "summary"]
    assert report["kind"] == "exceptional_scan"
    assert report["per_n_stream"] == "per_n.csv"
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
    assert record["stream_s"] > 0
    assert record["stream_peak_rss_mb"] >= record["peak_rss_mb"]
    sha = record["output_sha256"]
    assert len(sha) == 64 and set(sha) <= set("0123456789abcdef")


def _load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", SCRIPTS / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_extra_rungs_join_the_label(tmp_path, monkeypatch):
    ladder = _load_ladder()
    spawned = []

    def fake_spawn(rung):
        spawned.append(rung)
        k, s, theta, x = rung
        return {"k": k, "s": s, "theta": theta, "x": x, "scan_s": 0.0}

    monkeypatch.setattr(ladder, "spawn", fake_spawn)
    out = tmp_path / "ladder.json"
    kept = {"k": 3, "s": 7, "theta": 0.8, "x": 200, "scan_s": 9.0}
    out.write_text(json.dumps({"t": {"q0": 400, "rungs": [kept]}}))
    argv = ["--label", "t", "--out", str(out), "--extra-x", "8000",
            "--extra-k3-x", "100", "150"]
    assert ladder.main(argv) == 0
    assert spawned == ladder.LADDER + [(2, 5, 0.8, 8000), (3, 7, 0.8, 100), (3, 7, 0.8, 150)]
    rungs = json.loads(out.read_text())["t"]["rungs"]
    assert [(r["k"], r["x"]) for r in rungs] == [
        (2, 400), (2, 1000), (2, 2000), (2, 4000), (2, 8000),
        (3, 60), (3, 100), (3, 150), (3, 200),
    ]
    assert rungs[-1] == kept


def test_ladder_rung_k3_x60_report_is_unchanged(tmp_path):
    # the k=3, s=7 join-route rung; the pinned fingerprint holds every
    # byte of its CLI output fixed (it moved from 753c193f... when j came
    # from cell moments, whose jay agrees with the exact convolution to
    # 1.2e-15 where the walk over cell widths was off by 3.2e-11)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "ladder.py"),
         "--rung", "3", "7", "0.8", "60", "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (record["route"], record["targets"]) == ("mitm", 42329)
    assert record["output_sha256"] == (
        "0e5612dc8ae3ca40426043de3ab6f98a1271a08d57595893994b68857dcccc82"
    )


class TestLadderFingerprint:
    """The fingerprint reads what `wglab exceptional` prints and the
    per-n stream's text, so any change to either flips it."""

    @staticmethod
    def _fingerprint(rep, tmp_path):
        stream = tmp_path / "per-n.csv"
        write_csv(stream, *per_n_table(rep))
        return _load_ladder().fingerprint(rep, stream), stream.read_bytes()

    @pytest.fixture
    def rep(self):
        return exceptional_scan(ProblemContext.from_parts(2, 3, 40.0, 15.0), q0=80)

    def test_is_the_sha256_of_both_outputs(self, rep, tmp_path):
        sha, stream = self._fingerprint(rep, tmp_path)
        text = canonical_json(exceptional_payload(rep)).encode() + stream
        assert sha == hashlib.sha256(text).hexdigest()

    def test_a_per_n_cell_flips_it(self, rep, tmp_path):
        sha, stream = self._fingerprint(rep, tmp_path)
        sigma = rep.per_n.sigma.copy()
        sigma[3] = np.nextafter(sigma[3], np.inf)  # below the 12 printed digits
        same = dataclasses.replace(rep, per_n=dataclasses.replace(rep.per_n, sigma=sigma))
        assert self._fingerprint(same, tmp_path) == (sha, stream)
        sigma[3] *= 1 + 1e-9  # the 10th digit moves
        moved = dataclasses.replace(rep, per_n=dataclasses.replace(rep.per_n, sigma=sigma))
        new_sha, new_stream = self._fingerprint(moved, tmp_path)
        assert new_stream != stream and new_sha != sha

    def test_a_summary_field_flips_it(self, rep, tmp_path):
        sha, _ = self._fingerprint(rep, tmp_path)
        moved = dataclasses.replace(rep, exceptional_one_sided=rep.exceptional_one_sided + 1)
        assert self._fingerprint(moved, tmp_path)[0] != sha
