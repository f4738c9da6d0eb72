"""Smoke runs of the experiment scripts, on small inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_window_scan_script():
    done = run_script("window_scan.py", "--system", "s-inf:h=3,s=2", "--hi", "60")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "n,count"
    assert lines[1:] and lines[-1].startswith("60,")
    assert done.stderr.startswith("window evidence: {")


def test_mh_table_report_script():
    done = run_script("mh_table_report.py", "--h", "2", "--scan-max", "60")
    assert done.returncode == 0, done.stderr
    rows = [line for line in done.stdout.splitlines() if line.startswith("(")]
    assert rows and all(": ok;" in row for row in rows)


def test_window_scan_script_reports_a_bad_spec_as_a_usage_error():
    for spec in ("bogus", "s-inf:h=3,s=2,t=1"):
        done = run_script("window_scan.py", "--system", spec, "--hi", "60")
        assert done.returncode == 2
        assert done.stdout == ""
        assert f"error: bad system spec {spec!r}" in done.stderr
        assert "Traceback" not in done.stderr


def test_differential_script_finds_no_mismatch_between_a_tree_and_itself():
    spec = importlib.util.spec_from_file_location(
        "differential", REPO / "scripts" / "differential.py")
    differential = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(differential)
    base = differential.load("multrep_aa_base", REPO / "src")
    head = differential.load("multrep_aa_head", REPO / "src")
    report = differential.compare(base, head, differential.corpus(differential.SEED, 3, 6))
    assert report["cases"] > 100 and report["raising"] > 0
    assert report["count_mismatches"] == report["type_mismatches"] == 0
    assert report["message_mismatches"] == 0
