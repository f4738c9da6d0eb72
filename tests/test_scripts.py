"""An A/A run of the two-tree differential script, on a small corpus."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


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
