"""BENCHMARK.json names exactly the workloads and metrics the driver reports.

    python3 -m pytest -q bench/test_manifest.py
"""

from __future__ import annotations

import json
from pathlib import Path

import run
from workloads import WORKLOADS

MANIFEST = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END
    assert max(m["bound"] for m in MANIFEST["end_to_end"]) == next(
        m["bound"] for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")


def test_per_layer_metrics_match():
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.PER_LAYER


def test_default_run_length_matches():
    assert MANIFEST["run_seconds"] == run.DEFAULT_SECONDS
