"""The benchmark's own tests, on tiny corpora.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file is named so that a plain ``pytest`` run of the repository does not
collect it; pass the path explicitly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from ragvqa import corpus, primdb  # noqa: E402

TINY = corpus.SynthConfig(
    categories=("dog", "cat", "bird", "car", "tree", "ball"),
    attributes=("white", "black", "red"),
    n_train=200,
    n_val=120,
)


@pytest.fixture(autouse=True)
def small_splits(monkeypatch):
    # the tiny corpora fill only a few samples per split
    monkeypatch.setattr(workloads, "N_PER_SPLIT", 3)


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], synth=TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    metrics, extra, tally = workloads.run(tiny(name), seed=1, seconds=0, trace=False)
    assert tally.failed == 0, tally.notes
    assert tally.attempted > 0
    assert list(metrics) == [metric for metric, _, _ in workloads.END_TO_END]
    assert all(np.isfinite(value) and value != 0 for value in metrics.values())
    assert extra["retrieval_spot_check"] == "ok"


def test_traced_run_sees_every_training_step():
    w = tiny("rag-train")
    metrics, extra, tally = workloads.run(w, seed=1, seconds=0, trace=True)
    assert tally.failed == 0, tally.notes
    assert list(metrics) == [metric for metric, _, _ in workloads.PER_LAYER]
    assert metrics["model.loss_and_grads.calls"] == workloads.EPOCHS * TINY.n_train
    assert metrics["primdb.retrieve.calls"] == metrics["ragtrain.retrieval_rounds"] > 0
    assert extra["absent"] == []
    spans = np.load(workloads.ROOT / extra["spans_file"])
    assert len(spans["start"]) == extra["spans"]
    in_train = spans["step"] >= 0
    assert spans["step"][in_train].max() == workloads.EPOCHS * TINY.n_train - 1


def test_wrong_oracle_answer_is_counted(monkeypatch):
    real = workloads.oracle_top_k

    def off_by_one(*args, **kwargs):
        ordinals, sims = real(*args, **kwargs)
        return ordinals + 1, sims - 0.5

    monkeypatch.setattr(workloads, "oracle_top_k", off_by_one)
    _metrics, extra, tally = workloads.run(tiny("plain-train"), seed=1, seconds=0, trace=False)
    assert extra["retrieval_spot_check"] == "mismatch"
    assert tally.failed == 2 * workloads.SPOT_CHECK_QUERIES


def test_deleted_functions_are_reported_absent(monkeypatch):
    # ragtrain keeps its own bindings, so training still runs
    monkeypatch.delattr(primdb, "cosine")
    monkeypatch.delattr(primdb, "retrieve")
    metrics, extra, tally = workloads.run(tiny("rag-train"), seed=1, seconds=0, trace=True)
    assert tally.failed == 0, tally.notes
    assert set(extra["absent"]) == {"primdb.cosine", "primdb.retrieve"}
    assert extra["retrieval_spot_check"] == "absent"
    assert metrics["primdb.cosine.calls"] == metrics["primdb.retrieve.calls"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        workloads.PER_LAYER
    )
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
