"""Reduced-size runs of every workload pass every correctness check."""

import asyncio
import dataclasses
import json
import os

import pytest

from repro.core.pairs import Label

import run
from crowd_truth import TruthPlatform
from cycle import run_cycle
from layers import traced_run
from workloads import blocked_rounds, blocked_sequential, giant_instant

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _small(name):
    if name == "giant-instant":
        return giant_instant(0, n_objects=300, n_pairs=800, n_matching=6)
    make = blocked_rounds if name == "blocked-rounds" else blocked_sequential
    return make(0, n_blocks=2)


def _vectorized(workload):
    """The same small workload on the vectorized backend."""
    document = dict(workload.document, shard_threshold=1000)
    return dataclasses.replace(workload, document=document)


def _assert_passes(cycle, workload, backend):
    assert cycle.checks == {"done": True, "labels": True, "counts": True, "recovery": True}
    assert cycle.backend == backend
    assert cycle.n_pairs == workload.n_pairs
    assert 0 < cycle.crowd_pairs <= workload.n_pairs
    assert len(cycle.completion_stamps) == cycle.n_completions


@pytest.mark.parametrize("name", ["giant-instant", "blocked-rounds", "blocked-sequential"])
def test_small_cycle_passes_every_check(name, tmp_path):
    workload = _small(name)
    cycle = asyncio.run(run_cycle(workload, str(tmp_path / "cycle"), n_setups=2))
    _assert_passes(cycle, workload, "monolithic")
    assert len(cycle.setup_s) == 2
    assert not (tmp_path / "cycle").exists()


@pytest.mark.parametrize("name", ["blocked-rounds", "blocked-sequential"])
def test_small_vectorized_cycle_passes_every_check(name, tmp_path):
    pytest.importorskip("numpy")
    workload = _vectorized(_small(name))
    cycle = asyncio.run(run_cycle(workload, str(tmp_path / "cycle")))
    _assert_passes(cycle, workload, "vectorized")


def test_crowd_cost_repeats_for_a_seed(tmp_path):
    workload = _small("blocked-rounds")
    first = asyncio.run(run_cycle(workload, str(tmp_path / "a"), recover=False))
    second = asyncio.run(run_cycle(workload, str(tmp_path / "b"), recover=False))
    assert (first.crowd_pairs, first.crowd_hits, first.crowd_hours) == (
        second.crowd_pairs,
        second.crowd_hits,
        second.crowd_hours,
    )


def _declared(section):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[section]}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    workload = _small("giant-instant")
    cycle = asyncio.run(run_cycle(workload, str(tmp_path / "cycle")))
    metrics = run.end_to_end([cycle])
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    pytest.importorskip("numpy")
    workload = _vectorized(_small("blocked-rounds"))
    work = tmp_path / "work"
    metrics, cycles = asyncio.run(traced_run(workload, str(work)))
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert all(c.checks.get("recovery", True) for c in cycles)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["runtime.completions_n"] == cycles[1].n_completions
    assert value["journaling.replayed_n"] == cycles[1].n_completions
    assert value["engine.record_answer_n"] == cycles[1].crowd_pairs
    assert value["vectorized.frontier_share"] > 0
    assert value["journal.append_n"] > 0
    assert (tmp_path / "trace-blocked-rounds.tsv").exists()


def test_sequential_mode_never_calls_the_frontier(tmp_path):
    workload = _small("blocked-sequential")
    metrics, _ = asyncio.run(traced_run(workload, str(tmp_path / "work")))
    assert metrics["engine.frontier_n"]["value"] == 0
    assert metrics["journal.append_n"]["value"] > 0


def test_a_wrong_crowd_answer_fails_a_check(tmp_path, monkeypatch):
    truthful = TruthPlatform.answer
    flipped = []

    def lying(self, pair):
        label = truthful(self, pair)
        if not flipped and label is Label.MATCHING:
            flipped.append(pair)
            return Label.NON_MATCHING
        return label

    monkeypatch.setattr(TruthPlatform, "answer", lying)
    workload = _small("blocked-rounds")
    cycle = asyncio.run(run_cycle(workload, str(tmp_path / "cycle")))
    assert flipped
    assert cycle.checks["labels"] is False


def test_a_failed_campaign_still_reports(tmp_path, monkeypatch):
    def broken(self, pair):
        raise RuntimeError("the crowd is down")

    monkeypatch.setattr(TruthPlatform, "answer", broken)
    workload = _small("giant-instant")
    cycle = asyncio.run(run_cycle(workload, str(tmp_path / "cycle")))
    assert cycle.checks["done"] is False
    assert "recovery" not in cycle.checks
    assert cycle.recover_s is None
    metrics = run.end_to_end([cycle])
    assert "recover_s" not in metrics
    assert "setup_s" in metrics
