"""The traced run: per-layer metrics named after the modules they time.

:func:`traced_run` first runs one untraced campaign (the base of
``trace.overhead_ratio``), then one full cycle with :func:`probes`
installed.  Layer metrics come from the traced cycle's spans:

* most are taken over the **campaign** phase (``create()`` returning to
  ``done``), the window ``labels_per_s`` and ``answer_ms_*`` measure;
* ``spec.*`` over the **setup** phase (the one traced set-up);
* ``journal.read_s`` and ``journaling.replayed_n`` over the **recover**
  phase, the only one that reads the journal.

``<layer>.<function>_s`` is the inclusive time of the calls, except
``journal.append_s``, which excludes the fsync an append triggers (that
is ``journal.fsync_s``).  ``<layer>.self_s`` is self time: span duration
minus the time child spans cover.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.crowd.clients import InMemoryCrowdBackend, PollingPlatformClient
from repro.engine.async_dispatch import CrowdRuntime
from repro.engine.engine import LabelingEngine
from repro.engine.frontier import FrontierCursor, OptimisticGraph
from repro.engine.hit_adapter import HITDispatchAdapter
from repro.engine.vectorized import VectorizedEngineCore
from repro.service.journal import Journal
from repro.service.journaling import JournalingPlatformClient
from repro.spec import CampaignSpec

from cycle import Cycle, run_cycle
from spans import Probe, SpanRecorder, instrument, self_times
from workloads import Workload


def probes(recorder: SpanRecorder) -> List[Probe]:
    """Every wrapped public function, by layer (module) name."""
    count = recorder.count

    def replayed(args, result, was_replaying) -> None:
        if was_replaying and result is not None:
            count("journaling.replayed")

    def fetched(args, result, state) -> None:
        if not result:
            count("clients.empty_fetch")

    def rescued(args, result, buffered_before) -> None:
        count("hit_adapter.rescued", buffered_before - len(args[0].buffered))

    return [
        Probe(CampaignSpec, "from_dict", "spec.decode"),
        Probe(CampaignSpec, "build_engine", "spec.build_engine"),
        Probe(Journal, "append", "journal.append"),
        Probe(Journal, "flush", "journal.fsync"),
        Probe(Journal, "read", "journal.read"),
        Probe(
            JournalingPlatformClient, "next_event", "journaling.next_event",
            before=lambda args: args[0].replaying, after=replayed,
        ),
        Probe(JournalingPlatformClient, "submit_pairs", "journaling.submit_pairs"),
        Probe(
            JournalingPlatformClient, "take_replay_completion",
            "journaling.take_replay_completion",
            before=lambda args: True, after=replayed,
        ),
        Probe(PollingPlatformClient, "next_event", "clients.next_event"),
        Probe(PollingPlatformClient, "submit_pairs", "clients.submit_pairs"),
        Probe(InMemoryCrowdBackend, "create_hits", "crowd_fake.create_hits"),
        Probe(
            InMemoryCrowdBackend, "fetch_completed", "crowd_fake.fetch_completed",
            after=fetched,
        ),
        Probe(InMemoryCrowdBackend, "expire_hit", "crowd_fake.expire_hit"),
        Probe(CrowdRuntime, "run", "runtime.run"),
        Probe(HITDispatchAdapter, "select_new", "hit_adapter.select_new"),
        Probe(
            HITDispatchAdapter, "sweep", "hit_adapter.sweep",
            before=lambda args: len(args[0].buffered), after=rescued,
        ),
        Probe(
            LabelingEngine, "frontier", "engine.frontier",
            after=lambda args, result, state: count("engine.frontier_pairs", len(result)),
        ),
        Probe(LabelingEngine, "record_answer", "engine.record_answer"),
        Probe(
            LabelingEngine, "sweep", "engine.sweep",
            after=lambda args, result, state: count("engine.sweep_resolved", len(result)),
        ),
        Probe(LabelingEngine, "publish", "engine.publish"),
        Probe(LabelingEngine, "withhold", "engine.withhold"),
        Probe(FrontierCursor, "select", "frontier.select"),
        Probe(
            OptimisticGraph, "assume_matching", "frontier.assume_matching",
            count_only=True,
        ),
        Probe(VectorizedEngineCore, "frontier", "vectorized.frontier"),
        Probe(VectorizedEngineCore, "sweep", "vectorized.sweep"),
    ]


class _Totals:
    """Per-(context, span name) call count, inclusive and self seconds."""

    def __init__(self, recorder: SpanRecorder) -> None:
        selfs = self_times(recorder.start, recorder.end, recorder.parent)
        self.n: Dict[Tuple[str, str], int] = defaultdict(int)
        self.total: Dict[Tuple[str, str], float] = defaultdict(float)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.cursor_fallbacks: Dict[str, int] = defaultdict(int)
        names = recorder.names
        for i, name, start, end, parent, context in recorder.spans():
            key = (context, name)
            self.n[key] += 1
            self.total[key] += end - start
            self.self_s[key] += selfs[i]
            if (
                name == "frontier.select"
                and parent >= 0
                and names[recorder.name_id[parent]] == "vectorized.frontier"
            ):
                self.cursor_fallbacks[context] += 1


def layer_metrics(
    recorder: SpanRecorder, traced: Cycle, untraced: Cycle
) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics of the traced cycle (see the module docstring)."""
    totals = _Totals(recorder)
    live = f"{traced.campaign_id}/campaign"
    recover = f"{traced.campaign_id}/recover"

    def n(name: str) -> int:
        return totals.n[(live, name)]

    def total(name: str, context: str = live) -> float:
        return totals.total[(context, name)]

    def self_s(*names: str) -> float:
        return sum(totals.self_s[(live, name)] for name in names)

    def counter(name: str, context: str = live) -> int:
        return recorder.counters.get((context, name), 0)

    fetches = n("crowd_fake.fetch_completed")
    frontier_calls = n("engine.frontier")
    journal_write = self_s("journal.append") + total("journal.fsync")
    values = {
        "spec.decode_s": (total("spec.decode", "setup"), "s"),
        "spec.build_engine_s": (total("spec.build_engine", "setup"), "s"),
        "journal.append_n": (n("journal.append"), "count"),
        "journal.append_s": (self_s("journal.append"), "s"),
        "journal.fsync_n": (n("journal.fsync"), "count"),
        "journal.fsync_s": (total("journal.fsync"), "s"),
        "journal.read_s": (total("journal.read", recover), "s"),
        "journal.bytes_per_pair": (traced.journal_bytes / traced.n_pairs, "B/pair"),
        "journal.write_share": (journal_write / traced.campaign_s, "ratio"),
        "journaling.self_s": (
            self_s(
                "journaling.next_event",
                "journaling.submit_pairs",
                "journaling.take_replay_completion",
            ),
            "s",
        ),
        "journaling.replayed_n": (counter("journaling.replayed", recover), "count"),
        "clients.self_s": (
            self_s("clients.next_event", "clients.submit_pairs"), "s"
        ),
        "clients.fetch_n": (fetches, "count"),
        "clients.empty_fetch_ratio": (
            counter("clients.empty_fetch") / fetches if fetches else 0.0, "ratio"
        ),
        "crowd_fake.s": (
            total("crowd_fake.create_hits")
            + total("crowd_fake.fetch_completed")
            + total("crowd_fake.expire_hit"),
            "s",
        ),
        "runtime.self_s": (self_s("runtime.run"), "s"),
        "runtime.completions_n": (traced.n_completions, "count"),
        "runtime.publish_n": (traced.n_publishes, "count"),
        "hit_adapter.select_new_s": (total("hit_adapter.select_new"), "s"),
        "hit_adapter.rescued_n": (counter("hit_adapter.rescued"), "count"),
        "engine.frontier_n": (frontier_calls, "count"),
        "engine.frontier_s": (total("engine.frontier"), "s"),
        "engine.frontier_pairs_per_call": (
            counter("engine.frontier_pairs") / frontier_calls
            if frontier_calls
            else 0.0,
            "pairs/call",
        ),
        "engine.record_answer_n": (n("engine.record_answer"), "count"),
        "engine.record_answer_s": (total("engine.record_answer"), "s"),
        "engine.sweep_n": (n("engine.sweep"), "count"),
        "engine.sweep_s": (total("engine.sweep"), "s"),
        "engine.sweep_resolved_n": (counter("engine.sweep_resolved"), "count"),
        "engine.publish_s": (total("engine.publish"), "s"),
        "engine.withhold_s": (total("engine.withhold"), "s"),
        "frontier.select_n": (n("frontier.select"), "count"),
        "frontier.select_s": (total("frontier.select"), "s"),
        "frontier.select_share": (
            self_s("frontier.select") / traced.campaign_s, "ratio"
        ),
        "frontier.assume_matching_n": (counter("frontier.assume_matching"), "count"),
        # Shares of campaign time, not seconds: a monolithic campaign never
        # calls these, and would report a constant 0 s.
        "vectorized.frontier_share": (
            total("vectorized.frontier") / traced.campaign_s, "ratio"
        ),
        "vectorized.sweep_share": (
            total("vectorized.sweep") / traced.campaign_s, "ratio"
        ),
        "vectorized.cursor_fallback_n": (totals.cursor_fallbacks[live], "count"),
        "trace.campaign_s": (traced.campaign_s, "s"),
        "trace.overhead_ratio": (
            traced.labels_per_s / untraced.labels_per_s, "ratio"
        ),
    }
    return {
        name: {"value": value, "unit": unit} for name, (value, unit) in values.items()
    }


async def traced_run(workload: Workload, work: str):
    """One untraced campaign, then one traced cycle; returns
    ``(per-layer metrics, [untraced cycle, traced cycle])``.

    The spans are written to ``trace-<workload>.tsv`` beside ``work`` once
    the traced cycle has ended.
    """
    untraced = await run_cycle(
        workload, os.path.join(work, "untraced"), recover=False
    )
    recorder = SpanRecorder()
    with instrument(recorder, probes(recorder)):
        traced = await run_cycle(
            workload, os.path.join(work, "traced"), phase=recorder.set_context
        )
    recorder.write(
        os.path.join(os.path.dirname(work), f"trace-{workload.name}.tsv")
    )
    metrics = layer_metrics(recorder, traced, untraced)
    return metrics, [untraced, traced]
