"""The benchmark's own platform kind: a perfect crowd on a virtual clock.

:class:`TruthPlatform` is a ``CampaignService`` client factory (registered
under :data:`~workloads.PLATFORM_KIND`).  Each campaign gets a
:class:`~repro.crowd.clients.PollingPlatformClient` over an
:class:`~repro.crowd.clients.InMemoryCrowdBackend` that answers from the
workload's ground truth.  Every HIT completes exactly one virtual hour
after it is issued (constant latency on a
:class:`~repro.crowd.clients.ManualClock`, polled once per virtual hour),
so the campaign is a closed loop and the wall time it takes is all machine
time.

The answers live in the factory, not in the spec: the built-in
``in-memory`` kind scripts every answer into the platform options, which
would put one entry per pair into the create document and the journal
header and bill it to set-up and recovery.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.pairs import Label, Pair
from repro.crowd.clients import (
    InMemoryCrowdBackend,
    ManualClock,
    PlatformEvent,
    PollingPlatformClient,
)
from repro.spec import CampaignSpec

from workloads import Workload

#: Virtual hours between a HIT's issue and its completion, and between polls.
LATENCY_HOURS = 1.0


class StampingPollingClient(PollingPlatformClient):
    """A polling client that stamps the wall time of every event it hands
    to the runtime — one ``perf_counter`` read per event."""

    def __init__(self, *args, stamps: List[float], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stamps = stamps

    async def next_event(self) -> Optional[PlatformEvent]:
        event = await super().next_event()
        if event is not None:
            self._stamps.append(time.perf_counter())
        return event


class TruthPlatform:
    """Client factory answering every pair from ``workload``'s truth.

    ``stamps`` collects the wall time of each completion the clients built
    by this factory deliver (see :class:`StampingPollingClient`).
    """

    def __init__(self, workload: Workload) -> None:
        self._entity_of = workload.entity_of
        self.stamps: List[float] = []

    def answer(self, pair: Pair) -> Label:
        entity_of = self._entity_of
        if entity_of[pair.left] == entity_of[pair.right]:
            return Label.MATCHING
        return Label.NON_MATCHING

    def __call__(self, spec: CampaignSpec) -> StampingPollingClient:
        clock = ManualClock()
        backend = InMemoryCrowdBackend(
            answer_fn=self.answer,
            clock=clock.now,
            latency=lambda rng: LATENCY_HOURS,
        )
        return StampingPollingClient(
            backend,
            batch_size=spec.platform.batch_size,
            n_assignments=spec.platform.n_assignments,
            poll_interval=LATENCY_HOURS,
            clock=clock.now,
            sleep=clock.sleep,
            stamps=self.stamps,
        )
