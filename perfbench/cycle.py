"""One benchmark cycle: set up, run and recover one journaled campaign.

A cycle drives a :class:`~workloads.Workload` through
:class:`repro.service.CampaignService` with the journal on, on one asyncio
loop in this process:

1. **set-up**, several times: :meth:`CampaignSpec.from_dict` on the
   create document plus :meth:`CampaignService.create` (engine build and a
   durable journal header).  Every trial but the last is paused before its
   first publish and cancelled; the last one runs.
2. **campaign**: from ``create()`` returning until the campaign is
   ``done``.  The crowd answers each HIT one virtual hour after issue, so
   the wall time is all machine time.
3. **checks** of the live campaign, outside every timed region; its
   engine fingerprint is kept and the campaign itself is dropped.
4. **recovery** (optional, and only of a ``done`` campaign): a fresh
   service replays the full journal (no snapshot) until the campaign is
   ``done`` again, and its fingerprint is checked against the live one.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.pairs import Label
from repro.service import CampaignService, CampaignState
from repro.spec import CampaignSpec

from crowd_truth import TruthPlatform
from workloads import PLATFORM_KIND, Workload

#: Called with a label as each phase starts: ``"setup"``,
#: ``"<campaign id>/campaign"``, ``"<campaign id>/recover"``, ``"checks"``.
#: The traced run tags its spans with it.
PhaseHook = Callable[[str], None]

#: Upper bound on set-up trials per cycle.
MAX_SETUPS = 40


@dataclass
class Cycle:
    """What one cycle measured and checked."""

    campaign_id: str
    setup_s: List[float]
    campaign_s: float
    recover_s: Optional[float]
    backend: str
    n_pairs: int
    crowd_pairs: int
    crowd_hits: int
    crowd_hours: float
    n_completions: int
    n_publishes: int
    completion_stamps: List[float]
    journal_bytes: int
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def labels_per_s(self) -> float:
        return self.n_pairs / self.campaign_s

    @property
    def answer_intervals_ms(self) -> List[float]:
        """Machine time between consecutive completions, in ms."""
        stamps = self.completion_stamps
        return [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]


def _fingerprint(campaign) -> str:
    return json.dumps(campaign.engine.state_fingerprint(), sort_keys=True)


async def _set_up(
    workload: Workload, root: str, platform: TruthPlatform
) -> tuple:
    """One timed set-up; returns ``(seconds, service, campaign)``."""
    service = CampaignService(root, client_factories={PLATFORM_KIND: platform})
    gc.collect()
    start = time.perf_counter()
    spec = CampaignSpec.from_dict(workload.document)
    campaign = await service.create(spec)
    return time.perf_counter() - start, service, campaign


async def _discard(service: CampaignService, campaign) -> None:
    """Stop a set-up trial before its first publish, closing its journal."""
    service.pause(campaign.campaign_id)
    await asyncio.sleep(0)  # let the task start and park on the gate
    await service.cancel(campaign.campaign_id)


async def run_cycle(
    workload: Workload,
    root: str,
    *,
    n_setups: int = 1,
    setup_seconds: float = 0.0,
    recover: bool = True,
    phase: Optional[PhaseHook] = None,
) -> Cycle:
    """Run one cycle under ``root`` (created, and removed afterwards).

    Sets up at least ``n_setups`` times, and keeps setting up until
    ``setup_seconds`` of set-up time have been measured (at most
    :data:`MAX_SETUPS` times), so a short set-up gets more samples.
    """
    if n_setups < 1:
        raise ValueError("a cycle needs at least one set-up")
    phase = phase or (lambda name: None)
    platform = TruthPlatform(workload)
    setup_s: List[float] = []
    try:
        phase("setup")
        while True:
            service_root = os.path.join(root, f"setup{len(setup_s)}")
            seconds, service, campaign = await _set_up(
                workload, service_root, platform
            )
            setup_s.append(seconds)
            if len(setup_s) >= n_setups and (
                sum(setup_s) >= setup_seconds or len(setup_s) >= MAX_SETUPS
            ):
                break
            await _discard(service, campaign)
        campaign_id = campaign.campaign_id

        phase(f"{campaign_id}/campaign")
        start = time.perf_counter()
        await service.wait(campaign_id)
        campaign_s = time.perf_counter() - start

        phase("checks")
        engine = campaign.engine
        report = campaign.runtime.report
        cycle = Cycle(
            campaign_id=campaign_id,
            setup_s=setup_s,
            campaign_s=campaign_s,
            recover_s=None,
            backend=engine.backend,
            n_pairs=len(engine.pairs),
            crowd_pairs=engine.result.n_crowdsourced,
            crowd_hits=len(report.hit_batches),
            crowd_hours=report.completion_hours,
            n_completions=report.n_completions,
            n_publishes=len(report.publish_events),
            completion_stamps=platform.stamps,
            journal_bytes=os.path.getsize(campaign.journal_path),
        )
        cycle.checks = check(workload, campaign)
        # A failed campaign is already a failed check; its journal need
        # not replay.
        if not (recover and cycle.checks["done"]):
            return cycle
        live_fingerprint = _fingerprint(campaign)
        # Recovery is measured with only the recovered campaign in memory:
        # the live one is dropped first, so neither peak memory nor the
        # collector's passes during replay see two campaigns.
        del campaign, engine, report, service, platform
        phase(f"{campaign_id}/recover")
        rescuer = CampaignService(
            service_root,
            client_factories={PLATFORM_KIND: TruthPlatform(workload)},
        )
        gc.collect()
        start = time.perf_counter()
        await rescuer.recover()
        recovered = await rescuer.wait(campaign_id)
        cycle.recover_s = time.perf_counter() - start
        phase("checks")
        cycle.checks["recovery"] = (
            recovered.state is CampaignState.DONE
            and recovered.error is None
            and _fingerprint(recovered) == live_fingerprint
        )
        return cycle
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check(workload: Workload, campaign) -> Dict[str, bool]:
    """The correctness checks of one live campaign, by name.

    * ``done``: the campaign reached ``done`` with no error;
    * ``labels``: every pair is labeled and every label equals the ground
      truth (a perfect crowd under the ``STRICT`` policy);
    * ``counts``: crowdsourced plus deduced pairs equal all pairs.

    :func:`run_cycle` adds ``recovery`` when a recovery ran: the recovered
    campaign is ``done`` and its engine's ``state_fingerprint()`` equals
    the live one.
    """
    engine = campaign.engine
    labeled = engine.labeled
    truth = workload.truth
    return {
        "done": campaign.state is CampaignState.DONE and campaign.error is None,
        "labels": len(labeled) == workload.n_pairs
        and all(
            (label is Label.MATCHING) == truth(pair.left, pair.right)
            for pair, label in labeled.items()
        ),
        "counts": engine.result.n_crowdsourced + engine.result.n_deduced
        == workload.n_pairs,
    }
