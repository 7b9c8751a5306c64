"""Seeded workload generators for the whole-campaign benchmark.

Every input is made here from the workload seed with stdlib ``random``
alone, never through ``repro.datasets`` or ``repro.matcher``: a change to
those modules must not be able to change what the benchmark measures.

A :class:`Workload` carries the campaign's create document (the JSON form
:meth:`repro.spec.CampaignSpec.from_dict` decodes, exactly what the HTTP
create endpoint accepts) and the ground truth the benchmark's platform
answers from.  The document holds only the labeling order and the dispatch
settings; the answers never enter the spec or the journal header.

Object ids are ints, entities are ints, and a pair matches iff both of its
objects belong to the same entity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

#: Platform kind the benchmark registers with ``CampaignService``.
PLATFORM_KIND = "perfbench-truth"

#: Pairs per HIT on every workload.
BATCH_SIZE = 20

RawPair = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    """One generated campaign: create document plus ground truth."""

    name: str
    document: dict
    entity_of: Dict[int, int]
    n_pairs: int
    n_matching: int

    def truth(self, left: int, right: int) -> bool:
        """True iff the pair of objects is a real match."""
        return self.entity_of[left] == self.entity_of[right]


def _document(
    order: List[Tuple[int, int, float]], mode: str, **settings
) -> dict:
    return {
        "order": [[left, right, likelihood] for left, right, likelihood in order],
        "mode": mode,
        "policy": "strict",
        "backend": "auto",
        **settings,
        "platform": {
            "kind": PLATFORM_KIND,
            "batch_size": BATCH_SIZE,
            "n_assignments": 1,
            "options": {},
        },
    }


def _key(a: int, b: int) -> RawPair:
    return (a, b) if a < b else (b, a)


#: Objects per entity in ``giant-instant``.
ENTITY_SIZE = 10


def giant_instant(
    seed: int,
    *,
    n_objects: int = 1050,
    n_pairs: int = 2800,
    n_matching: int = 8,
) -> Workload:
    """One giant component with a 0.3% match ratio, random order, instant.

    The low-threshold candidate set of the paper's Fig. 12: objects fall
    into entities of :data:`ENTITY_SIZE`; ``n_matching`` within-entity pairs
    are drawn at random, then a random spanning tree of cross-entity pairs
    joins every object into one component, and random cross-entity pairs
    fill the rest.  The order is a random permutation with random
    likelihoods (instant mode selects by order, not by likelihood).
    """
    rng = random.Random(f"giant-instant/{seed}")
    objects = list(range(n_objects))
    rng.shuffle(objects)
    entity_of = {obj: i // ENTITY_SIZE for i, obj in enumerate(objects)}
    members: Dict[int, List[int]] = {}
    for obj in objects:
        members.setdefault(entity_of[obj], []).append(obj)
    entities = sorted(members)

    matching: Set[RawPair] = set()
    while len(matching) < n_matching:
        a, b = rng.sample(members[rng.choice(entities)], 2)
        matching.add(_key(a, b))

    # Random spanning tree: each object joins a random earlier one of
    # another entity.  The first two come from different entities, so every
    # later object has a cross-entity candidate before it.
    tree = objects[:]
    rng.shuffle(tree)
    if entity_of[tree[0]] == entity_of[tree[1]]:
        k = next(
            k for k in range(2, n_objects)
            if entity_of[tree[k]] != entity_of[tree[0]]
        )
        tree[1], tree[k] = tree[k], tree[1]
    non_matching: Set[RawPair] = set()
    for i in range(1, n_objects):
        obj = tree[i]
        while True:
            other = tree[rng.randrange(i)]
            if entity_of[other] != entity_of[obj]:
                break
        non_matching.add(_key(obj, other))
    while len(non_matching) < n_pairs - n_matching:
        a, b = rng.sample(objects, 2)
        if entity_of[a] != entity_of[b]:
            non_matching.add(_key(a, b))

    pairs = sorted(matching | non_matching)
    rng.shuffle(pairs)
    order = [(a, b, round(rng.random(), 4)) for a, b in pairs]
    return Workload(
        name="giant-instant",
        document=_document(order, "instant"),
        entity_of=entity_of,
        n_pairs=len(order),
        n_matching=len(matching),
    )


#: Clusters per block as ``(cluster size, cluster count)``: 8 clusters of
#: 8, 20 of 4, 40 of 2 and 60 singletons — 284 objects and 384 matching
#: pairs per block.
BLOCK_CLUSTERS = ((8, 8), (4, 20), (2, 40), (1, 60))

#: Cross-cluster (non-matching) pairs per block.
BLOCK_CROSS_PAIRS = 640

#: ``auto`` cut-over the blocked documents set, so that ``auto`` picks
#: ``vectorized`` (``sharded`` without numpy) for their 10,240 pairs, as
#: it does by default only from 100k pairs on.
BLOCKED_SHARD_THRESHOLD = 5_000


def _blocked(seed: int, mode: str, name: str, n_blocks: int) -> Workload:
    """Disjoint blocks of clustered objects, ordered by likelihood.

    Each block holds every within-cluster pair of :data:`BLOCK_CLUSTERS`
    plus :data:`BLOCK_CROSS_PAIRS` cross-cluster pairs: first a random
    spanning tree over the block's clusters (so the block is one
    component), then random cross-cluster pairs.  Blocks share no object,
    so there are exactly ``n_blocks`` components.  Likelihoods overlap —
    matching pairs draw from [0.5, 1), non-matching from [0, 0.7) — and
    the order is by descending likelihood.
    """
    # Both blocked workloads share one seed stream: the same pairs, two modes.
    rng = random.Random(f"blocked/{seed}")
    entity_of: Dict[int, int] = {}
    order: List[Tuple[int, int, float]] = []
    n_matching = 0
    next_object = 0
    next_entity = 0
    for _ in range(n_blocks):
        clusters: List[List[int]] = []
        for size, count in BLOCK_CLUSTERS:
            for _ in range(count):
                cluster = list(range(next_object, next_object + size))
                next_object += size
                for obj in cluster:
                    entity_of[obj] = next_entity
                next_entity += 1
                clusters.append(cluster)
        for cluster in clusters:
            for i, a in enumerate(cluster):
                for b in cluster[i + 1:]:
                    order.append((a, b, round(0.5 + 0.5 * rng.random(), 4)))
                    n_matching += 1
        rng.shuffle(clusters)
        cross: Set[RawPair] = set()
        for i in range(1, len(clusters)):
            a = rng.choice(clusters[i])
            b = rng.choice(clusters[rng.randrange(i)])
            cross.add(_key(a, b))
        block_objects = [obj for cluster in clusters for obj in cluster]
        while len(cross) < BLOCK_CROSS_PAIRS:
            a, b = rng.sample(block_objects, 2)
            if entity_of[a] != entity_of[b]:
                cross.add(_key(a, b))
        for a, b in sorted(cross):
            order.append((a, b, round(0.7 * rng.random(), 4)))
    # Stable sort after a shuffle: equal likelihoods land in seeded order.
    rng.shuffle(order)
    order.sort(key=lambda entry: -entry[2])
    return Workload(
        name=name,
        document=_document(order, mode, shard_threshold=BLOCKED_SHARD_THRESHOLD),
        entity_of=entity_of,
        n_pairs=len(order),
        n_matching=n_matching,
    )


def blocked_rounds(seed: int, *, n_blocks: int = 10) -> Workload:
    """10,240 blocked pairs in ``hit-rounds`` mode."""
    return _blocked(seed, "hit-rounds", "blocked-rounds", n_blocks)


def blocked_sequential(seed: int, *, n_blocks: int = 10) -> Workload:
    """The same blocked pairs in ``sequential`` mode (Algorithm 1)."""
    return _blocked(seed, "sequential", "blocked-sequential", n_blocks)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "giant-instant": giant_instant,
    "blocked-rounds": blocked_rounds,
    "blocked-sequential": blocked_sequential,
}
