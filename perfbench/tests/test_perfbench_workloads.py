"""The generators are deterministic per seed and have their stated shape."""

from typing import Dict, Iterable, Tuple

import pytest

from workloads import (
    BATCH_SIZE,
    PLATFORM_KIND,
    WORKLOADS,
    blocked_rounds,
    blocked_sequential,
    giant_instant,
)


def _component_sizes(pairs: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Pairs per connected component, keyed by the component's root."""
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = list(pairs)
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    sizes: Dict[int, int] = {}
    for a, _ in pairs:
        root = find(a)
        sizes[root] = sizes.get(root, 0) + 1
    return sizes


def _pairs(workload):
    return [(entry[0], entry[1]) for entry in workload.document["order"]]


def _n_matching(workload) -> int:
    return sum(1 for a, b in _pairs(workload) if workload.truth(a, b))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    make = WORKLOADS[name]
    if name == "giant-instant":
        first, again, other = make(3), make(3), make(4)
    else:
        first, again, other = make(3, n_blocks=3), make(3, n_blocks=3), make(4, n_blocks=3)
    assert first.document == again.document
    assert first.entity_of == again.entity_of
    assert first.document["order"] != other.document["order"]


def test_giant_instant_shape_at_seed_0():
    workload = giant_instant(0)
    pairs = _pairs(workload)
    assert workload.n_pairs == len(pairs) == 2800
    assert len(set(pairs)) == 2800
    assert _n_matching(workload) == workload.n_matching == 8
    assert len({obj for pair in pairs for obj in pair}) == 1050
    largest = max(_component_sizes(pairs).values())
    assert largest >= 0.999 * len(pairs)
    assert workload.document["mode"] == "instant"


def test_blocked_shape_at_seed_0():
    rounds = blocked_rounds(0)
    sequential = blocked_sequential(0)
    pairs = _pairs(rounds)
    assert rounds.n_pairs == len(pairs) == 10240
    assert len(set(pairs)) == 10240
    assert _n_matching(rounds) == rounds.n_matching == 3840
    assert len(_component_sizes(pairs)) == 10
    assert rounds.document["shard_threshold"] <= rounds.n_pairs
    likelihoods = [entry[2] for entry in rounds.document["order"]]
    assert likelihoods == sorted(likelihoods, reverse=True)
    # One pair set, two modes.
    assert sequential.document["order"] == rounds.document["order"]
    assert (rounds.document["mode"], sequential.document["mode"]) == (
        "hit-rounds",
        "sequential",
    )


def test_larger_sizes_keep_the_shape():
    """The ROADMAP's campaign sizes, which the defaults scale down."""
    giant = giant_instant(0, n_objects=3000, n_pairs=8000, n_matching=24)
    pairs = _pairs(giant)
    assert giant.n_pairs == len(pairs) == 8000
    assert _n_matching(giant) == 24
    assert max(_component_sizes(pairs).values()) >= 0.999 * len(pairs)
    blocked = blocked_rounds(0, n_blocks=100)
    assert blocked.n_pairs == 102400
    assert _n_matching(blocked) == 38400
    assert len(_component_sizes(_pairs(blocked))) == 100


def test_documents_carry_no_answers():
    document = giant_instant(0).document
    platform = document["platform"]
    assert platform == {
        "kind": PLATFORM_KIND,
        "batch_size": BATCH_SIZE,
        "n_assignments": 1,
        "options": {},
    }
