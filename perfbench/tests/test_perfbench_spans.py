"""Self-time arithmetic and the method wrappers of the traced run."""

import asyncio

import pytest

from spans import Probe, SpanRecorder, instrument, self_times


def test_self_time_subtracts_the_union_of_children():
    # 0: root [0, 10]
    # 1: child [1, 3]      2: child [2, 5] (overlaps 1)
    # 3: child [9, 12] (runs past the root: clipped to [9, 10])
    # 4: grandchild [1.5, 2.5] under 1 (does not touch the root)
    starts = [0.0, 1.0, 2.0, 9.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    result = self_times(starts, ends, parents)
    # root: 10 - |[1, 5] ∪ [9, 10]| = 10 - 5
    assert result[0] == pytest.approx(5.0)
    # child 1: 2 - 1 (its grandchild)
    assert result[1] == pytest.approx(1.0)
    assert result[2] == pytest.approx(3.0)
    assert result[3] == pytest.approx(3.0)
    assert result[4] == pytest.approx(1.0)


def test_self_time_of_disjoint_and_nested_children():
    starts = [0.0, 1.0, 4.0, 6.0]
    ends = [8.0, 2.0, 5.0, 6.0]  # the last child is empty
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents) == pytest.approx([6.0, 1.0, 1.0, 0.0])


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    async def slow(self):
        await asyncio.sleep(0)
        return self.inner(1)

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def helper(x):
        return x + 1


def test_instrument_records_nesting_and_restores_originals():
    originals = {name: Toy.__dict__[name] for name in ("outer", "inner", "slow", "make", "helper")}
    recorder = SpanRecorder()
    hits = []
    probes = [
        Probe(Toy, "outer", "toy.outer"),
        Probe(Toy, "inner", "toy.inner", after=lambda a, r, s: hits.append(r)),
        Probe(Toy, "slow", "toy.slow"),
        Probe(Toy, "make", "toy.make"),
        Probe(Toy, "helper", "toy.helper", count_only=True),
    ]
    with instrument(recorder, probes):
        recorder.set_context("c1/campaign")
        toy = Toy.make()
        assert toy.outer(3) == 7
        assert asyncio.run(toy.slow()) == 2
        assert Toy.helper(1) == 2
    for name, original in originals.items():
        assert Toy.__dict__[name] is original
    spans = list(recorder.spans())
    names = [span[1] for span in spans]
    assert names == ["toy.make", "toy.outer", "toy.inner", "toy.slow", "toy.inner"]
    by_index = {span[0]: span for span in spans}
    # inner's parent is outer; the async inner's parent is slow.
    assert by_index[2][4] == 1
    assert by_index[4][4] == 3
    assert all(span[5] == "c1/campaign" for span in spans)
    assert all(span[3] >= span[2] for span in spans)
    assert recorder.counters == {("c1/campaign", "toy.helper"): 1}
    assert hits == [6, 2]


def test_concurrent_tasks_do_not_adopt_each_others_spans():
    recorder = SpanRecorder()

    async def both():
        await asyncio.gather(Toy().slow(), Toy().slow())

    with instrument(recorder, [Probe(Toy, "slow", "toy.slow"), Probe(Toy, "inner", "toy.inner")]):
        asyncio.run(both())
    spans = list(recorder.spans())
    slow = [span[0] for span in spans if span[1] == "toy.slow"]
    inner_parents = sorted(span[4] for span in spans if span[1] == "toy.inner")
    assert sorted(slow) == inner_parents


def test_write_emits_one_line_per_span(tmp_path):
    recorder = SpanRecorder()
    with instrument(recorder, [Probe(Toy, "inner", "toy.inner")]):
        Toy().inner(1)
        Toy().inner(2)
    path = tmp_path / "trace.tsv"
    recorder.write(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["index", "name", "start", "end", "parent", "context"]
    assert len(lines) == 3
