"""The span tracer: self-time arithmetic and wrapper restoration."""

import types

import pytest

import layers
from tracer import ROOT, Tracer, percentile, summarize


class FakeClock:
    """Each reading advances time by one second."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class Service:
    def outer(self, depth: int) -> int:
        self.inner()
        self.inner()
        if depth:
            self.outer(depth - 1)
        return depth

    def inner(self) -> None:
        return None


class Derived(Service):
    pass


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=FakeClock())
    tracer.wrap(Service, "outer", "outer")
    tracer.wrap(Service, "inner", "inner")
    try:
        Service().outer(1)
    finally:
        tracer.restore()
    # Clock readings: outer0 starts at 1; inner 2-3, inner 4-5; outer1
    # starts 6, inner 7-8, inner 9-10, ends 11; outer0 ends 12.
    assert list(tracer.parents) == [ROOT, 0, 0, 0, 3, 3]
    stats = summarize(tracer)
    assert stats["inner"].calls == 4
    assert stats["inner"].self_s == pytest.approx(4.0)
    # outer0: 11 s minus inner 1 + 1 + outer1 5 = 4; outer1: 5 - 2 = 3.
    assert stats["outer"].self_s == pytest.approx(7.0)
    # Inclusive time counts the recursive call once.
    assert stats["outer"].total_s == pytest.approx(11.0)
    assert tracer.top_level_s() == pytest.approx(11.0)
    self_sum = sum(entry.self_s for entry in stats.values())
    assert self_sum == pytest.approx(tracer.top_level_s())
    assert tracer.count_within("inner", "outer") == 4


def test_top_level_spans_outside_the_timed_windows_are_found():
    tracer = Tracer(clock=FakeClock())
    tracer.wrap(Service, "outer", "outer")
    tracer.wrap(Service, "inner", "inner")
    try:
        Service().outer(0)      # outer 1-6, inner 2-3 and 4-5
        Service().inner()       # 7-8
    finally:
        tracer.restore()
    assert tracer.top_level_outside([(0.5, 6.0), (6.5, 8.0)]) == 0
    # Nested spans are not checked; each top-level one is, once.
    assert tracer.top_level_outside([(0.5, 6.0)]) == 1
    assert tracer.top_level_outside([(1.5, 6.0), (7.0, 7.5)]) == 2
    assert tracer.top_level_outside([]) == 2


def test_failed_calls_are_recorded_and_counted():
    module = types.SimpleNamespace()

    def boom() -> None:
        raise ValueError("no")

    module.boom = boom
    tracer = Tracer(clock=FakeClock())
    tracer.wrap(module, "boom", "boom")
    with pytest.raises(ValueError):
        module.boom()
    tracer.restore()
    entry = summarize(tracer)["boom"]
    assert (entry.calls, entry.ok_calls) == (1, 0)
    assert tracer.ends[0] > tracer.starts[0]


def test_tally_sums_return_values():
    tracer = Tracer(clock=FakeClock())
    module = types.SimpleNamespace(moves=lambda n: list(range(n)))
    tracer.wrap(module, "moves", "moves", tally=len)
    module.moves(3)
    module.moves(2)
    tracer.restore()
    assert tracer.tallies == {"moves": 5}


def test_restore_puts_owned_and_inherited_attributes_back():
    owned = vars(Service)["inner"]
    tracer = Tracer()
    tracer.wrap(Service, "inner", "inner")
    tracer.wrap(Derived, "outer", "outer")     # inherited, not owned
    assert vars(Service)["inner"] is not owned
    assert "outer" in vars(Derived)
    tracer.restore()
    assert vars(Service)["inner"] is owned
    assert "outer" not in vars(Derived)
    assert tracer.is_restored()


def test_layer_wrappers_are_restored_after_a_traced_run():
    from repro.core.model_base import ResourceModel
    from repro.core.runner import BenchmarkRunner
    from repro.fabric.cluster import ServiceFabricCluster
    import repro.fleet.runner as fleet_runner

    seams = [(BenchmarkRunner, "_bootstrap"),
             (ServiceFabricCluster, "report_load"),
             (ServiceFabricCluster, "fail_node"),
             (fleet_runner, "fleet_digest")]
    seams += [(cls, "next_value") for cls in layers._subclasses(ResourceModel)
              if "next_value" in vars(cls)]
    before = {seam: vars(seam[0])[seam[1]] for seam in seams}
    tracer = Tracer()
    layers.install(tracer)
    assert all(vars(owner)[attr] is not before[(owner, attr)]
               for owner, attr in seams)
    try:
        # A traced call through one of the seams records a span.
        fleet_runner.fleet_digest([])
    finally:
        tracer.restore()
    assert len(tracer) == 1
    assert tracer.is_restored()
    assert all(vars(owner)[attr] is before[(owner, attr)]
               for owner, attr in seams)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([3.0], 99) == 3.0
    assert percentile([], 50) == 0.0
