"""Batched (vectorized) sampling must be byte-identical to scalar.

``repro.rng.BatchedStream`` turns runs of consecutive same-kind draws
on one substream into a single numpy array call. That is only legal
because a numpy ``Generator`` advances its PCG64 state identically for
an array draw and the equivalent element-wise loop — and because
``sigma == 0`` cells, which the scalar code never drew for, are masked
out of the array call. These tests pin the claim at three levels:

* the primitive: array draws equal the scalar loop draw-for-draw;
* the façade: ``BatchedStream`` equals :func:`scalar_normals` and
  :func:`scalar_integers`, in-test copies of the scalar loops it
  replaces;
* the system: a full benchmark run produces identical KPIs and frames
  with ``BatchedStream`` and with those scalar loops patched in.
"""

import numpy as np

from repro.core.create_drop import CreateDropModel
from repro.core.hourly_schedule import DayType, HourlyNormalSchedule
from repro.sqldb.editions import Edition
from repro.core.runner import run_scenario
from repro.experiments.scenarios import paper_scenario
from repro.rng import BatchedStream, RngRegistry


def fresh_generator(seed=1234):
    return np.random.default_rng(seed)


def scalar_normals(self, mus, sigmas):
    """Reference for ``BatchedStream.normals``: one draw per cell."""
    generator = self.generator
    return np.array(
        [float(generator.normal(mu, sigma)) if sigma > 0 else mu
         for mu, sigma in zip(np.asarray(mus, dtype=float),
                              np.asarray(sigmas, dtype=float))],
        dtype=float)


def scalar_integers(self, low, high, n):
    """Reference for ``BatchedStream.integers``: one draw per value."""
    generator = self.generator
    return np.array([int(generator.integers(low, high)) for _ in range(n)],
                    dtype=np.int64)


class TestBatchedStreamPrimitive:
    def test_normals_match_scalar_loop_exactly(self):
        mus = [0.5, 1.0, -2.0, 3.25, 0.0]
        sigmas = [0.1, 2.0, 0.7, 1e-9, 5.0]
        batched = BatchedStream(fresh_generator()).normals(mus, sigmas)
        scalar_generator = fresh_generator()
        scalar = [float(scalar_generator.normal(mu, sigma))
                  for mu, sigma in zip(mus, sigmas)]
        assert batched.tolist() == scalar

    def test_zero_sigma_cells_consume_no_draw(self):
        # The scalar code short-circuits sigma == 0 to mu without
        # touching the generator; the masked array call must do the
        # same or every later draw on the stream shifts.
        mus = [1.0, 7.0, 2.0]
        sigmas = [0.5, 0.0, 0.25]
        generator = fresh_generator()
        batched = BatchedStream(generator).normals(mus, sigmas)
        assert batched[1] == 7.0
        after_batched = float(generator.normal(0.0, 1.0))

        generator = fresh_generator()
        for mu, sigma in zip(mus, sigmas):
            if sigma > 0:
                generator.normal(mu, sigma)
        assert float(generator.normal(0.0, 1.0)) == after_batched

    def test_integers_match_scalar_loop_exactly(self):
        batched = BatchedStream(fresh_generator()).integers(0, 3600, 50)
        scalar_generator = fresh_generator()
        scalar = [int(scalar_generator.integers(0, 3600))
                  for _ in range(50)]
        assert batched.tolist() == scalar

    def test_scalar_reference_loop_is_value_identical(self):
        mus = np.linspace(-1.0, 4.0, 17)
        sigmas = np.abs(np.sin(mus))  # includes an exact zero
        vectorized = BatchedStream(fresh_generator())
        scalar = BatchedStream(fresh_generator())
        assert (vectorized.normals(mus, sigmas).tolist()
                == scalar_normals(scalar, mus, sigmas).tolist())
        assert (vectorized.integers(5, 99, 31).tolist()
                == scalar_integers(scalar, 5, 99, 31).tolist())
        # Both consumed the stream identically.
        assert (vectorized.generator.bit_generator.state
                == scalar.generator.bit_generator.state)

    def test_registry_batched_wraps_the_same_substream(self):
        registry = RngRegistry(7)
        draw = registry.batched("population").normals([0.0], [1.0])
        other = RngRegistry(7)
        expected = float(other.stream("population").normal(0.0, 1.0))
        assert float(draw[0]) == expected


class TestSampleCounts:
    def test_sample_counts_equals_scalar_draws(self):
        creates = HourlyNormalSchedule()
        drops = HourlyNormalSchedule()
        for hour in range(24):
            creates.set(DayType.WEEKDAY, hour, mu=10.0 + hour, sigma=3.0)
            drops.set(DayType.WEEKDAY, hour, mu=4.0, sigma=0.0)
        for daytype in DayType:
            if daytype is DayType.WEEKDAY:
                continue
            for hour in range(24):
                creates.set(daytype, hour, mu=1.0, sigma=1.0)
                drops.set(daytype, hour, mu=1.0, sigma=1.0)
        model = CreateDropModel(edition=Edition.STANDARD_GP,
                                creates=creates, drops=drops)

        batch = BatchedStream(fresh_generator())
        counts = [model.sample_counts(DayType.WEEKDAY, hour, batch)
                  for hour in range(24)]

        generator = fresh_generator()
        expected = []
        for hour in range(24):
            mu_c, sigma_c = creates.params(DayType.WEEKDAY, hour)
            mu_d, sigma_d = drops.params(DayType.WEEKDAY, hour)
            n_c = float(generator.normal(mu_c, sigma_c)) \
                if sigma_c > 0 else mu_c
            n_d = float(generator.normal(mu_d, sigma_d)) \
                if sigma_d > 0 else mu_d
            expected.append((max(0, int(round(n_c))),
                             max(0, int(round(n_d)))))
        assert counts == expected


class TestEndToEndByteIdentity:
    def test_run_identical_with_and_without_batching(self, monkeypatch):
        """Swap in the scalar loops: the benchmark must not move."""
        scenario = paper_scenario(density=1.1, days=0.1, seed=99,
                                  maintenance=True)
        vectorized = run_scenario(scenario)
        monkeypatch.setattr(BatchedStream, "normals", scalar_normals)
        monkeypatch.setattr(BatchedStream, "integers", scalar_integers)
        scalar = run_scenario(scenario)
        assert vectorized.kpis == scalar.kpis
        assert vectorized.frames == scalar.frames
        assert vectorized.revenue == scalar.revenue
