"""Cold start: the trained model document is pinned, and set-up is cheap.

Every fresh process trains the §4 model document from a synthetic
two-week corpus before it simulates anything. Corpus synthesis and
Delta Disk bucketing are vectorized, and ``scipy.stats`` is imported
only where a statistical test needs it. These tests pin that the
output did not move and that the import stays out of a run:

* the sha256 of the serialized default document;
* ``ProductionTraceGenerator.disk_trace`` against a verbatim copy of
  the per-period loop it replaced (values and final RNG state);
* ``_collect_steady`` against a verbatim copy of its per-sample loop
  (cell contents, within-cell order and the key order of the dict);
* a fresh interpreter that imports the entry modules, trains and runs
  a short scenario never loads ``scipy.stats``.
"""

import dataclasses
import hashlib
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hourly_schedule import DayType
from repro.core.model_xml import serialize_model_xml
from repro.experiments.scenarios import trained_artifacts
from repro.models.delta_disk import (
    RAPID_SPIKE_SIGMA,
    _collect_steady,
    robust_sigma,
)
from repro.sqldb.editions import Edition
from repro.telemetry.production import (
    PERIODS_PER_DAY,
    PERIODS_PER_HOUR,
    DiskUsageTrace,
    ProductionTraceGenerator,
)
from repro.telemetry.region import EU_WEST_LIKE, US_EAST_LIKE

REPO = pathlib.Path(__file__).resolve().parent.parent

#: sha256 of ``serialize_model_xml(trained_artifacts().document)``,
#: measured on the per-sample implementation before vectorizing.
DOCUMENT_SHA256 = (
    "93ae17367eb60b9a3ed8348e428f5f56828e64727a6616cc34b9785037c3ae8a")

#: Disk usage shrinks every period, so the 0.1 GB floor binds.
SHRINKING = dataclasses.replace(US_EAST_LIKE, name="shrinking",
                                disk_delta_base=-0.5)


def test_default_document_is_byte_identical():
    document = serialize_model_xml(trained_artifacts().document)
    assert hashlib.sha256(document.encode()).hexdigest() == DOCUMENT_SHA256


def reference_disk_trace(generator, db_index, edition, days=14,
                         start_weekday=0, pattern="steady"):
    """The per-period ``disk_trace`` loop, copied verbatim."""
    profile = generator.profile
    rng = generator._rng
    n_periods = days * PERIODS_PER_DAY
    if edition is Edition.PREMIUM_BC:
        start_gb = float(np.clip(
            rng.lognormal(profile.bc_start_log_mu,
                          profile.bc_start_log_sigma),
            1.0, 2048.0))
        delta_scale = profile.bc_disk_delta_multiplier
    else:
        start_gb = float(np.clip(
            rng.lognormal(profile.gp_start_log_mu,
                          profile.gp_start_log_sigma),
            0.5, 2048.0))
        delta_scale = 1.0
    usage = np.empty(n_periods + 1)
    usage[0] = start_gb

    rapid_cycle = None
    if pattern == "rapid":
        rapid_cycle = generator._sample_rapid_cycle(edition)
    initial_total = 0.0
    if pattern == "initial":
        if edition is Edition.PREMIUM_BC:
            log_mu = profile.bc_high_initial_log_mu
            log_sigma = profile.bc_high_initial_log_sigma
            cap = profile.bc_high_initial_cap_gb
        else:
            log_mu = profile.high_initial_log_mu
            log_sigma = profile.high_initial_log_sigma
            cap = profile.high_initial_cap_gb
        initial_total = float(np.clip(
            rng.lognormal(log_mu, log_sigma), 30.0, cap))

    initial_shares = (0.6, 0.4)
    for period in range(n_periods):
        hour = (period // PERIODS_PER_HOUR) % 24
        weekend = (start_weekday + period // PERIODS_PER_DAY) % 7 >= 5
        mu = profile.disk_delta_mu(weekend, hour) * delta_scale
        delta = float(rng.normal(
            mu, profile.disk_delta_sigma * delta_scale))
        if pattern == "initial" and period < len(initial_shares):
            delta += initial_total * initial_shares[period]
        if rapid_cycle is not None:
            delta += generator._rapid_delta(rapid_cycle, period)
        usage[period + 1] = max(usage[period] + delta, 0.1)
    return DiskUsageTrace(db_index=db_index, edition=edition,
                          usage_gb=tuple(float(x) for x in usage),
                          pattern=pattern)


def reference_collect_steady(deltas, offset_periods, start_weekday,
                             steady_by_cell, exclude_spikes):
    """The per-sample ``_collect_steady`` loop, copied verbatim."""
    if deltas.size == 0:
        return
    threshold = None
    if exclude_spikes:
        sigma = robust_sigma(deltas)
        threshold = RAPID_SPIKE_SIGMA * sigma if sigma > 0 else None
    for index, delta in enumerate(deltas):
        if threshold is not None and abs(float(delta)) > threshold:
            continue
        period = offset_periods + index
        hour = (period // PERIODS_PER_HOUR) % 24
        day = period // PERIODS_PER_DAY
        daytype = (DayType.WEEKEND if (start_weekday + day) % 7 >= 5
                   else DayType.WEEKDAY)
        steady_by_cell.setdefault((daytype, hour), []).append(float(delta))


class TestDiskTraceMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(profile=st.sampled_from([US_EAST_LIKE, EU_WEST_LIKE,
                                    SHRINKING]),
           edition=st.sampled_from(list(Edition)),
           pattern=st.sampled_from(["steady", "initial", "rapid"]),
           start_weekday=st.integers(min_value=0, max_value=6),
           days=st.integers(min_value=0, max_value=3),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_values_and_rng_state(self, profile, edition, pattern,
                                  start_weekday, days, seed):
        fast = ProductionTraceGenerator(profile, np.random.default_rng(seed))
        slow = ProductionTraceGenerator(profile, np.random.default_rng(seed))
        trace = fast.disk_trace(3, edition, days, start_weekday, pattern)
        expected = reference_disk_trace(slow, 3, edition, days,
                                        start_weekday, pattern)
        assert trace == expected
        assert (fast._rng.bit_generator.state
                == slow._rng.bit_generator.state)

    def test_floor_binds_on_a_shrinking_profile(self):
        """The element-wise fallback runs and still matches."""
        fast = ProductionTraceGenerator(SHRINKING, np.random.default_rng(5))
        slow = ProductionTraceGenerator(SHRINKING, np.random.default_rng(5))
        trace = fast.disk_trace(0, Edition.STANDARD_GP, days=2)
        assert min(trace.usage_gb) == 0.1
        assert trace == reference_disk_trace(slow, 0, Edition.STANDARD_GP,
                                             days=2)


@st.composite
def delta_series(draw):
    """Noisy deltas, some with large up/down spikes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(min_value=0, max_value=4 * PERIODS_PER_DAY))
    deltas = rng.normal(0.01, 0.02, size)
    spikes = draw(st.integers(min_value=0, max_value=6))
    if size:
        at = rng.integers(0, size, spikes)
        deltas[at] += rng.choice([-1.0, 1.0], spikes) * 40.0
    return deltas


class TestCollectSteadyMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(series=st.lists(
        st.tuples(delta_series(), st.integers(min_value=0, max_value=7),
                  st.booleans()),
        min_size=1, max_size=4),
        start_weekday=st.integers(min_value=0, max_value=6))
    def test_cells_and_key_order(self, series, start_weekday):
        fast, slow = {}, {}
        for deltas, offset, exclude in series:
            _collect_steady(deltas, offset, start_weekday, fast, exclude)
            reference_collect_steady(deltas, offset, start_weekday, slow,
                                     exclude)
        assert list(fast.items()) == list(slow.items())

    def test_spikes_are_excluded(self):
        deltas = np.random.default_rng(3).normal(0.01, 0.02, 200)
        deltas[[20, 90]] = 50.0, -50.0
        fast, slow = {}, {}
        _collect_steady(deltas, 0, 0, fast, exclude_spikes=True)
        reference_collect_steady(deltas, 0, 0, slow, exclude_spikes=True)
        assert list(fast.items()) == list(slow.items())
        assert sum(len(v) for v in fast.values()) == 198


_COLD_START_SCRIPT = """
import sys
import repro, repro.core.runner, repro.fleet, repro.parallel
import repro.experiments.scenarios
from repro.core.runner import run_scenario
from repro.experiments.scenarios import paper_scenario, trained_artifacts
trained_artifacts()
run_scenario(paper_scenario(days=1 / 24, maintenance=False))
print("scipy.stats" in sys.modules)
"""


def test_cold_start_does_not_import_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START_SCRIPT],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src")}, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
