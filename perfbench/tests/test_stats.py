"""The percentile rule: report only percentiles with ten samples beyond."""

import pytest

from perfbench.harness import MIN_STEPS, highest_percentile, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(5, 0), (10, 0), (11, 9), (20, 50), (99, 89), (100, 90), (200, 95), (1000, 99)],
)
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected
    # Exactly at the answer at least ten samples lie beyond; one more
    # percentile would leave fewer.
    if expected:
        assert n * (1 - expected / 100) >= 10 - 1e-9
        assert n * (1 - (expected + 1) / 100) < 10


def test_p90_needs_one_hundred_samples():
    assert MIN_STEPS >= 100
    samples = list(range(100))
    assert tail_percentile(samples, 90) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="p90 needs at least 10 samples"):
        tail_percentile(samples[:99], 90)


def test_median_is_always_reportable_with_enough_samples():
    assert tail_percentile([3.0] * 20 + [5.0], 50) == 3.0


def test_planned_steps_scale_with_seconds_above_the_minimum():
    from perfbench.harness import planned_steps

    class Workload:
        steps_per_second = 150

    assert planned_steps(Workload, 10) == 1500
    assert planned_steps(Workload, 0.1) == MIN_STEPS
    assert planned_steps(Workload, 0.1, min_steps=7) == 15


def test_steps_are_scaled_by_the_probes_around_them():
    from perfbench.harness import REFERENCE_PROBE_S, Phase

    phase = Phase()
    phase.step_s = [0.1, 0.1, 0.2]
    # Probe 0 before the first two steps, probe 1 before the third,
    # probe 2 after the last.
    phase.probe_s = [REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]
    phase.step_probe = [0, 0, 1]
    # A host twice as slow as the reference halves a step's time; one
    # two and a half times as slow divides it by 2.5.
    assert phase.scaled_step_s == pytest.approx([0.05, 0.05, 0.08])
    assert phase.busy_s == pytest.approx(0.4)


def test_timed_phase_probes_around_every_step():
    from perfbench.harness import Accounting, timed_phase

    class Slow:
        def inputs(self, state, tracer, phase):
            return iter(range(3))

        def step(self, state, item, tracer):
            import time

            time.sleep(0.11)  # longer than PROBE_EVERY_S

        def check(self, state, item, outcome, acct):
            return 1, 1

    phase = timed_phase(Slow(), None, Accounting(None), 3)
    assert len(phase.probe_s) == 4
    assert phase.step_probe == [0, 1, 2]
    assert all(p > 0 for p in phase.probe_s)
