"""The percentile rule, the meter and the failure counting behind ``success_rate``."""

import time
from types import SimpleNamespace

import pytest

import measure
from workloads import UNITS, check_cold, check_response, with_units


def test_tail_percentile_needs_ten_samples_beyond():
    # 100 samples: the 90th percentile has exactly ten beyond it.
    hundred = [float(i) for i in range(1, 101)]
    assert measure.tail_percentile(hundred, 90) == pytest.approx(90.9)
    # 99 samples: only nine lie beyond it, so it is not reported.
    assert measure.tail_percentile(hundred[:-1], 90) is None
    # A tail of ties is not "beyond" the cut.
    assert measure.tail_percentile([1.0] * 200, 90) is None


def test_tail_percentile_rejects_the_median_and_below():
    with pytest.raises(ValueError):
        measure.tail_percentile([1.0, 2.0], 50)


def test_tally_counts_failures_over_attempts():
    tally = measure.Tally()
    tally.record(None)
    tally.record(None)
    tally.record(("refused", False))
    tally.record(("wrong answer", True))
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)
    assert tally.error_rate == 0.5
    assert tally.success_rate == 0.5
    assert tally.reasons == ["refused", "wrong answer"]
    assert measure.Tally().error_rate == 0.0


def test_meter_samples_the_reference_loop_inside_an_op():
    meter = measure.Meter()
    with meter.op():
        time.sleep(0.05)
    with meter.op():
        deadline = time.perf_counter() + 5 * measure.SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            pass
    with pytest.raises(RuntimeError), meter.op():
        raise RuntimeError("a failed op is still timed")
    assert len(meter.wall_s) == len(meter.wall_ref) == 3
    assert len(meter.reference_s) == 4
    # Without samples inside, an op divides by the loops around it.
    scale = (meter.reference_s[0] + meter.reference_s[1]) / 2
    assert meter.wall_s[0] >= 0.05
    assert meter.wall_ref[0] == meter.wall_s[0] / scale
    assert meter.cpu_ref[0] == meter.cpu_s[0] / scale
    # The samples' own time is taken out of the busy op.
    assert meter.wall_s[1] < 5 * measure.SAMPLE_EVERY_S
    assert meter.summary()["analysis_s.p50"] == sorted(meter.wall_s)[1]


def test_meter_without_samples_divides_by_the_loops_around_the_op():
    meter = measure.Meter(sample_inside=False)
    with meter.op():
        deadline = time.perf_counter() + 3 * measure.SAMPLE_EVERY_S
        while time.perf_counter() < deadline:
            pass
    scale = (meter.reference_s[0] + meter.reference_s[1]) / 2
    assert meter.wall_s[0] >= 3 * measure.SAMPLE_EVERY_S
    assert meter.wall_ref[0] == meter.wall_s[0] / scale


def test_units_come_from_the_declaration():
    assert with_units({"setup_s": 1.5}) == {"setup_s": (1.5, UNITS["setup_s"])}
    with pytest.raises(KeyError):
        with_units({"undeclared_metric": 1.0})


def _result(probability, n_records, degraded=False):
    return SimpleNamespace(
        failure_probability=probability,
        records=(None,) * n_records,
        is_degraded=degraded,
    )


def test_cold_answers_are_checked_bit_for_bit():
    reference = _result(1.25e-5, 3)
    assert check_cold(_result(1.25e-5, 3), reference) is None
    failure, wrong = check_cold(_result(1.25e-5 * (1 + 2**-52), 3), reference)
    assert failure and wrong
    failure, wrong = check_cold(_result(1.25e-5, 2), reference)
    assert failure and wrong
    failure, wrong = check_cold(_result(1.25e-5, 3, degraded=True), reference)
    assert failure and not wrong


@pytest.mark.parametrize(
    "response, counts",
    [
        ({"ok": True, "op": "edit"}, False),
        ({"ok": True, "op": "reanalyze", "degraded": False, "verified": True}, False),
        ({"ok": False, "op": "reanalyze", "error": "shed"}, True),
        ({"ok": True, "op": "reanalyze", "degraded": True, "verified": None}, True),
        ({"ok": True, "op": "reanalyze", "degraded": False, "verified": None}, True),
    ],
)
def test_refused_degraded_and_unclean_responses_count_as_failures(response, counts):
    assert (check_response(response) is not None) == counts
