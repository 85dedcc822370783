"""Self-time arithmetic and span collection of the benchmark tracer.

Run with ``python3 -m pytest perfbench``.
"""

import time

import numpy as np
import pytest

from perfbench.tracing import Span, Tracer, aggregate, self_times, union_length


def span(i, start, end, parent=None, name="f", counts=None):
    return Span(i, name, start, end, parent, 0, 0, counts or {})


def test_union_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert union_length([(11, 12)], 0, 10) == 0.0
    assert union_length([], 0, 10) == 0.0


def test_self_time_subtracts_union_of_children():
    # two children overlap (two worker threads); a third overruns the parent
    spans = [span(0, 0, 10), span(1, 1, 3, 0), span(2, 2, 5, 0), span(3, 8, 12, 0)]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(4.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(4.0)


def test_grandchildren_count_only_against_their_parent():
    spans = [span(0, 0, 10), span(1, 2, 8, 0), span(2, 3, 4, 1)]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 5.0, 2: 1.0})


def test_aggregate_sums_calls_times_and_counts():
    spans = [
        span(0, 0, 4, name="outer"),
        span(1, 1, 2, 0, name="inner", counts={"samples": 10}),
        span(2, 2, 3, 0, name="inner", counts={"samples": 5}),
    ]
    agg = aggregate(spans)
    assert agg["outer"] == pytest.approx({"calls": 1, "total_s": 4.0, "self_s": 2.0})
    assert agg["inner"] == pytest.approx({"calls": 2, "total_s": 2.0, "self_s": 2.0, "samples": 15})


def test_repeat_key_hashing_is_outside_every_self_time():
    tracer = Tracer()

    def slow_key(args):
        time.sleep(0.05)
        return args[0].tobytes()

    child = tracer.wrap("child", lambda r: r, repeat_key=slow_key)
    parent = tracer.wrap("parent", lambda r: [child(r), child(r)])
    parent(np.zeros(4))
    agg = aggregate(tracer.spans)
    assert agg["parent"]["total_s"] >= 0.1
    assert agg["parent"]["self_s"] < 0.02
    assert agg["child"]["self_s"] < 0.02
    assert tracer.repeats == {0: 4}  # the second call repeats all 4 samples
    tracer.start_step(1)
    child(np.zeros(4))
    assert tracer.repeats == {0: 4}  # the next experiment of a pass starts afresh


def _tiny_rate_penalty(tmp_path, n_workers):
    from demapsim import harness

    cfg = harness.load_config(
        None,
        {"snr_db": [0.0, 10.0], "n_samples": 4000, "chunk_size": 1000, "n_workers": n_workers},
    )
    return harness.run_experiment("rate-penalty", cfg, tmp_path / f"rp{n_workers}.csv")


def test_installed_traces_every_binding_and_restores(tmp_path):
    from demapsim import harness, reference

    orig_exact = reference.exact_llr
    orig_runners = dict(harness._RUNNERS)
    plain = _tiny_rate_penalty(tmp_path, 1).read_bytes()

    tracer = Tracer()
    with tracer.installed():
        assert harness.exact_llr is reference.exact_llr is not orig_exact
        traced = _tiny_rate_penalty(tmp_path, 2).read_bytes()
    assert reference.exact_llr is orig_exact and harness.exact_llr is orig_exact
    assert harness._RUNNERS == orig_runners
    assert traced == plain  # tracing does not change the output

    agg = aggregate(tracer.spans)
    by_id = {s.id: s for s in tracer.spans}
    # 2 SNRs x (4 chunks x 3 bits + 2 analog modes x 3 calibration bits)
    assert agg["reference.exact_llr"]["calls"] == 2 * (4 * 3 + 2 * 3)
    assert agg["channel.worker_rng"]["calls"] == 8
    assert agg["harness.write_csv"]["rows"] == 8
    # worker-thread spans hang under the evaluate_demappers call that ran them
    for s in tracer.spans:
        if s.name == "channel.transmit":
            assert by_id[s.parent].name == "metrics.evaluate_demappers"
    # calibration evaluates exact_llr(grid, k) once per analog mode: one repeat per bit and SNR
    assert sum(tracer.repeats.values()) == 2 * 3 * 2001
