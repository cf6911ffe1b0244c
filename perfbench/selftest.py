"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The first tests pin the pure pieces (percentile rule, speed scaling, self
time, merging spans across processes); the smoke tests run every workload
briefly, traced and untraced, and fail on any failed operation, moved count
or layer that reads 0 although the workload runs it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- the percentile rule ------------------------------------------------------


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert measure.samples_beyond(1000, 0.99) == 10
    assert measure.supported(1000, 0.99)
    assert not measure.supported(999, 0.99)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert measure.percentile(values, 0.99) == 990
    assert measure.percentile(values, 0.50) == 500
    # exactly ten samples lie beyond the reported p99
    assert sum(1 for v in values if v > measure.percentile(values, 0.99)) == 10
    assert measure.percentile([3.0], 0.99) == 3.0


# -- sampling by cost --------------------------------------------------------------


def test_cost_sample_takes_one_member_per_band_of_each_rows_cost_ranking():
    def row(n, size):  # member i generated i clauses
        return [["p/{}/{}".format(n, i), "", "valid", "smallfoot", i] for i in range(size)]

    expected = {"pools": {"p": row(1, 100) + row(2, 50)}}
    for seed in range(5):
        picked = inputs.cost_sample(random.Random(seed), expected, "p", 30)
        assert len(set(picked)) == 30
        costs = sorted((int(key.split("/")[2]) for key in picked if key.startswith("p/1/")),
                       reverse=True)
        # quota 20 of 100: one of the five costliest, one of the next five, ...
        assert [cost // 5 for cost in costs] == list(range(19, -1, -1))


# -- scaling to the reference speed ---------------------------------------------


def _speed(pairs):
    speed = measure.Speed()
    speed.extend(pairs)
    return speed


def test_scale_uses_the_median_probe_around_the_interval():
    reference = measure.PROBE_REFERENCE_S
    # slow (2x) probes around t=10, fast ones around t=20
    speed = _speed([(9.8 + 0.1 * i, 2 * reference) for i in range(5)]
                   + [(19.8 + 0.1 * i, reference) for i in range(5)]
                   + [(10.1, 50 * reference)])  # one outlier: the median ignores it
    assert speed.scale(10.0, 10.2) == pytest.approx(0.5)
    assert speed.scale(20.0, 20.1) == pytest.approx(1.0)


def test_scale_widens_to_the_nearest_probes_when_the_window_holds_too_few():
    reference = measure.PROBE_REFERENCE_S
    speed = _speed([(float(t), reference * (1 + t)) for t in range(10)])
    # only t = 5 lies within 0.5 s of [4.6, 4.7]; the five nearest are t = 3..7
    assert speed.scale(4.6, 4.7) == pytest.approx(1 / 6)


def test_pass_finish_scales_latencies_and_elapsed():
    reference = measure.PROBE_REFERENCE_S
    speed = _speed([(t / 10, 2 * reference) for t in range(30)])
    observed = measure.Pass()
    observed.record(1.0, 1.1, hit=True)
    observed.record(1.1, 1.5)
    observed.segment(1.0, 1.5)
    observed.finish(speed)
    assert observed.raw_latencies == pytest.approx([0.1, 0.4])
    assert observed.latencies == pytest.approx([0.05, 0.2])
    assert observed.hits == pytest.approx([0.05]) and observed.misses == pytest.approx([0.2])
    assert observed.elapsed == pytest.approx(0.25) and observed.raw_elapsed == pytest.approx(0.5)
    assert observed.throughput == pytest.approx(8.0)


# -- open-loop honesty ----------------------------------------------------------


def test_serve_run_is_invalid_when_the_generator_lags_beyond_its_share():
    import serve

    observed = measure.Pass()
    observed.raw_latencies = [0.010] * 1000
    observed.lateness = [0.001] * 1000
    assert serve.lateness_invalid(observed) is None
    observed.lateness = [0.001] * 980 + [0.004] * 20  # p99 lag 4 ms > 25% of 10 ms
    assert "generator p99 lateness" in serve.lateness_invalid(observed)
    short = measure.Pass()
    short.raw_latencies, short.lateness = [0.010] * 50, [0.004] * 50
    assert serve.lateness_invalid(short) is None  # too few requests for a p99


# -- self time ------------------------------------------------------------------


def _span(ident, name, start, end, parent=None, pid=1, rid=None, attrs=None):
    return spans.Span(pid, ident, name, start, end, parent, rid, attrs or {})


def test_self_time_subtracts_nested_children():
    tree = [
        _span(1, "prover", 0.0, 10.0),
        _span(2, "saturate", 1.0, 4.0, parent=1),
        _span(3, "is_known", 2.0, 3.0, parent=2),
        _span(4, "model", 5.0, 7.0, parent=1),
    ]
    own = spans.self_times(tree)
    assert own[(1, 1)] == pytest.approx(5.0)  # 10 - (3 + 2)
    assert own[(1, 2)] == pytest.approx(2.0)  # 3 - 1
    assert own[(1, 3)] == pytest.approx(1.0)
    assert own[(1, 4)] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)  # self times add up to the root


def test_self_time_counts_overlapping_children_once_and_clips():
    tree = [
        _span(1, "batch", 0.0, 10.0),
        _span(2, "pool.task", 2.0, 6.0, parent=1),
        _span(3, "pool.task", 4.0, 8.0, parent=1),  # overlaps its sibling
        _span(4, "pool.task", 9.0, 12.0, parent=1),  # runs past its parent
    ]
    assert spans.self_times(tree)[(1, 1)] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_report_zero_for_layers_not_run():
    metrics = spans.layer_metrics([_span(1, "prover", 0.0, 1.0, attrs={"iterations": 3})])
    assert metrics["prover.iterations"] == 3
    assert metrics["canonical.calls"] == 0
    assert metrics["cache.hit_ratio"] == 0.0
    assert set(metrics) == set(spans.LAYERS)


# -- merging across processes -----------------------------------------------------


def test_spans_merge_across_processes_and_match_dispatch(tmp_path):
    directory = str(tmp_path)
    coordinator = spans.Recorder(directory)
    worker = spans.Recorder(directory)
    worker.pid = coordinator.pid + 1  # as if forked: its own file
    key = spans.request_id("x |-> nil |- lseg(x, nil)")
    task = coordinator.detached("pool.task", attrs={"key": key})
    task[2] = 100.0
    span = worker.open("prover", key)
    worker.close(span, {"iterations": 2, "generated_clauses": 7})
    span[2], span[3] = 100.5, 101.5
    coordinator.finish(task)
    task[3] = 102.0
    coordinator.flush()
    worker.flush()
    assert sorted(os.listdir(directory)) == sorted(
        ["spans-{}.jsonl".format(coordinator.pid), "spans-{}.jsonl".format(worker.pid)])
    merged = spans.load(directory)
    assert {s.pid for s in merged} == {coordinator.pid, worker.pid}
    metrics = spans.layer_metrics(merged)
    assert metrics["pool.tasks"] == 1
    assert metrics["generated_clauses"] == 7
    assert metrics["pool.dispatch_s"] == pytest.approx(2.0 - 1.0)  # round trip - prove
    # ``since`` drops what started before the measured window
    assert [s.name for s in spans.load(directory, since=100.2)] == ["prover"]


def test_http_self_time_subtracts_server_spans_of_the_same_request():
    rid = "abc"
    merged = [
        _span(1, "client", 0.0, 0.010, pid=1, rid=rid),
        _span(1, "parser", 0.001, 0.002, pid=2, rid=rid),
        _span(2, "service", 0.002, 0.008, pid=2, rid=rid),
    ]
    assert spans.layer_metrics(merged, client_pid=1)["http.self_ms_p50"] == pytest.approx(3.0)


# -- workload smoke ---------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["table1", "batch", "serve"])
def test_workload_smoke(workload, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0, completed.stdout
    assert result["correct"], completed.stdout
    expected = set(run.END_TO_END_UNITS) if not trace else (
        set(spans.LAYERS) | set(run.EXTRA_LAYER_UNITS))
    assert set(result["metrics"]) == expected
    if trace:
        lost = [name for name in spans.RUNS[workload] if not result["metrics"][name]["value"]]
        assert not lost, "layers run but read 0: {}".format(lost)
