"""Self-time arithmetic and the span recorder's parent tracking."""

import json
import subprocess
import sys
import threading
import time

import pytest

import inputs
import run
import spans
from conftest import BENCH


def span(sid, parent, thread, start, end, name="x.f"):
    return [sid, parent, thread, name, start, end, None]


def test_self_time_is_duration_minus_children_on_one_thread():
    tree = [
        span(1, None, "main", 0.0, 10.0),
        span(2, 1, "main", 1.0, 4.0),
        span(3, 2, "main", 2.0, 3.0),
        span(4, 1, "main", 5.0, 6.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_worker_spans_split_the_wall_clock():
    # A study span on the main thread hands two tasks to worker threads;
    # the tasks overlap from t=3 to t=6 and task 4 has a child from 4 to 5.
    tree = [
        span(1, None, "main", 0.0, 10.0),
        span(2, 1, "main", 1.0, 9.0),
        span(4, 2, "w1", 2.0, 6.0),
        span(5, 2, "w2", 3.0, 8.0),
        span(6, 4, "w1", 4.0, 5.0),
    ]
    own = spans.self_times(tree)
    # The study span owns only the time no task covers: 8 - |[2, 8]| = 2.
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0 + 0.5 + 0.5)
    assert own[5] == pytest.approx(0.5 + 0.5 + 0.5 + 2.0)
    assert own[6] == pytest.approx(0.5)
    assert own[1] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert spans.tail_percentile(range(20, 0, -1)) == (50.0, 10)
    assert spans.tail_percentile([float(i) for i in range(800)]) == (98.75, 789.0)
    assert spans.tail_percentile(range(10)) == (0.0, 0.0)


def test_layer_metrics_are_the_ones_benchmark_json_declares():
    assert list(spans.layer_metrics([], {}, 1.0)) == list(run.declared_metrics("per_layer"))


def test_tracing_overhead_pairs_adjacent_repetitions():
    times = [(True, 3.0), (False, 2.0), (True, 9.0), (False, 8.5), (True, 5.0)]
    records = [{"index": i, "traced": t, "run_s": r, "problems": []}
               for i, (t, r) in enumerate(times)]
    records[3]["problems"] = ["exit code 1"]
    assert run.tracing_overhead(records)["median"] == pytest.approx(1.0)
    assert run.tracing_overhead(records)["count"] == 1
    assert run.tracing_overhead(records[:1]) is None


def test_pool_tasks_are_children_of_the_submitting_span():
    rec = spans.Recorder()
    pool_class = spans._pool_class(rec, "simulation")

    def work(i):
        inner = rec.begin("eigen.solve")
        time.sleep(0.01)
        rec.end(inner)
        return threading.get_ident()

    outer = rec.begin("simulation.study")
    with pool_class(max_workers=2) as pool:
        threads = set(pool.map(work, range(6)))
    rec.end(outer)
    by_id = {s[spans.ID]: s for s in rec.spans}
    tasks = [s for s in rec.spans if s[spans.NAME] == "simulation.task"]
    inner = [s for s in rec.spans if s[spans.NAME] == "eigen.solve"]
    assert len(tasks) == len(inner) == 6
    assert all(t[spans.PARENT] == outer[spans.ID] for t in tasks)
    assert all(by_id[s[spans.PARENT]][spans.NAME] == "simulation.task" for s in inner)
    assert all(by_id[s[spans.PARENT]][spans.THREAD] == s[spans.THREAD] for s in inner)
    assert {t[spans.THREAD] for t in tasks} == threads
    assert rec.counters["pool.max_workers"] == 2
    own = spans.self_times(rec.spans)
    assert sum(own.values()) == pytest.approx(outer[spans.END] - outer[spans.START])


def test_traced_identify_counts_replicates_and_routes(tmp_path):
    grid, values = inputs.factor_panel(3, 60, 21)
    panel = tmp_path / "panel.csv"
    inputs.write_panel_csv(panel, grid, values)
    result = tmp_path / "cmd.json"
    argv = ["identify", "--panel", str(panel), "--p", "2", "--B", "10", "--d-max", "3",
            "--output-dir", str(tmp_path / "out")]
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), repr(time.monotonic()), str(result), "1",
         str(BENCH.parent / "src"), "--", *argv],
        check=True, timeout=120,
    )
    record = json.loads(result.read_text())
    trace = json.loads((tmp_path / "cmd.json.spans.json").read_text())
    assert trace["missing"] == []
    layers = spans.layer_metrics(trace["spans"], trace["counters"], record["run_s"])
    # select_dimension: 1 observed solve; each of 3 tests: 1 observed + 10 replicates.
    assert layers["eigen.operator_eigenvalues_calls"] == 34
    assert layers["dimension.useful_eigensolve_ratio"] == pytest.approx(30 / 34)
    assert layers["dimension.bootstrap_test_calls"] == 3
    assert layers["dimension.replicate_samples"] == 30
    assert layers["dimension.replicate_ms_tail_pct"] == pytest.approx(100 * 20 / 30)
    assert 0 < layers["dimension.replicate_ms_p50"] <= layers["dimension.replicate_ms_tail"]
    assert layers["eigen.route_dual_calls"] == 0
    assert layers["eigen.route_grid_calls"] == 34 + layers["eigen.decompose_calls"]
    assert layers["density.calls"] == 0
    assert layers["trace.accounted_ratio"] == pytest.approx(1.0, abs=0.05)
