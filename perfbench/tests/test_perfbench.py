"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import run as bench_run  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.common import tail_percentile  # noqa: E402
from perfbench.inputs import bulk_payload, kv_ops  # noqa: E402
from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.workloads import Bulk, Fleet, Kv  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_workloads(seed: int = 5):
    """Every workload at a size that runs in seconds."""
    return [
        Bulk(seed, payload_bytes=64 * 1024),
        Kv(seed, puts=400),
        Fleet(seed, scale=0.02, seeds_per_round=2),
    ]


# -- inputs -------------------------------------------------------------------------


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    assert bulk_payload(3, 64 * 1024) == bulk_payload(3, 64 * 1024)
    assert bulk_payload(3, 64 * 1024) != bulk_payload(4, 64 * 1024)
    assert len(bulk_payload(3, 64 * 1024)) == 64 * 1024
    assert kv_ops(3, 300) == kv_ops(3, 300)
    assert kv_ops(3, 300) != kv_ops(4, 300)


def test_kv_gets_only_read_keys_already_written():
    written = set()
    for key, value in kv_ops(9, 400):
        if value is None:
            assert key in written
        else:
            written.add(key)


# -- percentiles ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, label, beyond",
    [
        (19, None, None),  # even the median would have only 9 beyond
        (20, "p50", 10),
        (100, "p90", 10),
        (999, "p90", 99),  # p99 would leave 9
        (1000, "p99", 10),
        (2560, "p99", 25),
        (10_000, "p999", 10),  # exact arithmetic: 0.999 * 10000 is not 9990.0000001
        (10_240, "p999", 10),
        (100_000, "p9999", 10),
    ],
)
def test_tail_percentile_has_at_least_ten_samples_beyond(count, label, beyond):
    samples = [float(v) for v in range(count, 0, -1)]  # unsorted input
    tail = tail_percentile(samples)
    if label is None:
        assert tail is None
        return
    got_label, value, got_beyond = tail
    assert (got_label, got_beyond) == (label, beyond)
    assert sum(1 for s in samples if s > value) == beyond


# -- declared metrics ---------------------------------------------------------------


def test_layer_table_matches_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in LAYER_METRICS]


def test_end_to_end_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == bench_run.END_TO_END_UNITS
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_every_emitted_metric_is_declared(trace):
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    for workload in small_workloads():
        lines, metrics, checks = bench_run.run(workload, 0.01, trace)
        assert checks.failed == 0, lines
        assert {name: m["unit"] for name, m in metrics.items()} == declared, workload.name
        for name, metric in metrics.items():
            value = metric["value"]
            assert isinstance(value, float) and value == value, (workload.name, name)
            if not trace:
                assert value > 0, (workload.name, name)


# -- tracing -------------------------------------------------------------------------


def _current_targets():
    return [
        (owner, attr, owner.__dict__.get(attr, tracing._MISSING))
        for owner, attr in tracing.target_owners()
    ]


def test_traced_run_unpatches_every_library_function():
    before = _current_targets()
    for workload in (Bulk(2, payload_bytes=64 * 1024), Kv(2, puts=300)):
        bench_run.run(workload, 0.01, True)
    after = _current_targets()
    assert [(o, a) for o, a, __ in before] == [(o, a) for o, a, __ in after]
    for (owner, attr, original), (__, __, now) in zip(before, after):
        assert now is original, f"{owner.__name__}.{attr} is still patched"
    assert tracing._ACTIVE is None


def test_worker_spans_come_back_to_the_parent():
    from repro import parallel

    tracer = tracing.install()
    try:
        executor = parallel.make_executor(2)
        try:
            tracer.begin_op("compress")
            data = bulk_payload(1, 64 * 1024)
            frames = parallel.compress_chunked("lz4", data, 1, chunk_size=16 * 1024, executor=executor)
        finally:
            executor.close()
    finally:
        tracer.uninstall()
    assert parallel.decompress_chunked("lz4", frames.data).data == data
    chunks = [s for s in tracer.spans if s.name == "parallel.chunk"]
    (pool_map,) = [s for s in tracer.spans if s.name == "parallel.map"]
    assert len(chunks) == 4
    assert all(s.parent == pool_map.id and s.op == pool_map.op for s in chunks)
    chunk_ids = {s.id for s in chunks}
    compresses = [s for s in tracer.spans if s.name == "codecs.compress"]
    assert len(compresses) == 4 and all(s.parent in chunk_ids for s in compresses)


def test_self_time_excludes_children():
    spans = [
        tracing.Span(1, "outer", 0.0, 10.0, None, 1, True),
        tracing.Span(2, "child", 1.0, 4.0, 1, 1, True),
        tracing.Span(3, "child", 3.0, 6.0, 1, 1, True),  # overlaps: a pool
        tracing.Span(4, "outer", 2.0, 3.0, 2, 1, False),  # nested, not re-counted
    ]
    index = tracing.SpanIndex(spans)
    assert index.busy("outer") == 10.0
    assert index.count("outer") == 1
    assert index.self_busy("outer") == pytest.approx(5.0)
