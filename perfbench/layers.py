"""Per-layer metrics of the traced run, and what each should move.

Every figure is per round of the workload's fixed work (one bulk mix, one
kv op plan, one simulation), so it does not depend on how many rounds fit
in the run. Each entry names the end-to-end metric and workload it should
move; ``[...]`` gives the gated ``BENCHMARK.json`` metric that carries a
report-only one. ``fleet`` reports its ``requests_per_s`` as ``ops_per_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from perfbench.tracing import Span, SpanIndex


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    compute: Callable[["LayerContext"], float]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerContext:
    """Spans of the traced rounds plus the workload's own counters."""

    def __init__(self, spans: Sequence[Span], rounds: int, extras: Dict[str, float]) -> None:
        self.index = SpanIndex(spans)
        self.rounds = max(1, rounds)
        self.extras = extras

    def busy(self, name: str) -> float:
        return self.index.busy(name) / self.rounds

    def self_busy(self, name: str) -> float:
        return self.index.self_busy(name) / self.rounds

    def count(self, name: str) -> float:
        return self.index.count(name) / self.rounds

    def extra(self, name: str) -> float:
        return self.extras.get(name, 0.0)

    def compress_spans(self, ops: Optional[set] = None) -> List[Span]:
        return self.index.outer("codecs.compress", ops)

    def counter_sum(self, field: str) -> float:
        return sum(getattr(s.attrs["counters"], field) for s in self.compress_spans())

    def modeled(self, ops: Optional[set] = None) -> Dict[str, float]:
        """Machine-model cycles of every outer compress call, by stage."""
        from repro.perfmodel import DEFAULT_MACHINE

        totals = {"match_finding": 0.0, "entropy": 0.0, "seconds": 0.0}
        for span in self.compress_spans(ops):
            codec, counters = span.attrs["codec"], span.attrs["counters"]
            breakdown = DEFAULT_MACHINE.compress_breakdown(codec, counters)
            totals["match_finding"] += breakdown.match_finding
            totals["entropy"] += breakdown.entropy
            totals["seconds"] += DEFAULT_MACHINE.compress_seconds(codec, counters)
        return totals

    def parse_share(self, ops: Optional[set] = None) -> float:
        """Measured Fig. 7 split: match finding over match finding + entropy."""
        parse = self.index.busy("codecs.parse", ops)
        return _ratio(parse, parse + self.index.busy("codecs.encode", ops))

    def modeled_parse_share(self, ops: Optional[set] = None) -> float:
        modeled = self.modeled(ops)
        return _ratio(modeled["match_finding"], modeled["match_finding"] + modeled["entropy"])

    def pool_efficiency(self) -> float:
        pool_maps = [s for s in self.index.outer("parallel.map") if "jobs" in s.attrs]
        capacity = sum(s.attrs["jobs"] * s.seconds for s in pool_maps)
        return _ratio(self.index.busy("parallel.chunk"), capacity)

    def bloom_skip_ratio(self) -> float:
        gets = self.index.outer("kvstore.sst_get")
        return _ratio(sum(1 for s in gets if s.attrs.get("bloom_skip")), len(gets))


def _measured_over_modeled(c: LayerContext) -> float:
    measured = sum(s.seconds for s in c.compress_spans())
    return _ratio(c.modeled()["seconds"], measured)


_ENCODE = "compress_mbps@bulk most, then put_p999_ms@kv [compress_mbps@kv], then ops_per_s@fleet"
_DECODE = "decompress_mbps@bulk [ops_per_s@bulk], get_p99_ms@kv [ops_per_s@kv]"
_KV_WRITE = "put_p999_ms@kv, kv_ops_per_s@kv [compress_mbps@kv, ops_per_s@kv]"
_KV_READ = "get_p50_ms@kv, get_p99_ms@kv [ops_per_s@kv]"
_FLEET = "ops_per_s@fleet"
_OUTCOME = "outcome count: must not move under a pure speed change"

LAYER_METRICS: Sequence[LayerMetric] = (
    # -- codecs --
    LayerMetric("codecs.compress_s", "s", "lower", _ENCODE, lambda c: c.busy("codecs.compress")),
    LayerMetric("codecs.compress_calls", "count", "lower", "context for codecs.compress_s", lambda c: c.count("codecs.compress")),
    LayerMetric("codecs.decompress_s", "s", "lower", _DECODE, lambda c: c.busy("codecs.decompress")),
    LayerMetric("codecs.decompress_calls", "count", "lower", "context for codecs.decompress_s", lambda c: c.count("codecs.decompress")),
    LayerMetric("codecs.parse_s", "s", "lower", _ENCODE, lambda c: c.busy("codecs.parse")),
    LayerMetric("codecs.encode_s", "s", "lower", _ENCODE, lambda c: c.busy("codecs.encode")),
    LayerMetric("codecs.decode_s", "s", "lower", _DECODE, lambda c: c.busy("codecs.decode")),
    LayerMetric("codecs.checksum_s", "s", "lower", "compress_mbps@bulk, decompress_mbps@bulk [ops_per_s@bulk], recover_s@kv", lambda c: c.busy("codecs.checksum")),
    LayerMetric("codecs.parse_share", "ratio", "lower", "measured Fig. 7 split; context for codecs.parse_s", lambda c: c.parse_share()),
    LayerMetric("codecs.modeled_parse_share", "ratio", "lower", "modeled Fig. 7 split; moves only with stage counters", lambda c: c.modeled_parse_share()),
    LayerMetric("codecs.measured_over_modeled_mbps", "ratio", "higher", "compress_mbps@bulk", _measured_over_modeled),
    LayerMetric("codecs.hash_probes_per_byte", "count/B", "lower", "stage count, repeats exactly; compress_mbps@bulk", lambda c: _ratio(c.counter_sum("hash_probes"), c.counter_sum("bytes_in"))),
    LayerMetric("codecs.match_candidates_per_byte", "count/B", "lower", "stage count, repeats exactly; compress_mbps@bulk", lambda c: _ratio(c.counter_sum("match_candidates"), c.counter_sum("bytes_in"))),
    LayerMetric("codecs.setup_entries_per_call", "count/call", "lower", _FLEET, lambda c: _ratio(c.counter_sum("setup_entries"), len(c.compress_spans()))),
    # -- graphs --
    LayerMetric("graphs.compress_s", "s", "lower", "compress_mbps@bulk", lambda c: c.busy("graphs.compress")),
    LayerMetric("graphs.decompress_s", "s", "lower", "decompress_mbps@bulk [ops_per_s@bulk]", lambda c: c.busy("graphs.decompress")),
    # -- parallel --
    LayerMetric("parallel.map_s", "s", "lower", "compress_mbps@bulk; jobs=1 elsewhere, so nothing else", lambda c: c.busy("parallel.map")),
    LayerMetric("parallel.chunk_s_sum", "s", "lower", "compress_mbps@bulk", lambda c: c.busy("parallel.chunk")),
    LayerMetric("parallel.efficiency", "ratio", "higher", "compress_mbps@bulk", lambda c: c.pool_efficiency()),
    LayerMetric("parallel.chunks", "count", "lower", "context for parallel.efficiency", lambda c: c.count("parallel.chunk")),
    LayerMetric("parallel.pool_start_s", "s", "lower", "setup_s@bulk", lambda c: c.index.busy("parallel.pool_start")),
    # -- kvstore --
    LayerMetric("kvstore.flush_s", "s", "lower", _KV_WRITE, lambda c: c.busy("kvstore.flush")),
    LayerMetric("kvstore.flushes", "count", "lower", _KV_WRITE, lambda c: c.extra("kvstore.flushes")),
    LayerMetric("kvstore.compactions", "count", "lower", _KV_WRITE, lambda c: c.extra("kvstore.compactions")),
    LayerMetric("kvstore.sst_build_s", "s", "lower", _KV_WRITE, lambda c: c.busy("kvstore.sst_build")),
    LayerMetric("kvstore.write_amp", "ratio", "lower", _KV_WRITE, lambda c: c.extra("kvstore.write_amp")),
    LayerMetric("kvstore.wal_append_s", "s", "lower", "put_p50_ms@kv [ops_per_s@kv]", lambda c: c.busy("kvstore.wal_append")),
    LayerMetric("kvstore.sst_get_s", "s", "lower", _KV_READ, lambda c: c.busy("kvstore.sst_get")),
    LayerMetric("kvstore.blocks_per_get", "count", "lower", _KV_READ, lambda c: c.extra("kvstore.blocks_per_get")),
    LayerMetric("kvstore.block_cache_hit_ratio", "ratio", "higher", _KV_READ, lambda c: c.extra("kvstore.block_cache_hit_ratio")),
    LayerMetric("kvstore.bloom_skip_ratio", "ratio", "higher", _KV_READ, lambda c: c.bloom_skip_ratio()),
    LayerMetric("kvstore.wal_replay_s", "s", "lower", "recover_s@kv", lambda c: c.busy("kvstore.wal_replay")),
    # -- core --
    LayerMetric("core.optimize_s", "s", "lower", _FLEET, lambda c: c.busy("core.optimize")),
    LayerMetric("core.configs_evaluated", "count", "lower", _FLEET, lambda c: c.count("core.evaluate")),
    # -- serving --
    LayerMetric("serving.generate_s", "s", "lower", _FLEET, lambda c: c.busy("serving.generate")),
    LayerMetric("serving.ladder_s", "s", "lower", _FLEET, lambda c: c.busy("serving.ladder")),
    LayerMetric("serving.submit_s", "s", "lower", _FLEET, lambda c: c.busy("serving.submit")),
    LayerMetric("serving.serve_batch_s", "s", "lower", _FLEET + "; self time, codecs excluded", lambda c: c.self_busy("serving.serve_batch")),
    LayerMetric("serving.admitted_ratio", "ratio", "higher", _OUTCOME, lambda c: c.extra("serving.admitted_ratio")),
    LayerMetric("serving.degraded_share", "ratio", "lower", _OUTCOME, lambda c: c.extra("serving.degraded_share")),
    LayerMetric("serving.expired", "count", "lower", _OUTCOME, lambda c: c.extra("serving.expired")),
    LayerMetric("serving.raw_fallbacks", "count", "lower", _OUTCOME, lambda c: c.extra("serving.raw_fallbacks")),
    # -- obs --
    LayerMetric("obs.slo_eval_s", "s", "lower", _FLEET, lambda c: c.busy("obs.slo_eval")),
    # -- cluster --
    LayerMetric("cluster.codec_cache_hit_ratio", "ratio", "higher", _FLEET, lambda c: c.extra("cluster.codec_cache_hit_ratio")),
    LayerMetric("cluster.node_serve_batch_s", "s", "lower", _FLEET, lambda c: c.busy("cluster.node_serve_batch")),
    LayerMetric("cluster.ring_lookups", "count", "lower", _FLEET, lambda c: c.count("cluster.ring_lookup")),
    LayerMetric("cluster.nodes_peak", "count", "lower", "must hold exactly", lambda c: c.extra("cluster.nodes_peak")),
    # -- the tracer itself --
    LayerMetric("trace.overhead_share", "ratio", "lower", "traced over untraced round wall time, minus 1", lambda c: c.extra("trace.overhead_share")),
)


def layer_metrics(spans: Sequence[Span], rounds: int, extras: Dict[str, float]) -> Dict[str, float]:
    context = LayerContext(spans, rounds, extras)
    return {metric.name: float(metric.compute(context)) for metric in LAYER_METRICS}
