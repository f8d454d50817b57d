"""The three measured workloads, driven through the library's public API.

Each workload repeats a round of fixed work until the run's seconds are
used up, checks every output it can, and summarises its rounds into the
gated end-to-end metrics (declared in ``BENCHMARK.json``, present on every
workload) plus report-only figures under the names a user of that
workload would look for.

- ``bulk``: closed loop, one client. Large mixed payloads through
  ``compress_chunked``/``decompress_chunked`` on one long-lived pool.
  Large blocks amortise per-call set-up, so codec kernels and the pool do
  almost all the work.
- ``kv``: closed loop, one client. A durable ``KVStore`` on ``SimStorage``:
  shuffled puts with point gets, through flushes and levelled compaction,
  then a reopen. Writes and decode-bound reads share one codec.
- ``fleet``: ``run_cluster_simulation("fleet-surge")`` at ``jobs=1``,
  open-loop arrivals in simulated time; ring, router, autoscaler and shard
  windows over the fleet codec cache, so real compression is mostly cache
  hits. Each node runs the serving gateway, CompOpt ladder and SLO
  evaluation.

Rates are gated at the reference speed of :class:`~perfbench.common.SpeedProbe`
and printed as measured beside them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.common import Checks, SpeedProbe, median, percentile, tail_percentile
from perfbench.inputs import bulk_payload, kv_ops


@dataclass
class Figure:
    """One printed figure: a name a user would look for, with its unit."""

    name: str
    value: float
    unit: str
    note: str = ""


@dataclass
class Summary:
    metrics: Dict[str, float]
    figures: List[Figure]
    lines: List[str] = field(default_factory=list)


def _mb(nbytes: float) -> float:
    return nbytes / 1e6


# -- bulk -------------------------------------------------------------------------

#: (codec, level): the flat codecs at the levels fleets run, plus a graph
BULK_MIX: Tuple[Tuple[str, int], ...] = (
    ("zstd", 3),
    ("zstd", 9),
    ("lz4", 1),
    ("zlib", 6),
    ("graph:record", 1),
)
#: warm-up chunk: small enough to be cheap, big enough to touch every stage
_WARM_CHUNK = 8 * 1024


@dataclass
class BulkState:
    payload: bytes
    executor: object


class Bulk:
    name = "bulk"
    modules = ("repro.parallel", "repro.graphs")

    def __init__(self, seed: int, payload_bytes: Optional[int] = None) -> None:
        self.seed = seed
        self.payload_bytes = payload_bytes
        self.verified: set = set()
        self.probe = SpeedProbe()

    def prepare(self, tracer) -> BulkState:
        from repro import parallel

        payload = (
            bulk_payload(self.seed)
            if self.payload_bytes is None
            else bulk_payload(self.seed, self.payload_bytes)
        )
        jobs = parallel.resolve_jobs(0)
        begun = perf_counter()
        executor = parallel.make_executor(jobs)
        sample = payload[: 2 * jobs * _WARM_CHUNK]
        for codec, level in BULK_MIX:
            frames = parallel.compress_chunked(
                codec, sample, level, chunk_size=_WARM_CHUNK, executor=executor
            )
            parallel.decompress_chunked(codec, frames.data, executor=executor)
        if tracer is not None:
            tracer.record("parallel.pool_start", begun, perf_counter())
        return BulkState(payload, executor)

    def release(self, state: BulkState) -> None:
        state.executor.close()

    def round(self, state: BulkState, checks: Checks, tracer) -> dict:
        from repro import parallel
        from repro.codecs import get_codec
        from repro.perfmodel import DEFAULT_MACHINE

        payload = state.payload
        out = {"compress_s": 0.0, "decompress_s": 0.0, "raw": 0, "stored": 0, "ops": 0, "codecs": {}}
        mark = len(self.probe.samples)
        self.probe.sample()
        for codec, level in BULK_MIX:
            label = f"{codec}-{level}"
            if tracer is not None:
                tracer.begin_op(f"compress {label}")
            begun = perf_counter()
            frames = checks.guard(
                f"compress {label}",
                parallel.compress_chunked,
                codec,
                payload,
                level,
                executor=state.executor,
            )
            compress_s = perf_counter() - begun
            if frames is None:
                continue
            if tracer is not None:
                tracer.begin_op(f"decompress {label}")
            begun = perf_counter()
            back = checks.guard(
                f"decompress {label}",
                parallel.decompress_chunked,
                codec,
                frames.data,
                executor=state.executor,
            )
            decompress_s = perf_counter() - begun
            checks.check(
                back is not None and back.data == payload, f"round trip {label}"
            )
            if label not in self.verified:  # the stream is the same every round
                self.verified.add(label)
                single = checks.guard(
                    f"single-shot decompress {label}",
                    get_codec(codec).decompress,
                    frames.data,
                )
                checks.check(
                    single is not None and single.data == payload,
                    f"single-shot decompress {label}",
                )
            out["compress_s"] += compress_s
            out["decompress_s"] += decompress_s
            out["raw"] += len(payload)
            out["stored"] += len(frames.data)
            out["ops"] += 2
            out["codecs"][label] = {
                "raw_mb": _mb(len(payload)),
                "chunk_s": sum(report.seconds for report in frames.reports),
                "modeled_mbps": _mb(DEFAULT_MACHINE.compress_speed(codec, frames.counters)),
            }
            self.probe.sample()
        out["wall"] = out["compress_s"] + out["decompress_s"]
        out["speed"] = self.probe.factor(mark)
        return out

    def summarize(self, rounds: Sequence[dict]) -> Summary:
        done = [r for r in rounds if r["raw"]]
        compress = median([_mb(r["raw"]) / r["compress_s"] for r in done])
        decompress = median([_mb(r["raw"]) / r["decompress_s"] for r in done])
        ratio = median([r["raw"] / r["stored"] for r in done])
        metrics = {
            "compress_mbps": median([_mb(r["raw"]) / r["compress_s"] * r["speed"] for r in done]),
            "ops_per_s": median([r["ops"] / r["wall"] * r["speed"] for r in done]),
            "ratio": ratio,
        }
        n = f"as measured, median of {len(done)} rounds"
        figures = [
            Figure("compress_mbps", compress, "MB/s", n),
            Figure("decompress_mbps", decompress, "MB/s", n),
            Figure("ratio", ratio, "x", "aggregate over the mix"),
        ]
        return Summary(metrics, figures, self.modeled_report(done))

    def modeled_report(self, rounds: Sequence[dict]) -> List[str]:
        """Measured per-core compress MB/s next to the machine model's."""
        if not rounds:
            return []
        lines = [
            "measured vs modeled compress speed (reported, not gated); "
            "measured = raw MB over summed chunk seconds in the workers",
            f"  {'codec':14s} {'measured MB/s':>14s} {'modeled MB/s':>13s} {'meas/model':>11s}",
        ]
        speeds: Dict[str, Tuple[float, float]] = {}
        for label in rounds[0]["codecs"]:
            per_round = [r["codecs"][label] for r in rounds if label in r["codecs"]]
            measured = median([c["raw_mb"] / c["chunk_s"] for c in per_round])
            modeled = per_round[0]["modeled_mbps"]
            speeds[label] = (measured, modeled)
            lines.append(
                f"  {label:14s} {measured:14.3f} {modeled:13.1f} {measured / modeled:11.5f}"
            )
        lines.extend(_shape_flags("compress speed", speeds))
        return lines


def _shape_flags(what: str, values: Dict[str, Tuple[float, float]]) -> List[str]:
    """For each codec run at two or more levels, does the level trend agree?"""
    by_codec: Dict[str, List[Tuple[int, float, float]]] = {}
    for label, (measured, modeled) in values.items():
        codec, __, level = label.rpartition("-")
        by_codec.setdefault(codec, []).append((int(level), measured, modeled))
    lines = []
    for codec, points in sorted(by_codec.items()):
        if len(points) < 2:
            continue
        points.sort()
        (low, m0, p0), (high, m1, p1) = points[0], points[-1]
        measured_up, modeled_up = m1 > m0, p1 > p0
        verdict = "agree" if measured_up == modeled_up else "DISAGREE"
        lines.append(
            f"  {codec} level {low}->{high} {what}: measured "
            f"{'rises' if measured_up else 'falls'}, modeled "
            f"{'rises' if modeled_up else 'falls'} -> shapes {verdict}"
        )
    return lines


def bulk_parse_shares(tracer) -> List[str]:
    """Fig. 7 per codec and level: measured vs modeled match-finding share."""
    from perfbench.layers import LayerContext

    by_label: Dict[str, set] = {}
    for op, label in tracer.op_labels.items():
        if label.startswith("compress "):
            by_label.setdefault(label[len("compress "):], set()).add(op)
    if not by_label:
        return []
    context = LayerContext(tracer.spans, 1, {})
    lines = [
        "measured vs modeled match-finding share of parse+encode (Fig. 7; reported, not gated)",
        f"  {'codec':14s} {'measured':>9s} {'modeled':>8s}",
    ]
    shares: Dict[str, Tuple[float, float]] = {}
    for label, ops in sorted(by_label.items()):
        measured, modeled = context.parse_share(ops), context.modeled_parse_share(ops)
        shares[label] = (measured, modeled)
        lines.append(f"  {label:14s} {measured:9.3f} {modeled:8.3f}")
    lines.extend(_shape_flags("match-finding share", shares))
    return lines


# -- kv ---------------------------------------------------------------------------

#: the store KVSTORE1 runs (Section IV-E): level 1, 16 KiB blocks. A
#: 192 KiB memtable flushes about fourteen times per round, so the put
#: p99.9 (ten samples beyond) lands on a flush stall, not beside them
KV_OPTIONS = dict(
    compression_level=1,
    block_size=16 * 1024,
    memtable_bytes=192 * 1024,
    level0_table_limit=4,
    block_cache_bytes=1 << 20,
)


class Kv:
    name = "kv"
    modules = ("repro.services.kvstore", "repro.corpus.kvdata")

    def __init__(self, seed: int, puts: Optional[int] = None) -> None:
        self.seed = seed
        self.puts = puts
        self.probe = SpeedProbe()

    def prepare(self, tracer) -> list:
        return kv_ops(self.seed) if self.puts is None else kv_ops(self.seed, self.puts)

    def release(self, state) -> None:
        pass

    def _open(self, storage):
        from repro.codecs import get_codec
        from repro.services.kvstore import KVStore

        return KVStore.open(storage, codec=get_codec("zstd"), **KV_OPTIONS)

    def round(self, ops: list, checks: Checks, tracer) -> dict:
        from repro.services.kvstore import SimStorage

        storage = SimStorage(seed=self.seed)
        if tracer is not None:
            tracer.begin_op("open")
        store = self._open(storage)
        model: Dict[bytes, bytes] = {}
        put_s: List[float] = []
        get_s: List[float] = []
        user_bytes = 0
        mark = len(self.probe.samples)
        for number, (key, value) in enumerate(ops):
            if number % 256 == 0:
                self.probe.sample()
            if tracer is not None:
                tracer.begin_op("put" if value is not None else "get")
            try:
                if value is not None:
                    started = perf_counter()
                    store.put(key, value)
                    put_s.append(perf_counter() - started)
                    model[key] = value
                    user_bytes += len(key) + len(value)
                    checks.check(True, "put")
                else:
                    started = perf_counter()
                    got = store.get(key)
                    get_s.append(perf_counter() - started)
                    checks.check(got == model[key], f"get {key!r} returned a stale or wrong value")
            except Exception as error:  # noqa: BLE001 -- counted, reported below
                checks.check(False, f"kv op: {type(error).__name__}: {error}")
        self.probe.sample()
        op_s = sum(put_s) + sum(get_s)
        if tracer is not None:
            tracer.begin_op("reopen")
        started = perf_counter()
        reopened = checks.guard("reopen", self._open, storage)
        recover_s = perf_counter() - started
        if reopened is not None:
            survivors = checks.guard(
                "scan after reopen", lambda: dict(reopened.scan_range(b"", b"\xff" * 8))
            )
            checks.check(survivors == model, "key set after reopen differs from the model")
        stats = store.stats
        cache = store.block_cache.stats
        return {
            "wall": op_s + recover_s,
            "op_s": op_s,
            "speed": self.probe.factor(mark),
            "ops": len(put_s) + len(get_s),
            "put_s": put_s,
            "get_s": get_s,
            "user_bytes": user_bytes,
            "recover_s": recover_s,
            "ratio": stats.storage_ratio,
            "kvstore.flushes": stats.flushes,
            "kvstore.compactions": stats.compactions,
            "kvstore.write_amp": stats.raw_bytes_written / user_bytes if user_bytes else 0.0,
            "kvstore.blocks_per_get": stats.blocks_decompressed / stats.reads if stats.reads else 0.0,
            "kvstore.block_cache_hit_ratio": cache.hit_rate,
        }

    def summarize(self, rounds: Sequence[dict]) -> Summary:
        puts = [s for r in rounds for s in r["put_s"]]
        gets = [s for r in rounds for s in r["get_s"]]
        metrics = {
            "compress_mbps": median([_mb(r["user_bytes"]) / sum(r["put_s"]) * r["speed"] for r in rounds]),
            "ops_per_s": median([r["ops"] / r["op_s"] * r["speed"] for r in rounds]),
            "ratio": median([r["ratio"] for r in rounds]),
        }
        figures = [
            Figure("kv_ops_per_s", median([r["ops"] / r["op_s"] for r in rounds]), "1/s", f"as measured, {len(puts) + len(gets)} ops"),
            Figure("put_mbps", median([_mb(r["user_bytes"]) / sum(r["put_s"]) for r in rounds]), "MB/s", "user bytes over put seconds"),
        ]
        figures.extend(_latency_figures("put", puts))
        figures.extend(_latency_figures("get", gets))
        figures.append(
            Figure("recover_s", median([r["recover_s"] for r in rounds]), "s", f"median of {len(rounds)} reopens")
        )
        figures.append(Figure("ratio", metrics["ratio"], "x", "raw bytes written over bytes stored"))
        return Summary(metrics, figures)


def _latency_figures(op: str, samples: Sequence[float]) -> List[Figure]:
    if not samples:
        return []
    count = len(samples)
    figures = [Figure(f"{op}_p50_ms", percentile(samples, 50, 100) * 1e3, "ms", f"n={count}")]
    tail = tail_percentile(samples)
    if tail is not None and tail[0] != "p50":
        label, value, beyond = tail
        figures.append(Figure(f"{op}_{label}_ms", value * 1e3, "ms", f"n={count}, {beyond} beyond"))
    return figures


# -- fleet ----------------------------------------------------------------------------


class Fleet:
    """Whole cluster simulations; each scorecard must repeat exactly.

    A round runs the scenario once for each of ``seeds_per_round`` seeds
    derived from ``--seed``. The ladder a run builds, and so its cost per
    request and its ratio, depends on the seed's first payloads; one run
    alone varies by tens of percent between seeds, so a round pools several.
    """

    name = "fleet"
    modules = ("repro.cluster.simulate",)
    #: half the scenario keeps one run's ladder and cache misses small next
    #: to its traffic; five runs fill one round
    default_scale = 0.5
    seeds_per_round = 5

    def __init__(
        self, seed: int, scale: Optional[float] = None, seeds_per_round: Optional[int] = None
    ) -> None:
        self.seed = seed
        self.scale = self.default_scale if scale is None else scale
        count = self.seeds_per_round if seeds_per_round is None else seeds_per_round
        self.sim_seeds = [seed * 1000 + offset for offset in range(count)]
        self.digests: Dict[int, str] = {}
        self.probe = SpeedProbe()

    def prepare(self, tracer):
        return None

    def release(self, state) -> None:
        pass

    def _check(self, sim_seed: int, report, checks: Checks) -> None:
        checks.check(
            report.arrivals == report.admitted + report.throttled + report.shed,
            "arrivals != admitted + throttled + shed",
        )
        checks.check(
            report.admitted == report.served + report.expired,
            "admitted != served + expired",
        )
        checks.check(report.served == report.on_time + report.tardy, "served != on_time + tardy")
        from repro.cluster.simulate import format_cluster_scorecard

        scorecard = format_cluster_scorecard(report)
        digest = hashlib.blake2b(scorecard.encode(), digest_size=16).hexdigest()
        if self.digests.setdefault(sim_seed, digest) != digest:
            checks.check(False, f"scorecard digest of seed {sim_seed} changed between repetitions")

    def round(self, state, checks: Checks, tracer) -> dict:
        first = not self.digests
        totals = dict.fromkeys(
            ("wall", "arrivals", "admitted", "served", "degraded", "bytes_in", "bytes_out"), 0.0
        )
        extras = dict.fromkeys(
            (
                "serving.expired",
                "serving.raw_fallbacks",
                "cluster.codec_cache_hit_ratio",
                "cluster.nodes_peak",
            ),
            0.0,
        )
        mark = len(self.probe.samples)
        self.probe.sample()
        for sim_seed in self.sim_seeds:
            if tracer is not None:
                tracer.begin_op(f"simulate {self.name} seed {sim_seed}")
            with self.probe.sampling() as probing:
                begun = perf_counter()
                report = checks.guard(f"simulate seed {sim_seed}", self.simulate, sim_seed)
                wall = perf_counter() - begun
            totals["wall"] += wall - probing[0]
            if report is None:
                continue
            self._check(sim_seed, report, checks)
            for key in ("arrivals", "admitted", "served", "degraded"):
                totals[key] += getattr(report, key)
            totals["bytes_in"] += report.bytes_in_served
            totals["bytes_out"] += report.bytes_out
            extras["serving.expired"] += report.expired
            extras["serving.raw_fallbacks"] += report.raw_fallbacks
            lookups = report.cache_hits + report.cache_misses
            hit_ratio = report.cache_hits / lookups if lookups else 0.0
            extras["cluster.codec_cache_hit_ratio"] += hit_ratio / len(self.sim_seeds)
            extras["cluster.nodes_peak"] += report.nodes_peak / len(self.sim_seeds)
            self.probe.sample()
        totals["speed"] = self.probe.factor(mark)
        if first:  # one repetition per run proves the scorecard repeats
            again = checks.guard("repeat simulation", self.simulate, self.sim_seeds[0])
            if again is not None:
                self._check(self.sim_seeds[0], again, checks)
        return {
            **totals,
            **extras,
            "serving.admitted_ratio": totals["admitted"] / totals["arrivals"] if totals["arrivals"] else 0.0,
            "serving.degraded_share": totals["degraded"] / totals["served"] if totals["served"] else 0.0,
        }

    def simulate(self, sim_seed: int):
        from repro.cluster import simulate

        return simulate.run_cluster_simulation("fleet-surge", seed=sim_seed, scale=self.scale, jobs=1)

    def summarize(self, rounds: Sequence[dict]) -> Summary:
        done = [r for r in rounds if r["arrivals"] and r["bytes_out"]]
        metrics = {
            "ops_per_s": median([r["arrivals"] / r["wall"] * r["speed"] for r in done]),
            "compress_mbps": median([_mb(r["bytes_in"]) / r["wall"] * r["speed"] for r in done]),
            "ratio": median([r["bytes_in"] / r["bytes_out"] for r in done]),
        }
        runs = f"{len(done)} rounds of {len(self.sim_seeds)} seeds"
        figures = [
            Figure("requests_per_s", median([r["arrivals"] / r["wall"] for r in done]), "1/s", f"simulated arrivals per wall second as measured, median of {runs}"),
            Figure("ratio", metrics["ratio"], "x", "achieved_ratio over the round's seeds"),
        ]
        lines = [
            f"scorecard digests repeat for seeds {self.sim_seeds[0]}..{self.sim_seeds[-1]}: "
            + " ".join(self.digests[s][:8] for s in self.sim_seeds if s in self.digests)
        ]
        return Summary(metrics, figures, lines)


WORKLOADS = {"bulk": Bulk, "kv": Kv, "fleet": Fleet}
