"""In-memory span tracing around the library's layer entry points.

The traced run replaces selected library functions with thin wrappers that
record one span per call: name, start, end, parent span and operation id.
Nothing under ``src/`` knows about it: :func:`install` patches each name
where its caller looks it up (a module attribute, or a class attribute for
methods) and :func:`Tracer.uninstall` puts every original object back.

Pool workers are forked from the traced process, so they inherit the
patched functions. Their spans come back to the parent through
:func:`_run_in_worker`, which the patched ``ProcessPoolExecutor.map``
wraps around every task; that is why the wrappers must be installed
before the pool's first ``map``.
"""

from __future__ import annotations

import functools
import importlib
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_MISSING = object()


@dataclass
class Span:
    """One wrapped call. ``outer`` is False when a span of the same name
    is already open in this process (the nested call is not counted again
    in busy time)."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    outer: bool
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: the installed tracer, reachable by import path from forked pool workers
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Collects spans in memory; one per traced run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.op = 0
        self.op_labels: Dict[int, str] = {}
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def begin_op(self, label: str) -> int:
        """Start a new operation; spans recorded from now on carry its id."""
        self.op += 1
        self.op_labels[self.op] = label
        return self.op

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        if os.getpid() != self.pid:
            span_id += os.getpid() << 32  # worker ids never collide with ours
        return span_id

    def call(self, name: str, fn: Callable, args, kwargs, observe=None):
        """Run ``fn`` under a span. ``observe(args)``, called before ``fn``,
        returns a function of the result giving the span's attributes."""
        finish = observe(args) if observe is not None else None
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        outer = not self._open.get(name)
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._open[name] -= 1
        attrs = finish(result) if finish is not None else {}
        self.spans.append(Span(span_id, name, start, end, parent, self.op, outer, attrs))
        return result

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span timed by the benchmark itself (no wrapped call)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(self._new_id(), name, start, end, parent, self.op, True, attrs)
        )

    def wrap(self, name: str, fn: Callable, observe=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        return traced

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None


def _run_in_worker(packed):
    """Run one pool task under a ``parallel.chunk`` span; ship spans back."""
    fn, item, parent, op = packed
    tracer = _ACTIVE
    if tracer is None or os.getpid() == tracer.pid:
        return fn(item), []  # serial fallback: the caller's spans suffice
    # the forked copy still holds the parent's spans from before the fork
    tracer.spans, tracer._stack, tracer._open = [], [parent], {}
    tracer.op = op
    result = tracer.call("parallel.chunk", fn, (item,), {})
    spans, tracer.spans, tracer._stack = tracer.spans, [], []
    return result, spans


def _traced_pool_map(tracer: Tracer, original_map):
    def pool_map(self, fn, items):
        def run(fn, items):
            parent = tracer._stack[-1]
            packed = [(fn, item, parent, tracer.op) for item in items]
            outputs = original_map(self, _run_in_worker, packed)
            for __, spans in outputs:
                tracer.spans.extend(spans)
            return [result for result, __ in outputs]

        return tracer.call(
            "parallel.map", run, (fn, items), {}, lambda a: lambda r: {"jobs": self.jobs}
        )

    return pool_map


# -- what gets patched --------------------------------------------------------


def _observe_compress(args):
    return lambda result: {
        "codec": result.codec,
        "level": result.level,
        "counters": result.counters,
    }


def _observe_sst_get(args):
    stats, before = args[0].stats, args[0].stats.bloom_skips
    return lambda result: {"bloom_skip": stats.bloom_skips > before}


#: (module, class or None, attribute, span name, observe); methods are
#: patched on the class that defines them, functions in the module that
#: calls them. Order matters: ``GraphCompressor`` inherits ``compress``,
#: so its wrapper must wrap the already-wrapped base method.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Optional[Callable]], ...] = (
    ("repro.codecs.base", "Compressor", "compress", "codecs.compress", _observe_compress),
    ("repro.codecs.base", "Compressor", "decompress", "codecs.decompress", None),
    ("repro.codecs.matchfinders.hash_chain", "HashChainMatchFinder", "parse", "codecs.parse", None),
    ("repro.codecs.matchfinders.single_hash", "SingleHashMatchFinder", "parse", "codecs.parse", None),
    ("repro.codecs.matchfinders.optimal", "OptimalMatchFinder", "parse", "codecs.parse", None),
    ("repro.codecs.zstd.blocks", None, "encode_block", "codecs.encode", None),
    ("repro.codecs.lz4.block", None, "encode_block", "codecs.encode", None),
    ("repro.codecs.deflate.deflate", None, "encode_stream", "codecs.encode", None),
    ("repro.codecs.zstd.blocks", None, "decode_block", "codecs.decode", None),
    ("repro.codecs.lz4.block", None, "decode_block", "codecs.decode", None),
    ("repro.codecs.deflate.inflate", None, "decode_stream", "codecs.decode", None),
    ("repro.codecs.zstd.codec", None, "xxh32", "codecs.checksum", None),
    ("repro.codecs.lz4.codec", None, "xxh32", "codecs.checksum", None),
    ("repro.codecs.deflate.codec", None, "adler32", "codecs.checksum", None),
    ("repro.codecs.deflate.codec", None, "crc32", "codecs.checksum", None),
    ("repro.services.kvstore.wal", None, "crc32", "codecs.checksum", None),
    ("repro.services.kvstore.manifest", None, "crc32", "codecs.checksum", None),
    ("repro.graphs.codec", "GraphCompressor", "compress", "graphs.compress", None),
    ("repro.graphs.codec", "GraphCompressor", "decompress", "graphs.decompress", None),
    ("repro.parallel.executors", "SerialExecutor", "map", "parallel.map", None),
    ("repro.parallel.executors", "ProcessPoolExecutor", "map", "parallel.map", None),
    ("repro.services.kvstore.db", "KVStore", "flush", "kvstore.flush", None),
    ("repro.services.kvstore.sst", "SSTable", "build", "kvstore.sst_build", None),
    ("repro.services.kvstore.sst", "SSTable", "get", "kvstore.sst_get", _observe_sst_get),
    ("repro.services.kvstore.wal", "WriteAheadLog", "append", "kvstore.wal_append", None),
    ("repro.services.kvstore.wal", "WriteAheadLog", "replay", "kvstore.wal_replay", None),
    ("repro.core.optimizer", "CompOpt", "optimize", "core.optimize", None),
    ("repro.core.optimizer", "CompOpt", "evaluate", "core.evaluate", None),
    ("repro.serving.workload", "WorkloadGenerator", "generate", "serving.generate", None),
    ("repro.serving.simulate", None, "build_scenario_ladder", "serving.ladder", None),
    ("repro.cluster.simulate", None, "build_scenario_ladder", "serving.ladder", None),
    ("repro.serving.gateway", "CompressionGateway", "submit", "serving.submit", None),
    ("repro.serving.gateway", "CompressionGateway", "serve_batch", "serving.serve_batch", None),
    ("repro.obs.slo", "SLOEvaluator", "on_window", "obs.slo_eval", None),
    ("repro.cluster.node", "ClusterNode", "serve_batch", "cluster.node_serve_batch", None),
    ("repro.cluster.ring", "HashRing", "replica_set", "cluster.ring_lookup", None),
    ("repro.cluster.ring", "HashRing", "primary", "cluster.ring_lookup", None),
)


def target_owners() -> List[Tuple[Any, str]]:
    """Every (owner, attribute) pair :func:`install` patches."""
    pairs = []
    for module_name, class_name, attr, __, __ in TARGETS:
        module = importlib.import_module(module_name)
        pairs.append((getattr(module, class_name) if class_name else module, attr))
    return pairs


def install() -> Tracer:
    """Patch every target and return the tracer that records them."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracer is already installed")
    tracer = Tracer()
    _ACTIVE = tracer
    try:
        for (owner, attr), (__, __, __, name, observe) in zip(target_owners(), TARGETS):
            if name == "parallel.map" and owner.__name__ == "ProcessPoolExecutor":
                tracer.patch(owner, attr, _traced_pool_map(tracer, owner.__dict__[attr]))
                continue
            raw = owner.__dict__.get(attr, _MISSING)
            if isinstance(raw, classmethod):
                tracer.patch(owner, attr, classmethod(tracer.wrap(name, raw.__func__, observe)))
            elif raw is _MISSING:  # inherited method: wrap what lookup finds now
                inherited = next(
                    base.__dict__[attr] for base in owner.__mro__ if attr in base.__dict__
                )
                tracer.patch(owner, attr, tracer.wrap(name, inherited, observe))
            else:
                tracer.patch(owner, attr, tracer.wrap(name, raw, observe))
    except BaseException:
        tracer.uninstall()
        raise
    return tracer


# -- turning spans into per-layer figures ---------------------------------------


class SpanIndex:
    """Busy time, self time and counts over a finished span list."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.children: Dict[int, List[Span]] = {}
        self._outer: Dict[str, List[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)
            if span.outer:
                self._outer.setdefault(span.name, []).append(span)

    def outer(self, name: str, ops: Optional[set] = None) -> List[Span]:
        spans = self._outer.get(name, [])
        return spans if ops is None else [s for s in spans if s.op in ops]

    def busy(self, name: str, ops: Optional[set] = None) -> float:
        return sum(s.seconds for s in self.outer(name, ops))

    def count(self, name: str) -> int:
        return len(self.outer(name))

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children.get(span.id, ())
        )
        covered, reach = 0.0, span.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.seconds - covered

    def self_busy(self, name: str) -> float:
        return sum(self.self_seconds(s) for s in self.outer(name))
