"""Measured benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched; the
gated rates and set-up time are scaled to the reference speed of
``SpeedProbe`` (see ``perfbench/common.py``) and the as-measured figures
are printed beside them; ``ratio`` is gated as measured. ``--trace 1``
spends half the seconds untraced and half with every layer's entry points
wrapped (see ``perfbench/tracing.py``); it prints the per-layer metrics,
what each should move, and the tracing overhead, and writes the spans to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when any failed, and 2 when the library cannot
be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# make ``perfbench`` and the library importable; when run as a script,
# drop this directory from the path so its modules never shadow the stdlib
if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
    del sys.path[0]
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from perfbench import tracing  # noqa: E402
from perfbench.common import PROBE_REFERENCE_S, SETUP_REPS, Checks, median, median_setup, run_rounds  # noqa: E402
from perfbench.layers import LAYER_METRICS, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Figure, bulk_parse_shares  # noqa: E402

#: the gated end-to-end metrics (``BENCHMARK.json``) and their units
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "compress_mbps": "MB/s",
    "ratio": "x",
    "setup_s": "s",
}


def measure(workload, seconds: float, checks: Checks):
    """Untraced run: set up (timed, median of ``SETUP_REPS``), then rounds."""
    state, setup_s, setup_reference_s = median_setup(
        workload.modules, lambda: workload.prepare(None), workload.release, workload.probe
    )
    try:
        rounds = run_rounds(seconds, lambda: workload.round(state, checks, None))
    finally:
        workload.release(state)
    summary = workload.summarize(rounds)
    summary.metrics["setup_s"] = setup_reference_s
    summary.figures.append(Figure("setup_s", setup_s, "s", f"as measured, median of {SETUP_REPS} set-ups"))
    return summary


def measure_traced(workload, seconds: float, checks: Checks):
    """Half the time untraced, half traced; per-layer metrics and overhead."""
    state = workload.prepare(None)
    try:
        plain = run_rounds(seconds / 2, lambda: workload.round(state, checks, None))
    finally:
        workload.release(state)
    tracer = tracing.install()
    try:
        setup_op = tracer.begin_op("setup")
        state = workload.prepare(tracer)
        try:
            traced = run_rounds(seconds / 2, lambda: workload.round(state, checks, tracer))
        finally:
            workload.release(state)
    finally:
        tracer.uninstall()
    extras = {
        key: median([r[key] for r in traced if key in r])
        for key in traced[0]
        if "." in key and isinstance(traced[0][key], (int, float))
    }
    # round wall time at the reference speed, so host drift between the
    # untraced and traced halves does not pass for tracing cost
    def reference_wall(rounds):
        return median([r["wall"] / r["speed"] for r in rounds])

    extras["trace.overhead_share"] = reference_wall(traced) / reference_wall(plain) - 1.0
    # warm-up calls made while setting up are not part of any round
    spans = [s for s in tracer.spans if s.op != setup_op or s.name == "parallel.pool_start"]
    return tracer, layer_metrics(spans, len(traced), extras), len(plain), len(traced)


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for span in tracer.spans:
            out.write(
                json.dumps(
                    {
                        "id": span.id,
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "parent": span.parent,
                        "op": span.op,
                        "op_label": tracer.op_labels.get(span.op, ""),
                    }
                )
                + "\n"
            )


def run(workload, seconds: float, trace: bool):
    """Run one workload; returns (report lines, JSON metrics, checks)."""
    checks = Checks()
    lines = []
    if trace:
        tracer, layers, plain, traced = measure_traced(workload, seconds, checks)
        spans_path = ROOT / "perfbench" / "out" / f"spans-{workload.name}-seed{workload.seed}.jsonl"
        write_spans(tracer, spans_path)
        lines.append(
            f"per-layer metrics, per round ({traced} traced rounds, {plain} untraced; "
            f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)})"
        )
        for metric in LAYER_METRICS:
            lines.append(
                f"  {metric.name:34s} {layers[metric.name]:14.6g} {metric.unit:10s} -> {metric.moves}"
            )
        if workload.name == "bulk":
            lines.extend(bulk_parse_shares(tracer))
        lines.append(
            f"tracing overhead: {layers['trace.overhead_share'] * 100:+.1f}% of untraced round wall time"
        )
        metrics = {m.name: {"value": layers[m.name], "unit": m.unit} for m in LAYER_METRICS}
    else:
        summary = measure(workload, seconds, checks)
        lines.append("report (as measured on this host):")
        for figure in summary.figures:
            lines.append(f"  {figure.name:18s} {figure.value:14.6g} {figure.unit:5s} {figure.note}")
        lines.extend(summary.lines)
        lines.append(
            f"gated (times and rates at the reference speed: one probe = {PROBE_REFERENCE_S * 1e3:g} ms; "
            f"this run's probes took {statistics.mean(workload.probe.samples) * 1e3:.2f} ms on average):"
        )
        for name, unit in END_TO_END_UNITS.items():
            lines.append(f"  {name:18s} {summary.metrics[name]:14.6g} {unit}")
        metrics = {
            name: {"value": summary.metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    lines.append(
        f"  error_rate {checks.error_rate:g} ({checks.failed} failed of {checks.attempted} checks)"
    )
    lines.extend(f"  FAILED: {message}" for message in checks.messages)
    return lines, metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import repro
    except ImportError as error:
        print(f"error: the repro library is not importable from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"error: repro was imported from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    lines, metrics, checks = run(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": max(1, checks.attempted),
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
