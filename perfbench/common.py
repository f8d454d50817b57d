"""Shared helpers: percentiles, the host speed probe, the timed round loop,
set-up timing and the failure counter that feeds ``error_rate``."""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: percentiles a tail may be reported at, as exact fractions (num, den)
PERCENTILE_LADDER: Tuple[Tuple[int, int], ...] = (
    (50, 100),
    (90, 100),
    (99, 100),
    (999, 1000),
    (9999, 10000),
)
#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def _rank(count: int, num: int, den: int) -> int:
    """Nearest-rank position (1-based) of the num/den quantile."""
    return max(1, -(-num * count // den))


def percentile_label(num: int, den: int) -> str:
    """``p50``, ``p99``, ``p999``: the digits of the percentage."""
    digits = f"{100 * num / den:g}".replace(".", "")
    return f"p{digits}"


def percentile(samples: Sequence[float], num: int, den: int) -> float:
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), num, den) - 1]


def tail_percentile(
    samples: Sequence[float],
) -> Optional[Tuple[str, float, int]]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples past it.

    Returns ``(label, value, samples_beyond)``, or None when even the
    median has fewer than ``MIN_BEYOND`` samples beyond it.
    """
    ordered = sorted(samples)
    best = None
    for num, den in PERCENTILE_LADDER:
        rank = _rank(len(ordered), num, den)
        beyond = len(ordered) - rank
        if ordered and beyond >= MIN_BEYOND:
            best = (percentile_label(num, den), ordered[rank - 1], beyond)
    return best


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


#: iterations of the reference loop: about 10 ms of pure Python
PROBE_LOOPS = 100_000
#: seconds one probe takes at the reference speed gated figures are scaled to
PROBE_REFERENCE_S = 0.010
#: wall seconds between probes inside a single long library call
PROBE_INTERVAL_S = 0.25
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 7


class SpeedProbe:
    """Tracks how fast this host runs Python right now.

    On a shared host the same pure-Python loop runs up to a third slower
    or faster from one twenty-second window to the next, which would swamp
    any change in the library. Workloads time this fixed loop, which is the
    benchmark's own code, between their operations; a rate multiplied by
    :meth:`factor` is the rate at the reference speed, which stays steady
    while the host's speed drifts.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        begun = perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.samples.append(perf_counter() - begun)

    @contextmanager
    def sampling(self):
        """Probe every ``PROBE_INTERVAL_S`` wall seconds while the body runs.

        For a single long library call there is no boundary to probe at, so
        a timer signal interrupts it between bytecodes instead. Yields a
        one-item list holding the seconds the probes took, which the caller
        subtracts from its own timing.
        """
        spent = [0.0]

        def probe_now(signum, frame):
            self.sample()
            spent[0] += self.samples[-1]

        previous = signal.signal(signal.SIGALRM, probe_now)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, since: int = 0) -> float:
        """Mean probe time over samples[since:] relative to the reference:
        above 1 while the host runs slow.

        The host flips between a fast and a slow speed several times a
        second. The mean follows the share of time spent at each, which is
        what a timed operation pays; a median jumps from one speed to the
        other, and scaled rates spread about three times as much with it.
        """
        return statistics.mean(self.samples[since:]) / PROBE_REFERENCE_S


class Checks:
    """Counts correctness checks; a failure is recorded, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def guard(self, what: str, fn: Callable, *args, **kwargs):
        """Call ``fn``; an exception counts as one failed check.

        This is the run's error boundary: any failure inside the library
        is recorded with its message and the run goes on.
        """
        try:
            return fn(*args, **kwargs)
        except Exception as error:  # noqa: BLE001 -- counted, reported below
            self.check(False, f"{what}: {type(error).__name__}: {error}")
            return None

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_rounds(seconds: float, one_round: Callable[[], dict]) -> List[dict]:
    """Repeat ``one_round`` until the next one would end past ``seconds``."""
    results: List[dict] = []
    durations: List[float] = []
    started = perf_counter()
    while True:
        begun = perf_counter()
        results.append(one_round())
        durations.append(perf_counter() - begun)
        elapsed = perf_counter() - started
        if elapsed + median(durations) > seconds:
            return results


def time_imports(modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter takes to import ``modules``.

    The child times the imports itself, so interpreter start-up and process
    creation, which the library does not control, stay out of the figure.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); from time import perf_counter; "
        f"begun = perf_counter(); import {', '.join(modules)}; print(perf_counter() - begun)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=120, capture_output=True, text=True
    )
    return float(done.stdout.split()[-1])


def median_setup(modules: Sequence[str], prepare: Callable, release: Callable, probe: SpeedProbe):
    """Set up ``SETUP_REPS`` times; keep the last state.

    Returns ``(state, seconds, reference_seconds)``. Set-up time is the
    median import time of a fresh interpreter plus the median in-process
    time of ``prepare`` (input generation and executor warm-up); earlier
    states are released before the next is built. ``reference_seconds`` is
    the same at the probe's reference speed: imports ran about a third
    faster while the host was in its fast phase, which the probe sees too.
    """
    mark = len(probe.samples)
    probe.sample()
    imports = []
    for __ in range(SETUP_REPS):
        imports.append(time_imports(modules))
        probe.sample()
    state, seconds = None, []
    for __ in range(SETUP_REPS):
        if state is not None:
            release(state)
        begun = perf_counter()
        state = prepare()
        seconds.append(perf_counter() - begun)
        probe.sample()
    total = median(imports) + median(seconds)
    return state, total, total / probe.factor(mark)
