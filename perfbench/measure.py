"""Measurement helpers of the cold-path benchmark.

* the percentile rule: a percentile above the median is reported only
  when at least :data:`MIN_TAIL` samples lie beyond it;
* :class:`Meter` — times each operation against a fixed reference loop
  run around and inside it, so that a time can also be read in units
  of the host's current speed;
* :class:`Tally` — failure counting behind ``success_rate``;
* CPU and peak memory of this process *and* of its live children,
  read from ``/proc`` (``RUSAGE_CHILDREN`` only covers children that
  have been waited for, so it misses a warm farm's live workers);
* the host record printed with every run.
"""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Samples that must lie beyond a reported tail percentile.
MIN_TAIL = 10
#: Iterations of the reference loop (about 25 ms on a current x86 core).
REFERENCE_LOOP = 300_000
#: Wall seconds between reference samples taken inside an operation.
SAMPLE_EVERY_S = 0.1
#: Iterations of one such sample (about 2 ms).
SAMPLE_LOOP = 25_000

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def tail_percentile(values: list[float], q: int) -> float | None:
    """The ``q``-th percentile, or ``None`` when too few samples lie beyond it.

    ``q`` is a whole percent above 50.  Quantiles follow
    :func:`statistics.quantiles` (exclusive method).
    """
    if not 50 < q < 100 or len(values) < 2:
        raise ValueError(f"need 50 < q < 100 and two samples, got q={q}")
    cut = statistics.quantiles(values, n=100)[q - 1]
    beyond = sum(1 for value in values if value > cut)
    return cut if beyond >= MIN_TAIL else None


@dataclass
class Tally:
    """Operations attempted and failed; a failure keeps its reason.

    A failed, refused, degraded or wrong answer is one failure.
    ``wrong`` counts the subset whose answer disagreed with the
    reference — the run's ``correct`` flag is false when it is nonzero.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, failure: tuple[str, bool] | None) -> None:
        """Count one operation: ``None`` if it succeeded, else ``(reason, wrong)``."""
        self.attempted += 1
        if failure is None:
            return
        reason, wrong = failure
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        """Failures over operations attempted (0 when none attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def success_rate(self) -> float:
        """``1 - error_rate``: the end-to-end metric (never 0 on a sane run)."""
        return 1.0 - self.error_rate


# ----------------------------------------------------------------------
# Timing against the reference loop
# ----------------------------------------------------------------------


def reference_s(iterations: int = REFERENCE_LOOP) -> float:
    """Wall seconds of a fixed pure-Python loop: the host's speed right now."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter() - started


class Meter:
    """Wall and CPU seconds per operation, also in reference-loop units.

    The reference loop runs before the first operation and after each
    one.  While an operation runs, an interval timer interrupts it every
    :data:`SAMPLE_EVERY_S` to time a short run of the same loop; the
    sample's own time is taken out of the operation's.  An operation's
    ``ref`` values are its seconds divided by the mean loop time over
    the operation: the samples inside it, scaled to a full loop, and the
    loops before and after it.  On a shared host whose speed drifts,
    even within one operation, the ratio keeps the program's cost and
    drops most of the host's.

    ``sample_inside=False`` leaves out the samples inside operations.
    An operation farmed out to workers on every CPU needs that: its
    parent mostly waits, and a sample would time the contention with
    the workers rather than the host.
    """

    def __init__(self, sample_inside: bool = True) -> None:
        self.sample_inside = sample_inside
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self.wall_ref: list[float] = []
        self.cpu_ref: list[float] = []
        self.reference_s: list[float] = [reference_s()]
        self._samples: list[float] = []
        self._paused_wall = self._paused_cpu = 0.0

    @contextmanager
    def op(self):
        """Time the body as one operation (also when it raises)."""
        self._samples = [self.reference_s[-1]]
        self._paused_wall = self._paused_cpu = 0.0
        cpu_before = cpu_s()
        started = time.perf_counter()
        try:
            with self._sampling():
                yield
        finally:
            wall = time.perf_counter() - started - self._paused_wall
            cpu = cpu_s() - cpu_before - self._paused_cpu
            self.reference_s.append(reference_s())
            self._samples.append(self.reference_s[-1])
            scale = statistics.fmean(self._samples)
            self.wall_s.append(wall)
            self.cpu_s.append(cpu)
            self.wall_ref.append(wall / scale)
            self.cpu_ref.append(cpu / scale)

    @contextmanager
    def _sampling(self):
        """Call :meth:`_sample` every :data:`SAMPLE_EVERY_S` inside the body."""
        if not self.sample_inside:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _sample(self, signum, frame) -> None:
        """SIGALRM handler: one short reference sample, untimed for the op."""
        wall_before, cpu_before = time.perf_counter(), time.process_time()
        self._samples.append(reference_s(SAMPLE_LOOP) * REFERENCE_LOOP / SAMPLE_LOOP)
        self._paused_cpu += time.process_time() - cpu_before
        self._paused_wall += time.perf_counter() - wall_before

    def summary(self) -> dict:
        """Medians in seconds and every operation's ``ref`` time, for the
        metadata line."""
        return {
            "analysis_s.p50": statistics.median(self.wall_s),
            "cpu_s.per_op": statistics.median(self.cpu_s),
            "reference_s.p50": statistics.median(self.reference_s),
            "wall_ref": self.wall_ref,
        }


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------


def children(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` (scans ``/proc``; no psutil here)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _stat_fields(int(entry))
        if stat is not None and int(stat[1]) == pid:
            found.append(int(entry))
    return found


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or ``None``.

    Field 0 of the result is the state, field 1 the parent pid, fields
    11 and 12 utime and stime in clock ticks.
    """
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:  # the process exited between listdir and open
        return None
    return text[text.rfind(")") + 2 :].split()


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process (0 if gone)."""
    stat = _stat_fields(pid)
    if stat is None:
        return 0.0
    return (int(stat[11]) + int(stat[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process in MB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_s() -> float:
    """CPU seconds of this process, its reaped children and its live ones.

    Differences of this total over a timed region count a warm farm's
    workers as well as the parent; a worker that dies inside the region
    moves from the live term to the reaped one without loss.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + children_cpu_s()


def children_cpu_s() -> float:
    """CPU seconds of this process's reaped children and its live ones."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(process_cpu_s(child) for child in children(os.getpid()))
    return reaped.ru_utime + reaped.ru_stime + live


def footprint_mb() -> float:
    """Peak RSS of this process plus that of its largest live child."""
    workers = [peak_rss_mb(child) for child in children(os.getpid())]
    return peak_rss_mb(os.getpid()) + max(workers, default=0.0)


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------


def host_record() -> dict:
    """Metadata that lets runs on different hosts be compared fairly."""
    import numpy
    import scipy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_s": min(reference_s() for _ in range(3)),
    }
