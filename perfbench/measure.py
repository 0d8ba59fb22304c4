"""Measurement helpers shared by the benchmark runner and its traced child.

Everything here is plain arithmetic or process plumbing and imports nothing
from the program under test, so the self-tests in ``perfbench/tests`` can
pin it without building a dataset.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

# -- summaries -----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """The highest percentile with at least ``beyond`` samples above it.

    For ``n`` samples that is ``100 * (1 - beyond / n)``; ``None`` when the
    sample is too small to support any tail percentile at all.
    """
    if n <= beyond:
        return None
    return 100.0 * (1.0 - beyond / n)


def summarize(values) -> dict:
    """Median, sample count and the highest supported tail percentile."""
    values = list(values)
    out = {"n": len(values), "median": statistics.median(values)}
    q = tail_percentile(len(values))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


# -- spans -----------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder: name, start, end and parent of every span.

    Spans nest through :meth:`span`; nothing is written until the caller
    serialises :attr:`spans` once at the end of the run.
    """

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def durations(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        return self_times(self.spans)

    def to_dicts(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's.

    Children are the spans whose ``parent`` is the span's index; the part
    of the parent's interval they cover is the union of their intervals
    clipped to the parent, so overlapping children are not counted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[str, float] = {}
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.name] = out.get(span.name, 0.0) + span.duration - covered
    return out


# -- processes -------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessRun:
    """One child process, timed spawn to exit and reaped with ``wait4``.

    ``steal_s`` is the CPU time the hypervisor took from this machine's
    CPUs while the child ran (all CPUs, all processes).
    """

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    steal_s: float = 0.0

    @property
    def unstolen_s(self) -> float:
        """Wall time less the time stolen meanwhile (see :func:`unstolen`)."""
        return unstolen(self.wall_s, self.steal_s)


def unstolen(wall_s: float, steal_s: float) -> float:
    """``wall_s`` less ``steal_s``: the time the machine was there to run.

    On a virtual machine whose host runs other guests, a stretch in which
    the hypervisor keeps this machine's CPUs off the host stalls whatever
    runs here, and it shows in the ``steal`` column of ``/proc/stat``.
    Taking it out of a wall time leaves what the program took on the
    machine it was given.  Steal accrues only on a virtual CPU that has
    work to run, so for a process whose critical path runs on one CPU at a
    time it is the stall itself; when both CPUs are stolen at once it
    overstates the stall by at most the smaller share.  Outside a VM
    steal is 0 and this is the wall time.
    """
    return wall_s - steal_s


def stolen_s() -> float:
    """CPU seconds stolen from this machine so far, summed over its CPUs.

    The ``steal`` column of ``/proc/stat``: time a virtual CPU wanted to
    run while the hypervisor ran something else.  0.0 where the kernel
    does not report it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def reap(proc: subprocess.Popen, started: float,
         steal_before: float | None = None) -> ProcessRun:
    """Wait for ``proc`` with ``os.wait4`` and time it from ``started``.

    ``wait4`` reports user + system CPU of the child and of every
    descendant it reaped (pool workers included), and ``ru_maxrss`` is the
    largest resident set of any process in that tree.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        steal_s=0.0 if steal_before is None else stolen_s() - steal_before,
    )


def run_timed(argv, env, cwd, log_path) -> ProcessRun:
    """Run ``argv`` to completion; stdout and stderr go to ``log_path``."""
    with open(log_path, "wb") as log:
        steal_before = stolen_s()
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            return reap(proc, started, steal_before)
        except BaseException:
            proc.kill()
            proc.wait()
            raise


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# -- output ----------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> dict:
    """The last-line JSON document: correctness, counts and named metrics."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
