"""Measurement helpers: percentiles, memory, run environment and spans."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

TAIL_SAMPLES = 10


def nearest_rank(samples: list[float], q: float) -> float:
    """The q-quantile by nearest rank: the ceil(q n)-th smallest sample."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of count samples lie above their nearest-rank q-quantile."""
    return count - max(math.ceil(q * count), 1)


def min_samples(q: float, beyond: int = TAIL_SAMPLES) -> int:
    """Fewest samples that leave at least `beyond` above the q-quantile."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process, plus its largest child if asked.

    Linux reports ru_maxrss in KiB; for RUSAGE_CHILDREN it is the peak of
    the largest waited-for child, which for a pooled sweep is a worker.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def environment(root: str) -> dict:
    """git sha, Python version, usable cores and load average at start."""
    sha = "unknown"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        # a checkout that is not a repository may sit inside another one
        if os.path.samefile(top, root):
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    request: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, written out once when the run ends.

    A span's parent is the span open when it started; spans opened while
    `request` holds one id belong to the same request.  Self time is a
    span's duration minus the durations of its children.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, len(self.spans), self._open[-1] if self._open else None,
                    self.request, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        """fn with a span around every call, for patching a caller's reference."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def select(self, name: str, phase: str) -> list[Span]:
        """Spans called name whose request id starts with phase."""
        return [s for s in self.spans if s.name == name and s.request.startswith(phase)]

    def busy(self, name: str, phase: str) -> tuple[int, float]:
        """(calls, total seconds) of the named spans in a phase."""
        spans = self.select(name, phase)
        return len(spans), sum(s.duration for s in spans)

    def self_time(self, name: str, phase: str) -> float:
        children = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] += s.duration
        return sum(s.duration - children[s.span_id] for s in self.select(name, phase))

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
