"""Timing, spans, statistics and digests shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Digest:
    """Order-sensitive sha256 over labelled parts."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, data: str | bytes) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        self._h.update(label.encode("utf-8") + b"\0" + str(len(data)).encode() + b"\0" + data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# --- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, trial id).

    Spans are only appended to a list while the run goes on; they are
    written out once, when the run ends.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trial: str | None = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.trial]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def summary(self) -> dict[str, "SpanStats"]:
        """Per-name count, total, self time and durations."""
        child_time = [0.0] * len(self.spans)
        for name, s, e, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
        out: dict[str, SpanStats] = {}
        for i, (name, s, e, _, _) in enumerate(self.spans):
            st = out.setdefault(name, SpanStats())
            st.durations.append(e - s)
            st.self_total += (e - s) - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, s, e, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": s, "end": e, "parent": parent, "trial": trial}) + "\n")


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a context that does nothing on an untraced op."""
    return nullcontext() if tracer is None else tracer.span(name)


@dataclass
class SpanStats:
    durations: list[float] = field(default_factory=list)
    self_total: float = 0.0

    @property
    def count(self) -> int:
        return len(self.durations)

    @property
    def total(self) -> float:
        return sum(self.durations)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def host_probe() -> float:
    """Seconds taken by a fixed slice of pure-Python work (about 1 ms).

    Timed after every op, it shows how fast the host ran at that moment,
    independent of what the op did.
    """
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        table[i & 255] = acc
        acc = (acc + i * 7) % 1000003
    return time.perf_counter() - t0


def host_speed(probes: int = 5) -> float:
    """Median of several host_probe() times: a steadier reading of the host's speed than one probe."""
    return statistics.median(host_probe() for _ in range(probes))


def time_calls(fn, args_list, repeat: int = 1) -> tuple[float, int]:
    """Total seconds and call count for fn(*args) over args_list, repeated."""
    n = 0
    t0 = time.perf_counter()
    for _ in range(repeat):
        for args in args_list:
            fn(*args)
            n += 1
    return time.perf_counter() - t0, n


# --- op records ----------------------------------------------------------------


@dataclass
class OpResult:
    """What one op reports back to the timed loop."""

    trials: int
    seconds: float = 0.0
    probe: float = 0.0  # mean host_probe() time just before and just after the op
    exchanges: int = 0
    failed: bool = False
    key: str = ""  # identity of the input; equal keys must give equal digests
    digest: str = ""
    errors: list[str] = field(default_factory=list)
