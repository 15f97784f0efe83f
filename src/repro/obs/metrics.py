"""Prometheus text exposition plus the two instruments the serving layer bumps.

* :class:`MetricFamily` is one named metric with its samples, what a
  scrape of ``GET /metrics`` collects; :func:`counter_family` and
  :func:`gauge_family` build the common shapes, and
  :func:`render_families` renders a list of them in the Prometheus text
  exposition format.  The server's one place that builds the families
  from live objects is :func:`repro.server.observe.render_metrics`.
* :class:`Histogram` is a bounded rolling window with nearest-rank
  quantiles (the dispatcher's request latency).
* :class:`CounterGroup` is a thread-safe ``dict`` of named counters
  (``QueryDispatcher.counters``, ``WorkerPool.counters``,
  ``ViewManager.counters``): readers index it like a plain dict, writers
  get an atomic :meth:`~CounterGroup.bump`.

Instruments are cheap on the hot path: a counter bump is one lock
acquisition and an integer add; rendering cost is paid only by the
scraper.  Nothing here imports the engine, so any layer may depend on
it without cycles.
"""

from __future__ import annotations

import math
import re
import threading

from collections import deque
from typing import Iterable, Mapping, Sequence

__all__ = [
    "CounterGroup",
    "Histogram",
    "MetricFamily",
    "counter_family",
    "gauge_family",
    "render_families",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: The metric kinds the renderer understands (Prometheus TYPE values).
_KINDS = frozenset({"counter", "gauge", "summary", "untyped"})


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    """Prometheus-flavoured number formatting: integral values render
    without a fractional part, specials as +Inf/-Inf/NaN."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricFamily:
    """One named metric with its samples: what a scrape collects.

    ``samples`` is a list of ``(labels, value)`` pairs; ``labels`` is a
    (possibly empty) mapping of label name to value.  ``kind`` is the
    Prometheus TYPE (``counter``, ``gauge``, ``summary`` or
    ``untyped``); ``suffix`` on a sample (e.g. ``_sum``, ``_count``)
    supports summary families.
    """

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        samples: "Sequence[tuple[Mapping[str, str], float]] | None" = None,
    ) -> None:
        self.name = _check_name(name)
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.kind = kind
        self.help = help
        self.samples: list = list(samples or ())

    def add(self, labels: Mapping[str, str], value: float, suffix: str = "") -> None:
        self.samples.append((dict(labels), float(value)) if not suffix else (dict(labels), float(value), suffix))

    def __repr__(self) -> str:
        return f"MetricFamily({self.name!r}, {self.kind!r}, {len(self.samples)} samples)"


def counter_family(
    name: str, help: str, values: Mapping[str, float], label: str = "key"
) -> MetricFamily:
    """A counter family from a named-counter dict: one sample per key,
    keyed by the ``label`` label."""
    family = MetricFamily(name, "counter", help)
    for key in sorted(values):
        family.add({label: str(key)}, values[key])
    return family


def gauge_family(
    name: str, help: str,
    samples: "Iterable[tuple[Mapping[str, str], float]]",
) -> MetricFamily:
    """A gauge family from pre-built ``(labels, value)`` samples."""
    return MetricFamily(name, "gauge", help, list(samples))


def render_families(families: Iterable[MetricFamily]) -> str:
    """Render metric families in the Prometheus text exposition format."""
    lines: list[str] = []
    for family in families:
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples:
            labels, value = sample[0], sample[1]
            suffix = sample[2] if len(sample) > 2 else ""
            if labels:
                rendered = ",".join(
                    f'{key}="{_escape_label_value(labels[key])}"'
                    for key in sorted(labels)
                )
                lines.append(f"{family.name}{suffix}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{family.name}{suffix} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Histogram:
    """Rolling-window quantiles over recorded samples (nearest-rank).

    ``count`` and the mean cover everything ever recorded; quantiles
    cover the most recent ``window`` samples — recent enough to reflect
    the current regime, bounded so a long-lived process never
    accumulates unbounded samples.

    Quantile semantics:

    * an **empty** window yields ``0.0`` for every quantile;
    * a **single** sample is every quantile;
    * ``fraction`` is clamped into ``[0, 1]`` — ``quantile(0)`` is the
      window minimum, ``quantile(1)`` the maximum, and out-of-range
      fractions never index past the sample list;
    * at the **window boundary** the oldest sample has been evicted, so
      quantiles describe exactly the retained ``window`` samples.
    """

    __slots__ = ("name", "help", "_lock", "_samples", "count", "_total")

    def __init__(self, window: int = 2048, name: str = "histogram", help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = threading.Lock()
        self._samples: "deque[float]" = deque(maxlen=max(1, int(window)))
        self.count = 0
        self._total = 0.0

    def record(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)
            self.count += 1
            self._total += value

    @staticmethod
    def _rank(samples: Sequence[float], fraction: float) -> float:
        if not samples:
            return 0.0
        fraction = min(max(fraction, 0.0), 1.0)
        index = max(0, math.ceil(fraction * len(samples)) - 1)
        return samples[min(index, len(samples) - 1)]

    def quantile(self, fraction: float) -> float:
        """The nearest-rank ``fraction`` quantile of the current window."""
        with self._lock:
            samples = sorted(self._samples)
        return self._rank(samples, fraction)

    def summary(self) -> dict:
        """Count, window size, lifetime mean and window p50/p99."""
        with self._lock:
            samples = sorted(self._samples)
            count = self.count
            total = self._total
        if not samples:
            return {"count": 0, "window": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": count,
            "window": len(samples),
            "mean": total / count,
            "p50": self._rank(samples, 0.50),
            "p99": self._rank(samples, 0.99),
        }

    def collect(self) -> MetricFamily:
        """A Prometheus ``summary`` family: quantiles + _sum + _count."""
        with self._lock:
            samples = sorted(self._samples)
            count = self.count
            total = self._total
        family = MetricFamily(self.name, "summary", self.help)
        for q in (0.5, 0.9, 0.99):
            family.add({"quantile": str(q)}, self._rank(samples, q))
        family.add({}, total, suffix="_sum")
        family.add({}, count, suffix="_count")
        return family


class CounterGroup(dict):
    """A thread-safe bundle of named counters that still *is* a dict.

    Tests and ``/stats`` read it with ``dict(x.counters)`` and plain
    indexing; writers get an atomic :meth:`bump`, and :meth:`snapshot`
    is the consistent copy ``/stats`` and ``/metrics`` read.

    Direct item assignment is still possible (the view manager bumps
    under its own maintenance lock); ``bump`` is for writers with no
    lock of their own.
    """

    def __init__(self, keys: Iterable[str] = (), **initial: int) -> None:
        super().__init__({key: 0 for key in keys}, **initial)
        self._lock = threading.Lock()

    def bump(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self[key] = self.get(key, 0) + amount

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self)
