"""Spans around the benchmark's calls into the package's layers.

A span records one call the benchmark makes into a public function of a
module (``stability.check_polystability``, ``cli.stability`` ...): its name,
start, end, the span that caused it and the question it belongs to.  Spans
are kept in memory and written out once, after the run.  With tracing off
``call`` is a plain call, so the untraced run pays one extra Python frame per
layer call and nothing else.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

# Where span files go, relative to the checkout root.
OUT_DIR = Path(".bench_build") / "perfbench"


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.qid: int | None = None
        self.band: str | None = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span["raised"] = type(exc).__name__
            raise
        finally:
            self.close(span)

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "qid": self.qid,
            "band": self.band,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span for work that ran outside this process, such as a CLI child."""
        if self.enabled:
            span = self.open(name)
            span["start_ns"] = start_ns
            self.close(span)
            span["end_ns"] = end_ns

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, separators=(",", ":")))


def span_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def function_stats(spans: list[dict], name: str, bands=()) -> dict[str, float]:
    """``calls``, ``busy_ms``, ``p50_ms`` and ``refused`` for one function,
    plus ``p50_ms.<band>`` for each band tag given."""
    mine = [s for s in spans if s["name"] == name]
    times = [span_ms(s) for s in mine]
    out = {
        f"{name}.calls": float(len(mine)),
        f"{name}.busy_ms": sum(times),
        f"{name}.p50_ms": statistics.median(times) if times else 0.0,
        f"{name}.refused": float(sum(1 for s in mine if s.get("refused"))),
    }
    for band in bands:
        banded = [span_ms(s) for s in mine if s.get("band") == band]
        out[f"{name}.p50_ms.{band}"] = statistics.median(banded) if banded else 0.0
    return out
