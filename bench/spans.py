"""Spans around the benchmark's calls into gammakernel.

Every public call a workload makes goes through ``Tracer.call``.  With
tracing off that is a plain call; with tracing on it records a span with the
callee's name (``<module>.<function>``), start and end, the enclosing span
and the op it belongs to.  Spans stay in memory until the run writes them
out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def span_name(fn) -> str:
    """``<module>.<qualname>`` with the package prefix removed, e.g.
    ``kernels.underline_prelimit_window`` or ``sampler.SampleBatch.rho1``."""
    module = getattr(fn, "__module__", None) or "unknown"
    return f"{module.rpartition('.')[2]}.{fn.__qualname__}"


class Tracer:
    """Records spans while ``enabled``; ``round`` tags spans with the round
    that made them (-1 during set-up)."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.round = -1
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: tuple[int, str] | None = None
        self._t0 = time.perf_counter()

    def call(self, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(span_name(fn)):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": parent,
            "op": self._op[0] if self._op else None,
            "kind": self._op[1] if self._op else None,
            "round": self.round,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span of one checked op; library spans inside it point to it."""
        self._op = (op_id, kind)
        try:
            if self.enabled:
                with self.span("op." + kind):
                    yield
            else:
                yield
        finally:
            self._op = None


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part covered by its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
