"""A small in-memory span recorder for the traced benchmark run.

Each span records its name, start, end, parent span and the workload's
operation id.  Spans are kept in a list while the run lasts and written
to a JSON-lines file once it ends.  A span's *self time* is its duration
minus the durations of its direct children, so the self times of one tree
add up to the duration of its root.

Spans are opened by wrappers that :class:`Patcher` installs around a
function at the name its caller looks up, and removed again on exit.
Calls too hot to time are only counted (:meth:`SpanRecorder.bump`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        #: (span id, parent id or -1, name, op id, start, end)
        self.spans: List[Tuple[int, int, str, str, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # -- operation ids --------------------------------------------------

    def set_op(self, op_id: str) -> None:
        """Tag spans opened by this thread with ``op_id`` from now on."""
        self._local.op = op_id

    # -- spans ----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` is called
        with the result once the span has closed."""
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            with recorder._lock:
                sid = recorder._next_id
                recorder._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                recorder.spans.append(
                    (sid, parent, name, getattr(recorder._local, "op", ""),
                     start, end)
                )
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def bump(self, counter: str, n: float = 1) -> None:
        self.counts[counter] += n

    # -- analysis -------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """name -> (span count, total self seconds)."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, _op, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for sid, _parent, name, _op, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += (end - start) - child_time[sid]
        return {name: (int(n), s) for name, (n, s) in out.items()}

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, name, op, start, end in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "op": op,
                    "start": start, "end": end,
                }) + "\n")


class Patcher:
    """Replace attributes for the length of a ``with`` block."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span(self, recorder: SpanRecorder, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        self.replace(owner, attr, recorder.wrap(name, getattr(owner, attr), after))

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
