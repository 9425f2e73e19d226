"""Outside-in spans: wrappers installed around the program's public callables.

The benchmark may not edit ``src/``, so per-layer time is measured by
temporarily replacing each layer's public functions (listed in
:mod:`macrobench.layers`) with a timing wrapper, running the workload,
and putting the originals back.  A span records name, start, end, parent
and the workload operation that caused it; a layer's *self time* is its
span's duration minus the time its child spans cover, accumulated as the
spans close so that no pass over the span list is needed afterwards.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns

#: Spans kept for the trace file.  Self times and call counts are
#: accumulated as spans close, so they stay exact past the cap; only the
#: file is truncated (and says by how much).
MAX_KEPT_SPANS = 400_000

_MISSING = object()


class SpanRecorder:
    """Collects spans from installed wrappers for one traced repetition."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        #: (id, parent id, name, start ns, end ns, workload op)
        self.spans: list[tuple] = []
        self.dropped = 0
        #: The workload operation in progress, stamped on every span.
        self.op = ""
        self.next_id = 0
        # One [span_id, child_ns] frame per open span.
        self.stack: list[list[int]] = []

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self.self_ns.clear()
        self.calls.clear()
        self.sizes.clear()
        self.spans = []
        self.stack = []
        self.dropped = 0
        self.next_id = 0

    def run(self, name: str, fn, args, kwargs, size_of=None, drain=False):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``size_of(args, result)`` adds a row or byte count to
        ``sizes[name]``; ``drain`` materialises a generator result inside
        the span, because a generator function returns before it has done
        any work (its callers here all consume it at once).
        """
        stack = self.stack
        span_id = self.next_id
        self.next_id = span_id + 1
        parent_id = stack[-1][0] if stack else -1
        frame = [span_id, 0]
        stack.append(frame)
        result = _MISSING
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            if drain:
                result = iter(list(result))
            return result
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.self_ns[name] += duration - frame[1]
            self.calls[name] += 1
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append(
                    (span_id, parent_id, name, start, end, self.op)
                )
            else:
                self.dropped += 1
            if size_of is not None and result is not _MISSING:
                self.sizes[name] += size_of(args, result)

    def wrap(self, name: str, fn, size_of=None, drain: bool = False):
        """A stand-in for ``fn`` that runs it inside a span."""
        run = self.run

        def traced(*args, **kwargs):
            return run(name, fn, args, kwargs, size_of, drain)

        traced.__wrapped__ = fn
        traced.__macrobench_span__ = name
        return traced

    def write(self, path, workload: str, seed: int) -> None:
        """Write the kept spans as one JSON document (see README)."""
        base = self.spans[0][3] if self.spans else 0
        document = {
            "workload": workload,
            "seed": seed,
            "unit": "ns since first span",
            "fields": ["id", "parent", "name", "start", "end", "op"],
            "dropped": self.dropped,
            "spans": [
                [sid, parent, name, start - base, end - base, op]
                for sid, parent, name, start, end, op in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _resolve(path: str):
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` -> (owner, attr, raw).

    ``raw`` is the owner's own attribute (not an inherited one), so a
    class or static method arrives as its descriptor.
    """
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Installed:
    """The wrappers currently in place; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __len__(self) -> int:
        return len(self._originals)


def install(recorder: SpanRecorder, targets) -> Installed:
    """Wrap every target; returns the handle that restores the originals.

    ``targets`` is an iterable of :class:`macrobench.layers.Target`.
    Class and static methods keep their descriptor kind.  A target the
    program no longer has is skipped: its metrics read 0 and its time
    shows up in the caller's layer or in ``bench.unattributed_share``.
    """
    installed = Installed()
    try:
        for target in targets:
            try:
                owner, attr, raw = _resolve(target.path)
            except (ImportError, AttributeError, KeyError):
                continue
            name = target.path.partition(":")[2]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    recorder.wrap(
                        name, raw.__func__, target.size_of, target.drain
                    )
                )
            else:
                wrapped = recorder.wrap(
                    name, raw, target.size_of, target.drain
                )
            installed._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
    except BaseException:
        installed.remove()
        raise
    return installed


def wrappers_present(targets) -> list[str]:
    """Paths whose current attribute is still a macrobench wrapper."""
    present = []
    for target in targets:
        try:
            _, _, raw = _resolve(target.path)
        except (ImportError, AttributeError, KeyError):
            continue
        if hasattr(getattr(raw, "__func__", raw), "__macrobench_span__"):
            present.append(target.path)
    return present
