"""Span tracing of the CAD and sweep layers, done from outside the program.

:class:`Tracer` replaces the layer entry points that :mod:`repro.cad.flow`
and :mod:`repro.sweep.runner` reach through module globals or classes with
thin wrappers that record a :class:`Span` per call -- ``(layer, start, end,
parent, op_id)`` plus the counters the call's return value carries.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` restores every
original attribute.

Spans are only recorded on the thread that installed the tracer.  The
grouped router's worker threads call none of the wrapped functions, so their
time lands inside the enclosing ``cad.route`` span, and a span's self time
(duration minus its direct children) is well defined: the self times of an
op's span tree add up to the op's wall time exactly.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Root layer of every op: one flow (``build_circuit`` + ``CadFlow.run``) or
#: one executed sweep point.  Its self time is benchmark-side glue such as
#: ``recommended_fabric`` sizing.
OP_LAYER = "op"


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op_id: int | None = None
    label: str = ""
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _route_counters(result) -> dict[str, float]:
    return {
        "success": int(result.success),
        "iterations": result.iterations,
        "node_pops": result.node_pops,
        "reroutes": result.total_reroutes,
        "parallel_groups": result.parallel_groups,
        "conflict_replays": result.conflict_replays,
        "wirelength": result.total_wirelength,
    }


def _put_counters(result) -> dict[str, float]:
    # SweepResultStore.put returns the record's path; its size is what the
    # call wrote.
    return {"bytes": result.stat().st_size}


class Tracer:
    """Times ops always; records layer spans while :attr:`recording`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._next_op = 0
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _open(self, layer: str, label: str = "") -> int:
        index = len(self.spans)
        self.spans.append(
            Span(
                layer,
                time.perf_counter(),
                parent=self._stack[-1] if self._stack else None,
                op_id=self._op_id,
                label=label,
            )
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, label: str) -> Iterator[dict[str, float]]:
        """Time one op from outside; yields a dict that receives ``seconds``.

        While recording, the op also becomes the root span that every layer
        span it causes shares an ``op_id`` with.
        """
        timing: dict[str, float] = {}
        if not self.recording:
            start = time.perf_counter()
            try:
                yield timing
            finally:
                timing["seconds"] = time.perf_counter() - start
            return
        self._op_id = self._next_op
        self._next_op += 1
        index = self._open(OP_LAYER, label)
        try:
            yield timing
        finally:
            self._close(index)
            self._op_id = None
            timing["seconds"] = self.spans[index].duration

    # -- instrumentation -------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        counters: Callable[[object], dict[str, float]] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a function, method or property) by a
        span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        function = original.fget if isinstance(original, property) else original
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.recording or threading.get_ident() != tracer._thread:
                return function(*args, **kwargs)
            index = tracer._open(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if counters is not None:
                tracer.spans[index].counters.update(counters(result))
            return result

        replacement = property(wrapper) if isinstance(original, property) else wrapper
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point the flow and the sweep runner use."""
        import repro.cad.flow as flow
        import repro.circuits.registry as registry
        from repro.cad.timing import TimingEngine
        from repro.core.rrgraph import RoutingResourceGraph
        from repro.sweep.runner import SweepRunner
        from repro.sweep.store import SweepResultStore

        self.wrap(registry, "build_circuit", "circuits.build")
        self.wrap(flow.CadFlow, "run", "cad.flow")
        self.wrap(flow, "pack_design", "cad.pack")
        self.wrap(
            flow,
            "place_design",
            "cad.place",
            lambda p: {"moves": p.iterations, "net_evals": p.net_evaluations},
        )
        self.wrap(flow, "route_design", "cad.route", _route_counters)
        self.wrap(
            flow,
            "refine_critical_nets",
            "cad.route.refine",
            lambda improved: {"nets_improved": improved},
        )
        self.wrap(flow, "analyse_timing", "cad.timing")
        for name in (
            "__init__",
            "set_net_delays",
            "set_net_delay",
            "estimate_from_placement",
            "update_from_routing",
            "criticalities",
            "criticality",
            "le_levels",
            "critical_path_ps",
            "cycle_time_ps",
        ):
            self.wrap(TimingEngine, name, "cad.timing")
        self.wrap(flow, "generate_bitstream", "cad.bitgen")
        self.wrap(flow, "cached_rr_graph", "core.rrgraph.lookup")
        self.wrap(RoutingResourceGraph, "__init__", "core.rrgraph.build")
        self.wrap(SweepRunner, "run", "sweep.runner")
        self.wrap(
            SweepResultStore,
            "get",
            "sweep.store.get",
            lambda record: {"hit": int(record is not None)},
        )
        self.wrap(SweepResultStore, "put", "sweep.store.put", _put_counters)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [span.duration - child_time[i] for i, span in enumerate(self.spans)]

    def op_accounting_error(self) -> float:
        """Largest |sum of self times in an op's span tree - op wall time|.

        Zero up to float rounding when spans nest properly, i.e. when no
        wrapped call escaped to another thread or overlapped a sibling.
        """
        self_times = self.self_times()
        totals: dict[int, float] = {}
        roots: dict[int, float] = {}
        for index, span in enumerate(self.spans):
            if span.op_id is None:
                continue
            totals[span.op_id] = totals.get(span.op_id, 0.0) + self_times[index]
            if span.layer == OP_LAYER:
                roots[span.op_id] = span.duration
        return max((abs(totals[op] - roots[op]) for op in roots), default=0.0)

    def chrome_events(self, track: int, track_name: str, origin: float) -> list[dict]:
        """Chrome trace-event JSON (``X`` events) on one track, Perfetto-ready."""
        events: list[dict] = [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": track,
             "args": {"name": track_name}},
        ]
        for span in self.spans:
            args: dict[str, object] = dict(span.counters)
            if span.op_id is not None:
                args["op_id"] = span.op_id
            if span.label:
                args["label"] = span.label
            events.append(
                {
                    "ph": "X",
                    "name": span.label or span.layer,
                    "cat": span.layer,
                    "pid": 1,
                    "tid": track,
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": args,
                }
            )
        return events
