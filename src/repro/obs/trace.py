"""Structured tracing: a JSON-lines event stream with pluggable sinks.

An evaluation run's :class:`~repro.obs.stats.EvalStats` calls
:meth:`Tracer.emit` at round boundaries, phase ends, and period
detection; each emit produces one event dictionary handed to the sink.
A :class:`Tracer` built over ``sink=None`` is disabled: ``emit``
returns immediately and no event objects are allocated, so leaving a
tracer plumbed through but unconfigured is free.  An ``EvalStats``
without a tracer (``tracer=None``, the default) writes no events.

The event schema (one JSON object per line) is documented in
``docs/INTERNALS.md``; every event carries ``event`` (the type) and
``ts`` (a monotonic timestamp in seconds).  Schema version 2 adds an
optional ``run_start`` header event (:meth:`Tracer.emit_run_start`)
naming the engine, the program, and the tool version, so multi-run
trace files and external consumers can tell runs apart.  Schema
version 3 adds the ``span`` event — request-level telemetry exported
by :mod:`repro.obs.telemetry` through this same sink machinery.
Schema version 4 adds the ``derive`` event — one recorded support edge
``(rule, head, body facts, round)``, emitted (sampled) by
:class:`repro.obs.provenance.ProvenanceStore` when the engine runs
with provenance recording on.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import IO, Union

#: Version of the trace event schema; bumped when events gain meaning
#: (consumers must still ignore unknown events and fields).
TRACE_SCHEMA = 4


class ListSink:
    """Collects events in memory — the test double."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def write_event(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JsonLinesSink:
    """Writes one compact JSON object per line to a stream or path."""

    def __init__(self, target: Union[str, Path, IO[str]]):
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False

    def write_event(self, event: dict) -> None:
        self._stream.write(json.dumps(event, sort_keys=True,
                                      separators=(",", ":")) + "\n")

    def flush(self) -> None:
        """Push buffered lines out — long-running emitters (the serve
        telemetry) call this so traces stream instead of appearing
        only at close."""
        self._stream.flush()

    def close(self) -> None:
        if self._owns_stream:
            self._stream.close()
        else:
            self._stream.flush()


class Tracer:
    """Front-end the engines emit through.

    ``Tracer(None)`` is disabled (``enabled`` is False and ``emit`` is a
    cheap early return); any object with a ``write_event(dict)`` method
    works as a sink.
    """

    __slots__ = ("sink", "enabled", "_clock", "_t0")

    def __init__(self, sink=None, clock=time.perf_counter):
        self.sink = sink
        self.enabled = sink is not None
        self._clock = clock
        self._t0 = clock()

    def emit(self, event: str, **payload) -> None:
        if self.sink is None:
            return
        record = {"event": event,
                  "ts": round(self._clock() - self._t0, 6)}
        record.update(payload)
        self.sink.write_event(record)

    def emit_run_start(self, engine: str,
                       program: Union[str, Path, None] = None,
                       text: Union[str, None] = None) -> None:
        """Emit the schema-2 ``run_start`` header event.

        ``program`` is the source path (as the user named it); ``text``
        the program text, hashed (sha256) so traces of renamed or edited
        files remain distinguishable.  Callers that drive an engine
        directly may skip this — consumers treat the header as optional.
        """
        if self.sink is None:
            return
        from .. import __version__
        payload: dict = {"engine": engine, "schema": TRACE_SCHEMA,
                         "version": __version__}
        if program is not None:
            payload["program"] = str(program)
        if text is not None:
            payload["sha256"] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
        self.emit("run_start", **payload)

    def close(self) -> None:
        if self.sink is not None:
            close = getattr(self.sink, "close", None)
            if close is not None:
                close()
