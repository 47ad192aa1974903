"""In-memory spans around the calls into each layer of ``repro``.

The benchmark times layers from its own files: :meth:`Recorder.install`
replaces each target of :data:`SERVICE_TARGETS` / :data:`SERVER_TARGETS`
(a module or class attribute the program calls through) with a wrapper
that records a span and calls the original.  Spans carry a name, start,
end, parent and trace id, plus a few attributes read off the call (a
cache lookup's outcome, a window's horizon and size).  A target that no
longer exists is reported *absent* instead of failing the run, so later
refactors that rename a layer lose coverage visibly rather than break
the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Union


def _lookup_outcome(args, kwargs, result) -> dict:
    return {"outcome": result[1] or "miss"}


def _window_attrs(args, kwargs, result) -> dict:
    horizon = args[2] if len(args) > 2 else kwargs.get("horizon")
    return {"horizon": horizon, "facts": len(result)}


def _spec_size(args, kwargs, result) -> dict:
    return {"size": result.size}


@dataclass(frozen=True)
class Target:
    """One wrapped call: span name, module, dotted attribute path."""

    name: str
    module: str
    attr: str
    attrs: Union[Callable, None] = None


#: The calls the service makes into each layer, by the attribute it
#: calls them through.
SERVICE_TARGETS = (
    Target("service.batch", "repro.serve.service",
           "QueryService.serve_batch"),
    Target("lang.parse", "repro.core.tdd", "TDD.from_text"),
    Target("cache.key", "repro.serve.service", "tdd_key"),
    Target("cache.lookup", "repro.serve.cache", "SpecCache.get_with_source",
           _lookup_outcome),
    Target("cache.flight", "repro.serve.cache", "SpecCache.try_claim"),
    Target("cache.flight", "repro.serve.cache", "SpecCache.release_claim"),
    Target("cache.put", "repro.serve.cache", "SpecCache.put"),
    Target("spec.compute", "repro.serve.service", "compute_specification"),
    Target("bt.evaluate", "repro.core.spec", "bt_evaluate"),
    Target("window.eval", "repro.temporal.bt", "evaluate_window",
           _window_attrs),
    Target("period.detect", "repro.temporal.bt", "find_minimal_period"),
    Target("spec.build", "repro.core.spec", "spec_from_result", _spec_size),
    Target("query.parse", "repro.serve.service", "parse_query"),
    Target("query.ask", "repro.serve.service", "evaluate"),
    Target("query.answers", "repro.serve.service", "spec_answers"),
)

#: The single-process HTTP server's request path (the launcher adds
#: these): the root is one POST, its children read the body, handle
#: the batch (service call plus JSON encoding) and write the reply.
SERVER_TARGETS = (
    Target("http.request", "repro.serve.server", "_Handler.do_POST"),
    Target("http.decode", "repro.serve.server", "_Handler._read_batch"),
    Target("http.handle", "repro.serve.server", "_Handler._handle_batch"),
    Target("http.encode", "repro.serve.server", "_Handler._reply"),
)

#: Header the client sets so server spans join the client's POST span.
TRACE_HEADER = "X-Repro-Trace-Id"


class Recorder:
    """Thread-safe span sink; each thread keeps its own parent stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             attrs: Union[Callable, None] = None) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            if stack:
                parent, trace = stack[-1]
            else:
                parent, trace = None, _trace_id(name, args, span_id)
            stack.append((span_id, trace))
            start = time.perf_counter()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = type(exc).__name__
                raise
            finally:
                span = {"id": span_id, "parent": parent, "trace": trace,
                        "name": name, "start": start,
                        "end": time.perf_counter()}
                stack.pop()
                if failed is not None:
                    span["error"] = failed
                elif attrs is not None:
                    span.update(attrs(args, kwargs, result))
                with recorder._lock:
                    recorder.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Wrap every target; missing ones are noted in ``absent``."""
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{target.module}:{target.attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(target.name, raw.__func__,
                                                target.attrs))
            else:
                wrapped = self.wrap(target.name, raw, target.attrs)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every original back (newest first)."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"spans": self.spans, "absent": self.absent}, stream)


def _trace_id(name: str, args, span_id: int) -> str:
    """A root span's trace id: the client's header on an HTTP request,
    else a process-local counter."""
    if name == "http.request" and args:
        header = args[0].headers.get(TRACE_HEADER)
        if header:
            return header.lower()
    return f"local-{span_id}"
