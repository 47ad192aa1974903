"""HTTP load generators: closed loops and a fixed-rate open loop.

Bodies are prebuilt bytes and responses are kept as raw bytes; decoding
and checking them happens after the timed region.  The program's server
speaks HTTP/1.0, so every POST opens its own connection, as a client of
``repro serve`` would.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from spans import TRACE_HEADER

#: Client-side timeout for one POST (seconds).
POST_TIMEOUT = 60.0


@dataclass
class Sample:
    """One POST: which request, when it was due/sent/answered, reply."""

    index: int
    due: float
    pickup: float
    start: float
    end: float
    status: int
    data: bytes

    @property
    def latency_ms(self) -> float:
        """From when the request was due (open loop) or sent (closed)."""
        return (self.end - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        """How late the generator sent a request a free sender held."""
        return (self.start - max(self.due, self.pickup)) * 1e3


def post(port: int, body: bytes, trace_id: Union[str, None] = None,
         path: str = "/query") -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=POST_TIMEOUT)
    headers = {"Content-Type": "application/json"}
    if trace_id is not None:
        headers[TRACE_HEADER] = trace_id
    try:
        connection.request("POST", path, body, headers)
        reply = connection.getresponse()
        return reply.status, reply.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        connection.close()


def get_json(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=POST_TIMEOUT)
    try:
        connection.request("GET", path)
        reply = connection.getresponse()
        data = reply.read()
        if reply.status != 200:
            raise OSError(f"GET {path} answered {reply.status}")
        return json.loads(data)
    finally:
        connection.close()


def _run_threads(count: int, target: Callable) -> None:
    threads = [threading.Thread(target=target, daemon=True)
               for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=POST_TIMEOUT + 120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load-generator thread did not finish")


def closed_loop(port: int, bodies: Sequence[bytes],
                trace_ids: Sequence[Union[str, None]], connections: int,
                seconds: float) -> tuple[list, float]:
    """``connections`` callers, each posting the next body when its last
    reply arrived, for ``seconds``.  Returns (samples, elapsed)."""
    counter = itertools.count()
    samples: list[Sample] = []
    lock = threading.Lock()
    begin = time.perf_counter()
    stop_at = begin + seconds

    def caller() -> None:
        mine = []
        while True:
            now = time.perf_counter()
            index = next(counter)
            if now >= stop_at or index >= len(bodies):
                break
            status, data = post(port, bodies[index], trace_ids[index])
            mine.append(Sample(index, now, now, now, time.perf_counter(),
                               status, data))
        with lock:
            samples.extend(mine)

    _run_threads(connections, caller)
    samples.sort(key=lambda s: s.start)
    elapsed = max(s.end for s in samples) - begin if samples else seconds
    return samples, elapsed


def open_loop(port: int, bodies: Sequence[bytes],
              trace_ids: Sequence[Union[str, None]], rate: float,
              seconds: float, senders: int = 8) -> list:
    """Send request ``i`` at ``start + i/rate`` whatever the replies do.

    ``senders`` threads take the next due request from a shared
    counter, sleep until it is due and send it; when every sender is
    busy the request waits, and that wait counts in its latency.
    """
    count = min(len(bodies), int(rate * seconds))
    counter = itertools.count()
    samples: list[Sample] = []
    lock = threading.Lock()
    begin = time.perf_counter() + 0.05

    def sender() -> None:
        mine = []
        while True:
            index = next(counter)
            if index >= count:
                break
            pickup = time.perf_counter()
            due = begin + index / rate
            if due > pickup:
                time.sleep(due - pickup)
            start = time.perf_counter()
            status, data = post(port, bodies[index], trace_ids[index])
            mine.append(Sample(index, due, pickup, start,
                               time.perf_counter(), status, data))
        with lock:
            samples.extend(mine)

    _run_threads(senders, sender)
    samples.sort(key=lambda s: s.index)
    return samples
