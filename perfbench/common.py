"""Shared helpers: checkout paths, percentiles, the run's outcome."""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

#: The benchmark's own directory and the checkout root above it.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class BenchError(RuntimeError):
    """The run cannot produce a valid result (exit non-zero)."""


def use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses that import ``repro``."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in
                                 env.get("PYTHONPATH", "").split(os.pathsep)
                                 if p])
    env.pop("PYTHONSTARTUP", None)
    return env


class WorkDir:
    """A fresh directory inside the checkout, removed on exit."""

    def __init__(self):
        base = ROOT / ".perfbench-work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=base))

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass

    def fresh(self, name: str) -> Path:
        """A new sub-directory (e.g. one per set-up, each with its own
        cache file)."""
        path = Path(tempfile.mkdtemp(prefix=name + "-", dir=self.path))
        return path


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


#: A measured phase is cut into this many equal windows; its rate and
#: tail percentile are the median over the windows, so one stall of the
#: host moves one window rather than the figure.
WINDOWS = 5


def windowed_rate(samples: list, weight=lambda sample: 1) -> float:
    """Median over :data:`WINDOWS` equal windows of the phase of the
    (weighted) completions per second."""
    if not samples:
        return 0.0
    begin = min(s.start for s in samples)
    width = (max(s.end for s in samples) - begin) / WINDOWS
    done = [0.0] * WINDOWS
    for sample in samples:
        slot = min(int((sample.end - begin) / width), WINDOWS - 1)
        done[slot] += weight(sample)
    return median([count / width for count in done])


def windowed_percentile(values: list, q: float) -> float:
    """Median over :data:`WINDOWS` consecutive slices of ``values`` of
    the ``q``-th percentile of each slice."""
    size = len(values) // WINDOWS
    if size < 1:
        return percentile(values, q)
    return median([percentile(values[i * size:(i + 1) * size], q)
                   for i in range(WINDOWS)])


@dataclass
class Outcome:
    """What one run reports: counts, metrics, and lines for people."""

    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Raw per-layer values of a traced run (see ``layers.PER_LAYER``).
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def mismatch(self, what: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(what)
