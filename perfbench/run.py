"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold-spec --seed 1 --seconds 20 \
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every answer is checked against the generators' closed-form oracles; a
mismatch makes ``correct`` false and the exit code 1.  A run that
cannot measure (no program to import, a server that will not start, a
leaked process, an invalid open loop) exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys

from common import BenchError, use_checkout
from layers import complete

#: Workload name -> module that runs it.
WORKLOADS = {"cold-spec": "cold_spec", "warm-http": "warm_http",
             "tier-mixed": "tier_mixed"}

#: Every end-to-end metric, with its unit (each workload reports all).
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.tail", "ms"),
    ("cold_ms.p50", "ms"),
    ("rss_peak_mb", "MiB"),
)

#: A run that has not finished after this many seconds is abandoned
#: (its servers are still stopped on the way out).
RUN_LIMIT_S = 170


class Abandoned(BaseException):
    """Raised by the signal handlers so every ``finally`` still runs."""


def _abandon(signum, frame):
    raise Abandoned(f"stopped by signal {signum}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (the benchmark's own tests)")
    return parser.parse_args(argv)


def measure(args):
    """Run the workload; returns its :class:`common.Outcome`."""
    use_checkout()
    module = importlib.import_module(WORKLOADS[args.workload])
    return module.run(args.seed, args.seconds, bool(args.trace),
                      tiny=args.tiny)


def result(outcome, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit)
                   in complete(outcome.layers).items()}
    else:
        missing = [name for name, _ in END_TO_END
                   if name not in outcome.metrics]
        if missing:
            raise BenchError(f"workload did not measure {missing}")
        metrics = {name: outcome.metrics[name] for name, _ in END_TO_END}
    return {"correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _abandon)
    signal.signal(signal.SIGALRM, _abandon)
    signal.alarm(RUN_LIMIT_S)
    try:
        outcome = measure(args)
        payload = result(outcome, bool(args.trace))
    except (BenchError, Abandoned, KeyboardInterrupt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    for line in outcome.notes:
        print(line)
    for name, metric in payload["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    ratio = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_ratio = {ratio:.6g} ({outcome.failed} of "
          f"{outcome.attempted})")
    for what in outcome.mismatches:
        print(f"oracle mismatch: {what}", file=sys.stderr)
    if outcome.attempted < 1:
        print("error: nothing was attempted", file=sys.stderr)
        return 2
    print(json.dumps(payload), flush=True)
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
