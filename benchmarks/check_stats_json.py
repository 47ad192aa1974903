"""CI gate: verify a benchmark JSON dump embeds complete EvalStats.

Usage:  python benchmarks/check_stats_json.py BENCH.json

Exits non-zero when any benchmark record lacks an ``eval_stats`` entry
in its ``extra_info``, or when an embedded entry is missing one of the
:class:`repro.obs.EvalStats` fields.  The benchmark smoke job runs the
E7 ablation (``BENCH_SMOKE=1``) and then this script, so a regression
that silently drops the instrumentation from the benchmark pipeline
fails the build instead of producing stat-less reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REQUIRED_FIELDS = (
    "engine", "rounds", "facts_per_round", "delta_sizes",
    "join_probes", "index_hits", "index_misses", "facts_derived",
    "horizon", "period", "phase_seconds", "extra",
)

#: Fields every record of a per-rule ``extra.rules`` block must carry
#: (see repro.obs.metrics.RuleMetrics.to_dict).
RULE_FIELDS = (
    "id", "label", "line", "firings", "new_facts", "duplicates",
    "probes", "seconds", "per_round",
)

#: Counters an ``extra.cache`` block must carry (see
#: repro.serve.cache.SpecCache.counters).
CACHE_FIELDS = (
    "lookups", "mem_hits", "disk_hits", "misses", "stores",
    "evictions", "invalidations", "corrupt", "memory_entries",
    "flights_claimed", "flights_rejected",
)

#: Counters an ``extra.serve`` block must carry (see
#: repro.serve.service._ServeCounters.to_dict).
SERVE_FIELDS = (
    "requests", "batches", "batched_requests", "max_batch", "asks",
    "open_queries", "degraded", "refused", "errors", "spec_computes",
    "singleflight_waits", "explained", "parses",
)


def check_rules_block(name: str, stats: dict) -> list[str]:
    """Validate ``extra.rules`` when present: record shape plus the
    per-rule credit invariant (new_facts sums to facts_derived)."""
    problems: list[str] = []
    rules = stats.get("extra", {}).get("rules")
    if rules is None:
        return problems
    if not isinstance(rules, list) or not rules:
        problems.append(f"{name}: eval_stats.extra.rules is not a "
                        "non-empty list")
        return problems
    for record in rules:
        missing = [f for f in RULE_FIELDS if f not in record]
        if missing:
            problems.append(
                f"{name}: rule record {record.get('id', '?')} missing "
                f"{', '.join(missing)}")
    if all(isinstance(r.get("new_facts"), int) for r in rules):
        total = sum(r["new_facts"] for r in rules)
        if total != stats.get("facts_derived"):
            problems.append(
                f"{name}: sum(rules.new_facts)={total} != "
                f"facts_derived={stats.get('facts_derived')}")
    return problems


def _check_counter_block(name: str, label: str, block,
                         fields: tuple[str, ...]) -> list[str]:
    """Shape-check one counter dictionary: required keys, non-negative
    integer values."""
    problems: list[str] = []
    if not isinstance(block, dict):
        return [f"{name}: eval_stats.extra.{label} is not an object"]
    missing = [f for f in fields if f not in block]
    if missing:
        problems.append(f"{name}: eval_stats.extra.{label} missing "
                        f"{', '.join(missing)}")
    for field in fields:
        value = block.get(field)
        if field in block and (not isinstance(value, int)
                               or isinstance(value, bool)
                               or value < 0):
            problems.append(
                f"{name}: eval_stats.extra.{label}.{field} is "
                f"{value!r}, expected a non-negative integer")
    return problems


def check_cache_blocks(name: str, stats: dict) -> list[str]:
    """Validate ``extra.cache`` / ``extra.serve`` when present: counter
    shape plus the accounting invariant (every lookup is exactly one of
    a memory hit, a disk hit, or a miss)."""
    problems: list[str] = []
    extra = stats.get("extra", {})
    cache = extra.get("cache")
    if cache is not None:
        problems.extend(_check_counter_block(name, "cache", cache,
                                             CACHE_FIELDS))
        if not problems and isinstance(cache, dict):
            accounted = (cache["mem_hits"] + cache["disk_hits"]
                         + cache["misses"])
            if cache["lookups"] != accounted:
                problems.append(
                    f"{name}: cache lookups={cache['lookups']} != "
                    f"mem_hits+disk_hits+misses={accounted}")
    serve = extra.get("serve")
    if serve is not None:
        problems.extend(_check_counter_block(name, "serve", serve,
                                             SERVE_FIELDS))
    return problems


#: Keys an ``extra.latency`` block must carry (see
#: repro.obs.telemetry.LatencyHistogram.to_dict).
LATENCY_FIELDS = ("buckets", "count", "sum_ms", "p50", "p95", "p99")


def check_latency_block(name: str, stats: dict) -> list[str]:
    """Validate ``extra.latency`` when present: block shape, strictly
    increasing finite bucket bounds with ``"inf"`` last, non-negative
    integer bucket counts that sum to ``count``, ordered quantiles."""
    problems: list[str] = []
    latency = stats.get("extra", {}).get("latency")
    if latency is None:
        return problems
    if not isinstance(latency, dict):
        return [f"{name}: eval_stats.extra.latency is not an object"]
    missing = [f for f in LATENCY_FIELDS if f not in latency]
    if missing:
        return [f"{name}: eval_stats.extra.latency missing "
                f"{', '.join(missing)}"]
    buckets = latency["buckets"]
    if (not isinstance(buckets, list) or len(buckets) < 2
            or not all(isinstance(b, list) and len(b) == 2
                       for b in buckets)):
        return [f"{name}: latency.buckets is not a list of "
                "[bound, count] pairs"]
    bounds = [b[0] for b in buckets]
    counts = [b[1] for b in buckets]
    if bounds[-1] != "inf":
        problems.append(f"{name}: last latency bucket bound is "
                        f"{bounds[-1]!r}, expected 'inf'")
    finite = bounds[:-1]
    if (not all(isinstance(b, (int, float)) and b > 0
                for b in finite)
            or any(a >= b for a, b in zip(finite, finite[1:]))):
        problems.append(f"{name}: latency bucket bounds are not "
                        "positive and strictly increasing")
    if not all(isinstance(c, int) and not isinstance(c, bool)
               and c >= 0 for c in counts):
        problems.append(f"{name}: latency bucket counts are not "
                        "non-negative integers")
    elif sum(counts) != latency["count"]:
        problems.append(
            f"{name}: sum(latency bucket counts)={sum(counts)} != "
            f"count={latency['count']}")
    quantiles = [latency["p50"], latency["p95"], latency["p99"]]
    if not all(isinstance(q, (int, float)) and q >= 0
               for q in quantiles):
        problems.append(f"{name}: latency quantiles are not "
                        "non-negative numbers")
    elif not quantiles[0] <= quantiles[1] <= quantiles[2]:
        problems.append(f"{name}: latency quantiles are not ordered: "
                        f"p50={quantiles[0]} p95={quantiles[1]} "
                        f"p99={quantiles[2]}")
    if (not isinstance(latency["sum_ms"], (int, float))
            or latency["sum_ms"] < 0):
        problems.append(f"{name}: latency.sum_ms is "
                        f"{latency['sum_ms']!r}")
    return problems


#: Keys an ``extra.provenance`` block must carry (see
#: repro.obs.provenance.ProvenanceStore.stats_dict).
PROVENANCE_FIELDS = ("facts", "derived", "edges", "max_in_degree",
                     "depth", "supports")


def check_provenance_block(name: str, stats: dict) -> list[str]:
    """Validate ``extra.provenance`` when present: non-negative counts,
    derived ≤ facts, edges ≥ derived (one first support each), proof
    depth bounded by the fact count, and a supports histogram whose
    observations cover exactly the derived facts."""
    problems: list[str] = []
    provenance = stats.get("extra", {}).get("provenance")
    if provenance is None:
        return problems
    if not isinstance(provenance, dict):
        return [f"{name}: eval_stats.extra.provenance is not an object"]
    missing = [f for f in PROVENANCE_FIELDS if f not in provenance]
    if missing:
        return [f"{name}: eval_stats.extra.provenance missing "
                f"{', '.join(missing)}"]
    for field in ("facts", "derived", "edges", "max_in_degree", "depth"):
        value = provenance[field]
        if (not isinstance(value, int) or isinstance(value, bool)
                or value < 0):
            problems.append(
                f"{name}: eval_stats.extra.provenance.{field} is "
                f"{value!r}, expected a non-negative integer")
    if problems:
        return problems
    if provenance["derived"] > provenance["facts"]:
        problems.append(
            f"{name}: provenance derived={provenance['derived']} > "
            f"facts={provenance['facts']}")
    if provenance["edges"] < provenance["derived"]:
        problems.append(
            f"{name}: provenance edges={provenance['edges']} < "
            f"derived={provenance['derived']} (every derived fact "
            "carries at least its first support)")
    if provenance["depth"] > provenance["facts"]:
        problems.append(
            f"{name}: provenance depth={provenance['depth']} > "
            f"facts={provenance['facts']} (a minimal proof cannot be "
            "deeper than the DAG has nodes)")
    supports = provenance["supports"]
    if not isinstance(supports, dict):
        problems.append(f"{name}: provenance.supports is not an object")
    elif sum(supports.values()) != provenance["derived"]:
        problems.append(
            f"{name}: sum(provenance.supports)={sum(supports.values())}"
            f" != derived={provenance['derived']}")
    return problems


#: Measured-ratio fields a record may carry; each is validated the
#: same way and re-checked against the record's ``speedup_floor``.
SPEEDUP_FIELDS = ("speedup_vs_seminaive", "speedup_vs_single_worker")


def check_speedup_field(name: str, extra_info: dict) -> list[str]:
    """Validate the measured speedup ratios when present: positive
    numbers (booleans rejected).  When the record also carries
    ``speedup_floor`` (the floor the bench asserted at run time — 0 in
    smoke mode, the real floor at full size: 5 for E3/E6/E7, 2 for
    E17), re-check each ratio against it here, so a stats dump
    produced with assertions stripped or a stale floor still fails
    the build."""
    problems: list[str] = []
    present = [f for f in SPEEDUP_FIELDS if f in extra_info]
    for field in present:
        value = extra_info[field]
        if (isinstance(value, bool)
                or not isinstance(value, (int, float)) or value <= 0):
            problems.append(f"{name}: {field} is {value!r}, "
                            "expected a positive number")
    if problems or not present or "speedup_floor" not in extra_info:
        return problems
    floor = extra_info["speedup_floor"]
    if (isinstance(floor, bool)
            or not isinstance(floor, (int, float)) or floor < 0):
        return [f"{name}: speedup_floor is {floor!r}, "
                "expected a non-negative number"]
    for field in present:
        value = extra_info[field]
        if value <= floor:
            problems.append(
                f"{name}: {field}={value:.2f} does not "
                f"clear the recorded floor {floor:g}")
    return problems


def check_collector_overhead(name: str, extra_info: dict) -> list[str]:
    """Validate the E17 collection-overhead measurement when present:
    ``collector_overhead_ratio`` (QPS with collection off ÷ QPS with
    it on) must be a positive number and must not exceed the
    ``collector_overhead_limit`` the bench recorded (1.25 at full
    size) — so a dump produced with the run-time assertion stripped
    still fails the build when observability gets expensive."""
    if "collector_overhead_ratio" not in extra_info:
        return []
    ratio = extra_info["collector_overhead_ratio"]
    if (isinstance(ratio, bool)
            or not isinstance(ratio, (int, float)) or ratio <= 0):
        return [f"{name}: collector_overhead_ratio is {ratio!r}, "
                "expected a positive number"]
    if "collector_overhead_limit" not in extra_info:
        return [f"{name}: collector_overhead_ratio recorded without "
                "collector_overhead_limit"]
    limit = extra_info["collector_overhead_limit"]
    if (isinstance(limit, bool)
            or not isinstance(limit, (int, float)) or limit <= 0):
        return [f"{name}: collector_overhead_limit is {limit!r}, "
                "expected a positive number"]
    if ratio > limit:
        return [f"{name}: collector_overhead_ratio={ratio:.3f} "
                f"exceeds the recorded limit {limit:g} — collection "
                "is eating tier throughput"]
    return []


#: Keys every point of a ``saturation`` curve must carry (see
#: benchmarks/bench_e17_load.py).
SATURATION_FIELDS = ("clients", "offered_qps", "achieved_qps",
                     "p50_ms", "p95_ms", "p99_ms", "hit_ratio",
                     "worker_balance")


def check_saturation_block(name: str, extra_info: dict) -> list[str]:
    """Validate a ``saturation`` curve when present: a non-empty list
    of stage points with complete non-negative measurements, offered
    load strictly increasing, achieved ≤ offered, ordered latency
    quantiles, and hit ratio / balance within [0, 1]."""
    curve = extra_info.get("saturation")
    if curve is None:
        return []
    if not isinstance(curve, list) or not curve:
        return [f"{name}: saturation is not a non-empty list"]
    problems: list[str] = []
    for index, point in enumerate(curve):
        if not isinstance(point, dict):
            problems.append(f"{name}: saturation[{index}] is not an "
                            "object")
            continue
        missing = [f for f in SATURATION_FIELDS if f not in point]
        if missing:
            problems.append(f"{name}: saturation[{index}] missing "
                            f"{', '.join(missing)}")
            continue
        for field in SATURATION_FIELDS:
            value = point[field]
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or value < 0):
                problems.append(
                    f"{name}: saturation[{index}].{field} is "
                    f"{value!r}, expected a non-negative number")
        if problems:
            continue
        if not (point["p50_ms"] <= point["p95_ms"]
                <= point["p99_ms"]):
            problems.append(
                f"{name}: saturation[{index}] latency quantiles are "
                f"not ordered: p50={point['p50_ms']} "
                f"p95={point['p95_ms']} p99={point['p99_ms']}")
        if point["achieved_qps"] > point["offered_qps"] * 1.01:
            problems.append(
                f"{name}: saturation[{index}] achieved_qps="
                f"{point['achieved_qps']} exceeds offered_qps="
                f"{point['offered_qps']}")
        for ratio in ("hit_ratio", "worker_balance"):
            if point[ratio] > 1.0:
                problems.append(
                    f"{name}: saturation[{index}].{ratio}="
                    f"{point[ratio]} exceeds 1.0")
    if not problems:
        offered = [point["offered_qps"] for point in curve]
        if any(a >= b for a, b in zip(offered, offered[1:])):
            problems.append(f"{name}: saturation offered_qps is not "
                            "strictly increasing")
    return problems


def check(data: dict) -> list[str]:
    """All problems found in one benchmark JSON dump."""
    problems: list[str] = []
    benchmarks = data.get("benchmarks", [])
    if not benchmarks:
        problems.append("no benchmark records in the dump")
    for bench in benchmarks:
        name = bench.get("fullname", bench.get("name", "?"))
        problems.extend(check_speedup_field(
            name, bench.get("extra_info", {})))
        problems.extend(check_saturation_block(
            name, bench.get("extra_info", {})))
        problems.extend(check_collector_overhead(
            name, bench.get("extra_info", {})))
        stats = bench.get("extra_info", {}).get("eval_stats")
        if stats is None:
            problems.append(f"{name}: no eval_stats in extra_info")
            continue
        missing = [f for f in REQUIRED_FIELDS if f not in stats]
        if missing:
            problems.append(
                f"{name}: eval_stats missing {', '.join(missing)}")
            continue
        if not stats["engine"]:
            problems.append(f"{name}: eval_stats.engine is empty")
        if stats["rounds"] <= 0:
            problems.append(f"{name}: eval_stats.rounds is {stats['rounds']}")
        problems.extend(check_rules_block(name, stats))
        problems.extend(check_cache_blocks(name, stats))
        problems.extend(check_latency_block(name, stats))
        problems.extend(check_provenance_block(name, stats))
    return problems


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python benchmarks/check_stats_json.py BENCH.json",
              file=sys.stderr)
        return 2
    try:
        data = json.loads(Path(argv[0]).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {argv[0]}: {exc}", file=sys.stderr)
        return 2
    problems = check(data)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    count = len(data.get("benchmarks", []))
    print(f"ok: {count} benchmark records all embed complete EvalStats")
    return 0


if __name__ == "__main__":
    sys.exit(main())
