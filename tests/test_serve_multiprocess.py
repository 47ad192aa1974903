"""The multi-process tier never changes answers — and routes stably.

Differential property: for ≥100 hypothesis-generated programs (the
same family as ``test_serve_differential``), three paths agree
exactly on every ground goal:

1. **the tier** — ``POST /query`` through the consistent-hash routing
   front-end to one of three worker processes sharing a SQLite spec
   cache,
2. **a single-process server** — the same request through the
   in-process ``SpecServer``, and
3. **the direct engine** — a windowed BT fixpoint on the in-memory
   rules and database.

Routing stability is checked twice: as pure properties of
:class:`~repro.serve.HashRing` (determinism, minimal disruption on
node death, exact restoration on node return, balance), and live —
the same program always lands on the same worker, and the front-end's
``routed`` counters reconcile with what was actually served.
"""

from __future__ import annotations

import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.serve import HashRing, WorkerConfig, WorkerPool, \
    make_frontend
from repro.temporal import TemporalDatabase, bt_evaluate

from conftest import ServeEndpoint
from test_serve_differential import (DIFF_SETTINGS, HORIZON,
                                     _program_text, ground_goals,
                                     programs)

TIER_WORKERS = 3


# ---------------------------------------------------------------------------
# Module-scoped live servers: one tier and one single-process server
# shared across all hypothesis examples (distinct programs hash to
# distinct keys, so sharing is safe — and it exercises both caches
# under a realistic many-program population).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tier_endpoint(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("serve-mp") / "specs.sqlite")
    pool = WorkerPool(TIER_WORKERS, WorkerConfig(cache=cache))
    pool.start()
    frontend = make_frontend(pool)
    threading.Thread(target=frontend.serve_forever,
                     daemon=True).start()
    yield ServeEndpoint(frontend, pool=pool)
    frontend.shutdown()
    frontend.server_close()
    pool.close()


@pytest.fixture(scope="module")
def single_endpoint(tmp_path_factory):
    from repro.serve import QueryService, SpecCache, make_server
    cache = tmp_path_factory.mktemp("serve-sp") / "specs.sqlite"
    service = QueryService(cache=SpecCache(cache))
    server = make_server(service, port=0)
    threading.Thread(target=server.serve_forever,
                     daemon=True).start()
    yield ServeEndpoint(server, service=service)
    server.shutdown()
    server.server_close()


# ---------------------------------------------------------------------------
# The differential property (the CI floor: 100 examples)
# ---------------------------------------------------------------------------


class TestTierDifferential:
    @DIFF_SETTINGS
    @given(programs(),
           st.lists(ground_goals(), min_size=1, max_size=4))
    def test_tier_single_process_and_direct_agree(
            self, tier_endpoint, single_endpoint, program, goals):
        rules, facts = program
        text = _program_text(rules, facts)
        direct = bt_evaluate(rules, TemporalDatabase(facts),
                             window=HORIZON)
        items = [{"program": text, "query": str(goal.to_atom()),
                  "kind": "ask"} for goal in goals]
        tier_status, via_tier = tier_endpoint.post_json(
            {"requests": items})
        single_status, via_single = single_endpoint.post_json(
            {"requests": items})
        assert tier_status == 200 and single_status == 200
        workers_used = set()
        for goal, tiered, local in zip(goals,
                                       via_tier["responses"],
                                       via_single["responses"]):
            assert tiered["ok"], tiered["error"]
            assert local["ok"], local["error"]
            model = direct.holds(goal)
            assert tiered["answer"] == local["answer"] == model, (
                f"{goal}: tier={tiered['answer']} "
                f"single={local['answer']} model={model} "
                f"for\n{text}")
            # both paths key the program identically
            assert tiered["key"] == local["key"]
            workers_used.add(tiered["worker"])
        # one program text -> exactly one worker
        assert len(workers_used) == 1
        assert workers_used <= set(range(TIER_WORKERS))

    @DIFF_SETTINGS
    @given(programs(), ground_goals())
    def test_routing_is_stable_across_repeats(self, tier_endpoint,
                                              program, goal):
        """The same program posted twice lands on the same worker —
        the tier's locality contract (each worker's LRU stays hot for
        its key range)."""
        rules, facts = program
        item = {"program": _program_text(rules, facts),
                "query": str(goal.to_atom()), "kind": "ask"}
        _, first = tier_endpoint.post_json({"requests": [item]})
        _, second = tier_endpoint.post_json({"requests": [item]})
        assert (first["responses"][0]["worker"]
                == second["responses"][0]["worker"])


# ---------------------------------------------------------------------------
# HashRing: pure routing properties
# ---------------------------------------------------------------------------

RING_SETTINGS = settings(max_examples=60, deadline=None)

_node_sets = st.sets(st.integers(0, 31), min_size=1, max_size=8)
_keys = st.lists(st.text(min_size=1, max_size=24), min_size=1,
                 max_size=50, unique=True)


class TestHashRingProperties:
    @RING_SETTINGS
    @given(_node_sets, _keys)
    def test_deterministic_and_total(self, nodes, keys):
        ring = HashRing(sorted(nodes))
        again = HashRing(sorted(nodes))
        for key in keys:
            owner = ring.route(key)
            assert owner in nodes
            assert again.route(key) == owner

    @RING_SETTINGS
    @given(_node_sets, _keys, st.randoms())
    def test_node_death_only_moves_its_keys(self, nodes, keys, rng):
        """Minimal disruption: taking one node down remaps exactly
        the keys it owned; everything else stays put."""
        if len(nodes) < 2:
            return
        ring = HashRing(sorted(nodes))
        dead = rng.choice(sorted(nodes))
        alive = nodes - {dead}
        for key in keys:
            before = ring.route(key)
            after = ring.route(key, sorted(alive))
            if before != dead:
                assert after == before
            else:
                assert after in alive

    @RING_SETTINGS
    @given(_node_sets, _keys, st.randoms())
    def test_node_return_restores_exactly_its_keys(self, nodes, keys,
                                                   rng):
        """A respawned worker reclaims exactly its old key range —
        the supervisor keeps worker ids stable so this holds across
        crashes."""
        if len(nodes) < 2:
            return
        ring = HashRing(sorted(nodes))
        down = rng.choice(sorted(nodes))
        alive = sorted(nodes - {down})
        for key in keys:
            rerouted = ring.route(key, alive)
            restored = ring.route(key, sorted(nodes))
            assert restored == ring.route(key)
            if restored != down:
                assert rerouted == restored

    def test_every_node_owns_some_keys(self):
        """64 virtual nodes keep a small pool balanced: over 400
        distinct keys, no node of 4 goes hungry."""
        ring = HashRing(range(4))
        owned = {node: 0 for node in range(4)}
        for i in range(400):
            owned[ring.route(f"key-{i}")] += 1
        assert all(count > 0 for count in owned.values())
        assert max(owned.values()) < 400 * 0.6

    def test_no_live_node_routes_none(self):
        ring = HashRing([0, 1])
        assert ring.route("anything", []) is None

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


# ---------------------------------------------------------------------------
# Live counter reconciliation
# ---------------------------------------------------------------------------


class TestTierCounters:
    def test_routed_counters_reconcile_with_served(self, tier):
        point = tier(workers=2)
        program = "tick(T+1) :- tick(T).\ntick(0).\n"
        for t in range(8):
            status, data = point.post_json(
                {"program": program, "query": f"tick({t})"})
            assert status == 200
            assert data["responses"][0]["answer"] is True
        status, stats = point.get_json("/stats")
        assert status == 200
        frontend = stats["frontend"]
        assert frontend["requests"] == 8
        assert sum(frontend["routed"].values()) == 8
        # one program -> all eight requests on one worker
        assert sorted(frontend["routed"].values(),
                      reverse=True)[0] == 8
        # the aggregate serve block saw exactly the served requests
        assert stats["serve"]["requests"] == 8
        assert len(stats["workers"]) == 2
        routed_rows = {row["id"]: row["routed"]
                       for row in stats["workers"]}
        assert sum(routed_rows.values()) == 8


# ---------------------------------------------------------------------------
# Routing on the raw program text
# ---------------------------------------------------------------------------


class TestFrontEndRouting:
    def test_front_end_routes_without_parsing(self, tier, monkeypatch):
        """The front-end (in this process) hashes each program text
        onto the ring and never parses it; workers parse, including
        the text that does not parse at all."""
        from repro.core.tdd import TDD
        parses: list = []
        original = TDD.from_text

        def counting(*args, **kwargs):
            parses.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(TDD, "from_text", staticmethod(counting))
        point = tier(workers=2)
        programs = [f"tick(T+{p}) :- tick(T).\ntick(0).\n"
                    for p in range(1, 7)]
        items = [{"program": text, "query": "tick(0)"}
                 for text in programs + ["not a program ("]]
        status, data = point.post_json({"requests": items})
        assert status == 200
        responses = data["responses"]
        assert [r["ok"] for r in responses] == [True] * 6 + [False]
        assert "parse error" in responses[-1]["error"]
        assert parses == []
        ring = HashRing([0, 1])
        assert [r["worker"] for r in responses] == [
            ring.route(item["program"]) for item in items]

    def test_unlexable_digit_answers_without_retries(self, tier):
        """A program whose digits are no int literal (``²``) is a parse
        error inside its batch; the worker answers, so the front-end
        forwards each request once."""
        point = tier(workers=2)
        status, data = point.post_json({"requests": [
            {"program": "p(²).\n", "query": "p(0)"},
            {"program": "even(T+2) :- even(T).\neven(0).\n",
             "query": "even(4)"},
        ]})
        assert status == 200
        bad, good = data["responses"]
        assert bad["ok"] is False and "parse error" in bad["error"]
        assert good["ok"] is True and good["answer"] is True
        status, stats = point.get_json("/stats")
        assert stats["frontend"]["retries"] == 0

    def test_lone_surrogate_is_400_before_routing(self, tier):
        """A lone surrogate (legal as a JSON escape, not as UTF-8)
        fails validation: the whole batch gets a 400 before the
        front-end counts or routes any of it."""
        point = tier(workers=2)
        status, data = point.post_json({"requests": [
            {"program": "% \ud800\neven(T+2) :- even(T).\neven(0).\n",
             "query": "even(4)"},
            {"program": "even(T+2) :- even(T).\neven(0).\n",
             "query": "even(4)"},
        ]})
        assert status == 400 and "surrogate" in data["error"]
        status, stats = point.get_json("/stats")
        frontend = stats["frontend"]
        assert (frontend["requests"], frontend["batches"],
                frontend["latency"]["count"]) == (0, 0, 0)
        assert stats["serve"]["requests"] == 0
