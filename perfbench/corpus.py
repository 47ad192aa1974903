"""Seeded program generators and the closed-form oracles that check them.

Every program the benchmark sends is built here from the public
``repro.workloads`` generators and rendered with
``repro.serve.cache.normalized_program``; the program under test only
ever sees the resulting text and the query strings.  Each family keeps a
closed-form model of its least model, so every answer is checked
without asking the program under test:

* travel schedules  - a day-by-day simulation folded year by year;
* bounded path      - BFS distances (``path(K, X, Y)`` iff dist <= K);
* coprime counters  - ``tick_i(t)`` iff ``p_i`` divides ``t``;
* coprime sync      - ``sync(t, x)`` iff ``lcm(periods)`` divides ``t``;
* token rings       - the token's ring position ``(t - start) mod n``;
* copy chains       - stage ``i`` holds at exactly offset ``i``.

``perfbench/tests/test_oracles.py`` confirms the closed forms against
``bt_verbatim`` (Figure 1 of the paper) on small instances, so no family
needs ``bt_verbatim`` as its run-time oracle.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Union

from repro.serve.cache import normalized_program
from repro.workloads import (bounded_path_program, coprime_cycles_database,
                             coprime_cycles_program, coprime_sync_database,
                             coprime_sync_program, copy_chain_database,
                             copy_chain_program, graph_database,
                             random_digraph, ring_database,
                             scaled_travel_database, token_ring_program,
                             travel_agent_program)

#: Ground asks go this deep, so every one folds through ``W``.
DEEP_LOW, DEEP_HIGH = 10 ** 6, 10 ** 12


def rows(expanded) -> frozenset:
    """An ``answers`` payload's ``expanded`` list as an order-free set."""
    return frozenset(tuple(sorted(item.items())) for item in expanded)


@dataclass(frozen=True)
class Query:
    """One query and the answer the oracle expects for it.

    ``expect`` is a bool for ``ask`` and, for ``answers``, the set of
    expanded answer rows up to ``expand`` (see :func:`rows`).
    """

    kind: str
    text: str
    expect: Union[bool, frozenset]
    expand: Union[int, None] = None

    def request(self, program: str) -> dict:
        item = {"program": program, "query": self.text, "kind": self.kind}
        if self.expand is not None:
            item["expand"] = self.expand
        return item

    def check(self, response: dict) -> bool:
        """True when a response item is a clean, correct answer."""
        if (not isinstance(response, dict) or response.get("ok") is not True
                or response.get("degraded") or response.get("refused")):
            return False
        answer = response.get("answer")
        if self.kind == "ask":
            return answer is self.expect
        if not isinstance(answer, dict):
            return False
        return rows(answer.get("expanded", ())) == self.expect


@dataclass
class Program:
    """A generated program text plus its pool of oracle-checked queries."""

    family: str
    text: str
    rules: str
    asks: list = field(default_factory=list)
    quantified: list = field(default_factory=list)
    opens: list = field(default_factory=list)

    def queries(self) -> list:
        return self.asks + self.quantified + self.opens


def _render(rules, facts) -> tuple[str, str]:
    """The program text and its rules-only text (the plan-cache key)."""
    text = normalized_program(rules, facts)
    return text, normalized_program(rules, ())


def _deep(rng: random.Random) -> int:
    return rng.randrange(DEEP_LOW, DEEP_HIGH)


def _snap(rng: random.Random, t: int, base: int, step: int) -> int:
    """Half the time, move ``t`` onto ``base + k*step`` so that asks hit."""
    if rng.random() < 0.5:
        return t
    return base + ((t - base) // step) * step


def _open_rows(holds: Callable, names: tuple, horizon: int,
               domain: list) -> frozenset:
    """Expected rows of a ``pred(T, X)``-shaped open query: a time
    variable ``names[0]`` up to ``horizon`` and a data variable
    ``names[1]`` over ``domain``."""
    return frozenset(tuple(sorted(((names[0], t), (names[1], x))))
                     for t in range(horizon + 1) for x in domain
                     if holds(t, x))


# -- travel schedules --------------------------------------------------------

class _TravelModel:
    """Day-by-day simulation of the travel-agent rules, folded by years.

    Moves out of a plane day ``t`` are ``+7`` (offseason), ``+2``
    (winter) and ``+1`` (holiday); the seasons repeat every year, so a
    year's plane days depend only on the days carried in from the year
    before.  Once a carry repeats, the years repeat.
    """

    def __init__(self, year: int, winter: set, holiday: set, seed_day: int):
        self.year = year
        days = bytearray(year * 2 + 8)
        days[seed_day] = 1
        patterns: list[frozenset] = []
        seen: dict[frozenset, int] = {}
        k = 0
        while True:
            base = k * year
            for t in range(base, base + year):
                if days[t - base]:
                    offset = t % year
                    if offset in winter:
                        days[t - base + 2] = 1
                    else:
                        days[t - base + 7] = 1
                    if offset in holiday:
                        days[t - base + 1] = 1
            patterns.append(frozenset(d for d in range(year) if days[d]))
            carry = frozenset(d - year for d in range(year, year + 8)
                              if days[d])
            if carry in seen:
                self.start = seen[carry] + 1
                self.cycle = k - seen[carry]
                break
            seen[carry] = k
            days = bytearray(year * 2 + 8)
            for d in carry:
                days[d] = 1
            k += 1
        self.patterns = patterns

    def holds(self, t: int) -> bool:
        k, offset = divmod(t, self.year)
        if k >= len(self.patterns):
            k = self.start + (k - self.start) % self.cycle
        return offset in self.patterns[k]


#: Draws a generator may reject before giving up on a shape.
ATTEMPTS = 500


def travel(rng: random.Random, year: int, resorts: int,
           holidays: int = 6, years: tuple = (2, 1)) -> Program:
    """A scaled travel schedule whose plane days settle after
    ``years[0]`` years into a cycle of ``years[1]`` years (the shape of
    most random schedules), so that every draw costs about the same."""
    for _ in range(ATTEMPTS):
        facts = scaled_travel_database(resorts, year_length=year,
                                       n_holidays=holidays,
                                       seed=rng.randrange(1 << 30))
        winter = {f.time for f in facts if f.pred == "winter"}
        holiday = {f.time for f in facts if f.pred == "holiday"}
        seeds = {f.args[0]: f.time for f in facts if f.pred == "plane"}
        names = sorted(seeds)
        models = {name: _TravelModel(year, winter, holiday, seeds[name])
                  for name in names}
        shape = (max(m.start for m in models.values()),
                 math.lcm(*(m.cycle for m in models.values())))
        if shape == years:
            break
    else:
        raise RuntimeError(f"no travel schedule settles as {years}")
    text, rules = _render(travel_agent_program(year), facts)
    program = Program("travel", text, rules)
    for _ in range(8):
        name, t = rng.choice(names), _deep(rng)
        program.asks.append(Query("ask", f"plane({t}, {name})",
                                  models[name].holds(t)))
    for _ in range(2):
        t = _deep(rng)
        program.quantified.append(Query(
            "ask", f"exists X: plane({t}, X)",
            any(m.holds(t) for m in models.values())))
    for _ in range(2):
        name, horizon = rng.choice(names), rng.randrange(20, 60)
        expect = frozenset((("T", t),) for t in range(horizon + 1)
                           if models[name].holds(t))
        program.opens.append(Query("answers", f"plane(T, {name})", expect,
                                   expand=horizon))
    return program


# -- bounded path ------------------------------------------------------------

def _distances(edges) -> dict:
    succ: dict[str, list] = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
        succ.setdefault(v, [])
    dist = {}
    for source in succ:
        seen = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    queue.append(v)
        dist[source] = seen
    return dist


def bounded_path(rng: random.Random, nodes: int, edges: int,
                 diameter: Union[int, None] = None) -> Program:
    """Bounded path on a random digraph; ``diameter`` (the longest
    shortest path, which sets where the model becomes periodic) is
    held fixed when given."""
    for _ in range(ATTEMPTS):
        graph = random_digraph(nodes, edges, seed=rng.randrange(1 << 30))
        dist = _distances(graph)
        longest = max(d for row in dist.values() for d in row.values())
        if diameter is None or longest == diameter:
            break
    else:
        raise RuntimeError(f"no {nodes}-node graph of diameter {diameter}")
    names = sorted(dist)
    preds = {v: [u for u, w in graph if w == v] for v in names}
    text, rules = _render(bounded_path_program(),
                          graph_database(graph))
    program = Program("path", text, rules)

    def reach(x: str, y: str, k: int) -> bool:
        return dist[x].get(y, k + 1) <= k

    for _ in range(8):
        x, y, t = rng.choice(names), rng.choice(names), _deep(rng)
        program.asks.append(Query("ask", f"path({t}, {x}, {y})",
                                  reach(x, y, t)))
    for _ in range(2):
        x, y = rng.choice(names), rng.choice(names)
        t = rng.choice((_deep(rng), rng.randrange(0, 4)))
        program.quantified.append(Query(
            "ask", f"exists Y: path({t}, {x}, Y) and edge(Y, {y})",
            any(reach(x, z, t) for z in preds[y])))
    for _ in range(2):
        x, horizon = rng.choice(names), rng.randrange(4, 12)
        expect = _open_rows(lambda k, y: reach(x, y, k), ("K", "Y"),
                            horizon, names)
        program.opens.append(Query("answers", f"path(K, {x}, Y)", expect,
                                   expand=horizon))
    return program


# -- coprime counters and coprime sync ---------------------------------------

def coprime_sets(count: int, lcm_low: int, lcm_high: int,
                 largest: int = 40) -> list[tuple]:
    """All ascending pairwise-coprime ``count``-tuples from 2..largest
    whose lcm lies in ``[lcm_low, lcm_high]``."""
    out: list[tuple] = []

    def extend(prefix: tuple, start: int) -> None:
        if len(prefix) == count:
            if lcm_low <= math.prod(prefix) <= lcm_high:
                out.append(prefix)
            return
        for p in range(start, largest + 1):
            if (all(math.gcd(p, q) == 1 for q in prefix)
                    and math.prod(prefix) * p <= lcm_high):
                extend(prefix + (p,), p + 1)

    extend((), 2)
    return out


def ordered(rng: random.Random, sets: list) -> tuple:
    """One period set from ``sets`` in a random order: every order is a
    distinct rule set of the same cost."""
    periods = rng.choice(sets)
    return tuple(rng.sample(periods, len(periods)))


def counters(rng: random.Random, periods: tuple) -> Program:
    text, rules = _render(coprime_cycles_program(periods),
                          coprime_cycles_database(periods))
    program = Program("counters", text, rules)
    k = len(periods)
    for _ in range(8):
        i = rng.randrange(k)
        t = _snap(rng, _deep(rng), 0, periods[i])
        program.asks.append(Query("ask", f"tick{i}({t})",
                                  t % periods[i] == 0))
    for _ in range(2):
        i, j = rng.sample(range(k), 2)
        t = _snap(rng, _deep(rng), 0, periods[i] * periods[j])
        program.quantified.append(Query(
            "ask", f"exists T: tick{i}(T) and tick{j}(T) and T = {t}",
            t % (periods[i] * periods[j]) == 0))
    for _ in range(2):
        i, horizon = rng.randrange(k), rng.randrange(20, 60)
        expect = frozenset((("T", t),) for t in range(horizon + 1)
                           if t % periods[i] == 0)
        program.opens.append(Query("answers", f"tick{i}(T)", expect,
                                   expand=horizon))
    return program


def sync(rng: random.Random, periods: tuple, items: int) -> Program:
    text, rules = _render(coprime_sync_program(periods),
                          coprime_sync_database(periods, items))
    program = Program("sync", text, rules)
    lcm = math.lcm(*periods)
    names = [f"item{j}" for j in range(items)]
    for _ in range(8):
        t = _snap(rng, _deep(rng), 0, lcm)
        if rng.random() < 0.5:
            program.asks.append(Query(
                "ask", f"sync({t}, {rng.choice(names)})", t % lcm == 0))
        else:
            i = rng.randrange(len(periods))
            t = _snap(rng, t, 0, periods[i])
            program.asks.append(Query(
                "ask", f"tick{i}({t}, {rng.choice(names)})",
                t % periods[i] == 0))
    for _ in range(2):
        t = _snap(rng, _deep(rng), 0, lcm)
        program.quantified.append(Query(
            "ask", f"exists X: sync({t}, X)", t % lcm == 0))
    for _ in range(2):
        i, horizon = rng.randrange(len(periods)), rng.randrange(10, 30)
        expect = _open_rows(lambda t, x: t % periods[i] == 0, ("T", "X"),
                            horizon, names)
        program.opens.append(Query("answers", f"tick{i}(T, X)", expect,
                                   expand=horizon))
    return program


# -- token rings -------------------------------------------------------------

def token_ring(rng: random.Random, size: int, start: int) -> Program:
    text, rules = _render(token_ring_program(),
                          ring_database(size, start=start))
    program = Program("ring", text, rules)
    procs = [f"proc{k}" for k in range(size)]

    def token(t: int, k: int) -> bool:
        return t >= start and (t - start) % size == k

    def served(t: int, k: int) -> bool:
        return t >= start + k + 1

    for _ in range(8):
        k, t = rng.randrange(size), _deep(rng)
        if rng.random() < 0.75:
            t = _snap(rng, t, start + k, size)
            program.asks.append(Query("ask", f"token({t}, proc{k})",
                                      token(t, k)))
        else:
            t = rng.choice((t, rng.randrange(0, start + size + 2)))
            program.asks.append(Query("ask", f"served({t}, proc{k})",
                                      served(t, k)))
    for _ in range(2):
        t = rng.choice((_deep(rng), rng.randrange(0, start + 2 * size)))
        program.quantified.append(Query(
            "ask", f"exists X: token({t}, X) and served({t}, X)",
            any(token(t, k) and served(t, k) for k in range(size))))
    horizon = start + rng.randrange(size, 2 * size + 1)
    expect = _open_rows(lambda t, x: token(t, procs.index(x)), ("T", "X"),
                        horizon, procs)
    program.opens.append(Query("answers", "token(T, X)", expect,
                               expand=horizon))
    k = rng.randrange(size)
    program.opens.append(Query(
        "answers", f"served(T, proc{k})",
        frozenset((("T", t),) for t in range(horizon + 1) if served(t, k)),
        expand=horizon))
    return program


# -- copy chains -------------------------------------------------------------

def copy_chain(rng: random.Random, length: int, items: int) -> Program:
    text, rules = _render(copy_chain_program(length),
                          copy_chain_database(items))
    program = Program("chain", text, rules)
    names = [f"item{j}" for j in range(items)]

    def stage(i: int, t: int) -> bool:
        return t == i if i < length else t >= length

    for _ in range(8):
        i = rng.choice((length, rng.randrange(length + 1)))
        t = rng.choice((_deep(rng), i))
        program.asks.append(Query(
            "ask", f"stage{i}({t}, {rng.choice(names)})", stage(i, t)))
    for _ in range(2):
        i = rng.randrange(length + 1)
        t = rng.choice((_deep(rng), i, rng.randrange(length + 4)))
        program.quantified.append(Query(
            "ask", f"exists X: stage{i}({t}, X)", stage(i, t)))
    for _ in range(2):
        i = rng.randrange(length + 1)
        horizon = rng.randrange(length // 2, length + 8)
        expect = _open_rows(lambda t, x: stage(i, t), ("T", "X"),
                            horizon, names)
        program.opens.append(Query("answers", f"stage{i}(T, X)", expect,
                                   expand=horizon))
    return program


class Unique:
    """Draws programs that were never generated before in this run.

    A program text seen twice would be a cache hit, not a cold request,
    so every draw is checked against everything drawn so far.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()
        self.rule_sets: set[str] = set()
        self.reused = 0

    def draw(self, make: Callable[[random.Random], Program]) -> Program:
        for _ in range(200):
            program = make(self.rng)
            if program.text not in self.seen:
                self.seen.add(program.text)
                if program.rules in self.rule_sets:
                    self.reused += 1
                self.rule_sets.add(program.rules)
                return program
        raise RuntimeError("generator keeps repeating programs")
