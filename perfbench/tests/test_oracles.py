"""The closed-form oracles agree with Figure 1 of the paper.

``bt_verbatim`` evaluates each small program over a window that covers
every ground ask and ``expand`` bound checked here; the closed forms
must give the same answers the window model does.
"""

import random

import pytest

import corpus
from repro.core.tdd import TDD
from repro.temporal.bt import bt_verbatim

SMALL = {
    "travel": lambda r: corpus.travel(r, r.randrange(20, 40), 2,
                                      holidays=3),
    "path": lambda r: corpus.bounded_path(r, 6, 9),
    "counters": lambda r: corpus.counters(r, (2, 3, 5)),
    "sync": lambda r: corpus.sync(r, (2, 3), 2),
    "ring": lambda r: corpus.token_ring(r, 4, r.randrange(0, 5)),
    "chain": lambda r: corpus.copy_chain(r, 5, 2),
}


def _window_model(program, window):
    tdd = TDD.from_text(program.text)
    return bt_verbatim(tdd.rules, tdd.database, window=window).store


@pytest.mark.parametrize("family", sorted(SMALL))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_open_answers_match_figure_1(family, seed):
    program = SMALL[family](random.Random(seed))
    window = max(q.expand for q in program.opens) + 8
    store = _window_model(program, window)
    for query in program.opens:
        pred = query.text.split("(")[0]
        names = [a.strip() for a in
                 query.text.split("(", 1)[1].rstrip(")").split(",")]
        found = set()
        for fact in store.facts():
            if fact.pred != pred or fact.time is None:
                continue
            if fact.time > query.expand:
                continue
            row, ok = [(names[0], fact.time)], True
            for name, value in zip(names[1:], fact.args):
                if name[0].isupper():
                    row.append((name, value))
                elif name != value:
                    ok = False
            if ok:
                found.add(tuple(sorted(row)))
        assert found == query.expect, query.text


def test_travel_year_folding_matches_a_long_window():
    year = 24
    program = corpus.travel(random.Random(5), year, 2, holidays=3)
    facts = list(TDD.from_text(program.text).database.facts())
    winter = {f.time for f in facts if f.pred == "winter"}
    holiday = {f.time for f in facts if f.pred == "holiday"}
    store = _window_model(program, year * 12)
    for fact in facts:
        if fact.pred != "plane":
            continue
        model = corpus._TravelModel(year, winter, holiday, fact.time)
        for t in range(year * 11):
            assert model.holds(t) == store.contains("plane", t, fact.args)


def test_coprime_sets_are_pairwise_coprime_and_in_band():
    import math
    for periods in corpus.coprime_sets(3, 100, 200):
        assert 100 <= math.prod(periods) <= 200
        assert all(math.gcd(a, b) == 1 for a in periods for b in periods
                   if a != b)


def test_unique_never_repeats_a_program():
    unique = corpus.Unique(random.Random(0))
    texts = [unique.draw(SMALL["path"]).text for _ in range(30)]
    assert len(set(texts)) == 30
