"""The ``serve`` module generator: seeded, byte-stable, closed-form."""

from collections import Counter

from repro.checker import explore
from repro.parser import load_module

import modules
from modules import HITS_PER_ROUND, MISSES_PER_ROUND, round_modules


def test_same_seed_gives_byte_identical_modules():
    first, first_hits = round_modules(7, 0)
    again, again_hits = round_modules(7, 0)
    assert [m.source() for m in first] == [m.source() for m in again]
    assert first_hits == again_hits
    assert len(first) == MISSES_PER_ROUND and len(first_hits) == HITS_PER_ROUND
    assert set(first_hits) <= set(first)


def test_seeds_and_rounds_differ_in_text_but_not_in_work():
    recipe = lambda batch: Counter((m.n, m.b, m.invariants) for m in batch)
    a, _ = round_modules(1, 0)
    b, _ = round_modules(2, 0)
    c, _ = round_modules(1, 1)
    assert recipe(a) == recipe(b) == recipe(c)
    texts = [{m.source() for m in batch} for batch in (a, b, c)]
    assert not (texts[0] & texts[1]) and not (texts[0] & texts[2])
    assert len({m.tag for m in a + b + c}) == 3 * MISSES_PER_ROUND


def test_closed_forms_match_an_exploration():
    module = modules.probe_module(3, 2, "t")
    spec = load_module(module.source()).spec("Spec")
    graph = explore(spec)
    assert (graph.state_count, graph.edge_count) == \
        (module.states, module.edges) == (81, 81 + 3 * 2 * 9)
    loaded = load_module(module.source())
    for name in modules.HOLDING + ("NotAllFull",):
        loaded.expr(name)   # every invariant a pair may name is defined
