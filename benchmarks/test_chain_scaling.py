"""Extension: the Composition Theorem on k-queue chains.

The paper composes two queues by hand (Figure 9); the engine iterates the
construction.  This benchmark reports how the proof cost scales with the
chain length k -- the reachable product grows, but remains model-checkable,
whereas the direct semantic route is already hopeless at k = 2
(see test_ablation_direct_vs_theorem).
"""

import pytest

from repro.core import behavior_count
from repro.systems.queue import QueueChain

from conftest import report


@pytest.mark.parametrize("count", [2, 3])
def test_chain_composition(benchmark, count):
    chain = QueueChain(count, 1)

    cert = benchmark.pedantic(
        lambda: chain.composition_theorem().verify(), rounds=1, iterations=1)
    assert cert.ok
    direct = behavior_count(chain.universe, 2, 2)
    report(f"chain composition, k={count}, N=1", [
        ["capacity proved", chain.capacity],
        ["states explored (theorem)", cert.total_states_explored()],
        ["lassos in open universe (direct, stem/loop<=2)", f"{direct:.2e}"],
    ])
