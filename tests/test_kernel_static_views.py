"""Property tests on the kernel's static-analysis views."""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analyze import DistanceField
from repro.kernel import Executor
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator


def _hops(kernel, target):
    """Reverse hop counts toward ``target`` (producer edges off)."""
    return DistanceField(kernel, [target], state_edge_cost=math.inf).distance


class TestStaticViews:
    def test_guarding_condition_of_alternatives(self, kernel):
        """Every frontier block of an execution has a conditional
        predecessor (by construction: frontiers come from branches)."""
        generator = ProgramGenerator(kernel.table, make_rng(90))
        executor = Executor(kernel)
        checked = 0
        for _ in range(5):
            coverage = executor.run(generator.random_program()).coverage
            for block in kernel.frontier(coverage.blocks):
                assert kernel.guarding_condition(block) is not None
                checked += 1
        assert checked > 0

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10_000))
    def test_frontier_disjoint_from_coverage(self, kernel, seed):
        generator = ProgramGenerator(kernel.table, make_rng(seed))
        executor = Executor(kernel)
        coverage = executor.run(generator.random_program()).coverage
        frontier = kernel.frontier(coverage.blocks)
        assert not (frontier & coverage.blocks)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 10_000))
    def test_frontier_reachable_in_one_hop(self, kernel, seed):
        generator = ProgramGenerator(kernel.table, make_rng(seed))
        executor = Executor(kernel)
        coverage = executor.run(generator.random_program()).coverage
        frontier = kernel.frontier(coverage.blocks)
        one_hop = set()
        for block in coverage.blocks:
            one_hop.update(kernel.succs.get(block, ()))
        assert frontier <= one_hop

    def test_hop_distances_are_shortest(self, kernel):
        """Reverse hop counts to a fixed exit obey the triangle
        inequality on every CFG edge and are tight: each block at
        distance d > 0 has a successor at distance d - 1."""
        name = sorted(kernel.handlers)[0]
        cfg = kernel.handlers[name]
        exits = cfg.exits()
        backward = _hops(kernel, exits[0])
        assert cfg.entry in backward
        for block_id, hops in backward.items():
            succ_hops = [
                backward[succ] for succ in kernel.succs.get(block_id, ())
                if succ in backward
            ]
            assert all(hops <= other + 1 for other in succ_hops)
            if hops > 0:
                assert hops - 1 in succ_hops

    def test_distance_maps_nonnegative(self, kernel):
        name = sorted(kernel.handlers)[0]
        cfg = kernel.handlers[name]
        for distance in _hops(kernel, cfg.exits()[0]).values():
            assert distance >= 0
