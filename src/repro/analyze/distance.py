"""AFLGo-style static distance field to a set of target blocks.

Directed greybox fuzzing (AFLGo, Hawkeye; see PAPERS.md) schedules
energy by a precomputed *seed distance*: a static map from every basic
block to the target set, aggregated over the callgraph.  The synthetic
kernel has no callgraph — handlers are independent DAGs — but it has
something real kernels lack statically: exact :class:`StateCondition`
producer edges.  A state-guarded target in one handler is reached by
first executing the effect block of a *producer* handler, so the
distance field threads a weighted edge from every state-condition block
to each effect block that writes its flag.  Covering a producer then
measurably shrinks a program's distance even though the target's own
handler was never entered — exactly the cross-call gradient the
directed scheduler climbs.

Concretely the field is a multi-source Dijkstra over the reversed CFG:

- every CFG edge ``u -> v`` contributes a reverse edge of weight 1;
- every state-condition block ``c`` on flag ``k`` contributes reverse
  edges of weight ``state_edge_cost`` to each effect block writing
  ``k`` (:attr:`~repro.kernel.build.Kernel.writers_of_flag`, the same
  def-use index :class:`~repro.analyze.deps.DependencyOracle` chases).

Per-block distances aggregate over the target set by minimum (AFLGo's
harmonic mean degenerates to the minimum here because targets cluster
inside a handful of handlers; DESIGN.md §Patch-impact model discusses
the simplification).  :meth:`DistanceField.program_distance` is then the
minimum over a program's covered blocks — the scheduling key of the
patch director.

With ``state_edge_cost=math.inf`` no producer edge is ever relaxed and
the field is the plain reverse hop count over CFG edges: the distance
SyzDirect-style :class:`~repro.fuzzer.directed.DirectedFuzzer` ranks
seeds by, and the upstream test of the release-diff pass's touched-bug
chains.  This module is the only distance code in the repository.
"""

from __future__ import annotations

import heapq
import math

from repro.kernel.build import Kernel
from repro.kernel.conditions import StateCondition

__all__ = ["DistanceField", "STATE_EDGE_COST"]

# Weight of one producer hop relative to one CFG edge.  Crossing into a
# producer handler costs a separate call in the test program, so it is
# strictly more work than falling through a branch, but it must stay
# cheap enough that covering a producer beats covering an unrelated
# handler entry (whose distance is entry-depth many CFG edges).
STATE_EDGE_COST = 3.0


class DistanceField:
    """Static distances from every block to a target set."""

    def __init__(
        self,
        kernel: Kernel,
        targets: tuple[int, ...] | list[int] | set[int],
        state_edge_cost: float = STATE_EDGE_COST,
    ):
        self.kernel = kernel
        self.targets: tuple[int, ...] = tuple(
            sorted({t for t in targets if t in kernel.blocks})
        )
        self.state_edge_cost = float(state_edge_cost)
        self.distance: dict[int, float] = self._solve()

    def _solve(self) -> dict[int, float]:
        dist: dict[int, float] = {target: 0.0 for target in self.targets}
        heap: list[tuple[float, int]] = [
            (0.0, target) for target in self.targets
        ]
        heapq.heapify(heap)
        blocks = self.kernel.blocks
        preds = self.kernel.preds
        writers_of_flag = self.kernel.writers_of_flag
        while heap:
            d, block_id = heapq.heappop(heap)
            if d > dist.get(block_id, math.inf):
                continue
            for pred in preds.get(block_id, ()):
                candidate = d + 1.0
                if candidate < dist.get(pred, math.inf):
                    dist[pred] = candidate
                    heapq.heappush(heap, (candidate, pred))
            condition = blocks[block_id].condition
            if not isinstance(condition, StateCondition):
                continue
            for writer in writers_of_flag.get(condition.key, ()):
                candidate = d + self.state_edge_cost
                if candidate < dist.get(writer, math.inf):
                    dist[writer] = candidate
                    heapq.heappush(heap, (candidate, writer))
        return dist

    # ----- queries -----

    def block_distance(self, block_id: int) -> float:
        """Distance of one block to the target set (inf if detached)."""
        return self.distance.get(block_id, math.inf)

    def program_distance(self, covered: set[int] | frozenset[int]) -> float:
        """Distance of a program, judged by its best covered block."""
        best = math.inf
        for block_id in covered:
            d = self.distance.get(block_id)
            if d is not None and d < best:
                best = d
        return best

    def finite_fraction(self) -> float:
        """Share of kernel blocks with a finite distance — how much of
        the kernel the directed gradient can see at all."""
        total = len(self.kernel.blocks)
        return len(self.distance) / total if total else 0.0
