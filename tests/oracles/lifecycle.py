"""Cold-rebuild reference backend for the lifecycle engine.

The semantic pin for :class:`~repro.lifecycle.metrics.IncrementalMetrics`,
in the same spirit as :mod:`oracles.flow` and
:mod:`oracles.simulation`: after **every** event it materializes
the current topology from scratch and runs a full CSR component labeling,
and before **every** epoch it clears the shared path / capacity / CSR
caches so routing is recomputed cold.  Nothing is carried between events,
which makes it trivially correct -- and makes the incremental backend's
speedup measurable honestly (``benchmarks/record_lifecycle.py``).

Snapshots and epoch evaluations go through the *same* arithmetic as the
incremental backend (:func:`~repro.lifecycle.metrics.component_summary`,
:func:`~repro.lifecycle.metrics.evaluate_epoch`), so the parity suite can
require identical metric trajectories, float for float, not merely close
ones.  Tests pass it to :func:`~repro.lifecycle.engine.run_lifecycle` as
``metrics_class``; production code never imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graphs.properties import csr_component_labels
from repro.lifecycle.metrics import component_summary, evaluate_epoch
from repro.lifecycle.state import LifecycleState, _node_key
from repro.memo import clear_memos


class ColdMetrics:
    """Rebuild-everything backend: correct by construction, slow on purpose."""

    name = "reference"

    def __init__(self, state: LifecycleState):
        self.state = state
        self._components: List[Tuple[int, int, str]] = []
        self._relabel()

    def _relabel(self) -> None:
        """Full rebuild: fresh topology, fresh CSR, fresh labeling."""
        topology = self.state.materialize()
        if topology.graph.number_of_nodes() == 0:
            self._components = []
            return
        csr = topology.csr()
        labels = csr_component_labels(csr)
        rows: Dict[int, List] = {}
        for index, node in enumerate(csr.nodes):
            row = rows.setdefault(int(labels[index]), [0, 0, None])
            row[0] += topology.servers.get(node, 0)
            row[1] += 1
            key = _node_key(node)
            if row[2] is None or key < row[2]:
                row[2] = key
        self._components = [
            (servers, switches, key) for servers, switches, key in rows.values()
        ]

    def on_event(self, delta: Tuple) -> None:
        del delta  # the reference recomputes everything regardless
        self._relabel()

    def snapshot(self) -> Dict[str, object]:
        return component_summary(self._components, self.state.plant_servers())

    def epoch(self, epoch_index: int) -> Dict[str, float]:
        # Cold semantics: no warm routing state survives into an epoch.
        clear_memos()
        topology = self.state.materialize()
        return evaluate_epoch(
            topology,
            self.state.config,
            self.state.seed,
            epoch_index,
            self.state.plant_servers(),
        )
