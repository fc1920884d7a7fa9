"""The lifecycle engine: drive a topology through months of simulated time.

:func:`run_lifecycle` walks a deterministic event stream
(:mod:`repro.lifecycle.events`) over a :class:`~repro.lifecycle.state.LifecycleState`,
asking a metric backend for a degradation snapshot after every event and a
full traffic evaluation at every epoch.  Two backends exist:

* :class:`~repro.lifecycle.metrics.IncrementalMetrics` (default) maintains
  components by scoped re-sweeps and routes epochs through the shared
  content-hash caches;
* :class:`~repro.lifecycle._reference.ColdMetrics` rebuilds everything per
  event -- the parity pin and the benchmark baseline.

Epoch evaluations are the expensive, externally-visible unit, so they get
the sweep engine's operational treatment: each epoch has a stable scenario
hash (a pure function of config hash, family label, seed, and epoch
index), runs under the chaos harness's ``on_execute`` hook with bounded
retries, and is reported through an observer callback shaped exactly like
a :class:`~repro.engine.runner.PointOutcome` -- which is what lets
:class:`~repro.telemetry.manifest.RunRecorder` journal per-epoch records
and ``repro lifecycle run --resume`` skip already-journaled epochs without
re-evaluating them (safe because every epoch draws from its own derived
generator).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.lifecycle.events import (
    EPOCH,
    LifecycleConfig,
    LifecycleEvent,
    generate_events,
)
from repro.lifecycle.state import LifecycleState
from repro.testing.chaos import ChaosError, active_plan
from repro.topologies.base import Topology

#: Target name epochs execute under (chaos rules and manifests match on it).
EPOCH_TARGET = "repro.lifecycle.engine:evaluate_epoch"


def epoch_hash(config: LifecycleConfig, family: str, seed, epoch_index: int) -> str:
    """Stable identity of one epoch evaluation (journal / chaos key)."""
    payload = f"{config.config_hash()}:{family}:{seed}:epoch:{epoch_index}"
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class _EpochPoint:
    """Duck-typed ``ScenarioPoint`` for observer/manifest plumbing."""

    scenario_hash: str
    target: str = EPOCH_TARGET


@dataclass(frozen=True)
class _EpochFailure:
    kind: str
    message: str
    exitcode: Optional[int] = None

    def as_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "exitcode": self.exitcode}


@dataclass(frozen=True)
class EpochOutcome:
    """Observer-visible result of one epoch (``PointOutcome``-shaped)."""

    point: _EpochPoint
    value: Optional[dict]
    cached: bool
    duration_s: float
    status: str = "ok"
    attempts: int = 1
    failure: Optional[_EpochFailure] = None
    worker: int = 0
    peak_rss_kb: int = 0


Observer = Callable[[int, int, EpochOutcome], None]


@dataclass
class LifecycleResult:
    """Everything a lifecycle run produced."""

    family: str
    backend: str
    seed: Optional[int]
    config_hash: str
    events_applied: int = 0
    #: One row per applied event: kind, time, and the degradation snapshot.
    event_log: List[dict] = field(default_factory=list)
    #: One row per epoch: timestamp, throughput metrics, snapshot fields.
    epochs: List[dict] = field(default_factory=list)
    failed_epochs: int = 0
    duration_s: float = 0.0

    def time_average(self, name: str) -> float:
        """Epoch-weighted mean of one epoch metric (0.0 when empty)."""
        values = [
            record[name] for record in self.epochs if record.get(name) is not None
        ]
        if not values:
            return 0.0
        return sum(values) / len(values)


def run_lifecycle(
    plant: Topology,
    config: LifecycleConfig,
    seed: Optional[int] = 0,
    backend: str = "incremental",
    family: Optional[str] = None,
    completed: Optional[Dict[str, dict]] = None,
    observer: Optional[Observer] = None,
    max_attempts: int = 3,
    events: Optional[List[LifecycleEvent]] = None,
) -> LifecycleResult:
    """Run one lifecycle; returns the full metric trajectory.

    ``plant`` is mutated in place by expansion events -- pass a dedicated
    instance.  ``completed`` maps epoch scenario hashes to previously
    journaled epoch records (see
    :func:`repro.telemetry.manifest.load_journal`); matching epochs are
    **not** re-evaluated, which is safe because epoch traffic and metrics
    derive from ``(seed, epoch_index)`` alone.  ``observer`` receives one
    :class:`EpochOutcome` per epoch, shaped for
    :meth:`repro.telemetry.manifest.RunRecorder.observe`.
    """
    if backend == "incremental":
        from repro.lifecycle.metrics import IncrementalMetrics as backend_cls
    elif backend == "reference":
        from repro.lifecycle._reference import ColdMetrics as backend_cls
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")

    family = family if family is not None else plant.name
    started = time.perf_counter()
    state = LifecycleState(plant, config, seed)
    metrics = backend_cls(state)
    stream = events if events is not None else generate_events(config, seed)
    total_epochs = sum(1 for event in stream if event.kind == EPOCH)

    result = LifecycleResult(
        family=family,
        backend=backend,
        seed=seed,
        config_hash=config.config_hash(),
    )
    epochs_done = 0
    for event in stream:
        delta = state.apply(event)
        metrics.on_event(delta)
        snapshot = metrics.snapshot()
        result.events_applied += 1
        result.event_log.append(
            {"kind": event.kind, "time_h": event.time_h, "key": event.key, **snapshot}
        )
        if event.kind != EPOCH:
            continue

        scenario = epoch_hash(config, family, seed, event.key)
        record: Optional[dict] = None
        cached = False
        status = "ok"
        attempts = 0
        failure: Optional[_EpochFailure] = None
        epoch_started = time.perf_counter()
        if completed is not None and scenario in completed:
            record = dict(completed[scenario])
            cached = True
            status = "journaled"
        else:
            plan = active_plan()
            while attempts < max_attempts:
                attempts += 1
                try:
                    if plan is not None:
                        plan.on_execute(
                            index=event.key,
                            scenario_hash=scenario,
                            target=EPOCH_TARGET,
                            attempt=attempts,
                        )
                    record = {
                        "epoch": event.key,
                        "time_h": event.time_h,
                        **metrics.epoch(event.key),
                        **snapshot,
                        "failed_links": len(state.failed_link_pairs),
                        "failed_switches": len(state.failed_switch_set),
                    }
                    break
                except ChaosError as error:
                    failure = _EpochFailure("error", str(error))
            if record is None:
                status = "failed"
                result.failed_epochs += 1

        duration = time.perf_counter() - epoch_started
        if record is not None:
            result.epochs.append(record)
        epochs_done += 1
        if observer is not None:
            observer(
                epochs_done,
                total_epochs,
                EpochOutcome(
                    point=_EpochPoint(scenario_hash=scenario),
                    value=record,
                    cached=cached,
                    duration_s=duration,
                    status=status,
                    attempts=attempts,
                    failure=failure if status == "failed" else None,
                ),
            )

    result.duration_s = time.perf_counter() - started
    return result


# --------------------------------------------------------------------------- #
# Scenario target: one lifecycle as one sweep point (fig08-lifecycle)
# --------------------------------------------------------------------------- #


def _build_plant(family: str, params: dict) -> Topology:
    if family == "fattree":
        from repro.topologies.fattree import FatTreeTopology

        return FatTreeTopology.build(params["ports"])
    if family == "jellyfish":
        from repro.topologies.jellyfish import JellyfishTopology

        return JellyfishTopology.from_equipment(
            num_switches=params["num_switches"],
            ports_per_switch=params["ports"],
            num_servers=params["num_servers"],
            rng=params.get("build_seed", 0),
        )
    raise ValueError(f"unknown topology family {family!r}")


def lifecycle_point(
    family: str,
    ports: int,
    num_switches: int = 0,
    num_servers: int = 0,
    build_seed: int = 0,
    seed: Optional[int] = 0,
    backend: str = "incremental",
    **config_kwargs,
) -> dict:
    """Scenario target: run one family's lifecycle, return a JSON-able dict.

    The event stream depends only on ``(config, seed)``, so two points that
    share those (the ``fig08-lifecycle`` Jellyfish and fat-tree rows) live
    through identical schedules of adversity.
    """
    config = LifecycleConfig(**config_kwargs)
    plant = _build_plant(
        family,
        {
            "ports": ports,
            "num_switches": num_switches,
            "num_servers": num_servers,
            "build_seed": build_seed,
        },
    )
    result = run_lifecycle(plant, config, seed=seed, backend=backend, family=family)
    return {
        "family": family,
        "backend": result.backend,
        "config_hash": result.config_hash,
        "events_applied": result.events_applied,
        "failed_epochs": result.failed_epochs,
        "plant_servers": sum(plant.servers.values()),
        "plant_switches": plant.num_switches,
        "epochs": result.epochs,
    }
