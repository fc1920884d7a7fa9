"""Declarative scenario specifications for the sweep engine.

The paper's evaluation is a grid: topology family x size x routing scheme x
traffic matrix x failure rate.  A :class:`ScenarioSpec` describes one such
grid declaratively -- a target callable plus fixed parameters and swept axes
-- and expands into concrete :class:`ScenarioPoint` instances.  Every point
has a stable content hash over its canonical-JSON key, which is what the
result cache and the deduplication pass in :mod:`repro.engine.runner` key on.

Targets are referenced by dotted path (``"package.module:callable"``) so
points pickle cheaply across worker processes and hash independently of any
in-memory object identity.  A target must accept its parameters as keyword
arguments, take an optional ``seed`` keyword when the scenario is stochastic,
and return a JSON-serializable value.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.resources import ExecutionProfile, activate_profile

SEED_STRATEGIES = ("auto", "shared", "derived")


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to canonical JSON (sorted keys, no whitespace).

    Raises ``TypeError`` for non-JSON-serializable values and ``ValueError``
    for NaN/Infinity, so everything that gets hashed or cached is guaranteed
    to round-trip exactly.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
    )


def normalize(value: Any) -> Any:
    """Round-trip ``value`` through canonical JSON.

    The runner normalizes every target's return value so that a freshly
    computed result and the same result read back from the cache are
    indistinguishable (tuples become lists, dict keys become strings).
    """
    return json.loads(canonical_json(value))


def content_hash(value: Any) -> str:
    """Stable sha256 hex digest of ``value``'s canonical JSON."""
    return hashlib.sha256(canonical_json(value).encode("ascii")).hexdigest()


def derive_seed(base_seed: Optional[int], material: Any, repetition: int = 0) -> Optional[int]:
    """Derive a per-point seed from a base seed and arbitrary JSON material.

    The derivation hashes ``(base_seed, material, repetition)`` so it is
    stable under grid reordering: adding an axis value does not change the
    seeds of existing points.  ``None`` stays ``None`` (unseeded scenario).
    """
    if base_seed is None:
        return None
    digest = hashlib.sha256(
        canonical_json([base_seed, material, repetition]).encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def resolve_target(target: str) -> Callable:
    """Import and return the callable behind a ``"module:callable"`` path."""
    module_path, _, attribute = target.partition(":")
    if not module_path or not attribute:
        raise ValueError(
            f"target must look like 'package.module:callable', got {target!r}"
        )
    module = importlib.import_module(module_path)
    try:
        fn = getattr(module, attribute)
    except AttributeError as error:
        raise ValueError(f"module {module_path!r} has no attribute {attribute!r}") from error
    if not callable(fn):
        raise ValueError(f"target {target!r} is not callable")
    return fn


@dataclass(frozen=True)
class ScenarioPoint:
    """One concrete, executable scenario: a target plus scalar parameters.

    Instances are immutable and picklable; :attr:`scenario_hash` is the
    content address used by the cache and by the runner's deduplication.
    """

    target: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    repetition: int = 0

    def key(self) -> Dict[str, Any]:
        """Everything that identifies this scenario's result."""
        return {
            "target": self.target,
            "params": self.params,
            "seed": self.seed,
            "repetition": self.repetition,
        }

    @cached_property
    def scenario_hash(self) -> str:
        return content_hash(self.key())

    def __hash__(self) -> int:
        # The generated dataclass hash would choke on the params dict; hash
        # the content address instead so points work in sets and dict keys.
        return hash(self.scenario_hash)

    def execute(self, profile: Optional[ExecutionProfile] = None) -> Any:
        """Run the target and return its canonical-JSON-normalized value.

        ``profile`` (a degradation-ladder rung, see :mod:`repro.resources`)
        is activated around the target call so budget-aware kernels pick up
        its scratch/memo scales and sampled-mode switch; ``None`` runs at
        full fidelity.  This is the single seam both the serial and the
        supervised worker paths execute through.
        """
        fn = resolve_target(self.target)
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        with activate_profile(profile):
            return normalize(fn(**kwargs))

    def describe(self) -> str:
        return f"{self.scenario_hash[:12]} {self.target} {canonical_json(self.params)}"


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative sweep: a target, fixed parameters, and swept axes.

    ``base`` holds parameters shared by every point; ``axes`` maps axis names
    to the list of values to sweep (the cartesian product, in axis insertion
    order, defines point order).  ``repetitions`` replicates each grid cell
    with a repetition index; per-point seeds follow ``seed_strategy``:

    - ``"shared"``: every point gets ``seed`` verbatim (the right choice for
      a single-point figure whose rng stream spans the whole run).
    - ``"derived"``: each point gets a seed derived from ``(seed, params,
      repetition)`` so repetitions and cells are independent trials.
    - ``"auto"`` (default): ``shared`` when ``repetitions == 1``, else
      ``derived``.
    """

    target: str
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    seed: Optional[int] = None
    repetitions: int = 1
    seed_strategy: str = "auto"
    name: str = ""

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.seed_strategy not in SEED_STRATEGIES:
            raise ValueError(
                f"seed_strategy must be one of {SEED_STRATEGIES}, got {self.seed_strategy!r}"
            )
        overlap = set(self.base) & set(self.axes)
        if overlap:
            raise ValueError(f"parameters appear as both base and axis: {sorted(overlap)}")
        if "seed" in self.base or "seed" in self.axes:
            raise ValueError(
                "'seed' cannot be a scenario parameter; set ScenarioSpec.seed instead"
            )
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"axis {axis!r} must be a non-empty list of values")
        # Fail fast on unhashable parameter content.
        canonical_json({"base": self.base, "axes": self.axes})

    @classmethod
    def grid(
        cls,
        target: str,
        *,
        seed: Optional[int] = None,
        repetitions: int = 1,
        seed_strategy: str = "auto",
        name: str = "",
        **params: Any,
    ) -> "ScenarioSpec":
        """Build a spec from keyword parameters.

        List/tuple values become swept axes; scalars become fixed base
        parameters.  To pass a literal list as a fixed parameter, construct
        :class:`ScenarioSpec` directly with it in ``base``.
        """
        base = {k: v for k, v in params.items() if not isinstance(v, (list, tuple))}
        axes = {k: list(v) for k, v in params.items() if isinstance(v, (list, tuple))}
        return cls(
            target=target,
            base=base,
            axes=axes,
            seed=seed,
            repetitions=repetitions,
            seed_strategy=seed_strategy,
            name=name,
        )

    def _point_seed(self, params: Dict[str, Any], repetition: int) -> Optional[int]:
        strategy = self.seed_strategy
        if strategy == "auto":
            strategy = "shared" if self.repetitions == 1 else "derived"
        if strategy == "shared":
            return self.seed
        return derive_seed(self.seed, params, repetition)

    def points(self) -> List[ScenarioPoint]:
        """Expand the grid into concrete points, in deterministic order."""
        return list(self.iter_points())

    def iter_points(self) -> Iterator[ScenarioPoint]:
        axis_names = list(self.axes)
        for combo in itertools.product(*(self.axes[name] for name in axis_names)):
            params = dict(self.base)
            params.update(zip(axis_names, combo))
            for repetition in range(self.repetitions):
                yield ScenarioPoint(
                    target=self.target,
                    params=params if self.repetitions == 1 else dict(params),
                    seed=self._point_seed(params, repetition),
                    repetition=repetition,
                )

    def size(self) -> int:
        total = self.repetitions
        for values in self.axes.values():
            total *= len(values)
        return total

    def __len__(self) -> int:
        return self.size()

    @cached_property
    def spec_hash(self) -> str:
        return content_hash(
            {
                "target": self.target,
                "base": self.base,
                "axes": self.axes,
                "seed": self.seed,
                "repetitions": self.repetitions,
                "seed_strategy": self.seed_strategy,
            }
        )

    def __hash__(self) -> int:
        return hash(self.spec_hash)


def expand(specs: Sequence[ScenarioSpec]) -> List[ScenarioPoint]:
    """Concatenate the points of several specs, preserving spec order."""
    return [point for spec in specs for point in spec.iter_points()]
