"""Draw-for-draw pins of the random topology builders.

``tests/golden/random_wiring.json`` holds, for every case below at seeds
0-9, an order-sensitive digest of the built adjacency (node order and each
node's neighbour order, which KSP tie-breaks read) and, where the caller
passes the rng in, the rng's next ``random()`` after the build: fig04 and
fig14 draw their traffic from the same rng after building, so one extra or
missing draw moves their rows.  Rewrite the file with ``PYTHONPATH=src
python tests/test_random_wiring.py`` only when a change is meant to alter
wiring.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.cabling.containers import build_localized_jellyfish
from repro.topologies.degree_diameter import DegreeDiameterTopology
from repro.topologies.ensemble import single_rrg_core
from repro.topologies.jellyfish import JellyfishTopology, rrg_core
from repro.topologies.swdc import HEX_TORUS_3D, RING, TORUS_2D, SmallWorldTopology
from repro.utils.rng import spawn_seeds

FIXTURE = Path(__file__).parent / "golden" / "random_wiring.json"
SEEDS = range(10)
METHODS = ("sequential", "stubs")


def adjacency_digest(graph) -> str:
    listing = [(node, list(graph.adj[node])) for node in graph.nodes]
    return hashlib.sha256(repr(listing).encode()).hexdigest()[:16]


def _pinned(build):
    """A case: seed -> [adjacency digest, the rng's next random()]."""

    def case(seed):
        rand = random.Random(seed)
        return [adjacency_digest(build(rand)), rand.random()]

    return case


def _swdc(num_nodes, variant, degree):
    return _pinned(
        lambda rand: SmallWorldTopology.build(num_nodes, variant, degree=degree, rng=rand).graph
    )


def _localized(containers, per_container, ports, degree, servers, fraction):
    return _pinned(
        lambda rand: build_localized_jellyfish(
            containers, per_container, ports, degree, servers, fraction, rng=rand
        ).graph
    )


def _jellyfish(num_switches, ports, degree, method):
    return _pinned(
        lambda rand: JellyfishTopology.build(
            num_switches, ports, degree, rng=rand, method=method
        ).graph
    )


def _ensemble(num_switches, ports, degree, method):
    def case(seed):
        cores = [
            rrg_core(num_switches, ports, degree, instance_seed, method=method)
            for instance_seed in spawn_seeds(seed, 3)
        ]
        return [adjacency_digest(core.to_networkx()) for core in cores]

    return case


CASES = {}
for _variant, _sizes in ((RING, (12, 50)), (TORUS_2D, (16, 49)), (HEX_TORUS_3D, (18, 50))):
    for _size in _sizes:
        for _degree in range(4, 8):
            CASES[f"swdc-{_variant}-{_size}-d{_degree}"] = _swdc(_size, _variant, _degree)
# Dense configs, where a step's random draws can all miss and its
# exhaustive fallback links the first free pair instead.
CASES["swdc-ring-9-d7"] = _swdc(9, RING, 7)
CASES["swdc-torus2d-16-d9"] = _swdc(16, TORUS_2D, 9)
for _config in (
    (3, 2, 12, 6, 2, 0.0),
    (3, 4, 12, 9, 2, 0.0),
    (2, 4, 12, 9, 2, 0.5),
    (4, 8, 10, 6, 4, 0.0),
    (4, 8, 10, 6, 4, 0.6),
    (4, 8, 10, 6, 4, 1.0),
    (1, 10, 10, 6, 4, 0.5),
    (3, 5, 10, 6, 4, 0.9),
    (6, 4, 12, 7, 3, 0.3),
    (2, 12, 10, 5, 4, 0.4),
    (5, 15, 10, 6, 4, 0.3),
):
    CASES["localized-" + "-".join(map(str, _config))] = _localized(*_config)
for _method in METHODS:
    CASES[f"build-{_method}-30-10-7"] = _jellyfish(30, 10, 7, _method)
    CASES[f"build-{_method}-21-8-5"] = _jellyfish(21, 8, 5, _method)
    CASES[f"ensemble-{_method}-21-8-5"] = _ensemble(21, 8, 5, _method)
CASES["single-stubs-41-12-9"] = _pinned(
    lambda rand: single_rrg_core(41, 12, 9, seed=rand).to_networkx()
)
CASES["single-sequential-30-8-5"] = _pinned(
    lambda rand: single_rrg_core(30, 8, 5, seed=rand, method="sequential").to_networkx()
)
CASES["equipment-20-6-50"] = _pinned(
    lambda rand: JellyfishTopology.from_equipment(20, 6, 50, rng=rand).graph
)
CASES["equipment-45-6-54"] = _pinned(
    lambda rand: JellyfishTopology.from_equipment(45, 6, 54, rng=rand).graph
)
CASES["degree-diameter-20-6-4"] = _pinned(
    lambda rand: DegreeDiameterTopology.build(20, 6, 4, rng=rand, iterations=10).graph
)
CASES["degree-diameter-21-6-5"] = _pinned(
    lambda rand: DegreeDiameterTopology.build(21, 6, 5, rng=rand, iterations=10).graph
)


def record() -> dict:
    return {case: [CASES[case](seed) for seed in SEEDS] for case in sorted(CASES)}


def test_every_random_builder_wires_as_recorded():
    recorded = json.loads(FIXTURE.read_text())
    assert sorted(recorded) == sorted(CASES)
    moved = [
        f"{case} seed {seed}: expected {want}, got {got}"
        for case in sorted(CASES)
        for seed, want in zip(SEEDS, recorded[case])
        if (got := CASES[case](seed)) != want
    ]
    assert not moved, f"wiring differs from {FIXTURE.name}:\n" + "\n".join(moved)


if __name__ == "__main__":
    lines = [f" {json.dumps(case)}: {json.dumps(pins)}" for case, pins in record().items()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
