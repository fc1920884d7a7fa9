"""Parity oracles and test-only scenario targets (not part of the ``repro`` package).

Each vectorized engine in ``src/repro`` is pinned against the
implementation it replaced.  Those implementations live here, outside the
installed package, so production code can never select them:

* :mod:`oracles.flow` -- pure-Python max-min filling and the
  ``lil_matrix``-assembled edge and path LPs;
* :mod:`oracles.simulation` -- the scalar AIMD round loop;
* :mod:`oracles.graphs` -- the ``networkx``-native random-graph
  constructors, the exhaustive bisection width and the regularity check;
* :mod:`oracles.routing` -- dict/deque BFS and Yen;
* :mod:`oracles.topologies` -- the quadratic ``add_switch`` splice loop;
* :mod:`oracles.lifecycle` -- the cold-rebuild lifecycle metrics;
* :mod:`oracles.targets` -- tiny scenario targets for the engine tests;
* :mod:`oracles.results` -- row and column accessors for experiment results.

The package is importable as ``oracles`` from three places: pytest (the
``pythonpath`` setting in ``pyproject.toml`` puts ``tests/`` on
``sys.path``), the ``benchmarks/record_*.py`` scripts (each adds
``tests/`` itself), and ``SweepRunner`` workers, which inherit the parent's
``sys.path``.  ``tests/test_layout.py`` checks that no module under
``src/repro`` imports it.
"""
