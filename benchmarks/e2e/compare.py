"""Compare two default-run snapshots of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are snapshots written by ``run.py --out`` (the
committed ``latest.json`` is one).  For every workload in both, prints each
end-to-end metric's median in A and in B, the change from A to B, and the
metric's regression bound from the root ``BENCHMARK.json``.  Exits 1 when B
is worse than A by more than a bound, or when either snapshot has a failed
run; exits 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def regressed(before: float, after: float, better: str, bound: float) -> bool:
    """True when ``after`` is worse than ``before`` by more than ``bound``."""
    if better == "lower":
        return after > before * (1.0 + bound)
    return after < before * (1.0 - bound)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    before = json.loads(args.before.read_text())["workloads"]
    after = json.loads(args.after.read_text())["workloads"]
    worse = False
    for workload in (name for name in before if name in after):
        print(workload)
        for side, snapshot in (("A", before), ("B", after)):
            for record in snapshot[workload].values():
                if record["failed"]:
                    worse = True
                    print(f"  {side}: {record['failed']} of {record['attempted']} runs failed")
        old = before[workload]["untraced"]["metrics"]
        new = after[workload]["untraced"]["metrics"]
        for spec in metrics:
            name = spec["name"]
            a, b = old[name]["value"], new[name]["value"]
            bad = regressed(a, b, spec["better"], spec["bound"])
            worse |= bad
            print(
                f"  {name:<12} A {a:10.4f}  B {b:10.4f} {spec['unit']:<3} "
                f"{b / a - 1.0:+7.1%} (bound {spec['bound']:.0%}, {spec['better']} is better)"
                f"{'  REGRESSED' if bad else ''}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
