"""Write pins.json: output digests of the first requests of each seed.

    python3 perfbench/pin.py

The correctness gate in run.py compares a run's outputs with these digests.
Re-pin only when a change is meant to alter the library's outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

PINNED_SEEDS = 100
PINNED = {"walk": (lambda seed: workloads.Walk(seed, passes=1), 10), "scenario": (workloads.ScenarioWorkload, 3)}


def main() -> int:
    pins: dict = {}
    for name, (make, count) in PINNED.items():
        pins[name] = {}
        for seed in range(PINNED_SEEDS):
            wl = make(seed)
            for i in range(count):
                wl.run(i)
            if wl.failures:
                print(f"{name} seed {seed}: failures {dict(wl.failures)}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = [wl.output_digest(i) for i in range(count)]
    (HERE / "pins.json").write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
