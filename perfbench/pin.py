#!/usr/bin/env python3
"""Write the reference answers of every workload for a list of seeds.

    python3 perfbench/pin.py 0-31 20021

The answers go to perfbench/pinned.json; ``run.py`` then refuses a run whose
freshly computed reference disagrees with the pinned one, which guards the
generators and the reference against silent drift.
"""

import json
import sys
from pathlib import Path

from reference import best_segment
from workloads import GENERATORS, HELD_OUT_SEED

PINNED = Path(__file__).resolve().parent / "pinned.json"


def _seeds(args):
    for arg in args:
        lo, _, hi = arg.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def _dump(pinned) -> str:
    """One line per seed, so a diff shows which answers moved."""
    blocks = []
    for name, answers in pinned.items():
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(ans)}"
                           for seed, ans in answers.items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    seeds = sorted(set(_seeds(sys.argv[1:] or ["0-31", str(HELD_OUT_SEED)])))
    pinned = {}
    for name, generate in GENERATORS.items():
        pinned[name] = {}
        for seed in seeds:
            inst = generate(seed)
            pinned[name][str(seed)] = [list(best_segment(v, w, L, U))
                                       for _, v, w, L, U in inst.records]
    PINNED.write_text(_dump(pinned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
