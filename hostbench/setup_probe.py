"""Time one workload's set-up in a fresh process and print it as JSON.

    python3 hostbench/setup_probe.py <workload> <seed> <samples>

``run.py`` starts this a few times per run.  Set-up measured inside a
process that already ran jobs swung by two orders of magnitude with the
state of its heap, so every sample comes from a fresh interpreter, after
``gc.collect()``.  A first, untimed set-up does the lazy imports and fills
the caches that later set-ups in any process find warm.  Each timed
set-up is followed by the reference loop, so it lies between two readings
of host speed; its ``ref_s`` is their mean.
"""

import gc
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cases  # noqa: E402  (needs the src path above)
import run  # noqa: E402


def main(argv) -> int:
    name, seed, samples = argv[0], int(argv[1]), int(argv[2])
    case = cases.CASES[name]
    case.time_setup(seed)
    refs = [run.reference_loop_s()]
    timings = []
    for _ in range(samples):
        gc.collect()
        timing = case.time_setup(seed)
        refs.append(run.reference_loop_s())
        timing["ref_s"] = (refs[-2] + refs[-1]) / 2
        timings.append(timing)
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
