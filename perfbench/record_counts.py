"""Regenerate ``expected_counts.json``: exact simulated counts per shape.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/record_counts.py

Each program shape the workloads use is simulated on the ``compiled``
kind with the Python backend, no cache and no tiering -- a reference
path independent of the native, tiering and cache layers the
benchmark times.  Every shape is run for several seeds (including the
held-out seed) and must give the same counts for all of them: the
benchmark checks each request against these numbers whatever
``--seed`` it is given.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

#: Run seeds whose inputs are recorded (the last one is the held-out
#: seed, see README.md).
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4242)
#: Input indices per seed: the first two programs of a run.
INDICES = (0, 1)


def record():
    from repro.api import build_toolset, load_model

    shapes = {}
    for shape, (model_name, _) in sorted(workloads.SHAPES.items()):
        tools = build_toolset(load_model(model_name))
        counts = set()
        for seed in SEEDS:
            for index in INDICES:
                app = workloads.build_app(
                    shape, workloads.app_seed(seed, index))
                sim = tools.new_simulator("compiled", backend="python")
                sim.load_program(app.assemble(tools))
                stats = sim.run(app.max_cycles)
                app.verify(sim.state)
                counts.add((stats.cycles, stats.instructions))
        if len(counts) != 1:
            raise SystemExit("shape %s: counts differ across seeds: %r"
                             % (shape, sorted(counts)))
        (cycles, instructions), = counts
        shapes[shape] = {"model": model_name, "cycles": cycles,
                         "instructions": instructions}
        print(shape, cycles, instructions, file=sys.stderr)
    return {
        "reference": {"kind": "compiled", "backend": "python"},
        "seeds": list(SEEDS),
        "indices": list(INDICES),
        "shapes": shapes,
    }


if __name__ == "__main__":
    payload = record()
    with open(os.path.join(HERE, "expected_counts.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
