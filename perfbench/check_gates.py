"""Self-test of the correctness gates: each must pass on the live tree
and fail once a divergence is planted.

Usage, from the root of a checkout::

    python3 perfbench/check_gates.py

For every workload it sets up, runs a short stretch of its own input
stream, asserts the gate reports nothing, then plants one divergence at
a time (an altered surface cell, an altered replica cell, a wrong
recalculated value, a renderer resync, a lost fleet event) and asserts
the gate reports it.  Exits 0 when every gate behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (sets the paths the imports below need)

for _name in [n for n in os.environ if n.startswith("ANDREW_")]:
    del os.environ[_name]
sys.path.insert(0, run.SRC)

import scenarios  # noqa: E402

INPUTS = 60


def _flip_cell(surface, x: int = 0, y: int = 0) -> None:
    current = surface.char_at(x, y)
    surface.put(x, y, "#" if current != "#" else "%")


def _plant_surface(workload) -> None:
    _flip_cell(workload.live["im"].window.surface, 5, 3)


def _plant_replica(workload) -> None:
    _flip_cell(workload.renderer.surface, 7, 2)


def _plant_value(workload) -> None:
    table = workload.live["table"].data
    table._values[(3, 1)] = table.value_at(3, 1) + 1.0


def _plant_resync(workload) -> None:
    workload.renderer.resyncs += 1


def _plant_fleet_surfaces(workload) -> None:
    for editor in workload.editors:
        _flip_cell(editor["im"].window.surface, 1, 1)


def _plant_fleet_event(workload) -> None:
    workload.accepted += 1


PLANTS = {
    "type-local": [("surface cell", _plant_surface)],
    "browse-remote": [("replica cell", _plant_replica),
                      ("sender surface cell", _plant_surface),
                      ("recalculated value", _plant_value),
                      ("renderer resync", _plant_resync)],
    "fleet-typists": [("session surface cell", _plant_fleet_surfaces),
                      ("lost event", _plant_fleet_event)],
}


def fresh(name: str):
    workload = scenarios.WORKLOADS[name](seed=7, seconds=5)
    workload.setup()
    for item in workload.inputs[:INPUTS]:
        workload.apply(item)
    return workload


def main() -> int:
    ok = True
    for name, plants in PLANTS.items():
        clean = fresh(name).gate()
        status = "ok" if not clean else "FAIL"
        ok &= not clean
        print(f"{name}: clean gate {status} {clean[:1]}")
        for label, plant in plants:
            workload = fresh(name)
            plant(workload)
            found = workload.gate()
            status = "ok" if found else "FAIL (not detected)"
            ok &= bool(found)
            print(f"{name}: planted {label}: {status} {found[:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
