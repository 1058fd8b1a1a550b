"""The chaos matrix: injected faults are contained and accounted for.

The same seeded scenario the byte-identity matrix runs is replayed with
the fault injector live (``ANDREW_FAULTS``-compatible seed:rate, default
``20260806:0.05``) and the quarantine gate on.  The promises under test,
straight from the robustness contract:

* no exception ever escapes ``process_events`` — faults surface as
  quarantine placeholders, not tracebacks;
* the window surface renders after every step (the fingerprint is
  taken, not compared — chaos runs legitimately diverge from clean
  runs once an op is interrupted);
* telemetry accounts for every injected fault: render-path faults as
  quarantine events, observer-path faults as ``notify.exceptions``,
  datastream faults as salvaged objects;
* with injection switched off again, every quarantined view recovers
  (``view.recovered`` balances ``view.quarantined``).

Direct data-object mutations made by the driver itself stand in for
*application* code, so a ``notify_observers`` re-raise there is caught
by the driver and tallied — the toolkit's containment boundary is the
event loop, not the mutator's call stack.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.core import faults, read_document, write_document
from repro.core.datastream import UnknownObject
from repro.testing import faultinject
from repro.testing.faultinject import InjectedFault, parse_spec
from repro.wm.ascii_ws import AsciiWindowSystem
from repro.wm.raster_ws import RasterWindowSystem
from tests.randutil import describe_seed, seeded_rng

from .driver import (
    build_app,
    fingerprint,
    gates,
    inject_op,
    recording_ws,
    scenario_ops,
)

#: backend -> (window system, width, height, steps, seed offset).
BACKENDS = {
    "ascii": (AsciiWindowSystem, 70, 20, 60, 0),
    "raster": (RasterWindowSystem, 100, 56, 40, 5000),
}

#: arm -> batch: chaos must hold on a local window and on a recording
#: window (see :func:`~tests.conformance.driver.recording_ws`).
ARMS = {"plain": False, "batch": True}

DEFAULT_SEED = 20260806
DEFAULT_RATE = 0.05


def _fault_spec():
    """Seed/rate from ``ANDREW_FAULTS`` when valid, else the defaults.

    Lets CI (and a developer replaying a CI failure) pin the exact
    schedule: ``ANDREW_FAULTS=20260806:0.05 pytest tests/conformance``.
    """
    parsed = parse_spec(os.environ.get(faultinject.FAULTS_ENV, ""))
    if parsed is not None:
        return parsed
    return DEFAULT_SEED, DEFAULT_RATE


def _all_views(root):
    out = []
    stack = [root]
    while stack:
        view = stack.pop()
        out.append(view)
        stack.extend(view.children)
    return out


def _quarantined_views(root):
    return [v for v in _all_views(root) if v.quarantined is not None]


@pytest.mark.parametrize("arm", sorted(ARMS), ids=str)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_chaos_faults_are_contained_and_accounted(backend, arm):
    make_ws, width, height, steps, offset = BACKENDS[backend]
    if ARMS[arm]:
        make_ws = recording_ws(backend)
    seed, rate = _fault_spec()
    ops = scenario_ops(seeded_rng(offset), steps, width, height)
    context = (
        f"backend={backend} arm={arm} faults={seed}:{rate} "
        f"{describe_seed(offset)}"
    )

    with gates(metrics_on=True, quarantine=True):
        # Build clean: the containment story starts from a healthy app.
        app = build_app(make_ws(), width, height)
        injector = faultinject.configure(seed, rate)
        driver_caught = {}
        try:
            for step, op in enumerate(ops):
                try:
                    # Direct mutator calls: app code's exception to keep.
                    inject_op(app, op)
                except InjectedFault as exc:
                    driver_caught[exc.seam] = driver_caught.get(exc.seam, 0) + 1
                # The containment boundary itself: never raises.
                app["im"].process_events()
                # The surface stays renderable after every step.
                fingerprint(app["window"])
                if step % 10 == 5:
                    # Exercise the datastream seam: a salvage round-trip
                    # of live document state under injection.
                    text = write_document(app["table_data"])
                    doc = read_document(text, salvage=True)
                    assert doc is not None
        finally:
            faultinject.configure(None)

        counters = obs.registry.snapshot()["counters"]

        def count(name):
            return counters.get(name, 0)

        injected = {
            seam: count(f"faults.injected.{seam}")
            for seam in faultinject.SEAMS
        }
        assert count("faults.injected") == sum(injected.values()), context
        assert count("faults.injected") > 0, (
            f"chaos run injected nothing — rate or seam wiring broken; "
            f"{context}"
        )

        # Render-path faults (draw + device) and handler-path faults all
        # land as quarantine events; the backstop counters stay silent.
        quarantine_events = count("view.quarantined") + count(
            "view.quarantine_hits"
        )
        assert quarantine_events == (
            injected["view.draw"] + injected["wm.device"]
            + count("im.handler_contained")
        ), f"unaccounted containment; counters={counters} {context}"
        assert count("im.flush_contained") == 0, context
        assert count("im.dispatch_contained") == 0, context

        # Observer-path faults each surface exactly once in telemetry,
        # whether the re-raise reached the driver or a handler guard.
        assert count("notify.exceptions") == injected["observer.notify"], (
            f"counters={counters} {context}"
        )
        assert set(driver_caught) <= {"observer.notify"}, (
            f"driver caught faults from unexpected seams: {driver_caught}; "
            f"{context}"
        )

        # Datastream faults each became one preserved placeholder.
        assert count("io.salvaged_objects") == injected["datastream.read"], (
            f"counters={counters} {context}"
        )

        # -- recovery: injection off, the tree heals ---------------------
        root = app["im"].child
        for view in _quarantined_views(root):
            if view.quarantined.sticky:
                view.reset_quarantine()
        for _ in range(COOLDOWN_PASSES):
            if not _quarantined_views(root):
                break
            app["window"].inject_expose()
            app["im"].process_events()
        assert not _quarantined_views(root), (
            f"views never recovered: {_quarantined_views(root)}; {context}"
        )
        recovered = obs.registry.snapshot()["counters"]
        assert recovered.get("view.recovered", 0) == recovered.get(
            "view.quarantined", 0
        ), f"recovery counters unbalanced; counters={recovered} {context}"
        fingerprint(app["window"])


#: Max cooldown is 8 skipped passes; a few extra covers relayout churn.
COOLDOWN_PASSES = 12


def test_salvaged_objects_round_trip_under_injection():
    """A document salvaged under datastream faults writes back out with
    the unreadable object's bytes intact."""
    from repro.components.table.tabledata import TableData

    table = TableData(4, 2)
    table.set_cell(1, 1, 42)
    text = write_document(table)
    with gates(metrics_on=True, quarantine=True):
        # Rate 1.0: the very first object read fails, salvaging the lot.
        faultinject.configure(7, 1.0, seams=("datastream.read",))
        try:
            doc = read_document(text, salvage=True)
        finally:
            faultinject.configure(None)
        assert isinstance(doc, UnknownObject)
        assert write_document(doc) == text
        counters = obs.registry.snapshot()["counters"]
        assert counters.get("io.salvaged_objects") == 1
