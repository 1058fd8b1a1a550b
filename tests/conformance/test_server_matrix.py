"""The server matrix: a scheduled session renders the standalone bytes.

The multi-session server loop promises that hosting an interaction
manager behind a :class:`~repro.server.session.Session` changes *when*
work happens (bounded slices, a flush per slice) but never *what* gets
drawn.  This matrix replays the byte-identity scenario through
:func:`~tests.conformance.driver.run_scenario_server` with a one-event
slice budget — the most aggressive slicing the scheduler can do — and
compares every stepwise fingerprint against the standalone all-off
baseline, for every rendering-gate combination on both backends.
"""

from __future__ import annotations

import pytest

from tests.randutil import describe_seed, seeded_rng

from .driver import (
    build_app,
    fingerprint,
    inject_op,
    run_scenario_server,
    scenario_ops,
)
from .test_matrix import (
    ALL_OFF,
    BACKENDS,
    COMBOS,
    _baseline,
    _combo_id,
    arm,
)


@pytest.mark.parametrize("combo", [ALL_OFF] + COMBOS,
                         ids=lambda combo: _combo_id(combo) or "all-off")
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_served_session_matches_standalone(backend, combo):
    """ServerLoop-hosted rendering is byte-identical to the standalone
    ``process_events`` loop, at every step, under every gate combo."""
    _, width, height, _steps, offset = BACKENDS[backend]
    ops, expected = _baseline(backend)
    with arm(backend, combo) as make_ws:
        actual = run_scenario_server(make_ws, ops, width, height,
                                     slice_events=1)
    assert len(actual) == len(expected)
    for step, (got, want) in enumerate(zip(actual, expected)):
        op = ops[step - 1] if step else ("initial paint",)
        assert got == want, (
            f"{backend} served session diverged from standalone baseline "
            f"with gates {_combo_id(combo) or 'all-off'} at step {step} "
            f"({op!r}); {describe_seed(offset)}"
        )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_served_scenario_really_slices(backend):
    """Guard the guard: injected in chunks, the scenario builds a real
    multi-event backlog, and a one-event budget must drain it across
    many bounded slices — at most one event per slice — or the matrix
    above is comparing two effectively unsliced runs."""
    from repro.server import ServerLoop

    _, width, height, steps, offset = BACKENDS[backend]
    ops = scenario_ops(seeded_rng(offset), steps, width, height)
    chunk = 8
    with arm(backend, ALL_OFF) as make_ws:
        loop = ServerLoop(slice_events=1)
        app = build_app(make_ws(), width, height)
        session = loop.add_session(im=app["im"], session_id="conformance")
        for start in range(0, len(ops), chunk):
            for op in ops[start:start + chunk]:
                inject_op(app, op)
            loop.run_until_idle()
        fingerprint(app["window"])
    drains = -(-len(ops) // chunk)
    assert session.stats.events_processed > drains, (
        f"{backend}: only {session.stats.events_processed} events across "
        f"{drains} drains — no backlog built up ({describe_seed(offset)})"
    )
    assert session.stats.slices >= session.stats.events_processed, (
        f"{backend}: {session.stats.slices} slices handled "
        f"{session.stats.events_processed} events — the one-event budget "
        f"was not enforced ({describe_seed(offset)})"
    )
