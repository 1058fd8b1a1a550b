"""The gate matrix: every rendering-gate combination is pixel-identical.

For each backend, one seeded scenario script (edits, scrolls, exposes,
divider moves, resizes) runs once with every gate off — the baseline —
and then once under every other combination of ``batch`` x
``ANDREW_METRICS``.  After every step the
window surface must be byte-identical to the baseline's; a divergence
names the step, the op and the seed so it replays with
``ANDREW_TEST_SEED``.

``batch`` is not a gate but a window-system arm: the session runs on
:func:`~tests.conformance.driver.recording_ws`, which records every
frame into a command buffer and replays it at flush, as the remote
backend does.
"""

from __future__ import annotations

import contextlib
import itertools

import pytest

from repro.wm.ascii_ws import AsciiWindowSystem
from repro.wm.raster_ws import RasterWindowSystem
from tests.randutil import describe_seed, seeded_rng

from .driver import gates, recording_ws, run_scenario, scenario_ops

#: backend -> (window system, width, height, steps, seed offset).
#: The raster arm is smaller — every step fingerprints the whole bit
#: plane — but the two arms together still cover > 200 scripted steps.
BACKENDS = {
    "ascii": (AsciiWindowSystem, 70, 20, 140, 0),
    "raster": (RasterWindowSystem, 100, 56, 80, 5000),
}

GATE_NAMES = ("batch", "metrics")
ALL_OFF = (False, False)
COMBOS = [combo for combo in itertools.product((False, True), repeat=2)
          if combo != ALL_OFF]


def _combo_id(combo):
    on = [name for name, flag in zip(GATE_NAMES, combo) if flag]
    return "+".join(on)


@contextlib.contextmanager
def arm(backend, combo):
    """Set ``combo``'s gates and yield its window-system factory."""
    batch_on, metrics_on = combo
    make_ws = recording_ws(backend) if batch_on else BACKENDS[backend][0]
    with gates(metrics_on):
        yield make_ws


#: Per-backend memo of (ops, stepwise baseline fingerprints): the
#: all-off arm renders once per backend, not once per combo.
_baselines = {}


def _baseline(backend):
    if backend not in _baselines:
        _, width, height, steps, offset = BACKENDS[backend]
        ops = scenario_ops(seeded_rng(offset), steps, width, height)
        with arm(backend, ALL_OFF) as make_ws:
            prints = run_scenario(make_ws, ops, width, height)
        _baselines[backend] = (ops, prints)
    return _baselines[backend]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_baseline_is_deterministic(backend):
    """Two all-off runs of the same script render identically — the
    floor under every other comparison in this matrix."""
    _, width, height, _steps, offset = BACKENDS[backend]
    ops, expected = _baseline(backend)
    with arm(backend, ALL_OFF) as make_ws:
        again = run_scenario(make_ws, ops, width, height)
    assert again == expected, (
        f"nondeterministic baseline on {backend} ({describe_seed(offset)})"
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_quarantine_off_matches_baseline(backend):
    """Fault containment is on by default, so every arm above already
    runs contained; this arm proves the *un*-contained path renders the
    same bytes — the containment layer is pure overhead-free plumbing
    until something actually raises."""
    make_ws, width, height, _steps, offset = BACKENDS[backend]
    ops, expected = _baseline(backend)
    with gates(False, quarantine=False):
        actual = run_scenario(make_ws, ops, width, height)
    assert len(actual) == len(expected)
    for step, (got, want) in enumerate(zip(actual, expected)):
        op = ops[step - 1] if step else ("initial paint",)
        assert got == want, (
            f"{backend} quarantine-off arm diverged at step {step} "
            f"({op!r}); {describe_seed(offset)}"
        )


@pytest.mark.parametrize("combo", COMBOS, ids=_combo_id)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_gate_combo_matches_baseline(backend, combo):
    _, width, height, _steps, offset = BACKENDS[backend]
    ops, expected = _baseline(backend)
    with arm(backend, combo) as make_ws:
        actual = run_scenario(make_ws, ops, width, height)
    assert len(actual) == len(expected)
    for step, (got, want) in enumerate(zip(actual, expected)):
        op = ops[step - 1] if step else ("initial paint",)
        assert got == want, (
            f"{backend} diverged from all-off baseline with gates "
            f"{_combo_id(combo)} at step {step} ({op!r}); "
            f"{describe_seed(offset)}"
        )
