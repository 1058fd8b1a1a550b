"""E17 — multi-session server soak (the ``ServerLoop`` at fleet scale).

The §7 runapp argument scaled one machine to many applications; the
server loop scales one process to many *users*.  This soak builds a
§9-weighted fleet of simulated sessions (``sim.loadmodel.fleet_profile``
draws each user an application, window geometry and session length),
lowers each user's deterministic edit stream
(``workloads.sessions.generate_session``) to keystrokes, and feeds the
whole fleet through one asyncio ``ServerLoop`` with bounded per-session
queues — producers retry on backpressure, the scheduler slices fairly.

Reported from the obs registry and per-session stats: p95 frame (slice)
latency across the fleet, the fairness spread (worst session p95 over
the fleet median), throughput, and backpressure totals.  The soak runs
``SOAKS`` times on a fresh fleet: the two tail figures, the worst
session's p95 and the fairness spread, swing 2x from one soak to the
next, so they report the median over the soaks; the rest come from
the first soak.  Alongside, the median cost of an *idle* cycle over 1k
and 10k bare sessions (``idle_cycle_1k_ns`` / ``idle_cycle_10k_ns``):
the ready queue makes a cycle cost its ready sessions, so both sit far
under the 50 µs budget ``check_regression.py`` enforces, and a scan of
the fleet creeping back in blows it at 10k.  And the footprint of one
idle session (``editor_session_bytes``): tracemalloc bytes per 80x24
fleet editor, the ``fleet-typists`` session of ``perfbench``, over 200
editors built after one warm-up.  Outputs ``BENCH_sessions.json``; CI
uploads it and gates ``*_ns`` fields against the committed baseline,
and fails on growth of ``editor_session_bytes`` (a ``_bytes`` field).

``ANDREW_SOAK_SESSIONS`` sets the fleet size (default 1000; the
acceptance range is 1k–10k).
"""

import asyncio
import json
import os
import statistics
import time
import tracemalloc

from conftest import report
from repro import obs
from repro.components.text.textdata import TextData
from repro.components.text.textview import TextView
from repro.core import InteractionManager, datastream
from repro.server import ServerLoop
from repro.sim.loadmodel import compare, fleet_profile
from repro.wm import AsciiWindowSystem
from repro.workloads.sessions import actions_to_keys, generate_session

SESSIONS = int(os.environ.get("ANDREW_SOAK_SESSIONS", "1000"))
FLEET_SEED = 2026
QUEUE_LIMIT = 64
SLICE_EVENTS = 8
IDLE_CYCLES = 250
SOAKS = 3
FOOTPRINT_EDITORS = 200


def build_fleet(loop, count):
    """One session per fleet-profile entry, each a focused editor."""
    ws = AsciiWindowSystem()
    fleet = []
    for profile in fleet_profile(count, seed=FLEET_SEED):
        session = loop.add_session(
            window_system=ws,
            width=profile["width"], height=profile["height"],
            queue_limit=QUEUE_LIMIT,
        )
        view = TextView(TextData(f"[{profile['app']}]\n"))
        session.im.set_child(view)
        session.im.process_events()
        keys = actions_to_keys(
            generate_session(profile["actions"], profile["session_seed"])
        )
        fleet.append((session, view, profile, keys))
    return fleet


def idle_cycle_ns(count):
    """Median wall time of one cycle over ``count`` idle sessions.

    Small (20x6) sessions with no view tree: nothing is ever ready, so
    the figure is the scheduler's own per-cycle cost at that fleet size.
    """
    loop = ServerLoop(slice_events=SLICE_EVENTS)
    ws = AsciiWindowSystem()
    for _ in range(count):
        loop.add_session(window_system=ws, width=20, height=6)
    samples = []
    for _ in range(IDLE_CYCLES):
        start = time.perf_counter_ns()
        handled = loop.run_cycle()
        samples.append(time.perf_counter_ns() - start)
        assert handled == 0
    loop.close()
    samples.sort()
    return samples[len(samples) // 2]


def editor_session_bytes(count=FOOTPRINT_EDITORS):
    """Traced bytes per idle 80x24 fleet editor, over ``count`` editors.

    Each is a ``fleet-typists`` session: a 32-line note read from its
    datastream, a backing-stored text view with the caret mid-note, its
    first frame painted, one ``ServerLoop`` session.  One warm-up editor
    is built before tracing starts, so the figure leaves out the
    toolkit's shared memos and counts only what a session holds.
    Telemetry is off, as in a fleet that is not being traced.
    """
    sources = [datastream.write_document(TextData("\n".join(
        f"note {index:04d} line {line:02d}: the toolkit provides a framework"
        for line in range(32)))) for index in range(count + 1)]
    loop = ServerLoop(slice_events=SLICE_EVENTS)
    ws = AsciiWindowSystem()

    def build(source):
        text = datastream.read_document(source)
        im = InteractionManager(ws, width=80, height=24)
        view = TextView(text)
        view.set_backing_store(True)
        im.set_child(view)
        im.set_focus(view)
        view.set_dot(text.length // 2)
        im.process_events()
        return loop.add_session(im=im)

    was_on = obs.metrics_enabled()
    obs.configure(metrics=False)
    sessions = [build(sources[0])]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sessions += [build(source) for source in sources[1:]]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        obs.configure(metrics=was_on)
        loop.close()
    assert len(sessions) == count + 1
    return round(grown / count)


async def soak(loop, fleet):
    """Feed every session its keystream from its own asyncio task."""

    async def feed(session, keys):
        for key in keys:
            while not session.submit_key(key):
                await asyncio.sleep(0)  # backpressure: retry next cycle

    feeders = [asyncio.ensure_future(feed(session, keys))
               for session, _view, _profile, keys in fleet]
    handled = await loop.run(idle_cycles=4)
    await asyncio.gather(*feeders)
    handled += loop.run_until_idle()
    return handled


def run_soak(metrics):
    """One soak of a fresh fleet: the fleet, its stats, and the registry."""
    metrics.reset()
    loop = ServerLoop(slice_events=SLICE_EVENTS)
    fleet = build_fleet(loop, SESSIONS)
    total_keys = sum(len(keys) for _s, _v, _p, keys in fleet)

    start = time.perf_counter_ns()
    handled = asyncio.run(soak(loop, fleet))
    elapsed_ns = time.perf_counter_ns() - start

    stats = loop.fleet_stats()
    loop.close()

    # Conservation: every keystroke of every stream landed exactly once
    # (refusals were retried, never lost) and nothing is still queued.
    assert handled == total_keys, (handled, total_keys)
    assert stats["events_in"] == stats["events_processed"] == total_keys
    assert stats["max_queue_depth"] == 0
    assert stats["errors"] == 0
    # Backpressure engaged somewhere in a fleet this size (streams are
    # longer than the queue bound), and every refusal was counted.
    assert stats["events_dropped"] > 0
    # Fairness: no session's p95 slice latency may run away from the
    # fleet median (loose bound — shared-runner clocks are noisy).
    assert 1.0 <= stats["frame_p95_spread"] < 20.0, stats
    return {"fleet": fleet, "stats": stats, "total_keys": total_keys,
            "elapsed_ns": elapsed_ns, "registry": metrics.snapshot()}


def test_bench_session_soak(metrics):
    # The tail figures hang on one session's p95, which swings 2x from
    # soak to soak; their median over SOAKS soaks is what gets compared.
    first = run_soak(metrics)
    tails = [first["stats"]]
    tails += [run_soak(metrics)["stats"] for _ in range(SOAKS - 1)]
    worst_p95_ns = statistics.median(st["frame_p95_ns_worst"] for st in tails)
    spread = statistics.median(st["frame_p95_spread"] for st in tails)
    fleet, stats = first["fleet"], first["stats"]
    total_keys, elapsed_ns = first["total_keys"], first["elapsed_ns"]

    per_session = [s.stats for s, _v, _p, _k in fleet]
    p95s = sorted(st.frame_ns.percentile(0.95) for st in per_session)
    app_mix = {}
    for _s, _v, profile, _k in fleet:
        app_mix[profile["app"]] = app_mix.get(profile["app"], 0) + 1

    # §7 context: the same population mix through the loadmodel worlds
    # (a small sample — the soak itself is the headline).
    sample = [p["app"] for _s, _v, p, _k in fleet[:24]]
    static_world, runapp_world = compare(sample, memory_kb=512, steps=200)

    summary = {
        "sessions": SESSIONS,
        "slice_events": SLICE_EVENTS,
        "queue_limit": QUEUE_LIMIT,
        "total_keys": total_keys,
        "cycles": stats["cycles"],
        "events_dropped_then_retried": stats["events_dropped"],
        "throughput_events_per_s": round(
            total_keys / (elapsed_ns / 1e9), 1
        ),
        "session_frame_p50_ns": p95s and sorted(
            st.frame_ns.percentile(0.50) for st in per_session
        )[len(per_session) // 2] or 0,
        "session_frame_p95_ns": stats["frame_p95_ns_median"],
        "session_frame_p95_worst_ns": worst_p95_ns,
        "fairness_spread": spread,
        "idle_cycle_1k_ns": idle_cycle_ns(1_000),
        "idle_cycle_10k_ns": idle_cycle_ns(10_000),
        "editor_session_bytes": editor_session_bytes(),
        "app_mix": app_mix,
        "runapp_context": {
            "sample_apps": len(sample),
            "static_fetch_kb": static_world["fetch_kb"],
            "runapp_fetch_kb": runapp_world["fetch_kb"],
            "static_faults": static_world["faults"],
            "runapp_faults": runapp_world["faults"],
        },
    }
    with open("BENCH_sessions.json", "w") as fh:
        json.dump({"summary": summary, "registry": first["registry"]},
                  fh, indent=2, default=str)
    report("E17 multi-session server soak", [
        f"{SESSIONS} sessions ({', '.join(f'{k}={v}' for k, v in sorted(app_mix.items()))})",
        f"{total_keys} keystrokes in {stats['cycles']} cycles "
        f"({summary['throughput_events_per_s']:.0f} ev/s)",
        f"frame p95: median={stats['frame_p95_ns_median']}ns; "
        f"median of {SOAKS} soaks: worst={worst_p95_ns}ns "
        f"spread={spread}x",
        f"backpressure refusals (retried): {stats['events_dropped']}",
        f"idle cycle median: {summary['idle_cycle_1k_ns']}ns at 1k "
        f"sessions, {summary['idle_cycle_10k_ns']}ns at 10k",
        f"idle 80x24 editor: {summary['editor_session_bytes']} traced "
        f"bytes per session ({FOOTPRINT_EDITORS} editors)",
        f"runapp context (n={len(sample)}): fetch "
        f"{static_world['fetch_kb']:.0f}kb static vs "
        f"{runapp_world['fetch_kb']:.0f}kb shared",
        "snapshot written to BENCH_sessions.json",
    ])


def test_bench_server_cycle(benchmark):
    """pytest-benchmark timing of one fair pass over a ready fleet."""
    loop = ServerLoop(slice_events=SLICE_EVENTS)
    fleet = build_fleet(loop, 64)

    def refill_and_cycle():
        for session, _v, _p, _k in fleet:
            session.submit_key("x")
        return loop.run_cycle()

    handled = benchmark(refill_and_cycle)
    assert handled == len(fleet)
    loop.close()
