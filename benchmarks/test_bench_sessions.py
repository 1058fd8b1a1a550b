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
the fleet median), throughput, and backpressure totals.  Alongside, the
median cost of an *idle* cycle over 1k and 10k bare sessions
(``idle_cycle_1k_ns`` / ``idle_cycle_10k_ns``): the ready queue makes a
cycle cost its ready sessions, so both sit far under the 50 µs budget
``check_regression.py`` enforces, and a scan of the fleet creeping back
in blows it at 10k.  Outputs ``BENCH_sessions.json``; CI uploads it and
gates ``*_ns`` fields against the committed baseline.

``ANDREW_SOAK_SESSIONS`` sets the fleet size (default 1000; the
acceptance range is 1k–10k).
"""

import asyncio
import json
import os
import time

from conftest import report
from repro.components.text.textdata import TextData
from repro.components.text.textview import TextView
from repro.server import ServerLoop
from repro.sim.loadmodel import compare, fleet_profile
from repro.wm import AsciiWindowSystem
from repro.workloads.sessions import actions_to_keys, generate_session

SESSIONS = int(os.environ.get("ANDREW_SOAK_SESSIONS", "1000"))
FLEET_SEED = 2026
QUEUE_LIMIT = 64
SLICE_EVENTS = 8
IDLE_CYCLES = 250


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


def test_bench_session_soak(metrics):
    loop = ServerLoop(slice_events=SLICE_EVENTS)
    fleet = build_fleet(loop, SESSIONS)
    total_keys = sum(len(keys) for _s, _v, _p, keys in fleet)

    start = time.perf_counter_ns()
    handled = asyncio.run(soak(loop, fleet))
    elapsed_ns = time.perf_counter_ns() - start

    stats = loop.fleet_stats()
    registry_snapshot = metrics.snapshot()

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
        "session_frame_p95_worst_ns": stats["frame_p95_ns_worst"],
        "fairness_spread": stats["frame_p95_spread"],
        "idle_cycle_1k_ns": idle_cycle_ns(1_000),
        "idle_cycle_10k_ns": idle_cycle_ns(10_000),
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
        json.dump({"summary": summary, "registry": registry_snapshot},
                  fh, indent=2, default=str)
    report("E17 multi-session server soak", [
        f"{SESSIONS} sessions ({', '.join(f'{k}={v}' for k, v in sorted(app_mix.items()))})",
        f"{total_keys} keystrokes in {stats['cycles']} cycles "
        f"({summary['throughput_events_per_s']:.0f} ev/s)",
        f"frame p95: median={stats['frame_p95_ns_median']}ns "
        f"worst={stats['frame_p95_ns_worst']}ns "
        f"spread={stats['frame_p95_spread']}x",
        f"backpressure refusals (retried): {stats['events_dropped']}",
        f"idle cycle median: {summary['idle_cycle_1k_ns']}ns at 1k "
        f"sessions, {summary['idle_cycle_10k_ns']}ns at 10k",
        f"runapp context (n={len(sample)}): fetch "
        f"{static_world['fetch_kb']:.0f}kb static vs "
        f"{runapp_world['fetch_kb']:.0f}kb shared",
        "snapshot written to BENCH_sessions.json",
    ])
    loop.close()


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
