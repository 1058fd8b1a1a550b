"""E21 — session supervision under a seeded kill-storm soak.

Two arms over one process, mirroring the conformance kill-storm
(``tests/conformance/test_killstorm.py``) at bench scale:

* **kill arm** — a supervised text-editing fleet with the
  ``server.pump`` fault seam firing at rate while every session keeps
  receiving keystrokes.  Every crash escalates (contain_strikes=0)
  into a checkpoint-restore restart riding the timer wheel.
* **drop arm** — a remote-viewer fleet whose renderers are yanked and
  rejoin mid-stream through the seq-resume handshake.

The headline numbers are **deterministic counters**, not clock
samples: crashes == escalations == restarts (conservation), zero
sessions dead, zero characters lost, resumes == rejoin handshakes ==
replays + keyframes, and the exact bytes of checkpoint state written.
Timing fields (`*_ns`) are advisory context for the regression gate.

Outputs ``BENCH_supervision.json``; CI uploads it and compares the
deterministic fields against ``benchmarks/baselines/``.
"""

import collections
import json
import statistics
import time

from conftest import report
from repro.components.text.textdata import TextData
from repro.components.text.textview import TextView
from repro.remote import RemoteRenderer, RendererSink
from repro.server import (
    DocumentBinding,
    ServerLoop,
    Session,
    Supervisor,
    SupervisorPolicy,
    add_remote_session,
    session_window,
)
from repro.testing import faultinject
from repro.wm import AsciiWindowSystem

FLEET = 8
KILL_CYCLES = 240
KILL_RATE = 0.05
KILL_SEED = 20260807
DROP_STEPS = 120
CHECKPOINT_ROUNDS = 9


def _counters(registry):
    return registry.snapshot()["counters"]


def _text_binding():
    return DocumentBinding(
        "doc",
        get=lambda s: s.im.child.data,
        install=lambda s, obj: s.im.set_child(TextView(obj)),
    )


def build_supervised_fleet(loop, sup):
    import random
    rng = random.Random(KILL_SEED)
    entries, typed = {}, collections.defaultdict(collections.Counter)
    for index in range(FLEET):
        sid = f"k{index}"
        ws = AsciiWindowSystem()
        session = loop.add_session(session_id=sid, window_system=ws,
                                   width=40, height=10)
        session.im.set_child(TextView(TextData("")))
        session.im.process_events()

        def build(sid=sid, ws=ws):
            fresh = Session(sid, window_system=ws, width=40, height=10)
            fresh.im.set_child(TextView(TextData("")))
            return fresh

        entries[sid] = sup.supervise(session, build=build,
                                     documents=[_text_binding()])
    return entries, typed, rng


def run_kill_arm(metrics, checkpoint_dir):
    loop = ServerLoop()
    sup = Supervisor(loop, checkpoint_dir=checkpoint_dir,
                     policy=SupervisorPolicy(
                         contain_strikes=0, max_strikes=10 ** 6,
                         backoff_base=1, backoff_cap=4, jitter_span=1,
                         checkpoint_interval=8))
    entries, typed, rng = build_supervised_fleet(loop, sup)
    start = time.perf_counter_ns()
    faultinject.configure(KILL_SEED, KILL_RATE, seams=("server.pump",))
    try:
        for _ in range(KILL_CYCLES):
            for sid in rng.sample(sorted(entries), 2):
                live = loop._sessions.get(sid)
                if live is not None and not live.closed:
                    char = chr(rng.randrange(ord("a"), ord("z") + 1))
                    if live.submit_key(char):
                        typed[sid][char] += 1
            loop.run_cycle()
    finally:
        faultinject.configure(None)
    loop.run_until_idle(max_cycles=5000)
    soak_ns = time.perf_counter_ns() - start

    counters = _counters(metrics)
    crashes = counters.get("server.crashes", 0)
    assert crashes > 0
    assert counters.get("server.crash_escalations", 0) == crashes
    assert counters.get("server.restarts", 0) == crashes
    assert counters.get("server.restart_errors", 0) == 0
    assert counters.get("server.sessions_dead", 0) == 0
    chars_lost = 0
    for sid, entry in entries.items():
        assert entry.state == "running"
        final = collections.Counter(entry.session.im.child.data.text())
        chars_lost += sum((typed[sid] - final).values())
    assert chars_lost == 0

    # Clean checkpoint rounds for the byte + latency figures: each
    # round is FLEET fsync'd writes, so one round is mostly disk noise;
    # the median per-session time over several rounds is comparable.
    round_ns = []
    for _ in range(CHECKPOINT_ROUNDS):
        checkpoint_start = time.perf_counter_ns()
        for sid in entries:
            sup.checkpoint(sid)
        round_ns.append((time.perf_counter_ns() - checkpoint_start) // FLEET)
    checkpoint_ns = statistics.median_low(round_ns)
    checkpoint_bytes = sum(
        (checkpoint_dir / f"{sid}.doc.ad").stat().st_size
        for sid in entries
    )
    summary = {
        "fleet": FLEET,
        "cycles": KILL_CYCLES,
        "kill_rate": KILL_RATE,
        "crashes": crashes,
        "escalations": counters.get("server.crash_escalations", 0),
        "restarts": counters.get("server.restarts", 0),
        "sessions_dead": 0,
        "chars_lost": chars_lost,
        "checkpoints": counters.get("server.checkpoints", 0),
        "checkpoint_state_bytes": checkpoint_bytes,
        "checkpoint_p50_ns": checkpoint_ns,
        "soak_ns": soak_ns,
    }
    loop.close()
    return summary


def run_drop_arm(metrics):
    import random
    rng = random.Random(KILL_SEED + 1)
    loop = ServerLoop()
    sessions, stayed, roaming, dropped = [], {}, {}, {}
    for index in range(FLEET):
        sid = f"d{index}"
        viewer = RemoteRenderer()
        session = add_remote_session(loop, session_id=sid,
                                     keyframe_interval=8, renderer=viewer,
                                     width=30, height=6)
        session.im.set_child(TextView(TextData("")))
        session.im.process_events()
        sessions.append(session)
        stayed[sid] = viewer
        roamer = RemoteRenderer()
        sink = RendererSink(roamer)
        session_window(session).attach_sink(sink)
        roaming[sid] = (roamer, sink)
    loop.run_until_idle()

    resumes = 0
    for step in range(DROP_STEPS):
        for session in rng.sample(sessions, 3):
            session.submit_key(chr(rng.randrange(ord("a"), ord("z") + 1)))
        if step % 9 == 4:
            sid = rng.choice([s.id for s in sessions if s.id not in dropped])
            roamer, sink = roaming[sid]
            session_window(loop.session(sid)).detach_sink(sink)
            dropped[sid] = roamer
        if step % 13 == 11 and dropped:
            sid = rng.choice(sorted(dropped))
            roamer = dropped.pop(sid)
            window = session_window(loop.session(sid))
            roaming[sid] = (roamer, window.resume_renderer(roamer))
            resumes += 1
        loop.run_cycle()
    for sid in sorted(dropped):
        roamer = dropped.pop(sid)
        window = session_window(loop.session(sid))
        roaming[sid] = (roamer, window.resume_renderer(roamer))
        resumes += 1
    loop.run_until_idle(max_cycles=2000)

    diverged = 0
    for session in sessions:
        roamer, _ = roaming[session.id]
        if roamer.surface.lines() != stayed[session.id].surface.lines():
            diverged += 1
    counters = _counters(metrics)
    assert diverged == 0
    assert counters.get("remote.resumes", 0) == resumes
    assert resumes == (counters.get("remote.resume_replays", 0)
                       + counters.get("remote.resume_keyframes", 0))
    summary = {
        "fleet": FLEET,
        "steps": DROP_STEPS,
        "resumes": resumes,
        "resume_replays": counters.get("remote.resume_replays", 0),
        "resume_keyframes": counters.get("remote.resume_keyframes", 0),
        "frames_replayed": counters.get("remote.resume_frames_replayed", 0),
        "viewers_diverged": diverged,
    }
    loop.close()
    return summary


def test_bench_supervision_soak(metrics, tmp_path):
    kill = run_kill_arm(metrics, tmp_path)
    metrics.reset()
    drop = run_drop_arm(metrics)
    registry_snapshot = metrics.snapshot()

    summary = {"kill": kill, "resume": drop}
    with open("BENCH_supervision.json", "w") as fh:
        json.dump({"summary": summary, "registry": registry_snapshot},
                  fh, indent=2, default=str)
    report("E21 supervision kill-storm soak", [
        f"kill arm: {kill['fleet']} sessions x {kill['cycles']} cycles "
        f"@ rate {kill['kill_rate']}",
        f"crashes={kill['crashes']} escalations={kill['escalations']} "
        f"restarts={kill['restarts']} dead={kill['sessions_dead']} "
        f"chars_lost={kill['chars_lost']}",
        f"checkpoints={kill['checkpoints']} "
        f"state={kill['checkpoint_state_bytes']}b "
        f"p50={kill['checkpoint_p50_ns']}ns",
        f"drop arm: resumes={drop['resumes']} "
        f"(replay={drop['resume_replays']} "
        f"keyframe={drop['resume_keyframes']}, "
        f"{drop['frames_replayed']} frames replayed) "
        f"diverged={drop['viewers_diverged']}",
        "snapshot written to BENCH_supervision.json",
    ])


def test_bench_checkpoint_cycle(benchmark, tmp_path):
    """pytest-benchmark timing of one full-fleet checkpoint round."""
    loop = ServerLoop()
    sup = Supervisor(loop, checkpoint_dir=tmp_path)
    entries, _typed, _rng = build_supervised_fleet(loop, sup)
    for session in list(loop.sessions):
        session.submit_text("the quick brown fox " * 10)
    loop.run_until_idle(max_cycles=2000)

    def checkpoint_fleet():
        total = 0
        for sid in entries:
            total += sup.checkpoint(sid)
        return total

    written = benchmark(checkpoint_fleet)
    assert written == FLEET
    loop.close()
