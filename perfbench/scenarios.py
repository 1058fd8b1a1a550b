"""The three closed-loop workloads.

``type-local``
    One user types into the middle of the E7 2,000-paragraph document
    in the three-pane workspace on ``AsciiWindowSystem``.  The keys are
    the seeded ``generate_session`` edit stream lowered by
    ``actions_to_keys``.  The text *write* path: IM dispatch, relayout,
    per-glyph drawing and ascii device ops; no encoder, server or
    recalc.
``browse-remote``
    The same workspace on ``RemoteWindowSystem("ascii", delta=True)``
    feeding an in-process ``RemoteRenderer``; an input settles when the
    renderer has applied its frame.  Small scrolls of the text pane,
    cell edits in a chained-formula sheet and drawing shape moves; no
    typing.  Encoding, the wire, renderer apply, scroll blit, recalc
    and drawing, with the text layer read-only.
``fleet-typists``
    1,000 80x24 editor sessions on one ``ServerLoop``.  Each round a
    seeded skewed draw picks a few sessions to type one key each, then
    one ``run_cycle`` runs; a key's latency ends with that cycle.
    Scheduling over a mostly idle fleet, per-session memory and the
    per-session repaint.
"""

from __future__ import annotations

import random
import time
from typing import List

from repro.graphics import batch
from repro.remote import RemoteRenderer, RemoteWindowSystem
from repro.server import ServerLoop
from repro.wm import AsciiWindowSystem
from repro.workloads.sessions import actions_to_keys, generate_session

import workspace as ws

_KEY_KINDS = {"Left": "arrow", "Right": "arrow", "Up": "arrow",
              "Down": "arrow", "Backspace": "backspace", "Return": "return"}

_MOVES = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0),
          (1, 1))

_GOLDEN = (5 ** 0.5 - 1) / 2

_ENCODER = ("encoder.encode_ms", "encoder.bytes_per_frame",
            "encoder.frames_per_input", "encoder.keyframes",
            "transport.send_ms", "wire_bytes_per_input",
            "renderer.apply_ms", "renderer.resyncs")
_SERVER = ("server.cycle_overhead_ms", "server.pump_ms",
           "server.refused_frac")
_TABLE = ("table.recalc_ms", "table.cone_cells")
_BATCH = ("batch.recorded_ops", "batch.replayed_ops", "batch.flush_ms")


def key_stream(seed: int, count: int) -> List[str]:
    """The first ``count`` keys of the seeded E3 edit stream."""
    actions = count // 3 + 16
    keys = actions_to_keys(generate_session(actions, seed))
    while len(keys) < count:
        actions *= 2
        keys = actions_to_keys(generate_session(actions, seed))
    return keys[:count]


def key_kind(key: str) -> str:
    return _KEY_KINDS.get(key, "type")


def _deck(rng: random.Random, items):
    """Yield ``items`` endlessly, each round in a new shuffled order."""
    cards = list(items)
    while True:
        rng.shuffle(cards)
        yield from cards


def _no_lap() -> None:
    pass


def read_all(streams: List[str], lap) -> list:
    """Read each document from its datastream, lapping after each."""
    docs = []
    for source in streams:
        docs.append(ws.read(source))
        lap()
    return docs


def local_idle(*groups) -> tuple:
    """Layers that must read zero; batching only while its gate is off."""
    idle = sum(groups, ())
    return idle if batch.enabled else idle + _BATCH


class _Workload:
    """Shared stream sizing; the protocol is described in ``harness``.

    The stream is ``warmup`` inputs followed by ``per_rep`` timed ones,
    and every repetition of a run replays all of it on a fresh build.
    ``rate`` is the nominal number of timed inputs per second, so that
    ``reps`` passes of ``per_rep`` inputs take about the run's seconds;
    the count depends only on the seconds, never on how fast the
    machine happens to be, so a seed always means the same work.
    """

    #: Nominal timed inputs per second, sizing the stream.
    rate = 400
    #: Fresh-build passes over the stream in one untraced run.
    reps = 8
    #: ``per_rep`` is rounded up to a multiple of this.
    block = 1

    def __init__(self, seed: int, seconds: float) -> None:
        per_rep = max(1, int(seconds * self.rate / self.reps))
        self.per_rep = -(-per_rep // self.block) * self.block
        self.count = self.warmup + self.per_rep
        self.inputs: List[tuple] = []

    def failures(self) -> int:
        return 0


class TypeLocal(_Workload):
    name = "type-local"
    warmup = 50

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.streams = [ws.to_stream(doc) for doc in
                        (ws.e7_text(), ws.chained_sheet(), ws.drawing())]
        self.inputs = [(key_kind(key), key)
                       for key in key_stream(seed, self.count)]
        self.live = None
        self.idle_layers = local_idle(_ENCODER, _SERVER, _TABLE)

    def setup(self, lap=_no_lap) -> None:
        docs = read_all(self.streams, lap)
        self.live = ws.build_workspace(AsciiWindowSystem(), *docs)
        lap()
        self.live["text"].set_dot(docs[0].length // 2)
        self.live["im"].process_events()

    def teardown(self) -> None:
        self.live = None

    def apply(self, item):
        im = self.live["im"]
        im.window.inject_key(item[1])
        im.process_events()

    def gate(self) -> List[str]:
        ref = ws.reference_workspace(self.live)
        return ws.diff_surfaces("type-local surface",
                                ws.surface_of(self.live["im"]),
                                ws.surface_of(ref["im"]))

    def parameters(self) -> dict:
        return {"paragraphs": ws.PARAGRAPHS, "size": [ws.WIDTH, ws.HEIGHT],
                "backend": "ascii"}


class BrowseRemote(_Workload):
    name = "browse-remote"
    warmup = 20
    rate = 60
    reps = 6
    #: Input mix per block of 20 inputs (each block shuffled), so every
    #: stretch of the stream holds the same shares.  Cell edits are by
    #: far the slowest kind: at 10 % the overall p95 sits mid-way into
    #: their mode, and p50 inside the overlapping scroll and shape modes.
    MIX = (("scroll", 15), ("cell", 2), ("shape", 3))
    block = sum(share for _kind, share in MIX)

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.streams = [ws.to_stream(doc) for doc in
                        (ws.e7_text(), ws.chained_sheet(), ws.drawing())]
        self.inputs = self._generate(random.Random(seed), self.count)
        self.live = None
        self.renderer = None
        self.idle_layers = _SERVER + ("text.layout_ms", "text.layout_calls")

    @classmethod
    def _generate(cls, rng: random.Random, count: int) -> List[tuple]:
        block = [kind for kind, share in cls.MIX for _ in range(share)]
        kinds = []
        while len(kinds) < count:
            rng.shuffle(block)
            kinds.extend(block)
        canvas = ws.drawing()
        shapes = [shape.bounds() for shape in canvas.shapes]
        pos = ws.PARAGRAPHS  # rows into the wrapped document
        # Cell rows follow a golden-ratio sequence from a seeded start,
        # so any stretch of edits covers the rows evenly and the cone
        # sizes, which set the cost of an edit, mix alike in every run.
        phase = rng.random()
        # Scroll distances and the shapes moved are dealt from shuffled
        # decks, so their shares, which set those inputs' costs, are the
        # same in every stretch of every run; the seed picks the order.
        steps = _deck(rng, (1, 2, 3))
        movers = _deck(rng, range(len(shapes)))
        out = []
        for kind in kinds[:count]:
            if kind == "scroll":
                step = next(steps) * rng.choice((-1, 1))
                pos = min(3 * ws.PARAGRAPHS // 2,
                          max(ws.PARAGRAPHS // 2, pos + step))
                out.append(("scroll", pos))
            elif kind == "cell":
                # Rows in the top half: cones of 241 to 481 cells.
                phase = (phase + _GOLDEN) % 1.0
                out.append(("cell", int(phase * (ws.SHEET_ROWS // 2)),
                            rng.randrange(1, 100)))
            else:
                # A one-cell step, bounced off the canvas edges; the
                # input names the target corner, so it applies to a
                # fresh drawing as well.
                index = next(movers)
                dx, dy = rng.choice(_MOVES)
                moved = shapes[index].offset(dx, dy)
                if moved.left < 0 or moved.right > canvas.canvas_width:
                    dx = -dx
                if moved.top < 0 or moved.bottom > canvas.canvas_height:
                    dy = -dy
                shapes[index] = shapes[index].offset(dx, dy)
                out.append(("shape", index, shapes[index].left,
                            shapes[index].top))
        return out

    def setup(self, lap=_no_lap) -> None:
        docs = read_all(self.streams, lap)
        self.renderer = RemoteRenderer()
        system = RemoteWindowSystem("ascii", delta=True,
                                    renderer=self.renderer)
        self.live = ws.build_workspace(system, *docs)
        lap()
        self.live["text"].set_scroll_pos(ws.PARAGRAPHS)
        self.live["im"].process_events()
        if self.renderer.frames_applied < 1:
            raise RuntimeError("renderer applied no frame at set-up")

    def teardown(self) -> None:
        self.live = self.renderer = None

    def apply(self, item):
        live = self.live
        kind = item[0]
        if kind == "scroll":
            live["text"].set_scroll_pos(item[1])
        elif kind == "cell":
            live["table"].data.set_cell(item[1], 0, item[2])
        else:
            draw = live["draw"].data
            shape = draw.shapes[item[1]]
            box = shape.bounds()
            draw.move_shape(shape, item[2] - box.left, item[3] - box.top)
        live["im"].process_events()

    def failures(self) -> int:
        return self.renderer.resyncs + self.renderer.frames_skipped

    def gate(self) -> List[str]:
        live = self.live
        window_surface = ws.surface_of(live["im"])
        out = ws.diff_surfaces("browse-remote replica",
                               self.renderer.surface, window_surface)
        if self.renderer.resyncs or self.renderer.frames_skipped:
            out.append(f"browse-remote renderer resyncs="
                       f"{self.renderer.resyncs} skipped="
                       f"{self.renderer.frames_skipped}")
        out += ws.check_table_values(live["table"].data)
        ref = ws.reference_workspace(live)
        out += ws.diff_surfaces("browse-remote surface", window_surface,
                                ws.surface_of(ref["im"]))
        return out

    def parameters(self) -> dict:
        return {"paragraphs": ws.PARAGRAPHS, "sheet_rows": ws.SHEET_ROWS,
                "size": [ws.WIDTH, ws.HEIGHT], "mix": dict(self.MIX),
                "backend": "remote ascii delta"}


class FleetTypists(_Workload):
    name = "fleet-typists"
    warmup = 20
    #: Rounds, each of PER_ROUND keys, per second.
    rate = 60
    reps = 3
    SESSIONS = 1000
    #: Sessions drawn per round (with replacement) and the Zipf exponent
    #: of the draw.
    PER_ROUND = 3
    SKEW = 1.0
    GATE_SAMPLE = 16

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.streams = [ws.to_stream(ws.small_note(index))
                        for index in range(self.SESSIONS)]
        rng = random.Random(seed)
        order = list(range(self.SESSIONS))
        rng.shuffle(order)  # which sessions are hot depends on the seed
        weights = [1.0 / (rank + 1) ** self.SKEW
                   for rank in range(self.SESSIONS)]
        keys = key_stream(seed, self.count * self.PER_ROUND)
        picks = rng.choices(order, weights, k=len(keys))
        self.inputs = [
            ("round",) + tuple(
                (picks[i], keys[i], key_kind(keys[i]))
                for i in range(start, start + self.PER_ROUND))
            for start in range(0, len(keys) - self.PER_ROUND + 1,
                               self.PER_ROUND)
        ]
        self._gate_rng = random.Random(seed + 1)
        self.loop = None
        self.editors: List[dict] = []
        self.accepted = self.refused = self.errors = 0
        self.touched = set()
        self.idle_layers = local_idle(_ENCODER, _TABLE,
                                      ("drawing.draw_ms",))

    def setup(self, lap=_no_lap) -> None:
        self.loop = ServerLoop(slice_events=8)
        system = AsciiWindowSystem()
        self.editors = []
        for source in self.streams:
            text = ws.read(source)
            editor = ws.build_editor(system, text, text.length // 2)
            editor["session"] = self.loop.add_session(im=editor["im"])
            self.editors.append(editor)
            lap()

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.close()
        self.loop = None
        self.editors = []
        self.accepted = self.refused = self.errors = 0
        self.touched = set()

    def apply(self, item):
        editors = self.editors
        marks = []
        sessions = []
        for index, key, kind in item[1:]:
            session = editors[index]["session"]
            started = time.perf_counter_ns()
            if session.submit_key(key):
                self.accepted += 1
            else:
                self.refused += 1
            marks.append((kind, started))
            sessions.append(session)
            self.touched.add(index)
        before = sum(session.stats.errors for session in sessions)
        self.loop.run_cycle()
        self.errors += sum(session.stats.errors
                           for session in sessions) - before
        return marks

    def failures(self) -> int:
        return self.refused + self.errors

    def gate(self) -> List[str]:
        out = []
        stats = self.loop.fleet_stats()
        if not (stats["events_in"] == stats["events_processed"]
                == self.accepted):
            out.append(f"fleet events_in={stats['events_in']} "
                       f"events_processed={stats['events_processed']} "
                       f"keys accepted={self.accepted}")
        if stats["errors"]:
            out.append(f"fleet errors={stats['errors']}")
        touched = sorted(self.touched)
        sample = self._gate_rng.sample(touched, min(len(touched),
                                                    self.GATE_SAMPLE // 2))
        sample += self._gate_rng.sample(range(self.SESSIONS),
                                        self.GATE_SAMPLE // 2)
        for index in sample:
            live = self.editors[index]
            ref = ws.reference_editor(live)
            out += ws.diff_surfaces(f"fleet session {index} surface",
                                    ws.surface_of(live["im"]),
                                    ws.surface_of(ref["im"]))
        return out

    def parameters(self) -> dict:
        return {"sessions": self.SESSIONS, "per_round": self.PER_ROUND,
                "skew": self.SKEW, "slice_events": 8,
                "size": [ws.WIDTH, ws.HEIGHT], "gate_sample": self.GATE_SAMPLE,
                "backend": "ascii"}


WORKLOADS = {cls.name: cls for cls in (TypeLocal, BrowseRemote, FleetTypists)}
