#!/usr/bin/env python3
"""Remote display demo: an editor in one terminal, its screen in another.

The remote port (paper §8's porting story taken to its logical end)
encodes every flushed frame into the versioned wire format and ships
it over a loopback socket to a dumb renderer that knows nothing about
views, documents or fonts — it just decodes ops into a surface.

Two-terminal mode::

    # terminal 1 — the renderer (the "display")
    PYTHONPATH=src python -m repro.remote.renderer --listen 7788

    # terminal 2 — the application (the "host")
    PYTHONPATH=src python examples/remote_demo.py --connect 7788

Single-terminal mode (no arguments) wires the application to an
in-process renderer instead, so the demo also works without a second
terminal: it prints the renderer's replica next to the application's
own surface and shows the delta-encoding statistics.
"""

import argparse
import sys

from repro import EZApp
from repro.remote import RemoteRenderer, RemoteWindowSystem, SocketSink

SCRIPT = [
    "February 11, 1988\n\nDear David,\n\n",
    "This window lives in another process.  Every frame you see\n",
    "was delta-encoded, shipped over a socket and decoded by a\n",
    "renderer that has never heard of a text view.\n",
]


def drive(ws):
    """Type the demo script through the real event path, flushing as
    a user-visible frame after each burst."""
    ez = EZApp(window_system=ws, width=64, height=16)
    for burst in SCRIPT:
        ez.type_text(burst)
        ez.process()
        ws.windows[0].flush()
    return ez, ws.windows[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", type=int, metavar="PORT",
                        help="ship frames to a renderer listening on "
                             "127.0.0.1:PORT (start one with "
                             "python -m repro.remote.renderer)")
    args = parser.parse_args(argv)

    if args.connect:
        try:
            sink = SocketSink("127.0.0.1", args.connect)
        except OSError as exc:
            print(f"could not connect to 127.0.0.1:{args.connect}: {exc}")
            print("start the renderer first:  "
                  "PYTHONPATH=src python -m repro.remote.renderer "
                  f"--listen {args.connect}")
            return 1
        ws = RemoteWindowSystem("ascii", sink=sink)
        drive(ws)
        stats = ws.stats()
        print(f"shipped {stats['frames_sent']} frames, "
              f"{stats['bytes_sent']} bytes — watch terminal 1")
        sink.close()
        return 0

    # Single-terminal fallback: the renderer runs in-process, fed the
    # exact same encoded bytes a socket would carry.
    renderer = RemoteRenderer()
    ws = RemoteWindowSystem("ascii", renderer=renderer)
    _, window = drive(ws)

    print("The renderer's replica (decoded from the wire):")
    for line in renderer.snapshot_lines():
        print(f"  |{line}|")
    match = renderer.surface.lines() == window.surface.lines()
    print(f"\nbyte-identical to the application's surface: {match}")
    stats = ws.stats()
    print(f"frames={stats['frames_sent']} "
          f"(keyframes={stats['keyframes_sent']}) "
          f"bytes={stats['bytes_sent']}")
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main())
