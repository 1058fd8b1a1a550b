"""The shared boolean env parser behind every ``ANDREW_*`` on/off switch.

One rule for all of them: empty or unset gives the switch's default,
``1/true/yes/on`` gives true, ``0/false/no/off`` gives false, and any
other value gives the default.
"""

import pytest

from repro import obs
from repro.config import env_flag
from repro.core import compositor, faults, scrollblit
from repro.remote import RemoteWindowSystem
from repro.remote.backend import REMOTE_DELTA_ENV
from repro.remote.reconnect import RECONNECT_ENV, reconnect_from_env
from repro.server.supervisor import SUPERVISE_ENV, supervise_from_env

#: (variable, default, the reader that consumes it at run time or None
#: when the module reads it once at import into a module attribute).
FLAGS = [
    (obs.METRICS_ENV, False, None),
    (obs.TRACE_ENV, False, None),
    (compositor.COMPOSITOR_ENV, False, None),
    (scrollblit.SCROLLBLIT_ENV, True, None),
    (faults.QUARANTINE_ENV, True, None),
    (RECONNECT_ENV, False, reconnect_from_env),
    (SUPERVISE_ENV, False, supervise_from_env),
    (REMOTE_DELTA_ENV, True, lambda: RemoteWindowSystem.from_env().delta),
]

SPELLINGS = [
    ("1", True), ("true", True), (" ON ", True), ("Yes", True),
    ("0", False), ("FALSE", False), ("off", False), ("no", False),
]


@pytest.mark.parametrize("name, default, reader", FLAGS,
                         ids=[name for name, _, _ in FLAGS])
def test_env_flag(name, default, reader, monkeypatch):
    monkeypatch.delenv("ANDREW_REMOTE_ADDR", raising=False)
    read = reader or (lambda: env_flag(name, default))
    monkeypatch.delenv(name, raising=False)
    assert read() is default
    for raw, want in SPELLINGS + [("", default), ("  ", default),
                                  ("junk", default), ("2", default)]:
        monkeypatch.setenv(name, raw)
        assert read() is want, (name, raw)
