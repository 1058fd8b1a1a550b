"""The ``ANDREW_*`` environment variables: the shared boolean parser
behind every on/off switch, and the README table that documents them.

One rule for all switches: empty or unset gives the switch's default,
``1/true/yes/on`` gives true, ``0/false/no/off`` gives false, and any
other value gives the default.
"""

import re
from pathlib import Path

import pytest

from repro import obs
from repro.config import env_flag
from repro.core import faults, scrollblit
from repro.remote import RemoteWindowSystem
from repro.remote.backend import REMOTE_DELTA_ENV
from repro.remote.reconnect import RECONNECT_ENV, reconnect_from_env
from repro.server.supervisor import SUPERVISE_ENV, supervise_from_env

#: (variable, default, the reader that consumes it at run time or None
#: when the module reads it once at import into a module attribute).
FLAGS = [
    (obs.METRICS_ENV, False, None),
    (obs.TRACE_ENV, False, None),
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


ROOT = Path(__file__).resolve().parent.parent


def test_readme_env_table_matches_src():
    """Every ``"ANDREW_..."`` literal under ``src/`` has a row in the
    README's environment table, and every row names one of them."""
    in_src = set()
    for path in (ROOT / "src").rglob("*.py"):
        in_src.update(re.findall(r"""["'](ANDREW_[A-Z0-9_]+)["']""",
                                 path.read_text()))
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Environment variables\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    in_table = set(re.findall(r"^\| `(ANDREW_[A-Z0-9_]+)` \|", section,
                              re.MULTILINE))
    assert in_src
    assert in_table == in_src, (
        f"undocumented: {sorted(in_src - in_table)}, "
        f"not read by src: {sorted(in_table - in_src)}")
