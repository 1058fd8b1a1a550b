"""The ``ANDREW_*`` environment variables: the shared readers behind
every variable, and the README table that documents them.

One rule for every variable: surrounding whitespace is ignored and an
empty or unset value gives the default.  For on/off switches,
``1/true/yes/on`` gives true, ``0/false/no/off`` gives false, and any
other value gives the default.
"""

import re
from pathlib import Path

import pytest

from repro import obs
from repro.config import env_flag, env_str
from repro.core import faults
from repro.remote import RemoteWindowSystem
from repro.remote.backend import REMOTE_ADDR_ENV, REMOTE_TARGET_ENV
from repro.remote.reconnect import RECONNECT_ENV, reconnect_from_env
from repro.server.supervisor import (
    CHECKPOINT_INTERVAL_ENV,
    SUPERVISE_ENV,
    checkpoint_interval_from_env,
    supervise_from_env,
)
from repro.testing import faultinject
from repro.wm import AsciiWindowSystem
from repro.wm.switch import WM_ENV_VAR, get_window_system

#: (variable, default, the reader that consumes it at run time or None
#: when the module reads it once at import into a module attribute).
FLAGS = [
    (obs.METRICS_ENV, False, None),
    (obs.TRACE_ENV, False, None),
    (faults.QUARANTINE_ENV, True, None),
    (RECONNECT_ENV, False, reconnect_from_env),
    (SUPERVISE_ENV, False, supervise_from_env),
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


@pytest.mark.parametrize("raw, want", [
    (None, "dflt"), ("", "dflt"), ("   ", "dflt"), ("\t\n", "dflt"),
    ("x", "x"), ("  x y  ", "x y"),
])
def test_env_str(raw, want, monkeypatch):
    if raw is None:
        monkeypatch.delenv("ANDREW_TEST_STR", raising=False)
    else:
        monkeypatch.setenv("ANDREW_TEST_STR", raw)
    assert env_str("ANDREW_TEST_STR", "dflt") == want


@pytest.mark.parametrize("raw", ["", "  ", " ascii", "ascii\n"])
def test_window_system_name_is_stripped(raw, monkeypatch):
    monkeypatch.setenv(WM_ENV_VAR, raw)
    assert isinstance(get_window_system(), AsciiWindowSystem)


@pytest.mark.parametrize("raw, want", [("", "ascii"), (" ", "ascii"),
                                       (" raster ", "raster")])
def test_remote_target_is_stripped(raw, want, monkeypatch):
    monkeypatch.delenv(REMOTE_ADDR_ENV, raising=False)
    monkeypatch.setenv(REMOTE_TARGET_ENV, raw)
    assert RemoteWindowSystem.from_env().target == want


def test_unknown_remote_target_names_the_variable(monkeypatch):
    monkeypatch.delenv(REMOTE_ADDR_ENV, raising=False)
    monkeypatch.setenv(REMOTE_TARGET_ENV, "vt100")
    with pytest.raises(ValueError) as info:
        RemoteWindowSystem.from_env()
    assert REMOTE_TARGET_ENV in str(info.value)
    assert "'vt100'" in str(info.value)


def test_blank_remote_addr_means_no_socket(monkeypatch):
    monkeypatch.delenv(REMOTE_TARGET_ENV, raising=False)
    monkeypatch.setenv(REMOTE_ADDR_ENV, "   ")
    assert RemoteWindowSystem.from_env()._seed_sinks == []


@pytest.mark.parametrize("raw, want", [
    (None, 32), ("", 32), ("  ", 32), (" 8 ", 8), ("0", 32), ("x", 32),
])
def test_checkpoint_interval(raw, want, monkeypatch):
    if raw is None:
        monkeypatch.delenv(CHECKPOINT_INTERVAL_ENV, raising=False)
    else:
        monkeypatch.setenv(CHECKPOINT_INTERVAL_ENV, raw)
    assert checkpoint_interval_from_env(32) == want


@pytest.mark.parametrize("raw, on", [("", False), ("  ", False),
                                     (" 7:0.5 ", True)])
def test_fault_spec_is_stripped(raw, on, monkeypatch):
    monkeypatch.setenv(faultinject.FAULTS_ENV, raw)
    assert (faultinject._from_env() is not None) is on


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
