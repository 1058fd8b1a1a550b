"""The one parser for boolean ``ANDREW_*`` switches.

Every on/off environment switch in the toolkit reads through
:func:`env_flag`, so they all accept the same spellings: empty or
unset gives the switch's default, ``1/true/yes/on`` turns it on,
``0/false/no/off`` turns it off, and any other value gives the
default.  Modules call it once at import and keep the result in a
module attribute, which stays the hot-path read.
"""

from __future__ import annotations

import os

__all__ = ["env_flag"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def env_flag(name: str, default: bool) -> bool:
    """The boolean value of environment variable ``name``."""
    raw = os.environ.get(name, "").strip().lower()
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    return default
