"""The readers for ``ANDREW_*`` environment variables.

Every variable reads through :func:`env_str` or :func:`env_flag`, so
they all share one rule: surrounding whitespace is ignored, and an
empty or unset value gives the variable's default.  On/off switches
read through :func:`env_flag`, which accepts the same spellings for
all of them: ``1/true/yes/on`` turns a switch on, ``0/false/no/off``
turns it off, and any other value gives the default.  Modules call it
once at import and keep the result in a module attribute, which stays
the hot-path read.
"""

from __future__ import annotations

import os

__all__ = ["env_flag", "env_str"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def env_str(name: str, default: str) -> str:
    """The stripped value of environment variable ``name``, or
    ``default`` when it is unset or blank."""
    return os.environ.get(name, "").strip() or default


def env_flag(name: str, default: bool) -> bool:
    """The boolean value of environment variable ``name``."""
    raw = env_str(name, "").lower()
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    return default
