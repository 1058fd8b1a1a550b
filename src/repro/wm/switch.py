"""Run-time window system selection (paper section 8).

"The choice of window system to use is currently controlled by the
setting of an environment variable."  This module reproduces that
switch: :func:`get_window_system` reads ``ANDREW_WM`` (default
``ascii``), resolves the backend through a registry, and instantiates
it.  Unknown names fall through to the dynamic class loader, so a
*third* window system can be added as a plugin without touching this
package — the same extension story as every other toolkit component.

"Applications are normally configured for one system.  However, using
the dynamic loading facility, the modules for the other system can be
loaded at run time."
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..class_system.dynamic import default_loader
from ..class_system.errors import DynamicLoadError
from ..config import env_str
from .ascii_ws import AsciiWindowSystem
from .base import WindowSystem
from .raster_ws import RasterWindowSystem

__all__ = [
    "WM_ENV_VAR",
    "register_window_system",
    "available_window_systems",
    "get_window_system",
]

WM_ENV_VAR = "ANDREW_WM"

def _remote_from_env() -> WindowSystem:
    # Imported lazily: repro.remote imports the wm package back.
    from ..remote.backend import RemoteWindowSystem

    return RemoteWindowSystem.from_env()


_FACTORIES: Dict[str, Callable[[], WindowSystem]] = {
    "ascii": AsciiWindowSystem,
    "raster": RasterWindowSystem,
    "remote": _remote_from_env,
}


def register_window_system(name: str, factory: Callable[[], WindowSystem]) -> None:
    """Make ``factory`` selectable as ``ANDREW_WM=name``."""
    _FACTORIES[name] = factory


def available_window_systems() -> list:
    """Names of the registered backends, sorted."""
    return sorted(_FACTORIES)


def get_window_system(name: Optional[str] = None) -> WindowSystem:
    """Instantiate the selected window system.

    Resolution order: explicit ``name`` argument, then the ``ANDREW_WM``
    environment variable, then ``ascii``.  A name with no registered
    factory is tried as ``<name>ws`` through the dynamic class loader
    (plugins register a WindowSystem subclass under that name).
    """
    if name is None:
        name = env_str(WM_ENV_VAR, "ascii")
    factory = _FACTORIES.get(name)
    if factory is not None:
        return factory()
    try:
        cls = default_loader().load(f"{name}ws")
    except DynamicLoadError as exc:
        known = ", ".join(available_window_systems())
        raise DynamicLoadError(
            f"unknown window system {name!r} (registered: {known}) "
            f"and no loadable plugin: {exc}"
        ) from exc
    if not (isinstance(cls, type) and issubclass(cls, WindowSystem)):
        raise DynamicLoadError(
            f"plugin {name}ws resolved to {cls!r}, not a WindowSystem"
        )
    instance = cls()
    register_window_system(name, cls)
    return instance
