"""Dynamic loading/linking of component code (paper sections 1, 6, 7).

The Andrew Class System could load object code for a never-linked
component into a running application: "If a member of the music
department creates a music component and embeds that component into a
text component ... the code for the music component will be dynamically
loaded into the application.  Except for a slight delay to load the
code, the user of the editor is unaware that the music component was not
statically loaded."

This module reproduces that code path for Python.  A :class:`ClassLoader`
resolves a component name in three steps:

1. the in-process class registry (the "statically linked" case);
2. a cache of already-loaded plugins (the "warm" case);
3. a search along the *class path* — an ordered list of plugin
   directories — for ``<name>.py``, which is compiled and executed in a
   fresh module namespace (the "cold load", the paper's "slight delay").

Plugins register their classes simply by defining ``ATKObject``
subclasses; the metaclass registers them by name as a side effect of
execution, exactly as loading a ``.do`` file registered classes with the
original runtime.

The class path is seeded from the ``ANDREW_CLASS_PATH`` environment
variable (``os.pathsep``-separated), mirroring how the original system
found dynamically loadable objects via a search path.
"""

from __future__ import annotations

import os
import sys
import time
import threading
import types
from pathlib import Path
from typing import Dict, List, Optional, Type

from .. import obs
from ..config import env_str
from .errors import DynamicLoadError, PluginNotFoundError, PluginSyntaxError
from .registry import ATKObject, is_registered, lookup

__all__ = ["LoadRecord", "ClassLoader", "default_loader", "load_class"]

CLASS_PATH_ENV = "ANDREW_CLASS_PATH"


class LoadRecord:
    """Statistics for one resolution through the loader.

    ``kind`` is one of ``"static"`` (already in the registry),
    ``"warm"`` (plugin previously loaded) or ``"cold"`` (plugin read,
    compiled and executed on this call).  ``duration`` is wall-clock
    seconds spent inside the loader — the measurable version of the
    paper's "slight delay to load the code".
    """

    __slots__ = ("name", "kind", "path", "duration", "timestamp")

    def __init__(
        self, name: str, kind: str, path: Optional[Path], duration: float
    ) -> None:
        self.name = name
        self.kind = kind
        self.path = path
        self.duration = duration
        self.timestamp = time.time()

    def __repr__(self) -> str:
        return (
            f"LoadRecord(name={self.name!r}, kind={self.kind!r}, "
            f"duration={self.duration * 1e6:.1f}us)"
        )


class ClassLoader:
    """Resolve toolkit classes by name, loading plugin code on demand."""

    def __init__(self, path: Optional[List[os.PathLike]] = None) -> None:
        self._lock = threading.RLock()
        self._path: List[Path] = []
        self._loaded_modules: Dict[str, types.ModuleType] = {}
        self._history: List[LoadRecord] = []
        if path is None:
            path = self._path_from_environment()
        for entry in path:
            self.append_path(entry)

    @staticmethod
    def _path_from_environment() -> List[Path]:
        raw = env_str(CLASS_PATH_ENV, "")
        return [Path(p) for p in raw.split(os.pathsep) if p]

    # -- path management -------------------------------------------------

    @property
    def path(self) -> List[Path]:
        """The current plugin search path (a copy)."""
        with self._lock:
            return list(self._path)

    def append_path(self, directory: os.PathLike) -> None:
        """Add ``directory`` to the end of the search path."""
        directory = Path(directory)
        with self._lock:
            if directory not in self._path:
                self._path.append(directory)

    def prepend_path(self, directory: os.PathLike) -> None:
        """Add ``directory`` to the front of the search path."""
        directory = Path(directory)
        with self._lock:
            if directory in self._path:
                self._path.remove(directory)
            self._path.insert(0, directory)

    def remove_path(self, directory: os.PathLike) -> None:
        directory = Path(directory)
        with self._lock:
            if directory in self._path:
                self._path.remove(directory)

    # -- loading ----------------------------------------------------------

    def load(self, name: str) -> Type[ATKObject]:
        """Resolve ``name`` to a toolkit class, loading code if needed.

        Raises :class:`PluginNotFoundError` if the name is neither
        registered nor resolvable on the class path, and
        :class:`PluginSyntaxError` if a plugin file exists but fails to
        compile/execute or fails to register the requested name.
        """
        start = time.perf_counter()
        if is_registered(name):
            cls = lookup(name)
            self._record(name, "static", None, start)
            return cls

        with self._lock:
            if name in self._loaded_modules:
                # Module ran before but the class got unregistered (test
                # isolation); re-run the search so behaviour is consistent.
                if is_registered(name):
                    cls = lookup(name)
                    self._record(name, "warm", None, start)
                    return cls
                del self._loaded_modules[name]

            plugin = self._find_plugin(name)
            if plugin is None:
                raise PluginNotFoundError(name, self._path)
            with obs.span("loader.cold_load", plugin=name):
                module = self._execute_plugin(name, plugin)
            self._loaded_modules[name] = module

        if not is_registered(name):
            raise PluginSyntaxError(
                f"plugin {plugin} executed but did not register a class "
                f"named {name!r}"
            )
        cls = lookup(name)
        self._record(name, "cold", plugin, start)
        return cls

    def _find_plugin(self, name: str) -> Optional[Path]:
        for directory in self._path:
            candidate = directory / f"{name}.py"
            if candidate.is_file():
                return candidate
        return None

    def _execute_plugin(self, name: str, plugin: Path) -> types.ModuleType:
        try:
            source = plugin.read_text(encoding="utf-8")
        except OSError as exc:
            raise DynamicLoadError(f"cannot read plugin {plugin}: {exc}") from exc
        module_name = f"repro._dynamic.{name}"
        module = types.ModuleType(module_name)
        module.__file__ = str(plugin)
        try:
            code = compile(source, str(plugin), "exec")
            # Visible in sys.modules while executing so plugin-internal
            # imports of the module work, then kept for debuggability.
            sys.modules[module_name] = module
            exec(code, module.__dict__)
        except Exception as exc:
            sys.modules.pop(module_name, None)
            raise PluginSyntaxError(
                f"plugin {plugin} failed to load: {exc!r}"
            ) from exc
        return module

    def _record(self, name: str, kind: str, path: Optional[Path], start: float) -> None:
        record = LoadRecord(name, kind, path, time.perf_counter() - start)
        with self._lock:
            self._history.append(record)
        if obs.metrics_on:
            # LoadRecord absorbed into the registry: one counter per
            # resolution kind plus a shared latency histogram.
            obs.registry.inc("loader.loads")
            obs.registry.inc(f"loader.{kind}")
            obs.registry.observe_ns(
                "loader.load_ns", int(record.duration * 1e9)
            )

    # -- introspection ------------------------------------------------------

    @property
    def history(self) -> List[LoadRecord]:
        """All load records, oldest first (a copy)."""
        with self._lock:
            return list(self._history)

    def cold_loads(self) -> List[LoadRecord]:
        """Records for plugins actually read from disk."""
        return [r for r in self.history if r.kind == "cold"]

    def loaded_plugin_names(self) -> List[str]:
        with self._lock:
            return sorted(self._loaded_modules)

    def forget(self, name: str) -> None:
        """Drop the warm-cache entry for ``name`` (test isolation)."""
        with self._lock:
            self._loaded_modules.pop(name, None)


_default_loader: Optional[ClassLoader] = None
_default_lock = threading.Lock()


def default_loader() -> ClassLoader:
    """Return the process-wide loader, creating it on first use."""
    global _default_loader
    with _default_lock:
        if _default_loader is None:
            _default_loader = ClassLoader()
        return _default_loader


def load_class(name: str) -> Type[ATKObject]:
    """Resolve ``name`` through the process-wide loader."""
    return default_loader().load(name)
