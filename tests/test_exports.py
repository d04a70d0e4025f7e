"""Every name a ``repro`` module exports in ``__all__`` exists.

A deleted function whose name stays in some ``__all__`` (or in a package's
re-export list) breaks ``from repro.x import *`` and misleads a reader;
this imports every module but ``repro.__main__`` and resolves each name.
"""

import importlib
import pkgutil

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name.rpartition(".")[2] != "__main__")


def test_every_exported_name_resolves():
    stale = []
    exported = 0
    for name in MODULES:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, export):
                stale.append(f"{name}.{export}")
    assert stale == []
    assert exported > 300  # the walk reached the whole package
