"""Access to the maps, scenarios, and suites shipped inside the package."""

from __future__ import annotations

from pathlib import Path


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled data file (e.g. 'corridor.map').

    The package is installed as files on disk, so this is the path that
    ``importlib.resources.files("gridground")`` gives, without importing it.
    """
    return Path(__file__).parent / "data" / name
