"""Access to the maps, scenarios, and suites shipped inside the package."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled data file (e.g. 'corridor.map')."""
    return Path(str(resources.files("gridground").joinpath("data", name)))
