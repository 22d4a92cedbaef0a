"""Grid-world path planning with language-model action grounding.

The package couples classical planners (A*, RRT) with a step-wise planner
that asks a task scorer (mock, oracle, or a remote chat endpoint) to rate
candidate moves, then filters them through spatial affordances. A small
simulator executes plans on maps with dynamic obstacles, and a benchmark
harness compares planners on scenario suites.

``import gridground`` loads no submodule: each one named in ``_SUBMODULES`` loads
on first access, so a process compiles only the modules it runs.
"""

__version__ = "0.1.0"

_SUBMODULES = ("bench", "classical", "errors", "gridmap", "grounded", "scorers", "simulator", "translator")


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here too
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
