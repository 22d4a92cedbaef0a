"""Grid-world path planning with language-model action grounding.

The package couples classical planners (A*, RRT) with a step-wise planner
that asks a task scorer (mock, oracle, or a remote chat endpoint) to rate
candidate moves, then filters them through spatial affordances. A small
simulator executes plans on maps with dynamic obstacles, and a benchmark
harness compares planners on scenario suites.
"""

# names are imported from the submodules, e.g. ``from gridground.gridmap import load_map``
from . import bench, classical, errors, gridmap, grounded, scorers, simulator, translator

__version__ = "0.1.0"
