"""Shared helpers for the test suite."""

import pytest

from gridground import gridmap
from gridground.gridmap import OccupancyGrid, load_map

# Populated by the acceptance tests; echoed after the run so the per-criterion
# PASS/FAIL lines survive output capture.
acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def empty_field_memo(monkeypatch):
    """Give distances_to an empty memo of its default budget; return it."""
    memo = gridmap._FieldMemo(gridmap._field_memo.budget)
    monkeypatch.setattr(gridmap, "_field_memo", memo)
    return memo


@pytest.fixture(autouse=True)
def fresh_field_memo(monkeypatch):
    # distances_to shares fields between grids of equal content through a
    # module-level memo; start each test with an empty one, so no test's BFS
    # count depends on test order
    empty_field_memo(monkeypatch)


def count_bfs_runs(monkeypatch) -> list:
    """Record the grid of every distances_to call that ran its BFS, not a kept or shared field."""
    runs = []
    real = gridmap._cost_field

    def counting(grid, goal):
        runs.append(grid)
        return real(grid, goal)

    monkeypatch.setattr(gridmap, "_cost_field", counting)
    return runs


def grid_from_rows(rows, resolution=1.0):
    """Build a grid from ASCII rows, deriving the header from their shape."""
    header = f"{len(rows[0])} {len(rows)} {resolution}"
    return load_map(header + "\n" + "\n".join(rows) + "\n")


def open_grid(width, height, resolution=1.0):
    return grid_from_rows(["." * width] * height, resolution)


@pytest.fixture
def corridor5():
    # the 5x1 straight corridor used by several contract examples
    return grid_from_rows(["....."])


@pytest.fixture
def wall_gap_5x5():
    # vertical wall at x=2 with a single gap at (2,4); optimal cost 12
    return grid_from_rows([
        "..#..",
        "..#..",
        "..#..",
        "..#..",
        ".....",
    ])
