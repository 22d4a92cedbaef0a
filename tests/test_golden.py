"""Golden digests: one sha256 per output of the grid kernels, planners, prompts and executor.

The inputs are the three bundled scenarios and seeded random maps (16x16,
32x32, 64x64 and a non-square 40x12). Each map is also checked as a sensed
grid (``with_occupied`` over a few cells of its A* path), and executed with
and without dynamic obstacles. The bundled suite is run as ``gridground
bench`` runs it: its ``rows.csv`` and ``report.txt`` are digested without
their timing columns, its SVGs whole. ``tests/golden.json`` holds the digests.
Regenerate it only in a change that alters these outputs on purpose, and
name each moved key in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from gridground.bench import plot_trajectories, run_suite_file
from gridground.bundled import bundled_path
from gridground.classical import RrtParams, astar, grow_rrt_tree
from gridground.gridmap import Connectivity, GridPose, neighbors, random_map, serialize_map
from gridground.grounded import ACTIONS, Instruction, affordance, plan, trace_to_jsonl
from gridground.planners import AstarPlanner, GroundedPlanner
from gridground.scorers import (
    ChatEndpointConfig,
    MockScorer,
    OracleScorer,
    RemoteScorer,
    TaskScorerQuery,
    request_fingerprint,
)
from gridground.simulator import DynamicObstacle, Scenario, execute, load_scenario
from gridground.translator import serialize_fullpath_prompt, serialize_step_prompt

GOLDEN = Path(__file__).with_name("golden.json")
KEY_ENV = "GRIDGROUND_GOLDEN_KEY"
RRT_SEEDS = range(6)
RRT_ITERATIONS = 400  # keeps the 64x64 trees cheap; they still span the map
RRT_FULL_SCENARIOS = ("corridor", "reference_world")  # also grown with default RrtParams
TIMING_COLUMNS = ("planning_time_ms", "scorer_wall_time_ms", "mean_ms", "median_ms")


def _sha(obj) -> str:
    text = obj if isinstance(obj, str) else repr(obj)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scenarios() -> list[tuple[str, Scenario]]:
    out = [(name, load_scenario(bundled_path(f"{name}.scenario.yaml")))
           for name in ("reference_world", "corridor", "two_corridor")]
    for name, (w, h, density, seed) in {
        "random16": (16, 16, 0.25, 11),
        "random32": (32, 32, 0.3, 12),
        "random64": (64, 64, 0.3, 13),
        "random40x12": (40, 12, 0.3, 14),
    }.items():
        grid = random_map(w, h, density, seed)
        out.append((name, Scenario(grid, GridPose(0, 0), GridPose(w - 1, h - 1), "reach the far corner")))
    return out


def _sensed_cells(scenario: Scenario) -> list[GridPose]:
    """Three cells of the A* path, away from its ends."""
    path = astar(scenario.map, scenario.start, scenario.goal).waypoints
    return [path[len(path) * k // 4] for k in (1, 2, 3)]


def _with_obstacles(scenario: Scenario) -> Scenario:
    cells = _sensed_cells(scenario)
    obstacles = tuple(DynamicObstacle(c, 1 + k) for k, c in enumerate(cells))
    return Scenario(scenario.map, scenario.start, scenario.goal, scenario.instruction_text,
                    scenario.dynamic_obstacles + obstacles, scenario.sensing_radius)


def _grid_digests(prefix: str, grid, goal: GridPose) -> dict[str, str]:
    cells = [GridPose(x, y) for y in range(grid.height) for x in range(grid.width)]
    out = {
        f"{prefix}/rows": _sha(grid.rows()),
        f"{prefix}/serialize_map": _sha(serialize_map(grid)),
        f"{prefix}/distance_field": _sha(list(grid.distances_to(goal))),
    }
    for conn in Connectivity:
        out[f"{prefix}/neighbors{conn.value}"] = _sha([neighbors(grid, p, conn) for p in cells])
    out[f"{prefix}/affordance"] = _sha([[affordance(grid, p, a) for a in ACTIONS] for p in cells])
    return out


def _execute_digest(scenario: Scenario, planner) -> str:
    r = execute(scenario, planner)
    return _sha((r.visited, r.collided, r.reached_goal, r.replan_count, r.steps_taken))


def _query(grid, s: GridPose, instruction: Instruction) -> TaskScorerQuery:
    cands = tuple(GridPose(s.x + a.delta[0], s.y + a.delta[1]) for a in ACTIONS)
    return TaskScorerQuery(instruction, grid, s, cands)


def _without_timing(table: list[list[str]]) -> list[list[str]]:
    """The table (header row first) without its TIMING_COLUMNS."""
    keep = [j for j, name in enumerate(table[0]) if name not in TIMING_COLUMNS]
    return [[row[j] for j in keep] for row in table]


def _suite_digests() -> dict[str, str]:
    """rows.csv and report.txt without their timing columns, and every SVG, of the bundled suite."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        run_suite_file(bundled_path("default_suite.yaml"), out)
        rows = list(csv.reader(io.StringIO((out / "rows.csv").read_text(encoding="utf-8"))))
        report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
        table = next(k for k, line in enumerate(report) if line.startswith("planner "))
        digests = {
            "bundled_suite/rows_csv": _sha(_without_timing(rows)),
            "bundled_suite/report": _sha((report[:table],
                                          _without_timing([line.split() for line in report[table:]]))),
        }
        for svg in sorted(out.glob("*.svg")):
            digests[f"bundled_suite/{svg.name}"] = _sha(svg.read_text(encoding="utf-8"))
    return digests


def compute_digests() -> dict[str, str]:
    """Every golden key and its digest, from the code under test."""
    fingerprints: list[str] = []

    def transport(url, headers, body, timeout):
        fingerprints.append(request_fingerprint(body))
        return 200, json.dumps({"choices": [{"message": {"content": "scores: 1 1 1 1"}}]})

    remote = RemoteScorer(ChatEndpointConfig("http://127.0.0.1:9", "golden", api_key_env=KEY_ENV),
                          transport=transport)
    out: dict[str, str] = {}
    for name, sc in _scenarios():
        grid, start, goal = sc.map, sc.start, sc.goal
        sensed = grid.with_occupied(_sensed_cells(sc))
        out.update(_grid_digests(name, grid, goal))
        out.update(_grid_digests(f"{name}/sensed", sensed, goal))
        for label, g in (("", grid), ("sensed/", sensed)):
            for conn in Connectivity:
                p = astar(g, start, goal, conn)
                out[f"{name}/{label}astar{conn.value}"] = _sha(p.waypoints if p else None)
        for seed in RRT_SEEDS:
            t = grow_rrt_tree(grid, start, goal, RrtParams(seed=seed, max_iterations=RRT_ITERATIONS))
            out[f"{name}/rrt/seed{seed}"] = _sha((t.points, t.parents, t.accepted))
            if name in RRT_FULL_SCENARIOS:
                t = grow_rrt_tree(grid, start, goal, RrtParams(seed=seed))
                out[f"{name}/rrt_full/seed{seed}"] = _sha((t.points, t.parents, t.accepted))

        instruction = Instruction(sc.instruction_text, goal)
        path = astar(grid, start, goal).waypoints
        for label, g in (("", grid), ("sensed/", sensed)):
            prompts = [serialize_step_prompt(g, s, instruction, _query(g, s, instruction).candidates)
                       for s in path[:3]]
            prompts.append(serialize_fullpath_prompt(g, start, instruction))
            out[f"{name}/{label}prompts"] = _sha([(p.system_text, p.user_text) for p in prompts])
            del fingerprints[:]
            remote(_query(g, start, instruction))
            remote.complete_text(prompts[-1])
            out[f"{name}/{label}fingerprints"] = _sha(fingerprints)

        for scorer_name, scorer in (("mock", MockScorer()), ("oracle", OracleScorer())):
            res = plan(scorer, sensed, start, instruction)
            out[f"{name}/grounded_{scorer_name}"] = _sha(
                (res.path.waypoints, res.failure, trace_to_jsonl(res.trace)))

        obstacled = _with_obstacles(sc)
        out[f"{name}/execute/astar"] = _execute_digest(sc, AstarPlanner())
        out[f"{name}/execute/astar_obstacles"] = _execute_digest(obstacled, AstarPlanner())
        out[f"{name}/execute/oracle_obstacles"] = _execute_digest(obstacled, GroundedPlanner(OracleScorer()))
        out[f"{name}/svg"] = _sha(plot_trajectories(sc, [("astar", astar(grid, start, goal))]))
    out.update(_suite_digests())
    return out


def test_outputs_match_golden_digests(monkeypatch):
    monkeypatch.setenv(KEY_ENV, "golden")
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_digests()
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    assert moved == [], f"outputs moved from the golden digests: {moved}"
    assert sorted(got.keys() - want.keys()) == [], "keys missing from golden.json"
    assert sorted(want.keys() - got.keys()) == [], "golden keys no longer computed"


if __name__ == "__main__":
    os.environ[KEY_ENV] = "golden"
    json.dump(compute_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
