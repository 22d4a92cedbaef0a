import re

import yaml

import pytest
from hypothesis import given, settings, strategies as st

from gridground import bench, simulator
from gridground.bundled import bundled_path
from gridground.classical import astar
from gridground.errors import InvalidScenario
from gridground.inputs import MAX_YAML_DEPTH
from gridground.gridmap import CellState, GridPose, OccupancyGrid, random_map
from gridground.simulator import (
    DynamicObstacle,
    PathValidation,
    Scenario,
    execute,
    load_scenario,
    load_yaml,
    parse_scenario,
    validate_external_path,
)

from conftest import grid_from_rows, open_grid
from reference import reference_execute, reference_validate_external_path

BIG_INT = "1" * 5000  # past Python's 4,300-digit int-string limit, which yaml.safe_load hits


class AstarPlanner:
    def plan(self, grid, start, goal, instruction_text):
        p = astar(grid, start, goal)
        return None if p is None else list(p.waypoints)


class RecordingAstar(AstarPlanner):
    def __init__(self):
        self.calls = []

    def plan(self, grid, start, goal, instruction_text):
        self.calls.append((grid, start))
        return super().plan(grid, start, goal, instruction_text)


class ScriptedPlanner:
    """Returns canned waypoint lists; one per plan call (first plan or replan), in order."""

    def __init__(self, plans):
        self.plans = list(plans)
        self.calls = []

    def plan(self, grid, start, goal, instruction_text):
        self.calls.append(start)
        return self.plans.pop(0)


def corridor_scenario(**over):
    g = grid_from_rows([
        "#######",
        "#.....#",
        "#######",
    ])
    fields = dict(
        map=g, start=GridPose(1, 1), goal=GridPose(5, 1),
        instruction_text="walk the corridor",
    )
    fields.update(over)
    return Scenario(**fields)


def room_scenario(**over):
    g = grid_from_rows([
        "#####",
        "#...#",
        "#...#",
        "#####",
    ])
    fields = dict(
        map=g, start=GridPose(1, 1), goal=GridPose(3, 1),
        instruction_text="cross the room",
    )
    fields.update(over)
    return Scenario(**fields)


class TestExecuteStatic:
    def test_clean_run(self):
        sc = corridor_scenario()
        rec = execute(sc, AstarPlanner())
        assert rec.reached_goal and not rec.collided
        assert rec.replan_count == 0
        assert rec.steps_taken == 4
        assert [tuple(p) for p in rec.visited] == [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]

    def test_start_equals_goal_skips_planning(self):
        sc = corridor_scenario(goal=GridPose(1, 1))
        planner = RecordingAstar()
        rec = execute(sc, planner)
        assert rec.reached_goal and not rec.collided
        assert rec.steps_taken == 0
        assert rec.visited == [GridPose(1, 1)]
        assert planner.calls == []

    def test_no_initial_plan_zeroed_record(self):
        g = grid_from_rows([
            ".#.",
            ".#.",
            ".#.",
        ])
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(2, 2),
                      instruction_text="x")
        rec = execute(sc, AstarPlanner())
        assert not rec.reached_goal and not rec.collided
        assert rec.replan_count == 0 and rec.steps_taken == 0
        assert rec.visited == [GridPose(0, 0)]

    def test_scripted_path_into_wall_collides(self):
        g = grid_from_rows(["..#.."])
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(4, 0),
                      instruction_text="x")
        planner = ScriptedPlanner([[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]])
        rec = execute(sc, planner)
        assert rec.collided and not rec.reached_goal
        assert rec.steps_taken == 2  # the colliding move is counted
        assert [tuple(p) for p in rec.visited] == [(0, 0), (1, 0)]  # wall cell excluded

    @pytest.mark.parametrize("wrap", [GridPose._make, tuple, list], ids=["pose", "tuple", "list"])
    def test_waypoints_of_any_pair_type_walk_as_poses(self, wrap):
        sc = corridor_scenario()
        rec = execute(sc, ScriptedPlanner([[wrap((x, 1)) for x in range(1, 6)]]))
        assert rec.reached_goal and rec.visited == [GridPose(x, 1) for x in range(1, 6)]
        assert all(type(p) is GridPose for p in rec.visited)

    def test_budget_caps_runaway_paths(self):
        g = open_grid(3, 3)
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(2, 2),
                      instruction_text="x")
        loop = [(0, 0)] + [(1, 0), (0, 0)] * 50
        rec = execute(sc, ScriptedPlanner([loop]))
        assert not rec.reached_goal and not rec.collided
        assert rec.steps_taken == 10 * (3 + 3)
        assert len(rec.visited) == rec.steps_taken + 1


class TestExecuteDynamic:
    def test_sensed_on_path_triggers_replan_then_dead_end(self):
        sc = corridor_scenario(
            dynamic_obstacles=(DynamicObstacle(GridPose(4, 1), 2),),
        )
        planner = RecordingAstar()
        rec = execute(sc, planner)
        # the block is sensed from (3,1); the one-wide corridor has no detour
        assert rec.replan_count == 1
        assert not rec.reached_goal and not rec.collided
        assert [tuple(p) for p in rec.visited] == [(1, 1), (2, 1), (3, 1)]
        assert rec.steps_taken == 2
        # the replan is the second plan call, from the current cell on the sensed grid
        assert len(planner.calls) == 2
        grid, current = planner.calls[1]
        assert current == GridPose(3, 1) and grid.cell(4, 1) is CellState.OCCUPIED

    def test_same_tick_appearance_defeats_sensing(self):
        sc = corridor_scenario(
            dynamic_obstacles=(DynamicObstacle(GridPose(4, 1), 3),),
        )
        rec = execute(sc, AstarPlanner())
        assert rec.collided and not rec.reached_goal
        assert rec.replan_count == 0
        assert rec.steps_taken == 3
        assert [tuple(p) for p in rec.visited] == [(1, 1), (2, 1), (3, 1)]

    def test_sensed_off_path_no_replan(self):
        g = grid_from_rows([
            "#######",
            "#.....#",
            "#.....#",
            "#######",
        ])
        sc = Scenario(
            map=g, start=GridPose(1, 1), goal=GridPose(5, 1),
            instruction_text="x",
            dynamic_obstacles=(DynamicObstacle(GridPose(3, 2), 0),),
        )
        planner = RecordingAstar()
        rec = execute(sc, planner)
        assert rec.reached_goal and rec.replan_count == 0
        assert len(planner.calls) == 1

    def test_replan_detours_and_reaches(self):
        g = grid_from_rows([
            "#######",
            "#.....#",
            "#.....#",
            "#######",
        ])
        sc = Scenario(
            map=g, start=GridPose(1, 1), goal=GridPose(5, 1),
            instruction_text="x",
            dynamic_obstacles=(DynamicObstacle(GridPose(4, 1), 0),),
        )
        planner = RecordingAstar()
        rec = execute(sc, planner)
        assert rec.reached_goal and not rec.collided
        assert rec.replan_count == 1
        assert [tuple(p) for p in rec.visited] == [
            (1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 1),
        ]
        # the replan saw a working map with the sensed block; the base map is untouched
        assert len(planner.calls) == 2
        grid, current = planner.calls[1]
        assert current == GridPose(3, 1)
        assert grid.cell(4, 1) is CellState.OCCUPIED
        assert sc.map.cell(4, 1) is CellState.FREE

    def test_obstacle_next_to_start_known_before_first_plan(self):
        sc = room_scenario(
            dynamic_obstacles=(DynamicObstacle(GridPose(2, 1), 0),),
        )
        planner = RecordingAstar()
        rec = execute(sc, planner)
        assert rec.reached_goal and rec.replan_count == 0
        assert [tuple(p) for p in rec.visited] == [(1, 1), (1, 2), (2, 2), (3, 2), (3, 1)]
        assert len(planner.calls) == 1
        grid, _ = planner.calls[0]
        assert grid.cell(2, 1) is CellState.OCCUPIED

    def test_sensing_radius_is_chebyshev(self):
        # the path bends, so the blocked waypoint sits diagonal to the robot:
        # Manhattan distance 2, Chebyshev 1, and radius 1 must catch it
        sc = room_scenario(
            goal=GridPose(3, 1),
            dynamic_obstacles=(DynamicObstacle(GridPose(3, 2), 1),),
        )
        planner = ScriptedPlanner([
            [(1, 1), (2, 1), (2, 2), (3, 2), (3, 1)],
            [(2, 1), (3, 1)],
        ])
        rec = execute(sc, planner)
        assert rec.replan_count == 1
        assert planner.calls == [GridPose(1, 1), GridPose(2, 1)]
        assert rec.reached_goal
        assert [tuple(p) for p in rec.visited] == [(1, 1), (2, 1), (3, 1)]

    def test_wider_radius_senses_earlier(self):
        near = execute(
            corridor_scenario(dynamic_obstacles=(DynamicObstacle(GridPose(4, 1), 0),)),
            AstarPlanner(),
        )
        far = execute(
            corridor_scenario(
                sensing_radius=3,
                dynamic_obstacles=(DynamicObstacle(GridPose(4, 1), 0),),
            ),
            AstarPlanner(),
        )
        assert near.steps_taken == 2  # sensed at distance 1, from (3,1)
        # radius 3 covers the block from the start, so the dead end is known
        # before the first plan and the robot never moves
        assert far.steps_taken == 0
        assert far.visited == [GridPose(1, 1)]

    def test_deterministic(self):
        sc = corridor_scenario(dynamic_obstacles=(DynamicObstacle(GridPose(4, 1), 2),))
        a = execute(sc, AstarPlanner())
        b = execute(sc, AstarPlanner())
        assert (a.visited, a.collided, a.reached_goal, a.replan_count, a.steps_taken) == (
            b.visited, b.collided, b.reached_goal, b.replan_count, b.steps_taken
        )

    def test_outcomes_mutually_exclusive(self):
        for appears in range(5):
            sc = corridor_scenario(
                dynamic_obstacles=(DynamicObstacle(GridPose(4, 1), appears),),
            )
            rec = execute(sc, AstarPlanner())
            assert not (rec.collided and rec.reached_goal)


class RecordingPlanner:
    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def plan(self, grid, start, goal, instruction_text):
        self.calls.append((grid, start, goal))
        return self.inner.plan(grid, start, goal, instruction_text)


@st.composite
def dynamic_scenarios(draw):
    """Random bordered maps, corner to corner, with obstacles at any tick, anywhere or on the A* route."""
    w, h = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    grid = random_map(w, h, draw(st.sampled_from([0.0, 0.2, 0.35])), draw(st.integers(0, 10_000)))
    start, goal = GridPose(0, 0), GridPose(w - 1, h - 1)
    route = astar(grid, start, goal).waypoints  # the border ring keeps the corners connected
    cell = st.builds(GridPose, st.integers(0, w - 1), st.integers(0, h - 1)) | st.sampled_from(route)
    obstacles = draw(st.lists(st.builds(DynamicObstacle, cell, st.integers(0, w + h)), max_size=6))
    return Scenario(grid, start, goal, "go", tuple(obstacles), draw(st.integers(1, 3)))


class TestExecuteProperties:
    @settings(max_examples=150, deadline=None)
    @given(dynamic_scenarios(), st.sampled_from(["astar", "grounded:oracle"]))
    def test_walk_invariants(self, sc, planner_id):
        planner = RecordingPlanner(bench.make_planner(planner_id, sc, 0).planner)
        rec = execute(sc, planner)  # never raises
        walk = rec.visited
        assert walk[0] == sc.start
        assert all(abs(a.x - b.x) + abs(a.y - b.y) == 1 for a, b in zip(walk, walk[1:]))
        for tick, cell in enumerate(walk[1:], 1):  # one step per tick
            assert sc.map.is_free(*cell)
            assert all(cell != ob.cell or ob.appears_at_step > tick for ob in sc.dynamic_obstacles)
        assert not (rec.collided and rec.reached_goal)
        assert rec.reached_goal == (walk[-1] == sc.goal)
        for grid, _, _ in planner.calls:  # sensed grids' views, derived from the base grid's
            rebuilt = OccupancyGrid(grid.width, grid.height, grid.resolution, grid.cells)
            assert (grid.rows(), grid.free_mask) == (rebuilt.rows(), rebuilt.free_mask)


def sensed_grids(run, sc, planner):
    """run(sc, planner), and the cells passed to each with_occupied call it made."""
    derive = OccupancyGrid.with_occupied
    calls = []

    def recording(grid, poses):
        poses = sorted(poses)
        calls.append(poses)
        return derive(grid, poses)

    OccupancyGrid.with_occupied = recording
    try:
        return run(sc, planner), calls
    finally:
        OccupancyGrid.with_occupied = derive


PLANNER_IDS = ["astar", "rrt", "grounded:mock", "grounded:oracle", "fullpath:mock", "fullpath:oracle"]


class TestExecuteMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(dynamic_scenarios(), st.sampled_from(PLANNER_IDS))  # fullpath:mock walks into walls: collisions compare too
    def test_same_record_and_plan_calls(self, sc, planner_id):
        got_planner = RecordingPlanner(bench.make_planner(planner_id, sc, 0).planner)
        want_planner = RecordingPlanner(bench.make_planner(planner_id, sc, 0).planner)
        assert sensed_grids(execute, sc, got_planner) == sensed_grids(reference_execute, sc, want_planner)
        assert [(g.cells, s, t) for g, s, t in got_planner.calls] == [
            (g.cells, s, t) for g, s, t in want_planner.calls
        ]

    def test_a_cell_that_appears_twice_is_sensed_once(self):
        # (3,2) is sensed at tick 1 and listed again for tick 2: one sensed grid, one replan
        obstacles = (DynamicObstacle(GridPose(3, 2), 2), DynamicObstacle(GridPose(3, 2), 0))
        sc = Scenario(open_grid(7, 5), GridPose(0, 2), GridPose(6, 2), "go", obstacles, 2)
        got = sensed_grids(execute, sc, AstarPlanner())
        assert got == sensed_grids(reference_execute, sc, AstarPlanner())
        assert got[1] == [[GridPose(3, 2)]] and got[0].replan_count == 1


class TestCoveredEndpoints:
    """A sensed obstacle on the goal or the robot's cell is "no path", not a planner call."""

    @pytest.mark.parametrize("planner_id", PLANNER_IDS)
    @pytest.mark.parametrize("cell,radius", [(GridPose(1, 1), 1), (GridPose(5, 1), 4)],
                             ids=["start", "goal"])
    def test_covered_at_tick_0_ends_before_any_step(self, planner_id, cell, radius):
        sc = corridor_scenario(sensing_radius=radius, dynamic_obstacles=(DynamicObstacle(cell, 0),))
        planner = RecordingPlanner(bench.make_planner(planner_id, sc, 0).planner)
        rec = execute(sc, planner)
        assert planner.calls == []
        assert (rec.visited, rec.collided, rec.reached_goal, rec.replan_count, rec.steps_taken) == (
            [GridPose(1, 1)], False, False, 0, 0
        )

    @pytest.mark.parametrize("planner_id", PLANNER_IDS)
    def test_goal_covered_on_replan_keeps_the_walk(self, planner_id):
        sc = corridor_scenario(dynamic_obstacles=(DynamicObstacle(GridPose(5, 1), 2),))
        planner = RecordingPlanner(bench.make_planner(planner_id, sc, 0).planner)
        rec = execute(sc, planner)
        assert [start for _, start, _ in planner.calls] == [GridPose(1, 1)]  # the replan asks no planner
        assert rec.visited == [GridPose(x, 1) for x in range(1, 5)]
        assert (rec.collided, rec.reached_goal, rec.replan_count, rec.steps_taken) == (False, False, 1, 3)


class TestScenarioValidation:
    @pytest.mark.parametrize("over,msg", [
        ({"start": GridPose(9, 9)}, "outside"),
        ({"start": GridPose(0, 0)}, "not Free"),
        ({"goal": GridPose(0, 0)}, "not Free"),
        ({"instruction_text": ""}, "non-empty"),
        ({"sensing_radius": 0}, "sensing_radius"),
        ({"dynamic_obstacles": (DynamicObstacle(GridPose(1, 1), -1),)}, "appears_at_step"),
        ({"dynamic_obstacles": (DynamicObstacle(GridPose(9, 9), 0),)}, "outside"),
    ])
    def test_rejections(self, over, msg):
        with pytest.raises(InvalidScenario, match=msg):
            corridor_scenario(**over).validate()

    def test_execute_validates_first(self):
        sc = corridor_scenario(instruction_text="")
        with pytest.raises(InvalidScenario):
            execute(sc, AstarPlanner())


class IntLike:
    """An integer that is not an ``int``: it converts only through ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


ANY_WAYPOINT = st.one_of(
    st.tuples(st.integers(0, 7), st.integers(0, 3)),
    st.tuples(st.integers(-2, 9), st.integers(-2, 5)),
    st.tuples(st.floats(-2, 9), st.floats(-2, 5)),
    st.lists(st.integers(0, 6), max_size=3),
    st.none(), st.booleans(), st.text(max_size=3), st.integers(),
)


class TestValidateExternalPath:
    def setup_method(self):
        self.sc = corridor_scenario()

    def test_good_path(self):
        path = [GridPose(x, 1) for x in range(1, 6)]
        assert validate_external_path(self.sc, path) == PathValidation(True)

    def test_empty_list(self):
        assert validate_external_path(self.sc, []) == PathValidation(False, "start", 0)

    def test_wrong_anchor(self):
        path = [GridPose(2, 1), GridPose(3, 1)]
        assert validate_external_path(self.sc, path) == PathValidation(False, "start", 0)

    def test_diagonal_step(self):
        g = grid_from_rows(["...", "...", "..."])
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(2, 2), instruction_text="x")
        got = validate_external_path(sc, [GridPose(0, 0), GridPose(1, 1), GridPose(2, 2)])
        assert got == PathValidation(False, "adjacency", 1)

    def test_repeated_cell(self):
        got = validate_external_path(
            self.sc, [GridPose(1, 1), GridPose(1, 1), GridPose(2, 1)]
        )
        assert got == PathValidation(False, "adjacency", 1)

    def test_wall_cell(self):
        got = validate_external_path(
            self.sc, [GridPose(1, 1), GridPose(1, 0)]
        )
        assert got == PathValidation(False, "freeness", 1)

    def test_out_of_bounds_cell(self):
        g = grid_from_rows(["..."])
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(2, 0), instruction_text="x")
        got = validate_external_path(sc, [GridPose(0, 0), GridPose(-1, 0)])
        assert got == PathValidation(False, "freeness", 1)

    def test_stops_short_of_goal(self):
        got = validate_external_path(
            self.sc, [GridPose(1, 1), GridPose(2, 1), GridPose(3, 1)]
        )
        assert got == PathValidation(False, "goal", 2)

    def test_freeness_uses_base_map_not_dynamics(self):
        sc = corridor_scenario(
            dynamic_obstacles=(DynamicObstacle(GridPose(3, 1), 0),),
        )
        path = [GridPose(x, 1) for x in range(1, 6)]
        assert validate_external_path(sc, path).valid

    @pytest.mark.parametrize("bad", [(2.0, 1.0), GridPose(2.0, 1.0), None, "21", (2, 1, 0), (-1.0, 1.0), ("a", 1)],
                             ids=["float_pair", "float_pose", "none", "string", "triple", "off_map_float_pair",
                                  "string_in_pair"])
    @pytest.mark.parametrize("at", ["first", "second", "last"])
    def test_malformed_waypoint_fails_at_its_index(self, bad, at):
        # (2.0, 1.0) equals corridor's start and passes the adjacency check, then
        # indexed the map with a float; the others raised TypeError sooner
        sc = load_scenario(bundled_path("corridor.scenario.yaml"))
        path = list(astar(sc.map, sc.start, sc.goal).waypoints)
        i = {"first": 0, "second": 1, "last": len(path) - 1}[at]
        path[i] = bad
        assert validate_external_path(sc, path) == PathValidation(False, "integer_pair", i)

    @given(st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 3)), max_size=8), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_poses_tuples_and_lists_get_one_verdict(self, cells, to_goal):
        path = [(1, 1), *cells, *([(5, 1)] if to_goal else [])]
        as_poses = validate_external_path(self.sc, [GridPose(*c) for c in path])
        as_lists = validate_external_path(self.sc, [list(c) for c in path])
        assert as_poses == validate_external_path(self.sc, path) == as_lists

    @given(st.lists(ANY_WAYPOINT, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_never_raises(self, waypoints):
        # each list follows corridor_scenario's start (1, 1), so the draws reach the later rules
        got = validate_external_path(self.sc, [GridPose(1, 1)] + waypoints)
        malformed = [i for i, w in enumerate(waypoints, 1)
                     if not (isinstance(w, (tuple, list)) and len(w) == 2 and all(isinstance(v, int) for v in w))]
        if malformed:
            assert not got.valid and got.index <= malformed[0]
        if got.rule == "integer_pair":
            assert got.index == malformed[0]

    @given(st.lists(ANY_WAYPOINT, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_reference(self, waypoints):
        # the draws hold no int-like values, so reading each waypoint once changes no verdict
        path = [GridPose(1, 1)] + waypoints
        assert validate_external_path(self.sc, path) == reference_validate_external_path(self.sc, path)

    def test_int_like_coordinates_read_as_ints(self):
        path = [(IntLike(x), IntLike(1)) for x in range(1, 6)]
        assert validate_external_path(self.sc, path) == PathValidation(True)
        g = grid_from_rows(["...."] * 4)
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(3, 3), instruction_text="x")
        cells = [(0, 0), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)]  # a diagonal step at index 3
        path = [(IntLike(x), IntLike(y)) for x, y in cells]
        assert validate_external_path(sc, path) == PathValidation(False, "adjacency", 3)


def scenario_doc(**over):
    base = {
        "version": "scenario_v1",
        "map": "3 3 1.0\n...\n...\n...\n",
        "start": [0, 0],
        "goal": [2, 2],
        "instruction_text": "go",
    }
    removals = over.pop("_drop", ())
    base.update(over)
    for key in removals:
        base.pop(key, None)
    return yaml.safe_dump(base)


class TestParseScenario:
    def test_minimal_inline(self):
        sc = parse_scenario(scenario_doc())
        assert sc.map.width == 3 and sc.map.height == 3
        assert sc.start == GridPose(0, 0) and sc.goal == GridPose(2, 2)
        assert sc.instruction_text == "go"
        assert sc.dynamic_obstacles == ()
        assert sc.sensing_radius == 1

    def test_full_fields(self):
        sc = parse_scenario(scenario_doc(
            dynamic_obstacles=[{"cell": [1, 1], "appears_at_step": 3}],
            sensing_radius=2,
        ))
        assert sc.dynamic_obstacles == (DynamicObstacle(GridPose(1, 1), 3),)
        assert sc.sensing_radius == 2

    @pytest.mark.parametrize("seed", [7, True, "x"])
    def test_seed_key_ignored(self, seed):
        # older scenario files carry a seed; trial seeds come from bench.trial_seed
        sc = parse_scenario(scenario_doc(seed=seed))
        assert sc == parse_scenario(scenario_doc())

    def test_map_file_resolved_against_base_dir(self, tmp_path):
        (tmp_path / "m.map").write_text("3 1 1.0\n...\n")
        doc = scenario_doc(map_file="m.map", goal=[2, 0], _drop=("map",))
        sc = parse_scenario(doc, base_dir=tmp_path)
        assert sc.map.width == 3 and sc.map.height == 1

    @pytest.mark.parametrize("mutate,msg", [
        ({"version": "scenario_v2"}, "version"),
        ({"_drop": ("version",)}, "version"),
        ({"map_file": "x.map"}, "exactly one"),
        ({"_drop": ("map",)}, "exactly one"),
        ({"map": 42}, "inline ASCII"),
        ({"map": "1 1 1.0\nZ\n"}, "bad map"),
        ({"_drop": ("start",)}, "start"),
        ({"_drop": ("goal",)}, "goal"),
        ({"_drop": ("instruction_text",)}, "instruction_text"),
        ({"start": [0]}, "integer pair"),
        ({"start": [0.5, 1]}, "integer pair"),
        ({"start": [True, False]}, "integer pair"),
        ({"start": "0,0"}, "integer pair"),
        ({"instruction_text": 5}, "string"),
        ({"sensing_radius": True}, "integer"),
        ({"sensing_radius": "2"}, "integer"),
        ({"sensing_radius": 1.5}, "integer"),
        ({"dynamic_obstacles": [{"cell": [1, 1]}]}, "appears_at_step"),
        ({"dynamic_obstacles": [{"appears_at_step": 0}]}, "cell"),
        ({"dynamic_obstacles": [{"cell": [1, 1], "appears_at_step": True}]}, "integer"),
        ({"dynamic_obstacles": [{"cell": [1, 1.5], "appears_at_step": 0}]}, "integer pair"),
        # only an absent key or null means "no obstacles"
        ({"dynamic_obstacles": False}, "dynamic_obstacles must be a list"),
        ({"dynamic_obstacles": 0}, "dynamic_obstacles must be a list"),
        ({"dynamic_obstacles": ""}, "dynamic_obstacles must be a list"),
        ({"dynamic_obstacles": {}}, "dynamic_obstacles must be a list"),
        ({"goal": [9, 9]}, "outside"),
    ])
    def test_rejections(self, mutate, msg):
        with pytest.raises(InvalidScenario, match=msg):
            parse_scenario(scenario_doc(**mutate))

    def test_map_file_without_base_dir(self):
        doc = scenario_doc(map_file="m.map", _drop=("map",))
        with pytest.raises(InvalidScenario, match="base directory"):
            parse_scenario(doc)

    def test_map_file_missing(self, tmp_path):
        doc = scenario_doc(map_file="absent.map", _drop=("map",))
        with pytest.raises(InvalidScenario, match="cannot read"):
            parse_scenario(doc, base_dir=tmp_path)

    def test_unparseable_yaml(self):
        with pytest.raises(InvalidScenario, match="unparseable"):
            parse_scenario("version: [unclosed")

    def test_integer_past_digit_limit(self):
        with pytest.raises(InvalidScenario, match="unparseable"):
            parse_scenario(scenario_doc(_drop=("start",)) + f"start: [{BIG_INT}, 0]\n")

    def test_map_file_not_utf8(self, tmp_path):
        (tmp_path / "m.map").write_bytes(b"3 3 1.0\n...\n..\xff\n...\n")
        doc = scenario_doc(map_file="m.map", _drop=("map",))
        with pytest.raises(InvalidScenario, match="cannot read map file"):
            parse_scenario(doc, base_dir=tmp_path)

    def test_non_mapping_document(self):
        with pytest.raises(InvalidScenario, match="mapping"):
            parse_scenario("- 1\n- 2\n")

    def test_map_loader_bug_propagates(self, monkeypatch):
        # only a MapFormatError is a bad map; any other error out of load_map is a bug
        def buggy(text):
            raise KeyError("oops")

        monkeypatch.setattr(simulator, "load_map", buggy)
        with pytest.raises(KeyError, match="oops"):
            parse_scenario(scenario_doc())

    def test_load_scenario_round_trip(self, tmp_path):
        (tmp_path / "m.map").write_text("4 1 1.0\n....\n")
        doc = scenario_doc(map_file="m.map", goal=[3, 0], _drop=("map",))
        path = tmp_path / "case.yaml"
        path.write_text(doc)
        sc = load_scenario(path)
        assert sc.goal == GridPose(3, 0)

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(InvalidScenario, match="cannot read"):
            load_scenario(tmp_path / "absent.yaml")

    def test_load_scenario_not_utf8(self, tmp_path):
        path = tmp_path / "case.yaml"
        path.write_bytes(scenario_doc().encode() + b"# \xff\n")
        with pytest.raises(InvalidScenario, match="cannot read scenario file"):
            load_scenario(path)

    def test_load_scenario_integer_past_digit_limit(self, tmp_path):
        path = tmp_path / "case.yaml"
        path.write_text(scenario_doc(_drop=("start",)) + f"start: [{BIG_INT}, 0]\n")
        with pytest.raises(InvalidScenario, match="unparseable"):
            load_scenario(path)


def nested(levels, form):
    """A YAML document of ``levels`` collections, each the only item of the one around it."""
    if form == "flow":
        return "[" * levels + "x" + "]" * levels + "\n"
    if form == "block":
        return "- " * levels + "x\n"
    # a mapping of anchored lists, each an alias of the one before: the value of b is levels deep
    return "a1: &a1 [1]\n" + "".join(f"a{i}: &a{i} [*a{i - 1}]\n" for i in range(2, levels)) + f"b: *a{levels - 1}\n"


class TestYamlNesting:
    @pytest.fixture(params=[True, False], ids=["libyaml", "pyyaml"])
    def loader(self, request, monkeypatch):
        if request.param and not yaml.__with_libyaml__:
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(yaml, "__with_libyaml__", request.param)

    @pytest.mark.parametrize("form", ["flow", "block", "alias"])
    def test_limit(self, loader, form):
        assert MAX_YAML_DEPTH == 64
        doc = load_yaml(nested(MAX_YAML_DEPTH, form))
        depth = 0
        while isinstance(doc, (list, dict)):
            doc, depth = doc["b"] if isinstance(doc, dict) else doc[0], depth + 1
        assert depth == MAX_YAML_DEPTH
        with pytest.raises(ValueError, match="nests deeper than 64 collections"):
            load_yaml(nested(MAX_YAML_DEPTH + 1, form))

    @pytest.mark.parametrize("form", ["flow", "block", "alias"])
    def test_far_past_the_limit(self, loader, form):
        # without the check 50,000 levels crash the process, so tests/test_cli.py runs those in a subprocess
        with pytest.raises(ValueError, match="nests deeper than 64 collections"):
            load_yaml(nested(3_000 if form == "alias" else 1_000, form))

    def test_an_alias_inside_its_own_anchor_is_one_level(self, loader):
        doc = load_yaml("a: &a [*a]\n")
        assert doc["a"][0] is doc["a"]


    @pytest.mark.parametrize("text, place", [
        ("a: [b\n", r" at line 2, column 1 \(while parsing a flow sequence\)"),
        ("a: 1\n  b: 2\n", " at line 2, column 4"),
        ('a: "b\n', r" at line 2, column 1 \(while scanning a quoted scalar\)"),
        ("a: !!python/object x\n", " at line 1, column 4"),
        ("a: b\0\n", " at offset 4"),
    ])
    def test_a_syntax_error_is_one_line_with_its_place(self, loader, text, place):
        # either parser's own message names "<unicode string>", over up to four lines
        with pytest.raises(ValueError) as err:
            load_yaml(text)
        assert re.fullmatch(f"[^\n]+{place}", str(err.value)), str(err.value)
