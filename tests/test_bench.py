import csv
import hashlib
import io
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gridground.bench as bench
from gridground import cli, planners
from gridground.bench import (
    CORRECTNESS_NOTE,
    CSV_HEADER,
    REFERENCE_NOTE,
    TrialPlanner,
    TrialResult,
    aggregate,
    format_report,
    load_suite,
    make_planner,
    plot_trajectories,
    register_planner,
    rows_to_csv,
    run_suite,
    run_suite_file,
    run_trial,
    trial_seed,
)
from gridground.bundled import bundled_path
from gridground.classical import PlannedPath, astar, path_length
from gridground.errors import (
    AuthMissing,
    ConfigError,
    InvalidEndpoint,
    InvalidParams,
    MalformedReply,
    OutOfBounds,
    RetriesExhausted,
    ScorerFailure,
    ScorerTimeout,
    UnknownPlanner,
)
from gridground.gridmap import Connectivity, GridPose, random_map
from gridground.grounded import FailureReason, Instruction, PlannerConfig
from gridground.planners import FullpathPlanner, GroundedPlanner, build_planner
from gridground.scorers import MockScorer, OracleScorer
from gridground.simulator import DynamicObstacle, Scenario, execute, load_scenario, validate_external_path

from conftest import count_bfs_runs, grid_from_rows, open_grid


def corridor_scenario(**over):
    g = grid_from_rows([
        "#######",
        "#.....#",
        "#######",
    ])
    fields = dict(map=g, start=GridPose(1, 1), goal=GridPose(5, 1),
                  instruction_text="walk the corridor")
    fields.update(over)
    return Scenario(**fields)


def room_scenario():
    g = grid_from_rows([
        "#######",
        "#.....#",
        "#.....#",
        "#######",
    ])
    return Scenario(map=g, start=GridPose(1, 1), goal=GridPose(5, 2),
                    instruction_text="cross the room")


CORRIDOR_MAP_TEXT = "7 3 1.0\n#######\n#.....#\n#######\n"


def write_suite(tmp_path, planners=("astar",), trials=1):
    (tmp_path / "c.map").write_text(CORRIDOR_MAP_TEXT)
    (tmp_path / "case.yaml").write_text(
        "version: scenario_v1\n"
        "map_file: c.map\n"
        "start: [1, 1]\n"
        "goal: [5, 1]\n"
        "instruction_text: walk\n"
    )
    suite = tmp_path / "suite.yaml"
    planner_lines = "".join(f"  - {p}\n" for p in planners)
    suite.write_text(
        "version: suite_v1\n"
        f"planners:\n{planner_lines}"
        f"trials_per_pair: {trials}\n"
        "scenarios:\n"
        "  - id: corridor\n"
        "    file: case.yaml\n"
    )
    return suite


class TestTrialSeed:
    def test_sha256_prefix_big_endian(self):
        digest = hashlib.sha256(b"corridor|astar|0").digest()
        assert trial_seed("corridor", "astar", 0) == int.from_bytes(digest[:4], "big")

    def test_distinct_over_inputs(self):
        seeds = {
            trial_seed(sid, pid, i)
            for sid in ("a", "b") for pid in ("x", "y") for i in range(3)
        }
        assert len(seeds) == 12

    def test_stable_across_calls(self):
        assert trial_seed("s", "p", 5) == trial_seed("s", "p", 5)


class TestCsv:
    def test_header_frozen(self):
        assert CSV_HEADER == (
            "planner_id,scenario_id,seed,planning_time_ms,scorer_wall_time_ms,"
            "correct,path_length_m,replan_count"
        )

    def test_row_rendering(self):
        rows = [TrialResult("astar", "s", 7, 1.23456, 0.0, True, 4.0, 1),
                TrialResult("rrt", "s", 8, 0.5, 2.25, False, 0.0, 0)]
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "astar,s,7,1.235,0.000,true,4.000000,1"
        assert lines[2] == "rrt,s,8,0.500,2.250,false,0.000000,0"
        assert text.endswith("\n") and "\r" not in text

    def test_parses_back_with_csv_module(self):
        rows = [TrialResult("astar", "s", 1, 0.0, 0.0, True, 1.0, 0)]
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(rows))))
        assert parsed[0]["planner_id"] == "astar"
        assert parsed[0]["correct"] == "true"


class TestAggregate:
    def rows(self):
        return [
            TrialResult("astar", "s", 1, 10.0, 0.0, True, 4.0, 0),
            TrialResult("astar", "s", 2, 20.0, 0.0, True, 6.0, 0),
            TrialResult("astar", "s", 3, 60.0, 0.0, False, 0.0, 0),
            TrialResult("grounded:mock", "s", 4, 1.0, 9.0, False, 0.0, 1),
        ]

    def test_per_planner_stats(self):
        report = aggregate(self.rows())
        st = report.per_planner["astar"]
        assert st.trials == 3
        assert st.correct_rate == pytest.approx(2 / 3)
        assert st.mean_planning_time_ms == pytest.approx(30.0)
        assert st.median_planning_time_ms == pytest.approx(20.0)
        assert st.mean_path_length_m == pytest.approx(5.0)  # correct trials only

    def test_no_correct_trials_mean_path_none(self):
        report = aggregate(self.rows())
        assert report.per_planner["grounded:mock"].mean_path_length_m is None

    def test_first_appearance_order(self):
        report = aggregate(self.rows())
        assert list(report.per_planner) == ["astar", "grounded:mock"]

    def test_header_carries_both_notes(self):
        report = aggregate(self.rows())
        assert report.header == f"{CORRECTNESS_NOTE}\n{REFERENCE_NOTE}"


class TestFormatReport:
    def test_layout_and_disclaimers(self):
        text = format_report(aggregate([
            TrialResult("astar", "s", 1, 10.0, 0.0, True, 4.0, 0),
            TrialResult("astar", "s", 2, 30.0, 0.0, False, 0.0, 0),
        ]))
        assert text.startswith("benchmark report\n")
        assert REFERENCE_NOTE in text
        assert CORRECTNESS_NOTE in text
        assert "NOT reproduction targets" in text
        header = "planner            trials  correct    mean_ms  median_ms  mean_path_m"
        assert header in text
        assert "  50.00%" in text

    def test_dash_for_missing_mean_path(self):
        text = format_report(aggregate([
            TrialResult("rrt", "s", 1, 1.0, 0.0, False, 0.0, 0),
        ]))
        assert text.rstrip().endswith("-")


class TestRunTrial:
    def test_astar_corridor(self):
        row = run_trial(corridor_scenario(), "astar", seed=3, scenario_id="c1")
        assert row.planner_id == "astar" and row.scenario_id == "c1" and row.seed == 3
        assert row.correct is True
        assert row.path_length_m == pytest.approx(4.0)
        assert row.replan_count == 0
        assert row.scorer_wall_time_ms == 0.0
        assert row.planning_time_ms >= 0.0

    def test_default_scenario_id(self):
        assert run_trial(corridor_scenario(), "astar", 0).scenario_id == "scenario"

    def test_grounded_mock_tracks_scorer_time(self):
        row = run_trial(corridor_scenario(), "grounded:mock", seed=0)
        assert row.correct is True
        assert row.scorer_wall_time_ms > 0.0

    def test_grounded_oracle_matches_astar_length(self):
        sc = room_scenario()
        oracle = run_trial(sc, "grounded:oracle", 0)
        classical = run_trial(sc, "astar", 0)
        assert oracle.correct and classical.correct
        assert oracle.path_length_m == pytest.approx(classical.path_length_m)

    def test_rrt_corridor(self):
        row = run_trial(corridor_scenario(), "rrt", seed=1)
        assert row.correct is True

    def test_fullpath_oracle(self):
        row = run_trial(corridor_scenario(), "fullpath:oracle", 0)
        assert row.correct and row.path_length_m == pytest.approx(4.0)

    def test_fullpath_mock_collides_on_walls(self):
        g = grid_from_rows(["..#.."])
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(4, 0),
                      instruction_text="x")
        row = run_trial(sc, "fullpath:mock", 0)
        assert row.correct is False
        assert row.path_length_m == pytest.approx(1.0)  # stopped at the wall

    def test_unknown_planner_propagates(self):
        with pytest.raises(UnknownPlanner, match="registered"):
            run_trial(corridor_scenario(), "definitely-not-a-planner", 0)

    def test_failing_trial_recorded_not_raised(self):
        sc = corridor_scenario(instruction_text="")  # fails validation inside execute
        row = run_trial(sc, "astar", 5)
        assert row == TrialResult("astar", "scenario", 5, 0.0, 0.0, False, 0.0, 0)

    def test_unreachable_goal_zeroed(self):
        g = grid_from_rows([
            ".#.",
            ".#.",
            ".#.",
        ])
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(2, 2),
                      instruction_text="x")
        row = run_trial(sc, "astar", 0)
        assert row.correct is False and row.path_length_m == 0.0

    def test_registered_planner_available(self):
        class Straight:
            def plan(self, grid, start, goal, instruction_text):
                p = astar(grid, start, goal)
                return list(p.waypoints) if p else None

        register_planner("test:straight", lambda sc, seed: TrialPlanner(Straight()))
        try:
            assert run_trial(corridor_scenario(), "test:straight", 0).correct
        finally:
            del bench._REGISTRY["test:straight"]

    def test_registered_crashing_planner_propagates(self):
        # an exception that is not a GridGroundError is a bug, not a failed trial
        class Boom:
            def plan(self, grid, start, goal, instruction_text):
                raise RuntimeError("kaput")

        register_planner("test:boom", lambda sc, seed: TrialPlanner(Boom()))
        try:
            with pytest.raises(RuntimeError, match="kaput"):
                run_trial(corridor_scenario(), "test:boom", 0)
        finally:
            del bench._REGISTRY["test:boom"]

    def test_raising_scorer_propagates(self, tmp_path):
        # an exception out of the scorer call is the scorer's bug: no row, and bench writes no rows.csv
        def buggy(query):
            raise KeyError("oops")

        register_planner("test:buggy", lambda sc, seed: build_planner("grounded", buggy))
        try:
            with pytest.raises(KeyError, match="oops"):
                run_trial(corridor_scenario(), "test:buggy", 0)
            with pytest.raises(KeyError, match="oops"):
                cli.main(["bench", "--suite", str(write_suite(tmp_path, ("test:buggy",))),
                          "--out-dir", str(tmp_path / "out")])
            assert not (tmp_path / "out" / "rows.csv").exists()
        finally:
            del bench._REGISTRY["test:buggy"]

    @pytest.mark.parametrize("error,is_row", [
        (InvalidEndpoint, False), (OutOfBounds, False), (InvalidParams, False),
        (ScorerFailure, True), (RetriesExhausted, True), (ScorerTimeout, True),
        (AuthMissing, True), (MalformedReply, True),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else ("row" if v else "raises"))
    def test_registered_planner_package_error(self, error, is_row):
        # a scorer backend's failure is a failed trial; any other package error
        # out of a valid scenario's plan is a bug in the planner and propagates
        class Refuses:
            def plan(self, grid, start, goal, instruction_text):
                raise error("refused")

        register_planner("test:refuses", lambda sc, seed: TrialPlanner(Refuses()))
        try:
            if is_row:
                row = run_trial(corridor_scenario(), "test:refuses", 3)
                assert row == TrialResult("test:refuses", "scenario", 3, 0.0, 0.0, False, 0.0, 0)
            else:
                with pytest.raises(error, match="refused"):
                    run_trial(corridor_scenario(), "test:refuses", 3)
        finally:
            del bench._REGISTRY["test:refuses"]


class TestAdapterFailure:
    WALLED = [".#.", ".#.", ".#."]

    @pytest.mark.parametrize("pid", ["astar", "rrt"])
    def test_classical_no_path(self, pid):
        adapter = make_planner(pid, corridor_scenario(), 0).planner
        assert adapter.plan(grid_from_rows(self.WALLED), GridPose(0, 0), GridPose(2, 2), "x") is None
        assert adapter.failure == "no path found"

    def test_grounded_reason_detail_steps(self):
        adapter = GroundedPlanner(MockScorer(), PlannerConfig(max_steps=3))
        assert adapter.plan(open_grid(8, 1), GridPose(0, 0), GridPose(7, 0), "x") is None
        assert adapter.failure == "step_limit (goal not reached within 3 steps) after 3 steps"

    def test_fullpath_malformed_reply_text(self):
        adapter = FullpathPlanner(OracleScorer())
        assert adapter.plan(grid_from_rows(self.WALLED), GridPose(0, 0), GridPose(2, 2), "x") is None
        assert adapter.failure == "no path line found"

    def test_fullpath_start_is_goal_asks_nothing(self):
        class Silent:
            def route(self, grid, start, instruction):
                raise AssertionError("the model must not be asked")

        adapter = FullpathPlanner(Silent())
        assert adapter.plan(open_grid(3, 1), (1, 0), (1, 0), "x") == [GridPose(1, 0)]


class TestBuildPlanner:
    def test_unknown_kind(self):
        with pytest.raises(UnknownPlanner, match=r"^unknown planner 'dijkstra' \(expected astar, rrt, grounded, or fullpath\)$"):
            build_planner("dijkstra")

    def test_only_a_grounded_planner_tracks_its_scorer(self):
        # a fullpath reply counts as planning time, so its backend is not timed apart
        scorer = OracleScorer()
        assert build_planner("grounded", scorer).scorer is scorer
        fullpath = build_planner("fullpath", scorer)
        assert fullpath.scorer is None and fullpath.planner.scorer is scorer
        assert build_planner("astar").scorer is None and build_planner("rrt").scorer is None

    @pytest.mark.parametrize("connectivity", [5, 0, "4", None])
    def test_other_connectivity_is_invalid(self, connectivity):
        # the same error as astar(..., connectivity) raises, not a bare ValueError
        with pytest.raises(InvalidParams, match=r"^connectivity must be 4 or 8, got "):
            build_planner("astar", connectivity=connectivity)

    def test_options_reach_the_adapter(self):
        assert build_planner("astar", connectivity=8).planner.connectivity is Connectivity.EIGHT
        assert build_planner("rrt", seed=7).planner.params.seed == 7
        assert build_planner("grounded", MockScorer(), max_steps=3).planner.config.max_steps == 3


class TestFullpathReplies:
    def test_mock_staircase_x_then_y(self):
        g = open_grid(5, 5)
        reply = MockScorer().route(g, GridPose(1, 3), Instruction("x", GridPose(3, 1)))
        assert reply == "path: (1,3) (2,3) (3,3) (3,2) (3,1)"

    def test_mock_handles_negative_direction(self):
        g = open_grid(4, 4)
        reply = MockScorer().route(g, GridPose(3, 0), Instruction("x", GridPose(1, 0)))
        assert reply == "path: (3,0) (2,0) (1,0)"

    def test_oracle_renders_astar(self):
        g = grid_from_rows([
            "#######",
            "#.....#",
            "#######",
        ])
        reply = OracleScorer().route(g, GridPose(1, 1), Instruction("x", GridPose(5, 1)))
        assert reply == "path: (1,1) (2,1) (3,1) (4,1) (5,1)"

    def test_oracle_reports_no_route(self):
        g = grid_from_rows([".#.", ".#.", ".#."])
        reply = OracleScorer().route(g, GridPose(0, 0), Instruction("x", GridPose(2, 2)))
        assert reply == "no route found"

    def test_no_route_trial_is_clean_failure(self):
        g = grid_from_rows([".#.", ".#.", ".#."])
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(2, 2),
                      instruction_text="x")
        row = run_trial(sc, "fullpath:oracle", 0)
        assert row.correct is False and row.replan_count == 0


def nontiming(row):
    return (row.planner_id, row.scenario_id, row.seed, row.correct,
            round(row.path_length_m, 9), row.replan_count)


class ForwardingPlanner:
    """Wraps a registered planner the way an outside tracer does.

    It exposes only ``plan`` and a ``scorer`` property that forwards to the
    wrapped planner, so the bench's timed scorer lands on the inner planner.
    """

    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    @property
    def scorer(self):
        return self.inner.scorer

    @scorer.setter
    def scorer(self, value):
        self.inner.scorer = value

    def plan(self, grid, start, goal, instruction_text):
        self.log.append("plan")
        return self.inner.plan(grid, start, goal, instruction_text)


class CountingScorer:
    def __init__(self, inner, log):
        self.inner, self.log = inner, log

    def __call__(self, query):
        self.log.append("score")
        return self.inner(query)


class TestRegistryWrapping:
    PLANNERS = ["astar", "rrt", "grounded:mock", "fullpath:oracle"]

    def test_bench_names_are_the_planner_modules_own(self):
        # a wrapper registered through bench.register_planner must reach the registry that make_planner reads
        assert bench._REGISTRY is planners._REGISTRY
        assert (bench.register_planner, bench.make_planner, bench.TrialPlanner) == (
            planners.register_planner, planners.make_planner, planners.TrialPlanner)

    def scenarios(self):
        # two_corridor's obstacle lands on the first plan, so trials replan
        two = load_scenario(bundled_path("two_corridor.scenario.yaml"))
        return [("corridor", corridor_scenario()), ("room", room_scenario()), ("two", two)]

    def test_wrapped_factories_keep_rows(self):
        plain, _, _ = run_suite(self.scenarios(), self.PLANNERS, 2)
        saved = dict(bench._REGISTRY)
        logs: dict[str, list[str]] = {}

        def wrap(pid, own):
            def factory(scenario, seed):
                tp = own(scenario, seed)
                log = logs.setdefault(pid, [])
                scorer = None if tp.scorer is None else CountingScorer(tp.scorer, log)
                return TrialPlanner(ForwardingPlanner(tp.planner, log), scorer)

            return factory

        try:
            for pid in saved:
                register_planner(pid, wrap(pid, saved[pid]))
            wrapped, _, _ = run_suite(self.scenarios(), self.PLANNERS, 2)
        finally:
            bench._REGISTRY.clear()
            bench._REGISTRY.update(saved)
        assert all(bench._REGISTRY[pid] is saved[pid] for pid in saved)

        assert [nontiming(r) for r in wrapped] == [nontiming(r) for r in plain]
        # every first plan and every replan is one call of the wrapper's plan
        replans = sum(r.replan_count for r in wrapped)
        assert replans > 0
        assert sum(log.count("plan") for log in logs.values()) == len(wrapped) + replans
        # grounded scoring went through the wrapper's scorer and was timed
        assert logs["grounded:mock"].count("score") > 0
        assert all(r.scorer_wall_time_ms > 0 for r in wrapped if r.planner_id == "grounded:mock")
        assert all("score" not in logs[pid] for pid in ("astar", "rrt", "fullpath:oracle"))


class TestRunSuite:
    def scenarios(self):
        return [("corridor", corridor_scenario()), ("room", room_scenario())]

    def test_task_order_and_seeds(self):
        rows, report, samples = run_suite(self.scenarios(), ["astar", "rrt"], 2)
        keys = [(r.scenario_id, r.planner_id) for r in rows]
        assert keys == [
            ("corridor", "astar"), ("corridor", "astar"),
            ("corridor", "rrt"), ("corridor", "rrt"),
            ("room", "astar"), ("room", "astar"),
            ("room", "rrt"), ("room", "rrt"),
        ]
        for row, idx in zip(rows, [0, 1] * 4):
            assert row.seed == trial_seed(row.scenario_id, row.planner_id, idx)

    def test_deterministic_nontiming_columns(self):
        a, _, _ = run_suite(self.scenarios(), ["astar", "rrt", "grounded:mock"], 2)
        b, _, _ = run_suite(self.scenarios(), ["astar", "rrt", "grounded:mock"], 2)
        assert [nontiming(r) for r in a] == [nontiming(r) for r in b]

    def test_samples_are_trial_zero_trajectories(self):
        rows, _, samples = run_suite([("corridor", corridor_scenario())], ["astar"], 3)
        assert set(samples) == {("corridor", "astar")}
        assert [tuple(p) for p in samples[("corridor", "astar")]] == [
            (1, 1), (2, 1), (3, 1), (4, 1), (5, 1),
        ]

    @pytest.mark.parametrize("scenarios,planners,trials", [
        ([], ["astar"], 1),
        ([("c", None)], [], 1),
        ([("c", None)], ["astar"], 0),
    ])
    def test_config_errors(self, scenarios, planners, trials):
        if scenarios and scenarios[0][1] is None:
            scenarios = [("c", corridor_scenario())]
        with pytest.raises(ConfigError):
            run_suite(scenarios, planners, trials)

    def test_unknown_planner_checked_up_front(self):
        with pytest.raises(UnknownPlanner):
            run_suite([("c", corridor_scenario())], ["astar", "nope"], 1)

    def test_replayed_oracle_trials_share_their_fields(self, monkeypatch):
        # two_corridor's obstacle forces a replan on a sensed grid; every trial
        # derives byte-equal grids, so only the first one runs a BFS
        builds = count_bfs_runs(monkeypatch)
        own = bench._REGISTRY["grounded:oracle"]

        def marking(scenario, seed):
            builds.append("trial")
            return own(scenario, seed)

        monkeypatch.setitem(bench._REGISTRY, "grounded:oracle", marking)
        two = load_scenario(bundled_path("two_corridor.scenario.yaml"))
        rows, _, _ = run_suite([("two", two)], ["grounded:oracle"], 3)
        assert len({(r.correct, round(r.path_length_m, 9), r.replan_count) for r in rows}) == 1
        assert rows[0].correct and rows[0].replan_count > 0
        starts = [i for i, b in enumerate(builds) if b == "trial"]
        assert len(starts) == 3 and starts[0] == 0
        assert starts[1] >= 3  # trial 1 builds the base map's field and a sensed grid's
        assert builds[starts[1]:] == ["trial", "trial"]  # trials 2 and 3 build none


@st.composite
def valid_scenarios(draw):
    """Random valid scenarios: sides 2-30, density 0-0.3, 0-3 dynamic obstacles, sensing radius 1-3."""
    w, h = draw(st.integers(2, 30)), draw(st.integers(2, 30))
    base = random_map(w, h, draw(st.floats(0.0, 0.3)), draw(st.integers(0, 10_000)))
    g = grid_from_rows(base.rows(), draw(st.sampled_from([0.05, 0.5, 1.0])))
    free = [GridPose(x, y) for y in range(h) for x in range(w) if g.is_free(x, y)]  # the border is free
    # on free cells, so that some land on the walk and force a replan
    obstacles = st.builds(DynamicObstacle, st.sampled_from(free), st.integers(0, w + h))
    return Scenario(map=g, start=draw(st.sampled_from(free)), goal=draw(st.sampled_from(free)),
                    instruction_text="reach the goal",
                    dynamic_obstacles=tuple(draw(st.lists(obstacles, max_size=3))),
                    sensing_radius=draw(st.integers(1, 3)))


class TestTrialFuzz:
    @pytest.mark.parametrize("pid", sorted(bench._REGISTRY))
    @given(sc=valid_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_valid_scenarios_give_rows(self, pid, sc):
        rows, _, samples = run_suite([("s", sc)], [pid], 1)
        again, _, _ = run_suite([("s", sc)], [pid], 1)
        assert [nontiming(r) for r in again] == [nontiming(r) for r in rows]
        (row,), walk = rows, samples[("s", pid)]
        # no valid scenario reaches the trial's except clause: the same walk run
        # outside the trial raises nothing, and the row is its outcome
        planner = make_planner(pid, sc, row.seed).planner
        record = execute(sc, planner)
        assert (walk, row.replan_count) == (record.visited, record.replan_count)
        # the package's own backends answer every query on a valid scenario: a
        # failed walk is stuck or out of steps, never a scorer failure
        assert not planner.failure.startswith(FailureReason.SCORER_FAILURE.value)
        if row.correct:
            assert validate_external_path(sc, walk).valid
            assert row.path_length_m == (len(walk) - 1) * sc.map.resolution


class TestHashSeed:
    RUN = "import sys; sys.path.insert(0, sys.argv[1]); from gridground.cli import main; sys.exit(main(sys.argv[2:]))"

    def bench_under(self, hash_seed, out):
        src = Path(bench.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", self.RUN, str(src), "bench", "--out-dir", str(out)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed}, cwd=out.parent, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO((out / "rows.csv").read_text())))
        for row in rows:
            del row["planning_time_ms"], row["scorer_wall_time_ms"]
        return rows, {p.name: p.read_bytes() for p in sorted(out.glob("*.svg"))}

    def test_default_suite_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        rows_0, svgs_0 = self.bench_under("0", tmp_path / "h0")
        rows_1, svgs_1 = self.bench_under("1", tmp_path / "h1")
        assert len(rows_0) == 18 and rows_0 == rows_1  # 3 scenarios x 3 planners x 2 trials
        assert len(svgs_0) == 3 and svgs_0 == svgs_1


class TestSuiteFiles:
    def test_load_suite(self, tmp_path):
        suite = load_suite(write_suite(tmp_path, planners=("astar", "grounded:mock"), trials=2))
        assert suite.planners == ["astar", "grounded:mock"]
        assert suite.trials_per_pair == 2
        assert suite.scenarios[0][0] == "corridor"
        assert suite.scenarios[0][1].goal == GridPose(5, 1)

    @pytest.mark.parametrize("text,msg", [
        ("version: suite_v2\n", "version"),
        ("planners: [astar]\ntrials_per_pair: 1\nscenarios: []\nversion: suite_v1\n", "scenarios"),
        ("planners: []\ntrials_per_pair: 1\nscenarios: [{id: a, file: f}]\nversion: suite_v1\n", "planners"),
        ("planners: [astar]\ntrials_per_pair: 0\nscenarios: [{id: a, file: f}]\nversion: suite_v1\n",
         "trials_per_pair"),
        ("planners: [astar]\ntrials_per_pair: true\nscenarios: [{id: a, file: f}]\nversion: suite_v1\n",
         "trials_per_pair"),
        ("planners: [astar]\ntrials_per_pair: 10001\nscenarios: [{id: a, file: f}]\nversion: suite_v1\n",
         "'trials_per_pair' must be 1 to 10000, got 10001"),
        ("planners: [astar]\ntrials_per_pair: 1\nscenarios: [{id: a}]\nversion: suite_v1\n",
         "id.*file|file"),
        ("planners: [astar\n", "cannot read|version"),
    ])
    def test_rejections(self, tmp_path, text, msg):
        path = tmp_path / "suite.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=msg):
            load_suite(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_suite(tmp_path / "absent.yaml")

    def test_not_utf8(self, tmp_path):
        path = write_suite(tmp_path)
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        with pytest.raises(ConfigError, match="cannot read suite file"):
            load_suite(path)

    def test_integer_past_digit_limit(self, tmp_path):
        path = write_suite(tmp_path)
        path.write_text(path.read_text().replace("trials_per_pair: 1", "trials_per_pair: " + "1" * 5000))
        with pytest.raises(ConfigError, match="cannot read suite file"):
            load_suite(path)

    def test_run_suite_file_outputs(self, tmp_path):
        suite = write_suite(tmp_path, planners=("astar", "grounded:mock"), trials=2)
        out = tmp_path / "out"
        rows, report = run_suite_file(suite, out)
        assert len(rows) == 4
        csv_lines = (out / "rows.csv").read_text().splitlines()
        assert csv_lines[0] == CSV_HEADER
        assert len(csv_lines) == 5
        report_text = (out / "report.txt").read_text()
        assert "benchmark report" in report_text and REFERENCE_NOTE in report_text
        svg = (out / "trajectories_corridor.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert "astar" in svg and "grounded:mock" in svg

    def test_planner_labels_are_escaped(self, tmp_path, monkeypatch):
        monkeypatch.setitem(bench._REGISTRY, "a<b&c>", bench._REGISTRY["astar"])
        out = tmp_path / "out"
        run_suite_file(write_suite(tmp_path, planners=("astar", "a<b&c>")), out)
        root = ET.parse(out / "trajectories_corridor.svg").getroot()
        assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")] == ["astar", "a<b&c>"]

    def test_planner_bug_fails_the_bench_command(self, tmp_path, capsys, monkeypatch):
        # a package error that is neither bad input nor a scorer failure is a
        # bug: the command stops with it instead of writing a wrong row
        class OffTheMap:
            def plan(self, grid, start, goal, instruction_text):
                raise OutOfBounds("(9,9) outside 7x3 grid")

        monkeypatch.setitem(bench._REGISTRY, "test:off", lambda sc, seed: TrialPlanner(OffTheMap()))
        out = tmp_path / "out"
        rc = cli.main(["bench", "--suite", str(write_suite(tmp_path, planners=("astar", "test:off"))),
                       "--out-dir", str(out)])
        stdout, stderr = capsys.readouterr()
        assert (rc, stdout, stderr) == (1, "", "error: (9,9) outside 7x3 grid\n")
        assert not (out / "rows.csv").exists()


class TestPlotTrajectories:
    def test_small_map_geometry(self):
        sc = corridor_scenario()
        path = PlannedPath(tuple(GridPose(x, 1) for x in range(1, 6)), 1.0)
        svg = plot_trajectories(sc, [("astar", path)])
        assert 'width="56"' in svg  # 7 cells * 8 px
        assert '<polyline points="12,12 20,12 28,12 36,12 44,12"' in svg
        # full wall rows merge into one rect each
        assert '<rect x="0" y="0" width="56" height="8" fill="#333333"/>' in svg
        # start marker hollow, goal marker filled
        assert 'fill="none" stroke="#000000"' in svg
        assert '<circle cx="44" cy="12" r="4.8" fill="#000000"/>' in svg
        assert ">astar</text>" in svg

    def test_large_map_uses_small_cells(self):
        g = open_grid(80, 10)
        sc = Scenario(map=g, start=GridPose(0, 0), goal=GridPose(79, 9),
                      instruction_text="x")
        svg = plot_trajectories(sc, [("p", PlannedPath((GridPose(0, 0), GridPose(1, 0)), 1.0))])
        assert 'width="320"' in svg  # 80 cells * 4 px

    def test_unknown_cells_grey(self):
        g = grid_from_rows(["?..", "..."])
        sc = Scenario(map=g, start=GridPose(1, 0), goal=GridPose(2, 1),
                      instruction_text="x")
        svg = plot_trajectories(sc, [("p", PlannedPath((GridPose(1, 0), GridPose(2, 0)), 1.0))])
        assert 'fill="#bbbbbb"' in svg

    def test_deterministic_bytes(self):
        sc = corridor_scenario()
        path = PlannedPath(tuple(GridPose(x, 1) for x in range(1, 6)), 1.0)
        assert plot_trajectories(sc, [("a", path)]) == plot_trajectories(sc, [("a", path)])

    def test_legend_cycles_palette(self):
        sc = corridor_scenario()
        path = PlannedPath((GridPose(1, 1), GridPose(2, 1)), 1.0)
        svg = plot_trajectories(sc, [(f"p{i}", path) for i in range(3)])
        assert svg.count("<text") == 3
        assert 'stroke="#d62728"' in svg and 'stroke="#1f77b4"' in svg
