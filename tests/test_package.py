import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import gridground
from gridground import bench, classical, cli, grounded, inputs, planners, scorers, simulator, translator
from gridground.bundled import bundled_path
from gridground.gridmap import CellState, GridPose, OccupancyGrid
from gridground.inputs import load_yaml

SUBMODULES = ["bench", "classical", "errors", "gridmap", "grounded", "scorers", "simulator", "translator"]

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gridground; "
    "print(*sorted(m for m in sys.modules if m.startswith('gridground.'))); "
    "print(*sorted(n for n in vars(gridground) if not n.startswith('_')))"
)
# after a fresh import, the first access to one name: its module, and every gridground module then loaded
ACCESS = ("import sys; sys.path.insert(0, sys.argv[1]); import gridground; {access}; "
          "print(m is sys.modules['gridground.' + sys.argv[2]], *sorted(m for m in sys.modules if m.startswith('gridground.')))")


def run_probe(code: str, *args: str) -> str:
    src = Path(gridground.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-c", code, str(src), *args], capture_output=True, text=True, check=True).stdout


def test_bare_import_loads_no_submodule_and_exports_no_names():
    loaded, public = run_probe(PROBE).split("\n")[:2]
    assert loaded.split() == []
    assert public.split() == []


@pytest.mark.parametrize("access", ["m = gridground.{name}", "from gridground import {name} as m"])
@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_loads_on_first_access(name, access):
    found, *loaded = run_probe(ACCESS.format(access=access.format(name=name)), name).split()
    assert found == "True"
    assert f"gridground.{name}" in loaded


def test_dir_lists_the_submodules_and_other_names_raise():
    assert set(SUBMODULES) <= set(dir(gridground))
    # cli and bundled are imported by name only; planners and inputs load with the modules that use them
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import gridground; "
             "print(*[n for n in sys.argv[2:] if not hasattr(gridground, n)])")
    others = ["cli", "bundled", "planners", "inputs", "nope", "__all__"]
    assert run_probe(probe, *others).split() == others
    with pytest.raises(AttributeError, match="module 'gridground' has no attribute 'nope'"):
        gridground.nope


# cli.main running one plan in a fresh interpreter; prints the gridground modules it loaded
PLAN = """
import sys
sys.path.insert(0, sys.argv[1])
from gridground import cli
code = cli.main(["plan", "--map", sys.argv[2], "--start", "2,1", "--goal", "21,8", *sys.argv[3:]])
print(code, *sorted(m[len("gridground."):] for m in sys.modules if m.startswith("gridground.")))
"""


def test_an_astar_plan_loads_only_the_modules_it_runs():
    code, *loaded = run_probe(PLAN, str(bundled_path("corridor.map")), "--planner", "astar").splitlines()[-1].split()
    assert code == "0"
    assert loaded == ["classical", "cli", "errors", "gridmap", "inputs", "planners"]


@pytest.mark.parametrize("planner", ["grounded", "fullpath"])
def test_a_scored_plan_loads_neither_bench_nor_the_simulator(planner):
    args = [str(bundled_path("corridor.map")), "--planner", planner, "--scorer", "oracle"]
    code, *loaded = run_probe(PLAN, *args).splitlines()[-1].split()
    assert code == "0"
    assert {"grounded", "scorers", "translator"} <= set(loaded)
    assert not {"bench", "simulator"} & set(loaded)


# what the remote transport loads only when a live request is made, and yaml only when a file is parsed
LAZY = ["requests", "urllib3", "charset_normalizer", "urllib.request", "http.client", "ssl", "yaml"]


def test_bare_import_loads_no_http_stack():
    src = Path(gridground.__file__).resolve().parent.parent
    probe = f"import sys; sys.path.insert(0, sys.argv[1]); import gridground; print(*[m for m in {LAZY!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


# stdlib modules that gridground imports in the functions that use them. A fresh
# run of `gridground bench` (tests/test_bench.py::TestHashSeed) and of the remote
# chat path over a cassette (tests/test_cli.py::TestCassetteReplay::
# test_replay_needs_no_requests_package) show that each still loads on first use.
FIRST_USE = ["dataclasses", "inspect", "hashlib", "statistics", "csv", "json"]


@pytest.mark.parametrize("module", ["gridground", "gridground.cli"])
def test_fresh_import_loads_no_first_use_module(module):
    src = Path(gridground.__file__).resolve().parent.parent
    probe = (f"import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import {module}; "
             f"print(*[m for m in {FIRST_USE!r} if m in sys.modules and m not in before])")
    proc = subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_bundled_paths_are_the_package_resources():
    from importlib import resources

    names = sorted(p.name for p in (Path(gridground.__file__).resolve().parent / "data").iterdir())
    assert "default_suite.yaml" in names and "corridor.map" in names
    for name in names:
        assert bundled_path(name) == Path(str(resources.files("gridground").joinpath("data", name)))
        assert bundled_path(name).is_file()


_CELLS = (CellState.FREE, CellState.OCCUPIED, CellState.FREE)
_GRID = OccupancyGrid(3, 1, 0.5, _CELLS)
_PATH = classical.PlannedPath((GridPose(0, 0), GridPose(0, 1)), 0.5)
_SCORED = grounded.ScoredAction(grounded.ACTIONS[1], GridPose(1, 0), 0.5, 0.8, 0.4)

# Every record that was a dataclass: its fields in order, one value per field,
# and the defaults of its trailing fields (each value differs from its default).
RECORDS = [pytest.param(cls, fields, values, defaults, id=cls.__name__) for cls, fields, values, defaults in [
    (bench.TrialResult, ("planner_id", "scenario_id", "seed", "planning_time_ms", "scorer_wall_time_ms", "correct",
                         "path_length_m", "replan_count"), ("astar", "s", 7, 1.5, 0.0, True, 3.0, 1), {}),
    (planners.TrialPlanner, ("planner", "scorer"), (planners.AstarPlanner(), scorers.OracleScorer()), {"scorer": None}),
    (bench.PlannerStats, ("planner_id", "trials", "correct_rate", "mean_planning_time_ms", "median_planning_time_ms",
                          "mean_path_length_m"), ("rrt", 2, 0.5, 1.25, 1.0, None), {}),
    (bench.AggregateReport, ("header", "per_planner"), ("notes", {}), {}),
    (bench.Suite, ("scenarios", "planners", "trials_per_pair"), ([], ["astar"], 2), {}),
    (classical.PlannedPath, ("waypoints", "resolution"), (_PATH.waypoints, 0.5), {}),
    (classical.RrtParams, ("step_size", "goal_bias", "max_iterations", "goal_tolerance", "seed"), (2.0, 0.1, 100, 0.5, 7),
     {"step_size": 3.0, "goal_bias": 0.05, "max_iterations": 5000, "goal_tolerance": 1.0, "seed": 0}),
    (classical.RrtTree, ("points", "parents", "accepted"), ([(0.5, 0.5)], [-1], 0), {}),
    (OccupancyGrid, ("width", "height", "resolution", "cells"), (3, 1, 0.5, _CELLS), {}),
    (grounded.Action, ("id", "delta", "description"), (grounded.ActionId.UP, (0, -1), "move up one cell"), {}),
    (grounded.Instruction, ("text", "goal"), ("reach it", GridPose(2, 0)), {}),
    (grounded.ScoredAction, ("action", "candidate", "p_gpt", "p_util", "p_combined"), tuple(_SCORED), {}),
    (grounded.PlannerConfig, ("max_steps", "revisit_penalty"), (9, 0.25), {"max_steps": None, "revisit_penalty": 0.5}),
    (grounded.StepRecord, ("step", "state", "scored", "chosen"), (0, GridPose(0, 0), (_SCORED,), _SCORED), {}),
    (grounded.PlanResult, ("path", "steps", "failure", "detail"), (_PATH, [], grounded.FailureReason.STUCK, "why"),
     {"failure": None, "detail": ""}),
    (scorers.MockScorer, ("tau",), (0.25,), {"tau": 0.5}),
    (scorers.ChatEndpointConfig, ("base_url", "model_name", "api_key_env", "timeout", "max_retries", "temperature"),
     ("http://127.0.0.1:9/v1", "m", "KEY", 5.0, 1, 0.5),
     {"api_key_env": "API_KEY", "timeout": 30.0, "max_retries": 3, "temperature": 0.0}),
    (simulator.DynamicObstacle, ("cell", "appears_at_step"), (GridPose(1, 0), 3), {}),
    (simulator.Scenario, ("map", "start", "goal", "instruction_text", "dynamic_obstacles", "sensing_radius"),
     (_GRID, GridPose(0, 0), GridPose(2, 0), "go", (simulator.DynamicObstacle(GridPose(1, 0), 3),), 2),
     {"dynamic_obstacles": (), "sensing_radius": 1}),
    (simulator.ExecutionRecord, ("visited", "collided", "reached_goal", "replan_count", "steps_taken"),
     ([GridPose(0, 0)], False, True, 0, 1), {}),
    (simulator.PathValidation, ("valid", "rule", "index"), (False, "adjacency", 2), {"rule": None, "index": None}),
    (translator.StepPrompt, ("system_text", "user_text"), ("sys", "user"), {}),
    (translator.CoordinateReply, ("waypoints",), (_PATH.waypoints,), {}),
]]


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS)
def test_records_keep_their_dataclass_behaviour(cls, fields, values, defaults):
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    for record in (by_position, by_keyword):
        assert [getattr(record, f) for f in fields] == list(values)
    n = len(fields) - len(defaults)
    for record in (cls(*values[:n]), cls(**dict(zip(fields[:n], values)))):
        assert {f: getattr(record, f) for f in defaults} == defaults
    if issubclass(cls, tuple):  # a NamedTuple: named fields, the dataclass repr, immutable
        assert cls._fields == fields
        assert repr(by_position) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
        assert by_position == by_keyword == tuple(values)
    elif "__eq__" in vars(cls):  # OccupancyGrid and ChatEndpointConfig: equal over their fields
        assert by_position == by_keyword and by_position is not by_keyword
        assert by_position != cls(*values[:2], 2 * values[2], *values[3:])  # a resolution or a key name apart
    if issubclass(cls, tuple) or cls is OccupancyGrid:
        with pytest.raises(AttributeError):
            setattr(by_position, fields[0], values[0])
    if cls is OccupancyGrid:  # hashed over its content, a loaded or sensed copy included
        assert hash(by_position) == hash(by_keyword) == hash(_GRID.with_occupied(()))
        assert by_position == _GRID.with_occupied(()) != _GRID.with_occupied([GridPose(0, 0)])


# Reading the padded store or its cells view, or building a free_mask index by
# hand (a stride, width + 2, the private rows view or the mask's byte table),
# belongs in gridmap alone; other modules go through is_free/cell/rows and
# flat_index/flat_offsets/flat_pose/strip_pad.
LAYOUT_READS = re.compile(r"\._padded\b|\.cells\b|\bstride\b|width \+ 2|\._rows\b|_FREE_BYTE")


def test_only_gridmap_reads_the_cell_layout():
    src = Path(gridground.__file__).resolve().parent
    readers = sorted(
        (p.name, m.group()) for p in src.glob("*.py") if p.name != "gridmap.py"
        for m in LAYOUT_READS.finditer(p.read_text())
    )
    assert readers == []
    assert "._padded" in LAYOUT_READS.findall((src / "gridmap.py").read_text())  # the guard names the store


# A catch-all turns our own bug into an error message, a failed trial or a scorer failure.
CATCH_ALLS = re.compile(r"\bexcept\b(?:\s*:|[^:]*\b(?:Exception|BaseException)\b)")


def test_no_catch_all_except_in_the_package():
    src = Path(gridground.__file__).resolve().parent
    found = [(p.name, n, line.strip()) for p in sorted(src.glob("*.py"))
             for n, line in enumerate(p.read_text().splitlines(), 1) if CATCH_ALLS.search(line)]
    assert found == []
    guarded = ["except Exception:", "except BaseException as exc:", "except:", "except (ValueError, Exception):",
               "except(Exception):"]
    assert all(CATCH_ALLS.search(text) for text in guarded)  # the guard matches every form it names
    assert not CATCH_ALLS.search("except (OSError, ValueError) as exc:")


# The YAML loaders read their fields through inputs.read_field; a type check
# or a coercion written into one of them is a second way of doing that job.
HAND_CHECKS = re.compile(r"\b(?:isinstance|int|float)\(")


def test_loaders_leave_field_types_to_the_reader():
    loaders = [simulator.parse_scenario, bench.load_suite, cli._endpoint_config]
    checks = [(f.__name__, m.group()) for f in loaders for m in HAND_CHECKS.finditer(inspect.getsource(f))]
    assert checks == []
    assert HAND_CHECKS.search(inspect.getsource(inputs.read_field))  # the guard matches the reader's own check


@pytest.mark.parametrize("with_libyaml", [True, False])
def test_yaml_parses_through_libyaml_when_pyyaml_has_it(monkeypatch, with_libyaml):
    if with_libyaml and not yaml.__with_libyaml__:
        pytest.skip("PyYAML was built without libyaml")
    loaders = []
    real_load = yaml.load
    monkeypatch.setattr(yaml, "__with_libyaml__", with_libyaml)
    monkeypatch.setattr(yaml, "load", lambda text, Loader: loaders.append(Loader) or real_load(text, Loader))
    assert load_yaml("a: [1, 2]\n") == {"a": [1, 2]}
    assert loaders == [yaml.CSafeLoader if with_libyaml else yaml.SafeLoader]


def test_libyaml_documents_equal_pyyaml_on_the_bundled_files():
    data = Path(gridground.__file__).resolve().parent / "data"
    texts = [p.read_text(encoding="utf-8") for p in sorted(data.glob("*.yaml"))]
    assert len(texts) == 4
    assert [load_yaml(t) for t in texts] == [yaml.safe_load(t) for t in texts]
