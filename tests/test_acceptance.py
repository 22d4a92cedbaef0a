"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Random-map criteria use border-corner endpoints: generated maps keep their
border ring free, so corner pairs are always mutually reachable and every
seeded map exercises the full comparison instead of degenerating into a
blocked-endpoint rejection.
"""

import csv
import os
import random
import time
from pathlib import Path

import pytest

from gridground import cli
from gridground.bench import make_planner
from gridground.bundled import bundled_path
from gridground.classical import (
    RrtParams,
    astar,
    rrt,
    supercover_cells,
)
from gridground.errors import MalformedReply
from gridground.gridmap import CellState, GridPose, load_map, random_map
from gridground.grounded import (
    ACTIONS,
    Instruction,
    PlannerConfig,
    affordance,
    plan,
    score_candidates,
    select_action,
)
from gridground.scorers import MockScorer, OracleScorer
from gridground.simulator import execute, load_scenario
from gridground.translator import parse_action_scores, parse_coordinate_list

import conftest
from conftest import open_grid
from reference import dijkstra_oracle, path_cost_cells


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("GRIDGROUND_"):
            monkeypatch.delenv(key)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else f"FAIL ({detail})"
    line = f"ACCEPTANCE {number} {name}: {status}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, f"criterion {number} {name}: {detail}"


def test_c1_astar_optimality_vs_exhaustive_search():
    mismatches = []
    t0 = time.perf_counter()
    for seed in range(200):
        grid = random_map(20, 20, 0.25, seed)
        start, goal = GridPose(0, 0), GridPose(19, 19)
        got = astar(grid, start, goal)
        want = dijkstra_oracle(grid, start, goal)
        if (got is None) != (want is None):
            mismatches.append((seed, "feasibility"))
        elif got is not None and abs(path_cost_cells(got) - want) > 1e-9:
            mismatches.append((seed, path_cost_cells(got), want))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    report(1, "astar cost equals exhaustive-search cost on 200 maps", ok,
           f"mismatches={mismatches[:3]} elapsed={elapsed:.2f}s")


def test_c2_oracle_backed_walk_matches_astar_cost():
    bad = []
    for seed in range(100):
        grid = random_map(15, 15, 0.25, seed)
        start, goal = GridPose(0, 0), GridPose(14, 14)
        best = astar(grid, start, goal)
        res = plan(OracleScorer(), grid, start, Instruction("reach the corner", goal))
        if best is None or not res.succeeded:
            bad.append((seed, "missing path"))
            continue
        if abs(path_cost_cells(res.path) - path_cost_cells(best)) > 1e-9:
            bad.append((seed, path_cost_cells(res.path), path_cost_cells(best)))
    report(2, "oracle-scored walk is cost-optimal on 100/100 maps", not bad,
           f"failures={bad[:3]}")


def test_c3_selected_action_never_has_zero_affordance():
    base = open_grid(3, 3)
    center = GridPose(1, 1)
    ring = [GridPose(x, y) for y in range(3) for x in range(3) if (x, y) != (1, 1)]
    violations = 0
    checked = 0
    for pattern in range(256):
        occupied = [c for i, c in enumerate(ring) if pattern >> i & 1]
        grid = base.with_occupied(occupied) if occupied else base
        utils = [affordance(grid, center, a) for a in ACTIONS]
        profiles = [
            (1.0, 1.0, 1.0, 1.0),
            (0.0, 0.0, 0.0, 0.0),
            (1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            tuple(1.0 if u == 0.0 else 0.0 for u in utils),  # adversarial mass
        ]
        cands = {GridPose(center.x + a.delta[0], center.y + a.delta[1]) for a in ACTIONS}
        for raw in profiles:
            scored = score_candidates(
                lambda q, raw=raw: raw, Instruction("x", GridPose(0, 0)), grid, center
            )
            for visited in (set(), cands):
                chosen = select_action(scored, visited, PlannerConfig())
                checked += 1
                if chosen is not None and chosen.p_util == 0.0:
                    violations += 1
    report(3, "zero-affordance action never selected over all 256 patterns",
           violations == 0, f"{violations} violations in {checked} selections")


def test_c4_mock_scorer_reaches_goal_reliably():
    config = PlannerConfig(revisit_penalty=0.5)
    scorer = MockScorer(tau=0.5)
    successes = 0
    for seed in range(100):
        grid = random_map(15, 15, 0.15, seed)
        res = plan(scorer, grid, GridPose(0, 0),
                   Instruction("reach the corner", GridPose(14, 14)), config)
        successes += res.succeeded
    rate_ok = successes >= 90

    exact = True
    for width, height, start, goal in [
        (15, 15, (0, 0), (14, 14)),
        (15, 15, (3, 12), (11, 2)),
        (9, 6, (8, 0), (0, 5)),
        (20, 4, (19, 3), (2, 1)),
        (7, 7, (3, 3), (3, 6)),
    ]:
        res = plan(scorer, open_grid(width, height), GridPose(*start),
                   Instruction("cross", GridPose(*goal)), config)
        manhattan = abs(start[0] - goal[0]) + abs(start[1] - goal[1])
        if not res.succeeded or len(res.path.waypoints) - 1 != manhattan:
            exact = False
    report(4, "distance-mock navigation success rate and open-map optimality",
           rate_ok and exact,
           f"successes={successes}/100 open_map_optimal={exact}")


def test_c5_rrt_paths_collision_free_and_reliable():
    grid = load_map(bundled_path("corridor.map").read_text(encoding="utf-8"))
    start, goal = GridPose(2, 1), GridPose(21, 8)
    successes = 0
    violations = 0
    for seed in range(100):
        path = rrt(grid, start, goal, RrtParams(seed=seed))
        if path is None:
            continue
        successes += 1
        for a, b in zip(path.waypoints, path.waypoints[1:]):
            cells = supercover_cells((a.x + 0.5, a.y + 0.5), (b.x + 0.5, b.y + 0.5))
            if any(grid.cell(c.x, c.y) is not CellState.FREE for c in cells):
                violations += 1
    ok = violations == 0 and successes >= 95
    report(5, "sampling planner edge safety and corridor success rate", ok,
           f"successes={successes}/100 violations={violations}")


def test_c6_parsers_survive_fuzzing():
    rng = random.Random(0)
    alphabet = "0123456789.eE+- ():,xyab\npathscore"

    def fuzz_text():
        kind = rng.randrange(6)
        if kind == 0:
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        if kind == 1:
            tokens = " ".join(
                rng.choice(["1", "2.5", "-3", "nan", "inf", "x", "1e4", "0.1"])
                for _ in range(rng.randrange(0, 7))
            )
            return f"scores: {tokens}"
        if kind == 2:
            pairs = " ".join(
                rng.choice(["(1,2)", "(3, 4)", "(-1,2)", "(a,b)", "(5,)", "7,8"])
                for _ in range(rng.randrange(0, 6))
            )
            return f"path: {pairs}"
        if kind == 3:
            return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
        if kind == 4:
            lines = [
                rng.choice(["prose", "scores: 1 1 1 1", "path: (0,0) (0,1)",
                            "scores: oops", "path: ???", ""])
                for _ in range(rng.randrange(1, 6))
            ]
            return "\n".join(lines)
        return "".join(chr(rng.randrange(32, 0x2FF)) for _ in range(rng.randrange(0, 40)))

    outcomes = {"ok": 0, "malformed": 0}
    for parser in (parse_action_scores, parse_coordinate_list):
        for _ in range(5000):
            payload = fuzz_text()
            try:
                parser(payload)
            except MalformedReply:
                outcomes["malformed"] += 1
            else:
                outcomes["ok"] += 1
    total = outcomes["ok"] + outcomes["malformed"]
    report(6, "10,000 fuzzed replies parse or raise the reply error only",
           total == 10_000, f"outcomes={outcomes}")


def strip_timing(csv_text):
    out = []
    for line in csv_text.splitlines():
        fields = line.split(",")
        del fields[3:5]  # planning_time_ms, scorer_wall_time_ms
        out.append(",".join(fields))
    return "\n".join(out)


@pytest.fixture(scope="module")
def default_bench_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_a")
    rc = cli.main(["bench", "--out-dir", str(out)])
    assert rc == 0
    return out


def test_c7_bench_rerun_is_deterministic(default_bench_run, tmp_path, capsys):
    second = tmp_path / "bench_b"
    rc = cli.main(["bench", "--out-dir", str(second)])
    capsys.readouterr()
    first_csv = (default_bench_run / "rows.csv").read_text(encoding="utf-8")
    second_csv = (second / "rows.csv").read_text(encoding="utf-8")
    ok = rc == 0 and strip_timing(first_csv) == strip_timing(second_csv)
    report(7, "benchmark reruns byte-identical outside timing columns", ok,
           "CSV rows diverged between runs")


def test_c8_benchmark_shape_and_path_inequality(default_bench_run):
    report_text = (default_bench_run / "report.txt").read_text(encoding="utf-8")
    table_ok = all(
        token in report_text
        for token in ("planner", "correct", "mean_ms", "median_ms", "mean_path_m",
                      "\nastar ", "\nrrt ", "\ngrounded:mock ")
    )
    disclaimer_ok = all(
        token in report_text
        for token in ("NOT reproduction targets", "10 ms", "72 ms", "21 ms",
                      "81%", "95%", "87%", "6.34 m")
    )

    rows = list(csv.DictReader((default_bench_run / "rows.csv").open()))
    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row["scenario_id"], []).append(row)
    inequality_ok = True
    jointly_correct = 0
    for sid, srows in by_scenario.items():
        grounded = [float(r["path_length_m"]) for r in srows
                    if r["planner_id"] == "grounded:mock" and r["correct"] == "true"]
        classical = [float(r["path_length_m"]) for r in srows
                     if r["planner_id"] == "astar" and r["correct"] == "true"]
        if grounded and classical:
            jointly_correct += 1
            if min(grounded) < max(classical) - 1e-9:
                inequality_ok = False
    ok = table_ok and disclaimer_ok and inequality_ok and jointly_correct >= 1
    report(8, "three-planner table, reference disclaimer, path-length ordering",
           ok,
           f"table={table_ok} disclaimer={disclaimer_ok} "
           f"inequality={inequality_ok} jointly_correct={jointly_correct}")


def test_c9_dynamic_scenario_forces_successful_replan():
    scenario = load_scenario(bundled_path("two_corridor.scenario.yaml"))
    planner = make_planner("grounded:oracle", scenario, seed=0).planner
    record = execute(scenario, planner)
    ok = record.replan_count >= 1 and not record.collided and record.reached_goal
    report(9, "sensed mid-run obstacle triggers a replan that still reaches the goal",
           ok,
           f"replans={record.replan_count} collided={record.collided} "
           f"reached={record.reached_goal}")
