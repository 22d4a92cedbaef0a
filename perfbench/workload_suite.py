"""suite_bundled: one op is one ``bench.run_suite_file`` call.

The suite file holds the three bundled scenarios x astar, rrt and
grounded:mock, one trial per pair, run at parallelism 1 as ``gridground
bench`` runs it. Scenario ids carry the seed and the op's batch index, so
``trial_seed`` hands every batch fresh RRT seeds and a run averages over many
RRT trees instead of replaying a few.
"""

from __future__ import annotations

import csv
import io
import shutil
import time
from pathlib import Path

import yaml
from gridground import bench, simulator
from gridground.bundled import bundled_path
from gridground.classical import PlannedPath

import layers
from harness import Digest, OpResult, Tracer, span, time_calls

SCENARIOS = ("reference_world", "corridor", "two_corridor")
PLANNERS = ("astar", "rrt", "grounded:mock")
TIMING_COLUMNS = ("planning_time_ms", "scorer_wall_time_ms")
REPORT_TIMING = ("mean_ms", "median_ms")


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def swallowed(row: dict) -> bool:
    """The row the harness writes when a planner raised inside a trial."""
    return row["correct"] == "false" and all(row[c] == "0.000" for c in TIMING_COLUMNS)


def csv_without_timing(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    return "\n".join(",".join(r[i] for i in keep) for r in rows)


def report_without_timing(text: str) -> str:
    """The report with its timing columns cut out of the planner table."""
    out, drop = [], None
    for line in text.splitlines():
        tokens = line.split()
        if drop is None and all(t in tokens for t in REPORT_TIMING):
            drop = {tokens.index(t) for t in REPORT_TIMING}
        if drop is not None and tokens:
            line = " ".join(t for i, t in enumerate(tokens) if i not in drop)
        out.append(line)
    return "\n".join(out)


def share(n: int, d: int) -> str:
    return f"{n / d:.3f} ({n}/{d})" if d else "n/a"


class SuiteBundled:
    """Set-up, ops, checks and layer metrics of this workload."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rows: list[dict] = []  # rows.csv rows of every op, for traffic
        self.traced_rows: list = []  # TrialResult lists returned to traced ops
        self.bytes_written: list[int] = []
        self.stress: list[str] = []

    def setup(self, work: Path) -> None:
        self.work = work
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        for sid in SCENARIOS:
            src = bundled_path(f"{sid}.scenario.yaml")
            shutil.copy(src, self.inputs)
            doc = yaml.safe_load(src.read_text(encoding="utf-8"))
            if "map_file" in doc:
                shutil.copy(src.parent / doc["map_file"], self.inputs)
        self.map_texts = [p.read_text(encoding="utf-8") for p in sorted(self.inputs.glob("*.map"))]

    def key(self, i: int) -> str:
        return f"b{i}"

    def check_keys(self) -> list[int]:
        """Op indices the reference digest covers."""
        return [0, 1]

    def reference_parts(self) -> list[tuple[str, str]]:
        return []

    def suite_text(self, i: int) -> str:
        lines = [
            "version: suite_v1",
            "planners: [" + ", ".join(f'"{p}"' for p in PLANNERS) + "]",
            "trials_per_pair: 1",
            "scenarios:",
        ]
        for sid in SCENARIOS:
            lines += [f"  - id: {sid}-s{self.seed}-b{i}", f"    file: {sid}.scenario.yaml"]
        return "\n".join(lines) + "\n"

    def op(self, i: int, tracer: Tracer | None = None) -> OpResult:
        suite = self.inputs / f"suite_b{i}.yaml"
        suite.write_text(self.suite_text(i), encoding="utf-8")
        out = self.work / "out"
        if out.exists():
            shutil.rmtree(out)
        res = OpResult(trials=len(SCENARIOS) * len(PLANNERS), key=self.key(i))
        t0 = time.perf_counter()
        try:
            with span(tracer, "op"):
                returned, _ = bench.run_suite_file(suite, out)
        except Exception as exc:  # a raising op is a failed op, not a crash
            res.seconds = time.perf_counter() - t0
            res.failed = True
            res.errors.append(f"{res.key}: run_suite_file raised {type(exc).__name__}: {exc}")
            return res
        res.seconds = time.perf_counter() - t0
        if tracer is not None:
            self.traced_rows.append(returned)
        self._check(res, out)
        suite.unlink()
        return res

    def _check(self, res: OpResult, out: Path) -> None:
        csv_text = (out / "rows.csv").read_text(encoding="utf-8")
        rows = csv_rows(csv_text)
        self.rows.extend(rows)
        digest = Digest()
        digest.add("rows", csv_without_timing(csv_text))
        digest.add("report", report_without_timing((out / "report.txt").read_text(encoding="utf-8")))
        files = sorted(out.iterdir())
        for svg in (p for p in files if p.suffix == ".svg"):
            digest.add(svg.name, svg.read_bytes())
        self.bytes_written.append(sum(p.stat().st_size for p in files))
        res.digest = digest.hexdigest()
        if len(rows) != res.trials:
            res.errors.append(f"{res.key}: {len(rows)} rows, expected {res.trials}")
        if any(swallowed(r) for r in rows):
            res.failed = True
            res.errors.append(f"{res.key}: a trial raised and was recorded as an incorrect 0 ms row")
        for r in rows:
            if r["planner_id"] == "astar" and r["correct"] != "true":
                res.errors.append(f"{res.key}: astar failed on {r['scenario_id']}")

    def traffic(self) -> dict:
        n = len(self.rows)
        return {
            "map sizes": "100x100, 24x10, 13x5 (bundled)",
            "trials with >=1 replan": share(sum(1 for r in self.rows if int(r["replan_count"]) > 0), n),
            "rrt trials": share(sum(1 for r in self.rows if r["planner_id"] == "rrt"), n),
            "bytes written per op": f"{sum(self.bytes_written) / max(1, len(self.bytes_written)):.0f}",
        }

    def start_trace(self, tracer: Tracer, rec: layers.Recorder) -> None:
        layers.register_traced_planners(tracer, rec, PLANNERS)

    def layer_metrics(self, out: dict, tracer: Tracer, rec: layers.Recorder, traced: list[OpResult]) -> None:
        stats = tracer.summary()
        trials = len(rec.trials)
        layers.span_layers(out, stats, rec, trials)
        if "op" in stats and trials:
            out["simulator.execute_self_ms"] = stats["op"].self_total / trials * 1e3
        returned = [r for rows in self.traced_rows for r in rows]
        if returned:
            out["simulator.replans"] = sum(r.replan_count for r in returned) / len(returned)
        layers.replay_grid_layers(out, self.map_texts, rec.plan_calls)
        layers.replay_sensing(out, rec.plan_calls, rec.scenarios)
        layers.replay_rrt(out, rec.plan_calls)
        walks = layers.replay_validation(out, rec.scenarios, rec.plan_calls)
        if walks:
            out["simulator.ticks"] = sum(len(w) - 1 for w in walks.values()) / len(walks)
        self._replay_bench(out, rec, walks)
        if "op" in stats and "classical.rrt" in stats:
            rrt, op = stats["classical.rrt"].total, stats["op"].total
            self.stress = [f"classical.rrt time / op time = {rrt:.3f} / {op:.3f} s = {rrt / op:.2f}"]

    def _replay_bench(self, out: dict, rec: layers.Recorder, walks: dict) -> None:
        suites = self.traced_rows[: layers.KEEP_INPUTS]
        if suites:
            s, n = time_calls(bench.rows_to_csv, [(rows,) for rows in suites])
            out["bench.csv_ms"] = s / n * 1e3
            s, n = time_calls(lambda rows: bench.format_report(bench.aggregate(rows)), [(rows,) for rows in suites])
            out["bench.report_ms"] = s / n * 1e3
        files = [(self.inputs / f"{sid}.scenario.yaml",) for sid in SCENARIOS]
        s, n = time_calls(simulator.load_scenario, files, repeat=5)
        out["simulator.load_scenario_ms"] = s / n * 1e3
        # one SVG per scenario per op, each with the first walk of every planner
        plots: dict[int, tuple] = {}
        for trial, walk in walks.items():
            scenario = rec.scenarios[trial]
            planner = trial.split("|")[1]
            labeled = plots.setdefault(id(scenario), (scenario, {}))[1]
            labeled.setdefault(planner, PlannedPath(tuple(walk), scenario.map.resolution))
        args = [(sc, list(labeled.items())) for sc, labeled in plots.values()]
        if args:
            s, n, _ = layers.replay(bench.plot_trajectories, args)
            out["bench.svg_ms"] = s / n * 1e3 * len(SCENARIOS)
        if self.bytes_written:
            out["bench.bytes_written"] = sum(self.bytes_written) / len(self.bytes_written)
