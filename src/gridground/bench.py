"""Benchmark harness: repeated trials, aggregate metrics, CSV/report/SVG output.

Trial identity is deterministic: the seed for (scenario, planner, index) is a
stable hash, so two runs of the same suite agree on every non-timing column.
Planning time and scorer wall time are separate columns; transport latency
never pollutes algorithmic time. hashlib, statistics and csv are imported in
the functions that use them, so a process that runs no suite never loads them.
"""

from __future__ import annotations

import io
import time
from itertools import groupby
from pathlib import Path
from typing import NamedTuple, Sequence

from .classical import PlannedPath, path_length
from .errors import ConfigError, InvalidScenario, ScorerFailure
from .gridmap import CellState, GridPose
from .inputs import INTEGER, MAPPINGS, PATH, STRING, STRINGS, FieldKind, brief_repr, load_yaml, read_field
# _REGISTRY (the same dict), TrialPlanner and register_planner stay readable as bench's names
from .planners import _REGISTRY, TrialPlanner, _factory, make_planner, register_planner
from .simulator import Scenario, execute, load_scenario, validate_external_path

CSV_HEADER = (
    "planner_id,scenario_id,seed,planning_time_ms,scorer_wall_time_ms,"
    "correct,path_length_m,replan_count"
)

SUITE_VERSION = "suite_v1"
MAX_TRIALS_PER_PAIR = 10_000

# Shown verbatim at the top of every report. The cited absolute numbers come
# from the original GPT-3.5-turbo grid-planning experiments and are context
# only; desk-scale reruns use different maps, hardware, and scorer backends.
REFERENCE_NOTE = (
    "reference results (context only, NOT reproduction targets): "
    "GPT-3.5-turbo 10 ms mean planning, 81% correct, 6.34 m mean path; "
    "A* 72 ms, 95%; RRT 21 ms, 87%."
)

CORRECTNESS_NOTE = (
    "correctness is per-trial: a trial counts as correct iff the executed "
    "path reaches the goal collision-free and passes structural validation "
    "(start anchoring, 4-connected steps, free cells, goal termination)."
)


class TrialResult(NamedTuple):
    """One row of the raw results table."""

    planner_id: str
    scenario_id: str
    seed: int
    planning_time_ms: float
    scorer_wall_time_ms: float
    correct: bool
    path_length_m: float
    replan_count: int


# --- timing wrappers --------------------------------------------------------


class _Stopwatch:
    """Calls ``fn`` and adds the call's wall time to ``elapsed_s``.

    It times a scorer when called and a planner through ``plan``.
    """

    def __init__(self, fn):
        self.fn = fn
        self.elapsed_s = 0.0

    def __call__(self, *args):
        t0 = time.perf_counter()
        try:
            return self.fn(*args)
        finally:
            self.elapsed_s += time.perf_counter() - t0

    plan = __call__


# --- trials -----------------------------------------------------------------


def trial_seed(scenario_id: str, planner_id: str, trial_index: int) -> int:
    """Stable per-trial seed; process-salted hash() must not be used here."""
    import hashlib

    digest = hashlib.sha256(f"{scenario_id}|{planner_id}|{trial_index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _run_trial_full(
    scenario: Scenario, planner_id: str, seed: int, scenario_id: str
) -> tuple[TrialResult, list[GridPose]]:
    tp = make_planner(planner_id, scenario, seed)  # UnknownPlanner propagates
    visited: list[GridPose] = [GridPose(*scenario.start)]
    try:
        scorer_watch = None
        if tp.scorer is not None:
            scorer_watch = tp.planner.scorer = _Stopwatch(tp.scorer)  # type: ignore[attr-defined]
        plan_watch = _Stopwatch(tp.planner.plan)
        record = execute(scenario, plan_watch)
        visited = record.visited
        correct = record.reached_goal and validate_external_path(scenario, record.visited).valid
        scorer_ms = scorer_watch.elapsed_s * 1000.0 if scorer_watch else 0.0
        planning_ms = max(plan_watch.elapsed_s * 1000.0 - scorer_ms, 0.0)
        length_m = path_length(record.visited, scenario.map.resolution)
        row = TrialResult(
            planner_id=planner_id,
            scenario_id=scenario_id,
            seed=seed,
            planning_time_ms=planning_ms,
            scorer_wall_time_ms=scorer_ms,
            correct=correct,
            path_length_m=length_m,
            replan_count=record.replan_count,
        )
    except (InvalidScenario, ScorerFailure):
        # bad input or a failed scorer backend is data, not a crash: record it
        # as incorrect; any other error, ours or not, is a bug and propagates
        row = TrialResult(planner_id, scenario_id, seed, 0.0, 0.0, False, 0.0, 0)
    return row, visited


def run_trial(
    scenario: Scenario, planner_id: str, seed: int, scenario_id: str = "scenario"
) -> TrialResult:
    """Execute one trial; only the planner's plan calls are timed.

    An InvalidScenario or a ScorerFailure inside the trial is recorded as an
    all-zero correct=False row; any other exception, a GridGroundError too,
    is a bug, not a failed trial, and propagates.

    Raises:
        UnknownPlanner: planner_id is not registered.
    """
    row, _ = _run_trial_full(scenario, planner_id, seed, scenario_id)
    return row


# --- suites -----------------------------------------------------------------


class PlannerStats(NamedTuple):
    planner_id: str
    trials: int
    correct_rate: float
    mean_planning_time_ms: float
    median_planning_time_ms: float
    mean_path_length_m: float | None  # over correct trials only


class AggregateReport(NamedTuple):
    header: str
    per_planner: dict[str, PlannerStats]


def aggregate(rows: Sequence[TrialResult]) -> AggregateReport:
    """Recompute aggregate statistics from raw rows (pure function)."""
    import statistics

    grouped: dict[str, list[TrialResult]] = {}  # in first-seen order
    for row in rows:
        grouped.setdefault(row.planner_id, []).append(row)
    per: dict[str, PlannerStats] = {}
    for pid, rs in grouped.items():
        correct = [r for r in rs if r.correct]
        per[pid] = PlannerStats(
            planner_id=pid,
            trials=len(rs),
            correct_rate=len(correct) / len(rs),
            mean_planning_time_ms=statistics.mean(r.planning_time_ms for r in rs),
            median_planning_time_ms=statistics.median(r.planning_time_ms for r in rs),
            mean_path_length_m=(
                statistics.mean(r.path_length_m for r in correct) if correct else None
            ),
        )
    header = f"{CORRECTNESS_NOTE}\n{REFERENCE_NOTE}"
    return AggregateReport(header=header, per_planner=per)


def rows_to_csv(rows: Sequence[TrialResult]) -> str:
    """Render raw rows with the fixed header and LF line endings."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow(
            [
                r.planner_id,
                r.scenario_id,
                r.seed,
                f"{r.planning_time_ms:.3f}",
                f"{r.scorer_wall_time_ms:.3f}",
                "true" if r.correct else "false",
                f"{r.path_length_m:.6f}",
                r.replan_count,
            ]
        )
    return buf.getvalue()


def format_report(report: AggregateReport) -> str:
    """Plain-text report: disclaimer header plus a per-planner table."""
    lines = ["benchmark report", "", report.header, ""]
    lines.append(
        f"{'planner':<18} {'trials':>6} {'correct':>8} "
        f"{'mean_ms':>10} {'median_ms':>10} {'mean_path_m':>12}"
    )
    for pid, st in report.per_planner.items():
        path_m = f"{st.mean_path_length_m:.3f}" if st.mean_path_length_m is not None else "-"
        lines.append(
            f"{pid:<18} {st.trials:>6} {st.correct_rate:>8.2%} "
            f"{st.mean_planning_time_ms:>10.3f} {st.median_planning_time_ms:>10.3f} {path_m:>12}"
        )
    return "\n".join(lines) + "\n"


def run_suite(
    scenarios: Sequence[tuple[str, Scenario]],
    planners: Sequence[str],
    trials_per_pair: int,
) -> tuple[list[TrialResult], AggregateReport, dict[tuple[str, str], list[GridPose]]]:
    """Run every (scenario, planner, trial) combination.

    Returns the raw rows in deterministic task order, the aggregate report,
    and one sample trajectory (trial 0) per pair for plotting.

    Raises:
        ConfigError: empty suite or nonpositive trial count.
        UnknownPlanner: an unregistered planner id.
    """
    if not scenarios or not planners or trials_per_pair < 1:
        raise ConfigError("suite needs scenarios, planners, and trials_per_pair >= 1")
    for pid in planners:
        _factory(pid)
    rows: list[TrialResult] = []
    samples: dict[tuple[str, str], list[GridPose]] = {}
    for sid, scenario in scenarios:
        for pid in planners:
            for idx in range(trials_per_pair):
                row, visited = _run_trial_full(scenario, pid, trial_seed(sid, pid, idx), sid)
                rows.append(row)
                if idx == 0:
                    samples[(sid, pid)] = visited
    return rows, aggregate(rows), samples


# --- suite files (suite_v1) -------------------------------------------------


class Suite(NamedTuple):
    scenarios: list[tuple[str, Scenario]]
    planners: list[str]
    trials_per_pair: int


def _safe_id(v) -> bool:  # the id names the file trajectories_<id>.svg in the output directory
    return (STRING.accepts(v) or INTEGER.accepts(v)) and str(v) not in ("", ".", "..") and not set(str(v)) & set("/\\\0")


_SUITE_ID = FieldKind("a string or an integer, not empty, '.' or '..' and without '/', '\\' or NUL", _safe_id, str)


def load_suite(path: str | Path) -> Suite:
    """Read a suite_v1 file; scenario paths resolve beside it."""
    p = Path(path)
    try:  # a ValueError is a file that is not UTF-8 or not YAML
        doc = load_yaml(p.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read suite file {p}: {exc}") from exc
    if read_field(doc, "version", STRING, ConfigError, default=None) != SUITE_VERSION:
        raise ConfigError(f"suite file must declare version {SUITE_VERSION!r}")
    entries = read_field(doc, "scenarios", MAPPINGS, ConfigError)
    planners = read_field(doc, "planners", STRINGS, ConfigError)
    trials = read_field(doc, "trials_per_pair", INTEGER, ConfigError)
    if not entries:
        raise ConfigError("suite needs a non-empty 'scenarios' list")
    if not planners:
        raise ConfigError("suite needs a non-empty 'planners' list of ids")
    if not 1 <= trials <= MAX_TRIALS_PER_PAIR:
        raise ConfigError(f"'trials_per_pair' must be 1 to {MAX_TRIALS_PER_PAIR}, got {trials}")
    scenarios, seen = [], {}  # seen: id -> the index that first used it
    for i, entry in enumerate(entries):
        sid = read_field(entry, "id", _SUITE_ID, ConfigError, f"scenarios[{i}]")
        if sid in seen:
            raise ConfigError(f"scenarios[{i}].id {brief_repr(sid)} repeats scenarios[{seen[sid]}].id")
        seen[sid] = i
        scenarios.append((sid, load_scenario(p.parent / read_field(entry, "file", PATH, ConfigError, f"scenarios[{i}]"))))
    return Suite(scenarios=scenarios, planners=planners, trials_per_pair=trials)


def run_suite_file(
    suite_path: str | Path, out_dir: str | Path
) -> tuple[list[TrialResult], AggregateReport]:
    """Run a suite file and write rows.csv, report.txt, and one SVG per scenario.

    Raw rows land on disk first. A target that is a directory or a name too long is a ConfigError
    before the first trial; a failed write is one too, and keeps the files already written.
    """
    suite = load_suite(suite_path)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a ValueError is a NUL in the path
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    targets = [out / "rows.csv", out / "report.txt", *(out / f"trajectories_{sid}.svg" for sid, _ in suite.scenarios)]
    for target in targets:
        try:
            if target.is_dir():
                raise ConfigError(f"cannot write {target}: it is a directory")
        except OSError as exc:  # a name the file system cannot hold, say
            raise ConfigError(f"cannot write {target}: {exc}")
    rows, report, samples = run_suite(suite.scenarios, suite.planners, suite.trials_per_pair)
    texts = [rows_to_csv(rows), format_report(report)]
    for sid, scenario in suite.scenarios:
        labeled = [(pid, PlannedPath(tuple(samples[(sid, pid)]), scenario.map.resolution)) for pid in suite.planners]
        texts.append(plot_trajectories(scenario, labeled))
    for target, text in zip(targets, texts):
        try:
            target.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {target}: {exc}")
    return rows, report


# --- trajectory plots -------------------------------------------------------

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf")


def plot_trajectories(
    scenario: Scenario, paths: Sequence[tuple[str, PlannedPath]]
) -> str:
    """Render the map plus labeled trajectories as a deterministic SVG string.

    Occupied cells are dark, unknown cells grey; each path is a polyline
    through cell centers with a legend entry. Equal inputs give identical
    bytes, so plots can be diffed across runs.
    """
    grid = scenario.map
    cell = 8 if max(grid.width, grid.height) <= 64 else 4
    legend_h = 16 * len(paths) + 8
    width_px = grid.width * cell
    height_px = grid.height * cell + legend_h
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">',
        f'<rect x="0" y="0" width="{width_px}" height="{height_px}" fill="#ffffff"/>',
    ]
    # run-length merge per row keeps the file small on big maps
    for y, row in enumerate(grid.rows()):
        x = 0
        for ch, run in groupby(row):
            n = len(list(run))
            if ch != CellState.FREE.value:
                fill = "#333333" if ch == CellState.OCCUPIED.value else "#bbbbbb"
                out.append(
                    f'<rect x="{x * cell}" y="{y * cell}" width="{n * cell}" '
                    f'height="{cell}" fill="{fill}"/>'
                )
            x += n
    for i, (label, path) in enumerate(paths):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{(p[0] + 0.5) * cell:g},{(p[1] + 0.5) * cell:g}" for p in path.waypoints
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{max(cell // 4, 1)}" stroke-opacity="0.85"/>'
        )
    sx, sy = (scenario.start[0] + 0.5) * cell, (scenario.start[1] + 0.5) * cell
    gx, gy = (scenario.goal[0] + 0.5) * cell, (scenario.goal[1] + 0.5) * cell
    out.append(f'<circle cx="{sx:g}" cy="{sy:g}" r="{cell * 0.6:g}" fill="none" stroke="#000000" stroke-width="2"/>')
    out.append(f'<circle cx="{gx:g}" cy="{gy:g}" r="{cell * 0.6:g}" fill="#000000"/>')
    for i, (label, _) in enumerate(paths):
        color = _PALETTE[i % len(_PALETTE)]
        ly = grid.height * cell + 14 + 16 * i
        out.append(f'<rect x="4" y="{ly - 8}" width="18" height="4" fill="{color}"/>')
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # not html.escape: import time
        out.append(
            f'<text x="28" y="{ly}" font-family="monospace" font-size="12" fill="#000000">{text}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
