"""Per-layer measurement: traced planner adapters and boundary-input replays.

The traced run reaches the program's layers in two ways only, so that no
module internals are patched:

* factories registered through ``bench.register_planner`` that wrap the
  program's own planner adapters and scorer callables in spans and record
  the inputs they were handed (grids, endpoints, queries);
* replays of those recorded inputs, after the timed loop, through the
  public layer functions (``neighbors``, ``distance_field``, ``astar`` with
  eight-connectivity, ``supercover_cells``, the translator, fingerprints,
  cassettes, CSV/report/SVG rendering, path validation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from gridground import bench, classical, grounded, gridmap, scorers, simulator, translator
from gridground.gridmap import CellState, Connectivity, GridPose

from harness import SpanStats, Tracer, p50, time_calls

# (name, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("gridmap.load_map_ms", "ms"),
    ("gridmap.neighbors_ns", "ns"),
    ("gridmap.with_occupied_us", "us"),
    ("gridmap.sense_events", "count/trial"),
    ("classical.astar_ms", "ms"),
    ("classical.astar8_ms", "ms"),
    ("classical.distance_field_ms", "ms"),
    ("classical.rrt_ms", "ms"),
    ("classical.rrt_nodes", "count/call"),
    ("classical.supercover_us", "us"),
    ("grounded.plan_ms", "ms"),
    ("grounded.steps", "count/call"),
    ("grounded.step_self_us", "us"),
    ("grounded.stuck", "frac"),
    ("grounded.step_limit", "frac"),
    ("grounded.scorer_failure", "frac"),
    ("scorers.calls", "count/trial"),
    ("scorers.call_us_p50", "us"),
    ("scorers.oracle_field_builds", "count/trial"),
    ("scorers.oracle_hit_ratio", "frac"),
    ("scorers.cassette_load_ms", "ms"),
    ("scorers.cassette_hits", "count/trial"),
    ("scorers.cassette_misses", "count/trial"),
    ("scorers.cassette_append_us", "us"),
    ("scorers.fingerprint_us", "us"),
    ("scorers.attempts", "count/exch"),
    ("scorers.retries", "count/exch"),
    ("scorers.attempt_ok_ratio", "frac"),
    ("scorers.backoff_s", "s/exch"),
    ("scorers.endpoint_us", "us"),
    ("translator.step_prompt_us", "us"),
    ("translator.prompt_bytes", "bytes"),
    ("translator.parse_scores_us", "us"),
    ("translator.fullpath_prompt_us", "us"),
    ("translator.parse_path_us", "us"),
    ("simulator.load_scenario_ms", "ms"),
    ("simulator.execute_self_ms", "ms"),
    ("simulator.replans", "count/trial"),
    ("simulator.ticks", "count/trial"),
    ("simulator.validate_us", "us"),
    ("bench.csv_ms", "ms"),
    ("bench.report_ms", "ms"),
    ("bench.svg_ms", "ms"),
    ("bench.bytes_written", "bytes/op"),
    ("cli.plan_ms", "ms"),
    ("cli.fixed_ms", "ms"),
    ("trace.overhead_frac", "frac"),
]

# Replays stop adding inputs once a category has used this much time, so a
# run's tail stays short whatever the workload recorded.
REPLAY_BUDGET_S = 0.4
KEEP_INPUTS = 64  # recorded inputs kept per category for replay
KEEP_GRIDS = 256  # plan calls whose grids stay referenced for replay


@dataclass
class PlanCall:
    trial: str
    planner: str
    kind: str  # "plan" or "replan"
    grid: gridmap.OccupancyGrid | None  # kept for the first KEEP_GRIDS calls only
    start: GridPose
    goal: GridPose
    path: list | None
    seed: int = 0


@dataclass
class Recorder:
    """Boundary inputs and counts seen by the traced adapters."""

    op: int = 0
    plan_calls: list[PlanCall] = field(default_factory=list)
    scenarios: dict = field(default_factory=dict)  # trial -> Scenario handed to the factory
    scorer_calls: int = 0
    oracle_calls: int = 0
    oracle_builds: int = 0
    grounded_results: list = field(default_factory=list)  # (steps, failure value or None)
    step_queries: dict = field(default_factory=dict)  # episode key -> [(grid, state, instruction, candidates)]
    fullpath_queries: list = field(default_factory=list)  # (grid, start, instruction)
    trials: set = field(default_factory=set)
    sensed_grids: dict = field(default_factory=dict)  # trial -> ids of sensed grids


class _SpanScorer:
    """The trial's own scorer, called inside a span; counts the calls of each plan."""

    def __init__(self, tracer: Tracer, rec: Recorder, inner):
        self.tracer, self.rec, self.inner = tracer, rec, inner
        self.oracle = isinstance(inner, scorers.OracleScorer)
        self._grids: dict = {}
        self.returned = 0  # calls that returned since the plan call began
        self.raised = False  # whether the latest call raised

    def __call__(self, query):
        rec = self.rec
        rec.scorer_calls += 1
        name = "scorer.call"
        if self.oracle:
            rec.oracle_calls += 1
            key = (id(query.grid), tuple(query.instruction.goal))
            if key not in self._grids:
                # OracleScorer builds one distance field per (grid, goal) on
                # its first call, so this call's span is a distance_field call
                self._grids[key] = query.grid
                rec.oracle_builds += 1
                name = "scorer.field_build"
        self.raised = True
        with self.tracer.span(name):
            scores = self.inner(query)
        self.raised = False
        self.returned += 1
        return scores


# span around each planner's plan/replan calls, by the planner id's prefix
PLAN_SPANS = {"astar": "classical.astar", "rrt": "classical.rrt", "grounded": "grounded.plan"}


class _SpanPlanner:
    """The trial's own planner adapter, its plan/replan calls inside a span.

    Records each call's grid, endpoints and returned path for the replays,
    and for grounded planners the steps taken and why a plan failed.
    """

    def __init__(self, tracer: Tracer, rec: Recorder, kind: str, seed: int, inner, scorer: _SpanScorer | None):
        self.tracer, self.rec, self.kind, self.seed = tracer, rec, kind, seed
        self.inner, self.span_scorer = inner, scorer
        self.span_name = PLAN_SPANS[kind]

    # the bench hands the adapter its timing wrapper around the trial's scorer
    @property
    def scorer(self):
        return self.inner.scorer

    @scorer.setter
    def scorer(self, value):
        self.inner.scorer = value

    def _run(self, method, grid, start, goal, text, call_kind):
        rec = self.rec
        if self.span_scorer is not None:
            self.span_scorer.returned, self.span_scorer.raised = 0, False
        with self.tracer.span(self.span_name):
            path = method(grid, start, goal, text)
        if self.kind == "grounded":
            rec.grounded_results.append((self.span_scorer.returned, self._failure(grid, path)))
        trial = self.tracer.trial
        if rec.scenarios[trial].map is not grid:
            rec.sensed_grids.setdefault(trial, set()).add(id(grid))
        kept = grid if len(rec.plan_calls) < KEEP_GRIDS else None
        rec.plan_calls.append(
            PlanCall(trial, self.kind, call_kind, kept, GridPose(*start), GridPose(*goal), path, self.seed)
        )
        return path

    def _failure(self, grid, path) -> str | None:
        """grounded.FailureReason value of a grounded plan call, told from outside it."""
        if path is not None:
            return None
        if self.span_scorer.raised:
            return grounded.FailureReason.SCORER_FAILURE.value
        limit = grounded.PlannerConfig().max_steps or 4 * (grid.width + grid.height)
        if self.span_scorer.returned >= limit:
            return grounded.FailureReason.STEP_LIMIT.value
        return grounded.FailureReason.STUCK.value

    def plan(self, grid, start, goal, instruction_text):
        return self._run(self.inner.plan, grid, start, goal, instruction_text, "plan")

    def replan(self, grid, current, goal, instruction_text):
        return self._run(self.inner.replan, grid, current, goal, instruction_text, "replan")


def register_traced_planners(tracer: Tracer, rec: Recorder, planner_ids) -> None:
    """Wrap the factory each registry id holds in a span-recording one.

    The program's own factory still builds every trial's planner adapter and
    scorer; the wrapper only puts spans around them. The registry is read
    here, never patched: the wrappers go in through ``bench.register_planner``.
    Rows must not change, which the workloads check by digest against the
    untraced pass over the same inputs.
    """

    def wrap(pid: str, own):
        kind = pid.split(":")[0]

        def factory(scenario, seed):
            tracer.trial = f"{rec.op}|{pid}|{seed}"
            rec.trials.add(tracer.trial)
            rec.scenarios.setdefault(tracer.trial, scenario)
            tp = own(scenario, seed)
            scorer = None if tp.scorer is None else _SpanScorer(tracer, rec, tp.scorer)
            return bench.TrialPlanner(_SpanPlanner(tracer, rec, kind, seed, tp.planner, scorer), scorer)

        return factory

    for pid in planner_ids:
        bench.register_planner(pid, wrap(pid, bench._REGISTRY[pid]))


def visited_from_calls(calls: list[PlanCall]) -> list[GridPose]:
    """Rebuild the walked cells of one trial from its plan/replan calls."""
    walked: list[GridPose] = []
    for call, nxt in zip(calls, calls[1:] + [None]):
        path = [GridPose(*p) for p in (call.path or [])]
        if not walked:
            walked = [call.start]
        if nxt is not None and nxt.start in path:
            path = path[: path.index(nxt.start) + 1]
        for p in path:
            if p != walked[-1]:
                walked.append(p)
    return walked


def calls_by_trial(calls: list[PlanCall]) -> dict[str, list[PlanCall]]:
    out: dict[str, list[PlanCall]] = {}
    for c in calls:
        out.setdefault(c.trial, []).append(c)
    return out


# --- replays -------------------------------------------------------------------


def replay(fn, args_list, budget_s: float = REPLAY_BUDGET_S) -> tuple[float, int, list]:
    """Call fn over args_list until the budget is spent; returns (s, n, results)."""
    total, n, results = 0.0, 0, []
    for args in args_list:
        t0 = time.perf_counter()
        results.append(fn(*args))
        total += time.perf_counter() - t0
        n += 1
        if total > budget_s:
            break
    return total, n, results


def per_call(total_s: float, n: int, scale: float) -> float:
    return total_s / n * scale if n else 0.0


def replay_grid_layers(out: dict, map_texts: list[str], plan_calls: list[PlanCall]) -> None:
    """Replay map parsing, neighbour expansion and 8-connected A*."""
    if map_texts:
        s, n = time_calls(gridmap.load_map, [(t,) for t in map_texts], repeat=max(1, 20 // len(map_texts)))
        out["gridmap.load_map_ms"] = per_call(s, n, 1e3)
    grids = [gridmap.load_map(t) for t in map_texts[:3]]
    args = []
    for g in grids:
        for y in range(g.height):
            for x in range(g.width):
                if g.cells[y * g.width + x] is CellState.FREE:
                    args.append((g, GridPose(x, y), Connectivity.FOUR))
                    args.append((g, GridPose(x, y), Connectivity.EIGHT))
    if args:
        s, n, _ = replay(gridmap.neighbors, args)
        out["gridmap.neighbors_ns"] = per_call(s, n, 1e9)
    queries = [(c.grid, c.start, c.goal, Connectivity.EIGHT) for c in plan_calls[:KEEP_INPUTS] if c.grid is not None]
    if queries:
        s, n, _ = replay(classical.astar, queries)
        out["classical.astar8_ms"] = per_call(s, n, 1e3)


def replay_sensing(out: dict, plan_calls: list[PlanCall], scenarios: dict) -> None:
    """Replay each sensed grid seen by a planner as one with_occupied copy."""
    args = []
    for c in plan_calls:
        base = scenarios[c.trial].map
        if c.grid is None or c.grid is base or len(args) >= KEEP_INPUTS:
            continue
        extra = [
            GridPose(i % base.width, i // base.width)
            for i, (a, b) in enumerate(zip(base.cells, c.grid.cells))
            if a is not b
        ]
        args.append((base, extra))
    if args:
        s, n, _ = replay(lambda base, extra: base.with_occupied(extra), args)
        out["gridmap.with_occupied_us"] = per_call(s, n, 1e6)


def replay_rrt(out: dict, plan_calls: list[PlanCall]) -> None:
    """Regrow recorded RRT queries to count nodes, then time their edge checks."""
    queries = [c for c in plan_calls if c.planner == "rrt" and c.grid is not None]
    if not queries:
        return
    _, n, trees = replay(
        lambda c: classical.grow_rrt_tree(c.grid, c.start, c.goal, classical.RrtParams(seed=c.seed)),
        [(c,) for c in queries],
        budget_s=2.0,
    )
    out["classical.rrt_nodes"] = sum(len(t.points) for t in trees) / n
    edges = [(t.points[t.parents[i]], t.points[i]) for t in trees for i in range(1, len(t.points))]
    if edges:
        s, m = time_calls(classical.supercover_cells, edges)
        out["classical.supercover_us"] = per_call(s, m, 1e6)


def replay_validation(out: dict, scenarios: dict, plan_calls: list[PlanCall]) -> dict:
    """Time validate_external_path on rebuilt walks; returns trial -> walk."""
    walks = {t: visited_from_calls(cs) for t, cs in calls_by_trial(plan_calls).items()}
    args = [(scenarios[t], w) for t, w in walks.items()]
    if args:
        s, n, _ = replay(simulator.validate_external_path, args[:KEEP_INPUTS])
        out["simulator.validate_us"] = per_call(s, n, 1e6)
    return walks


def replay_translator(out: dict, fullpath_queries, replies) -> None:
    """Render recorded fullpath queries and parse recorded replies."""
    if fullpath_queries:
        s, n, _ = replay(translator.serialize_fullpath_prompt, fullpath_queries[:KEEP_INPUTS])
        out["translator.fullpath_prompt_us"] = per_call(s, n, 1e6)
    steps = [(c,) for k, c in replies if k == "step"][: KEEP_INPUTS * 8]
    paths = [(c,) for k, c in replies if k == "fullpath"][:KEEP_INPUTS]
    if steps:
        s, n, _ = replay(translator.parse_action_scores, steps)
        out["translator.parse_scores_us"] = per_call(s, n, 1e6)
    if paths:
        s, n, _ = replay(translator.parse_coordinate_list, paths)
        out["translator.parse_path_us"] = per_call(s, n, 1e6)


def span_layers(out: dict, stats: dict[str, SpanStats], rec: Recorder, trials: int) -> None:
    """Fill the live per-layer metrics from span statistics and counts."""

    def ms(name):
        return stats[name].mean() * 1e3 if name in stats else 0.0

    out["classical.astar_ms"] = ms("classical.astar")
    out["classical.distance_field_ms"] = ms("scorer.field_build")
    out["classical.rrt_ms"] = ms("classical.rrt")
    out["grounded.plan_ms"] = ms("grounded.plan")
    if rec.grounded_results:
        steps = sum(s for s, _ in rec.grounded_results)
        n = len(rec.grounded_results)
        out["grounded.steps"] = steps / n
        if steps and "grounded.plan" in stats:
            out["grounded.step_self_us"] = stats["grounded.plan"].self_total / steps * 1e6
        for reason in ("stuck", "step_limit", "scorer_failure"):
            out[f"grounded.{reason}"] = sum(1 for _, f in rec.grounded_results if f == reason) / n
    calls = [d for name in ("scorer.call", "scorer.field_build") if name in stats for d in stats[name].durations]
    if calls:
        out["scorers.call_us_p50"] = p50(calls) * 1e6
    if trials:
        out["scorers.calls"] = rec.scorer_calls / trials
        out["scorers.oracle_field_builds"] = rec.oracle_builds / trials
        out["gridmap.sense_events"] = sum(len(ids) for ids in rec.sensed_grids.values()) / trials
    if rec.oracle_calls:
        out["scorers.oracle_hit_ratio"] = 1.0 - rec.oracle_builds / rec.oracle_calls


def empty_metrics() -> dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}
