"""chat_cassette: one op is one episode of the language-model planning path.

Episodes are grounded walks (one model exchange per step) and fullpath plans
(one exchange per episode) on reference_world, corridor and seeded 32x32 and
64x64 maps. Three in four replay a cassette recorded during set-up through
``cli.main(["plan", ..., "--scorer", "remote", "--cassette", ...])``; the
rest are fresh map/goal pairs that miss and are recorded through
``RemoteScorer`` with ``Cassette(record=True)`` against the in-process
endpoint, with a recording ``sleep`` in place of real backoff. No network is
ever touched: the CLI only replays, and the recorder's transport is the
endpoint object.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import yaml
from gridground import classical, cli, grounded, gridmap, scorers, translator
from gridground.bundled import bundled_path
from gridground.errors import MalformedReply
from gridground.gridmap import GridPose

import gen
import layers
from harness import Digest, OpResult, Tracer, p50, span, time_calls

KEY_ENV = "PERFBENCH_API_KEY"
MODEL = "perfbench-model"
INSTRUCTION = "walk to the goal cell along free cells"
# (map id, planner) of each episode recorded in set-up
REPLAY = (
    ("reference_world", "grounded"), ("reference_world", "fullpath"),
    ("corridor", "grounded"), ("corridor", "fullpath"),
    ("m32a", "grounded"), ("m32b", "grounded"), ("m64a", "grounded"),
)
# One cycle of the timed loop: 15 replays (index into REPLAY) and 5 fresh
# episodes ((size, planner), each on a new seeded map). Per cycle, 5 ops are
# fullpath or corridor episodes of a few ms, 10 are 32x32 walks, 1 is a
# 64x64 walk and 4 are reference_world walks, so op_ms_p50 sits in the
# middle of the 32x32 walks and op_ms_p90 in the middle of the
# reference_world walks instead of on a gap between clusters, where a
# quantile would jump with the run's length.
SCHEDULE = (
    0, 4, (32, "grounded"), 5, 1,
    0, 4, (32, "fullpath"), 5, 2,
    0, 4, (32, "grounded"), 5, 6,
    0, 4, (64, "fullpath"), 3, (32, "grounded"),
)
SEEDED_MAPS = (("m32a", 32), ("m32b", 32), ("m64a", 64))
CHECK_MISSES = 5
RECORDED_WALKS = 6  # fresh walks whose step queries a traced run keeps for replay


@functools.cache
def accepted_states(seed: int) -> dict:
    """The RNG state each seeded set-up map's accepted draw starts from (searched once, untimed)."""
    return {name: gen.accepted_draw(gen.rng_for("chat_cassette", seed, name), gen.open_map_draw, size)[1]
            for name, size in SEEDED_MAPS}


def endpoint_config() -> scorers.ChatEndpointConfig:
    # must match the config file handed to the CLI, or fingerprints differ
    return scorers.ChatEndpointConfig(
        base_url="http://127.0.0.1:9/v1", model_name=MODEL, api_key_env=KEY_ENV, max_retries=3
    )


CONFIG_YAML = f"""remote:
  base_url: http://127.0.0.1:9/v1
  model_name: {MODEL}
  api_key_env: {KEY_ENV}
  max_retries: 3
"""


def waypoint_text(waypoints) -> str:
    return "".join(f"({p[0]},{p[1]})\n" for p in waypoints)


def fingerprints(path: Path) -> list[str]:
    return [json.loads(line)["request_hash"] for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def route_ok(rows: list[str], start, goal, waypoints) -> bool:
    """Own check: a 4-adjacent route over free cells of shortest length."""
    w = len(rows[0])
    if not waypoints or tuple(waypoints[0]) != tuple(start) or tuple(waypoints[-1]) != tuple(goal):
        return False
    for a, b in zip(waypoints, waypoints[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1 or rows[b[1]][b[0]] in "#?":
            return False
    return len(waypoints) - 1 == gen.bfs(rows, start)[goal[1] * w + goal[0]]


@dataclass
class Replay:
    map_name: str
    planner: str
    argv: list
    expected: str  # the waypoint lines the CLI must print
    points: int
    cassette: Path


class _Sleep:
    """Records requested backoff instead of sleeping."""

    def __init__(self):
        self.requested: list[float] = []

    def __call__(self, seconds: float) -> None:
        self.requested.append(seconds)


class _Transport:
    """Span and attempt accounting around the endpoint (traced ops only)."""

    def __init__(self, endpoint, tracer: Tracer):
        self.endpoint, self.tracer = endpoint, tracer
        self.attempts = self.ok = 0

    def __call__(self, url, headers, body, timeout):
        self.attempts += 1
        with self.tracer.span("endpoint"):
            status, text = self.endpoint(url, headers, body, timeout)
        self.ok += status == 200
        return status, text


class _QueryRecorder:
    def __init__(self, inner, tracer: Tracer, queries: list | None):
        self.inner, self.tracer, self.queries = inner, tracer, queries
        self.calls = 0

    def __call__(self, query):
        self.calls += 1
        if self.queries is not None:
            self.queries.append((query.grid, query.state, query.instruction, query.candidates))
        with self.tracer.span("scorer.call"):
            return self.inner(query)


class ChatCassette:
    """Set-up, ops, checks and layer metrics of this workload."""

    def __init__(self, seed: int):
        self.seed = seed
        self.states = accepted_states(seed)
        self.sleep = _Sleep()
        self.endpoint = gen.Endpoint(seed)
        self.ops: list[tuple[str, int]] = []  # (kind, exchanges) per op
        self.transport: _Transport | None = None
        self.rec: layers.Recorder | None = None
        self.stress: list[str] = []

    # --- set-up ---

    def setup(self, work: Path) -> None:
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        (work / "miss").mkdir()
        os.environ[KEY_ENV] = "perfbench-local-key"
        self.config = work / "config.yaml"
        self.config.write_text(CONFIG_YAML, encoding="utf-8")
        self.maps: dict[str, tuple[Path, list[str], tuple, tuple, str]] = {}
        for name in ("reference_world", "corridor"):
            doc = yaml.safe_load(bundled_path(f"{name}.scenario.yaml").read_text(encoding="utf-8"))
            text = bundled_path(doc["map_file"]).read_text(encoding="utf-8")
            self._add_map(name, text, tuple(doc["start"]), tuple(doc["goal"]), doc["instruction_text"])
        for name, size in SEEDED_MAPS:
            rows, start, goal = gen.redraw(self.states[name], gen.open_map_draw, size)
            self._add_map(name, gen.map_text(rows), start, goal, INSTRUCTION)
        self.replays = []
        for name, planner in REPLAY:
            path, rows, start, goal, instruction = self.maps[name]
            cassette = work / f"replay{len(self.replays)}.jsonl"
            waypoints = self._record(path.read_text(encoding="utf-8"), start, goal, instruction, planner, cassette)
            if not route_ok(rows, start, goal, waypoints):
                raise RuntimeError(f"recording {name} {planner} did not reach the goal by a shortest route")
            argv = [
                "plan", "--map", str(path), "--start", f"{start[0]},{start[1]}",
                "--goal", f"{goal[0]},{goal[1]}", "--planner", planner, "--scorer", "remote",
                "--cassette", str(cassette), "--instruction", instruction, "--config", str(self.config),
            ]
            self.replays.append(Replay(name, planner, argv, waypoint_text(waypoints), len(waypoints), cassette))

    def _add_map(self, name, text, start, goal, instruction) -> None:
        path = self.work / f"{name}.map"
        path.write_text(text, encoding="utf-8")
        self.maps[name] = (path, gen.parse_map_text(text), start, goal, instruction)

    def _record(self, text, start, goal, instruction, planner, cassette: Path, tracer: Tracer | None = None,
                key: str = ""):
        """One episode through RemoteScorer recording into ``cassette``."""
        self.endpoint.new_episode()
        transport = self.transport if tracer is not None else self.endpoint
        scorer = scorers.RemoteScorer(
            endpoint_config(), cassette=scorers.Cassette(cassette, record=True), transport=transport, sleep=self.sleep
        )
        grid = gridmap.load_map(text)
        instr = grounded.Instruction(instruction, GridPose(*goal))
        if planner == "grounded":
            if tracer is not None:
                keep = len(self.rec.step_queries) < RECORDED_WALKS
                scorer = _QueryRecorder(scorer, tracer, self.rec.step_queries.setdefault(key, []) if keep else None)
            with span(tracer, "grounded.plan"):
                res = grounded.plan(scorer, grid, GridPose(*start), instr, grounded.PlannerConfig(max_steps=None))
            if tracer is not None:
                self.rec.grounded_results.append((len(res.trace), res.failure.value if res.failure else None))
                self.rec.scorer_calls += scorer.calls
            return list(res.path.waypoints) if res.succeeded else []
        query = (grid, GridPose(*start), instr)
        if tracer is not None:
            if len(self.rec.fullpath_queries) < layers.KEEP_INPUTS:
                self.rec.fullpath_queries.append(query)
            self.rec.scorer_calls += 1
        with span(tracer, "scorer.call"):
            reply = scorer.complete_text(translator.serialize_fullpath_prompt(*query))
        try:
            return list(translator.parse_coordinate_list(reply).waypoints)
        except MalformedReply:
            return []

    # --- ops ---

    def key(self, i: int) -> str:
        cycle, pos = divmod(i, len(SCHEDULE))
        entry = SCHEDULE[pos]
        if isinstance(entry, int):
            return f"r{entry}"
        misses = [e for e in SCHEDULE if not isinstance(e, int)]
        return f"m{cycle * len(misses) + sum(1 for e in SCHEDULE[:pos] if not isinstance(e, int))}"

    def check_keys(self) -> list[int]:
        """Op indices that cover every replayed episode and the first fresh ones."""
        idx, seen = [], set()
        for i in range(len(SCHEDULE) * CHECK_MISSES):
            k = self.key(i)
            if k not in seen and (k[0] == "r" or int(k[1:]) < CHECK_MISSES):
                seen.add(k)
                idx.append(i)
        return idx

    def op(self, i: int, tracer: Tracer | None = None) -> OpResult:
        k = self.key(i)
        if k[0] == "r":
            return self._replay_op(int(k[1:]), k, tracer)
        return self._miss_op(int(k[1:]), SCHEDULE[i % len(SCHEDULE)], k, tracer)

    def _replay_op(self, j: int, key: str, tracer: Tracer | None) -> OpResult:
        replay = self.replays[j]
        res = OpResult(trials=1, key=key)
        res.exchanges = replay.points - 1 if replay.planner == "grounded" else 1
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with span(tracer, "op"), span(tracer, "cli.main"):
                    rc = cli.main(replay.argv)
            except Exception as exc:
                rc = f"raised {type(exc).__name__}: {exc}"
        res.seconds = time.perf_counter() - t0
        self.ops.append(("replay", res.exchanges))
        digest = Digest()
        digest.add("stdout", out.getvalue())
        res.digest = digest.hexdigest()
        if rc != 0:
            res.failed = True
            res.errors.append(f"{key}: cli.main returned {rc}: {err.getvalue().strip()[:200]}")
        elif out.getvalue() != replay.expected:
            res.errors.append(f"{key}: CLI waypoints differ from the recorded episode")
        return res

    def _miss_op(self, m: int, kind: tuple, key: str, tracer: Tracer | None) -> OpResult:
        size, planner = kind
        rows, start, goal = gen.open_map(gen.rng_for("chat_cassette", self.seed, "miss", m), size)
        text = gen.map_text(rows)
        cassette = self.work / "miss" / f"{key}.jsonl"
        cassette.unlink(missing_ok=True)
        res = OpResult(trials=1, key=key)
        t0 = time.perf_counter()
        try:
            with span(tracer, "op"):
                waypoints = self._record(text, start, goal, INSTRUCTION, planner, cassette, tracer, key)
        except Exception as exc:
            res.seconds = time.perf_counter() - t0
            res.failed = True
            res.errors.append(f"{key}: recording raised {type(exc).__name__}: {exc}")
            return res
        res.seconds = time.perf_counter() - t0
        res.exchanges = len(waypoints) - 1 if planner == "grounded" else 1
        self.ops.append(("miss", res.exchanges))
        digest = Digest()
        digest.add("waypoints", waypoint_text(waypoints))
        digest.add("fingerprints", "\n".join(fingerprints(cassette)))
        res.digest = digest.hexdigest()
        if not route_ok(rows, start, goal, waypoints):
            res.errors.append(f"{key}: {planner} episode did not follow a shortest route to the goal")
        return res

    # --- reporting ---

    def reference_parts(self) -> list[tuple[str, str]]:
        """Cassette fingerprints recorded in set-up, for the reference digest."""
        return [(f"cassette{j}", "\n".join(fingerprints(r.cassette))) for j, r in enumerate(self.replays)]

    def traffic(self) -> dict:
        replay_x = sum(x for kind, x in self.ops if kind == "replay")
        total_x = sum(x for _, x in self.ops)
        sizes = self.endpoint.request_bytes
        n = len(self.ops)
        return {
            "map sizes": "100x100 (reference_world), 24x10 (corridor), 32x32, 64x64 (seeded)",
            "episodes replayed from a cassette": f"{sum(1 for k, _ in self.ops if k == 'replay') / n:.3f}" if n else "n/a",
            "cassette hit share (exchanges)": f"{replay_x / total_x:.3f} ({replay_x}/{total_x})" if total_x else "n/a",
            "prompt bytes p50/max": f"{p50(sizes):.0f}/{max(sizes)}" if sizes else "n/a",
            "exchanges per episode": f"{total_x / n:.1f}" if n else "n/a",
            "endpoint replies that were a transient 429/503": f"{self.endpoint.transients}/{self.endpoint.calls}",
        }

    def start_trace(self, tracer: Tracer, rec: layers.Recorder) -> None:
        self.rec = rec
        self.transport = _Transport(self.endpoint, tracer)
        self.sleep.requested.clear()

    def layer_metrics(self, out: dict, tracer: Tracer, rec: layers.Recorder, traced: list[OpResult]) -> None:
        stats = tracer.summary()
        trials = len(traced)
        layers.span_layers(out, stats, rec, trials)
        replay_x = sum(r.exchanges for r in traced if r.key[0] == "r")
        miss_x = sum(r.exchanges for r in traced if r.key[0] == "m")
        if trials:
            out["scorers.calls"] = (replay_x + miss_x) / trials
            out["scorers.cassette_hits"] = replay_x / trials
            out["scorers.cassette_misses"] = miss_x / trials
        t = self.transport
        if t and miss_x:
            out["scorers.attempts"] = t.attempts / miss_x
            out["scorers.retries"] = (t.attempts - t.ok) / miss_x
            out["scorers.attempt_ok_ratio"] = t.ok / t.attempts
            out["scorers.backoff_s"] = sum(self.sleep.requested) / miss_x
        if "endpoint" in stats:
            out["scorers.endpoint_us"] = stats["endpoint"].mean() * 1e6
        if "cli.main" in stats:
            out["cli.plan_ms"] = stats["cli.main"].mean() * 1e3
        self._replay_step_prompts(out, rec, traced)
        layers.replay_translator(out, rec.fullpath_queries, self.endpoint.replies)
        bodies = self.endpoint.bodies[: layers.KEEP_INPUTS * 8]
        if bodies:
            s, n, _ = layers.replay(scorers.request_fingerprint, [(b,) for b in bodies])
            out["scorers.fingerprint_us"] = s / n * 1e6
        files = [(r.cassette,) for r in self.replays]
        s, n = time_calls(scorers.Cassette, files, repeat=3)
        out["scorers.cassette_load_ms"] = s / n * 1e3
        lines = [json.loads(ln) for r in self.replays for ln in r.cassette.read_text(encoding="utf-8").splitlines()]
        scratch = self.work / "append_replay.jsonl"
        scratch.unlink(missing_ok=True)
        store = scorers.Cassette(scratch, record=True)
        s, n = time_calls(store.store, [(d["request_hash"], d["response_body"]) for d in lines[:500]])
        out["scorers.cassette_append_us"] = s / n * 1e6
        self._cli_probe(out)
        map_texts = [m[0].read_text(encoding="utf-8") for m in self.maps.values()]
        plan_queries = [
            layers.PlanCall("", "", "plan", gridmap.load_map(m[0].read_text(encoding="utf-8")), GridPose(*m[2]), GridPose(*m[3]), None)
            for m in self.maps.values()
        ]
        layers.replay_grid_layers(out, map_texts, plan_queries)
        op_s = sum(r.seconds for r in traced)
        endpoint_s = stats["endpoint"].total if "endpoint" in stats else 0.0
        if replay_x + miss_x:
            harness_us = (op_s - endpoint_s) / (replay_x + miss_x) * 1e6
            self.stress = [
                f"translator.step_prompt_us / harness time per exchange = "
                f"{out['translator.step_prompt_us']:.0f} / {harness_us:.0f} us = "
                f"{out['translator.step_prompt_us'] / harness_us:.2f}"
            ]

    def _replay_step_prompts(self, out: dict, rec: layers.Recorder, traced: list[OpResult]) -> None:
        """Render every step prompt of each walk once, weighted as the traced ops ran them.

        Replayed walks get their queries back from the waypoints the CLI
        printed; fresh walks from the queries recorded while they ran.
        """
        episodes = dict(rec.step_queries)
        for j, replay in enumerate(self.replays):
            if replay.planner != "grounded":
                continue
            path, _, start, goal, instruction = self.maps[replay.map_name]
            grid = gridmap.load_map(path.read_text(encoding="utf-8"))
            instr = grounded.Instruction(instruction, GridPose(*goal))
            queries = []
            for line in replay.expected.splitlines()[:-1]:
                x, y = map(int, line.strip("()").split(","))
                cands = tuple(GridPose(x + a.delta[0], y + a.delta[1]) for a in grounded.ACTIONS)
                queries.append((grid, GridPose(x, y), instr, cands))
            episodes[f"r{j}"] = queries
        per_step: dict[str, tuple[float, list[int]]] = {}
        for key, queries in episodes.items():
            if queries:
                s, n, prompts = layers.replay(translator.serialize_step_prompt, queries, budget_s=1.0)
                per_step[key] = (s / n, [len(p.system_text.encode()) + len(p.user_text.encode()) for p in prompts])
        by_size: dict[int, list[float]] = {}
        for i, r in enumerate(traced):
            entry = SCHEDULE[i % len(SCHEDULE)]
            if not isinstance(entry, int) and r.key in per_step:
                by_size.setdefault(entry[0], []).append(per_step[r.key][0])
        seconds = weight = 0.0
        sizes: list[int] = []
        for i, r in enumerate(traced):
            entry = SCHEDULE[i % len(SCHEDULE)]
            if r.key in per_step:
                per, sample = per_step[r.key]
                sizes.extend(sample)
            elif not isinstance(entry, int) and entry[1] == "grounded" and entry[0] in by_size:
                per = statistics.mean(by_size[entry[0]])
            else:
                continue
            seconds += per * r.exchanges
            weight += r.exchanges
        if weight:
            out["translator.step_prompt_us"] = seconds / weight * 1e6
            out["translator.prompt_bytes"] = p50(sizes)

    def _cli_probe(self, out: dict) -> None:
        """cli.main plan with astar on corridor, minus the A* call itself."""
        path, _, start, goal, _ = self.maps["corridor"]
        argv = ["plan", "--map", str(path), "--start", f"{start[0]},{start[1]}", "--goal", f"{goal[0]},{goal[1]}",
                "--config", str(self.config)]
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
            times.append(time.perf_counter() - t0)
        grid = gridmap.load_map(path.read_text(encoding="utf-8"))
        s, n = time_calls(classical.astar, [(grid, GridPose(*start), GridPose(*goal))], repeat=15)
        out["cli.fixed_ms"] = max(0.0, p50(times) - s / n) * 1e3
