"""Command-line interface: plan single paths, run benchmark suites, generate maps.

Configuration precedence is flags > environment (GRIDGROUND_*) > config file
(--config, YAML) > built-in defaults. Exit codes: 0 success, 1 usage or
configuration error, 2 planning failed (no path / planner gave up), 130
interrupted (Ctrl-C), 141 stdout closed before the output was written (as a
shell reports a process that SIGPIPE ended). Nothing touches the network unless
`plan` runs the remote scorer AND --allow-network is given; --allow-network is
a flag of `plan` only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

# the parser reads MAX_PLAN_STEPS; bench, and the scorers of a plan that asks one, are imported where a command needs them
from .classical import check_endpoints, path_length
from .errors import ConfigError, GridGroundError, MapFormatError, UnknownPlanner
from .gridmap import GridPose, load_map, random_map, serialize_map
from .inputs import INTEGER, MAPPING, NUMBER, STRING, FieldKind, brief_repr, load_yaml, read_field
from .planners import MAX_PLAN_STEPS, build_planner

ENV_PREFIX = "GRIDGROUND_"
MAX_MAP_SIDE = 4096  # gen-maps draws one random number per cell
MAX_MAP_COUNT = 10_000  # gen-maps --count


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        raise _UsageError(message)


# option name -> (converter for env and config-file values, default)
_OPTIONS = {
    "planner": (str, "astar"),
    "scorer": (str, "mock"),
    "tau": (float, 0.5),
    "seed": (int, 0),
    "connectivity": (int, 4),
    "max_steps": (int, None),
    "out_dir": (str, "out"),
    "suite": (str, None),
}
# a top-level config-file value is read as the text a flag would carry; a list, mapping, set or binary has none
_FLAG_TEXT = FieldKind("a scalar", lambda v: not isinstance(v, (list, dict, set, bytes)), str)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:  # a ValueError is a file that is not UTF-8 or not YAML
        doc = load_yaml(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise _UsageError(f"config file {path} must be a mapping")
    return doc


def _resolve(name: str, flag_value, file_cfg: dict):
    """flags > env > file > defaults for one option."""
    if flag_value is not None:
        return flag_value
    conv, default = _OPTIONS[name]
    env_val = os.environ.get(ENV_PREFIX + name.upper())
    if env_val is not None:
        try:
            return conv(env_val)
        except ValueError:
            raise _UsageError(f"bad value {brief_repr(env_val)} for {ENV_PREFIX + name.upper()}")
    try:  # converted from its text, as a flag is: 1.7 and true are no ints, true is no float
        text = read_field(file_cfg, name, _FLAG_TEXT, ValueError, default=None)
        return default if text is None else conv(text)
    except ValueError:
        raise _UsageError(f"bad config-file value {brief_repr(file_cfg[name])} for {name}")


def _resolve_path(name: str, flag_value, file_cfg: dict) -> str | None:
    """_resolve for out_dir and suite, whose empty value would stand for the working directory."""
    if (value := _resolve(name, flag_value, file_cfg)) == "":
        raise _UsageError(f"{name} must not be empty")
    if value is not None and "\0" in value:  # no file system path holds one; mkdir would raise ValueError
        raise _UsageError(f"{name} must not contain a NUL character, got {brief_repr(value)}")
    return value


def _parse_xy(text: str, label: str) -> GridPose:
    try:
        x, y = map(int, text.split(","))  # a wrong count of parts is a ValueError too
    except ValueError:
        raise _UsageError(f"{label} must be 'x,y', got {brief_repr(text)}")
    return GridPose(x, y)


def _endpoint_config(file_cfg: dict):
    from .scorers import ChatEndpointConfig

    try:  # the reader raises ValueError, as ChatEndpointConfig does; its defaults stand for absent or null fields
        remote = read_field(file_cfg, "remote", MAPPING, ValueError, default={})
        kinds = {"base_url": STRING, "model_name": STRING, "api_key_env": STRING,
                 "timeout": NUMBER, "max_retries": INTEGER, "temperature": NUMBER}
        fields = {name: read_field(remote, name, kind, ValueError, "remote", None) for name, kind in kinds.items()}
        return ChatEndpointConfig(**{name: value for name, value in fields.items() if value is not None})
    except ValueError as exc:
        raise _UsageError(f"bad config-file 'remote' value: {exc}")


def _make_scorer(scorer_name: str, tau: float, allow_network: bool, file_cfg: dict, cassette: str | None):
    from .scorers import Cassette, MockScorer, OracleScorer, RemoteScorer

    if scorer_name == "mock":
        return MockScorer(tau=tau)
    if scorer_name == "oracle":
        return OracleScorer()
    if scorer_name == "remote":
        try:
            cass = Cassette(cassette) if cassette else None
        except ConfigError as exc:
            raise _UsageError(str(exc))
        if cass is None and not allow_network:
            raise _UsageError("scorer 'remote' requires --allow-network (or --cassette for replay)")
        cfg = _endpoint_config(file_cfg)
        if cass is None and not os.environ.get(cfg.api_key_env):
            raise _UsageError(f"remote scorer needs the {cfg.api_key_env} environment variable")
        return RemoteScorer(cfg, cassette=cass)
    raise _UsageError(f"unknown scorer {scorer_name!r} (expected mock, oracle, or remote)")


def cmd_plan(args) -> int:
    file_cfg = _load_config_file(args.config)
    planner = _resolve("planner", args.planner, file_cfg)
    scorer_name = _resolve("scorer", args.scorer, file_cfg)
    tau = _resolve("tau", args.tau, file_cfg)
    seed = _resolve("seed", args.seed, file_cfg)
    connectivity = _resolve("connectivity", args.connectivity, file_cfg)
    max_steps = _resolve("max_steps", args.max_steps, file_cfg)
    if connectivity not in (4, 8):
        raise _UsageError(f"connectivity must be 4 or 8, got {connectivity}")
    if max_steps is not None and not 1 <= max_steps <= MAX_PLAN_STEPS:
        raise _UsageError(f"max_steps must be 1 to {MAX_PLAN_STEPS}, got {max_steps}")
    if not tau > 0:
        raise _UsageError(f"tau must be > 0, got {tau}")

    try:
        grid = load_map(Path(args.map).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, MapFormatError) as exc:
        raise _UsageError(f"cannot read map {args.map}: {exc}")
    start = _parse_xy(args.start, "--start")
    goal = _parse_xy(args.goal, "--goal")
    needs_scorer = planner in ("grounded", "fullpath")
    scorer = _make_scorer(scorer_name, tau, args.allow_network, file_cfg, args.cassette) if needs_scorer else None
    try:
        adapter = build_planner(planner, scorer, seed, connectivity, max_steps).planner
    except UnknownPlanner as exc:
        raise _UsageError(str(exc))

    try:
        check_endpoints(grid, start, goal)
        t0 = time.perf_counter()
        waypoints = adapter.plan(grid, start, goal, args.instruction)
    except GridGroundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    if waypoints is None:
        print(f"planning failed: {adapter.failure}", file=sys.stderr)
        return 2
    sys.stdout.write("".join([f"({x},{y})\n" for x, y in waypoints]))
    length = path_length(waypoints, grid.resolution)
    print(
        f"planned {len(waypoints) - 1} steps, length {length:.3f} m, {elapsed_ms:.3f} ms",
        file=sys.stderr,
    )
    return 0


def cmd_bench(args) -> int:
    from . import bench
    from .bundled import bundled_path

    file_cfg = _load_config_file(args.config)
    suite = _resolve_path("suite", args.suite, file_cfg)
    out_dir = _resolve_path("out_dir", args.out_dir, file_cfg)
    suite_path = Path(suite) if suite else bundled_path("default_suite.yaml")
    try:
        rows, report = bench.run_suite_file(suite_path, out_dir)
    except GridGroundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(bench.format_report(report), end="")
    print(f"wrote {len(rows)} trial rows under {out_dir}", file=sys.stderr)
    return 0


def cmd_gen_maps(args) -> int:
    file_cfg = _load_config_file(args.config)
    out_dir = Path(_resolve_path("out_dir", args.out_dir, file_cfg))
    seed = _resolve("seed", args.seed, file_cfg)
    try:
        width, height = map(int, args.size.lower().split("x"))
    except ValueError:
        raise _UsageError(f"--size must be WIDTHxHEIGHT, got {brief_repr(args.size)}")
    if not (1 <= width <= MAX_MAP_SIDE and 1 <= height <= MAX_MAP_SIDE):
        raise _UsageError(f"--size dimensions must be 1 to {MAX_MAP_SIDE}, got {brief_repr(args.size)}")
    if not 1 <= args.count <= MAX_MAP_COUNT:
        raise _UsageError(f"--count must be 1 to {MAX_MAP_COUNT}, got {args.count}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            grid = random_map(width, height, args.density, seed + i)
            name = f"map_{width}x{height}_d{args.density:g}_s{seed + i}.map"
            (out_dir / name).write_text(serialize_map(grid), encoding="utf-8")
    except (GridGroundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.count} maps under {out_dir}", file=sys.stderr)
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="gridground", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan one path and print its waypoints")
    p_plan.add_argument("--map", required=True, help="ASCII map file")
    p_plan.add_argument("--start", required=True, help="start cell as x,y")
    p_plan.add_argument("--goal", required=True, help="goal cell as x,y")
    p_plan.add_argument("--planner", choices=["astar", "rrt", "grounded", "fullpath"])
    p_plan.add_argument("--scorer", choices=["mock", "oracle", "remote"])
    p_plan.add_argument("--tau", type=float)
    p_plan.add_argument("--seed", type=int)
    p_plan.add_argument("--connectivity", type=int, choices=[4, 8])
    p_plan.add_argument("--max-steps", dest="max_steps", type=int, help=f"at most {MAX_PLAN_STEPS}")
    p_plan.add_argument("--instruction", default="reach the goal cell")
    p_plan.add_argument("--cassette", help="replay cassette for the remote scorer")
    p_plan.add_argument("--allow-network", action="store_true")
    p_plan.add_argument("--config", help="YAML config file")
    p_plan.set_defaults(func=cmd_plan)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", help="suite file (default: bundled suite)")
    p_bench.add_argument("--out-dir", dest="out_dir")
    p_bench.add_argument("--config", help="YAML config file")
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen-maps", help="generate random maps")
    p_gen.add_argument("--count", type=int, required=True, help=f"at most {MAX_MAP_COUNT}")
    p_gen.add_argument("--size", required=True, help=f"WIDTHxHEIGHT, e.g. 20x20; each at most {MAX_MAP_SIDE}")
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out-dir", dest="out_dir")
    p_gen.add_argument("--config", help="YAML config file")
    p_gen.set_defaults(func=cmd_gen_maps)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring)."""
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # output still in the buffer meets a closed pipe here
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # the Python docs' "Note on SIGPIPE": the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
