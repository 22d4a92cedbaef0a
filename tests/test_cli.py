import copy
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import gridground
from gridground import bench, cli, inputs
from gridground.bench import make_planner
from gridground.bundled import bundled_path
from gridground.classical import astar
from gridground.cli import main
from gridground.errors import ConfigError
from gridground.gridmap import GridPose, load_map
from gridground.grounded import ACTIONS, Instruction
from gridground.scorers import request_fingerprint
from gridground.simulator import Scenario, load_yaml
from gridground import translator


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("GRIDGROUND_") or key == "API_KEY":
            monkeypatch.delenv(key)


def write_map(tmp_path, rows, name="m.map"):
    text = f"{len(rows[0])} {len(rows)} 1.0\n" + "\n".join(rows) + "\n"
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def plan_args(map_path, start="0,0", goal=None, *extra):
    return ["plan", "--map", map_path, "--start", start, "--goal", goal, *extra]


# the remote scorer replaying an empty cassette: no network, no API key, and every request a miss
REPLAY_REMOTE = ["--planner", "grounded", "--scorer", "remote", "--cassette", os.devnull]


class TestPlanAstar:
    def test_corridor_waypoints_on_stdout(self, tmp_path, capsys):
        m = write_map(tmp_path, ["....."])
        rc = main(plan_args(m, "0,0", "4,0"))
        out, err = capsys.readouterr()
        assert rc == 0
        assert out.splitlines() == ["(0,0)", "(1,0)", "(2,0)", "(3,0)", "(4,0)"]
        assert "planned 4 steps, length 4.000 m" in err

    def test_no_path_exit_2(self, tmp_path, capsys):
        m = write_map(tmp_path, [".#.", ".#.", ".#."])
        rc = main(plan_args(m, "0,0", "2,2"))
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == "planning failed: no path found\n"

    def test_blocked_endpoint_exit_2(self, tmp_path, capsys):
        m = write_map(tmp_path, [".#.", "...", "..."])
        rc = main(plan_args(m, "1,0", "2,2"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_eight_connectivity_shortens_route(self, tmp_path, capsys):
        m = write_map(tmp_path, ["...", "...", "..."])
        assert main(plan_args(m, "0,0", "2,2")) == 0
        four_lines = capsys.readouterr().out.splitlines()
        assert main(plan_args(m, "0,0", "2,2", "--connectivity", "8")) == 0
        eight_lines = capsys.readouterr().out.splitlines()
        assert len(four_lines) == 5 and len(eight_lines) == 3

    def test_rrt_planner(self, tmp_path, capsys):
        m = write_map(tmp_path, ["....", "....", "...."])
        rc = main(plan_args(m, "0,0", "3,2", "--planner", "rrt", "--seed", "1"))
        out, _ = capsys.readouterr()
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "(0,0)" and lines[-1] == "(3,2)"


class TestUsageErrors:
    def test_unknown_planner_flag(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "bogus"))
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["plan", "--start", "0,0", "--goal", "1,0"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_start_syntax(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        assert main(plan_args(m, "0;0", "2,0")) == 1
        assert "--start" in capsys.readouterr().err

    def test_extra_pair_component(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        assert main(plan_args(m, "0,0,0", "2,0")) == 1

    def test_missing_map_file(self, tmp_path, capsys):
        rc = main(plan_args(str(tmp_path / "absent.map"), "0,0", "1,0"))
        assert rc == 1
        assert "cannot read map" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b"3 3 1.0\n...\n.x.\n...\n",
        b"3 1 1.0\n\xff..\n",
        "\u00b2 1 1.0\n...\n".encode(),
    ])
    def test_malformed_map_file(self, tmp_path, capsys, text):
        m = tmp_path / "m.map"
        m.write_bytes(text)
        rc = main(plan_args(str(m), "0,0", "2,0"))
        err = capsys.readouterr().err
        assert rc == 1
        assert f"usage error: cannot read map {m}" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("extra,config", [
        (["--max-steps", "0"], None),
        (["--planner", "grounded", "--scorer", "remote", "--allow-network"], "remote:\n  timeout: abc\n"),
        (["--planner", "grounded", "--scorer", "remote", "--allow-network"], "remote:\n  timeout: 0\n"),
        (["--planner", "fullpath", "--scorer", "remote", "--allow-network"], "remote:\n  max_retries: -1\n"),
        # replayed from an empty cassette, so only the config check can end the run with 1
        (REPLAY_REMOTE, "remote:\n  max_retries: .inf\n"),
        (REPLAY_REMOTE, "remote:\n  max_retries: true\n"),
        (REPLAY_REMOTE, "remote:\n  max_retries: 1.5\n"),
        (REPLAY_REMOTE, "remote:\n  timeout: true\n"),
        pytest.param(REPLAY_REMOTE, "remote:\n  timeout: 1" + "0" * 400 + "\n", id="timeout_past_float_range"),
        # only an absent key or null means "no remote settings"
        (REPLAY_REMOTE, "remote: false\n"),
        (REPLAY_REMOTE, "remote: 0\n"),
        (REPLAY_REMOTE, "remote: ''\n"),
        (REPLAY_REMOTE, "remote: []\n"),
        # usage errors as flags, so not truncated or coerced in a config file either
        (["--planner", "grounded"], "seed: 1.7\n"),
        (["--planner", "grounded"], "seed: true\n"),
        (["--planner", "grounded"], "connectivity: 4.9\n"),
        (["--planner", "grounded"], "connectivity: 8.0\n"),
        (["--planner", "grounded"], "max_steps: 2.5\n"),
        (["--planner", "grounded", "--max-steps", "100001"], None),
        (["--planner", "grounded"], "max_steps: 100001\n"),
        # 3,000 aliases, each a list of the one before, build a list that deep
        pytest.param(["--planner", "grounded"], "a0: &a0 [1]\n" + "".join(f"a{i}: &a{i} [*a{i - 1}]\n" for i in range(1, 3000))
                     + "tau: *a2999\n", id="alias_built_depth"),
        (["--planner", "grounded"], "tau: true\n"),
        (["--planner", "grounded", "--tau", "0"], None),
        (["--planner", "grounded", "--tau", "-1"], None),
        (["--planner", "grounded", "--tau", "nan"], None),
    ])
    def test_plan_bad_values(self, tmp_path, capsys, extra, config):
        m = write_map(tmp_path, ["..."])
        if config is not None:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(config)
            extra = [*extra, "--config", str(cfg)]
        rc = main(plan_args(m, "0,0", "2,0", *extra))
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("config", ["remote: null\n", "remote:\n  timeout: null\n  max_retries: null\n"])
    def test_null_remote_values_read_as_absent(self, tmp_path, capsys, config):
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        rc = main(plan_args(m, "0,0", "2,0", *REPLAY_REMOTE, "--config", str(cfg)))
        assert rc == 2  # the defaults hold, and the empty cassette has no reply
        assert capsys.readouterr().err.startswith("planning failed:")

    @pytest.mark.parametrize("config", ["seed: '3'", "tau: 1", "tau: '0.25'"])
    def test_config_values_from_text(self, tmp_path, capsys, config):
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config + "\n")
        assert main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--config", str(cfg))) == 0

    @pytest.mark.parametrize("config,name", [
        ("planner: [astar]", "planner"), ("planner: {astar: 1}", "planner"), ("tau: {a: 1}", "tau"),
        ("planner: !!set {astar}", "planner"), ("planner: !!binary YXN0YXI=", "planner"),
    ])
    def test_config_value_with_no_flag_text(self, tmp_path, capsys, config, name):
        # no flag's text is a list, mapping, set or binary, so none is read as its Python repr
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config + "\n")
        rc = main(plan_args(m, "0,0", "2,0", "--config", str(cfg)))
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("usage error: bad config-file value ") and err.endswith(f" for {name}\n")

    @pytest.mark.parametrize("env,config,message", [
        ({"GRIDGROUND_PLANNER": "dijkstra"}, None, "unknown planner 'dijkstra'"),
        ({}, "planner: dijkstra", "unknown planner 'dijkstra'"),
        ({"GRIDGROUND_PLANNER": "grounded", "GRIDGROUND_SCORER": "gpt"}, None, "unknown scorer 'gpt'"),
        ({}, "planner: fullpath\nscorer: gpt", "unknown scorer 'gpt'"),
    ], ids=["planner_env", "planner_config", "scorer_env", "scorer_config"])
    def test_unknown_planner_or_scorer_outside_the_flags(self, tmp_path, capsys, monkeypatch, env, config, message):
        # the flags' choices= cannot catch these, so the adapter builder must
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        m = write_map(tmp_path, ["..."])
        extra = []
        if config is not None:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(config + "\n")
            extra = ["--config", str(cfg)]
        rc = main(plan_args(m, "0,0", "2,0", *extra))
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"usage error: {message}")


ENDPOINT_PLANNERS = [
    ("astar", "mock"), ("rrt", "mock"), ("grounded", "mock"), ("grounded", "remote"),
    ("fullpath", "mock"), ("fullpath", "oracle"), ("fullpath", "remote"),
]


def run_main(argv):
    """(exit code or SystemExit code, stdout, stderr) of one main call, with the planning time blanked."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # --help
            rc = ("SystemExit", exc.code)
    return rc, out.getvalue(), re.sub(r", [0-9.]+ ms$", ", <t> ms", err.getvalue(), flags=re.M)


class TestSharedParser:
    def test_calls_on_one_parser_equal_calls_on_fresh_ones(self, tmp_path):
        m = write_map(tmp_path, ["......", ".##.#.", "....#.", ".#...."])
        seeded = plan_args(m, "0,0", "5,3", "--planner", "rrt", "--seed", "7")
        sequence = [
            seeded,
            seeded[:-2],  # no --seed: the default seed, not the 7 before it
            plan_args(m, "0,0", "5,3", "--planner", "dijkstra"),
            ["plan", "--help"],
            plan_args(m, "0,0", "5,3"),
        ]
        cli._build_parser.cache_clear()
        shared = [run_main(argv) for argv in sequence]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(run_main(argv))
        assert shared == fresh
        assert [rc for rc, _, _ in shared] == [0, 0, 1, ("SystemExit", 0), 0]
        assert shared[0][1] != shared[1][1]  # the two seeds draw different routes


class TestEndpointValidation:
    # checked before any planner runs, so no planner or model sees a bad cell
    @pytest.mark.parametrize("planner,scorer", ENDPOINT_PLANNERS)
    @pytest.mark.parametrize("start,goal,bad", [
        ("5,0", "1,0", "start (5,0) outside 3x1 grid"),
        ("0,0", "-1,0", "goal (-1,0) outside 3x1 grid"),
        ("0,0", "2,0", "goal (2,0) is not a free cell"),
    ])
    def test_bad_endpoint_exit_2(self, tmp_path, capsys, planner, scorer, start, goal, bad):
        m = write_map(tmp_path, ["..#"])
        tape = tmp_path / "empty.jsonl"
        tape.write_text("")
        rc = main(["plan", "--map", m, f"--start={start}", f"--goal={goal}",
                   "--planner", planner, "--scorer", scorer, "--cassette", str(tape)])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: {bad}\n"


PARITY_ROWS = [".......", ".#####.", "...#...", ".#...#."]


class TestPlanAdapterParity:
    # `gridground plan` prints exactly what the bench adapter's plan returns
    @pytest.mark.parametrize("pid", [
        "astar", "rrt", "grounded:mock", "grounded:oracle", "fullpath:mock", "fullpath:oracle",
    ])
    def test_waypoints_match_adapter(self, tmp_path, capsys, pid):
        m = write_map(tmp_path, PARITY_ROWS)
        grid = load_map((tmp_path / "m.map").read_text())
        start, goal, text, seed = GridPose(0, 2), GridPose(6, 2), "reach the goal cell", 11
        adapter = make_planner(pid, Scenario(grid, start, goal, text), seed).planner
        expected = adapter.plan(grid, start, goal, text)
        assert expected is not None and len(expected) > 1
        kind, _, scorer = pid.partition(":")
        rc = main(plan_args(m, "0,2", "6,2", "--planner", kind, "--scorer", scorer or "mock",
                            "--seed", str(seed), "--instruction", text))
        out, _ = capsys.readouterr()
        assert rc == 0
        assert out.splitlines() == [f"({p.x},{p.y})" for p in expected]


class TestPlanGrounded:
    def test_mock_detours_wall(self, tmp_path, capsys):
        m = write_map(tmp_path, [".....", ".###.", "....."])
        rc = main(plan_args(m, "0,1", "4,1", "--planner", "grounded"))
        out, err = capsys.readouterr()
        assert rc == 0
        assert out.splitlines() == [
            "(0,1)", "(0,0)", "(1,0)", "(2,0)", "(3,0)", "(4,0)", "(4,1)",
        ]

    def test_oracle_scorer(self, tmp_path, capsys):
        m = write_map(tmp_path, ["....."])
        rc = main(plan_args(m, "0,0", "4,0", "--planner", "grounded", "--scorer", "oracle"))
        out, _ = capsys.readouterr()
        assert rc == 0
        assert len(out.splitlines()) == 5

    def test_stuck_exit_2(self, tmp_path, capsys):
        m = write_map(tmp_path, [".....", "..#..", ".#.#.", "..#..", "....."])
        rc = main(plan_args(m, "2,2", "0,0", "--planner", "grounded"))
        _, err = capsys.readouterr()
        assert rc == 2
        assert "planning failed: stuck" in err

    def test_step_limit_exit_2(self, tmp_path, capsys):
        m = write_map(tmp_path, ["........"])
        rc = main(plan_args(m, "0,0", "7,0", "--planner", "grounded", "--max-steps", "3"))
        _, err = capsys.readouterr()
        assert rc == 2
        assert "step_limit" in err

    def test_bad_tau_is_usage_error(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--tau", "-1"))
        assert rc == 1
        assert capsys.readouterr().err == "usage error: tau must be > 0, got -1.0\n"


class TestPlanFullpath:
    def test_mock_staircase(self, tmp_path, capsys):
        m = write_map(tmp_path, ["...", "...", "..."])
        rc = main(plan_args(m, "0,0", "2,2", "--planner", "fullpath"))
        out, _ = capsys.readouterr()
        assert rc == 0
        assert out.splitlines() == ["(0,0)", "(1,0)", "(2,0)", "(2,1)", "(2,2)"]

    def test_oracle_routes_around(self, tmp_path, capsys):
        m = write_map(tmp_path, [".....", ".###.", "....."])
        rc = main(plan_args(m, "0,1", "4,1", "--planner", "fullpath", "--scorer", "oracle"))
        out, _ = capsys.readouterr()
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "(0,1)" and lines[-1] == "(4,1)"
        assert len(lines) == 7

    def test_oracle_no_route_exit_2(self, tmp_path, capsys):
        m = write_map(tmp_path, [".#.", ".#.", ".#."])
        rc = main(plan_args(m, "0,0", "2,2", "--planner", "fullpath", "--scorer", "oracle"))
        _, err = capsys.readouterr()
        assert rc == 2
        assert "planning failed" in err


class TestRemoteGating:
    def test_remote_needs_allow_network(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote"))
        _, err = capsys.readouterr()
        assert rc == 1
        assert "--allow-network" in err

    def test_remote_needs_api_key(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote",
                            "--allow-network"))
        _, err = capsys.readouterr()
        assert rc == 1
        assert "API_KEY" in err

    def test_config_file_renames_key_env(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("remote:\n  api_key_env: MY_PLANNER_KEY\n")
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote",
                            "--allow-network", "--config", str(cfg)))
        _, err = capsys.readouterr()
        assert rc == 1
        assert "MY_PLANNER_KEY" in err

    @pytest.mark.parametrize("setting", ["timeout: .inf", "temperature: .nan", "temperature: -.inf"])
    def test_non_finite_endpoint_value(self, tmp_path, capsys, monkeypatch, setting):
        # the key is set, so only the config check stands between this run and a request
        monkeypatch.setenv("API_KEY", "k")
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"remote:\n  base_url: http://127.0.0.1:9/v1\n  max_retries: 0\n  {setting}\n")
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote",
                            "--allow-network", "--config", str(cfg)))
        _, err = capsys.readouterr()
        assert rc == 1
        assert "bad config-file 'remote' value" in err

    @pytest.mark.parametrize("setting,name", [
        ("api_key_env: 5", "api_key_env"), ("model_name: 5", "model_name"), ("model_name: [gpt]", "model_name"),
    ])
    def test_non_string_endpoint_name(self, tmp_path, capsys, monkeypatch, setting, name):
        # a usage error, not a TypeError from os.environ or a request sent with that model
        monkeypatch.setenv("API_KEY", "k")
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"remote:\n  base_url: http://127.0.0.1:9/v1\n  max_retries: 0\n  {setting}\n")
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote",
                            "--allow-network", "--config", str(cfg)))
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("usage error: bad config-file 'remote' value:")
        assert f"{name} must be a string" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["base_url", "model_name", "api_key_env"])
    def test_null_endpoint_string_reads_as_its_default(self, tmp_path, capsys, field):
        assert cli._endpoint_config({"remote": {field: None}}) == cli._endpoint_config({})
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"remote:\n  {field}: null\n")
        rc = main(plan_args(m, "0,0", "2,0", *REPLAY_REMOTE, "--config", str(cfg)))
        assert rc == 2  # the default holds, and the empty cassette has no reply
        assert capsys.readouterr().err.startswith("planning failed:")

    def test_schemeless_base_url(self, tmp_path, capsys, monkeypatch):
        # rejected before any request, instead of being retried through the backoff
        monkeypatch.setenv("API_KEY", "k")
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("remote:\n  base_url: no-scheme\n")
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote",
                            "--allow-network", "--config", str(cfg)))
        _, err = capsys.readouterr()
        assert rc == 1
        assert "usage error:" in err and "base_url must be an http:// or https:// URL" in err


def chat_json(content):
    return json.dumps({"choices": [{"message": {"content": content}}]})


def cassette_line(body, content):
    return json.dumps(
        {"request_hash": request_fingerprint(body), "response_body": chat_json(content)}
    )


def request_body(prompt):
    # mirrors the CLI's default endpoint configuration
    return {
        "model": "gpt-3.5-turbo",
        "temperature": 0.0,
        "messages": [
            {"role": "system", "content": prompt.system_text},
            {"role": "user", "content": prompt.user_text},
        ],
    }


class TestCassetteReplay:
    def test_grounded_remote_offline(self, tmp_path, capsys):
        # pre-recorded tape for both states of a two-step walk; replay must
        # need neither the network nor an API key
        rows = ["..."]
        m = write_map(tmp_path, rows)
        grid = load_map((tmp_path / "m.map").read_text())
        goal = GridPose(2, 0)
        lines = []
        for state in (GridPose(0, 0), GridPose(1, 0)):
            cands = tuple(
                GridPose(state.x + a.delta[0], state.y + a.delta[1]) for a in ACTIONS
            )
            prompt = translator.serialize_step_prompt(
                grid, state, Instruction("reach the goal cell", goal), cands
            )
            lines.append(cassette_line(request_body(prompt), "scores: 0 1 0 0"))
        tape = tmp_path / "tape.jsonl"
        tape.write_text("\n".join(lines) + "\n")

        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote",
                            "--cassette", str(tape)))
        out, _ = capsys.readouterr()
        assert rc == 0
        assert out.splitlines() == ["(0,0)", "(1,0)", "(2,0)"]

    def test_fullpath_remote_offline(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        grid = load_map((tmp_path / "m.map").read_text())
        prompt = translator.serialize_fullpath_prompt(
            grid, GridPose(0, 0), Instruction("reach the goal cell", GridPose(2, 0))
        )
        tape = tmp_path / "tape.jsonl"
        tape.write_text(cassette_line(request_body(prompt), "path: (0,0) (1,0) (2,0)") + "\n")

        rc = main(plan_args(m, "0,0", "2,0", "--planner", "fullpath", "--scorer", "remote",
                            "--cassette", str(tape)))
        out, _ = capsys.readouterr()
        assert rc == 0
        assert out.splitlines() == ["(0,0)", "(1,0)", "(2,0)"]

    def test_fullpath_coordinate_too_long_for_a_cell_is_a_failed_plan(self, tmp_path, capsys):
        # 1 followed by 400 zeros parses as an int but overflows a float
        tape = tmp_path / "tape.jsonl"
        tape.write_text(tape_text([(CORRIDOR_EXCHANGES["fullpath"][0][0], LONG_COORDINATE_REPLY)]))
        rc = main(plan_args(str(CORRIDOR), "2,1", "21,8", "--planner", "fullpath",
                            "--scorer", "remote", "--cassette", str(tape)))
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == "planning failed: path coordinate has more than 9 digits\n"

    def test_replay_needs_no_requests_package(self, tmp_path):
        m = write_map(tmp_path, ["..."])
        grid = load_map((tmp_path / "m.map").read_text())
        prompt = translator.serialize_fullpath_prompt(
            grid, GridPose(0, 0), Instruction("reach the goal cell", GridPose(2, 0))
        )
        tape = tmp_path / "tape.jsonl"
        tape.write_text(cassette_line(request_body(prompt), "path: (0,0) (1,0) (2,0)") + "\n")
        probe = (
            "import sys; sys.modules['requests'] = None; sys.path.insert(0, sys.argv[1]); "
            "from gridground.cli import main; sys.exit(main(sys.argv[2:]))"
        )
        src = Path(gridground.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(src),
             *plan_args(m, "0,0", "2,0", "--planner", "fullpath", "--scorer", "remote", "--cassette", str(tape))],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout.splitlines()) == (0, ["(0,0)", "(1,0)", "(2,0)"])
        assert proc.stderr.startswith("planned 2 steps")

    def test_fullpath_remote_start_is_goal(self, tmp_path, capsys):
        # like astar and grounded, a start on the goal needs no model exchange
        m = write_map(tmp_path, ["..."])
        tape = tmp_path / "empty.jsonl"
        tape.write_text("")
        rc = main(plan_args(m, "1,0", "1,0", "--planner", "fullpath", "--scorer", "remote",
                            "--cassette", str(tape)))
        out, _ = capsys.readouterr()
        assert rc == 0
        assert out.splitlines() == ["(1,0)"]

    def test_replay_miss_exit_2(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        tape = tmp_path / "empty.jsonl"
        tape.write_text("")
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote",
                            "--cassette", str(tape)))
        _, err = capsys.readouterr()
        assert rc == 2
        assert "no record" in err

    @pytest.mark.parametrize("bad", ["{not json", json.dumps({"response_body": "{}"})])
    def test_corrupt_cassette_is_config_error(self, tmp_path, capsys, bad):
        m = write_map(tmp_path, ["..."])
        tape = tmp_path / "tape.jsonl"
        tape.write_text(bad + "\n")
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote",
                            "--cassette", str(tape)))
        _, err = capsys.readouterr()
        assert rc == 1
        assert f"usage error: cassette {tape} line 1:" in err


    @pytest.mark.parametrize("planner,content", [
        ("grounded", "scores: 0 1 0 0"), ("fullpath", "path: (0,0) (1,0) (2,0)"),
    ])
    def test_nested_reply_body_is_a_failed_plan(self, tmp_path, capsys, planner, content):
        m = write_map(tmp_path, ["..."])
        grid = load_map((tmp_path / "m.map").read_text())
        instruction = Instruction("reach the goal cell", GridPose(2, 0))
        if planner == "grounded":
            cands = tuple(GridPose(a.delta[0], a.delta[1]) for a in ACTIONS)
            prompt = translator.serialize_step_prompt(grid, GridPose(0, 0), instruction, cands)
        else:
            prompt = translator.serialize_fullpath_prompt(grid, GridPose(0, 0), instruction)
        line = json.loads(cassette_line(request_body(prompt), content))
        line["response_body"] = "[" * 100_000  # past the JSON decoder's recursion limit
        tape = tmp_path / "tape.jsonl"
        tape.write_text(json.dumps(line) + "\n")
        rc = main(plan_args(m, "0,0", "2,0", "--planner", planner, "--scorer", "remote", "--cassette", str(tape)))
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("planning failed:") and "response body is not a chat completion" in err

    def test_nested_cassette_line_is_config_error(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        tape = tmp_path / "tape.jsonl"
        tape.write_text("\n" + "[" * 100_000 + "\n")
        rc = main(plan_args(m, "0,0", "2,0", "--planner", "grounded", "--scorer", "remote", "--cassette", str(tape)))
        _, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith(f"usage error: cassette {tape} line 2: not JSON: maximum recursion depth")


class TestNestedYamlFiles:
    """A file nested deeper than the YAML composer's stack would crash the interpreter; it is an input error."""

    RUN = "import sys; sys.path.insert(0, sys.argv[1]); from gridground.cli import main; sys.exit(main(sys.argv[2:]))"

    @pytest.mark.parametrize("form", ["flow", "block"])
    @pytest.mark.parametrize("file", ["config", "suite", "scenario"])
    def test_exit_1_not_a_signal(self, tmp_path, form, file):
        nested = "[" * 50_000 + "]" * 50_000 + "\n" if form == "flow" else "- " * 50_000 + "x\n"
        for p in bundled_path("default_suite.yaml").parent.iterdir():
            shutil.copy(p, tmp_path / p.name)
        if file == "config":
            (tmp_path / "cfg.yaml").write_text(nested)
            argv = plan_args(str(tmp_path / "corridor.map"), "2,1", "21,8", "--config", str(tmp_path / "cfg.yaml"))
        else:
            (tmp_path / ("default_suite.yaml" if file == "suite" else "corridor.scenario.yaml")).write_text(nested)
            argv = ["bench", "--suite", str(tmp_path / "default_suite.yaml"), "--out-dir", str(tmp_path / "out")]
        src = Path(gridground.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-c", self.RUN, str(src), *argv], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (1, "")
        (last,) = proc.stderr.splitlines()
        assert last.startswith("usage error:" if file == "config" else "error:")
        assert last.endswith("the document nests deeper than 64 collections")


def alias_bomb(key, levels=8, fan_out=5):
    """YAML lines whose ``key`` holds fan_out ** levels copies of one scalar, through one anchor per level."""
    lines = [f"a0: &a0 [{', '.join(['x'] * fan_out)}]"]
    lines += [f"a{i}: &a{i} [{', '.join([f'*a{i - 1}'] * fan_out)}]" for i in range(1, levels)]
    return "\n".join(lines + [f"{key}: *a{levels - 1}"]) + "\n"


class TestAliasBombs:
    """A YAML alias loads as one shared node; an error that shows the value must not spell out every copy."""

    @pytest.mark.parametrize("file", ["config", "suite", "scenario"])
    def test_exit_1_with_a_short_message(self, tmp_path, capsys, file):
        shutil.copy(bundled_path("corridor.map"), tmp_path / "corridor.map")
        suite = "version: suite_v1\nscenarios: [{id: c, file: c.scenario.yaml}]\ntrials_per_pair: 1\n"
        if file == "config":
            (tmp_path / "cfg.yaml").write_text(alias_bomb("planner"))
            argv = plan_args(str(tmp_path / "corridor.map"), "2,1", "21,8", "--config", str(tmp_path / "cfg.yaml"))
        else:
            planners = alias_bomb("planners") if file == "suite" else "planners: [astar]\n"
            (tmp_path / "suite.yaml").write_text(suite + planners)
            scenario = "version: scenario_v1\nmap_file: corridor.map\ngoal: [21, 8]\ninstruction_text: go\n"
            (tmp_path / "c.scenario.yaml").write_text(scenario + alias_bomb("start"))
            argv = ["bench", "--suite", str(tmp_path / "suite.yaml"), "--out-dir", str(tmp_path / "out")]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert len(err) < 2048
        assert err.startswith("usage error: bad config-file value " if file == "config" else "error: ")

    def test_the_shown_value_is_bounded_whatever_it_holds(self):
        long = "中" * 10_000
        leaves = [long, 10**4000, 1.5e300, b"\xff" * 10_000, None]
        for leaf in leaves:
            value = {long + str(i): {long + str(j): [leaf] * 10 for j in range(10)} for i in range(10)}
            for shape in (value, [value] * 10, [[[leaf] * 10] * 10] * 10, {long: [leaf] * 10}):
                assert len(inputs.brief_repr(shape)) < 1024

    @pytest.mark.parametrize("value", [[1, 2], ["a", "b", "c"], {"x": 1}, "o\x00x", 1.5, None, True, [[0, 1], [2]]])
    def test_a_small_value_shows_as_its_repr(self, value):
        assert inputs.brief_repr(value) == repr(value)


class TestPrecedence:
    def test_env_overrides_default(self, tmp_path, capsys, monkeypatch):
        m = write_map(tmp_path, ["...", "...", "..."])
        monkeypatch.setenv("GRIDGROUND_CONNECTIVITY", "8")
        assert main(plan_args(m, "0,0", "2,2")) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        m = write_map(tmp_path, ["...", "...", "..."])
        monkeypatch.setenv("GRIDGROUND_CONNECTIVITY", "8")
        assert main(plan_args(m, "0,0", "2,2", "--connectivity", "4")) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_config_file_overrides_default(self, tmp_path, capsys):
        m = write_map(tmp_path, ["...", "...", "..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("connectivity: 8\n")
        assert main(plan_args(m, "0,0", "2,2", "--config", str(cfg))) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize("text", ["", "# only a comment\n"], ids=["empty", "comment"])
    def test_empty_config_file_reads_as_no_settings(self, tmp_path, capsys, text):
        m = write_map(tmp_path, ["...", "...", "..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert cli._load_config_file(str(cfg)) == {}
        assert main(plan_args(m, "0,0", "2,2", "--config", str(cfg))) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5  # the default, four-connected

    def test_env_overrides_config_file(self, tmp_path, capsys, monkeypatch):
        m = write_map(tmp_path, ["...", "...", "..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("connectivity: 8\n")
        monkeypatch.setenv("GRIDGROUND_CONNECTIVITY", "4")
        assert main(plan_args(m, "0,0", "2,2", "--config", str(cfg))) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_bad_env_value(self, tmp_path, capsys, monkeypatch):
        m = write_map(tmp_path, ["..."])
        monkeypatch.setenv("GRIDGROUND_SEED", "not-a-number")
        assert main(plan_args(m, "0,0", "2,0")) == 1
        assert "GRIDGROUND_SEED" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("connectivity: [4]\n")
        assert main(plan_args(m, "0,0", "2,0", "--config", str(cfg))) == 1

    @pytest.mark.parametrize("config", [b"seed: 1 # \xff\n", b"seed: " + b"1" * 5000 + b"\n"],
                             ids=["not_utf8", "int_past_digit_limit"])
    def test_unreadable_config_file(self, tmp_path, capsys, config):
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_bytes(config)
        rc = main(plan_args(m, "0,0", "2,0", "--config", str(cfg)))
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"usage error: cannot read config file {cfg}: ")

    def test_config_file_must_be_mapping(self, tmp_path, capsys):
        m = write_map(tmp_path, ["..."])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("- 1\n- 2\n")
        assert main(plan_args(m, "0,0", "2,0", "--config", str(cfg))) == 1

    def test_invalid_connectivity_value(self, tmp_path, capsys, monkeypatch):
        m = write_map(tmp_path, ["..."])
        monkeypatch.setenv("GRIDGROUND_CONNECTIVITY", "6")
        assert main(plan_args(m, "0,0", "2,0")) == 1
        assert "connectivity" in capsys.readouterr().err


SUITE_TEXT = (
    "version: suite_v1\n"
    "planners:\n"
    "  - astar\n"
    "trials_per_pair: 1\n"
    "scenarios:\n"
    "  - id: tiny\n"
    "    file: case.yaml\n"
)


def write_tiny_suite(tmp_path):
    (tmp_path / "c.map").write_text("5 1 1.0\n.....\n")
    (tmp_path / "case.yaml").write_text(
        "version: scenario_v1\nmap_file: c.map\nstart: [0, 0]\ngoal: [4, 0]\n"
        "instruction_text: walk\n"
    )
    suite = tmp_path / "suite.yaml"
    suite.write_text(SUITE_TEXT)
    return suite


class TestBenchCommand:
    def test_tiny_suite(self, tmp_path, capsys):
        suite = write_tiny_suite(tmp_path)
        out_dir = tmp_path / "results"
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "benchmark report" in out
        assert "NOT reproduction targets" in out
        assert "wrote 1 trial rows" in err
        assert (out_dir / "rows.csv").exists()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "trajectories_tiny.svg").exists()

    @pytest.mark.parametrize("name,tail,message", [
        ("suite.yaml", b"# \xff\n", "cannot read suite file"),
        ("suite.yaml", b"extra: " + b"1" * 5000 + b"\n", "cannot read suite file"),
        ("case.yaml", b"# \xff\n", "cannot read scenario file"),
        ("case.yaml", b"extra: " + b"1" * 5000 + b"\n", "unparseable scenario file"),
        ("c.map", b"\xff", "cannot read map file"),
    ], ids=["suite_not_utf8", "suite_int_past_digit_limit", "scenario_not_utf8",
            "scenario_int_past_digit_limit", "map_not_utf8"])
    def test_unreadable_input_file(self, tmp_path, capsys, name, tail, message):
        suite = write_tiny_suite(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + tail)
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("text,message", [
        ("version: scenario_v1\nmap_file: c.map\ngoal: [4, 0]\ninstruction_text: walk\n",
         "missing required field 'start'"),
        ("version: scenario_v1\nstart: [0, 0\n", "unparseable scenario file: "),
    ], ids=["missing_start", "not_yaml"])
    def test_a_scenario_error_names_its_file(self, tmp_path, capsys, text, message):
        suite = write_tiny_suite(tmp_path)
        (tmp_path / "case.yaml").write_text(text)
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "o")])
        _, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith(f"error: {tmp_path / 'case.yaml'}: {message}"), err

    @pytest.mark.parametrize("name,old,new,message", [
        ("case.yaml", "walk\n", "walk\ndynamic_obstacles: 5\n", "dynamic_obstacles must be a list"),
        ("case.yaml", "walk\n", "walk\ndynamic_obstacles: false\n", "dynamic_obstacles must be a list"),
        ("case.yaml", "map_file: c.map", "map_file: [1]", "'map_file' must be a path string"),
        ("case.yaml", "map_file: c.map", 'map_file: "c\\0.map"', "cannot read map file"),
        ("suite.yaml", "file: case.yaml", "file: 5", "scenarios[0].file must be a path string"),
        ("suite.yaml", "file: case.yaml", 'file: "case\\0.yaml"', "cannot read scenario file"),
    ], ids=["dynamic_obstacles_int", "dynamic_obstacles_false", "map_file_list", "map_file_nul", "suite_file_int",
            "suite_file_nul"])
    def test_mistyped_input_field(self, tmp_path, capsys, name, old, new, message):
        suite = write_tiny_suite(tmp_path)
        path = tmp_path / name
        path.write_text(path.read_text().replace(old, new))
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("sid", [
        "../esc", "a/b", "a\\b", ".", "..", '"a\\0b"', '""',
        # only strings and integers are ids: YAML null, lists, booleans, floats and maps are not
        "null", "[1, 2]", "true", "1.5", "{a: 1}",
        # a second scenario under the same id, also when one is an int and one a string
        pytest.param("x\n    file: case.yaml\n  - id: x", id="repeated"),
        pytest.param("5\n    file: case.yaml\n  - id: '5'", id="repeated_int_and_str"),
    ])
    def test_unsafe_suite_id(self, tmp_path, capsys, sid):
        # the id names trajectories_<id>.svg, so it is checked before anything is written
        index = sid.count("- id:")  # the entry the error names: the last one
        suite = write_tiny_suite(tmp_path)
        suite.write_text(SUITE_TEXT.replace("id: tiny", f"id: {sid}"))
        out_dir = tmp_path / "o" / "inner"
        out_dir.mkdir(parents=True)
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: scenarios[{index}].id")
        assert index == 0 or "repeats scenarios[0].id" in err
        assert "Traceback" not in err
        assert list((tmp_path / "o").rglob("*")) == [out_dir]  # nothing written, in or beside it

    def test_missing_suite_file(self, tmp_path, capsys):
        rc = main(["bench", "--suite", str(tmp_path / "absent.yaml"),
                   "--out-dir", str(tmp_path / "o")])
        _, err = capsys.readouterr()
        assert rc == 1
        assert "error:" in err

    def test_default_bundled_suite(self, tmp_path, capsys):
        rc = main(["bench", "--out-dir", str(tmp_path / "o")])
        out, _ = capsys.readouterr()
        assert rc == 0
        assert "astar" in out and "rrt" in out and "grounded:mock" in out
        assert (tmp_path / "o" / "rows.csv").exists()

    @pytest.mark.parametrize("flag", [["--parallelism", "2"], ["--allow-network"]])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flag):
        suite = write_tiny_suite(tmp_path)
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "o"), *flag])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_dir_is_a_file(self, tmp_path, capsys):
        suite = write_tiny_suite(tmp_path)
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(suite)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: cannot create output directory {suite}")

    @pytest.mark.parametrize("config", ["out_dir: [1, 2]", "suite: {a: 1}"])
    def test_config_value_with_no_flag_text(self, tmp_path, capsys, monkeypatch, config):
        # refused before the output directory is made, so no directory named after the value appears
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config + "\n")
        rc = main(["bench", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("usage error: bad config-file value ")
        assert list(tmp_path.iterdir()) == [cfg]  # nothing written

    @pytest.mark.parametrize("target", ["rows.csv", "report.txt", "trajectories_tiny.svg"])
    def test_target_is_a_directory(self, tmp_path, capsys, monkeypatch, target):
        # found before the first trial, not as a traceback after the last one
        suite = write_tiny_suite(tmp_path)
        out_dir = tmp_path / "o"
        (out_dir / target).mkdir(parents=True)
        monkeypatch.setattr(bench, "run_suite", lambda *args: pytest.fail("a trial ran"))
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err == f"error: cannot write {out_dir / target}: it is a directory\n"
        assert list(out_dir.iterdir()) == [out_dir / target]

    def test_target_name_too_long(self, tmp_path, capsys, monkeypatch):
        # a 300-character id is a safe id, but no common file system holds its SVG's name
        suite = write_tiny_suite(tmp_path)
        suite.write_text(SUITE_TEXT.replace("id: tiny", "id: " + "x" * 300))
        out_dir = tmp_path / "o"
        monkeypatch.setattr(bench, "run_suite", lambda *args: pytest.fail("a trial ran"))
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {out_dir / ('trajectories_' + 'x' * 300 + '.svg')}: ")
        assert list(out_dir.iterdir()) == []

    def test_failed_write_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # a target that turns into a directory while the trials run fails its write;
        # the files written before it stay
        suite = write_tiny_suite(tmp_path)
        out_dir = tmp_path / "o"
        run_suite = bench.run_suite

        def run_then_block(*args):
            result = run_suite(*args)
            (out_dir / "report.txt").mkdir()
            return result

        monkeypatch.setattr(bench, "run_suite", run_then_block)
        rc = main(["bench", "--suite", str(suite), "--out-dir", str(out_dir)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {out_dir / 'report.txt'}: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.txt", "rows.csv"]
        assert (out_dir / "rows.csv").read_text().startswith("planner_id,")

    @pytest.mark.parametrize("name", ["out_dir", "suite"])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_empty_path_is_a_usage_error(self, tmp_path, capsys, monkeypatch, source, name):
        # an empty out_dir would write into the working directory, an empty suite run the bundled one
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setattr(bench, "run_suite", lambda *args: pytest.fail("a trial ran"))
        argv = ["bench"]
        if source == "flag":
            argv += ["--" + name.replace("_", "-"), ""]
        elif source == "env":
            monkeypatch.setenv("GRIDGROUND_" + name.upper(), "")
        else:
            (tmp_path / "cfg.yaml").write_text(f"{name}: ''\n")
            argv += ["--config", str(tmp_path / "cfg.yaml")]
        rc = main(argv)
        assert (rc, *capsys.readouterr()) == (1, "", f"usage error: {name} must not be empty\n")
        assert list(work.iterdir()) == []

    def test_nul_in_out_dir_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # a NUL is no path: Path.mkdir raised ValueError, a traceback
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bench, "run_suite", lambda *args: pytest.fail("a trial ran"))
        (tmp_path / "c.yaml").write_text('out_dir: "o\\0x"\n')
        rc = main(["bench", "--config", "c.yaml"])
        assert (rc, *capsys.readouterr()) == (1, "", "usage error: out_dir must not contain a NUL character, got 'o\\x00x'\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "c.yaml"]

    def test_nul_in_out_dir_from_the_library_is_a_config_error(self, tmp_path):
        suite = write_tiny_suite(tmp_path)
        with pytest.raises(ConfigError, match="cannot create output directory"):
            bench.run_suite_file(suite, str(tmp_path / "o\0x"))

    def test_out_dir_from_env(self, tmp_path, capsys, monkeypatch):
        suite = write_tiny_suite(tmp_path)
        monkeypatch.setenv("GRIDGROUND_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["bench", "--suite", str(suite)])
        assert rc == 0
        assert (tmp_path / "envout" / "rows.csv").exists()


class TestProcessBoundary:
    """A closed stdout and a Ctrl-C end in a documented exit code, not a traceback."""

    RUN = "import sys; sys.path.insert(0, sys.argv[1]); from gridground.cli import main; sys.exit(main(sys.argv[2:]))"

    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("planner", ["astar", "grounded", "replay"])
    def test_plan_into_a_closed_pipe_exits_141(self, planner, buffered):
        # buffered, the plan's lines meet the closed pipe at the last flush; unbuffered, at their one write
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED" or not buffered}
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = Path(gridground.__file__).resolve().parent.parent
        scorer = ["--scorer", "oracle"]
        if planner == "replay":  # a grounded walk replayed from the recorded cassette
            tape = RECORDED / "corridor_grounded.jsonl"
            planner, scorer = "grounded", ["--scorer", "remote", "--cassette", str(tape)]
        argv = plan_args(str(bundled_path("corridor.map")), "2,1", "21,8", "--planner", planner, *scorer)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-c", self.RUN, str(src), *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    def test_ctrl_c_during_bench_prints_one_line_and_exits_130(self, tmp_path, monkeypatch, capsys):
        def interrupted(suite_path, out_dir):
            raise KeyboardInterrupt

        monkeypatch.setattr(bench, "run_suite_file", interrupted)
        try:
            rc = main(["bench", "--out-dir", str(tmp_path / "out")])
        except KeyboardInterrupt:
            pytest.fail("the interrupt reached the caller of main")
        assert rc == 130
        assert capsys.readouterr() == ("", "interrupted\n")


class TestGenMaps:
    def test_writes_named_deterministic_files(self, tmp_path, capsys):
        out = tmp_path / "maps"
        rc = main(["gen-maps", "--count", "3", "--size", "8x6", "--density", "0.2",
                   "--seed", "5", "--out-dir", str(out)])
        _, err = capsys.readouterr()
        assert rc == 0
        assert "wrote 3 maps" in err
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "map_8x6_d0.2_s5.map", "map_8x6_d0.2_s6.map", "map_8x6_d0.2_s7.map",
        ]
        grid = load_map((out / names[0]).read_text())
        assert grid.width == 8 and grid.height == 6

        first = (out / names[0]).read_bytes()
        out2 = tmp_path / "maps2"
        main(["gen-maps", "--count", "1", "--size", "8x6", "--density", "0.2",
              "--seed", "5", "--out-dir", str(out2)])
        capsys.readouterr()
        assert (out2 / "map_8x6_d0.2_s5.map").read_bytes() == first

    def test_density_formatting_trims_zeros(self, tmp_path, capsys):
        out = tmp_path / "maps"
        rc = main(["gen-maps", "--count", "1", "--size", "4x4", "--density", "0.25",
                   "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "map_4x4_d0.25_s0.map").exists()

    def test_bad_size(self, tmp_path, capsys):
        rc = main(["gen-maps", "--count", "1", "--size", "8by6", "--density", "0.2",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "--size" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0x5", "5x-3"])
    def test_nonpositive_size(self, tmp_path, capsys, size):
        rc = main(["gen-maps", "--count", "1", "--size", size, "--density", "0.2",
                   "--out-dir", str(tmp_path / "maps")])
        _, err = capsys.readouterr()
        assert rc == 1
        assert err.startswith("usage error: --size")
        assert not (tmp_path / "maps").exists()

    @pytest.mark.parametrize("size", ["4097x1", "1x4097"])
    def test_size_past_the_cap(self, tmp_path, capsys, size):
        rc = main(["gen-maps", "--count", "1", "--size", size, "--density", "0.2",
                   "--out-dir", str(tmp_path / "maps")])
        assert (rc, *capsys.readouterr()) == (1, "", f"usage error: --size dimensions must be 1 to 4096, got {size!r}\n")
        assert not (tmp_path / "maps").exists()

    def test_size_at_the_cap(self, tmp_path, capsys):
        rc = main(["gen-maps", "--count", "1", "--size", "4096x1", "--density", "0.2",
                   "--out-dir", str(tmp_path / "maps")])
        assert rc == 0
        assert load_map((tmp_path / "maps" / "map_4096x1_d0.2_s0.map").read_text()).width == 4096

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_empty_out_dir_is_a_usage_error(self, tmp_path, capsys, monkeypatch, source):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = ["gen-maps", "--count", "1", "--size", "4x4", "--density", "0.2"]
        if source == "flag":
            argv += ["--out-dir", ""]
        elif source == "env":
            monkeypatch.setenv("GRIDGROUND_OUT_DIR", "")
        else:
            (tmp_path / "cfg.yaml").write_text("out_dir: ''\n")
            argv += ["--config", str(tmp_path / "cfg.yaml")]
        rc = main(argv)
        assert (rc, *capsys.readouterr()) == (1, "", "usage error: out_dir must not be empty\n")
        assert list(work.iterdir()) == []

    def test_nul_in_out_dir_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.yaml").write_text('out_dir: "o\\0x"\n')
        rc = main(["gen-maps", "--count", "1", "--size", "4x4", "--density", "0.1", "--config", "c.yaml"])
        assert (rc, *capsys.readouterr()) == (1, "", "usage error: out_dir must not contain a NUL character, got 'o\\x00x'\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "c.yaml"]

    @pytest.mark.parametrize("count", ["0", "10001"])
    def test_bad_count(self, tmp_path, capsys, count):
        rc = main(["gen-maps", "--count", count, "--size", "4x4", "--density", "0.2",
                   "--out-dir", str(tmp_path)])
        assert (rc, *capsys.readouterr()) == (1, "", f"usage error: --count must be 1 to 10000, got {count}\n")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_density_exit_1(self, tmp_path, capsys):
        rc = main(["gen-maps", "--count", "1", "--size", "4x4", "--density", "1.5",
                   "--out-dir", str(tmp_path)])
        _, err = capsys.readouterr()
        assert rc == 1
        assert "error:" in err

    def test_out_dir_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        rc = main(["gen-maps", "--count", "1", "--size", "4x4", "--density", "0.2",
                   "--out-dir", str(blocker)])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and str(blocker) in err


# --- every input path ends in its exit code: one value of a bundled input replaced ---

BUNDLED = Path(gridground.__file__).resolve().parent / "data"
FUZZ_CONFIG = {
    "planner": "grounded", "scorer": "remote", "tau": 0.5, "seed": 0, "connectivity": 4, "max_steps": 20,
    "remote": {"base_url": "http://127.0.0.1:9/v1", "model_name": "gpt-3.5-turbo", "api_key_env": "API_KEY",
               "timeout": 30.0, "max_retries": 3, "temperature": 0.0},
}
FUZZ_INPUTS = {
    **{p.name: load_yaml(p.read_text(encoding="utf-8")) for p in sorted(BUNDLED.glob("*.yaml"))},
    "config.yaml": FUZZ_CONFIG,
}


def value_paths(doc, path=()):
    """The path of every value in a YAML document, the document itself included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from value_paths(value, (*path, key))


FUZZ_SITES = [(name, path) for name, doc in FUZZ_INPUTS.items() for path in value_paths(doc)]
# an int past Python's digit limit cannot be dumped, so this token stands in for it in the YAML text;
# the nested token stands in for a list nested past the YAML depth limit
BIG_INT_TOKEN, NESTED_TOKEN = "big_int_token", "nested_token"
FUZZ_SCALARS = st.one_of(
    # small ints only: a large trials_per_pair is a long valid run, not a fault
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([BIG_INT_TOKEN, NESTED_TOKEN]),
    st.sampled_from([0.5, -1.5, math.nan, math.inf, -math.inf]), st.text(max_size=3),
)
FUZZ_VALUES = st.one_of(
    FUZZ_SCALARS, st.lists(FUZZ_SCALARS, max_size=2), st.dictionaries(st.text(max_size=2), FUZZ_SCALARS, max_size=2)
)


def run_with_replaced_value(name, path, value):
    """Exit code and stderr of the CLI on the bundled inputs with one value of ``name`` replaced.

    A scenario or suite runs through ``bench`` on the default suite, the config
    through ``plan`` with the remote scorer replaying an empty cassette.
    """
    doc = copy.deepcopy(FUZZ_INPUTS[name])
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for p in BUNDLED.iterdir():
            shutil.copy(p, work / p.name)
        text = yaml.safe_dump(doc).replace(BIG_INT_TOKEN, "1" * 5000).replace(NESTED_TOKEN, "[" * 100 + "]" * 100)
        (work / name).write_text(text, encoding="utf-8")
        if name == "config.yaml":
            argv = ["plan", "--map", str(work / "corridor.map"), "--start", "2,1", "--goal", "21,8",
                    "--cassette", os.devnull, "--config", str(work / name)]
        else:
            argv = ["bench", "--suite", str(work / "default_suite.yaml"), "--out-dir", str(work / "out")]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            return main(argv), err.getvalue()


@given(site=st.sampled_from(FUZZ_SITES), value=FUZZ_VALUES)
@example(site=("config.yaml", ("remote", "max_retries")), value=math.inf)  # no OverflowError
@example(site=("two_corridor.scenario.yaml", ("dynamic_obstacles",)), value=False)  # not "no obstacles"
@settings(derandomize=True, deadline=None, max_examples=200)
def test_one_replaced_input_value_ends_in_an_exit_code(site, value):
    name, path = site
    rc, err = run_with_replaced_value(name, path, value)  # an exception fails the test
    if rc != 0:  # one line that says what went wrong
        assert re.fullmatch(r"(usage error|error|planning failed): [^\n]*\n", err), err
    original = FUZZ_INPUTS[name]
    for key in path:
        original = original[key]
    if isinstance(original, (list, dict)) and value is not None and type(value) is not type(original):
        assert rc == 1  # only null stands in for an absent list or mapping
    elif name == "config.yaml" and len(path) == 1 and path[0] in cli._OPTIONS and isinstance(value, (list, dict)):
        assert rc == 1  # a top-level key is read from its text, and a list or mapping has none
    else:
        assert rc in (0, 1, 2)


CORRIDOR = BUNDLED / "corridor.map"
CORRIDOR_START, CORRIDOR_GOAL = GridPose(2, 1), GridPose(21, 8)
LONG_COORDINATE_REPLY = "path: (2,1) (1" + "0" * 400 + ",1)"


def corridor_exchanges(planner):
    """(request body, reply) of each exchange that walks corridor.map along its A* path."""
    grid = load_map(CORRIDOR.read_text())
    instruction = Instruction("reach the goal cell", CORRIDOR_GOAL)
    path = astar(grid, CORRIDOR_START, CORRIDOR_GOAL).waypoints
    if planner == "fullpath":
        prompt = translator.serialize_fullpath_prompt(grid, CORRIDOR_START, instruction)
        return [(request_body(prompt), "path: " + " ".join(f"({p.x},{p.y})" for p in path))]
    exchanges = []
    for state, nxt in zip(path, path[1:]):
        cands = tuple(GridPose(state.x + a.delta[0], state.y + a.delta[1]) for a in ACTIONS)
        prompt = translator.serialize_step_prompt(grid, state, instruction, cands)
        exchanges.append((request_body(prompt), "scores: " + " ".join("1" if c == nxt else "0" for c in cands)))
    return exchanges


CORRIDOR_EXCHANGES = {planner: corridor_exchanges(planner) for planner in ("grounded", "fullpath")}


def run_corridor_plan(planner, map_text, cassette_text):
    """Exit code, stdout and stderr of `plan` on corridor.map from (2,1) to (21,8), replaying a cassette."""
    with tempfile.TemporaryDirectory() as tmp:
        m, tape = Path(tmp) / "corridor.map", Path(tmp) / "tape.jsonl"
        m.write_text(map_text, encoding="utf-8")
        tape.write_text(cassette_text, encoding="utf-8")
        argv = plan_args(str(m), "2,1", "21,8", "--planner", planner, "--scorer", "remote", "--cassette", str(tape))
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            return main(argv), out.getvalue(), err.getvalue()


def tape_text(exchanges):
    return "".join(cassette_line(body, reply) + "\n" for body, reply in exchanges)


@pytest.mark.parametrize("planner", ["grounded", "fullpath"])
def test_recorded_corridor_cassettes_replay(planner):
    # the fuzz below mutates these inputs, so unmutated they must plan the whole walk
    rc, out, err = run_corridor_plan(planner, CORRIDOR.read_text(), tape_text(CORRIDOR_EXCHANGES[planner]))
    assert rc == 0, err
    assert out.splitlines()[0] == "(2,1)" and out.splitlines()[-1] == "(21,8)"


RECORDED = Path(__file__).parent / "data"


@pytest.mark.parametrize("planner", ["grounded", "fullpath"])
def test_cassettes_recorded_from_rendered_bodies_replay_byte_for_byte(planner, capsys):
    # recorded with the default endpoint config through RemoteScorer and a fake transport that answered
    # with shortest-route replies, when each request was hashed from its rendered body; a request
    # now hashed from its pieces must find the same record
    tape = RECORDED / f"corridor_{planner}.jsonl"
    rc = main(plan_args(str(CORRIDOR), "2,1", "21,8", "--planner", planner, "--scorer", "remote", "--cassette", str(tape)))
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert out == (RECORDED / f"corridor_{planner}.stdout").read_text(encoding="utf-8")


def test_plan_writes_its_waypoints_in_one_write(monkeypatch, capsys):
    writes = []

    class Stdout(io.StringIO):
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    tape = RECORDED / "corridor_grounded.jsonl"
    rc = main(plan_args(str(CORRIDOR), "2,1", "21,8", "--planner", "grounded", "--scorer", "remote",
                        "--cassette", str(tape)))
    assert rc == 0, capsys.readouterr().err
    assert writes == [(RECORDED / "corridor_grounded.stdout").read_text(encoding="utf-8")]


@pytest.mark.parametrize("setting", ["timeout: 10000000000.0", "max_retries: 11"])
def test_an_endpoint_setting_past_its_cap_is_a_usage_error(setting, tmp_path, capsys):
    # a replay sends nothing, yet the config is checked first: a live run would overflow the socket's
    # timeout, or back off for 2**attempt seconds, and end in a traceback
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"remote:\n  base_url: http://127.0.0.1:9/v1\n  {setting}\n")
    tape = RECORDED / "corridor_grounded.jsonl"
    rc = main(plan_args(str(CORRIDOR), "2,1", "21,8", "--planner", "grounded", "--scorer", "remote",
                        "--cassette", str(tape), "--config", str(cfg)))
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("usage error: bad config-file 'remote' value: "), err


FRACTION = st.floats(0.0, 1.0)
# long digit runs first: a coordinate or score past what a cell or a float holds
FUZZ_INSERTS = st.one_of(
    st.sampled_from(["1" + "0" * 400, "9" * 20, "0" * 12, "1" * 5000, "-", "(", ")", ",", " ", "\n", "#", ".", "?",
                     "path: ", "scores: ", "nan", "1e999", '"', "{", "[", "\\"]),
    st.text(max_size=4),
)


def mutate(text, edits):
    """text with each (start, end, insert) edit applied in turn: the span between the two
    fractions of its length is replaced by insert, or with end None, overwritten by it."""
    for a, b, insert in edits:
        i = int(a * len(text))
        j = i + len(insert) if b is None else max(i, int(b * len(text)))
        text = text[:i] + insert + text[j:]
    return text


@given(
    planner=st.sampled_from(["grounded", "fullpath"]),
    target=st.sampled_from(["map", "cassette", "reply"]),
    exchange=st.integers(0, 100),
    # an overwrite with map characters keeps a map's rows whole
    edits=st.lists(st.tuples(FRACTION, st.none() | FRACTION, FUZZ_INSERTS | st.text("#.?", max_size=3)),
                   min_size=1, max_size=3),
)
@example(planner="fullpath", target="reply", exchange=0, edits=[(0.0, 1.0, LONG_COORDINATE_REPLY)])
@example(planner="grounded", target="reply", exchange=3, edits=[(0.0, 1.0, "scores: 1" + "0" * 400 + " 0 0 0")])
@settings(derandomize=True, deadline=2000, max_examples=300)
def test_mutated_map_or_cassette_ends_in_an_exit_code(planner, target, exchange, edits):
    map_text, exchanges = CORRIDOR.read_text(), list(CORRIDOR_EXCHANGES[planner])
    cassette = tape_text(exchanges)
    if target == "map":
        map_text = mutate(map_text, edits)
    elif target == "cassette":
        cassette = mutate(cassette, edits)
    else:  # one recorded reply, in a cassette that stays valid JSON
        k = exchange % len(exchanges)
        exchanges[k] = (exchanges[k][0], mutate(exchanges[k][1], edits))
        cassette = tape_text(exchanges)
    rc, out, err = run_corridor_plan(planner, map_text, cassette)  # an exception fails the test
    assert rc in (0, 1, 2)
    if rc != 0:  # one line that says what went wrong, and no partial path
        assert re.fullmatch(r"(usage error|error|planning failed): [^\n]*\n", err), err
        assert out == ""


# --- every input path ends in its exit code: whole suite, scenario and config texts mutated ---

# default_suite.yaml cut to one scenario, A* only and one trial, so an example costs one trial
FUZZ_TEXTS = {
    "default_suite.yaml": (BUNDLED / "default_suite.yaml").read_text(encoding="utf-8")
    .replace('planners: [astar, rrt, "grounded:mock"]', "planners: [astar]")
    .replace("trials_per_pair: 2", "trials_per_pair: 1")
    .split("  - id: reference_world")[0] + "  - id: two_corridor\n    file: two_corridor.scenario.yaml\n",
    "two_corridor.scenario.yaml": (BUNDLED / "two_corridor.scenario.yaml").read_text(encoding="utf-8"),
    "config.yaml": "out_dir: out\nsuite: default_suite.yaml\nseed: 0\n",
}
# no "/": a mutated out_dir or suite stays one name in the example's own directory; control
# characters, which YAML rejects before it parses, come only from the list
YAML_INSERTS = st.one_of(
    st.sampled_from(["\0", '"\\0"', "\\0", ": ", "- ", "[", "]", "{", "}", "&a ", "*a", "!!str ", "!!binary ", "'",
                     "\t", "~", "null", "-1", "9" * 20, "1" * 5000, "0x", ".inf", "\n  ", "\n", "#", "|\n", ",", "..",
                     "\ufeff", "\x85"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters="/"), max_size=4),
)


def run_mutated_text(name, edits):
    """(argv, exit code, stderr) of each run: `bench` on the mutated files, and `gen-maps` on a mutated config."""
    texts = dict(FUZZ_TEXTS)
    texts[name] = mutate(texts[name], edits)
    runs = [["bench", "--config", "config.yaml"]]
    if name == "config.yaml":
        runs.append(["gen-maps", "--count", "1", "--size", "4x4", "--density", "0.1", "--config", "config.yaml"])
    results = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "a" / "work"  # an out_dir of ".." still lands in the temporary directory
        work.mkdir(parents=True)
        for file_name, text in texts.items():
            (work / file_name).write_text(text, encoding="utf-8")
        os.chdir(work)  # the config's paths are relative to the working directory
        try:
            for argv in runs:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                    results.append((argv, main(argv), err.getvalue()))
        finally:
            os.chdir(cwd)
    return results


@given(
    name=st.sampled_from(sorted(FUZZ_TEXTS)),
    edits=st.lists(st.tuples(FRACTION, st.none() | FRACTION, YAML_INSERTS), min_size=1, max_size=3),
)
@example(name="config.yaml", edits=[(0.0, 1.0, FUZZ_TEXTS["config.yaml"].replace("out_dir: out", 'out_dir: "o\\0x"'))])
@settings(derandomize=True, deadline=5000, max_examples=300)
def test_mutated_suite_scenario_or_config_text_ends_in_an_exit_code(name, edits):
    for argv, rc, err in run_mutated_text(name, edits):  # an exception fails the test
        assert rc in (0, 1, 2), argv
        if rc != 0:  # one line that says what went wrong, a YAML error's message too
            assert re.fullmatch(r"(usage error|error|planning failed): [^\n]*\n", err), (argv, err)


UNCLOSED = "planners: [astar\n"  # a YAML syntax error on line 2, column 1, inside a flow sequence


@pytest.mark.parametrize("kind, prefix", [
    ("suite", "error: cannot read suite file {bad}: "),
    ("scenario", "error: {bad}: unparseable scenario file: "),
    ("config", "usage error: cannot read config file {bad}: "),
])
def test_a_yaml_syntax_error_is_one_line_with_its_place(kind, prefix, tmp_path):
    # PyYAML's own message names "<unicode string>" over four lines; libyaml and PyYAML word the problem apart
    bad = tmp_path / f"bad.{kind}.yaml"
    bad.write_text(UNCLOSED, encoding="utf-8")
    if kind == "config":
        argv = plan_args(str(CORRIDOR), "2,1", "21,8", "--config", str(bad))
    else:
        suite = bad if kind == "suite" else tmp_path / "suite.yaml"
        if kind == "scenario":
            suite.write_text("version: suite_v1\nscenarios:\n  - id: s\n    file: bad.scenario.yaml\n"
                             "planners: [astar]\ntrials_per_pair: 1\n", encoding="utf-8")
        argv = ["bench", "--suite", str(suite), "--out-dir", str(tmp_path / "out")]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as captured:
        rc, err = main(argv), captured.getvalue()
    assert rc == 1
    head = prefix.format(bad=bad)
    assert err.startswith(head), err
    assert re.fullmatch(r"[^\n]+ at line 2, column 1 \(while parsing a flow sequence\)\n", err[len(head):]), err


def test_unmutated_texts_run():
    # the fuzz above mutates these texts, so unmutated they must run a trial and write a map
    (_, rc, err), (_, gen_rc, gen_err) = run_mutated_text("config.yaml", [])
    assert (rc, gen_rc) == (0, 0), err + gen_err
    assert "wrote 1 trial rows under out" in err and "wrote 1 maps under out" in gen_err
