import gc
import hashlib
import itertools
import json
import math
import random
import re
import socket
import tempfile
import threading
import urllib.error
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import gridground.scorers as scorers_mod
from gridground.errors import (
    AuthMissing,
    ConfigError,
    MalformedReply,
    OutOfBounds,
    OverlappingMarkers,
    RetriesExhausted,
    ScorerFailure,
    ScorerTimeout,
)
from gridground.bundled import bundled_path
from gridground.gridmap import GridPose, OccupancyGrid, load_map, random_map, serialize_map
from gridground.grounded import ACTIONS, Instruction, PlannerConfig, plan
from gridground.scorers import (
    Cassette,
    ChatEndpointConfig,
    MockScorer,
    OracleScorer,
    RemoteScorer,
    TaskScorerQuery,
    mock_score,
    request_fingerprint,
)
from gridground.planners import build_planner
from gridground.simulator import load_scenario
from gridground import bench, translator

from conftest import count_bfs_runs, grid_from_rows, open_grid
from reference import (
    ReferenceOracleScorer,
    reference_cassette_entries,
    reference_cassette_store,
    reference_extract_content,
    reference_fingerprint,
)

E_MINUS_2 = 0.1353352832366127  # math.exp(-2), frozen


def query_at(grid, state, goal, text="go"):
    cands = tuple(
        GridPose(state[0] + a.delta[0], state[1] + a.delta[1]) for a in ACTIONS
    )
    return TaskScorerQuery(Instruction(text, GridPose(*goal)), grid, GridPose(*state), cands)


class TestTaskScorerQuery:
    def test_four_named_fields_built_by_keyword(self):
        grid, instruction = open_grid(3, 3), Instruction("go", GridPose(2, 2))
        cands = (GridPose(1, 0), GridPose(2, 1), GridPose(0, 1), GridPose(1, 2))
        q = TaskScorerQuery(instruction=instruction, grid=grid, state=GridPose(1, 1), candidates=cands)
        assert TaskScorerQuery._fields == ("instruction", "grid", "state", "candidates")
        assert (q.instruction, q.grid, q.state, q.candidates) == (instruction, grid, GridPose(1, 1), cands)
        assert q == (instruction, grid, GridPose(1, 1), cands)  # a tuple, equal to its plain 4-tuple

    @pytest.mark.parametrize("field", ["instruction", "grid", "state", "candidates"])
    def test_fields_cannot_be_assigned(self, field):
        q = query_at(open_grid(3, 3), (1, 1), (2, 2))
        with pytest.raises(AttributeError):
            setattr(q, field, None)


class TestMockScore:
    def test_softmax_of_manhattan_gap(self):
        # candidates up/left sit 2 steps farther than right/down
        q = query_at(open_grid(5, 5), (1, 1), (3, 3))
        got = mock_score(q, tau=1.0)
        assert got[1] == 1.0 and got[3] == 1.0
        assert got[0] == pytest.approx(E_MINUS_2, abs=1e-15)
        assert got[2] == pytest.approx(E_MINUS_2, abs=1e-15)

    def test_tau_sharpens_falloff(self):
        q = query_at(open_grid(5, 5), (1, 1), (3, 3))
        assert mock_score(q, tau=0.5)[0] == pytest.approx(math.exp(-4.0))

    def test_best_candidate_always_one(self):
        q = query_at(open_grid(9, 9), (4, 4), (0, 8))
        assert max(mock_score(q, tau=0.3)) == 1.0

    def test_ignores_occupancy(self):
        # distance stand-in is map-blind by design; affordances do the gating
        g = grid_from_rows(["...", "###", "..."])
        q = query_at(g, (1, 0), (1, 2))
        assert mock_score(q, tau=1.0)[3] == 1.0

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_invalid_tau(self, tau):
        q = query_at(open_grid(3, 3), (1, 1), (2, 2))
        with pytest.raises(ScorerFailure):
            mock_score(q, tau)

    def test_wrapper_fixes_tau(self):
        q = query_at(open_grid(5, 5), (1, 1), (3, 3))
        assert MockScorer(tau=1.0)(q) == mock_score(q, tau=1.0)


class TestOracleScore:
    def test_marks_only_downhill_moves(self):
        q = query_at(open_grid(5, 1), (1, 0), (4, 0))
        assert OracleScorer()(q) == (0.0, 1.0, 0.0, 0.0)

    def test_two_shortest_directions(self):
        q = query_at(open_grid(5, 5), (1, 1), (3, 3))
        assert OracleScorer()(q) == (0.0, 1.0, 0.0, 1.0)

    def test_blocked_detour_scores_around(self):
        g = grid_from_rows([
            "...",
            ".#.",
            "...",
        ])
        q = query_at(g, (0, 1), (2, 1))
        # straight ahead is the wall; up and down both start optimal detours
        assert OracleScorer()(q) == (1.0, 0.0, 0.0, 1.0)

    def test_disconnected_state_all_zero(self):
        g = grid_from_rows([
            "...#.",
            "####.",
            ".....",
        ])
        q = query_at(g, (0, 0), (4, 2))
        assert OracleScorer()(q) == (0.0, 0.0, 0.0, 0.0)

    def test_out_of_bounds_candidates_zero(self):
        q = query_at(open_grid(3, 3), (0, 0), (2, 2))
        got = OracleScorer()(q)
        assert got[0] == 0.0 and got[2] == 0.0  # up and left leave the map
        assert got[1] == 1.0 and got[3] == 1.0


class TestOracleScorerMemo:
    def test_holds_no_state(self):
        scorer = OracleScorer()
        assert vars(scorer) == {}
        scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert vars(scorer) == {}

    def test_one_field_per_content_and_goal(self, monkeypatch):
        builds = count_bfs_runs(monkeypatch)
        scorer = OracleScorer()
        g = open_grid(6, 6)
        for state in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            scorer(query_at(g, state, (5, 5)))
        OracleScorer()(query_at(g, (3, 3), (5, 5)))  # a fresh scorer reads the grid's field too
        assert builds == [g]

        scorer(query_at(g, (1, 1), (0, 0)))  # new goal forces a new field
        assert len(builds) == 2

        g2 = open_grid(6, 6)  # equal content, distinct object: shares g's fields
        scorer(query_at(g2, (1, 1), (5, 5)))
        scorer(query_at(g2, (1, 1), (0, 0)))
        assert len(builds) == 2

        g3 = g.with_occupied([GridPose(3, 3)])  # new content builds its own
        scorer(query_at(g3, (1, 1), (5, 5)))
        assert len(builds) == 3 and builds[2] is g3

    def test_releases_grid_it_moved_past(self):
        scorer = OracleScorer()
        g1 = open_grid(6, 6)
        scorer(query_at(g1, (1, 1), (5, 5)))
        ref = weakref.ref(g1)
        scorer(query_at(open_grid(6, 6), (1, 1), (5, 5)))
        del g1
        gc.collect()
        assert ref() is None  # the field lives on the grid, and nothing else holds the grid

    def test_matches_functional_form(self):
        # one shared scorer agrees with a fresh one per query
        g = grid_from_rows(["....", ".##.", "...."])
        scorer = OracleScorer()
        for state in [(0, 0), (0, 1), (0, 2), (3, 0)]:
            q = query_at(g, state, (3, 2))
            assert scorer(q) == OracleScorer()(q)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_stateful_reference(self, seed):
        # one query sequence over goal switches on one grid, equal-content
        # grids that are distinct objects, and sensed grids: a field kept for
        # the wrong grid or goal would show as a differing score
        rng = random.Random(seed)
        scorer, reference = OracleScorer(), ReferenceOracleScorer()
        base = random_map(12, 9, 0.25, seed)
        grids = [base]
        for _ in range(120):
            pick = rng.random()
            g = rng.choice(grids)
            if pick < 0.15:
                g = load_map(serialize_map(g))  # equal content, distinct object
            elif pick < 0.35:
                cells = [GridPose(rng.randrange(g.width), rng.randrange(g.height)) for _ in range(rng.randint(0, 4))]
                g = g.with_occupied(cells)
            grids.append(g)
            goal = GridPose(rng.randrange(g.width), rng.randrange(g.height))
            for _ in range(rng.randint(1, 4)):
                state = (rng.randrange(-1, g.width + 1), rng.randrange(-1, g.height + 1))
                q = query_at(g, state, goal)
                assert scorer(q) == reference(q)

    def test_reused_scenario_builds_its_base_field_once(self, monkeypatch):
        builds = count_bfs_runs(monkeypatch)
        scenario = load_scenario(bundled_path("corridor.scenario.yaml"))
        rows = [bench.run_trial(scenario, "grounded:oracle", seed, "corridor") for seed in (1, 2)]
        assert all(r.correct for r in rows)
        assert [g for g in builds if g is scenario.map] == [scenario.map]


class TestRequestFingerprint:
    def test_canonical_json_sha256(self):
        body = {"b": 1, "a": [1, 2]}
        canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
        assert request_fingerprint(body) == hashlib.sha256(canon.encode()).hexdigest()

    def test_key_order_irrelevant(self):
        assert request_fingerprint({"x": 1, "y": 2}) == request_fingerprint({"y": 2, "x": 1})

    def test_content_sensitive(self):
        assert request_fingerprint({"x": 1}) != request_fingerprint({"x": 2})


# printable ASCII and newlines (the text RemoteScorer sends), or any code point, surrogates
# included, weighted towards the characters JSON escapes
TEXT = st.one_of(
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.just("\n")),
    st.text(st.characters(exclude_categories=()) | st.sampled_from('\n\r\t\x00\x1f\x7f"\\/ ~\ud800\udfffé€😀')),
)
TEMPERATURE = st.one_of(
    st.floats(), st.integers(), st.integers(min_value=10**30), st.booleans(), st.none(), st.just(math.nan)
)


def chat_shaped(messages, model="gpt-3.5-turbo", temperature=0.0):
    return {"model": model, "temperature": temperature, "messages": messages}


class TestFingerprintMatchesReference:
    @given(
        st.lists(st.fixed_dictionaries({"role": TEXT, "content": TEXT}), max_size=3),
        TEXT,
        TEMPERATURE,
    )
    @settings(max_examples=300, deadline=None)
    def test_chat_shaped_bodies(self, messages, model, temperature):
        body = chat_shaped(messages, model, temperature)
        assert request_fingerprint(body) == reference_fingerprint(body)

    class Subdict(dict):
        pass

    MSG = {"role": "user", "content": 'a "map"\n#.R\\'}
    SYSTEM = {"role": "system", "content": translator.SYSTEM_TEXT}

    @pytest.mark.parametrize("body", [
        {**chat_shaped([MSG]), "extra": 1},
        {"model": "m", "messages": [MSG]},
        chat_shaped([{**MSG, "content": 5}]),
        chat_shaped([{**MSG, "content": None}]),
        chat_shaped([{**MSG, "name": "x"}]),
        chat_shaped([{"role": "user"}]),
        chat_shaped((MSG, MSG)),
        chat_shaped([Subdict(MSG)]),
        Subdict(chat_shaped([MSG])),
        chat_shaped([MSG, MSG, MSG]),
        chat_shaped([]),
        chat_shaped([MSG], model=None),
        chat_shaped([MSG], temperature=[0.5, {"b": 1, "a": 2}]),
        chat_shaped([MSG], temperature={"b": 1, "a": 2}),
        {"b": 1, "a": [1, "\u00e9"]},
        # two messages that are not both {role, content} dicts
        chat_shaped([SYSTEM, {**MSG, "name": "x"}]),
        chat_shaped([SYSTEM, {"role": "user"}]),
        chat_shaped([SYSTEM, Subdict(MSG)]),
        chat_shaped([SYSTEM, "a map"]),
        chat_shaped([[SYSTEM], MSG]),
        # two {role, content} messages whose texts are not all str
        chat_shaped([SYSTEM, {**MSG, "content": 5}]),
        chat_shaped([SYSTEM, {**MSG, "content": None}]),
        chat_shaped([{**SYSTEM, "role": None}, MSG]),
        chat_shaped([{**SYSTEM, "content": ["a", "b"]}, MSG]),
        chat_shaped([SYSTEM, MSG], model=None),
        chat_shaped([SYSTEM, MSG], model=3.5),
    ], ids=lambda b: repr(b)[:40])
    def test_near_miss_shapes(self, body):
        assert request_fingerprint(body) == reference_fingerprint(body)

    @given(TEXT | st.just(translator.SYSTEM_TEXT), TEXT, TEXT | st.just("gpt-3.5-turbo"),
           TEMPERATURE | st.sampled_from([0.0, -0.0, 1, 1.0, True]))
    @settings(max_examples=300, deadline=None)
    def test_remote_scorer_shaped_bodies(self, system, user, model, temperature):
        # the shape RemoteScorer sends, near its own system text and model: no shortcut may hash it apart
        body = chat_shaped([{"role": "system", "content": system}, {"role": "user", "content": user}], model, temperature)
        assert request_fingerprint(body) == reference_fingerprint(body)

    @pytest.mark.parametrize(
        "temperatures", [*itertools.permutations([0.0, -0.0]), *itertools.permutations([1, 1.0, True])], ids=repr
    )
    def test_equal_temperatures_keep_their_own_envelope(self, temperatures, tmp_path, monkeypatch):
        # equal values that json.dumps writes apart: keyed on the value alone, a shared envelope would
        # give each scorer the first one's bytes, and the later requests would hit its cassette record
        monkeypatch.setenv("FAKE_SCORER_KEY", "sekrit")
        path, sent = tmp_path / "tape.jsonl", []
        query = query_at(open_grid(4, 3), (0, 0), (3, 2))
        for t in temperatures:
            transport = BodyRecorder("scores: 1 0 0 0")
            config = ChatEndpointConfig("http://127.0.0.1:9", api_key_env="FAKE_SCORER_KEY", temperature=t)
            RemoteScorer(config, cassette=Cassette(path, record=True), transport=transport)(query)
            sent += transport.bodies
        stored = [json.loads(line)["request_hash"] for line in path.read_text(encoding="utf-8").splitlines()]
        assert [b["temperature"] for b in sent] == list(temperatures)
        assert stored == [reference_fingerprint(b) for b in sent]
        assert len(set(stored)) == len(temperatures)

    def test_big_int_past_the_digit_limit_fails_alike(self):
        body = chat_shaped([self.MSG], temperature=10**5000)
        with pytest.raises(ValueError) as ours:
            request_fingerprint(body)
        with pytest.raises(ValueError) as ref:
            reference_fingerprint(body)
        assert str(ours.value) == str(ref.value)

    def test_big_int_past_the_digit_limit_fails_alike_in_a_remote_scorer_body(self):
        body = chat_shaped([self.SYSTEM, self.MSG], temperature=10**5000)
        with pytest.raises(ValueError) as ours:
            request_fingerprint(body)
        with pytest.raises(ValueError) as ref:
            reference_fingerprint(body)
        assert str(ours.value) == str(ref.value)


class TestCassette:
    def test_round_trip_jsonl(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        tape = Cassette(path, record=True)
        tape.store("abc", '{"ok": 1}')
        tape.store("def", '{"ok": 2}')

        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"request_hash": "abc", "response_body": '{"ok": 1}'}

        reloaded = Cassette(path)
        assert reloaded.lookup("abc") == '{"ok": 1}'
        assert reloaded.lookup("def") == '{"ok": 2}'
        assert reloaded.lookup("missing") is None

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tape.jsonl"
        path.write_text('{"request_hash": "h", "response_body": "b"}\n\n\n')
        assert Cassette(path).lookup("h") == "b"

    def test_missing_file_starts_empty(self, tmp_path):
        tape = Cassette(tmp_path / "new.jsonl")
        assert tape.lookup("anything") is None


def chat_body(content):
    return json.dumps({"choices": [{"message": {"content": content}}]})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
REPLY_BODIES = st.one_of(
    st.text(),
    JSON_VALUES.map(json.dumps),
    # a chat completion whose content is any JSON value, or text near the scores and path grammars
    st.one_of(JSON_VALUES, st.text(), st.sampled_from(["scores: 1 0 0 0", "path: (1,1) (1,2)", "scores: 1e999 0 0 0"]))
    .map(lambda content: json.dumps({"choices": [{"message": {"content": content}}]})),
    # nested past the decoder's recursion limit, and an int past the digit limit
    st.tuples(st.sampled_from(["[", '{"a":', '{"choices":[']), st.sampled_from([10, 1_000, 100_000]))
    .map(lambda t: t[0] * t[1]),
    st.integers(4_301, 6_000).map(lambda n: "1" * n),
)


class FakeTransport:
    """Scripted transport: each entry is (status, body) or an exception to raise."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []

    def __call__(self, url, headers, body, timeout):
        self.requests.append((url, headers, body, timeout))
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


@pytest.fixture
def config():
    return ChatEndpointConfig(
        base_url="https://fake.example/v1/",
        model_name="test-model",
        api_key_env="FAKE_SCORER_KEY",
        timeout=5.0,
        max_retries=3,
    )


@pytest.fixture
def with_key(monkeypatch):
    monkeypatch.setenv("FAKE_SCORER_KEY", "sekrit")


def make_scorer(config, script, **kwargs):
    transport = FakeTransport(script)
    slept = []
    scorer = RemoteScorer(config, transport=transport, sleep=slept.append, **kwargs)
    return scorer, transport, slept


class TestRemoteScorer:
    def test_happy_path_request_shape(self, config, with_key):
        scorer, transport, slept = make_scorer(
            config, [(200, chat_body("scores: 1 0.5 0 0"))]
        )
        q = query_at(open_grid(4, 4), (1, 1), (3, 3))
        assert scorer(q) == (1.0, 0.5, 0.0, 0.0)
        assert slept == []

        url, headers, body, timeout = transport.requests[0]
        assert url == "https://fake.example/v1/chat/completions"
        assert headers == {"Authorization": "Bearer sekrit"}
        assert timeout == 5.0
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.0
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert body["messages"][1]["content"].startswith("map 4x4\n")

    def test_missing_key(self, config, monkeypatch):
        monkeypatch.delenv("FAKE_SCORER_KEY", raising=False)
        scorer, transport, _ = make_scorer(config, [(200, chat_body("scores: 1 1 1 1"))])
        with pytest.raises(AuthMissing, match="FAKE_SCORER_KEY"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert transport.requests == []

    def test_retry_then_success(self, config, with_key):
        scorer, transport, slept = make_scorer(
            config, [(500, "oops"), (429, "slow down"), (200, chat_body("scores: 0 1 0 0"))]
        )
        assert scorer(query_at(open_grid(4, 4), (1, 1), (3, 3))) == (0.0, 1.0, 0.0, 0.0)
        assert slept == [1.0, 2.0]
        assert len(transport.requests) == 3

    def test_exhausted_after_http_errors(self, config, with_key):
        scorer, transport, slept = make_scorer(config, [(503, "x")] * 4)
        with pytest.raises(RetriesExhausted, match="4 attempts"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert slept == [1.0, 2.0, 4.0]
        assert len(transport.requests) == 4

    def test_timeout_classified_separately(self, config, with_key):
        scorer, _, slept = make_scorer(config, [TimeoutError("slow")] * 4)
        with pytest.raises(ScorerTimeout):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert slept == [1.0, 2.0, 4.0]

    def test_last_error_decides_class(self, config, with_key):
        # a timeout early on does not make the final verdict a timeout
        scorer, _, _ = make_scorer(
            config,
            [TimeoutError("slow"), (500, "x"), (500, "x"), (500, "x")],
        )
        with pytest.raises(RetriesExhausted):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))

    def test_connection_errors_retry(self, config, with_key):
        scorer, _, slept = make_scorer(
            config,
            [ConnectionError("refused"), (200, chat_body("scores: 1 1 1 1"))],
        )
        assert scorer(query_at(open_grid(4, 4), (1, 1), (3, 3))) == (1.0, 1.0, 1.0, 1.0)
        assert slept == [1.0]

    def test_wrapped_timeout_is_a_timeout(self, config, with_key):
        # urllib wraps a connect timeout in URLError(reason=TimeoutError)
        scorer, _, _ = make_scorer(config, [urllib.error.URLError(TimeoutError("slow"))] * 4)
        with pytest.raises(ScorerTimeout, match="timeout"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))

    def test_other_url_error_is_a_transport_error(self, config, with_key):
        scorer, _, slept = make_scorer(config, [urllib.error.URLError("refused")] * 4)
        with pytest.raises(RetriesExhausted, match="transport error"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert slept == [1.0, 2.0, 4.0]

    def test_client_error_fails_fast(self, config, with_key):
        scorer, transport, slept = make_scorer(config, [(400, "bad request")])
        with pytest.raises(ScorerFailure, match="HTTP 400"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert len(transport.requests) == 1
        assert slept == []

    def test_unparseable_success_not_retried(self, config, with_key):
        scorer, transport, _ = make_scorer(config, [(200, "not json at all")])
        with pytest.raises(MalformedReply):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert len(transport.requests) == 1

    def test_bad_scores_line_raises_malformed(self, config, with_key):
        scorer, transport, _ = make_scorer(
            config, [(200, chat_body("I would rather chat about the weather."))]
        )
        with pytest.raises(MalformedReply):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert len(transport.requests) == 1

    def test_non_string_content_rejected(self, config, with_key):
        scorer, _, _ = make_scorer(
            config, [(200, json.dumps({"choices": [{"message": {"content": [1]}}]}))]
        )
        with pytest.raises(MalformedReply):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))

    @given(body=REPLY_BODIES, status=st.sampled_from([200, 200, 200, 404, 429, 500]))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_reply_body_is_scores_or_a_scorer_failure(self, config, with_key, body, status):
        # in both modes a reply the scorer cannot use is a ScorerFailure, never another exception
        scorer = RemoteScorer(config, transport=lambda *a: (status, body), sleep=lambda s: None)
        q = query_at(open_grid(4, 4), (1, 1), (3, 3))
        for ask in (lambda: scorer(q), lambda: scorer.route(q.grid, q.state, q.instruction)):
            try:
                ask()
            except ScorerFailure:
                pass



class TestCassetteIntegration:
    def test_record_then_offline_replay(self, config, with_key, tmp_path, monkeypatch):
        path = tmp_path / "tape.jsonl"
        q = query_at(open_grid(4, 4), (1, 1), (3, 3))

        recorder, transport, _ = make_scorer(
            config, [(200, chat_body("scores: 0.2 0.8 0 0"))],
            cassette=Cassette(path, record=True),
        )
        assert recorder(q) == (0.2, 0.8, 0.0, 0.0)
        assert len(transport.requests) == 1

        # replay: no key in the environment, transport must never fire
        monkeypatch.delenv("FAKE_SCORER_KEY")

        def refuse(*a):
            raise AssertionError("network touched during replay")

        replayer = RemoteScorer(config, cassette=Cassette(path), transport=refuse)
        assert replayer(q) == (0.2, 0.8, 0.0, 0.0)

    def test_replay_miss_fails_closed(self, config, tmp_path, monkeypatch):
        monkeypatch.delenv("FAKE_SCORER_KEY", raising=False)
        path = tmp_path / "tape.jsonl"
        path.write_text("")
        scorer = RemoteScorer(
            config, cassette=Cassette(path),
            transport=FakeTransport([(200, chat_body("scores: 1 1 1 1"))]),
        )
        with pytest.raises(ScorerFailure, match="no record"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))

    def test_record_mode_goes_live_on_miss_and_stores(self, config, with_key, tmp_path):
        path = tmp_path / "tape.jsonl"
        scorer, transport, _ = make_scorer(
            config, [(200, chat_body("scores: 1 0 0 0"))],
            cassette=Cassette(path, record=True),
        )
        q = query_at(open_grid(4, 4), (2, 1), (3, 3))
        scorer(q)
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec["response_body"] == chat_body("scores: 1 0 0 0")
        # identical query now replays from the tape instead of re-posting
        scorer2, transport2, _ = make_scorer(
            config, [], cassette=Cassette(path, record=True)
        )
        assert scorer2(q) == (1.0, 0.0, 0.0, 0.0)
        assert transport2.requests == []

    def test_failures_not_recorded(self, config, with_key, tmp_path):
        path = tmp_path / "tape.jsonl"
        scorer, _, _ = make_scorer(
            config, [(400, "nope")], cassette=Cassette(path, record=True)
        )
        with pytest.raises(ScorerFailure):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert not path.exists() or path.read_text() == ""


class BodyRecorder:
    """A transport that answers every request with one reply and keeps the bodies it was sent."""

    def __init__(self, content):
        self.reply = chat_body(content)
        self.bodies = []

    def __call__(self, url, headers, body, timeout):
        self.bodies.append(body)
        return 200, self.reply


ODD_TEMPERATURE = st.sampled_from([0.0, -0.0, 1, 1.0, True, None, 5e-324, 1e-300, -2.5e-308, 0.7])


@st.composite
def marked_grids(draw):
    """A grid with all three cell kinds possible, 1 to 6 cells on a side, and two distinct marker cells."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if width * height < 2:
        width += 1
    cells = draw(st.lists(st.sampled_from(".#?"), min_size=width * height, max_size=width * height))
    rows = ["".join(cells[y * width:(y + 1) * width]) for y in range(height)]
    state, goal = draw(st.lists(st.integers(0, width * height - 1), min_size=2, max_size=2, unique=True))
    return grid_from_rows(rows), GridPose(*divmod(state, width)[::-1]), GridPose(*divmod(goal, width)[::-1])


OFF_GRID = st.builds(GridPose, st.integers(-3, 9), st.integers(-3, 9))


class TestFingerprintFromPieces:
    """The fingerprint RemoteScorer hashes from the map's pieces is request_fingerprint of the body it sends."""

    @staticmethod
    def exchange(mode, scorer, grid, state, instruction, cands):
        if mode == "step":
            return scorer(TaskScorerQuery(instruction, grid, state, cands))
        return scorer.route(grid, state, instruction)

    @pytest.mark.parametrize("mode", ["step", "route"])
    @given(
        grids=st.lists(marked_grids(), min_size=1, max_size=3),
        cands=st.tuples(OFF_GRID, OFF_GRID, OFF_GRID, OFF_GRID),
        text=TEXT,
        model=TEXT | st.just("gpt-3.5-turbo"),
        temperature=ODD_TEMPERATURE,
    )
    # a 1-wide grid with R below G, a 1-tall one with R after G, and R before G in one row of a wider grid
    @example(grids=[(grid_from_rows(["#", ".", "?"]), GridPose(0, 2), GridPose(0, 0))],
             cands=(GridPose(0, -1), GridPose(1, 2), GridPose(-1, 2), GridPose(0, 3)), text="", model="m", temperature=0.0)
    @example(grids=[(grid_from_rows(["?.#."]), GridPose(3, 0), GridPose(1, 0))],
             cands=(GridPose(3, -1),) * 4, text='"\\\n', model="é😀", temperature=-0.0)
    @example(grids=[(grid_from_rows(["...", "#?#", "..."]), GridPose(0, 1), GridPose(2, 1))],
             cands=(GridPose(9, 9),) * 4, text="go", model="gpt-3.5-turbo", temperature=None)
    @settings(max_examples=150, deadline=None)
    def test_stored_fingerprint_matches_the_sent_body(self, mode, grids, cands, text, model, temperature):
        config = ChatEndpointConfig("http://127.0.0.1:9", model, api_key_env="FAKE_SCORER_KEY")
        config.temperature = temperature  # None fails the config's own check, yet a body can carry it
        content = "scores: 1 0 0 0" if mode == "step" else "path: (0,0)"
        transport = BodyRecorder(content)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setenv("FAKE_SCORER_KEY", "sekrit")
            path = Path(tmp) / "tape.jsonl"
            scorer = RemoteScorer(config, cassette=Cassette(path, record=True), transport=transport)
            # one scorer across the grids, back to the first: its kept map follows the grid it is asked about
            asked = [*grids, grids[0]]
            for grid, state, goal in asked:
                self.exchange(mode, scorer, grid, state, Instruction(text, goal), cands)
            stored = [json.loads(line)["request_hash"] for line in path.read_text(encoding="utf-8").splitlines()]
            assert stored == [reference_fingerprint(b) for b in transport.bodies]
            # each request's body was sent once, the first time it was asked; a repeat is a cassette hit
            expected = {}
            for grid, state, goal in asked:
                instruction = Instruction(text, goal)
                prompt = (translator.serialize_step_prompt(grid, state, instruction, cands) if mode == "step"
                          else translator.serialize_fullpath_prompt(grid, state, instruction))
                body = scorer._request_body(prompt)
                expected.setdefault(reference_fingerprint(body), body)
            assert transport.bodies == list(expected.values())
            # a fresh scorer replays every request from the tape, rendering none
            mp.setattr(translator, "serialize_step_prompt", None)
            mp.setattr(translator, "serialize_fullpath_prompt", None)
            replayer = RemoteScorer(config, cassette=Cassette(path), transport=None)
            for grid, state, goal in reversed(asked):
                self.exchange(mode, replayer, grid, state, Instruction(text, goal), cands)

    @pytest.mark.parametrize("mode", ["step", "route"])
    @pytest.mark.parametrize("state, goal, error", [
        ((1, 1), (1, 1), OverlappingMarkers), ((4, 0), (1, 1), OutOfBounds), ((0, 0), (0, -1), OutOfBounds),
    ])
    def test_marker_errors_come_before_any_cassette_lookup(self, mode, state, goal, error, tmp_path):
        cassette = Cassette(tmp_path / "tape.jsonl")
        cassette.lookup = None  # a lookup would raise TypeError
        scorer = RemoteScorer(ChatEndpointConfig("http://127.0.0.1:9"), cassette=cassette, transport=None)
        grid, instruction = open_grid(4, 3), Instruction("go", GridPose(*goal))
        cands = (GridPose(0, 0),) * 4
        with pytest.raises(error) as ours:
            self.exchange(mode, scorer, grid, GridPose(*state), instruction, cands)
        with pytest.raises(error) as rendered:
            translator.serialize_step_prompt(grid, GridPose(*state), instruction, cands)
        assert str(ours.value) == str(rendered.value)


class TestRenderOnlyOnAMiss:
    def walk_and_route(self, scorer):
        """A grounded walk and a fullpath route on corridor.map through one scorer."""
        from gridground.grounded import PlannerConfig, plan

        grid = load_map(bundled_path("corridor.map").read_text(encoding="utf-8"))
        instruction = Instruction("reach the goal cell", GridPose(21, 8))
        walk = plan(scorer, grid, GridPose(2, 1), instruction, PlannerConfig())
        return walk.path.waypoints, scorer.route(grid, GridPose(2, 1), instruction)

    def counted(self, monkeypatch):
        renders = []
        for name in ("serialize_step_prompt", "serialize_fullpath_prompt"):
            real = getattr(translator, name)
            monkeypatch.setattr(translator, name, lambda *a, real=real: renders.append(a) or real(*a))
        return renders

    def test_a_miss_renders_once_and_a_hit_never(self, tmp_path, monkeypatch):
        monkeypatch.setenv("API_KEY", "sekrit")
        oracle = OracleScorer()

        def answer(url, headers, body, timeout):
            user = body["messages"][1]["content"]
            if "Candidate moves:" not in user:
                return 200, chat_body(oracle.route(grid, GridPose(2, 1), Instruction("", GridPose(21, 8))))
            x, y = map(int, re.search(r"R is at \((\d+),(\d+)\)", user).groups())
            return 200, chat_body("scores: " + " ".join(map(str, oracle(query_at(grid, (x, y), (21, 8))))))

        grid = load_map(bundled_path("corridor.map").read_text(encoding="utf-8"))
        path = tmp_path / "tape.jsonl"
        renders = self.counted(monkeypatch)
        recorder = RemoteScorer(ChatEndpointConfig(), cassette=Cassette(path, record=True), transport=answer)
        waypoints, reply = self.walk_and_route(recorder)
        exchanges = len(path.read_text().splitlines())
        assert waypoints[-1] == (21, 8) and exchanges == len(waypoints)  # steps, then the route
        assert len(renders) == exchanges
        assert len({(r[1], len(r)) for r in renders}) == exchanges  # each prompt once: one per state, plus the route
        monkeypatch.delenv("API_KEY")
        for name in ("serialize_step_prompt", "serialize_fullpath_prompt"):
            monkeypatch.setattr(translator, name, lambda *a: pytest.fail("a cassette hit rendered a prompt"))
        replayer = RemoteScorer(ChatEndpointConfig(), cassette=Cassette(path), transport=None)
        assert self.walk_and_route(replayer) == (waypoints, reply)


class TestCassetteFile:
    GOOD = json.dumps({"request_hash": "abc", "response_body": "{}"}).encode()

    @pytest.mark.parametrize("bad,reason", [
        (b"{not json", "not JSON"),
        (json.dumps({"response_body": "{}"}).encode(), "needs request_hash"),
        (json.dumps({"request_hash": "def"}).encode(), "needs request_hash"),
        (json.dumps(["abc", "{}"]).encode(), "needs request_hash"),
        (json.dumps({"request_hash": 5, "response_body": {"choices": []}}).encode(), "needs request_hash"),
        (json.dumps({"request_hash": "def", "response_body": None}).encode(), "needs request_hash"),
        (json.dumps({"request_hash": 5, "response_body": "{}"}).encode(), "needs request_hash"),
        (b'{"request_hash": "\xff"}', "not UTF-8"),
        pytest.param(b"[" * 100_000, "not JSON: maximum recursion depth", id="nested_past_the_recursion_limit"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, bad, reason):
        path = tmp_path / "tape.jsonl"
        path.write_bytes(self.GOOD + b"\n\n" + bad + b"\n")  # the blank line still counts
        with pytest.raises(ConfigError, match=reason) as info:
            Cassette(path)
        assert f"cassette {path} line 3:" in str(info.value)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read cassette"):
            Cassette(tmp_path)  # a directory exists but cannot be read

    def test_name_too_long(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read cassette"):
            Cassette(tmp_path / ("a" * 5000))

    def test_unwritable_file(self, tmp_path):
        path = tmp_path / "absent" / "tape.jsonl"
        with pytest.raises(ConfigError) as info:
            Cassette(path, record=True).store("abc", "{}")
        assert str(info.value).startswith(f"cannot write cassette {path}: ")


def outcome(fn, *args):
    """What a call gives: ("ok", its result), or the type and text of what it raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the property compares whatever either side raises
        return type(exc), str(exc)


RECORDED = Path(__file__).parent / "data"
# texts near the edges of a cassette line: the line breaks str.splitlines knows, JSON's escapes and whitespace
EDGY_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(st.sampled_from('ab"\\/\n\r\t\x00\x0b\x0c\x1c\x1f\x7f\x85\xe9\u2028\u2029\ufeff\ud800\U0001f600 '),
            max_size=8),
    st.sampled_from(["", "{}", chat_body("scores: 1 0 0 0"), chat_body("path: (2,1) (3,1)")]),
)
RECORDS = st.lists(st.tuples(EDGY_TEXT, EDGY_TEXT), max_size=5)
FRACTIONS = st.floats(0.0, 1.0)
# each edit turns a cassette as Cassette.store writes it into one the writer never makes
EDITS = st.one_of(
    st.tuples(st.just("join"), FRACTIONS, st.sampled_from(["", " ", ",", ", ", "\t"])),  # two records on one line
    st.tuples(st.just("insert"), FRACTIONS, st.sampled_from(
        ["\u2028", "\x85", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\n", "\r", "\r\n", "\n\n", " \n", "\t",
         " ", "\ufeff", "{", "}", "[", '"', "\\", ",", "[" * 3000, "\xe9", "\u3000", "\xa0"]) | st.text(max_size=3)),
    st.tuples(st.just("bom"), st.just(0.0), st.just("\ufeff")),
    st.tuples(st.just("crlf"), st.just(0.0), st.sampled_from(["\r\n", "\r"])),
    st.tuples(st.just("reshape"), FRACTIONS, st.sampled_from(["reversed", "compact", "unicode", "extra", "indent"])),
    st.tuples(st.just("chop"), st.just(1.0), st.just("")),  # no newline after the last record
)


def reference_line(fingerprint, body):
    return json.dumps({"request_hash": fingerprint, "response_body": body}, sort_keys=True) + "\n"


def edit_cassette(text, edit):
    kind, at, arg = edit
    lines = text.splitlines(keepends=True)
    i = min(int(at * len(lines)), max(len(lines) - 1, 0))
    if kind == "join" and len(lines) > 1:
        return "".join(lines[:i]) + lines[i].rstrip("\n") + arg + "".join(lines[i + 1:])
    if kind == "insert":
        j = int(at * len(text))
        return text[:j] + arg + text[j:]
    if kind == "bom":
        return arg + text
    if kind == "crlf":
        return text.replace("\n", arg)
    if kind == "reshape" and lines:
        try:
            rec = json.loads(lines[i])
        except ValueError:
            return text
        if arg == "reversed":
            line = json.dumps(dict(reversed(list(rec.items()))))
        elif arg == "compact":
            line = json.dumps(rec, separators=(",", ":"))
        elif arg == "unicode":
            line = json.dumps(rec, ensure_ascii=False)
        elif arg == "extra":
            line = json.dumps({**rec, "note": [1, {"n": None}]})
        else:
            line = json.dumps(rec, indent=1)
        return "".join(lines[:i]) + line + "\n" + "".join(lines[i + 1:])
    if kind == "chop":
        return text[:-1]
    return text


class TestCassetteMatchesReference:
    """The line loop and the one-write writer against the per-line code they replaced."""

    @given(records=RECORDS, edits=st.lists(EDITS, max_size=3))
    @example(records=[("a", "b"), ("c", "d")], edits=[("join", 0.0, "")])
    @example(records=[("a", "b"), ("c", "d")], edits=[("join", 0.0, ", ")])
    @example(records=[("a", "b\u2028c")], edits=[("reshape", 0.0, "unicode")])
    @example(records=[("a", "b")], edits=[("insert", 0.5, "\u2028")])
    @example(records=[("a", "b")], edits=[("insert", 0.5, "\x85")])
    @example(records=[("a", "b"), ("c", "d")], edits=[("bom", 0.0, "\ufeff"), ("crlf", 0.0, "\r\n"),
                                                     ("insert", 0.5, "\n\n")])
    @example(records=[("a", "b")], edits=[("reshape", 0.0, "indent")])
    @example(records=[("a", "b")], edits=[("insert", 0.0, "\u3000\n")])  # blank to str.strip, not to JSON
    @example(records=[("a", "b")], edits=[("insert", 0.0, "\u3000")])  # no JSON whitespace before a record
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_any_cassette_text_gives_the_same_records_or_error(self, records, edits):
        text = "".join(reference_line(h, b) for h, b in records)
        for edit in edits:
            text = edit_cassette(text, edit)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "tape.jsonl"
            path.write_bytes(text.encode("utf-8", "surrogatepass"))  # a lone surrogate is a byte UTF-8 rejects
            ours = outcome(lambda: Cassette(path)._entries)
            assert ours == outcome(reference_cassette_entries, path)

    def test_the_recorded_cassettes_read_in_one_pass(self, monkeypatch):
        paths = [RECORDED / "corridor_grounded.jsonl", RECORDED / "corridor_fullpath.jsonl"]
        expected = [reference_cassette_entries(path) for path in paths]
        monkeypatch.setattr(json, "loads", None)  # a valid line never reaches it
        assert [Cassette(path)._entries for path in paths] == expected

    @given(records=RECORDS)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_store_writes_the_bytes_the_reference_writer_does(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp) / "ours.jsonl", Path(tmp) / "theirs.jsonl"
            tape = Cassette(ours, record=True)
            for fingerprint, body in records:
                tape.store(fingerprint, body)
                reference_cassette_store(theirs, fingerprint, body)
            assert ours.exists() == theirs.exists() == bool(records)
            assert tape.appends == len(records)
            if records:
                assert ours.read_bytes() == theirs.read_bytes()
                assert Cassette(ours)._entries == reference_cassette_entries(theirs)

    def test_store_keeps_no_file_open(self, tmp_path):
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("no /proc/self/fd to count descriptors with")
        before = len(list(fd_dir.iterdir()))
        tape = Cassette(tmp_path / "tape.jsonl", record=True)
        for i in range(50):
            tape.store(f"h{i}", "{}")
        assert len(list(fd_dir.iterdir())) == before

    def test_a_new_file_takes_the_default_mode(self, tmp_path):
        ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
        Cassette(ours, record=True).store("h", "{}")
        reference_cassette_store(theirs, "h", "{}")
        assert ours.stat().st_mode == theirs.stat().st_mode

    @given(bodies=st.lists(EDGY_TEXT.map(lambda prose: chat_body(f"{prose}\nscores: 1 1 1 1")), min_size=1,
                           max_size=4))
    @settings(derandomize=True, max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_a_recording_through_a_fake_transport_has_the_reference_bytes(self, bodies):
        # each step sends a new request, answered in turn by the drawn bodies, whose last line scores every move
        config = ChatEndpointConfig("http://127.0.0.1:9/v1", model_name="m", api_key_env="FAKE_SCORER_KEY")
        replies = itertools.cycle(bodies)
        sent = []

        def transport(url, headers, body, timeout):
            sent.append((body, next(replies)))
            return 200, sent[-1][1]

        grid = open_grid(5, 3)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setenv("FAKE_SCORER_KEY", "k")
            ours, theirs = Path(tmp) / "ours.jsonl", Path(tmp) / "theirs.jsonl"
            scorer = RemoteScorer(config, cassette=Cassette(ours, record=True), transport=transport)
            plan(scorer, grid, GridPose(0, 0), Instruction("go", GridPose(4, 2)), PlannerConfig(max_steps=12))
            for body, reply in sent:
                reference_cassette_store(theirs, reference_fingerprint(body), reply)
            assert len(sent) > 1 and ours.read_bytes() == theirs.read_bytes()
            assert scorer.cassette.appends == scorer.cassette.misses == scorer.attempts == len(sent)


class TestExtractContentMatchesReference:
    @given(REPLY_BODIES)
    @example("\ufeff" + chat_body("scores: 1 0 0 0"))  # json.loads names the BOM, the decoder does not
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_same_content_or_error(self, body):
        assert outcome(RemoteScorer._extract_content, body) == outcome(reference_extract_content, body)


class TestCounters:
    """Plain counts kept where the chat path already branches."""

    def test_a_replay_of_the_recorded_corridor_walk_counts_64_hits(self, monkeypatch):
        monkeypatch.delenv("API_KEY", raising=False)
        tape = Cassette(RECORDED / "corridor_grounded.jsonl")
        scorer = RemoteScorer(ChatEndpointConfig(), cassette=tape)
        adapter = build_planner("grounded", scorer).planner
        waypoints = adapter.plan(load_map(bundled_path("corridor.map").read_text()), GridPose(2, 1), GridPose(21, 8),
                                 "reach the goal cell")
        assert "".join(f"({x},{y})\n" for x, y in waypoints) == (RECORDED / "corridor_grounded.stdout").read_text()
        assert (tape.hits, tape.misses, tape.appends) == (64, 0, 0)
        assert (scorer.attempts, scorer.retries, scorer.backoff_s) == (0, 0, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_retries_follow_a_seeded_429_503_schedule(self, seed, config, with_key):
        rng = random.Random(seed)
        # per exchange, how many 429/503 replies come before a 200; past max_retries (3) the exchange gives up
        failures = [rng.choice([0, 0, 1, 2, 3, 4]) for _ in range(6)]
        script = []
        for k in failures:
            script += [(rng.choice([429, 503]), "busy")] * k + ([(200, chat_body("scores: 1 0 0 0"))] if k <= 3 else [])
        scorer, transport, slept = make_scorer(config, script)
        for k in failures:
            if k <= 3:
                assert scorer(query_at(open_grid(4, 4), (1, 1), (3, 3))) == (1.0, 0.0, 0.0, 0.0)
            else:
                with pytest.raises(RetriesExhausted):
                    scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert scorer.attempts == len(transport.requests) == sum(min(k, 3) + 1 for k in failures)
        assert scorer.retries == len(slept) == sum(min(k, 3) for k in failures)
        assert scorer.backoff_s == sum(slept) == sum(2.0 ** min(k, 3) - 1 for k in failures)
        assert transport.script == []

    def test_a_transport_error_and_a_rejection_count_as_attempts(self, config, with_key):
        scorer, _, slept = make_scorer(config, [ConnectionError("down"), (400, "bad request")])
        with pytest.raises(ScorerFailure, match="HTTP 400"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert (scorer.attempts, scorer.retries, scorer.backoff_s) == (2, 1, 1.0) and slept == [1.0]

    def test_lookups_count_hits_and_misses(self, tmp_path):
        tape = Cassette(tmp_path / "tape.jsonl", record=True)
        tape.store("a", "{}")
        assert [tape.lookup(h) for h in ("a", "b", "a")] == ["{}", None, "{}"]
        assert (tape.hits, tape.misses, tape.appends) == (2, 1, 1)


class TestEndpointConfig:
    @pytest.mark.parametrize("kwargs", [
        {"timeout": 0.0}, {"timeout": -1.0}, {"max_retries": -1},
        {"timeout": math.inf}, {"timeout": math.nan},
        {"temperature": math.inf}, {"temperature": -math.inf}, {"temperature": math.nan},
        {"base_url": "no-scheme"}, {"base_url": "ftp://host/v1"}, {"base_url": "http://"}, {"base_url": 5},
        {"model_name": 5}, {"model_name": None}, {"api_key_env": 5}, {"api_key_env": ["K"]},
        # past the caps, and an int past the float range
        {"timeout": 3600.5}, {"timeout": 1e10}, {"timeout": 10**400}, {"max_retries": 11}, {"max_retries": 1024},
        {"temperature": 10**400}, {"temperature": -10**400},
        # of the wrong type: range() would fail on these at the first live request, and str < int raises TypeError
        {"max_retries": 2.5}, {"max_retries": True}, {"max_retries": "3"}, {"max_retries": None},
        {"timeout": "5"}, {"timeout": None}, {"temperature": "0"}, {"temperature": None},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChatEndpointConfig(**{"base_url": "http://127.0.0.1:9/v1", "model_name": "m", **kwargs})

    def test_the_caps_are_inclusive(self):
        config = ChatEndpointConfig("http://127.0.0.1:9/v1", timeout=3600, max_retries=10, temperature=10**300)
        assert (config.timeout, config.max_retries, config.temperature) == (3600, 10, 10**300)


class _Handler(BaseHTTPRequestHandler):
    """Replies by path: /ok, /latin1, /nocodec, /busy (503), /garbage (not HTTP), /slow (never replies)."""

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server.seen.append((self.path, self.headers["Content-Type"], self.headers["Authorization"], json.loads(body)))
        route = self.path.split("/")[1]
        if route == "slow":
            server.release.wait(2.0)
            return
        if route == "garbage":
            self.wfile.write(b"garbage\r\n\r\n")
            return
        status, ctype, payload = {
            "ok": (200, "application/json", chat_body("scores: 1 0.5 0 0").encode()),
            "latin1": (200, "text/plain; charset=latin-1", "caf\u00e9".encode("latin-1")),
            "nocodec": (200, "text/plain; charset=no-such-codec", "caf\u00e9".encode("utf-8")),
            "busy": (503, "text/plain", b"try later"),
        }[route]
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def live_server():
    try:
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    except OSError as exc:
        pytest.skip(f"cannot bind a local socket: {exc}")
    server.seen, server.release = [], threading.Event()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", server
    server.release.set()
    server.shutdown()
    server.server_close()


def closed_port_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


class TestUrllibTransport:
    """The default transport against an in-process HTTP server on 127.0.0.1."""

    BODY = {"model": "m", "temperature": 0.0, "messages": [{"role": "user", "content": "h\u00e9"}]}

    def test_ok_posts_json(self, live_server):
        base, server = live_server
        status, text = scorers_mod._urllib_transport(f"{base}/ok", {"Authorization": "Bearer k"}, self.BODY, 2.0)
        assert (status, text) == (200, chat_body("scores: 1 0.5 0 0"))
        assert ("/ok", "application/json", "Bearer k", self.BODY) in server.seen

    @pytest.mark.parametrize("route", ["latin1", "nocodec"])  # an unknown charset falls back to UTF-8
    def test_declared_charset_decodes(self, live_server, route):
        base, _ = live_server
        assert scorers_mod._urllib_transport(f"{base}/{route}", {}, self.BODY, 2.0) == (200, "caf\u00e9")

    def test_error_status_is_returned(self, live_server):
        base, _ = live_server
        assert scorers_mod._urllib_transport(f"{base}/busy", {}, self.BODY, 2.0) == (503, "try later")

    def test_non_http_reply_is_a_connection_error(self, live_server):
        base, _ = live_server
        with pytest.raises(ConnectionError, match="BadStatusLine"):
            scorers_mod._urllib_transport(f"{base}/garbage", {}, self.BODY, 2.0)

    def remote(self, base_url, monkeypatch):
        monkeypatch.setenv("LIVE_SCORER_KEY", "k")
        cfg = ChatEndpointConfig(base_url=base_url, model_name="m", api_key_env="LIVE_SCORER_KEY",
                                 timeout=0.2, max_retries=1)
        slept = []
        return RemoteScorer(cfg, sleep=slept.append), slept

    def test_ok_through_remote_scorer(self, live_server, monkeypatch):
        scorer, slept = self.remote(f"{live_server[0]}/ok", monkeypatch)
        assert scorer(query_at(open_grid(4, 4), (1, 1), (3, 3))) == (1.0, 0.5, 0.0, 0.0)
        assert slept == []

    def test_slow_endpoint_times_out(self, live_server, monkeypatch):
        scorer, slept = self.remote(f"{live_server[0]}/slow", monkeypatch)
        with pytest.raises(ScorerTimeout, match="timeout"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert slept == [1.0]

    def test_closed_port_exhausts_retries(self, monkeypatch):
        scorer, slept = self.remote(closed_port_url(), monkeypatch)
        with pytest.raises(RetriesExhausted, match="transport error"):
            scorer(query_at(open_grid(4, 4), (1, 1), (3, 3)))
        assert slept == [1.0]

    def test_unusable_url_is_a_transport_error(self):
        # ChatEndpointConfig rejects such a base_url; the transport's own contract still holds
        with pytest.raises(ConnectionError, match="ValueError"):
            scorers_mod._urllib_transport("no-scheme", {}, self.BODY, 2.0)
