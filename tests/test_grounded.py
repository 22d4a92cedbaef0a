import json
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridground import bench, grounded, planners
from gridground.bundled import bundled_path
from gridground.errors import InvalidEndpoint, OutOfBounds, ScorerFailure
from gridground.gridmap import GridPose, random_map
from gridground.grounded import (
    ACTIONS,
    ActionId,
    FailureReason,
    Instruction,
    PlannerConfig,
    ScoredAction,
    affordance,
    plan,
    score_candidates,
    select_action,
    trace_to_jsonl,
)
from gridground.scorers import MockScorer, OracleScorer, TaskScorerQuery
from gridground.simulator import load_scenario

from conftest import grid_from_rows, open_grid
from reference import reference_affordance, reference_plan


class CapturingScorer:
    def __init__(self, raw):
        self.raw = raw
        self.queries = []

    def __call__(self, query):
        self.queries.append(query)
        return self.raw


def scored_row(p_gpts, p_utils):
    return [
        ScoredAction(a, GridPose(0, 0), g, u, g * u)
        for a, g, u in zip(ACTIONS, p_gpts, p_utils)
    ]


class TestActionSet:
    def test_order_and_deltas(self):
        assert [a.id for a in ACTIONS] == [
            ActionId.UP, ActionId.RIGHT, ActionId.LEFT, ActionId.DOWN,
        ]
        assert [a.delta for a in ACTIONS] == [(0, -1), (1, 0), (-1, 0), (0, 1)]


class TestAffordance:
    def test_interior_fully_clear(self):
        g = open_grid(5, 5)
        assert affordance(g, GridPose(2, 3), ACTIONS[0]) == 1.0  # to (2,2)

    def test_out_of_bounds_candidate(self):
        g = open_grid(3, 3)
        assert affordance(g, GridPose(0, 0), ACTIONS[2]) == 0.0  # left exits

    def test_blocked_candidate(self):
        g = grid_from_rows(["...", ".#.", "..."])
        assert affordance(g, GridPose(1, 0), ACTIONS[3]) == 0.0  # down into wall

    def test_unknown_candidate(self):
        g = grid_from_rows(["...", ".?.", "..."])
        assert affordance(g, GridPose(1, 0), ACTIONS[3]) == 0.0

    def test_wall_adjacent_discount(self):
        g = grid_from_rows([
            ".....",
            "...#.",
            ".....",
        ])
        # candidate (2,1) is free but borders the wall at (3,1)
        assert affordance(g, GridPose(1, 1), ACTIONS[1]) == 0.8

    def test_edge_adjacent_discount(self):
        g = open_grid(5, 5)
        # candidate (2,0) hugs the top edge: one cardinal neighbor leaves the map
        assert affordance(g, GridPose(2, 1), ACTIONS[0]) == 0.8

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_cell_by_cell_reference(self, seed):
        g = random_map(7, 6, 0.35, seed)
        g = g.with_occupied([GridPose(0, seed % 6), GridPose(seed, 0)])
        for y in range(g.height):
            for x in range(g.width):
                for a in ACTIONS:
                    assert affordance(g, GridPose(x, y), a) == reference_affordance(g, GridPose(x, y), a)

    @pytest.mark.parametrize("s", [(-1, 0), (0, -1), (3, 0), (0, 3), (-1, -1)])
    def test_state_off_the_grid_rejected(self, s):
        with pytest.raises(OutOfBounds):
            affordance(open_grid(3, 3), GridPose(*s), ACTIONS[0])
        with pytest.raises(OutOfBounds):
            score_candidates(CapturingScorer((1.0,) * 4), Instruction("x", GridPose(1, 1)), open_grid(3, 3), s)


class TestScoreCandidates:
    def test_normalizes_to_unit_sum(self):
        g = open_grid(5, 5)
        scorer = CapturingScorer((1.0, 3.0, 4.0, 2.0))
        scored = score_candidates(scorer, Instruction("x", GridPose(4, 4)), g, GridPose(2, 2))
        assert [sa.p_gpt for sa in scored] == [0.1, 0.3, 0.4, 0.2]
        assert sum(sa.p_gpt for sa in scored) == pytest.approx(1.0)

    def test_all_zero_falls_back_to_uniform(self):
        g = open_grid(5, 5)
        scored = score_candidates(
            CapturingScorer((0.0, 0.0, 0.0, 0.0)),
            Instruction("x", GridPose(4, 4)), g, GridPose(2, 2),
        )
        assert [sa.p_gpt for sa in scored] == [0.25, 0.25, 0.25, 0.25]

    def test_exactly_one_scorer_call(self):
        g = open_grid(5, 5)
        scorer = CapturingScorer((1.0, 1.0, 1.0, 1.0))
        score_candidates(scorer, Instruction("x", GridPose(4, 4)), g, GridPose(2, 2))
        assert len(scorer.queries) == 1

    def test_query_carries_candidates_in_order(self):
        g = open_grid(5, 5)
        scorer = CapturingScorer((1.0, 1.0, 1.0, 1.0))
        score_candidates(scorer, Instruction("go", GridPose(4, 4)), g, GridPose(2, 2))
        q = scorer.queries[0]
        assert q.state == GridPose(2, 2)
        assert q.candidates == (GridPose(2, 1), GridPose(3, 2), GridPose(1, 2), GridPose(2, 3))
        assert q.instruction.text == "go"
        assert type(q) is TaskScorerQuery

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(-0.0), st.floats(0.0, 1e300)), min_size=4, max_size=4))
    def test_normalizes_as_sum_does(self, raw):
        total = sum(raw)
        want = [v / total for v in raw] if total > 0 else [0.25, 0.25, 0.25, 0.25]
        scorer, instruction = CapturingScorer(raw), Instruction("x", GridPose(4, 4))
        scored = score_candidates(scorer, instruction, open_grid(5, 5), GridPose(2, 2))
        assert [sa.p_gpt for sa in scored] == want

    @given(st.integers(-3, 40), st.integers(-3, 40))
    def test_candidates_are_poses_in_actions_order(self, x, y):
        cands = grounded._candidates(x, y)
        assert cands == tuple(GridPose(x + a.delta[0], y + a.delta[1]) for a in ACTIONS)
        assert all(type(c) is GridPose for c in cands)

    def test_combined_is_product(self):
        g = grid_from_rows([
            ".....",
            "...#.",
            ".....",
        ])
        scored = score_candidates(
            CapturingScorer((1.0, 1.0, 1.0, 1.0)),
            Instruction("x", GridPose(4, 2)), g, GridPose(1, 1),
        )
        for sa in scored:
            assert sa.p_combined == pytest.approx(sa.p_gpt * sa.p_util)
        # up (1,0) hugs the top edge; right (2,1) borders the wall
        assert [sa.p_util for sa in scored] == [0.8, 0.8, 0.8, 0.8]

    def test_scorer_failure_passes_through(self):
        def failing(query):
            raise ScorerFailure("backend said no")

        with pytest.raises(ScorerFailure, match="backend said no"):
            score_candidates(failing, Instruction("x", GridPose(2, 2)), open_grid(3, 3), GridPose(1, 1))

    def test_other_exceptions_propagate(self):
        # an exception raised by the call itself is the scorer's bug, not a failed reply
        def buggy(query):
            raise KeyError("oops")

        with pytest.raises(KeyError, match="oops"):
            score_candidates(buggy, Instruction("x", GridPose(2, 2)), open_grid(3, 3), GridPose(1, 1))
        with pytest.raises(KeyError, match="oops"):
            plan(buggy, open_grid(3, 3), GridPose(0, 0), Instruction("x", GridPose(2, 2)))

    @pytest.mark.parametrize("raw,msg", [
        ((1.0, 1.0, 1.0), "returned 3 scores for 4 actions"),
        ((1.0, 1.0, 1.0, 1.0, 1.0), "returned 5 scores for 4 actions"),
        ((-0.1, 1.0, 1.0, 1.0), "finite and non-negative"),
        ((math.nan, 1.0, 1.0, 1.0), "finite and non-negative"),
        ((math.inf, 1.0, 1.0, 1.0), "finite and non-negative"),
        (None, "not numbers: TypeError"),
        ("four", "not numbers: ValueError"),
        (("1", "2", "x", "4"), "not numbers: ValueError"),
        ((10**400, 1, 1, 1), "not numbers: OverflowError"),
    ])
    def test_unusable_scores_rejected(self, raw, msg):
        with pytest.raises(ScorerFailure, match=msg):
            score_candidates(
                CapturingScorer(raw), Instruction("x", GridPose(2, 2)), open_grid(3, 3), GridPose(1, 1)
            )


class TestSelectAction:
    def test_clear_winner(self):
        scored = scored_row((0.1, 0.7, 0.1, 0.1), (1.0, 1.0, 1.0, 1.0))
        chosen = select_action(scored, set(), PlannerConfig())
        assert chosen.action.id is ActionId.RIGHT

    def test_tie_goes_to_earlier_entry(self):
        scored = scored_row((0.25, 0.25, 0.25, 0.25), (1.0, 1.0, 1.0, 1.0))
        assert select_action(scored, set(), PlannerConfig()).action.id is ActionId.UP

    def test_revisit_penalty_flips_choice(self):
        scored = [
            ScoredAction(ACTIONS[0], GridPose(5, 5), 0.6, 1.0, 0.6),
            ScoredAction(ACTIONS[1], GridPose(6, 6), 0.4, 1.0, 0.4),
            ScoredAction(ACTIONS[2], GridPose(7, 7), 0.0, 1.0, 0.0),
            ScoredAction(ACTIONS[3], GridPose(8, 8), 0.0, 1.0, 0.0),
        ]
        cfg = PlannerConfig(revisit_penalty=0.5)
        assert select_action(scored, set(), cfg).action.id is ActionId.UP
        # 0.6 * 0.5 = 0.3 < 0.4: the fresh cell now wins
        assert select_action(scored, {GridPose(5, 5)}, cfg).action.id is ActionId.RIGHT

    def test_all_zero_is_stuck(self):
        scored = scored_row((0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 1.0, 1.0))
        assert select_action(scored, set(), PlannerConfig()) is None

    def test_penalty_zero_blocks_all_visited(self):
        scored = scored_row((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
        visited = {scored[0].candidate}
        assert select_action(scored, visited, PlannerConfig(revisit_penalty=0.0)) is None

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            select_action(scored_row((1, 1, 1, 1), (1, 1, 1, 1))[:3], set(), PlannerConfig())

    def test_selected_never_has_zero_affordance(self):
        scored = scored_row((0.9, 0.05, 0.03, 0.02), (0.0, 0.8, 1.0, 0.8))
        chosen = select_action(scored, set(), PlannerConfig())
        assert chosen.p_util > 0.0

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=4, max_size=4),
           st.lists(st.sampled_from([0.0, 0.8, 1.0]), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_no_penalty_is_plain_argmax(self, p_gpts, p_utils):
        scored = scored_row(p_gpts, p_utils)
        chosen = select_action(scored, set(), PlannerConfig(revisit_penalty=1.0))
        combined = [g * u for g, u in zip(p_gpts, p_utils)]
        if max(combined) == 0.0:
            assert chosen is None
        else:
            assert chosen is scored[combined.index(max(combined))]


class TestPlannerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_steps": 0},
        {"max_steps": -5},
        {"max_steps": 2.5},
        {"max_steps": 3.0},
        {"max_steps": True},
        {"max_steps": "3"},
        {"revisit_penalty": -0.1},
        {"revisit_penalty": 1.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PlannerConfig(**kwargs)

    def test_max_steps_cap(self):
        with pytest.raises(ValueError):  # a mock walk on corridor.map would run to this limit, keeping every step
            planners.build_planner("grounded", MockScorer(), max_steps=10**9)
        with pytest.raises(ValueError, match=f"max_steps must be an integer from 1 to {grounded.MAX_PLAN_STEPS}"):
            PlannerConfig(max_steps=grounded.MAX_PLAN_STEPS + 1)
        assert PlannerConfig(max_steps=grounded.MAX_PLAN_STEPS).max_steps == grounded.MAX_PLAN_STEPS


class TestPlan:
    def test_oracle_walk_is_optimal_length(self):
        g = open_grid(5, 5)
        res = plan(OracleScorer(), g, GridPose(0, 0), Instruction("x", GridPose(4, 4)))
        assert res.succeeded
        assert len(res.path.waypoints) == 9  # 8 unit steps
        assert res.path.waypoints[0] == GridPose(0, 0)
        assert res.path.waypoints[-1] == GridPose(4, 4)
        assert len(res.trace) == 8
        assert all(rec.chosen is not None for rec in res.trace)

    def test_mock_walk_around_wall(self):
        g = grid_from_rows([
            ".....",
            ".###.",
            ".....",
        ])
        res = plan(MockScorer(tau=0.5), g, GridPose(0, 1), Instruction("x", GridPose(4, 1)))
        assert res.succeeded
        assert [tuple(w) for w in res.path.waypoints] == [
            (0, 1), (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1),
        ]

    def test_start_equals_goal_zero_calls(self):
        g = open_grid(4, 4)
        scorer = CapturingScorer((1.0, 1.0, 1.0, 1.0))
        res = plan(scorer, g, GridPose(2, 2), Instruction("x", GridPose(2, 2)))
        assert res.succeeded
        assert res.path.waypoints == (GridPose(2, 2),)
        assert res.trace == []
        assert scorer.queries == []

    @pytest.mark.parametrize("start,goal", [
        ((-1, 0), (2, 2)), ((0, 0), (4, 4)), ((1, 1), (2, 2)), ((0, 0), (1, 1)),
    ])
    def test_invalid_endpoints(self, start, goal):
        g = grid_from_rows(["...", ".#.", "..."])
        with pytest.raises(InvalidEndpoint):
            plan(MockScorer(), g, GridPose(*start), Instruction("x", GridPose(*goal)))

    @pytest.mark.parametrize("start,goal", [((0.5, 0), (2, 2)), ((0, 0), (2, "2")), (None, (2, 2)), ((0, 0), None)])
    def test_a_pose_that_is_not_two_integers_is_an_invalid_endpoint(self, start, goal):
        g = grid_from_rows(["...", ".#.", "..."])
        with pytest.raises(InvalidEndpoint, match="must be a pair of integers"):
            plan(MockScorer(), g, start, Instruction("x", goal))

    def test_stuck_when_walled_in(self):
        g = grid_from_rows([
            ".....",
            "..#..",
            ".#.#.",
            "..#..",
            ".....",
        ])
        res = plan(MockScorer(), g, GridPose(2, 2), Instruction("x", GridPose(0, 0)))
        assert res.failure is FailureReason.STUCK
        assert res.path.waypoints == (GridPose(2, 2),)
        assert len(res.trace) == 1
        assert res.trace[0].chosen is None

    def test_step_limit_with_partial_path(self):
        g = open_grid(8, 1)
        res = plan(
            MockScorer(), g, GridPose(0, 0), Instruction("x", GridPose(7, 0)),
            PlannerConfig(max_steps=3),
        )
        assert res.failure is FailureReason.STEP_LIMIT
        assert len(res.path.waypoints) == 4  # start plus three steps
        assert len(res.trace) == 3

    def test_default_budget_scales_with_map(self):
        g = grid_from_rows([
            ".......",
            ".#####.",
            ".#...#.",
            ".#####.",
            ".......",
        ])
        # goal is free but sealed off: the walk must exhaust the default budget
        res = plan(MockScorer(), g, GridPose(0, 0), Instruction("x", GridPose(3, 2)))
        assert res.failure is FailureReason.STEP_LIMIT
        assert len(res.trace) == 4 * (7 + 5)

    def test_scorer_failure_keeps_partial_path(self):
        calls = []

        def flaky(query):
            calls.append(query)
            if len(calls) >= 2:
                raise ScorerFailure("endpoint down")
            return (0.0, 1.0, 0.0, 0.0)

        g = open_grid(6, 1)
        res = plan(flaky, g, GridPose(0, 0), Instruction("x", GridPose(5, 0)))
        assert res.failure is FailureReason.SCORER_FAILURE
        assert "endpoint down" in res.detail
        assert res.path.waypoints == (GridPose(0, 0), GridPose(1, 0))

    def test_deterministic(self):
        g = grid_from_rows([
            "......",
            ".##.#.",
            "......",
            ".#.##.",
            "......",
        ])
        args = (g, GridPose(0, 0), Instruction("x", GridPose(5, 4)))
        a = plan(MockScorer(), *args)
        b = plan(MockScorer(), *args)
        assert a.path.waypoints == b.path.waypoints
        assert trace_to_jsonl(a.trace) == trace_to_jsonl(b.trace)

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=4, max_size=4),
           st.sampled_from([2.0, 10.0, 100.0]))
    @settings(max_examples=100, deadline=None)
    def test_choice_invariant_to_score_scale(self, raw, scale):
        assume(any(v > 0 for v in raw))
        g = open_grid(5, 5)
        instruction = Instruction("x", GridPose(0, 0))
        a = score_candidates(CapturingScorer(tuple(raw)), instruction, g, GridPose(2, 2))
        b = score_candidates(
            CapturingScorer(tuple(v * scale for v in raw)), instruction, g, GridPose(2, 2)
        )
        ca = select_action(a, set(), PlannerConfig())
        cb = select_action(b, set(), PlannerConfig())
        if ca is None:
            assert cb is None
        else:
            assert ca.action.id is cb.action.id


class TestTraceSerialization:
    def test_jsonl_round_trip_fields(self):
        g = open_grid(3, 3)
        res = plan(OracleScorer(), g, GridPose(0, 0), Instruction("x", GridPose(2, 2)))
        text = trace_to_jsonl(res.trace)
        lines = text.splitlines()
        assert len(lines) == len(res.trace)
        first = json.loads(lines[0])
        assert first["step"] == 0
        assert first["state"] == [0, 0]
        assert [c["action"] for c in first["candidates"]] == ["up", "right", "left", "down"]
        assert first["chosen"] in {"up", "right", "left", "down"}
        for c in first["candidates"]:
            assert c["p_combined"] == pytest.approx(c["p_gpt"] * c["p_util"])

    def test_stuck_step_serializes_null_choice(self):
        g = grid_from_rows([
            ".....",
            "..#..",
            ".#.#.",
            "..#..",
            ".....",
        ])
        res = plan(MockScorer(), g, GridPose(2, 2), Instruction("x", GridPose(0, 0)))
        rec = json.loads(trace_to_jsonl(res.trace).splitlines()[-1])
        assert rec["chosen"] is None

    def test_empty_trace_empty_string(self):
        assert trace_to_jsonl([]) == ""


# --- plan against the loop that builds a ScoredAction and StepRecord per step ---


class Recording:
    """Wraps a scorer and keeps every query it was asked, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = []

    def __call__(self, query):
        self.queries.append(query)
        return self.inner(query)


def after_calls(n, reply):
    """A scorer that answers like the mock for n calls, then replies with reply(query)."""
    calls = []
    mock = MockScorer()

    def scorer(query):
        calls.append(query)
        return mock(query) if len(calls) <= n else reply(query)

    return scorer


def raise_(exc):
    raise exc


def seeded_scores(query):
    """Ties and zeros on purpose: scores in {0, 0.5, 1}, fixed by the state."""
    rng = random.Random(f"{query.state.x},{query.state.y}")
    return tuple(rng.choice((0.0, 0.5, 1.0)) for _ in range(4))


SCORERS = {
    "mock": MockScorer,
    "oracle": OracleScorer,
    "seeded": lambda: seeded_scores,
    "scorer_failure": lambda: after_calls(3, lambda q: raise_(ScorerFailure("endpoint down"))),
    "none_reply": lambda: after_calls(2, lambda q: None),
    "text_reply": lambda: after_calls(1, lambda q: "four"),
    "huge_int_reply": lambda: after_calls(3, lambda q: (10**400, 1, 1, 1)),
    "three_scores": lambda: after_calls(2, lambda q: (1.0, 1.0, 1.0)),
    "nan": lambda: after_calls(1, lambda q: (1.0, math.nan, 1.0, 1.0)),
    "all_zero": lambda: lambda q: (0.0, 0.0, 0.0, 0.0),
}


def differential_cases():
    """(grid, start, goal) on seeded random maps, some with sensed cells blocked."""
    cases = []
    for seed, (w, h, density) in enumerate([(6, 5, 0.2), (9, 7, 0.3), (12, 12, 0.25), (5, 9, 0.4)]):
        grid = random_map(w, h, density, seed)
        rng = random.Random(seed)
        free = [GridPose(x, y) for y in range(h) for x in range(w) if grid.is_free(x, y)]
        start, goal = rng.sample(free, 2)
        cases.append((grid, start, goal))
        sensed = grid.with_occupied(c for c in rng.sample(free, 4) if c not in (start, goal))
        cases.append((sensed, start, goal))
    return cases


class TestPlanMatchesReference:
    @pytest.mark.parametrize("scorer_name", sorted(SCORERS))
    @pytest.mark.parametrize("penalty", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("max_steps", [1, 6, 30])
    def test_same_walk_trace_and_queries(self, scorer_name, penalty, max_steps):
        config = PlannerConfig(max_steps=max_steps, revisit_penalty=penalty)
        for grid, start, goal in differential_cases():
            instruction = Instruction("reach the goal", goal)
            got_scorer, want_scorer = Recording(SCORERS[scorer_name]()), Recording(SCORERS[scorer_name]())
            got = plan(got_scorer, grid, start, instruction, config)
            want = reference_plan(want_scorer, grid, start, instruction, config)
            assert got.path == want.path
            assert (got.failure, got.detail) == (want.failure, want.detail)
            assert got.trace == want.trace
            assert trace_to_jsonl(got.trace) == trace_to_jsonl(want.trace)
            assert len(got.trace) == len(got.steps)
            assert got_scorer.queries == want_scorer.queries
            for q in got_scorer.queries:
                assert q.grid is grid and q.instruction is instruction
                assert type(q.state) is GridPose and all(type(c) is GridPose for c in q.candidates)

    @pytest.mark.parametrize("scorer_name,mock_calls", [("none_reply", 2), ("text_reply", 1), ("huge_int_reply", 3)])
    def test_bad_reply_ends_the_walk_as_scorer_failure(self, scorer_name, mock_calls):
        ended = 0
        for grid, start, goal in differential_cases():
            instruction, config = Instruction("x", goal), PlannerConfig(max_steps=30)
            got_scorer, want_scorer = Recording(SCORERS[scorer_name]()), Recording(SCORERS[scorer_name]())
            got = plan(got_scorer, grid, start, instruction, config)
            want = reference_plan(want_scorer, grid, start, instruction, config)
            if len(got_scorer.queries) > mock_calls:  # the walk asked past the mock's answers
                ended += 1
                assert got.failure is want.failure is FailureReason.SCORER_FAILURE
                assert got.detail == want.detail and got.detail.startswith("scorer reply is not numbers: ")
        assert ended > 0

    def test_cases_cover_every_outcome(self):
        outcomes = set()
        for scorer_name in SCORERS:
            for penalty in (0.0, 1.0):
                config = PlannerConfig(max_steps=30, revisit_penalty=penalty)
                for grid, start, goal in differential_cases():
                    outcomes.add(plan(SCORERS[scorer_name](), grid, start, Instruction("x", goal), config).failure)
        assert outcomes == {None, *FailureReason}


class TestLazyTrace:
    def test_trial_builds_no_step_record(self, monkeypatch):
        built = {"steps": 0, "scored": 0}

        def counting(cls, key):  # a NamedTuple is built by its __new__
            new = cls.__new__

            def __new__(cls, *args, **kwargs):
                built[key] += 1
                return new(cls, *args, **kwargs)

            monkeypatch.setattr(cls, "__new__", __new__)

        counting(grounded.StepRecord, "steps")
        counting(grounded.ScoredAction, "scored")
        # reference_world reaches the goal; two_corridor replans once, then fails
        for name in ("reference_world", "two_corridor"):
            scenario = load_scenario(bundled_path(f"{name}.scenario.yaml"))
            row = bench.run_trial(scenario, "grounded:mock", seed=0)
            assert row.scorer_wall_time_ms > 0
        assert row.replan_count == 1
        assert built == {"steps": 0, "scored": 0}
        # the patched classes still count: reading a trace builds its records
        res = plan(MockScorer(), scenario.map, scenario.start, Instruction("x", scenario.goal))
        trace = res.trace
        assert built == {"steps": len(trace), "scored": 4 * len(trace)} and trace

    def test_trace_is_built_once(self):
        g = open_grid(5, 5)
        res = plan(MockScorer(), g, GridPose(0, 0), Instruction("x", GridPose(4, 4)))
        first = res.trace
        assert res.trace is first
        assert len(first) == len(res.steps) == 8

    def test_chosen_is_the_scored_entry(self):
        g = open_grid(5, 5)
        res = plan(OracleScorer(), g, GridPose(0, 0), Instruction("x", GridPose(4, 4)))
        for rec in res.trace:
            assert any(rec.chosen is sa for sa in rec.scored)
