"""Values of any type through the public constructors and planner entry points.

Each call either raises the error its type documents, or the object it
builds plans on corridor.map; no value of a wrong type reaches a kernel and
fails there with a TypeError.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gridground import grounded
from gridground.bundled import bundled_path
from gridground.classical import RrtParams, astar, grow_rrt_tree, rrt
from gridground.errors import InvalidEndpoint, InvalidParams
from gridground.gridmap import GridPose, load_map
from gridground.scorers import ChatEndpointConfig, MockScorer, RemoteScorer

CORRIDOR = load_map(bundled_path("corridor.map").read_text(encoding="utf-8"))
START, GOAL = GridPose(2, 1), GridPose(21, 8)

ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.integers(), st.floats(), st.text(max_size=3),
    st.binary(max_size=2), st.complex_numbers(max_magnitude=5), st.fractions(max_denominator=5),
    st.decimals(places=2, allow_nan=False, allow_infinity=False), st.just(Decimal("NaN")),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, object(), Fraction(1, 3)]),
    st.tuples(st.integers(-1, 30), st.integers(-1, 12)), st.lists(st.integers(0, 25), max_size=3),
    st.dictionaries(st.integers(0, 1), st.integers(0, 25), max_size=2),
)
# a pose: any value, or a pair of any values
POSES = ANY_VALUE | st.tuples(ANY_VALUE, ANY_VALUE)


def scores_transport(url, headers, body, timeout):
    return 200, '{"choices": [{"message": {"content": "scores: 1 1 1 1"}}]}'


def walk(scorer, config=None, start=START, goal=GOAL):
    result = grounded.plan(scorer, CORRIDOR, start, grounded.Instruction("go", goal), config)
    assert result.path.waypoints[0] == GridPose(*start)


@given(name=st.sampled_from(["base_url", "model_name", "api_key_env", "timeout", "max_retries", "temperature"]),
       value=ANY_VALUE)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_chat_endpoint_config(name, value):
    try:
        config = ChatEndpointConfig(**{"base_url": "http://127.0.0.1:9/v1", name: value})
    except ValueError:
        return
    with pytest.MonkeyPatch.context() as mp:
        name = config.api_key_env
        # a name the environment cannot hold is never set: the scorer then fails each step with AuthMissing
        if name and name.isprintable() and name.isascii() and "=" not in name:
            mp.setenv(name, "key")
        walk(RemoteScorer(config, transport=scores_transport, sleep=lambda s: None),
             grounded.PlannerConfig(max_steps=3))


@given(tau=ANY_VALUE)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_mock_scorer(tau):
    try:
        scorer = MockScorer(tau)
    except ValueError:
        return
    walk(scorer)  # a tau that is not > 0 fails each step with ScorerFailure, which ends the walk


@given(name=st.sampled_from(["max_steps", "revisit_penalty"]), value=ANY_VALUE)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_planner_config(name, value):
    try:
        config = grounded.PlannerConfig(**{name: value})
    except ValueError:
        return
    walk(MockScorer(), config)


@given(name=st.sampled_from(RrtParams._fields), value=ANY_VALUE)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_rrt_params(name, value):
    try:
        tree = grow_rrt_tree(CORRIDOR, START, GOAL, RrtParams(**{name: value}))
    except InvalidParams:
        return
    assert tree.points[0] == (2.5, 1.5)


@given(pose=POSES, which=st.sampled_from(["start", "goal"]),
       planner=st.sampled_from(["astar", "astar8", "rrt", "grounded"]))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_poses(pose, which, planner):
    start, goal = (pose, GOAL) if which == "start" else (START, pose)
    try:
        if planner == "grounded":
            walk(MockScorer(), grounded.PlannerConfig(max_steps=20), start, goal)
        elif planner == "rrt":
            rrt(CORRIDOR, start, goal, RrtParams(max_iterations=200))
        else:
            astar(CORRIDOR, start, goal, 8 if planner == "astar8" else 4)
    except InvalidEndpoint:
        return


def test_the_cases_found_by_hand():
    with pytest.raises(ValueError, match="tau must be a number"):
        MockScorer(tau="a")
    with pytest.raises(ValueError, match="tau must be a number"):
        MockScorer(None)
    for penalty in ("x", None):
        with pytest.raises(ValueError, match="revisit_penalty"):
            grounded.PlannerConfig(revisit_penalty=penalty)
    with pytest.raises(InvalidParams, match="seed"):
        grow_rrt_tree(CORRIDOR, START, GOAL, RrtParams(seed=[1]))
