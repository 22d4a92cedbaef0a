import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gridground.errors import MalformedReply, OutOfBounds, OverlappingMarkers
from gridground.gridmap import GridPose
from gridground.grounded import ACTIONS, Instruction
from gridground.translator import (
    GRAMMAR_VERSION,
    SYSTEM_TEXT,
    format_coordinate_list,
    parse_action_scores,
    parse_coordinate_list,
    serialize_fullpath_prompt,
    serialize_step_prompt,
)

from conftest import grid_from_rows
from reference import format_action_scores, reference_parse_action_scores, reference_parse_coordinate_list


def candidates_for(state):
    return [GridPose(state.x + a.delta[0], state.y + a.delta[1]) for a in ACTIONS]


class TestSystemText:
    def test_pins_grammar_version(self):
        assert GRAMMAR_VERSION == "grammar_v1"
        assert GRAMMAR_VERSION in SYSTEM_TEXT

    def test_states_coordinate_convention(self):
        assert "top-left" in SYSTEM_TEXT
        assert "y grows downward" in SYSTEM_TEXT
        for ch in ("'.'", "'#'", "'?'", "'R'", "'G'"):
            assert ch in SYSTEM_TEXT


class TestStepPrompt:
    def test_frozen_template(self):
        g = grid_from_rows(["...", ".#.", "..."])
        prompt = serialize_step_prompt(
            g, GridPose(0, 0), Instruction("go to the corner", GridPose(2, 2)),
            candidates_for(GridPose(0, 0)),
        )
        assert prompt.system_text == SYSTEM_TEXT
        assert prompt.user_text == (
            "map 3x3\n"
            "R..\n"
            ".#.\n"
            "..G\n"
            "\n"
            "Instruction: go to the corner\n"
            "\n"
            "The robot R is at (0,0). The goal G is at (2,2).\n"
            "Candidate moves:\n"
            "  up -> (0,-1)\n"
            "  right -> (1,0)\n"
            "  left -> (-1,0)\n"
            "  down -> (0,1)\n"
            "Rate each candidate with a non-negative score for being the best next step.\n"
            "Reply with exactly one line: scores: <up> <right> <left> <down>\n"
        )

    def test_markers_overlay_not_mutate(self):
        g = grid_from_rows(["..", ".."])
        serialize_step_prompt(
            g, GridPose(0, 0), Instruction("x", GridPose(1, 1)),
            candidates_for(GridPose(0, 0)),
        )
        assert all(c.value == "." for c in g.cells)

    def test_unknown_cells_rendered(self):
        g = grid_from_rows(["?..", "..."])
        prompt = serialize_step_prompt(
            g, GridPose(1, 0), Instruction("x", GridPose(2, 1)),
            candidates_for(GridPose(1, 0)),
        )
        assert "?R.\n..G" in prompt.user_text

    def test_overlapping_markers_rejected(self):
        g = grid_from_rows(["..", ".."])
        with pytest.raises(OverlappingMarkers):
            serialize_step_prompt(
                g, GridPose(1, 1), Instruction("x", GridPose(1, 1)),
                candidates_for(GridPose(1, 1)),
            )

    def test_off_grid_robot_rejected(self):
        g = grid_from_rows(["..."])
        with pytest.raises(OutOfBounds):
            serialize_step_prompt(
                g, GridPose(-1, 0), Instruction("x", GridPose(2, 0)),
                candidates_for(GridPose(-1, 0)),
            )

    def test_deterministic_bytes(self):
        g = grid_from_rows(["....", ".#..", "...."])
        args = (g, GridPose(0, 0), Instruction("go", GridPose(3, 2)),
                candidates_for(GridPose(0, 0)))
        assert serialize_step_prompt(*args) == serialize_step_prompt(*args)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_map_block_marks_the_rows_in_either_order(self, data):
        w, h = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        assume(w * h > 1)
        rows = data.draw(st.lists(st.text(".#?", min_size=w, max_size=w), min_size=h, max_size=h))
        cells = st.builds(GridPose, st.integers(0, w - 1), st.integers(0, h - 1))
        state = data.draw(cells)
        goal = data.draw(cells.filter(lambda p: p != state))
        marked = [list(row) for row in rows]
        marked[state.y][state.x], marked[goal.y][goal.x] = "R", "G"
        block = f"map {w}x{h}\n" + "\n".join("".join(row) for row in marked) + "\n\n"
        prompt = serialize_step_prompt(grid_from_rows(rows), state, Instruction("x", goal), candidates_for(state))
        assert prompt.user_text.startswith(block)


class TestFullpathPrompt:
    def test_frozen_template(self):
        g = grid_from_rows(["...", "..."])
        prompt = serialize_fullpath_prompt(
            g, GridPose(0, 1), Instruction("walk over", GridPose(2, 0))
        )
        assert prompt.user_text == (
            "map 3x2\n"
            "..G\n"
            "R..\n"
            "\n"
            "Instruction: walk over\n"
            "\n"
            "The robot R is at (0,1). The goal G is at (2,0).\n"
            "Plan a complete route from R to G moving only up, right, left, or down "
            "through free cells.\n"
            "Reply with exactly one line: path: (x1,y1) (x2,y2) ...\n"
        )

    def test_overlapping_markers_rejected(self):
        g = grid_from_rows(["..", ".."])
        with pytest.raises(OverlappingMarkers):
            serialize_fullpath_prompt(g, GridPose(0, 0), Instruction("x", GridPose(0, 0)))

    @pytest.mark.parametrize("start,goal", [((-1, 0), (2, 0)), ((0, 0), (3, 0)), ((0, 0), (1, -1))])
    def test_off_grid_marker_rejected(self, start, goal):
        # a negative index would otherwise wrap and draw the marker on the far side
        g = grid_from_rows(["..."])
        with pytest.raises(OutOfBounds):
            serialize_fullpath_prompt(g, GridPose(*start), Instruction("x", GridPose(*goal)))


class TestParseActionScores:
    def test_plain_line(self):
        assert parse_action_scores("scores: 1 2 3 4") == (1.0, 2.0, 3.0, 4.0)

    def test_prose_around_and_last_wins(self):
        reply = (
            "Let me think about this.\n"
            "scores: 9 9 9 9\n"
            "Actually, revising:\n"
            "  scores: 0.1 0.7 0.1 0.1\n"
            "Hope that helps!"
        )
        assert parse_action_scores(reply) == (0.1, 0.7, 0.1, 0.1)

    @pytest.mark.parametrize("tok", ["0", "2.5", ".5", "3.", "1e3", "2.5E-2", "1e+2"])
    def test_number_forms(self, tok):
        got = parse_action_scores(f"scores: {tok} 1 1 1")
        assert got[0] == pytest.approx(float(tok))

    def test_bytes_accepted(self):
        assert parse_action_scores(b"scores: 1 1 1 1") == (1.0, 1.0, 1.0, 1.0)

    def test_invalid_utf8_replaced_then_parsed(self):
        assert parse_action_scores(b"\xff\nscores: 1 1 1 1") == (1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("reply", [
        "",
        "no numbers here",
        "score: 1 1 1 1",
        "scores: 1 1 1",
        "scores: 1 1 1 1 1",
        "scores: 1 1 1 x",
        "scores: -1 1 1 1",
        "scores: +1 1 1 1",
        "scores: nan 1 1 1",
        "scores: inf 1 1 1",
        "scores: 1e999 1 1 1",
        "scores: 1,1,1,1",
    ])
    def test_rejections(self, reply):
        with pytest.raises(MalformedReply):
            parse_action_scores(reply)

    def test_exception_carries_raw_reply(self):
        with pytest.raises(MalformedReply) as exc:
            parse_action_scores("scores: 1 2 3")
        assert exc.value.reply == "scores: 1 2 3"

    def test_non_text_rejected(self):
        with pytest.raises(MalformedReply):
            parse_action_scores(None)
        with pytest.raises(MalformedReply):
            parse_action_scores(1234)

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_total_over_arbitrary_text(self, text):
        try:
            got = parse_action_scores(text)
        except MalformedReply:
            return
        assert len(got) == 4
        assert all(math.isfinite(v) and v >= 0 for v in got)


class TestFormatActionScores:
    def test_six_significant_digits(self):
        line = format_action_scores([1.0, 0.123456789, 1234567.0, 0.0])
        assert line == "scores: 1 0.123457 1.23457e+06 0"

    def test_negative_zero_normalized(self):
        assert format_action_scores([-0.0, 0, 0, 0]) == "scores: 0 0 0 0"

    @pytest.mark.parametrize("bad", [
        [1, 2, 3], [1, 2, 3, 4, 5], [-1, 0, 0, 0],
        [math.nan, 0, 0, 0], [math.inf, 0, 0, 0],
    ])
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            format_action_scores(bad)

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_at_six_digits(self, scores):
        parsed = parse_action_scores(format_action_scores(scores))
        for want, got in zip(scores, parsed):
            assert math.isclose(want, got, rel_tol=1e-5, abs_tol=1e-9)


class TestParseCoordinateList:
    def test_plain_line(self):
        got = parse_coordinate_list("path: (0,0) (1,0) (1,1)")
        assert got.waypoints == (GridPose(0, 0), GridPose(1, 0), GridPose(1, 1))

    def test_inner_whitespace_tolerated(self):
        got = parse_coordinate_list("path: ( 2 , 3 )  (4,5)")
        assert got.waypoints == (GridPose(2, 3), GridPose(4, 5))

    def test_prose_and_last_line_wins(self):
        reply = "path: (9,9)\nwait, better:\npath: (0,0) (0,1)\n"
        assert parse_coordinate_list(reply).waypoints == (GridPose(0, 0), GridPose(0, 1))

    def test_adjacency_not_checked_here(self):
        # downstream validation owns geometry; the parser only owns syntax
        got = parse_coordinate_list("path: (0,0) (5,5)")
        assert got.waypoints == (GridPose(0, 0), GridPose(5, 5))

    @pytest.mark.parametrize("reply", [
        "",
        "(0,0) (1,1)",
        "path:",
        "path:   ",
        "path: (0,0) and then (1,1)",
        "path: (0,0), (1,1)",
        "path: (-1,0)",
        "path: (0.5,1)",
        "path: (0,0) junk",
        # longer than the int-string conversion limit
        pytest.param("path: (" + "1" * 5000 + ",0)", id="x-5000-digits"),
        # converts to an int, but too large for a float, let alone a cell
        pytest.param("path: (2,1) (1" + "0" * 400 + ",1)", id="x-401-digits"),
        pytest.param("path: (0,1234567890)", id="y-10-digits"),
    ])
    def test_rejections(self, reply):
        with pytest.raises(MalformedReply):
            parse_coordinate_list(reply)

    def test_a_coordinate_has_at_most_nine_digits(self):
        got = parse_coordinate_list("path: (000000012,999999999)")
        assert got.waypoints == (GridPose(12, 999999999),)
        with pytest.raises(MalformedReply, match=r"^path coordinate has more than 9 digits$"):
            parse_coordinate_list("path: (2,1) (1" + "0" * 400 + ",1)")

    def test_exception_carries_raw_reply(self):
        with pytest.raises(MalformedReply) as exc:
            parse_coordinate_list("nothing useful")
        assert exc.value.reply == "nothing useful"

    def test_bytes_accepted(self):
        got = parse_coordinate_list(b"path: (1,2)")
        assert got.waypoints == (GridPose(1, 2),)

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_total_over_arbitrary_text(self, text):
        try:
            got = parse_coordinate_list(text)
        except MalformedReply:
            return
        assert len(got.waypoints) >= 1


class TestFormatCoordinateList:
    def test_renders_pairs(self):
        line = format_coordinate_list([GridPose(0, 0), GridPose(10, 3)])
        assert line == "path: (0,0) (10,3)"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_coordinate_list([])

    @given(st.lists(
        st.tuples(st.integers(0, 999), st.integers(0, 999)).map(lambda t: GridPose(*t)),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=200, deadline=None)
    def test_exact_round_trip(self, waypoints):
        got = parse_coordinate_list(format_coordinate_list(waypoints))
        assert got.waypoints == tuple(waypoints)


# --- the parsers against the token-by-token code they replaced (tests/reference.py) ---


def parsed(parse, reply):
    """What a parser gives: ("ok", the value with each item's type), or the MalformedReply's text and reply."""
    try:
        got = parse(reply)
    except MalformedReply as exc:
        return "error", str(exc), exc.reply
    items = got.waypoints if isinstance(got, tuple) and hasattr(got, "waypoints") else got
    return "ok", type(got), got, [type(v) for v in items], [[type(c) for c in v] for v in items if isinstance(v, tuple)]


# the whitespace str.split and \s agree on, mostly within a line, then line breaks, and two that are no whitespace
GAPS = st.sampled_from([" ", "  ", "\t", "\u3000", "\xa0", "\x1f"] * 3
                       + ["\x1c", "\x85", "\u2028", "\n", "\r\n", "\u200b", "\ufeff", ""])
DIGITS = st.one_of(
    st.text(st.sampled_from("0123456789"), min_size=1, max_size=11),
    st.text(st.sampled_from("0٣۱१੦１\U0001d7ce"), min_size=1, max_size=4),  # Unicode \d
    st.sampled_from(["1234567890", "0" * 12, "9" * 400]),
)
SCORE_TOKENS = st.one_of(
    DIGITS,
    st.tuples(DIGITS, st.sampled_from([".", "e", "E+", "e-", ".5e"]), DIGITS).map("".join),
    st.sampled_from(["1e999", "1.8e308", ".5", "5.", "1e", "-1", "+1", "inf", "nan", "1_0", "0x1", "1e+2",
                     "2.5E-2", ".", "e5", "1e308", "١e٣"]),
    st.text(max_size=3),
)


@st.composite
def score_replies(draw):
    # four tokens half the time, as a well-formed line has
    tokens = draw(st.lists(SCORE_TOKENS, min_size=4, max_size=4) | st.lists(SCORE_TOKENS, max_size=6))
    line = draw(GAPS) + "".join(draw(GAPS) + tok for tok in tokens) + draw(GAPS)
    return draw(st.sampled_from(["", "prose\n", "scores: 1 1 1 1\n", "  "])) + "scores:" + line + draw(
        st.sampled_from(["", "", "\n", "\nthanks", "\nscores:"]))


@st.composite
def path_replies(draw):
    pairs = draw(st.lists(st.tuples(DIGITS, DIGITS, GAPS, GAPS), min_size=0, max_size=5))
    body = "".join(f"{g}({x}{g},{h}{y}){h}" for x, y, g, h in pairs)
    stray = draw(st.sampled_from(["", "", "junk", ",", "(1,2", "()", "(-1,0)"]))
    return draw(st.sampled_from(["", "prose\n", "path: (9,9)\n"])) + "path:" + draw(GAPS) + body + stray + draw(
        st.sampled_from(["", "\n", "\nthanks", "\npath:"]))


class TestParsersMatchReference:
    @given(st.one_of(score_replies(), score_replies(), score_replies(), st.text(max_size=60), st.binary(max_size=20)))
    @example("scores: 1.8e308 1.8e308 1e308 0")  # finite scores whose sum overflows
    @example("scores: 1e999 0 0 0")
    @example("scores: ١ ٢ ٣.5 ٤e1")
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_scores(self, reply):
        assert parsed(parse_action_scores, reply) == parsed(reference_parse_action_scores, reply)

    @given(st.one_of(path_replies(), path_replies(), path_replies(), st.text(max_size=60), st.binary(max_size=20)))
    @example("path: (123456789,1) (1234567890,2)")
    @example("path: (١٢,３) ( 4 ,\t5 )")
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_paths(self, reply):
        assert parsed(parse_coordinate_list, reply) == parsed(reference_parse_coordinate_list, reply)
