import random
import re
import sys
import threading

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridground.errors import (
    InvalidDensity,
    InvalidParams,
    MalformedHeader,
    OutOfBounds,
    RaggedRows,
    UnknownCharacter,
)
from gridground import gridmap
from gridground.gridmap import (
    CellState,
    Connectivity,
    GridPose,
    OccupancyGrid,
    DIAGONAL_DELTAS,
    FOUR_DELTAS,
    load_map,
    neighbors,
    random_map,
    serialize_map,
)

from conftest import count_bfs_runs, empty_field_memo, grid_from_rows, open_grid
from reference import (
    ReferenceOccupancyGrid,
    reference_distance_field,
    reference_load_rows,
    reference_neighbors,
)


@st.composite
def grids(draw, max_side=8):
    """Small grids over all three cell states."""
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    rows = draw(st.lists(st.text(".#?", min_size=w, max_size=w), min_size=h, max_size=h))
    return grid_from_rows(rows)


class TestLoadMap:
    def test_parses_header_and_cells(self):
        g = load_map("3 2 0.5\n.#?\n...\n")
        assert (g.width, g.height, g.resolution) == (3, 2, 0.5)
        assert g.cell(0, 0) is CellState.FREE
        assert g.cell(1, 0) is CellState.OCCUPIED
        assert g.cell(2, 0) is CellState.UNKNOWN
        assert g.cell(2, 1) is CellState.FREE

    def test_row_major_xy_convention(self):
        # x indexes the column, y the row, origin top-left
        g = load_map("3 2 1.0\n#..\n..#\n")
        assert g.cell(0, 0) is CellState.OCCUPIED
        assert g.cell(2, 1) is CellState.OCCUPIED
        assert g.cell(2, 0) is CellState.FREE

    def test_missing_trailing_newline_ok(self):
        g = load_map("2 2 1.0\n..\n..")
        assert g.width == 2

    @pytest.mark.parametrize("header", [
        "", "3 2", "3 2 1.0 extra", "3  2 1.0", "a 2 1.0", "3 b 1.0",
        "3 2 zero", "-3 2 1.0", "3 2 -1.0", "3 2 0", "3 2 inf", "3 2 nan",
        "0 2 1.0", "3.5 2 1.0",
        # passes str.isdigit() but not int()
        "\u00b2 2 1.0",
        # longer than the int-string conversion limit
        pytest.param("1" * 5000 + " 2 1.0", id="width-5000-digits"),
    ])
    def test_bad_header(self, header):
        with pytest.raises(MalformedHeader):
            load_map(header + "\n..\n..\n")

    def test_header_error_names_line_one(self):
        with pytest.raises(MalformedHeader, match="line 1"):
            load_map("bogus\n")

    def test_too_few_rows(self):
        with pytest.raises(RaggedRows):
            load_map("2 3 1.0\n..\n..\n")

    def test_too_many_rows(self):
        with pytest.raises(RaggedRows):
            load_map("2 1 1.0\n..\n..\n")

    def test_short_row_reports_position(self):
        with pytest.raises(RaggedRows, match="row 2"):
            load_map("3 2 1.0\n...\n..\n")

    def test_unknown_character_reports_position(self):
        with pytest.raises(UnknownCharacter, match="row 2.*column 3"):
            load_map("3 2 1.0\n...\n..x\n")

    def test_space_is_not_a_cell(self):
        with pytest.raises(UnknownCharacter):
            load_map("3 1 1.0\n. .\n")

    @given(st.integers(1, 4), st.lists(st.text(".#?x \t\r\u00e9", max_size=5), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_row_checks_match_the_char_by_char_reference(self, width, rows):
        assume(rows[-1] != "")  # a trailing empty row is read as the final newline
        text = f"{width} {len(rows)} 1.0\n" + "\n".join(rows) + "\n"

        def outcome(load):
            try:
                return list(load())
            except (RaggedRows, UnknownCharacter) as exc:
                return type(exc), str(exc)

        assert outcome(lambda: load_map(text).cells) == outcome(lambda: reference_load_rows(rows, width))


class TestSerializeMap:
    def test_round_trip(self):
        text = "3 2 1.0\n.#?\n...\n"
        assert serialize_map(load_map(text)) == text

    def test_fractional_resolution_round_trip(self):
        text = "2 2 0.1\n..\n#.\n"
        assert serialize_map(load_map(text)) == text

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_grid(self, w, h, seed):
        rng = random.Random(seed)
        cells = tuple(rng.choice(list(CellState)) for _ in range(w * h))
        g = OccupancyGrid(w, h, 1.0, cells)
        assert load_map(serialize_map(g)) == g


class TestOccupancyGrid:
    def test_cell_out_of_bounds(self):
        g = open_grid(3, 3)
        for x, y in [(-1, 0), (0, -1), (3, 0), (0, 3)]:
            with pytest.raises(OutOfBounds):
                g.cell(x, y)

    def test_validation(self):
        with pytest.raises(ValueError):
            OccupancyGrid(0, 1, 1.0, ())
        with pytest.raises(ValueError):
            OccupancyGrid(2, 2, 1.0, (CellState.FREE,) * 3)
        with pytest.raises(ValueError):
            OccupancyGrid(1, 1, 0.0, (CellState.FREE,))
        with pytest.raises(ValueError):
            OccupancyGrid(1, 1, float("nan"), (CellState.FREE,))
        with pytest.raises(ValueError, match="got 'x'"):
            OccupancyGrid(2, 1, 1.0, ("x", CellState.FREE))

    def test_with_occupied_copies(self):
        g = open_grid(3, 3)
        g2 = g.with_occupied([GridPose(1, 1), GridPose(2, 0)])
        assert g2.cell(1, 1) is CellState.OCCUPIED
        assert g2.cell(2, 0) is CellState.OCCUPIED
        assert g.cell(1, 1) is CellState.FREE  # original untouched

    def test_with_occupied_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            open_grid(2, 2).with_occupied([GridPose(5, 5)])

    @pytest.mark.parametrize("x,y", [(-1, 0), (0, -1), (3, 0), (0, 2), (-1, -1), (3, 2)])
    def test_is_free_false_outside(self, x, y):
        assert not open_grid(3, 2).is_free(x, y)

    def test_is_free_only_on_free_cells(self):
        g = load_map("3 1 1.0\n.#?\n")
        assert [g.is_free(x, 0) for x in range(3)] == [True, False, False]

    def test_rows_are_the_serialized_body(self):
        g = load_map("3 2 0.5\n.#?\n?..\n")
        assert g.rows() == [".#?", "?.."]
        assert g.rows() == serialize_map(g).splitlines()[1:]


class TestDerivedViews:
    def test_rows_returns_a_fresh_list(self):
        g = load_map("2 2 1.0\n.#\n..\n")
        g.rows()[0] = "##"
        assert g.rows() == [".#", ".."]

    def test_views_are_built_once(self):
        g = open_grid(3, 2)
        assert g.free_mask is g.free_mask
        assert g.flat_offsets is g.flat_offsets

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_free_mask_matches_is_free_with_a_blocked_pad(self, g):
        mask = g.free_mask
        assert len(mask) == (g.width + 2) * (g.height + 2)
        indices = [g.flat_index(x, y) for y in range(-1, g.height + 1) for x in range(-1, g.width + 1)]
        assert indices == list(range(len(mask)))
        for y in range(-1, g.height + 1):
            for x in range(-1, g.width + 1):
                assert mask[g.flat_index(x, y)] == g.is_free(x, y)
                assert g.flat_pose(g.flat_index(x, y)) == GridPose(x, y)

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_text_is_the_serialized_body(self, g):
        assert g.text is g.text
        assert serialize_map(g) == f"{g.width} {g.height} {g.resolution!r}\n{g.text}\n"
        assert g.text.split("\n") == g.rows()
        for y in range(g.height):
            for x in range(g.width):
                assert g.text[g.text_index(x, y)] == g.cell(x, y).value

    def test_flat_offsets_follow_the_deltas(self):
        g = open_grid(4, 3)
        deltas = FOUR_DELTAS + DIAGONAL_DELTAS
        assert [g.flat_index(1 + dx, 1 + dy) - g.flat_index(1, 1) for dx, dy in deltas] == list(g.flat_offsets)

    def test_strip_pad_keeps_the_cells_in_row_major_order(self):
        g = open_grid(3, 2)
        assert g.strip_pad(list(range(len(g.free_mask)))) == [
            g.flat_index(x, y) for y in range(2) for x in range(3)
        ]

    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_neighbors_match_the_cell_by_cell_reference(self, g):
        for conn in Connectivity:
            for y in range(g.height):
                for x in range(g.width):
                    assert neighbors(g, GridPose(x, y), conn) == reference_neighbors(g, GridPose(x, y), conn)

    @settings(max_examples=80, deadline=None)
    @given(grids(), st.data(), st.booleans())
    def test_sensed_grid_views_equal_a_loaded_grid(self, g, data, loaded_parent):
        poses = data.draw(st.lists(st.builds(GridPose, st.integers(0, g.width - 1), st.integers(0, g.height - 1))))
        # a loaded grid starts from its map text; a constructed one builds its views from its cells
        parent = g if loaded_parent else OccupancyGrid(g.width, g.height, g.resolution, g.cells)
        sensed = parent.with_occupied(poses)
        loaded = load_map(serialize_map(sensed))
        assert loaded.cells == sensed.cells
        assert loaded.rows() == sensed.rows()
        assert loaded.free_mask == sensed.free_mask
        assert OccupancyGrid(g.width, g.height, g.resolution, sensed.cells).free_mask == sensed.free_mask
        rebuilt = OccupancyGrid(g.width, g.height, g.resolution, g.cells)
        assert (parent.rows(), parent.free_mask) == (rebuilt.rows(), rebuilt.free_mask)  # parent untouched

    def test_with_occupied_returns_a_new_grid_for_no_poses(self):
        g = open_grid(2, 2)
        assert g.with_occupied([]) is not g


def cell_outcome(grid, x, y):
    try:
        return grid.cell(x, y)
    except OutOfBounds as exc:
        return str(exc)


def assert_same_grid(g, ref):
    """g answers every cell query as the three-store reference grid does, on the grid and a ring around it."""
    assert len(g.cells) == len(ref.cells) and all(a is b for a, b in zip(g.cells, ref.cells))
    assert (g.rows(), g.free_mask) == (ref.rows(), ref.free_mask)
    for y in range(-1, g.height + 1):
        for x in range(-1, g.width + 1):
            assert g.is_free(x, y) == ref.is_free(x, y)
            assert cell_outcome(g, x, y) == cell_outcome(ref, x, y)


STORE_FIELDS = {"width", "height", "resolution", "_padded"}


class TestOneStore:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.data())
    def test_grid_matches_the_three_store_reference(self, w, h, data):
        cells = data.draw(st.lists(st.sampled_from(CellState), min_size=w * h, max_size=w * h))
        ref = ReferenceOccupancyGrid(w, h, 0.5, cells)
        g = OccupancyGrid(w, h, 0.5, cells)
        if data.draw(st.booleans(), label="loaded"):
            g = load_map(serialize_map(g))
        if data.draw(st.booleans(), label="views read first"):
            g.cells, g.rows(), g.free_mask
        # in-bounds poses repeat and land on Unknown cells as drawn; at most one pose is off the grid
        poses = data.draw(st.lists(st.builds(GridPose, st.integers(0, w - 1), st.integers(0, h - 1)), max_size=10))
        if data.draw(st.booleans(), label="off the grid"):
            off = data.draw(st.sampled_from([GridPose(-1, 0), GridPose(0, -1), GridPose(w, 0), GridPose(0, h)]))
            poses.insert(data.draw(st.integers(0, len(poses))), off)
        parent_vars = dict(vars(g))
        try:
            ref_sensed = ref.with_occupied(poses)
        except OutOfBounds as exc:
            with pytest.raises(OutOfBounds, match=re.escape(str(exc))):
                g.with_occupied(poses)
        else:
            sensed = g.with_occupied(poses)
            assert_same_grid(sensed, ref_sensed)
            built = OccupancyGrid(w, h, 0.5, ref_sensed.cells)
            assert sensed == built and hash(sensed) == hash(built)
            assert (sensed == g) == (ref_sensed.cells == ref.cells)
            assert load_map(serialize_map(sensed)) == sensed
        assert vars(g) == parent_vars  # the parent's store and views are untouched
        assert_same_grid(g, ref)
        assert load_map(serialize_map(g)) == g

    def test_a_fresh_grid_holds_only_its_store(self):
        parent = open_grid(3, 2)
        fresh = [
            load_map("3 2 1.0\n.#?\n...\n"),
            OccupancyGrid(3, 2, 1.0, [CellState.FREE] * 6),
            random_map(3, 2, 0.5, seed=1),
            parent.with_occupied([GridPose(1, 1)]),
        ]
        parent.free_mask, parent.distances_to(GridPose(0, 0))
        fresh.append(parent.with_occupied([]))  # a sensed grid starts with none of its parent's views
        for g in fresh:
            assert set(vars(g)) == STORE_FIELDS
        g = fresh[0]
        assert g.cell(1, 0) is CellState.OCCUPIED and g.is_free(0, 0)
        assert set(vars(g)) == STORE_FIELDS  # cell and is_free read the store itself


def held_field(grid):
    """The (goal, field) pair a grid keeps for its last distances_to goal, or None."""
    return vars(grid).get("_goal_field")


class TestDistanceView:
    @settings(max_examples=80, deadline=None)
    @given(grids(), st.data())
    def test_matches_the_cell_by_cell_bfs(self, g, data):
        goal = data.draw(st.builds(GridPose, st.integers(-1, g.width), st.integers(-1, g.height)))
        assert list(g.distances_to(goal)) == reference_distance_field(g, goal)

    def test_a_repeated_goal_returns_the_kept_field(self):
        g = open_grid(4, 3)
        fld = g.distances_to(GridPose(3, 2))
        assert isinstance(fld, tuple)
        assert g.distances_to((3, 2)) is fld
        assert held_field(g) == (GridPose(3, 2), fld)

    def test_goal_is_any_xy_pair_copied_on_entry(self):
        g = open_grid(3, 1)
        goal = [0, 0]
        assert g.distances_to(goal) == (0.0, 1.0, 2.0)
        goal[0] = 2  # the kept goal is a copy, so this is a new goal
        assert g.distances_to(goal) == (2.0, 1.0, 0.0)
        assert held_field(g)[0] == GridPose(2, 0)

    def test_a_pose_a_tuple_and_a_list_read_the_kept_field(self, monkeypatch):
        builds = count_bfs_runs(monkeypatch)
        g = open_grid(4, 3)
        fld = g.distances_to(GridPose(3, 2))
        assert g.distances_to((3, 2)) is fld and g.distances_to([3, 2]) is fld
        assert len(builds) == 1
        assert type(held_field(g)[0]) is GridPose  # a list goal is not kept as given

    def test_a_goal_whose_equality_has_no_truth_value_reads_its_field(self):
        class NoTruth:
            def __bool__(self):
                raise ValueError("the truth value is ambiguous")

        class ArrayPair:
            """An (x, y) pair whose == answers elementwise, as a numpy array's does."""

            def __init__(self, x, y):
                self.xy = (x, y)

            def __getitem__(self, i):
                return self.xy[i]

            def __eq__(self, other):
                return NoTruth()

        g = open_grid(4, 3)
        fld = g.distances_to(ArrayPair(3, 2))
        assert g.distances_to(ArrayPair(3, 2)) is fld
        assert list(fld) == reference_distance_field(g, GridPose(3, 2))

    def test_a_second_goal_replaces_the_first(self, monkeypatch):
        builds = count_bfs_runs(monkeypatch)
        g = open_grid(4, 3)
        first = g.distances_to(GridPose(0, 0))
        second = g.distances_to(GridPose(3, 2))
        assert held_field(g) == (GridPose(3, 2), second)  # one pair per grid
        again = g.distances_to(GridPose(0, 0))
        assert again is first and len(builds) == 2  # taken back from the memo, not rebuilt
        assert held_field(g) == (GridPose(0, 0), first)

    def test_sensed_grid_starts_without_the_parent_field(self):
        g = grid_from_rows(["....", "....", "...."])
        goal = GridPose(3, 0)
        parent_field = g.distances_to(goal)
        sensed = g.with_occupied([GridPose(2, 0), GridPose(2, 1)])
        assert held_field(sensed) is None
        assert held_field(g) == (goal, parent_field)  # the parent keeps its own
        fld = sensed.distances_to(goal)
        assert fld == tuple(reference_distance_field(sensed, goal))
        assert fld != parent_field


@st.composite
def equal_content_grids(draw):
    """One grid content reached by every route that builds a grid, as a list of distinct grids."""
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.sampled_from(CellState), min_size=w * h, max_size=w * h))
    base = OccupancyGrid(w, h, 1.0, cells)
    poses = draw(st.lists(st.builds(GridPose, st.integers(0, w - 1), st.integers(0, h - 1)), max_size=6))
    sensed = base.with_occupied(poses)
    reordered = draw(st.permutations(poses + draw(st.lists(st.sampled_from(poses), max_size=3)) if poses else []))
    return [
        sensed,
        OccupancyGrid(w, h, 1.0, sensed.cells),  # the constructor
        load_map(serialize_map(sensed)),  # a round trip through map text
        base.with_occupied(reordered),  # the same poses reordered and repeated
        sensed.with_occupied(draw(st.lists(st.sampled_from(poses), max_size=3)) if poses else []),  # already occupied
    ]


class TestFieldMemo:
    @settings(max_examples=100, deadline=None)
    @given(equal_content_grids(), st.data())
    def test_one_bfs_per_content_and_goal(self, grids, data):
        g = grids[0]
        assert all(other == g for other in grids) and len({id(other) for other in grids}) == len(grids)
        goals = data.draw(st.lists(st.builds(GridPose, st.integers(-1, g.width), st.integers(-1, g.height)),
                                   min_size=1, max_size=3))
        with pytest.MonkeyPatch.context() as mp:
            empty_field_memo(mp)
            builds = count_bfs_runs(mp)
            for goal in goals:
                want = reference_distance_field(g, goal)
                for other in grids:
                    assert list(other.distances_to(goal)) == want
            assert len(builds) == len(set(goals))

    def test_equal_store_different_width(self):
        tall = grid_from_rows(["##", "..", "..", "##"])
        wide = grid_from_rows(["##..", "..##"])
        assert tall._padded == wide._padded  # one store, two shapes
        goal = GridPose(0, 1)
        assert list(tall.distances_to(goal)) == reference_distance_field(tall, goal)
        assert list(wide.distances_to(goal)) == reference_distance_field(wide, goal)
        assert tall.distances_to(goal) != wide.distances_to(goal)

    def test_holds_store_bytes_not_grids(self):
        g = open_grid(3, 3)
        g.distances_to(GridPose(0, 0))
        assert [key for key in gridmap._field_memo.fields] == [(3, g._padded, GridPose(0, 0))]
        assert not any(isinstance(part, OccupancyGrid) for key in gridmap._field_memo.fields for part in key)

    def test_least_recently_asked_goes_first(self, monkeypatch):
        # room for exactly three 2x2 fields
        memo = gridmap._FieldMemo(3 * (4 + gridmap._FieldMemo.KEY_COST))
        monkeypatch.setattr(gridmap, "_field_memo", memo)
        builds = count_bfs_runs(monkeypatch)
        goals = [GridPose(0, 0), GridPose(1, 0), GridPose(0, 1), GridPose(1, 1)]
        for goal in goals[:3]:
            open_grid(2, 2).distances_to(goal)
        open_grid(2, 2).distances_to(goals[0])  # a hit makes the first goal the most recent
        assert len(builds) == 3
        open_grid(2, 2).distances_to(goals[3])  # evicts goals[1], the least recently asked
        assert [key[2] for key in memo.fields] == [goals[2], goals[0], goals[3]]
        assert memo.cost == memo.budget
        open_grid(2, 2).distances_to(goals[1])
        assert len(builds) == 5 and [key[2] for key in memo.fields] == [goals[0], goals[3], goals[1]]

    def test_a_field_over_the_budget_is_not_kept(self, monkeypatch):
        memo = gridmap._FieldMemo(6 + gridmap._FieldMemo.KEY_COST)
        monkeypatch.setattr(gridmap, "_field_memo", memo)
        builds = count_bfs_runs(monkeypatch)
        open_grid(2, 2).distances_to(GridPose(0, 0))
        big = open_grid(7, 1)
        fld = big.distances_to(GridPose(0, 0))
        assert fld == tuple(float(x) for x in range(7))
        assert [key[0] for key in memo.fields] == [2] and memo.cost == 4 + memo.KEY_COST  # the small one stays
        assert big.distances_to(GridPose(0, 0)) is fld  # the grid still keeps its own pair
        open_grid(7, 1).distances_to(GridPose(0, 0))
        assert len(builds) == 3  # not shared, so an equal grid builds it again


    def test_threads_keep_fields_and_cost_in_step(self, monkeypatch):
        memo = gridmap._FieldMemo(5 * (9 + gridmap._FieldMemo.KEY_COST))  # room for five 3x3 fields
        monkeypatch.setattr(gridmap, "_field_memo", memo)
        contents = [open_grid(3, 3).with_occupied([GridPose(i % 3, i // 3)]) for i in range(9)]
        errors = []

        def ask(k):
            try:
                for i in range(300):
                    g = load_map(serialize_map(contents[(i * (k + 1)) % 9]))
                    assert list(g.distances_to(GridPose(2, 2))) == reference_distance_field(g, GridPose(2, 2))
            except BaseException as exc:  # reported below, in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert memo.cost == sum(len(f) + memo.KEY_COST for f in memo.fields.values()) <= memo.budget


class TestManhattanTable:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.data())
    def test_holds_the_manhattan_distance_of_every_cell(self, w, h, data):
        gx, gy = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
        g = open_grid(w, h)
        table = g.manhattan_to(GridPose(gx, gy))
        assert len(table) == len(g.free_mask)  # one entry per free_mask index
        assert all(table[g.flat_index(x, y)] == abs(x - gx) + abs(y - gy) for y in range(h) for x in range(w))

    def test_one_by_one(self):
        g = open_grid(1, 1)
        assert g.manhattan_to(GridPose(0, 0))[g.flat_index(0, 0)] == 0

    def test_grids_of_one_shape_and_goal_share_the_table(self):
        a = random_map(30, 20, 0.3, seed=1)
        b = random_map(30, 20, 0.3, seed=2).with_occupied([GridPose(3, 3)])
        table = a.manhattan_to(GridPose(5, 7))
        assert b.manhattan_to((5, 7)) is table
        assert isinstance(table, tuple)  # shared, so immutable

    @pytest.mark.parametrize("first,second", [
        ((4, 6, (1, 2)), (4, 6, (2, 1))),  # same shape, transposed goal
        ((4, 6, (1, 2)), (6, 4, (1, 2))),  # transposed shape
        ((4, 6, (1, 2)), (4, 7, (1, 2))),  # same width
        ((4, 6, (1, 2)), (5, 6, (1, 2))),  # same height
        ((1, 1, (0, 0)), (1, 2, (0, 0))),
    ])
    def test_shapes_and_goals_do_not_collide(self, first, second):
        tables = [open_grid(w, h).manhattan_to(GridPose(*goal)) for w, h, goal in (first, second)]
        for (w, h, (gx, gy)), table in zip((first, second), tables):
            g = open_grid(w, h)
            assert len(table) == len(g.free_mask)
            assert [table[g.flat_index(x, y)] for y in range(h) for x in range(w)] == [
                abs(x - gx) + abs(y - gy) for y in range(h) for x in range(w)
            ]

    def test_the_cache_stays_bounded(self):
        g = open_grid(20, 20)
        for i in range(50):
            g.manhattan_to(GridPose(i % 20, i // 20))
        info = gridmap._manhattan_table.cache_info()
        assert info.maxsize is not None and info.currsize == info.maxsize


class TestRandomMap:
    def test_border_always_free(self):
        g = random_map(10, 8, 1.0, seed=7)
        for x in range(10):
            assert g.cell(x, 0) is CellState.FREE
            assert g.cell(x, 7) is CellState.FREE
        for y in range(8):
            assert g.cell(0, y) is CellState.FREE
            assert g.cell(9, y) is CellState.FREE

    def test_density_one_fills_interior(self):
        g = random_map(6, 6, 1.0, seed=0)
        for y in range(1, 5):
            for x in range(1, 5):
                assert g.cell(x, y) is CellState.OCCUPIED

    def test_density_zero_all_free(self):
        g = random_map(6, 6, 0.0, seed=0)
        assert all(c is CellState.FREE for c in g.cells)

    def test_deterministic_per_seed(self):
        assert random_map(12, 9, 0.3, 42) == random_map(12, 9, 0.3, 42)
        assert random_map(12, 9, 0.3, 42) != random_map(12, 9, 0.3, 43)

    def test_frozen_occupancy_regression(self):
        # pinned once from the generator contract: one uniform draw per
        # interior cell in row-major order, random.Random(0)
        g = random_map(20, 20, 0.25, seed=0)
        occupied = sum(1 for c in g.cells if c is CellState.OCCUPIED)
        assert occupied == 68

    def test_draw_order_matches_stream(self):
        # interior cells consume the seeded uniform stream row-major
        rng = random.Random(5)
        expected = [rng.random() < 0.4 for _ in range(3 * 3)]
        g = random_map(5, 5, 0.4, seed=5)
        got = [g.cell(x, y) is CellState.OCCUPIED
               for y in range(1, 4) for x in range(1, 4)]
        assert got == expected

    def test_resolution_is_one(self):
        assert random_map(4, 4, 0.5, 0).resolution == 1.0

    @pytest.mark.parametrize("width,height", [(0, 4), (4, 0), (-1, 3), (0, 0)])
    def test_side_below_one(self, width, height):
        with pytest.raises(InvalidParams, match=f"grid dimensions must be >= 1, got {width}x{height}"):
            random_map(width, height, 0.5, 0)

    @pytest.mark.parametrize("density", [-0.01, 1.01, float("nan"), float("inf")])
    def test_invalid_density(self, density):
        with pytest.raises(InvalidDensity):
            random_map(5, 5, density, 0)


class TestNeighbors:
    def test_four_order_up_right_left_down(self):
        g = open_grid(3, 3)
        assert neighbors(g, GridPose(1, 1)) == [
            GridPose(1, 0), GridPose(2, 1), GridPose(0, 1), GridPose(1, 2),
        ]
        assert FOUR_DELTAS == ((0, -1), (1, 0), (-1, 0), (0, 1))

    def test_four_excludes_blocked_and_oob(self):
        g = grid_from_rows([
            ".#.",
            "...",
            ".?.",
        ])
        assert neighbors(g, GridPose(1, 0)) == [GridPose(2, 0), GridPose(0, 0), GridPose(1, 1)]
        # unknown is non-traversable
        assert GridPose(1, 2) not in neighbors(g, GridPose(1, 1))

    def test_eight_appends_diagonals(self):
        g = open_grid(3, 3)
        assert neighbors(g, GridPose(1, 1), Connectivity.EIGHT) == [
            GridPose(1, 0), GridPose(2, 1), GridPose(0, 1), GridPose(1, 2),
            GridPose(2, 0), GridPose(2, 2), GridPose(0, 2), GridPose(0, 0),
        ]

    def test_diagonal_allowed_past_single_blocked_side(self):
        g = grid_from_rows([
            ".#.",
            "...",
            "...",
        ])
        # NE of (1,1) is (2,0); only one side cell (1,0) is blocked
        assert GridPose(2, 0) in neighbors(g, GridPose(1, 1), Connectivity.EIGHT)

    def test_diagonal_blocked_when_both_sides_blocked(self):
        g = grid_from_rows([
            ".#.",
            "#..",
            "...",
        ])
        # NW of (1,1) is (0,0): sides (1,0) and (0,1) both blocked
        assert GridPose(0, 0) not in neighbors(g, GridPose(1, 1), Connectivity.EIGHT)

    def test_unknown_blocks_corner_like_occupied(self):
        g = grid_from_rows([
            ".?.",
            "?..",
            "...",
        ])
        assert GridPose(0, 0) not in neighbors(g, GridPose(1, 1), Connectivity.EIGHT)

    def test_source_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            neighbors(open_grid(2, 2), GridPose(9, 9))

    @pytest.mark.parametrize("connectivity, count", [
        (Connectivity.FOUR, 4), (Connectivity.EIGHT, 8), (4, 4), (8, 8),
    ])
    def test_connectivity_by_member_or_value(self, connectivity, count):
        g = random_map(5, 5, 0.0, seed=0)
        got = neighbors(g, GridPose(2, 2), connectivity)
        assert len(got) == count
        assert got == neighbors(g, GridPose(2, 2), Connectivity(count))

    @pytest.mark.parametrize("connectivity", [5, "8", None, 0])
    def test_other_connectivity_is_invalid(self, connectivity):
        with pytest.raises(InvalidParams, match="connectivity must be 4 or 8"):
            neighbors(random_map(5, 5, 0.0, seed=0), GridPose(2, 2), connectivity)

