import heapq
import math
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridground.classical import (
    PlannedPath,
    RrtTree,
    RrtParams,
    SQRT2,
    astar,
    chain_cells,
    grow_rrt_tree,
    path_length,
    rrt,
    supercover_cells,
    _NodeSweep,
    _edge_free,
)
from gridground import classical
from gridground.bench import trial_seed
from gridground.bundled import bundled_path
from gridground.errors import InvalidEndpoint, InvalidParams
from gridground.gridmap import CellState, Connectivity, GridPose, load_map, random_map

from conftest import grid_from_rows, open_grid
from reference import dijkstra_oracle, path_cost_cells, reference_astar


def serpentine(width, height):
    """Open rows joined by one gap at alternating ends: the only route zigzags through every row."""
    rows = []
    for y in range(height):
        gap = width - 1 if y % 4 == 1 else 0
        rows.append("." * width if y % 2 == 0 else "".join("." if x == gap else "#" for x in range(width)))
    return grid_from_rows(rows)


def popped(search, *args):
    """Every item search pops from its open list, in order."""
    seen, pop = [], heapq.heappop
    with mock.patch.object(heapq, "heappop", lambda heap: seen.append(pop(heap)) or seen[-1]):
        search(*args)
    return seen


def assert_pops_in_the_former_order(g, start, goal):
    """Pin astar's four-connected open list to every (f, h, tick) that reference_astar pops.

    Stale pops are included. A node that astar dives into takes a tick but is
    never pushed, so it never reaches heappop: its tick is one the reference
    pops and astar never pushed (tick 0, the start, starts on the heap). The
    reference must pop each such tick straight after expanding its parent, a
    neighbour at the same f and h + 1; astar's heap pops must be the
    reference's pops without those ticks. Returns the dived ticks.
    """
    H, T = g.width + g.height + 2, 4 * len(g.free_mask) + 2
    pushed, push = [], heapq.heappush
    with mock.patch.object(heapq, "heappush", lambda heap, key: pushed.append(key) or push(heap, key)):
        keys = popped(astar, g, start, goal)
    want = popped(reference_astar, g, start, goal)
    dived = {item[2] for item in want} - {key % T for key in pushed} - {0}
    assert [(k // T // H, k // T % H, k % T) for k in keys] == [item[:3] for item in want if item[2] not in dived]
    expanded = set()
    for before, item in zip([None] + want, want):
        if item[2] in dived:
            f, h, _, node = item[:4]
            assert before[3] not in expanded, "a dive follows an expansion, not a stale pop"
            assert (before[0], before[1]) == (f, h + 1)
            assert node - before[3] in g.flat_offsets[:4]
        if before is not None:
            expanded.add(before[3])
    return dived


@st.composite
def astar_cases(draw):
    """(grid, start, goal) over random and sensed maps, strips, non-square maps and serpentine mazes."""
    kind = draw(st.sampled_from(["random", "sensed", "drawn", "serpentine"]))
    if kind == "serpentine":
        g = serpentine(draw(st.integers(2, 16)), 2 * draw(st.integers(1, 12)) + 1)
        # first row to last row: f climbs far past width + height along the way
        start = GridPose(draw(st.integers(0, g.width - 1)), 0)
        return g, start, GridPose(draw(st.integers(0, g.width - 1)), g.height - 1)
    if kind == "drawn":  # 1xN and Nx1 strips, non-square maps, all three cell states
        w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        cell = st.sampled_from("....#?")
        g = grid_from_rows([
            "".join(draw(st.lists(cell, min_size=w, max_size=w))) for _ in range(h)
        ])
    else:
        g = random_map(draw(st.integers(1, 28)), draw(st.integers(1, 28)),
                       draw(st.sampled_from([0.0, 0.15, 0.3, 0.45])), draw(st.integers(0, 10_000)))
        if kind == "sensed":
            pose = st.builds(GridPose, st.integers(0, g.width - 1), st.integers(0, g.height - 1))
            g = g.with_occupied(draw(st.lists(pose, max_size=12)))
    free = [GridPose(x, y) for y in range(g.height) for x in range(g.width) if g.is_free(x, y)]
    assume(free)
    border = [p for p in free if p.x in (0, g.width - 1) or p.y in (0, g.height - 1)]
    start = draw(st.sampled_from(free))
    goals = border if border and draw(st.booleans()) else free
    return g, start, draw(st.sampled_from(goals))


class Index:
    """An integer that is no int: it has __index__, as numpy's integers do."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# poses that are not two integers; a float or a str coordinate used to fail inside the kernel with a TypeError
NOT_POSES = [(0.5, 1), (1, 0.0), ("1", 0), (1, None), None, (1,), (0, 0, 0), "ab"]


def assert_four_adjacent(waypoints):
    for a, b in zip(waypoints, waypoints[1:]):
        assert abs(a.x - b.x) + abs(a.y - b.y) == 1, (a, b)


def assert_all_free(grid, waypoints):
    for p in waypoints:
        assert grid.cell(p.x, p.y) is CellState.FREE, p


class TestPathMeasures:
    def test_length_scales_with_resolution(self):
        assert path_length((GridPose(0, 0), GridPose(1, 0), GridPose(1, 1)), 0.5) == pytest.approx(1.0)

    def test_cost_counts_diagonals(self):
        p = PlannedPath((GridPose(0, 0), GridPose(1, 1), GridPose(2, 1)), 1.0)
        assert path_cost_cells(p) == pytest.approx(SQRT2 + 1.0)

    def test_single_waypoint_zero(self):
        p = PlannedPath((GridPose(3, 3),), 1.0)
        assert path_length(p.waypoints, p.resolution) == 0.0
        assert path_cost_cells(p) == 0.0

    def test_empty_is_zero(self):
        assert path_length((), 1.0) == 0.0
        assert path_length([], 0.5) == 0.0
        assert path_cost_cells(PlannedPath((), 1.0)) == 0.0


class TestAstar:
    def test_straight_corridor(self, corridor5):
        p = astar(corridor5, GridPose(0, 0), GridPose(4, 0))
        assert [tuple(w) for w in p.waypoints] == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
        assert path_length(p.waypoints, p.resolution) == pytest.approx(4.0)

    def test_wall_gap_cost_twelve(self, wall_gap_5x5):
        # frozen against the exhaustive search oracle
        p = astar(wall_gap_5x5, GridPose(0, 0), GridPose(4, 0))
        assert path_cost_cells(p) == pytest.approx(12.0)
        assert dijkstra_oracle(wall_gap_5x5, GridPose(0, 0), GridPose(4, 0)) == pytest.approx(12.0)

    def test_start_equals_goal(self):
        g = open_grid(3, 3)
        p = astar(g, GridPose(1, 1), GridPose(1, 1))
        assert p.waypoints == (GridPose(1, 1),)

    def test_unreachable_returns_none(self):
        g = grid_from_rows([
            ".....",
            ".###.",
            ".#.#.",
            ".###.",
            ".....",
        ])
        assert astar(g, GridPose(0, 0), GridPose(2, 2)) is None
        assert dijkstra_oracle(g, GridPose(0, 0), GridPose(2, 2)) is None

    @pytest.mark.parametrize("start,goal", [
        ((-1, 0), (2, 2)), ((0, 0), (9, 9)), ((1, 1), (2, 2)), ((0, 0), (1, 1)),
    ])
    def test_invalid_endpoints(self, start, goal):
        g = grid_from_rows([
            "...",
            ".#.",
            "...",
        ]).with_occupied([GridPose(1, 1)])
        with pytest.raises(InvalidEndpoint):
            astar(g, GridPose(*start), GridPose(*goal))
        with pytest.raises(InvalidEndpoint):
            dijkstra_oracle(g, GridPose(*start), GridPose(*goal))

    @pytest.mark.parametrize("pose", NOT_POSES)
    def test_a_pose_that_is_not_two_integers_is_an_invalid_endpoint(self, pose):
        g = open_grid(3, 3)
        for start, goal in ((pose, GridPose(2, 2)), (GridPose(0, 0), pose)):
            with pytest.raises(InvalidEndpoint, match="must be a pair of integers"):
                astar(g, start, goal)

    def test_coordinates_may_be_anything_operator_index_takes(self):
        g = open_grid(4, 3)
        for connectivity in (4, 8):
            got = astar(g, (Index(0), Index(2)), (Index(3), True), connectivity)
            assert got == astar(g, GridPose(0, 2), GridPose(3, 1), connectivity)
            assert all(type(c) is int for p in got.waypoints for c in p)

    def test_eight_connectivity_diagonal_run(self):
        g = open_grid(5, 5)
        p = astar(g, GridPose(0, 0), GridPose(4, 4), Connectivity.EIGHT)
        assert path_cost_cells(p) == pytest.approx(4 * SQRT2)

    def test_eight_does_not_cut_blocked_corners(self):
        g = grid_from_rows([
            "..#",
            ".#.",
            "...",
        ])
        p = astar(g, GridPose(0, 0), GridPose(2, 2), Connectivity.EIGHT)
        assert_all_free(g, p.waypoints)
        for a, b in zip(p.waypoints, p.waypoints[1:]):
            if a.x != b.x and a.y != b.y:  # diagonal step must keep a side open
                assert (g.cell(b.x, a.y) is CellState.FREE
                        or g.cell(a.x, b.y) is CellState.FREE)

    @pytest.mark.parametrize("connectivity, steps", [
        (Connectivity.FOUR, 64), (4, 64), (Connectivity.EIGHT, 58), (8, 58),
    ])
    def test_connectivity_by_member_or_value(self, connectivity, steps):
        g = load_map(bundled_path("corridor.map").read_text())
        p = astar(g, GridPose(2, 1), GridPose(21, 8), connectivity)
        assert len(p.waypoints) - 1 == steps

    @pytest.mark.parametrize("connectivity", [5, "4", None])
    def test_other_connectivity_is_invalid(self, connectivity):
        g = load_map(bundled_path("corridor.map").read_text())
        with pytest.raises(InvalidParams, match="connectivity must be 4 or 8"):
            astar(g, GridPose(2, 1), GridPose(21, 8), connectivity)

    def test_deterministic_output(self):
        g = random_map(20, 20, 0.3, seed=11)
        a = astar(g, GridPose(0, 0), GridPose(19, 19))
        b = astar(g, GridPose(0, 0), GridPose(19, 19))
        assert a.waypoints == b.waypoints

    def test_paths_are_four_adjacent_and_free(self):
        g = random_map(20, 20, 0.3, seed=3)
        p = astar(g, GridPose(0, 0), GridPose(19, 19))
        assert_four_adjacent(p.waypoints)
        assert_all_free(g, p.waypoints)

    @given(st.integers(0, 2_000), st.sampled_from([0.15, 0.3, 0.45]))
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_search_four(self, seed, density):
        g = random_map(12, 12, density, seed)
        got = astar(g, GridPose(0, 0), GridPose(11, 11))
        want = dijkstra_oracle(g, GridPose(0, 0), GridPose(11, 11))
        if want is None:
            assert got is None
        else:
            assert path_cost_cells(got) == pytest.approx(want)

    @given(st.integers(0, 2_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_search_eight(self, seed):
        g = random_map(12, 12, 0.3, seed)
        got = astar(g, GridPose(0, 0), GridPose(11, 11), Connectivity.EIGHT)
        want = dijkstra_oracle(g, GridPose(0, 0), GridPose(11, 11), Connectivity.EIGHT)
        if want is None:
            assert got is None
        else:
            assert path_cost_cells(got) == pytest.approx(want)

    @pytest.mark.parametrize("connectivity", [Connectivity.FOUR, Connectivity.EIGHT])
    @given(case=astar_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_former_search(self, connectivity, case):
        g, start, goal = case
        got = astar(g, start, goal, connectivity)
        want = reference_astar(g, start, goal, connectivity)
        assert (got and got.waypoints) == (want and want.waypoints)

    @given(case=astar_cases())
    @settings(max_examples=60, deadline=None)
    def test_pops_in_the_former_order(self, case):
        # each int key decodes to the (f, h, tick) the former search popped, in the same order
        assert_pops_in_the_former_order(*case)

    def test_walled_map_at_benchmark_scale(self):
        # 100x100 at density 0.2, crossed by three walls with two doors each,
        # one door closed by a sensed cell: long dive chains, as in dynamic_grid
        rng = random.Random(19)
        rows = random_map(100, 100, 0.2, seed=19).text.split("\n")
        doors = []
        for y in (25, 50, 75):
            xs = sorted(rng.sample(range(1, 99), 2))
            rows[y] = "".join("." if x in xs else "#" for x in range(100))
            for x in xs:  # open both sides of the door
                for r in (y - 1, y + 1):
                    rows[r] = rows[r][:x - 1] + "..." + rows[r][x + 2:]
            doors += [GridPose(x, y) for x in xs]
        base = grid_from_rows(rows)
        sensed = base.with_occupied([doors[2]])
        queries = [(GridPose(0, 0), GridPose(99, 99)), (GridPose(99, 0), GridPose(0, 99)), (GridPose(0, 0), GridPose(99, 60))]
        for g in (base, sensed):
            for start, goal in queries:
                got, want = astar(g, start, goal), reference_astar(g, start, goal)
                assert got.waypoints == want.waypoints
                dived = assert_pops_in_the_former_order(g, start, goal)
                assert len(dived) > 100

    def test_serpentine_path_visits_every_row(self):
        g = serpentine(9, 25)
        p = astar(g, GridPose(0, 0), GridPose(8, 24))
        assert len(p.waypoints) - 1 == 13 * 8 + 24  # across 13 open rows and down 24: far past width + height
        assert p.waypoints == reference_astar(g, GridPose(0, 0), GridPose(8, 24)).waypoints


class TestDistanceField:
    def test_four_is_bfs_hop_count(self):
        g = grid_from_rows([
            "...",
            ".#.",
            "...",
        ])
        fld = g.distances_to(GridPose(0, 0))
        def at(x, y):
            return fld[y * g.width + x]
        assert at(0, 0) == 0.0
        assert at(1, 0) == 1.0
        assert at(2, 0) == 2.0
        assert at(2, 1) == 3.0
        assert at(2, 2) == 4.0
        assert at(1, 1) == math.inf  # blocked cell itself

    def test_unreachable_pocket_is_inf(self):
        g = grid_from_rows([
            "...##",
            ".#.#.",
            "...##",
        ])
        fld = g.distances_to(GridPose(0, 0))
        assert fld[1 * 5 + 4] == math.inf

    def test_blocked_goal_all_inf(self):
        g = grid_from_rows(["...", ".#.", "..."])
        assert all(v == math.inf for v in g.distances_to(GridPose(1, 1)))
        assert all(v == math.inf for v in g.distances_to(GridPose(9, 9)))

    def test_agrees_with_search_per_cell(self):
        g = random_map(10, 10, 0.3, seed=9)
        goal = GridPose(0, 0)
        fld = g.distances_to(goal)
        for y in range(10):
            for x in range(10):
                if g.cell(x, y) is not CellState.FREE:
                    assert fld[y * 10 + x] == math.inf
                    continue
                want = dijkstra_oracle(g, GridPose(x, y), goal)
                if want is None:
                    assert fld[y * 10 + x] == math.inf
                else:
                    assert fld[y * 10 + x] == pytest.approx(want)


class TestSegmentTraversal:
    def test_straight_segment(self):
        cells = supercover_cells((0.5, 0.5), (3.5, 0.5))
        assert cells == [GridPose(0, 0), GridPose(1, 0), GridPose(2, 0), GridPose(3, 0)]

    def test_exact_corner_includes_both_sides(self):
        cells = supercover_cells((0.5, 0.5), (2.5, 2.5))
        assert GridPose(1, 0) in cells and GridPose(0, 1) in cells
        assert cells[0] == GridPose(0, 0) and cells[-1] == GridPose(2, 2)

    def test_chain_is_four_adjacent_at_corners(self):
        cells = chain_cells((0.5, 0.5), (2.5, 2.5))
        assert cells[0] == GridPose(0, 0) and cells[-1] == GridPose(2, 2)
        assert_four_adjacent(cells)

    def test_chain_subset_of_supercover(self):
        a, b = (0.3, 1.7), (4.6, 0.2)
        assert set(chain_cells(a, b)) <= set(supercover_cells(a, b))

    def test_degenerate_point(self):
        assert supercover_cells((1.5, 1.5), (1.5, 1.5)) == [GridPose(1, 1)]

    # A segment that ends on a lattice point leaves the walk one or two cells
    # short of the endpoint's floor cell, and the walk bridges to it.
    @pytest.mark.parametrize("p0,p1,cover,chain", [
        # rising: the endpoint is a corner of the last cell walked, so the bridge goes through a side cell
        ((0.5, 0.5), (2.0, 2.0),
         [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)], [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]),
        # falling: only x is short, so the bridge is one step
        ((0.5, 2.5), (2.0, 1.0), [(0, 2), (1, 2), (0, 1), (1, 1), (2, 1)], [(0, 2), (1, 2), (1, 1), (2, 1)]),
    ], ids=["rising", "falling"])
    def test_bridge_to_a_lattice_endpoint(self, p0, p1, cover, chain):
        assert supercover_cells(p0, p1) == [GridPose(*c) for c in cover]
        assert chain_cells(p0, p1) == [GridPose(*c) for c in chain]

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_chain_to_a_lattice_endpoint(self, x0, y0, x1, y1):
        p0, p1 = (x0 + 0.5, y0 + 0.5), (float(x1), float(y1))
        cells = chain_cells(p0, p1)
        assert cells[0] == GridPose(x0, y0) and cells[-1] == GridPose(x1, y1)
        assert_four_adjacent(cells)
        assert set(cells) <= set(supercover_cells(p0, p1))

    @given(
        st.floats(0.01, 7.99), st.floats(0.01, 7.99),
        st.floats(0.01, 7.99), st.floats(0.01, 7.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_chain_properties(self, x0, y0, x1, y1):
        cells = chain_cells((x0, y0), (x1, y1))
        assert cells[0] == GridPose(int(x0), int(y0))
        assert cells[-1] == GridPose(int(x1), int(y1))
        assert_four_adjacent(cells)

    @given(
        st.floats(0.01, 7.99), st.floats(0.01, 7.99),
        st.floats(0.01, 7.99), st.floats(0.01, 7.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_supercover_contains_endpoints_and_connects(self, x0, y0, x1, y1):
        cells = supercover_cells((x0, y0), (x1, y1))
        assert cells[0] == GridPose(int(x0), int(y0))
        assert GridPose(int(x1), int(y1)) in cells
        # no duplicate visits except possibly at corner insertions
        assert len(cells) <= 2 * (abs(int(x1) - int(x0)) + abs(int(y1) - int(y0))) + 3


class TestEdgeFree:
    def test_one_cell_segment_reads_that_cells_bit(self):
        # both endpoints floor to one cell, some on its integer sides or
        # corner: the supercover is that cell, blocked or free
        g = random_map(8, 6, 0.4, seed=3)
        assert any(not g.is_free(x, y) for y in range(6) for x in range(8))
        rng = random.Random(5)
        fractions = [0.0, 0.0, 0.5, 0.999]
        for _ in range(400):
            x, y = rng.randrange(8), rng.randrange(6)
            p0, p1 = [
                (x + rng.choice([*fractions, rng.random()]), y + rng.choice([*fractions, rng.random()]))
                for _ in range(2)
            ]
            cells = supercover_cells(p0, p1)
            assert cells == [GridPose(x, y)]
            assert _edge_free(g, p0, p1) == all(g.is_free(c.x, c.y) for c in cells)


class TestRrt:
    def test_open_map_reaches_goal(self):
        g = open_grid(12, 12)
        p = rrt(g, GridPose(1, 1), GridPose(10, 10), RrtParams(seed=0))
        assert p is not None
        assert p.waypoints[0] == GridPose(1, 1)
        assert p.waypoints[-1] == GridPose(10, 10)
        assert_four_adjacent(p.waypoints)
        assert_all_free(g, p.waypoints)

    def test_deterministic_per_seed(self):
        g = random_map(15, 15, 0.2, seed=4)
        a = rrt(g, GridPose(0, 0), GridPose(14, 14), RrtParams(seed=8))
        b = rrt(g, GridPose(0, 0), GridPose(14, 14), RrtParams(seed=8))
        assert a.waypoints == b.waypoints

    def test_seed_changes_exploration(self):
        g = random_map(15, 15, 0.2, seed=4)
        trees = {
            tuple(grow_rrt_tree(g, GridPose(0, 0), GridPose(14, 14), RrtParams(seed=s)).points)
            for s in range(3)
        }
        assert len(trees) > 1

    def test_unreachable_goal_returns_none(self):
        g = grid_from_rows([
            ".....",
            ".###.",
            ".#.#.",
            ".###.",
            ".....",
        ])
        p = rrt(g, GridPose(0, 0), GridPose(2, 2), RrtParams(seed=0, max_iterations=300))
        assert p is None

    def test_start_equals_goal(self):
        g = open_grid(4, 4)
        p = rrt(g, GridPose(2, 2), GridPose(2, 2), RrtParams(seed=0))
        assert p.waypoints == (GridPose(2, 2),)

    @pytest.mark.parametrize("tolerance", [0.0, 1.0])
    def test_start_equals_goal_tree_is_the_start_alone(self, tolerance):
        # the goal-region check accepts the start node itself, even at zero tolerance
        g = open_grid(4, 4)
        params = RrtParams(seed=0, goal_tolerance=tolerance)
        tree = grow_rrt_tree(g, GridPose(2, 2), GridPose(2, 2), params)
        assert (tree.points, tree.parents, tree.accepted) == ([(2.5, 2.5)], [-1], 0)
        assert rrt(g, GridPose(2, 2), GridPose(2, 2), params).waypoints == (GridPose(2, 2),)

    def test_adjacent_goal_immediate(self):
        g = open_grid(4, 4)
        p = rrt(g, GridPose(1, 1), GridPose(2, 1), RrtParams(seed=0))
        assert p is not None
        assert p.waypoints == (GridPose(1, 1), GridPose(2, 1))

    def test_invalid_endpoints(self):
        g = open_grid(4, 4)
        with pytest.raises(InvalidEndpoint):
            rrt(g, GridPose(-1, 0), GridPose(2, 2))

    @pytest.mark.parametrize("pose", NOT_POSES)
    def test_a_pose_that_is_not_two_integers_is_an_invalid_endpoint(self, pose):
        g = open_grid(4, 4)
        for start, goal in ((pose, GridPose(3, 3)), (GridPose(0, 0), pose)):
            with pytest.raises(InvalidEndpoint, match="must be a pair of integers"):
                rrt(g, start, goal)

    def test_coordinates_may_be_anything_operator_index_takes(self):
        g = open_grid(6, 6)
        assert rrt(g, (Index(0), Index(1)), (Index(5), 4)) == rrt(g, GridPose(0, 1), GridPose(5, 4))

    @pytest.mark.parametrize("kwargs", [
        {"step_size": 0.0}, {"step_size": -1.0}, {"goal_bias": -0.1},
        {"goal_bias": 1.5}, {"max_iterations": 0}, {"goal_tolerance": -0.5},
        {"step_size": math.inf}, {"step_size": math.nan}, {"goal_tolerance": math.nan},
        {"max_iterations": 2.5}, {"max_iterations": True}, {"max_iterations": 3.0},
        {"max_iterations": "5"}, {"max_iterations": classical.MAX_RRT_ITERATIONS + 1},
        # of the wrong type: each used to fail a comparison with a TypeError
        {"step_size": "3"}, {"step_size": None}, {"goal_bias": "0.1"}, {"goal_tolerance": None},
        {"goal_tolerance": "1"},
    ])
    def test_invalid_params(self, kwargs):
        g = open_grid(4, 4)
        with pytest.raises(InvalidParams):
            grow_rrt_tree(g, GridPose(0, 0), GridPose(3, 3), RrtParams(**kwargs))

    def test_documented_rng_order(self):
        # the first iteration draws sample x, sample y, then the bias coin;
        # replaying that stream predicts the first grown node exactly
        g = open_grid(10, 10)
        params = RrtParams(seed=123, step_size=2.0, goal_bias=0.05)
        rng = random.Random(123)
        sx, sy = rng.uniform(0, 10), rng.uniform(0, 10)
        take_goal = rng.random() < params.goal_bias
        target = (7.5, 7.5) if take_goal else (sx, sy)
        near = (1.5, 1.5)
        d = math.dist(near, target)
        if d <= params.step_size:
            expected = target
        else:
            f = params.step_size / d
            expected = (near[0] + (target[0] - near[0]) * f,
                        near[1] + (target[1] - near[1]) * f)
        tree = grow_rrt_tree(g, GridPose(1, 1), GridPose(7, 7), params)
        assert tree.points[1] == expected

    def test_tree_edges_pass_supercover(self):
        g = random_map(15, 15, 0.25, seed=2)
        tree = grow_rrt_tree(g, GridPose(0, 0), GridPose(14, 14), RrtParams(seed=5))
        assert len(tree.points) == len(tree.parents)
        for i, parent in enumerate(tree.parents):
            if parent == -1:
                continue
            for c in supercover_cells(tree.points[parent], tree.points[i]):
                assert g.cell(c.x, c.y) is CellState.FREE

    @pytest.mark.parametrize("seed", range(8))
    def test_random_maps_valid_output(self, seed):
        g = random_map(15, 15, 0.2, seed=seed)
        p = rrt(g, GridPose(0, 0), GridPose(14, 14), RrtParams(seed=seed))
        if p is None:
            return
        assert p.waypoints[0] == GridPose(0, 0)
        assert p.waypoints[-1] == GridPose(14, 14)
        assert_four_adjacent(p.waypoints)
        assert_all_free(g, p.waypoints)


def linear_scan_tree(grid, start, goal, params):
    """grow_rrt_tree as it was with a scan of every node for the nearest one.

    Kept as the reference the bucketed search must reproduce byte for byte.
    """
    rng = random.Random(params.seed)
    goal_c = (goal[0] + 0.5, goal[1] + 0.5)
    tree = RrtTree(points=[(start[0] + 0.5, start[1] + 0.5)], parents=[-1], accepted=None)

    def free(x, y):
        return grid.in_bounds(x, y) and grid.cell(x, y) is CellState.FREE

    def edge_free(p0, p1):
        return all(free(c.x, c.y) for c in supercover_cells(p0, p1))

    if start == goal or (
        math.dist(tree.points[0], goal_c) <= params.goal_tolerance
        and edge_free(tree.points[0], goal_c)
    ):
        tree.accepted = 0
        return tree
    for _ in range(params.max_iterations):
        while True:
            sx = rng.uniform(0.0, grid.width)
            sy = rng.uniform(0.0, grid.height)
            if free(math.floor(sx), math.floor(sy)):
                break
        target = goal_c if rng.random() < params.goal_bias else (sx, sy)
        best_i, best_d = 0, math.inf
        for i, p in enumerate(tree.points):
            d = math.dist(p, target)
            if d < best_d:
                best_i, best_d = i, d
        near = tree.points[best_i]
        if best_d < 1e-9:
            continue
        if best_d <= params.step_size:
            new_p = target
        else:
            f = params.step_size / best_d
            new_p = (near[0] + (target[0] - near[0]) * f, near[1] + (target[1] - near[1]) * f)
        if not edge_free(near, new_p):
            continue
        tree.points.append(new_p)
        tree.parents.append(best_i)
        if math.dist(new_p, goal_c) <= params.goal_tolerance and edge_free(new_p, goal_c):
            tree.accepted = len(tree.points) - 1
            return tree
    return tree


EQUIVALENCE_MAPS = {
    "square": random_map(14, 14, 0.2, seed=7),
    "wide": random_map(23, 6, 0.15, seed=3),
    "column": open_grid(1, 17),
    "walled": grid_from_rows([
        "..........",
        "..........",
        "....#.....",
        "....#.....",
        "....#.....",
        "....#.....",
    ]),
}


def free_corners(grid):
    free = [GridPose(x, y) for y in range(grid.height) for x in range(grid.width)
            if grid.cell(x, y) is CellState.FREE]
    return free[0], free[-1]


# half-integers from -3 to 3: few enough that points, keys and distances coincide often
HALF_STEPS = st.integers(-6, 6).map(lambda k: k / 2)


class TestRrtNearestNode:
    @pytest.mark.parametrize("goal_bias", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("step_size", [0.5, 1.0, 3.0, 7.3, 40.0])
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_MAPS))
    def test_matches_linear_scan(self, name, step_size, goal_bias):
        grid = EQUIVALENCE_MAPS[name]
        start, goal = free_corners(grid)
        for seed in range(6):
            params = RrtParams(step_size=step_size, goal_bias=goal_bias,
                               max_iterations=400, seed=seed)
            got = grow_rrt_tree(grid, start, goal, params)
            want = linear_scan_tree(grid, start, goal, params)
            assert (got.points, got.parents, got.accepted) == (
                want.points, want.parents, want.accepted), seed

    def test_matches_linear_scan_on_large_trees(self):
        # the goal is walled off, so every iteration grows the tree
        grid = grid_from_rows([
            "..........",
            "..........",
            "........##",
            "........#.",
        ])
        for seed in range(3):
            params = RrtParams(step_size=1.3, max_iterations=1500, seed=seed)
            got = grow_rrt_tree(grid, GridPose(0, 0), GridPose(9, 3), params)
            want = linear_scan_tree(grid, GridPose(0, 0), GridPose(9, 3), params)
            assert got.accepted is None and len(got.points) > 500
            assert (got.points, got.parents) == (want.points, want.parents)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_tie_on_either_side_goes_to_lowest_index(self, axis):
        # node 0 lies one unit below the target's key, node 1 one unit above;
        # the filler lies far along both axes, past where the sweep stops
        def on(key, cross):
            return (key, cross) if axis == 0 else (cross, key)

        filler = [(30.0 + k, 30.0) for k in range(8)]
        index = _NodeSweep(axis, [on(2.0, 1.5), on(4.0, 1.5), *filler])
        assert index.nearest(on(3.0, 1.5)) == (0, 1.0)

    def test_tie_at_the_key_gap_bound_goes_to_lowest_index(self):
        # node 1 shares the target's key; node 0's key gap equals the best
        # distance, node 1's: the sweep must not stop before it
        filler = [(30.0 + k, 30.0) for k in range(8)]
        index = _NodeSweep(0, [(4.0, 1.0), (3.0, 0.0), *filler])
        assert index.nearest((3.0, 1.0)) == (0, 1.0)

    @pytest.mark.parametrize("batch", [0, 1])
    def test_matches_linear_scan_on_bundled_corridor_trees(self, batch):
        # the trees a suite run grows on corridor.map: 1.6k-1.8k nodes
        grid = load_map(bundled_path("corridor.map").read_text())
        params = RrtParams(seed=trial_seed(f"corridor-s1-b{batch}", "rrt", 0))
        got = grow_rrt_tree(grid, GridPose(2, 1), GridPose(21, 8), params)
        want = linear_scan_tree(grid, GridPose(2, 1), GridPose(21, 8), params)
        assert (got.points, got.parents, got.accepted) == (want.points, want.parents, want.accepted)
        assert len(got.points) > 1500
        index = _NodeSweep(0, got.points)  # corridor.map is wider than it is tall
        assert index.ids == sorted(range(len(got.points)), key=lambda i: (got.points[i][0], i))
        assert index.keys == sorted(p[0] for p in got.points)

    @pytest.mark.parametrize("target, other", [
        ((3.5, 1.5), (2.0, 1.5)), ((3.5, 0.5), (2.75, -0.5)),
    ], ids=["axis", "diagonal"])
    def test_tie_with_a_nearer_key_goes_to_lowest_index(self, target, other):
        # node 0, straight or diagonally behind the target, and node 1, straight
        # ahead of it, are equally near; the sweep starts at whichever key is
        # nearer the target's and must still prefer node 0
        d = math.dist(other, target)
        filler = [(30.0 + k, 30.0) for k in range(8)]
        index = _NodeSweep(0, [other, (target[0] + d, target[1]), *filler])
        assert index.nearest(target) == (0, d)

    def test_nearest_key_is_not_always_the_nearest_node(self):
        # node 0 has the key nearest the target's but lies 1.27 away; node 1,
        # 1.15 away, has a key 1.15 below the target's
        filler = [(30.0 + k, 30.0) for k in range(8)]
        index = _NodeSweep(0, [(0.95, 0.95), (-1.1, 0.05), *filler])
        assert index.nearest((0.05, 0.05)) == (1, math.dist((-1.1, 0.05), (0.05, 0.05)))

    def test_goal_biased_tie_goes_to_lowest_index(self):
        # scripted draws grow nodes 1 and 2 at equal distance from the
        # walled-off goal's centre (7.5, 7.5); the goal-biased draw that
        # follows must extend node 1, as a scan of every node would
        grid = grid_from_rows(["........"] * 6 + ["......##", "......#."])
        draws = [2.5 / 8, 0.5 / 8, 0.99, 0.5 / 8, 2.5 / 8, 0.99, 0.5 / 8, 0.5 / 8, 0.0]

        class ScriptedRandom(random.Random):
            def random(self):
                return draws.pop(0)

        params = RrtParams(step_size=3.0, goal_bias=0.5, max_iterations=3)
        with mock.patch.object(classical, "random", SimpleNamespace(Random=ScriptedRandom)):
            tree = grow_rrt_tree(grid, GridPose(0, 0), GridPose(7, 7), params)
        assert draws == []
        assert tree.points[1:3] == [(2.5, 0.5), (0.5, 2.5)]
        assert math.dist(tree.points[1], (7.5, 7.5)) == math.dist(tree.points[2], (7.5, 7.5))
        assert (tree.parents, tree.accepted) == ([-1, 0, 0, 1], None)

    def test_dense_tree_matches_a_scan(self):
        # a 6x7 room with the goal walled off: every iteration grows the tree,
        # which crowds the room
        grid = grid_from_rows(["......"] * 5 + ["....##", "....#."])
        params = RrtParams(step_size=3.0, max_iterations=1500, seed=4)
        got = grow_rrt_tree(grid, GridPose(0, 0), GridPose(5, 6), params)
        want = linear_scan_tree(grid, GridPose(0, 0), GridPose(5, 6), params)
        assert (got.points, got.parents, got.accepted) == (want.points, want.parents, want.accepted)
        assert len(got.points) > 1000
        rng = random.Random(0)
        for axis in (0, 1):
            index = _NodeSweep(axis, got.points)
            for _ in range(300):
                target = (rng.uniform(-2.0, 8.0), rng.uniform(-2.0, 9.0))
                ds = [math.dist(p, target) for p in got.points]
                assert index.nearest(target) == (ds.index(min(ds)), min(ds))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_coincident_nodes_go_to_lowest_index(self, axis):
        # 200 nodes 1e-12 apart along x: on axis 1 every key is equal
        points = [(5.0 + k * 1e-12, 5.0) for k in range(200)]
        index = _NodeSweep(axis, points)
        assert index.nearest((5.0, 5.0)) == (0, 0.0)
        assert index.nearest((9.0, 5.0))[0] == 199
        index = _NodeSweep(axis, [(1.0, 2.0)] * 5)
        assert index.nearest((1.0, 2.0)) == (0, 0.0)
        assert index.nearest((7.0, -3.0)) == (0, math.dist((1.0, 2.0), (7.0, -3.0)))

    def test_far_query_is_bounded_by_the_tree_size(self):
        # the target is far from every node of a crowded cluster, so the key
        # gap stops nothing: the sweep computes each node's distance once
        rng = random.Random(1)
        points = [(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)) for _ in range(500)]
        index = _NodeSweep(0, points)
        target = (400.0, 400.0)
        ds = [math.dist(p, target) for p in points]
        calls, dist = [], math.dist
        with mock.patch.object(math, "dist", lambda p, q: calls.append(p) or dist(p, q)):
            got = index.nearest(target)
        assert got == (ds.index(min(ds)), min(ds))
        assert 0 < len(calls) <= len(points)

    @given(
        points=st.lists(st.tuples(HALF_STEPS, HALF_STEPS), min_size=1, max_size=40),
        targets=st.lists(st.tuples(HALF_STEPS, HALF_STEPS), min_size=1, max_size=4),
        axis=st.sampled_from([0, 1]),
    )
    @settings(max_examples=300, deadline=None)
    def test_nearest_matches_a_scan_of_every_node(self, points, targets, axis):
        # half-integer coordinates on a small range: duplicate points, equal
        # keys and exact distance ties are common; nodes are added one by one
        # as a tree grows, with queries between additions
        tree = points[:1]
        index = _NodeSweep(axis, tree)
        for p in points[1:] + [None]:
            for t in targets:
                ds = [math.dist(q, t) for q in tree]
                assert index.nearest(t) == (ds.index(min(ds)), min(ds))
            if p is not None:
                tree.append(p)
                index.add(len(tree) - 1)

    def test_matches_linear_scan_on_a_tall_map(self):
        # width < height, so the nodes are sorted along y
        grid = random_map(6, 23, 0.15, seed=3)
        start, goal = free_corners(grid)
        walled = grid.with_occupied([GridPose(goal.x - 1, goal.y), GridPose(goal.x, goal.y - 1)])
        for g, iterations in ((grid, 400), (walled, 1500)):
            assert g.width < g.height
            for seed in range(3):
                params = RrtParams(step_size=1.3, max_iterations=iterations, seed=seed)
                got = grow_rrt_tree(g, start, goal, params)
                want = linear_scan_tree(g, start, goal, params)
                assert (got.points, got.parents, got.accepted) == (want.points, want.parents, want.accepted)
