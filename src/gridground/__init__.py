"""Grid-world path planning with language-model action grounding.

The package couples classical planners (A*, RRT) with a step-wise planner
that asks a task scorer (mock, oracle, or a remote chat endpoint) to rate
candidate moves, then filters them through spatial affordances. A small
simulator executes plans on maps with dynamic obstacles, and a benchmark
harness compares planners on scenario suites.
"""

from .bench import (
    AggregateReport,
    TrialResult,
    aggregate,
    format_report,
    make_planner,
    plot_trajectories,
    register_planner,
    rows_to_csv,
    run_suite,
    run_suite_file,
    run_trial,
    trial_seed,
)
from .classical import (
    PlannedPath,
    RrtParams,
    astar,
    chain_cells,
    dijkstra_oracle,
    distance_field,
    grow_rrt_tree,
    path_length,
    rrt,
    supercover_cells,
)
from .errors import (
    AuthMissing,
    ConfigError,
    EmptyPath,
    EmptyPathList,
    GridGroundError,
    InvalidDensity,
    InvalidEndpoint,
    InvalidParams,
    InvalidScenario,
    MalformedHeader,
    MalformedReply,
    MapFormatError,
    OutOfBounds,
    OverlappingMarkers,
    RaggedRows,
    RetriesExhausted,
    ScorerFailure,
    ScorerTimeout,
    UnknownCharacter,
    UnknownPlanner,
)
from .gridmap import (
    CellState,
    Connectivity,
    GridPose,
    OccupancyGrid,
    load_map,
    neighbors,
    random_map,
    serialize_map,
)
from .grounded import (
    ACTIONS,
    Action,
    ActionId,
    FailureReason,
    Instruction,
    PlannerConfig,
    PlanResult,
    ScoredAction,
    StepRecord,
    affordance,
    plan,
    score_candidates,
    select_action,
    trace_to_jsonl,
)
from .scorers import (
    Cassette,
    ChatEndpointConfig,
    MockScorer,
    OracleScorer,
    RemoteScorer,
    TaskScorerQuery,
    mock_score,
    request_fingerprint,
)
from .simulator import (
    DynamicObstacle,
    ExecutionRecord,
    PathValidation,
    Scenario,
    execute,
    load_scenario,
    parse_scenario,
    validate_external_path,
)
from .translator import (
    GRAMMAR_VERSION,
    StepPrompt,
    format_action_scores,
    format_coordinate_list,
    parse_action_scores,
    parse_coordinate_list,
    serialize_fullpath_prompt,
    serialize_step_prompt,
)

__version__ = "0.1.0"
