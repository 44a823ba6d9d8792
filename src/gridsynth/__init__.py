"""gridsynth: correct-by-construction reach-avoid controller synthesis.

Uniform-grid abstraction of continuous dynamics, worst-case reach-avoid game
solving, feedback concretization, an NL-to-spec agent pipeline with
deterministic mock clients, and a benchmark harness over shipped fixture
environments.
"""

from .abstraction import (
    FiniteTransitionSystem,
    LabeledCells,
    build_abstraction,
    build_input_grid,
    label_cells,
)
from .agents import (
    AcceptedSpec,
    AgentTranscript,
    BlockedWithFeedback,
    CheckerVerdict,
    HttpClient,
    MockClient,
    ParseFailure,
    build_code_prompt,
    checker_agent_validate,
    code_agent_generate,
    pipeline_run,
)
from .errors import (
    ClientError,
    GridSynthError,
    OutOfBounds,
    OutsideWinningSet,
    SchemaError,
)
from .dynamics import (
    BICYCLE,
    VectorField,
    bicycle_f,
    get_field,
    register_field,
)
from .geometry import (
    CellIndex,
    CenterAndSides,
    FourVertices,
    HyperRect,
    TwoDiagonalVertices,
    UniformGrid,
    rect_from_encoding,
)
from .pipeline import SynthesisResult, synthesize
from .simulator import (
    Trajectory,
    check_reach_avoid,
    render_svg,
    simulate_closed_loop,
    trajectory_to_csv,
    winning_columns,
)
from .specformat import (
    MismatchReport,
    ProblemSpec,
    parse_spec,
    semantic_diff,
    serialize_spec,
)
from .synthesis import (
    ConcreteController,
    SymbolicController,
    export_controller,
    load_controller,
    solve_sequential,
)

__version__ = "0.1.0"
