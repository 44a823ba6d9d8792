"""gridsynth: correct-by-construction reach-avoid controller synthesis.

Uniform-grid abstraction of continuous dynamics, worst-case reach-avoid game
solving, feedback concretization, an NL-to-spec agent pipeline with
deterministic mock clients, and a benchmark harness over shipped fixture
environments.
"""

from .abstraction import FiniteTransitionSystem, LabeledCells, label_cells
from .errors import GridSynthError
from .dynamics import BICYCLE, VectorField, bicycle_f, register_field
from .geometry import (
    CenterAndSides,
    FourVertices,
    HyperRect,
    TwoDiagonalVertices,
    UniformGrid,
    rect_from_encoding,
)
from .pipeline import SynthesisResult, synthesize
from .simulator import (
    check_reach_avoid,
    render_svg,
    simulate_closed_loop,
    winning_columns,
)
from .specformat import ProblemSpec, parse_spec, semantic_diff, serialize_spec
from .synthesis import ConcreteController, SymbolicController

__version__ = "0.1.0"
