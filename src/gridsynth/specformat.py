"""The formal problem-specification language.

A problem spec is a strict UTF-8 JSON document; it is the contract between
the agent layer (or a human) and the synthesis engine.  Parsing is
unforgiving on purpose: unknown keys are rejected so that malformed agent
output is refused rather than guessed at.

Top-level keys (all required):
    system, state_bounds, periodic, input_bounds, eta_x, eta_u, tau,
    obstacles, targets, initial, clearance

Rectangles are tagged unions:
    {"kind": "vertices4",    "vertices": [[x,y],[x,y],[x,y],[x,y]]}
    {"kind": "diagonal",     "points": [[...],[...]]}
    {"kind": "center_sides", "center": [...], "sides": [...]}

initial is {"point": [...]} or {"rect": <tagged rectangle>}.

Every number must be finite.  A ProblemSpec checks and resolves its geometry
when it is built, by parse_spec or by dataclasses.replace alike.
semantic_diff tells whether two specs describe the same task.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, OutOfBounds, SchemaError
from .geometry import (
    CenterAndSides,
    FourVertices,
    HyperRect,
    TwoDiagonalVertices,
    UniformGrid,
    rect_from_encoding,
    snap_eta_periodic,
)

TOP_KEYS = {
    "system",
    "state_bounds",
    "periodic",
    "input_bounds",
    "eta_x",
    "eta_u",
    "tau",
    "obstacles",
    "targets",
    "initial",
    "clearance",
}

RECT_KEYS = {
    "vertices4": {"kind", "vertices"},
    "diagonal": {"kind", "points"},
    "center_sides": {"kind", "center", "sides"},
}


@dataclass(frozen=True)
class ProblemSpec:
    """Reach-avoid problem description.

    obstacles/targets hold the original encodings as written.  Construction
    checks them and the initial set against the state bounds and the grid
    (GeometryError; an initial point must lie in a grid cell) and
    derives the *_rects fields: obstacles sorted, their copies inflated by
    the clearance (inf-norm Minkowski sum, clipped to bounds), targets in
    visit order.
    """

    system_name: str
    state_bounds: HyperRect
    periodic: tuple
    input_bounds: HyperRect
    eta_x: tuple
    eta_u: tuple
    tau: float
    obstacles: tuple  # RectEncoding
    targets: tuple  # RectEncoding, visit order
    initial_point: np.ndarray = None  # exactly one of point / rect is set
    initial_rect: HyperRect = None
    clearance: float = 0.0
    obstacle_rects: tuple = field(init=False)
    inflated_obstacle_rects: tuple = field(init=False)
    target_rects: tuple = field(init=False)

    def __post_init__(self):
        bounds = self.state_bounds
        obstacles = [
            _check_rect_in_bounds(rect_from_encoding(e), bounds, f"obstacle {i}")
            for i, e in enumerate(self.obstacles)
        ]
        targets = tuple(
            _check_rect_in_bounds(rect_from_encoding(e), bounds, f"target {i}")
            for i, e in enumerate(self.targets)
        )
        if self.initial_point is not None:
            d = len(self.initial_point)
            box = HyperRect(bounds.lower[:d], bounds.upper[:d])
            if not box.contains(self.initial_point, tol=1e-9):
                raise GeometryError("initial point outside state bounds")
        else:
            _check_rect_in_bounds(self.initial_rect, bounds, "initial set")
        if not self.clearance >= 0:
            raise GeometryError("clearance must be non-negative")
        # grid consistency (divisibility; periodic eta is snapped, not rejected)
        grid = self.build_grid()
        if self.initial_point is not None:
            # cells are half-open: no cell holds a point on a non-periodic
            # upper face (a periodic coordinate wraps)
            d = len(self.initial_point)
            try:
                grid.cell_of(np.concatenate([self.initial_point, bounds.lower[d:]]))
            except OutOfBounds as exc:
                raise GeometryError(f"initial point in no grid cell: {exc}") from None

        obstacles.sort(key=lambda r: (tuple(r.lower), tuple(r.upper)))
        c = self.clearance
        inflated = tuple(
            HyperRect(
                np.maximum(r.lower - c, bounds.lower[: r.dim]),
                np.minimum(r.upper + c, bounds.upper[: r.dim]),
            )
            for r in obstacles
        )
        object.__setattr__(self, "obstacle_rects", tuple(obstacles))
        object.__setattr__(self, "inflated_obstacle_rects", inflated)
        object.__setattr__(self, "target_rects", targets)

    def build_grid(self) -> UniformGrid:
        """State grid with eta snapped to an exact divisor on periodic dimensions."""
        eta = snap_eta_periodic(self.state_bounds, self.eta_x, self.periodic)
        return UniformGrid(self.state_bounds, eta, self.periodic)


def _expect(cond, message, path):
    if not cond:
        raise SchemaError(message, path)


def _finite_number(v):
    """False for bools, NaN, +-Infinity and ints beyond float range (json accepts them)."""
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


def _num_list(value, path, length=None):
    _expect(isinstance(value, list), "expected a list of numbers", path)
    _expect(all(map(_finite_number, value)), "expected finite numbers", path)
    if length is not None:
        _expect(len(value) == length, f"expected {length} entries", path)
    return [float(v) for v in value]


def _parse_bounds(obj, path):
    _expect(isinstance(obj, dict), "expected an object", path)
    _expect(set(obj) == {"lower", "upper"}, "keys must be exactly lower/upper", path)
    lo = _num_list(obj["lower"], path + ".lower")
    hi = _num_list(obj["upper"], path + ".upper", length=len(lo))
    try:
        return HyperRect(lo, hi)
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from None


def _parse_rect_encoding(obj, path):
    _expect(isinstance(obj, dict), "expected a tagged rectangle object", path)
    kind = obj.get("kind")
    _expect(kind in RECT_KEYS, f"unknown rectangle kind {kind!r}", path)
    _expect(
        set(obj) == RECT_KEYS[kind],
        f"keys for kind {kind!r} must be exactly {sorted(RECT_KEYS[kind])}",
        path,
    )
    if kind == "vertices4":
        vs = obj["vertices"]
        _expect(isinstance(vs, list) and len(vs) == 4, "need four vertices", path)
        return FourVertices(tuple(tuple(_num_list(v, path + ".vertices")) for v in vs))
    if kind == "diagonal":
        pts = obj["points"]
        _expect(isinstance(pts, list) and len(pts) == 2, "need two points", path)
        a = _num_list(pts[0], path + ".points[0]")
        b = _num_list(pts[1], path + ".points[1]", length=len(a))
        return TwoDiagonalVertices(tuple(a), tuple(b))
    center = _num_list(obj["center"], path + ".center")
    sides = _num_list(obj["sides"], path + ".sides", length=len(center))
    return CenterAndSides(tuple(center), tuple(sides))


def _check_rect_in_bounds(rect: HyperRect, bounds: HyperRect, what: str) -> HyperRect:
    if rect.dim > bounds.dim:
        raise GeometryError(f"{what}: dimension {rect.dim} exceeds state dimension")
    lo, hi = bounds.lower[: rect.dim], bounds.upper[: rect.dim]
    if (rect.lower < lo - 1e-9).any() or (rect.upper > hi + 1e-9).any():
        raise GeometryError(f"{what}: outside state bounds")
    return rect


def parse_spec(text: str) -> ProblemSpec:
    """Strict parse of a spec document. Raises SchemaError / GeometryError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "top level must be an object", "$")
    extra = set(doc) - TOP_KEYS
    missing = TOP_KEYS - set(doc)
    _expect(not extra, f"unknown keys {sorted(extra)}", "$")
    _expect(not missing, f"missing keys {sorted(missing)}", "$")

    _expect(isinstance(doc["system"], str) and doc["system"], "system must be a name", "$.system")
    state_bounds = _parse_bounds(doc["state_bounds"], "$.state_bounds")
    n = state_bounds.dim
    periodic = doc["periodic"]
    _expect(
        isinstance(periodic, list)
        and len(periodic) == n
        and all(isinstance(p, bool) for p in periodic),
        f"expected {n} booleans",
        "$.periodic",
    )
    input_bounds = _parse_bounds(doc["input_bounds"], "$.input_bounds")
    eta_x = _num_list(doc["eta_x"], "$.eta_x", length=n)
    _expect(all(v > 0 for v in eta_x), "eta_x must be positive", "$.eta_x")
    eta_u = _num_list(doc["eta_u"], "$.eta_u", length=input_bounds.dim)
    _expect(all(v > 0 for v in eta_u), "eta_u must be positive", "$.eta_u")
    tau = doc["tau"]
    _expect(
        _finite_number(tau) and tau > 0,
        "tau must be a positive finite number",
        "$.tau",
    )
    clearance = doc["clearance"]
    _expect(
        _finite_number(clearance) and clearance >= 0,
        "clearance must be a non-negative finite number",
        "$.clearance",
    )

    _expect(isinstance(doc["obstacles"], list), "expected a list", "$.obstacles")
    obstacles = tuple(
        _parse_rect_encoding(o, f"$.obstacles[{i}]")
        for i, o in enumerate(doc["obstacles"])
    )
    _expect(
        isinstance(doc["targets"], list) and len(doc["targets"]) >= 1,
        "at least one target required",
        "$.targets",
    )
    targets = tuple(
        _parse_rect_encoding(t, f"$.targets[{i}]") for i, t in enumerate(doc["targets"])
    )

    initial = doc["initial"]
    _expect(isinstance(initial, dict), "expected an object", "$.initial")
    _expect(
        set(initial) in ({"point"}, {"rect"}),
        "initial must carry exactly one of point/rect",
        "$.initial",
    )
    initial_point = None
    initial_rect = None
    if "point" in initial:
        pt = _num_list(initial["point"], "$.initial.point")
        _expect(len(pt) in (2, n), f"point must have 2 or {n} coordinates", "$.initial.point")
        initial_point = np.array(pt)
    else:
        initial_rect = rect_from_encoding(
            _parse_rect_encoding(initial["rect"], "$.initial.rect")
        )

    return ProblemSpec(
        system_name=doc["system"],
        state_bounds=state_bounds,
        periodic=tuple(periodic),
        input_bounds=input_bounds,
        eta_x=tuple(eta_x),
        eta_u=tuple(eta_u),
        tau=float(tau),
        obstacles=obstacles,
        targets=targets,
        initial_point=initial_point,
        initial_rect=initial_rect,
        clearance=float(clearance),
    )


def canonicalize(spec: ProblemSpec) -> ProblemSpec:
    """Return spec unchanged: every ProblemSpec is resolved when it is built.

    Kept only because the benchmark in perfbench/ still imports it.
    """
    return spec


# --- serialization ----------------------------------------------------------------


def _encoding_to_json(enc):
    if isinstance(enc, FourVertices):
        return {"kind": "vertices4", "vertices": [list(v) for v in enc.vertices]}
    if isinstance(enc, TwoDiagonalVertices):
        return {"kind": "diagonal", "points": [list(enc.a), list(enc.b)]}
    return {"kind": "center_sides", "center": list(enc.center), "sides": list(enc.sides)}


def serialize_spec(spec: ProblemSpec) -> str:
    doc = {
        "system": spec.system_name,
        "state_bounds": {
            "lower": list(spec.state_bounds.lower),
            "upper": list(spec.state_bounds.upper),
        },
        "periodic": list(spec.periodic),
        "input_bounds": {
            "lower": list(spec.input_bounds.lower),
            "upper": list(spec.input_bounds.upper),
        },
        "eta_x": list(spec.eta_x),
        "eta_u": list(spec.eta_u),
        "tau": spec.tau,
        "obstacles": [_encoding_to_json(e) for e in spec.obstacles],
        "targets": [_encoding_to_json(e) for e in spec.targets],
        "initial": (
            {"point": list(spec.initial_point)}
            if spec.initial_point is not None
            else {
                "rect": {
                    "kind": "diagonal",
                    "points": [
                        list(spec.initial_rect.lower),
                        list(spec.initial_rect.upper),
                    ],
                }
            }
        ),
        "clearance": spec.clearance,
    }
    return json.dumps(doc, indent=2)


# --- semantic equivalence ---------------------------------------------------------

# largest coordinate or clearance difference that semantic_diff ignores
DIFF_TOL = 1e-6


def _initial_box(spec: ProblemSpec) -> HyperRect:
    p = spec.initial_point
    return spec.initial_rect if p is None else HyperRect(p, p)


def _pair_up(ro, co) -> bool:
    """True when ro and co pair one to one with every pair approx_equal.

    A bipartite matching by augmenting paths.  Boxes of different dimension
    never pair.
    """
    if len(ro) != len(co):
        return False
    near = [[j for j, c in enumerate(co) if r.approx_equal(c, DIFF_TOL)] for r in ro]
    owner = [None] * len(co)  # the obstacle of ro that each one of co is paired with

    def augment(i, seen):
        for j in near[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] is None or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(ro)))


def semantic_diff(reference: ProblemSpec, candidate: ProblemSpec) -> bool:
    """True when the two specs describe the same task, to within DIFF_TOL.

    That is: equal state and input bounds, clearances and initial sets (a
    point is a degenerate box); the same targets in the same visit order;
    and obstacles that pair one to one, each pair equal.  Specs of different
    state dimension are never equivalent.
    """
    rt, ct = reference.target_rects, candidate.target_rects
    return bool(
        reference.state_bounds.approx_equal(candidate.state_bounds, DIFF_TOL)
        and reference.input_bounds.approx_equal(candidate.input_bounds, DIFF_TOL)
        and abs(reference.clearance - candidate.clearance) <= DIFF_TOL
        and _initial_box(reference).approx_equal(_initial_box(candidate), DIFF_TOL)
        and len(rt) == len(ct)
        and all(r.approx_equal(c, DIFF_TOL) for r, c in zip(rt, ct))
        and _pair_up(reference.obstacle_rects, candidate.obstacle_rects)
    )
