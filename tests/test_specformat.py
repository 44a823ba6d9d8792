import copy
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import gridsynth as gs
from gridsynth.errors import GeometryError, SchemaError
from gridsynth.specformat import (
    _min_cost_assignment,
    canonicalize,
    parse_spec,
    semantic_diff,
    serialize_spec,
)

from conftest import bicycle_spec_doc


def doc():
    return bicycle_spec_doc()


def parse_doc(d):
    return parse_spec(json.dumps(d))


class TestParse:
    def test_fixture_parses(self):
        spec = parse_doc(doc())
        assert spec.system_name == "bicycle"
        assert spec.tau == 0.3
        assert spec.periodic == (False, False, True)
        assert len(spec.obstacle_rects) == 1
        assert len(spec.target_rects) == 1

    def test_unknown_top_key_rejected(self):
        d = doc()
        d["frobnicate"] = 1
        with pytest.raises(SchemaError, match="frobnicate"):
            parse_doc(d)

    def test_missing_key_rejected(self):
        d = doc()
        del d["tau"]
        with pytest.raises(SchemaError, match="tau"):
            parse_doc(d)

    def test_unknown_rect_key_rejected(self):
        d = doc()
        d["obstacles"][0]["color"] = "red"
        with pytest.raises(SchemaError, match=r"kind"):
            parse_doc(d)

    def test_schema_error_carries_path(self):
        d = doc()
        d["eta_x"] = [0.2, 0.2]
        with pytest.raises(SchemaError) as exc:
            parse_doc(d)
        assert "$" in str(exc.value)

    def test_bad_json_rejected(self):
        with pytest.raises(SchemaError):
            parse_spec("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            parse_spec("[1, 2, 3]")

    def test_negative_tau_rejected(self):
        d = doc()
        d["tau"] = -0.3
        with pytest.raises(SchemaError):
            parse_doc(d)

    @pytest.mark.parametrize("field, value, path", [
        (("input_bounds", "upper", 0), math.inf, "$.input_bounds.upper"),
        (("obstacles", 0, "points", 0, 1), math.nan, "$.obstacles[0].points[0]"),
        (("tau",), math.inf, "$.tau"),
        (("clearance",), math.inf, "$.clearance"),
        (("tau",), 10**400, "$.tau"),  # an int literal beyond float range
    ], ids=["input-inf", "obstacle-nan", "tau-inf", "clearance-inf", "tau-huge-int"])
    def test_non_finite_number_rejected(self, field, value, path):
        d = doc()
        *parents, last = field
        node = d
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(SchemaError) as exc:
            parse_spec(json.dumps(d))  # json writes NaN / Infinity literals
        assert exc.value.path == path

    def test_obstacle_outside_bounds_rejected(self):
        d = doc()
        d["obstacles"] = [
            {"kind": "diagonal", "points": [[3.0, 3.0], [5.0, 5.0]]}
        ]
        with pytest.raises(gs.GridSynthError):
            parse_doc(d)

    def test_encoding_equivalence(self):
        base = doc()

        v4 = copy.deepcopy(base)
        v4["obstacles"] = [{
            "kind": "vertices4",
            "vertices": [[1.6, 1.6], [2.4, 1.6], [2.4, 2.4], [1.6, 2.4]],
        }]
        cs = copy.deepcopy(base)
        cs["obstacles"] = [{
            "kind": "center_sides", "center": [2.0, 2.0], "sides": [0.8, 0.8],
        }]
        specs = [parse_doc(d) for d in (base, v4, cs)]
        for s in specs[1:]:
            a, b = specs[0].obstacle_rects[0], s.obstacle_rects[0]
            assert np.allclose(a.lower, b.lower) and np.allclose(a.upper, b.upper)

    def test_initial_rect_variant(self):
        d = doc()
        d["initial"] = {
            "rect": {"kind": "diagonal", "points": [[0.3, 0.3], [0.7, 0.7]]},
        }
        spec = parse_doc(d)
        assert spec.initial_point is None
        assert spec.initial_rect is not None

    @pytest.mark.parametrize("point", [
        [4.0, 0.5, 0.0],  # the closed upper face of a non-periodic dimension
        [0.5, 4.0],
        [-1e-10, 0.5, 0.0],  # inside the old 1e-9 tolerance
    ], ids=["upper-face", "2d-upper-face", "below-lower"])
    def test_initial_point_in_no_cell_rejected(self, point):
        d = doc()
        d["initial"] = {"point": point}
        with pytest.raises(GeometryError, match="initial point"):
            parse_doc(d)

    def test_initial_point_on_periodic_upper_face_wraps(self):
        d = doc()
        d["initial"] = {"point": [0.5, 0.5, math.pi]}
        spec = parse_doc(d)
        grid = spec.build_grid()
        cells = gs.label_cells(grid, spec).initial_cells
        assert cells == {grid.cell_of([0.5, 0.5, -math.pi]).flat_id}


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        spec = parse_doc(doc())
        again = parse_spec(serialize_spec(spec))
        assert semantic_diff(spec, again).ok

    def test_random_round_trips(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = doc()
            lo = rng.uniform(0.2, 1.5, size=2)
            hi = lo + rng.uniform(0.4, 1.2, size=2)
            d["obstacles"] = [{
                "kind": "diagonal",
                "points": [lo.tolist(), hi.tolist()],
            }]
            d["clearance"] = float(rng.uniform(0, 0.3))
            d["initial"] = {"point": [float(rng.uniform(0.1, 0.9)),
                                      float(rng.uniform(0.1, 0.9)), 0.0]}
            spec = parse_doc(d)
            again = parse_spec(serialize_spec(spec))
            assert semantic_diff(spec, again).ok

    def test_serialized_is_valid_strict_json(self):
        text = serialize_spec(parse_doc(doc()))
        obj = json.loads(text)
        assert set(obj.keys()) == {
            "system", "state_bounds", "periodic", "input_bounds", "eta_x",
            "eta_u", "tau", "obstacles", "targets", "initial", "clearance",
        }


class TestCanonicalize:
    def test_idempotent(self):
        spec = parse_doc(doc())
        assert canonicalize(spec) is spec

    def test_replace_recomputes_rects(self):
        spec = parse_doc(dict(doc(), clearance=0.5))
        moved = dataclasses.replace(spec, obstacles=(
            gs.TwoDiagonalVertices((3.0, 0.4), (3.4, 0.8)),
            gs.CenterAndSides((1.0, 2.0), (0.4, 0.4)),
        ))

        def corners(rects):
            return [np.concatenate([r.lower, r.upper]) for r in rects]

        # sorted by lower corner; the inflation is clipped at y = 0
        assert np.allclose(corners(moved.obstacle_rects),
                           [[0.8, 1.8, 1.2, 2.2], [3.0, 0.4, 3.4, 0.8]])
        assert np.allclose(corners(moved.inflated_obstacle_rects),
                           [[0.3, 1.3, 1.7, 2.7], [2.5, 0.0, 3.9, 1.3]])
        assert moved.target_rects[0].approx_equal(spec.target_rects[0])

    def test_replace_outside_bounds_raises(self):
        spec = parse_doc(doc())
        with pytest.raises(GeometryError, match="obstacle 0: outside state bounds"):
            dataclasses.replace(
                spec, obstacles=(gs.TwoDiagonalVertices((3.5, 3.5), (4.5, 4.5)),)
            )

    def test_obstacles_sorted(self):
        d = doc()
        d["obstacles"] = [
            {"kind": "diagonal", "points": [[3.0, 3.0], [3.4, 3.4]]},
            {"kind": "diagonal", "points": [[0.5, 0.5], [0.9, 0.9]]},
        ]
        d["targets"] = [
            {"kind": "diagonal", "points": [[1.6, 1.6], [2.4, 2.4]]}
        ]
        spec = parse_doc(d)
        lowers = [tuple(r.lower) for r in spec.obstacle_rects]
        assert lowers == sorted(lowers)

    def test_clearance_inflation(self):
        # obstacle [1.5,2.5]^2 with clearance 0.5 inflates to [1,3]^2
        d = doc()
        d["obstacles"] = [
            {"kind": "diagonal", "points": [[1.5, 1.5], [2.5, 2.5]]}
        ]
        d["clearance"] = 0.5
        spec = parse_doc(d)
        infl = spec.inflated_obstacle_rects[0]
        assert np.allclose(infl.lower, [1.0, 1.0])
        assert np.allclose(infl.upper, [3.0, 3.0])

    def test_inflation_clipped_to_position_box(self):
        d = doc()
        d["obstacles"] = [
            {"kind": "diagonal", "points": [[0.0, 0.0], [0.4, 0.4]]}
        ]
        d["targets"] = [
            {"kind": "diagonal", "points": [[3.0, 3.0], [3.8, 3.8]]}
        ]
        d["clearance"] = 0.5
        spec = parse_doc(d)
        infl = spec.inflated_obstacle_rects[0]
        assert np.allclose(infl.lower, [0.0, 0.0])

    def test_grid_snaps_periodic_eta(self):
        spec = parse_doc(doc())
        grid = spec.build_grid()
        # 2*pi is not divisible by 0.2; the heading step snaps to 2*pi/31
        assert grid.shape[2] == 31
        assert grid.eta[2] == pytest.approx(2 * math.pi / 31)
        assert grid.eta[0] == 0.2 and grid.eta[1] == 0.2


class TestSemanticDiff:
    def ref(self):
        return parse_doc(doc())

    def diff_with(self, mutate):
        d = doc()
        mutate(d)
        return semantic_diff(self.ref(), parse_doc(d))

    def cats(self, report):
        return [e.category for e in report.entries]

    def test_equal_specs_ok(self):
        assert semantic_diff(self.ref(), self.ref()).ok

    def test_wrong_bounds(self):
        def m(d):
            d["state_bounds"] = {"lower": [0.0, 0.0, -math.pi],
                                 "upper": [5.0, 4.0, math.pi]}
        assert "wrong_bounds" in self.cats(self.diff_with(m))

    def test_wrong_clearance(self):
        def m(d):
            d["clearance"] = 0.25
        assert self.cats(self.diff_with(m)) == ["wrong_clearance"]

    def test_wrong_initial(self):
        def m(d):
            d["initial"] = {"point": [1.5, 0.5, 0.0]}
        assert self.cats(self.diff_with(m)) == ["wrong_initial"]

    def test_wrong_target_geometry(self):
        def m(d):
            d["targets"] = [
                {"kind": "diagonal", "points": [[2.6, 2.6], [3.4, 3.4]]}
            ]
        assert self.cats(self.diff_with(m)) == ["wrong_target"]

    def test_wrong_target_count(self):
        def m(d):
            d["targets"].append(
                {"kind": "diagonal", "points": [[0.2, 3.0], [0.8, 3.8]]}
            )
        assert self.cats(self.diff_with(m)) == ["wrong_target"]

    def test_wrong_target_order(self):
        a = doc()
        a["targets"] = [
            {"kind": "diagonal", "points": [[3.0, 3.0], [3.8, 3.8]]},
            {"kind": "diagonal", "points": [[0.2, 3.0], [0.8, 3.8]]},
        ]
        b = copy.deepcopy(a)
        b["targets"] = list(reversed(b["targets"]))
        report = semantic_diff(
            parse_doc(a), parse_doc(b)
        )
        assert self.cats(report) == ["wrong_target_order"]

    def test_shifted_obstacle_is_geometry_mismatch(self):
        def m(d):
            d["obstacles"] = [
                {"kind": "diagonal", "points": [[2.1, 1.6], [2.9, 2.4]]}
            ]
        assert "geometry_mismatch" in self.cats(self.diff_with(m))

    def test_missing_obstacle(self):
        def m(d):
            d["obstacles"] = []
        assert self.cats(self.diff_with(m)) == ["missing_obstacle"]

    def test_extra_obstacle(self):
        def m(d):
            d["obstacles"].append(
                {"kind": "diagonal", "points": [[0.4, 3.0], [0.8, 3.4]]}
            )
        assert self.cats(self.diff_with(m)) == ["extra_obstacle"]

    def test_dimension_mismatch_raises(self):
        d = doc()
        other = {
            "system": "bicycle",
            "state_bounds": {"lower": [0.0, 0.0], "upper": [4.0, 4.0]},
            "periodic": [False, False],
            "input_bounds": {"lower": [-1.0], "upper": [1.0]},
            "eta_x": [0.2, 0.2],
            "eta_u": [0.3],
            "tau": 0.3,
            "obstacles": [],
            "targets": [
                {"kind": "diagonal", "points": [[3.0, 3.0], [3.8, 3.8]]}
            ],
            "initial": {"point": [0.5, 0.5]},
            "clearance": 0.0,
        }
        with pytest.raises(gs.GridSynthError):
            semantic_diff(
                parse_doc(d),
                parse_spec(json.dumps(other)),
            )

    def test_report_text_lists_categories(self):
        def m(d):
            d["clearance"] = 0.25
        report = self.diff_with(m)
        assert "[wrong_clearance]" in report.text()
        assert semantic_diff(self.ref(), self.ref()).text() == \
            "specs are semantically equivalent"

    def test_tolerance_absorbs_tiny_perturbation(self):
        def m(d):
            d["clearance"] = 1e-9
        assert self.diff_with(m).ok

    def test_random_perturbations_detected(self):
        rng = np.random.default_rng(63)
        for _ in range(50):
            d = doc()
            axis = int(rng.integers(0, 2))
            shift = float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.5))
            verts = d["obstacles"][0]["points"]
            for v in verts:
                v[axis] += shift
            report = semantic_diff(self.ref(), parse_doc(d))
            assert not report.ok
            assert "geometry_mismatch" in self.cats(report)


def brute_force_min_cost(cost):
    """Least total cost over every assignment of min(r, c) pairs."""
    r, c = len(cost), len(cost[0])
    if r <= c:
        return min(
            math.fsum(cost[i][p[i]] for i in range(r))
            for p in itertools.permutations(range(c), r)
        )
    return min(
        math.fsum(cost[p[j]][j] for j in range(c))
        for p in itertools.permutations(range(r), c)
    )


class TestMinCostAssignment:
    def matrices(self):
        """Tie-heavy integers, integers with 1e18 sentinels, and eighths,
        for every shape from 1 x 1 to 6 x 6."""
        rng = np.random.default_rng(31)
        for r, c in itertools.product(range(1, 7), repeat=2):
            for _ in range(3):
                yield rng.integers(0, 3, (r, c)).astype(float).tolist()
                m = rng.integers(0, 10, (r, c)).astype(float)
                m[rng.random((r, c)) < 0.4] = 1e18
                yield m.tolist()
                yield (rng.integers(0, 40, (r, c)) / 8.0).tolist()

    def test_minimum_cost_equals_brute_force(self):
        for cost in self.matrices():
            pairs = _min_cost_assignment(cost)
            rows = [i for i, _ in pairs]
            cols = [j for _, j in pairs]
            assert len(pairs) == min(len(cost), len(cost[0]))
            assert rows == sorted(set(rows)) and len(set(cols)) == len(cols)
            total = math.fsum(cost[i][j] for i, j in pairs)
            assert total == brute_force_min_cost(cost), cost

    def test_same_input_gives_same_pairs(self):
        for cost in self.matrices():
            assert _min_cost_assignment(copy.deepcopy(cost)) == _min_cost_assignment(cost)

    def test_tie_rule_takes_lowest_column(self):
        assert _min_cost_assignment([[1.0, 1.0, 1.0]]) == [(0, 0)]
        assert _min_cost_assignment([[0.0, 0.0], [0.0, 0.0]]) == [(0, 0), (1, 1)]
        assert _min_cost_assignment([[2.0], [1.0], [1.0]]) == [(1, 0)]
