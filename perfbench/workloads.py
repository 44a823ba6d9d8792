"""The three workloads: what each one's set-up builds from the seed.

Every workload runs the same chain per round (NL evaluation of its case set
under all three strategies, synthesis of accepted specs, table export and
load, closed loops from seeded winning starts) in different proportions.
Sizes below were chosen so that each end-to-end metric rests on about a
second of work or more per round on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gridsynth import bench, dynamics, pipeline, synthesis

import casegen
import checks
import drift


@dataclass
class Table:
    """A controller table that the round loads and runs closed loops on."""

    name: str
    spec: object  # canonical ProblemSpec
    text: str


@dataclass
class State:
    cases: list  # harness case set
    script: casegen.Script
    synth_ids: list  # cases whose accepted spec each round synthesizes
    passes_per_step: int  # harness passes after each table step (one more opens the round)
    loads: int  # timed loads per table per round
    loops: int  # closed loops per table per round
    fields: list  # vector fields in use (the traced run counts their evaluations)
    tables: list = field(default_factory=list)  # tables made in set-up


def _fixtures(ids=None):
    cases = bench.load_cases(bench.fixtures_dir())
    return [c for c in cases if ids is None or c.id in ids]


# fixture_suite: all three grid sizes (4x4: case01, case05; 5x5: case11; 6x6:
# case12), one and two stages (case12), clearance (case05, case11), and two
# specs (case01, case05) sharing one abstraction.
FIXTURE_SYNTH = [
    "case01_warehouse_crate",
    "case05_clearance_tank",
    "case11_clearance_corridor",
    "case12_figure_eight",
]


def fixture_suite(seed):
    cases = _fixtures()
    rng = np.random.default_rng(seed)
    return State(
        cases=cases,
        script=casegen.build_script(cases, rng, must_accept=FIXTURE_SYNTH),
        synth_ids=FIXTURE_SYNTH,
        passes_per_step=2,
        loads=4,
        loops=60,
        fields=[dynamics.BICYCLE],
    )


# fresh_fields: per slot the lattice (and so the work) is fixed; bounds,
# origin, eta, tau, input box and layout come from the seed.  tau = rho * eta
# with rho = 2: at full speed a step then moves further than the growth-bound
# box can spread, so pairs do not keep their own cell as a successor.
def _slot(shape, inputs, targets, **kw):
    base = dict(
        shape=shape,
        inputs=inputs,
        targets=targets,
        obstacles=(2, 5),
        eta=(0.2, 0.26),
        origin=(0.0, 4.0),
        vb=(0.8, 1.0),
        wb=(1.2, drift.OMEGA_MAX),
        rho=2.0,
    )
    base.update(kw)
    return base


FRESH_SYNTH_SLOTS = [
    _slot((24, 20, 24), (3, 2), 1),
    _slot((20, 24, 28), (2, 3), 2),
    _slot((28, 22, 20), (2, 2), 1, clearance_p=1.0),
]
FRESH_HARNESS_SLOT = _slot((16, 16, 16), (2, 2), 1, obstacles=(1, 4))
FRESH_HARNESS_CASES = 36


def fresh_fields(seed):
    dynamics.register_field(drift.FIELD)
    rng = np.random.default_rng(seed)
    slots = FRESH_SYNTH_SLOTS + [FRESH_HARNESS_SLOT] * FRESH_HARNESS_CASES
    cases = [
        casegen.generate_case(rng, f"fresh{k:03d}", drift.NAME, slot)
        for k, slot in enumerate(slots)
    ]
    synth_ids = [c.id for c in cases[: len(FRESH_SYNTH_SLOTS)]]
    cases += _fixtures(casegen.SKIP_CASES)
    return State(
        cases=cases,
        script=casegen.build_script(cases, rng, must_accept=synth_ids),
        synth_ids=synth_ids,
        passes_per_step=2,
        loads=4,
        loops=60,
        fields=[dynamics.BICYCLE, drift.FIELD],
    )


# replay: a large generated case set of small bicycle problems; the first
# two (one and two stages) are synthesized each round, case01's table is
# made in set-up.
REPLAY_SLOTS = [
    dict(
        shape=(16, 16, 24),
        inputs=(2, 2),
        targets=1 + k % 2,
        obstacles=(1, 4),
        eta=(0.24, 0.3),
        origin=(0.0, 2.0),
        vb=(0.8, 1.0),
        wb=(0.9, 1.0),
        rho=2.0,
        border=3,
    )
    for k in range(2)
]
REPLAY_CASES = 100
REPLAY_SYNTH = 2
REPLAY_TABLES = ["case01_warehouse_crate"]


def replay(seed):
    rng = np.random.default_rng(seed)
    cases = [
        casegen.generate_case(rng, f"gen{k:03d}", "bicycle", REPLAY_SLOTS[k % 2])
        for k in range(REPLAY_CASES)
    ]
    synth_ids = [c.id for c in cases[:REPLAY_SYNTH]]
    fixtures = _fixtures(set(casegen.SKIP_CASES) | set(REPLAY_TABLES))
    cases += [c for c in fixtures if c.id in casegen.SKIP_CASES]
    tables = []
    for case in fixtures:
        if case.id in REPLAY_TABLES:
            res = pipeline.synthesize(case.ground_truth)
            text = synthesis.export_controller(res.controller, res.grid)
            checks.check_fixed_point(res)
            loaded, grid = synthesis.load_controller(text)
            checks.check_round_trip(res.controller, loaded, grid, res.grid)
            tables.append(Table(case.id, case.ground_truth, text))
    return State(
        cases=cases,
        script=casegen.build_script(cases, rng, must_accept=synth_ids),
        synth_ids=synth_ids,
        passes_per_step=1,
        loads=12,
        loops=120,
        fields=[dynamics.BICYCLE],
        tables=tables,
    )


WORKLOADS = {"fixture_suite": fixture_suite, "fresh_fields": fresh_fields, "replay": replay}
