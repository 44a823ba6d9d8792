"""Spans and counters for the traced run.

Every span is taken in this benchmark's code, around a call into one of the
program's public functions: the names the program looks up at call time
(pipeline.build_abstraction, bench.categorize, a registered vector field, ...)
are swapped for timing wrappers while the traced run lasts.  Nothing inside the
program is edited.  Coarse spans are kept in memory with their parent and
written out when the run ends; per-call layers (the vector field, cell_of) are
only summed.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from gridsynth import abstraction, agents, bench, dynamics, geometry, pipeline
from gridsynth.dynamics import VectorField

MB = 1e6


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.time = defaultdict(float)  # span name -> seconds
        self.count = defaultdict(int)
        self.peak = defaultdict(float)  # MB
        self.spans = []  # [name, start, end, parent index]
        self._open = []
        self._undo = []
        self.reverse_arrays = None  # the unwrapped FiniteTransitionSystem.reverse

    @contextmanager
    def span(self, name, keep=True):
        start = time.perf_counter()
        idx = None
        if keep:
            idx = len(self.spans)
            self.spans.append([name, start - self.t0, None, self._open[-1] if self._open else None])
            self._open.append(idx)
        try:
            yield
        finally:
            end = time.perf_counter()
            self.time[name] += end - start
            self.count[name + ".calls"] += 1
            if keep:
                self._open.pop()
                self.spans[idx][2] = end - self.t0

    def wrap(self, owner, attr, name, keep=True, peak=False, after=None):
        orig = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            if peak and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            with self.span(name, keep):
                out = orig(*args, **kwargs)
            if peak and tracemalloc.is_tracing():
                self.note_peak(name + "_peak_mb", tracemalloc.get_traced_memory()[1])
            if after is not None:
                after(out)
            return out

        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, orig))
        return orig

    def note_peak(self, key, nbytes):
        self.peak[key] = max(self.peak[key], nbytes / MB)

    def restore(self):
        while self._undo:
            self._undo.pop()()


def instrument(tracer: Tracer, fields) -> None:
    """Install the timing wrappers; tracer.restore() removes them."""
    for vf in fields:
        dynamics.register_field(
            VectorField(vf.name, vf.dim_state, vf.dim_input, _counted(tracer, vf.eval_fn), vf.growth_matrix)
        )
        tracer._undo.append(lambda vf=vf: dynamics.register_field(vf))

    def built(fts):
        tracer.count["abstraction.pairs"] += fts.num_states * fts.num_inputs
        tracer.count["abstraction.transitions"] += fts.num_transitions
        tracer.count["abstraction.blocked_pairs"] += int(np.count_nonzero(fts.blocked))

    def solved(ctrl):
        for pol in ctrl.stages:
            won = pol.winning
            tracer.count["synthesis.winning_cells"] += int(won.sum())
            tracer.count["synthesis.levels"] += int(pol.value[won].max()) if won.any() else 0

    tracer.wrap(pipeline, "build_abstraction", "abstraction.build", peak=True, after=built)
    tracer.wrap(pipeline, "label_cells", "abstraction.label")
    tracer.wrap(pipeline, "solve_sequential", "synthesis.solve", peak=True, after=solved)
    tracer.reverse_arrays = tracer.wrap(
        abstraction.FiniteTransitionSystem, "reverse", "abstraction.reverse"
    )
    tracer.wrap(geometry.UniformGrid, "cell_of", "geometry.cell_of", keep=False)
    for name in ("pipeline_run", "code_agent_generate", "build_direct_prompt"):
        tracer.wrap(bench, name, "agents.run")
    tracer.wrap(agents, "parse_spec", "specformat.parse")
    tracer.wrap(bench, "semantic_diff", "specformat.diff")
    tracer.wrap(bench, "categorize", "bench.categorize")


def _counted(tracer, fn):
    def counted(x, u):
        start = time.perf_counter()
        out = fn(x, u)
        tracer.time["dynamics.rhs"] += time.perf_counter() - start
        tracer.count["dynamics.rhs_evals"] += x.shape[0] if x.ndim > 1 else 1
        return out

    return counted


def index_bytes(tracer, fts) -> int:
    """Bytes of the CSR relation and its reverse (built by the solver already)."""
    rev_indptr, rev_pairs = tracer.reverse_arrays(fts)
    return fts.indptr.nbytes + fts.succ.nbytes + rev_indptr.nbytes + rev_pairs.nbytes


# name -> (unit, how the value is read off the tracer, per round)
PER_LAYER = {
    "dynamics.rhs_evals": ("count", "count", "dynamics.rhs_evals"),
    "dynamics.rhs_s": ("s", "time", "dynamics.rhs"),
    "abstraction.build_s": ("s", "time", "abstraction.build"),
    "abstraction.build_calls": ("count", "count", "abstraction.build.calls"),
    "abstraction.pairs": ("count", "count", "abstraction.pairs"),
    "abstraction.transitions": ("count", "count", "abstraction.transitions"),
    "abstraction.blocked_pairs": ("count", "count", "abstraction.blocked_pairs"),
    "abstraction.reverse_s": ("s", "time", "abstraction.reverse"),
    "abstraction.label_s": ("s", "time", "abstraction.label"),
    "abstraction.index_mb": ("MB", "peak", "abstraction.index_mb"),
    "abstraction.build_peak_mb": ("MB", "peak", "abstraction.build_peak_mb"),
    "synthesis.solve_s": ("s", "time", "synthesis.solve"),
    "synthesis.levels": ("count", "count", "synthesis.levels"),
    "synthesis.winning_cells": ("count", "count", "synthesis.winning_cells"),
    "synthesis.solve_peak_mb": ("MB", "peak", "synthesis.solve_peak_mb"),
    "synthesis.export_s": ("s", "time", "synthesis.export"),
    "synthesis.table_mb": ("MB", "count", "synthesis.table_bytes"),
    "synthesis.load_s": ("s", "time", "synthesis.load"),
    "simulator.sim_s": ("s", "time", "simulator.sim"),
    "simulator.steps": ("count", "count", "simulator.steps"),
    "simulator.check_s": ("s", "time", "simulator.check"),
    "simulator.checked_samples": ("count", "count", "simulator.checked_samples"),
    "geometry.cell_of_calls": ("count", "count", "geometry.cell_of.calls"),
    "geometry.cell_of_s": ("s", "time", "geometry.cell_of"),
    "agents.run_s": ("s", "time", "agents.run"),
    "agents.llm_calls": ("count", "count", "agents.llm_calls"),
    "agents.iterations": ("count", "count", "agents.iterations"),
    "agents.accepted": ("count", "count", "agents.accepted"),
    "specformat.parse_s": ("s", "time", "specformat.parse"),
    "specformat.diff_s": ("s", "time", "specformat.diff"),
    "specformat.specs_parsed": ("count", "count", "specformat.parse.calls"),
    "bench.categorize_s": ("s", "time", "bench.categorize"),
    "bench.paraphrases": ("count", "count", "bench.paraphrases"),
}


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict:
    out = {}
    for name, (unit, kind, key) in PER_LAYER.items():
        if kind == "peak":
            value = tracer.peak[key]
        else:
            value = getattr(tracer, kind)[key] / rounds
            if name == "synthesis.table_mb":
                value /= MB
            elif kind == "count":
                value = int(round(value))
        out[name] = {"value": value, "unit": unit}
    return out
