"""Span tracing from the benchmark's side of the library boundary.

The tracer replaces each public layer function of ``rootatlas`` with a
wrapper at every module attribute that refers to it, so a call is seen
whichever module it is looked up through (``weyl_orbit`` is called via
``repring``, ``cokernel`` via ``grading`` and ``lattice``).  Nothing under
``src/`` changes.  Spans are folded into per-function totals as they close:
self time is a span's duration minus the time covered by its direct child
spans.  Exact work counts are taken at the same boundaries.  Spans are
timed on ``speedref.work_clock`` and self times reported at the reference
speed, like the end-to-end times.
"""

from __future__ import annotations

import functools
import sys

from speedref import work_clock

LAYERS = (
    "rootsys.weyl_orbit",
    "repring.dominant_weight_multiplicities",
    "repring.weight_multiplicities",
    "repring.tensor_decompose",
    "grading.generate_relations",
    "grading.universal_grading_group",
    "grading.matches_fundamental_group",
    "grading.tensor_equivalent",
    "lattice.cokernel",
    "lattice.smith_normal_form",
    "lattice.diagrams",
    "lattice.center_char_group",
    "classify.label_diagram",
    "classify.hasse_edges",
    "classify.atlas_to_json",
)


def _count_orbit(tracer, args, result):
    tracer.counts["rootsys.weyl_orbit.points"] += len(result)


def _count_multiset(tracer, args, result):
    tracer.counts["repring.weight_multiplicities.weights"] += len(result)


def _count_tensor(tracer, args, result):
    rs, lam, mu = args[:3]
    key = (rs.cartan_type.components, min(lam, mu), max(lam, mu))
    if key in tracer.tensor_keys:
        tracer.counts["repring.tensor_decompose.repeats"] += 1
    else:
        tracer.tensor_keys.add(key)


def _count_relations(tracer, args, result):
    tracer.counts["grading.generate_relations.relations"] += len(result)


def _count_presentation(tracer, args, result):
    tracer.counts["grading.universal_grading_group.matrix_cells"] += len(
        result.generators
    ) * len(result.relations)


def _count_smith(tracer, args, result):
    m = args[0]
    tracer.counts["lattice.smith_normal_form.cells"] += len(m) * (len(m[0]) if m else 0)


def _count_equivalent(tracer, args, result):
    if result is not None:
        tracer.counts["grading.tensor_equivalent.found"] += 1


COUNTERS = {
    "rootsys.weyl_orbit": _count_orbit,
    "repring.weight_multiplicities": _count_multiset,
    "repring.tensor_decompose": _count_tensor,
    "grading.generate_relations": _count_relations,
    "grading.universal_grading_group": _count_presentation,
    "lattice.smith_normal_form": _count_smith,
    "grading.tensor_equivalent": _count_equivalent,
}


class Tracer:
    """Per-layer self time, span counts and work counts for one process."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(
            [
                "rootsys.weyl_orbit.points",
                "repring.weight_multiplicities.weights",
                "repring.tensor_decompose.repeats",
                "grading.generate_relations.relations",
                "grading.universal_grading_group.matrix_cells",
                "lattice.smith_normal_form.cells",
                "grading.tensor_equivalent.found",
            ],
            0,
        )
        self.tensor_keys: set = set()
        # time covered by the closed children of each open span; the
        # bottom entry collects top-level spans
        self._child_s = [0.0]
        self._patched: list = []

    def install(self) -> None:
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "rootatlas" or name.startswith("rootatlas.")
        ]
        for layer in LAYERS:
            modname, fname = layer.split(".")
            original = getattr(sys.modules[f"rootatlas.{modname}"], fname)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        child_s = self._child_s
        self_s = self.self_s
        spans = self.spans
        count = COUNTERS.get(layer)
        clock = work_clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                self_s[layer] += duration - child_s.pop()
                child_s[-1] += duration
                spans[layer] += 1
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def report(self, speed: float) -> dict:
        """Self times at the reference speed, given the measured ``speed``,
        plus the exact counts that must repeat run to run."""
        return {
            "self_s": {k: v * speed for k, v in self.self_s.items()},
            "exact": {**{f"{k}.spans": v for k, v in self.spans.items()}, **self.counts},
        }
