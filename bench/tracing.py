"""Spans and counters around the calls into loopwalk's layers.

The tracer replaces layer functions by timing wrappers from outside the
program. ``cli`` and ``analysis`` import layer functions by name
(``from .walk_engine import evolve``), so each function is replaced
everywhere it is looked up: in its own module and in every module that
imported it. Spans (name, start, end, parent) are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# (owner, attribute, span name); owners are module paths inside loopwalk,
# or "module:Class" for methods
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_config", "config.parse"),
    ("cli", "band_structure", "dispersion.band_structure"),
    ("cli", "group_velocities", "dispersion.group_velocities"),
    ("dispersion", "group_velocities", "dispersion.group_velocities"),
    ("cli", "wavefront_speeds", "dispersion.wavefront_speeds"),
    ("cli", "classify_crossings", "dispersion.classify_crossings"),
    ("cli", "one_trip_test", "coin_synthesis.one_trip_test"),
    ("cli", "factor_universal", "coin_synthesis.factor_universal"),
    ("cli", "su2_normalize", "coin_synthesis.su2_normalize"),
    ("cli", "evolve", "walk_engine.evolve"),
    ("analysis", "evolve", "walk_engine.evolve"),
    ("cli", "trace_intensities", "walk_engine.trace_intensities"),
    ("walk_engine:CoinProgram", "perturbed", "walk_engine.perturbed"),
    ("walk_engine:ElementCoin", "matrix", "optics.coin_build"),
    ("cli", "map_sites", "graph_programs.map_sites"),
    ("analysis", "map_sites", "graph_programs.map_sites"),
    ("cli", "find_revivals", "analysis.find_revivals"),
    ("cli", "monte_carlo_error_bars", "analysis.monte_carlo_error_bars"),
    ("analysis", "similarity", "analysis.similarity"),
    ("analysis", "equidistribution_similarity", "analysis.similarity"),
)

# per-layer metric -> span name: inclusive time, self time or number of calls
TIME_METRICS = {
    "dispersion.band_structure_s": "dispersion.band_structure",
    "dispersion.wavefront_s": "dispersion.wavefront_speeds",
    "dispersion.crossings_s": "dispersion.classify_crossings",
    "dispersion.group_velocity_s": "dispersion.group_velocities",
    "coin_synthesis.one_trip_s": "coin_synthesis.one_trip_test",
    "coin_synthesis.factor_s": "coin_synthesis.factor_universal",
    "coin_synthesis.normalize_s": "coin_synthesis.su2_normalize",
    "walk_engine.evolve_s": "walk_engine.evolve",
    "walk_engine.trace_s": "walk_engine.trace_intensities",
    "walk_engine.perturb_s": "walk_engine.perturbed",
    "optics.coin_build_s": "optics.coin_build",
    "graph_programs.map_sites_s": "graph_programs.map_sites",
    "analysis.find_revivals_s": "analysis.find_revivals",
    "analysis.similarity_s": "analysis.similarity",
    "config.parse_s": "config.parse",
}
SELF_METRICS = {
    "analysis.error_bars_self_s": "analysis.monte_carlo_error_bars",
    "cli.self_s": "cli.main",
}
CALL_METRICS = {
    "walk_engine.evolve_calls": "walk_engine.evolve",
    "optics.coin_builds": "optics.coin_build",
    "analysis.similarity_calls": "analysis.similarity",
}
COUNTERS = (
    "dispersion.eig_calls",
    "dispersion.eig_matrices",
    "dispersion.fronts",
    "dispersion.crossings",
    "walk_engine.site_steps",
    "analysis.mc_samples",
    "cli.output_bytes",
)


def per_layer_units() -> dict:
    units = {name: "s" for name in (*TIME_METRICS, *SELF_METRICS)}
    units.update({name: "count" for name in (*CALL_METRICS, *COUNTERS)})
    units["cli.output_bytes"] = "bytes"
    return units


def _count_result(c: dict, name: str, result):
    if name == "dispersion.wavefront_speeds":
        c["dispersion.fronts"] += len(result.fronts)
    elif name == "dispersion.classify_crossings":
        c["dispersion.crossings"] += len(result)
    elif name == "walk_engine.evolve":
        c["walk_engine.site_steps"] += sum(len(table) for table in result.steps)
    elif name == "analysis.monte_carlo_error_bars":
        c["analysis.mc_samples"] += result.n_samples


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []          # [name index, start, end, parent span index]
        self.stack: list = []
        self.counts = {name: 0 for name in COUNTERS}
        self._undo: list = []

    def _wrap(self, owner, attr: str, name: str):
        fn = getattr(owner, attr)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _count_result(self.counts, name, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def _wrap_eig(self):
        eig = np.linalg.eig
        dispersion = [i for i, n in enumerate(self.names) if n.startswith("dispersion.")]
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(eig)
        def counted(a):
            if any(spans[i][0] in dispersion for i in stack):
                counts["dispersion.eig_calls"] += 1
                counts["dispersion.eig_matrices"] += int(np.prod(np.shape(a)[:-2], dtype=int))
            return eig(a)

        np.linalg.eig = counted
        self._undo.append((np.linalg, "eig", eig))

    def install(self):
        """Wrap loopwalk's layer functions (the package must be importable)."""
        for owner, attr, name in WRAPPED:
            module, _, cls = owner.partition(":")
            target = importlib.import_module(f"loopwalk.{module}")
            self._wrap(getattr(target, cls) if cls else target, attr, name)
        self._wrap_eig()

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def per_layer(self, n_ops: int) -> dict:
        """Every per-layer metric, per operation."""
        total = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        self_time = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            total[nid] += end - start
            calls[nid] += 1
            if parent >= 0:
                child[parent] += end - start
        for (nid, start, end, _), covered in zip(self.spans, child):
            self_time[nid] += end - start - covered

        def by(values, name):
            return values[self.names.index(name)] if name in self.names else 0

        out = {m: by(total, n) for m, n in TIME_METRICS.items()}
        out.update({m: by(self_time, n) for m, n in SELF_METRICS.items()})
        out.update({m: by(calls, n) for m, n in CALL_METRICS.items()})
        out.update(self.counts)
        return {m: v / n_ops for m, v in out.items()}

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "names": self.names, "spans": self.spans}, fh)
