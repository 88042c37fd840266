"""In-memory span recorder, the wrappers that feed it, and self-time arithmetic.

A traced command wraps the package's public functions at every name a
caller imports them under (``curvedim.dimension.operator_eigenvalues``,
``curvedim.eigen.gram_matrix``, ...), so each call into a layer records a
span: id, parent id, thread, name, start, end and a few attributes. Each
thread keeps its own parent stack. Work submitted to a thread pool gets a
``<layer>.task`` span whose parent is the span that submitted it. Spans
stay in memory until the command ends, then go to one JSON file.

Layer names are the module names under ``src/curvedim``.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

# Functions recorded as spans, by defining module.
TRACED = {
    "curvedim.grids": ("read_panel_csv", "write_panel_csv", "gram_matrix"),
    "curvedim.eigen": (
        "operator_eigenvalues", "decompose", "dual_matrix", "eigen_dual", "gram_schmidt",
        "loadings", "reconstruct",
        "write_decomposition_json", "write_curves_csv", "write_loadings_csv",
    ),
    "curvedim.dimension": (
        "select_dimension", "bootstrap_test", "subspace_distance_general",
        "write_dimension_report_json",
    ),
    "curvedim.density": (
        "read_tick_manifest", "read_tick_csv", "build_density_panel", "write_day_metadata_json",
    ),
    "curvedim.tsmodels": (
        "fit_var_with_aic", "var_residuals", "ljung_box", "multivariate_portmanteau",
        "ar1_simulate", "write_var_fit_json",
    ),
    "curvedim.simulation": (
        "subspace_error_study", "generate_panel", "write_subspace_error_csv", "write_manifest",
    ),
}

# Functions only counted, not timed: a span here would hide the eigensolve
# inside it from the caller's self time.
COUNTED = {("curvedim.eigen", "_decompose_grid"): "eigen.route_grid_calls"}

# Spans that remember which object their first argument was, so a later
# pass can tell a bootstrap replicate's eigensolve from a repeat of the
# observed one.
TRACK_INPUT = {"eigen.operator_eigenvalues", "dimension.bootstrap_test"}


def _tick_file(args, result):
    return {"bytes": os.path.getsize(args[0]), "ticks": int(result.times.size)}


def _skipped_days(args, result):
    return {"skipped": sum(1 for meta in result[1] if meta.get("skipped"))}


def _dropped(args, result):
    return {"dropped": len(result[1])}


# Attributes read from a call's arguments and result after its span ends.
AFTER = {
    "density.read_tick_csv": _tick_file,
    "density.build_density_panel": _skipped_days,
    "eigen.gram_schmidt": _dropped,
}

ID, PARENT, THREAD, NAME, START, END, ATTRS = range(7)

# The replicate tail is the highest percentile with this many replicates beyond it.
TAIL_SAMPLES = 10


class Recorder:
    """Spans and counters of one process; safe to use from several threads."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, parent=None, attrs=None) -> list:
        """Open a span; its parent is this thread's innermost open span, else ``parent``."""
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        span = [next(self._ids), parent, threading.get_ident(), name, time.perf_counter(), None, attrs]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, key: str) -> None:
        with self._lock:
            self.counters[key] += 1

    def peak(self, key: str, value: int) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def _span_wrapper(rec: Recorder, fn, name: str):
    track = name in TRACK_INPUT
    after = AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.begin(name, attrs={"input": id(args[0])} if track and args else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if after is not None:
            span[ATTRS] = after(args, result)
        return result

    return traced


def _count_wrapper(rec: Recorder, fn, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.count(key)
        return fn(*args, **kwargs)

    return counted


def _pool_class(rec: Recorder, layer: str):
    base = concurrent.futures.ThreadPoolExecutor

    class TracedPool(base):
        """Thread pool whose tasks become children of the submitting span."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            rec.peak("pool.max_workers", self._max_workers)

        def submit(self, fn, /, *args, **kwargs):
            owner = rec.current()
            parent = owner[ID] if owner else None

            def task():
                span = rec.begin(f"{layer}.task", parent=parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.end(span)

            return super().submit(task)

    return TracedPool


def _replace_everywhere(original, replacement) -> None:
    """Point every ``curvedim`` module attribute bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "curvedim" or modname.startswith("curvedim.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> list[str]:
    """Wrap the traced functions and thread pools of an imported ``curvedim``.

    Names a later version no longer has are skipped and returned, so the
    trace reports what it could not see instead of failing.
    """
    missing = []
    for modname, names in TRACED.items():
        module = sys.modules.get(modname)
        layer = modname.rsplit(".", 1)[-1]
        for fname in names:
            fn = getattr(module, fname, None) if module else None
            if fn is None:
                missing.append(f"{modname}.{fname}")
                continue
            _replace_everywhere(fn, _span_wrapper(rec, fn, f"{layer}.{fname}"))
    for (modname, fname), key in COUNTED.items():
        fn = getattr(sys.modules.get(modname), fname, None)
        if fn is None:
            missing.append(f"{modname}.{fname}")
            continue
        _replace_everywhere(fn, _count_wrapper(rec, fn, key))
    for modname, module in list(sys.modules.items()):
        if module is not None and modname.startswith("curvedim."):
            for attr, value in list(vars(module).items()):
                if value is concurrent.futures.ThreadPoolExecutor:
                    setattr(module, attr, _pool_class(rec, modname.rsplit(".", 1)[-1]))
    return missing


def self_times(spans) -> dict:
    """Self time of every span, keyed by span id.

    A span's self time is its duration minus the time its child spans
    cover. Where spans of several threads overlap, each instant is split
    evenly among the open spans that have no open child, so the self
    times of a tree add up to the wall time its root covers.
    """
    parent = {s[ID]: s[PARENT] for s in spans}
    events = sorted(
        [(s[START], 1, s[ID]) for s in spans] + [(s[END], 0, s[ID]) for s in spans]
    )
    result = dict.fromkeys(parent, 0.0)
    open_children: Counter = Counter()
    is_open: set = set()
    leaves: set = set()
    last = None
    for t, starting, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        last = t
        up = parent[sid] if parent[sid] in is_open else None
        if starting:
            is_open.add(sid)
            leaves.add(sid)
            if up is not None:
                open_children[up] += 1
                leaves.discard(up)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if up is not None:
                open_children[up] -= 1
                if open_children[up] == 0:
                    leaves.add(up)
    return result


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile that has
    at least TAIL_SAMPLES values above it; (0, 0) when there are too few."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_SAMPLES:
        return 0.0, 0.0
    rank = len(ordered) - TAIL_SAMPLES
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def layer_metrics(spans, counters, run_s: float) -> dict:
    """Per-layer metric values of one traced command that ran ``run_s`` seconds.

    ``<x>_calls`` counts spans, ``<x>_s`` sums span durations over all
    threads, ``<x>_self_s`` sums self times. A replicate is an
    ``operator_eigenvalues`` span under ``bootstrap_test`` whose input is
    not the observed panel; ``replicate_ms_*`` are percentiles of their
    durations. ``trace.accounted_ratio`` is the share of ``run_s`` that
    the self times of all spans account for.
    """
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def dur(*names):
        return sum(s[END] - s[START] for n in names for s in by_name[n])

    def self_of(*names):
        return sum(own[s[ID]] for n in names for s in by_name[n])

    def attr(name, key):
        return sum((s[ATTRS] or {}).get(key, 0) for s in by_name[name])

    layer_self = defaultdict(float)
    layer_calls = Counter()
    for s in spans:
        layer_self[_layer(s[NAME])] += own[s[ID]]
        layer_calls[_layer(s[NAME])] += 1

    solves = by_name["eigen.operator_eigenvalues"]
    replicates = [
        s for s in solves
        if s[PARENT] in by_id
        and by_id[s[PARENT]][NAME] == "dimension.bootstrap_test"
        and (by_id[s[PARENT]][ATTRS] or {}).get("input") != (s[ATTRS] or {}).get("input")
    ]
    replicate_s = [s[END] - s[START] for s in replicates]
    tail_pct, tail_value = tail_percentile(replicate_s)
    tasks = [s for s in spans if s[NAME].endswith(".task")]
    pools = {s[PARENT] for s in tasks if s[PARENT] in by_id}
    pool_wall = sum(by_id[p][END] - by_id[p][START] for p in pools)
    workers = counters.get("pool.max_workers", 0)
    manifest_s = dur("density.read_tick_manifest")
    ticks = attr("density.read_tick_csv", "ticks")

    return {
        "cli.self_s": self_of("cli.main"),
        "eigen.calls": layer_calls["eigen"],
        "eigen.self_s": layer_self["eigen"],
        "eigen.operator_eigenvalues_calls": len(solves),
        "eigen.operator_eigenvalues_self_s": self_of("eigen.operator_eigenvalues"),
        "eigen.route_dual_calls": calls("eigen.eigen_dual"),
        "eigen.route_grid_calls": counters.get("eigen.route_grid_calls", 0),
        "eigen.decompose_calls": calls("eigen.decompose"),
        "eigen.decompose_self_s": self_of("eigen.decompose"),
        "eigen.dual_matrix_s": dur("eigen.dual_matrix"),
        "eigen.eigen_dual_s": dur("eigen.eigen_dual"),
        "eigen.gram_schmidt_dropped": attr("eigen.gram_schmidt", "dropped"),
        "eigen.write_s": dur(
            "eigen.write_decomposition_json", "eigen.write_curves_csv", "eigen.write_loadings_csv"
        ),
        "dimension.calls": layer_calls["dimension"],
        "dimension.self_s": layer_self["dimension"],
        "dimension.bootstrap_test_calls": calls("dimension.bootstrap_test"),
        "dimension.bootstrap_self_s": self_of("dimension.bootstrap_test"),
        "dimension.useful_eigensolve_ratio": len(replicates) / len(solves) if solves else 0.0,
        "dimension.replicate_samples": len(replicates),
        "dimension.replicate_ms_p50": 1e3 * statistics.median(replicate_s) if replicates else 0.0,
        "dimension.replicate_ms_tail": 1e3 * tail_value,
        "dimension.replicate_ms_tail_pct": tail_pct,
        "dimension.bootstrap_self_ms_per_replicate": (
            1e3 * self_of("dimension.bootstrap_test") / len(replicates) if replicates else 0.0
        ),
        "dimension.select_dimension_s": dur("dimension.select_dimension"),
        "dimension.select_dimension_self_s": self_of("dimension.select_dimension"),
        "dimension.subspace_distance_s": dur("dimension.subspace_distance_general"),
        "grids.calls": layer_calls["grids"],
        "grids.self_s": layer_self["grids"],
        "grids.gram_matrix_calls": calls("grids.gram_matrix"),
        "grids.gram_matrix_s": dur("grids.gram_matrix"),
        "grids.read_panel_csv_s": dur("grids.read_panel_csv"),
        "grids.write_panel_csv_s": dur("grids.write_panel_csv"),
        "density.calls": layer_calls["density"],
        "density.self_s": layer_self["density"],
        "density.read_tick_manifest_s": manifest_s,
        "density.tick_bytes_read": attr("density.read_tick_csv", "bytes"),
        "density.ticks_per_s": ticks / manifest_s if manifest_s > 0 else 0.0,
        "density.build_density_panel_s": dur("density.build_density_panel"),
        "density.days_skipped": attr("density.build_density_panel", "skipped"),
        "tsmodels.calls": layer_calls["tsmodels"],
        "tsmodels.self_s": layer_self["tsmodels"],
        "tsmodels.fit_var_with_aic_s": dur("tsmodels.fit_var_with_aic"),
        "tsmodels.diagnostics_s": dur(
            "tsmodels.var_residuals", "tsmodels.ljung_box", "tsmodels.multivariate_portmanteau"
        ),
        "tsmodels.ar1_simulate_s": dur("tsmodels.ar1_simulate"),
        "simulation.calls": layer_calls["simulation"],
        "simulation.self_s": layer_self["simulation"],
        "simulation.generate_panel_calls": calls("simulation.generate_panel"),
        "simulation.generate_panel_s": dur("simulation.generate_panel"),
        "simulation.write_s": dur("simulation.write_subspace_error_csv", "simulation.write_manifest"),
        "simulation.worker_busy_ratio": (
            sum(s[END] - s[START] for s in tasks) / (workers * pool_wall)
            if tasks and workers and pool_wall > 0 else 0.0
        ),
        "trace.run_s": run_s,
        "trace.accounted_ratio": sum(layer_self.values()) / run_s if run_s > 0 else 0.0,
    }
