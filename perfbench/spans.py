"""Span recording for the traced benchmark run, done from outside rdbp.

``install`` wraps the public callables of every rdbp module and patches
each module attribute that refers to one, so a caller that imported a
function by name (``from .montecarlo import simulate``) reaches the wrapper
too.  Each call becomes a span: a name, a start, an end, the span that was
open when it began, and up to two counts taken at the boundary (``items``,
the size of the work handed in, and ``out``, a count handed back).  Spans
stay in memory in flat integer columns and are written out once, at the end.

``layer_metrics`` turns a span table into the per-layer metrics the
benchmark reports.  Layers are named after rdbp's modules; ``special`` is
counted under ``criteria``, because only the closed forms call it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Optional

import numpy as np

#: module -> layer; every span name starts with its layer and a colon
LAYERS = {
    "rdbp.config": "config",
    "rdbp.cli": "cli",
    "rdbp.montecarlo": "montecarlo",
    "rdbp.engine": "engine",
    "rdbp.policies": "policies",
    "rdbp.universe": "universe",
    "rdbp.distributions": "distributions",
    "rdbp.criteria": "criteria",
    "rdbp.special": "criteria",
}
LAYER_NAMES = tuple(dict.fromkeys(LAYERS.values()))

SAMPLE_KINDS = {
    "offspring": "OffspringLaw.quantile",
    "uniform": "Uniform.icdf",
    "constant": "Constant.icdf",
    "scaled_beta": "ScaledBeta.icdf",
}
POLICY_TOKENS = ("wf", "sf", "fcfs", "coinflip", "counterexample")
CHECKS = {
    "dominance": "dominance_check",
    "safe_haven": "safe_haven_check",
    "envelope": "envelope_check",
    "superadditivity": "superadditivity_check",
    "counterexample": "counterexample_search",
    "sf_probe": "sf_monotonicity_probe",
}
SOLVERS = ("solve_wf_threshold", "solve_sf_threshold", "critical_resource_mean")
#: steps at or below this population size measure per-call overhead
SMALL_STEP = 10


class SpanRecorder:
    """Spans of one single-threaded process, kept in integer columns."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.items = array("q")
        self.out = array("q")
        self._open = [-1]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.parent.append(self._open[-1])
        self.name.append(name_id)
        self.end.append(0)
        self.items.append(0)
        self.out.append(-1)
        self._open.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, end: int, items: int = 0, out: int = -1) -> None:
        self.end[sid] = end
        self.items[sid] = items
        self.out[sid] = out
        self._open.pop()

    def table(self) -> dict:
        cols = {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("parent", "name", "start", "end", "items", "out")}
        cols["names"] = np.array(self.names, dtype=str)
        return cols

    def dump(self, path) -> None:
        np.savez(path, **self.table())


def load(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def wrap(fn: Callable, recorder: SpanRecorder, name: str,
         count: Optional[Callable] = None, label: Optional[Callable] = None) -> Callable:
    """``fn`` recorded as a span; returns exactly what ``fn`` returns.

    ``count(args, kwargs, result) -> (items, out)`` reads the boundary
    counts; ``label(args) -> str`` names the span per call instead of
    ``name``.
    """
    fixed = recorder.name_id(name)
    rec_open, rec_close, name_id = recorder.open, recorder.close, recorder.name_id

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec_open(fixed if label is None else name_id(label(args)))
        end = 0
        items, out = 0, -1
        try:
            result = fn(*args, **kwargs)
            end = time.perf_counter_ns()
            if count is not None:
                items, out = count(args, kwargs, result)
            return result
        finally:
            rec_close(sid, end or time.perf_counter_ns(), items, out)

    return traced


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _sized(index, key, returns_count=False):
    def count(args, kwargs, result):
        return int(np.size(_arg(args, kwargs, index, key))), (int(result) if returns_count else -1)
    return count


def _step_count(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "current_size")), int(result)


def _row_count(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "count")), -1


#: boundary counts, by span name without the layer prefix
_COUNTS = {
    "step": _step_count,
    "Universe.offspring_row": _row_count,
    "Universe.claim_row": _row_count,
    "Universe.resource_row": _row_count,
    "Universe.aux_row": _row_count,
    "offspring_across_replicates": _sized(1, "ids"),
    "claims_across_replicates": _sized(1, "ids"),
    "resources_across_replicates": _sized(1, "ids"),
    "count_wf": _sized(0, "claims", returns_count=True),
    "count_sf": _sized(0, "claims", returns_count=True),
    "count_fcfs": _sized(0, "claims", returns_count=True),
}


def _policy_label(method):
    return lambda args: f"policies:{args[0].name}.{method}"


def _describe(module: str, qualname: str):
    """(span name, count, label) for one wrapped callable."""
    layer = LAYERS[module]
    prefix = "special." if module.endswith(".special") else ""
    name = f"{layer}:{prefix}{qualname}"
    count = _COUNTS.get(qualname)
    label = None
    if layer == "distributions" and qualname.endswith((".icdf", ".quantile")):
        count = _sized(1, "u")
    if layer == "policies":
        owner, _, method = qualname.rpartition(".")
        if owner and method in ("count", "permutation"):
            count = _sized(1, "claims", returns_count=method == "count")
            label = _policy_label(method)
        elif qualname.startswith("count_"):
            name = f"policies:{qualname[len('count_'):]}.{qualname}"
    return name, count, label


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every public callable of the imported rdbp modules.

    Returns a function that puts the originals back.
    """
    modules = [m for key, m in list(sys.modules.items())
               if (key == "rdbp" or key.startswith("rdbp.")) and m is not None]
    undo = []
    wrapped = {}
    for module in modules:
        if module.__name__ not in LAYERS:
            continue
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                name, count, label = _describe(module.__name__, obj.__qualname__)
                wrapped[id(obj)] = (obj, wrap(obj, recorder, name, count, label))
            elif inspect.isclass(obj):
                for meth_name, meth in list(vars(obj).items()):
                    if meth_name.startswith("_") or not inspect.isfunction(meth):
                        continue
                    name, count, label = _describe(module.__name__, meth.__qualname__)
                    setattr(obj, meth_name, wrap(meth, recorder, name, count, label))
                    undo.append((obj, meth_name, meth))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                undo.append((module, attr, obj))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and the time they cover is the sum of their durations.
    """
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer did no work of that kind."""
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics, as ``{name: (value, unit)}``, from a span table."""
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    start, end = spans["start"], spans["end"]
    items, out = spans["items"], spans["out"]
    dur = end - start
    own = self_times(parent, start, end)

    layer = np.array([n.partition(":")[0] for n in names], dtype=object)[name]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], "")

    def named(pred) -> np.ndarray:
        return np.isin(name, [i for i, n in enumerate(names) if pred(n)])

    def is_(full_name: str) -> np.ndarray:
        return named(lambda n: n == full_name)

    m: dict = {}
    for lay in LAYER_NAMES:
        mask = layer == lay
        m[f"{lay}.calls"] = (int(mask.sum()), "count")
        m[f"{lay}.self_s"] = (own[mask].sum() / 1e9, "s")

    reads = (layer == "universe") & (items > 0)
    m["universe.cells"] = (int(items[reads].sum()), "count")
    m["universe.row_calls"] = (int(reads.sum()), "count")
    m["universe.ns_per_cell"] = (_ratio(own[reads].sum(), items[reads].sum()), "ns")

    for kind, bare in SAMPLE_KINDS.items():
        mask = is_(f"distributions:{bare}")
        m[f"distributions.samples.{kind}"] = (int(items[mask].sum()), "count")
        m[f"distributions.ns_per_sample.{kind}"] = (_ratio(own[mask].sum(), items[mask].sum()), "ns")

    outer_policy = (layer == "policies") & (parent_layer != "policies") & (items > 0)
    served = outer_policy & (out >= 0)
    m["policies.claims_ranked"] = (int(items[outer_policy].sum()), "count")
    m["policies.served"] = (int(out[served].sum()), "count")
    m["policies.served_ratio"] = (_ratio(out[served].sum(), items[served].sum()), "ratio")
    for token in POLICY_TOKENS:
        mask = outer_policy & named(lambda n, t=token: n.startswith(f"policies:{t}."))
        m[f"policies.ns_per_claim.{token}"] = (_ratio(dur[mask].sum(), items[mask].sum()), "ns")

    steps = is_("engine:step")
    small = steps & (items <= SMALL_STEP)
    m["engine.steps"] = (int(steps.sum()), "count")
    m["engine.members"] = (int(items[steps].sum()), "count")
    m["engine.peak_size"] = (int(max(items[steps].max(initial=0), out[steps].max(initial=0))), "count")
    m["engine.simulate_calls"] = (int(is_("engine:simulate").sum()), "count")
    m["engine.ns_per_member"] = (_ratio(dur[steps].sum(), items[steps].sum()), "ns")
    m["engine.us_per_small_step"] = (_ratio(dur[small].sum() / 1e3, small.sum()), "us")

    for check, fn in CHECKS.items():
        m[f"montecarlo.s.{check}"] = (dur[is_(f"montecarlo:{fn}")].sum() / 1e9, "s")
    derived = is_("universe:Universe.derive_replicate") & (parent_layer == "montecarlo")
    m["montecarlo.replicates"] = (int(derived.sum()), "count")

    m["criteria.report_s"] = (dur[is_("criteria:critical_report")].sum() / 1e9, "s")
    m["criteria.curve_s"] = (dur[is_("criteria:critical_curve")].sum() / 1e9, "s")
    m["criteria.solver_calls"] = (int(sum(is_(f"criteria:{s}").sum() for s in SOLVERS)), "count")
    m["config.parse_s"] = (dur[is_("config:parse_run_config")].sum() / 1e9, "s")
    return {key: (value.item() if isinstance(value, np.generic) else value, unit)
            for key, (value, unit) in m.items()}
