"""In-memory span recorder wrapped around each layer's public calls.

The benchmark's traced run patches the functions and methods listed in
:data:`LAYER_CALLS` with thin wrappers that record one span per call:
layer name, start and end (``time.perf_counter``), the parent span on
the calling thread, and the fingerprint of the cell being simulated.
Nothing is written until :meth:`Recorder.write`, which emits the NDJSON
shape of :mod:`repro.obs.trace`, so ``repro trace --chrome`` converts
the file.  The program's own code is not modified; :meth:`Recorder.unpatch`
restores every original.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

from perfbench import stats

#: (span name, module, attribute): ``Class.method`` or a function.  A
#: function is also replaced wherever a loaded ``repro`` module bound
#: it by name (``from x import f``).
LAYER_CALLS = (
    ("market.generate", "repro.market.dataset", "generate_default_dataset"),
    ("market.snapshot_write", "repro.market.snapshot", "save_market_snapshot"),
    ("market.snapshot_load", "repro.market.snapshot", "load_market_snapshot"),
    ("core.run", "repro.core.orchestrator", "SpotTuneOrchestrator.run"),
    ("core.provision", "repro.core.provisioner", "Provisioner.get_best_instance"),
    ("core.baseline", "repro.core.baselines", "run_single_spot"),
    ("earlycurve.fit", "repro.earlycurve.model", "StagedCurveModel.fit"),
    ("earlycurve.stage_fit", "repro.earlycurve.model", "fit_single_stage"),
    ("revpred.features", "repro.market.labeling", "build_training_set"),
    ("revpred.train", "repro.revpred.trainer", "RevPredTrainer.train"),
    ("revpred.infer", "repro.revpred.predictor", "CachingPredictor.probability_many"),
    ("revpred.infer", "repro.revpred.predictor", "CachingPredictor.probability"),
    ("revpred.embedding", "repro.revpred.model", "RevPredNetwork.history_embedding"),
    ("sweep.cell", "repro.sweep.runner", "run_scenario"),
    ("cache.store", "repro.sweep.cache", "SweepCache.store"),
    ("cache.load", "repro.sweep.cache", "SweepCache.load"),
    ("banks.store", "repro.sweep.banks", "BankCache.store"),
    ("distrib.enqueue", "repro.sweep.distrib.queue", "TaskQueue.create"),
    ("distrib.resume_complete", "repro.sweep.distrib.queue", "TaskQueue.complete_cached"),
    ("distrib.claim", "repro.sweep.distrib.queue", "TaskQueue.claim"),
    ("distrib.done", "repro.sweep.distrib.queue", "TaskQueue.mark_done"),
)


#: Modules that import a layer function by name.
CONSUMERS = (
    "repro.cli",
    "repro.analysis.context",
    "repro.analysis.cells",
    "repro.sweep.runner",
    "repro.sweep.distrib",
    "repro.core.orchestrator",
    "repro.core.baselines",
    "repro.earlycurve.predictor",
    "repro.earlycurve.slaq",
    "repro.revpred.trainer",
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cell: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []
        self._inherit: tuple = ()

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = list(self._inherit)
            local.cell = None
        return local

    def inherit(self, token) -> None:
        """Make the span ``token`` opened the parent of top-level spans
        on threads started after this call (a worker under a phase)."""
        self._inherit = ((token[0], token[1]),)

    def open(self, name: str, **attrs):
        state = self._state()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = state.stack[-1][0] if state.stack else None
        state.stack.append((span_id, name))
        return (span_id, name, parent, time.perf_counter(), attrs)

    def close(self, token, cell=None) -> Span:
        end = time.perf_counter()
        span_id, name, parent, start, attrs = token
        state = self._state()
        state.stack.pop()
        span = Span(span_id, name, start, end, parent, threading.get_ident(),
                    cell if cell is not None else state.cell, attrs)
        with self._lock:
            self.spans.append(span)
        return span

    def active(self, name: str) -> bool:
        return any(open_name == name for _, open_name in self._state().stack)

    # ------------------------------------------------------------------
    def _wrap(self, name: str, original):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if recorder.active(name):
                # Re-entry into the same layer (probability inside
                # probability_many) is part of the outer span.
                return original(*args, **kwargs)
            attrs = {}
            if name == "revpred.infer" and original.__name__ == "probability_many":
                queries = list(args[1] if len(args) > 1 else kwargs.pop("queries"))
                args = (args[0], queries)
                attrs["queries"] = len(queries)
            elif name == "revpred.infer":
                attrs["queries"] = 1
            elif name == "revpred.train":
                training_set = args[2] if len(args) > 2 else kwargs["training_set"]
                attrs["samples"] = len(training_set)
                attrs["epochs"] = args[0].epochs
            state = recorder._state()
            outer_cell = state.cell
            if name == "sweep.cell":
                state.cell = args[0].fingerprint()
            races = _claim_races() if name == "distrib.claim" else 0.0
            token = recorder.open(name, **attrs)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                if name == "distrib.claim":
                    # Only this process's own claims move its registry
                    # while a claim is in flight.
                    token[4]["won"] = result is not None
                    token[4]["races"] = _claim_races() - races
                recorder.close(token, cell=_cell_of(name, args))
                state.cell = outer_cell

        return wrapper

    def patch(self) -> None:
        """Wrap every call of :data:`LAYER_CALLS`."""
        # Load the modules that bind layer functions by name first, so
        # the by-name replacement below reaches them.
        for module_name in CONSUMERS:
            importlib.import_module(module_name)
        for name, module_name, attribute in LAYER_CALLS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._restore.append((owner, method, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._restore.append((loaded, key, original))
                        setattr(loaded, key, wrapper)

    def unpatch(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def write(self, path) -> int:
        """Write the spans as NDJSON in the shape of ``repro.obs.trace``."""
        pid = os.getpid()
        lines = []
        for span in sorted(self.spans, key=lambda s: s.start):
            args = dict(span.attrs)
            if span.cell is not None:
                args["cell"] = span.cell
            lines.append(json.dumps({
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent,
                "pid": pid,
                "tid": span.thread,
                "ts_us": int((span.start - self.epoch) * 1e6),
                "dur_us": int(span.seconds * 1e6),
                "args": args,
            }, sort_keys=True))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        return len(lines)


def _claim_races() -> float:
    from repro import obs

    return sum(
        c["value"] for c in obs.REGISTRY.snapshot()["counters"]
        if c["name"] == "repro_queue_claim_races_total"
    )


def _cell_of(name: str, args) -> str | None:
    """The cell a call outside ``run_scenario`` works for, if it says."""
    if name in ("cache.store", "cache.load"):
        return args[1].fingerprint()
    if name == "distrib.done":
        return args[2].get("fingerprint")
    return None


def _total(spans) -> float:
    return sum(span.seconds for span in spans)


def layer_metrics(recorder: Recorder, phases: dict[str, Span]) -> dict[str, float]:
    """Per-layer figures of one traced run (``phases``: ``cold``/``resume``)."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    metrics: dict[str, float] = {}
    for key, name in (
        ("market.generate_s", "market.generate"),
        ("market.snapshot_write_s", "market.snapshot_write"),
        ("market.snapshot_load_s", "market.snapshot_load"),
        ("core.run_s", "core.run"),
        ("core.provision_s", "core.provision"),
        ("core.baseline_s", "core.baseline"),
        ("earlycurve.fit_s", "earlycurve.fit"),
        ("revpred.features_s", "revpred.features"),
        ("revpred.train_s", "revpred.train"),
        ("revpred.infer_s", "revpred.infer"),
        ("cache.store_s", "cache.store"),
        ("cache.load_s", "cache.load"),
        ("banks.store_s", "banks.store"),
        ("distrib.enqueue_s", "distrib.enqueue"),
        ("distrib.resume_complete_s", "distrib.resume_complete"),
    ):
        metrics[key] = _total(spans(name))
    metrics["core.run_self_s"] = sum(
        stats.self_time(s.start, s.end, [(c.start, c.end) for c in children.get(s.span_id, [])])
        for s in spans("core.run")
    )
    metrics["core.provisions"] = len(spans("core.provision"))
    metrics["earlycurve.fits"] = len(spans("earlycurve.fit"))
    stage_fits = spans("earlycurve.stage_fit")
    metrics["earlycurve.stage_fits"] = len(stage_fits)
    metrics["earlycurve.stage_fit_ms"] = (
        1000.0 * _total(stage_fits) / len(stage_fits) if stage_fits else 0.0
    )
    train = spans("revpred.train")
    samples = sum(s.attrs["samples"] for s in train)
    metrics["revpred.train_samples"] = samples
    sample_epochs = sum(s.attrs["samples"] * s.attrs["epochs"] for s in train)
    metrics["revpred.train_rate"] = sample_epochs / _total(train) if train else 0.0
    metrics["revpred.queries"] = sum(s.attrs["queries"] for s in spans("revpred.infer"))
    metrics["revpred.embeddings"] = len(spans("revpred.embedding"))
    cold = phases["cold"]
    cells = [s.seconds for s in spans("sweep.cell") if cold.start <= s.start <= cold.end]
    metrics["sweep.cell_s_p50"] = stats.median(cells) if cells else 0.0
    metrics["sweep.cell_s_tail"] = stats.tail(cells)[0]
    metrics["cache.stores"] = len(spans("cache.store"))
    metrics["cache.loads"] = len(spans("cache.load"))
    claims = spans("distrib.claim")
    metrics["distrib.claims"] = sum(1 for s in claims if s.attrs["won"])
    metrics["distrib.claim_races"] = sum(s.attrs["races"] for s in claims if s.attrs["won"])
    metrics["distrib.claim_ms"] = 1000.0 * _total(claims) / len(claims) if claims else 0.0
    done = spans("distrib.done")
    metrics["distrib.done_ms"] = 1000.0 * _total(done) / len(done) if done else 0.0
    # What the phases' top-level spans leave uncovered, on any thread.
    uncovered = 0.0
    for phase in phases.values():
        top = [(s.start, s.end) for s in children.get(phase.span_id, [])]
        uncovered += phase.seconds - stats.covered(
            [(max(phase.start, s), min(phase.end, e)) for s, e in top]
        )
    metrics["trace.uncovered_s"] = uncovered
    return metrics
