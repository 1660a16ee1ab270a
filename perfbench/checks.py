"""Output checks, computed apart from the code paths the sweep timed.

Each check compares what a sweep wrote against an expectation built a
different way: markets against the frozen per-minute loop generator,
summaries against the frozen scalar core, a distributed ``--out``
against an in-process serial run, a resume against its cold run, and
every summary against properties the method must have.  Nothing is
compared against a stored copy of earlier results.

The comparisons are plain functions of (produced, expected), so the
tests can show each one failing on a perturbed summary or trace; the
``*_task`` functions compute the expectations and run in a pool of at
most two processes after the timed runs (``main``).
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

FRACTIONS = ("free_step_fraction", "refund_fraction", "overhead_fraction")


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def summary_problems(scenario: dict, summary: dict, trials: int) -> list[str]:
    """Properties every cell summary must have."""
    label = f"{scenario['approach']}/{scenario['workload']}/seed={scenario['seed']}"
    problems = []
    if summary.get("workload") != scenario["workload"]:
        problems.append(f"{label}: workload {summary.get('workload')!r}")
    if summary.get("num_jobs") != trials:
        problems.append(f"{label}: {summary.get('num_jobs')} jobs for {trials} trials")
    if len(summary.get("selected", ())) != scenario["mcnt"]:
        problems.append(f"{label}: selected {len(summary.get('selected', ()))} != mcnt {scenario['mcnt']}")
    for key in ("cost", "jct_hours", "steps_completed"):
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not value > 0 or not math.isfinite(value):
            problems.append(f"{label}: {key}={value!r} is not positive")
    for key in FRACTIONS:
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            problems.append(f"{label}: {key}={value!r} outside [0, 1]")
    cost, refunded = summary.get("cost"), summary.get("refunded")
    if isinstance(cost, float) and isinstance(refunded, float) and cost + refunded > 0:
        if summary.get("refund_fraction") != refunded / (cost + refunded):
            problems.append(f"{label}: refund_fraction != refunded / (cost + refunded)")
    return problems


def text_problems(what: str, produced: str, expected: str) -> list[str]:
    """Byte-for-byte equality of two canonical JSON texts."""
    if produced == expected:
        return []
    produced_rows, expected_rows = json.loads(produced), json.loads(expected)
    if len(produced_rows) != len(expected_rows):
        return [f"{what}: {len(produced_rows)} summaries, expected {len(expected_rows)}"]
    for index, (a, b) in enumerate(zip(produced_rows, expected_rows)):
        if a != b:
            keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            return [f"{what}: summary {index} differs in {keys}"]
    return [f"{what}: texts differ"]


def trace_problems(seed: int, name: str, times, prices, ref_times, ref_prices) -> list[str]:
    """One market's trace against its loop-generated reference."""
    if len(times) != len(ref_times) or len(prices) != len(ref_prices):
        return [f"market seed={seed} {name}: {len(times)} records, reference {len(ref_times)}"]
    if not (list(times) == list(ref_times) and list(prices) == list(ref_prices)):
        return [f"market seed={seed} {name}: records differ from the loop reference"]
    return []


def accuracy_problems(accuracy: float, majority: float) -> list[str]:
    if accuracy > majority:
        return []
    return [f"revpred held-out accuracy {accuracy:.3f} does not beat the majority rate {majority:.3f}"]


def classification(probabilities, labels) -> tuple[float, float, float]:
    """(accuracy, F1, majority-class rate) at the 0.5 threshold."""
    tp = fp = tn = fn = 0
    for p, label in zip(probabilities, labels):
        predicted = p >= 0.5
        if predicted and label:
            tp += 1
        elif predicted:
            fp += 1
        elif label:
            fn += 1
        else:
            tn += 1
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    positives = (tp + fn) / total
    return accuracy, f1, max(positives, 1.0 - positives)


# ----------------------------------------------------------------------
# Expectations (run in the check pool)
# ----------------------------------------------------------------------
def markets_task(seed: int, snapshot_dir: str | None) -> tuple[list[str], dict]:
    """The sweep's markets for ``seed`` against the loop generator."""
    from repro.analysis.context import TOTAL_DAYS
    from repro.cloud.instance import DEFAULT_INSTANCE_POOL
    from repro.market.dataset import generate_default_dataset
    from repro.market.reference import generate_loop_reference
    from repro.market.snapshot import load_market_snapshot

    dataset = None
    if snapshot_dir is not None:
        dataset = load_market_snapshot(snapshot_dir)
        if dataset is None:
            return [f"market seed={seed}: snapshot {snapshot_dir} does not load"], {}
    if dataset is None:
        dataset = generate_default_dataset(seed=seed, days=TOTAL_DAYS)
    problems = []
    if sorted(dataset.instance_types) != sorted(i.name for i in DEFAULT_INSTANCE_POOL):
        problems.append(f"market seed={seed}: markets {dataset.instance_types}")
    for instance in DEFAULT_INSTANCE_POOL:
        if instance.name not in dataset:
            continue
        reference = generate_loop_reference(instance, days=TOTAL_DAYS, seed=seed)
        trace = dataset[instance.name]
        problems += trace_problems(
            seed, instance.name, trace.times, trace.prices, reference.times, reference.prices
        )
    return problems, {}


def _context_with_bank(seed: int, bank_root: str | None):
    from repro.analysis.context import build_context
    from repro.sweep.banks import BankCache

    return build_context(seed=seed, bank_cache=BankCache(bank_root) if bank_root else None)


def reference_cell_task(scenario: dict, expected: str, bank_root: str | None) -> tuple[list[str], dict]:
    """Re-simulate one SpotTune cell through the frozen scalar core."""
    from repro.analysis.cells import run_cell
    from repro.core.reference import (
        ReferenceBankPredictor,
        ReferenceCachingPredictor,
        ReferenceOrchestrator,
    )
    from repro.revpred.predictor import ConstantPredictor, OraclePredictor
    from repro.sweep.cache import canonical_json

    context = _context_with_bank(scenario["seed"], bank_root)
    kind = scenario["predictor"]
    problems = []
    if kind == "oracle":
        predictor = OraclePredictor(context.dataset)
    elif kind == "constant":
        predictor = ConstantPredictor(0.0)
    else:
        bank = context.revpred_bank if kind == "revpred" else context.tributary_bank
        if (context.bank_loads, context.bank_trainings) != (1, 0):
            problems.append(
                f"bank for seed={scenario['seed']}: {context.bank_loads} load(s), "
                f"{context.bank_trainings} training(s), expected 1 load and 0 trainings"
            )
        predictor = ReferenceCachingPredictor(ReferenceBankPredictor(bank))
    summary = run_cell(
        context,
        scenario["workload"],
        scenario["theta"],
        predictor,
        orchestrator_cls=ReferenceOrchestrator,
        checkpoint_policy=scenario["checkpoint_policy"],
        reschedule_after=scenario["reschedule_after"],
        refund_enabled=scenario["refund_enabled"],
        mcnt=scenario["mcnt"],
    )
    what = f"reference core {kind}/{scenario['checkpoint_policy']}/{scenario['workload']} seed={scenario['seed']}"
    problems += text_problems(what, "[" + canonical_json(summary) + "]", "[" + expected + "]")
    return problems, {}


def serial_task(spec: dict, produced: str) -> tuple[list[str], dict]:
    """The grid run serially in-process, without any cache."""
    from repro.sweep import ScenarioGrid, SweepRunner, sweep_out_text

    result = SweepRunner(jobs=1, cache=None, bank_cache=False).run(ScenarioGrid.from_spec(spec))
    return text_problems("distributed --out vs in-process serial", produced, sweep_out_text(result.summaries())), {}


def bank_accuracy_task(seed: int, bank_root: str) -> tuple[list[str], dict]:
    """Held-out accuracy of the cached RevPred bank on border labels."""
    import numpy as np

    from repro.cloud.instance import get_instance_type
    from repro.market.labeling import build_training_set
    from repro.market.trace import HOUR, MINUTE
    from repro.sim.rng import RngStream

    context = _context_with_bank(seed, bank_root)
    bank = context.revpred_bank
    problems = []
    if (context.bank_loads, context.bank_trainings) != (1, 0):
        problems.append(f"revpred bank: {context.bank_loads} load(s), {context.bank_trainings} training(s)")
    probabilities, labels = [], []
    for name in context.dataset.instance_types:
        trace = context.dataset[name]
        times = np.arange(context.split_time + 2 * HOUR, trace.end - HOUR, 15 * MINUTE)
        test = build_training_set(
            trace,
            get_instance_type(name).on_demand_price,
            times,
            RngStream(seed, f"perfbench-test/{name}"),
            delta_mode="fluctuation",
        )
        predictor = bank.predictors[name]
        raw = predictor.model.predict_proba(test.history, test.present)
        probabilities += list(predictor.correction.apply(raw))
        labels += [bool(label) for label in test.labels]
    accuracy, f1, majority = classification(probabilities, labels)
    problems += accuracy_problems(accuracy, majority)
    return problems, {"revpred.test_accuracy": accuracy, "revpred.test_f1": f1, "majority": majority}


TASKS = {
    "markets": markets_task,
    "reference_cell": reference_cell_task,
    "serial": serial_task,
    "bank_accuracy": bank_accuracy_task,
}


def run_task(task: tuple) -> tuple[str, list[str], dict, float]:
    """Pool entry point: ``(label, kind, args)`` -> ``(label, problems, extra, seconds)``."""
    label, kind, args = task
    started = time.perf_counter()
    try:
        problems, extra = TASKS[kind](*args)
    except Exception as error:  # noqa: BLE001 — a crashed check is a failed check
        problems, extra = [f"{label}: {type(error).__name__}: {error}"], {}
    return label, problems, extra, time.perf_counter() - started


def snapshot_dir(cache: Path, seed: int) -> str | None:
    path = cache / "markets" / f"seed{seed}"
    return str(path) if (path / "meta.json").is_file() else None


#: Rough seconds per check kind, to split the checks between processes.
COST = {"reference_cell": 1.0, "markets": 2.5, "serial": 1.0, "bank_accuracy": 2.5}
REVPRED_REFERENCE_COST = 6.0


def cost(task: tuple) -> float:
    label, kind, args = task
    if kind == "reference_cell" and args[0]["predictor"] in ("revpred", "tributary"):
        return REVPRED_REFERENCE_COST
    return COST[kind]


def split(tasks: list[tuple], processes: int) -> list[list[tuple]]:
    """Longest first, each to the least loaded process."""
    shares: list[list[tuple]] = [[] for _ in range(processes)]
    loads = [0.0] * processes
    for task in sorted(tasks, key=cost, reverse=True):
        target = loads.index(min(loads))
        shares[target].append(task)
        loads[target] += cost(task)
    return [share for share in shares if share]


def main(argv=None) -> int:
    """``python3 perfbench/checks.py TASKS.json RESULTS.json``: run a share of the checks."""
    tasks_path, results_path = argv if argv is not None else sys.argv[1:]
    tasks = json.loads(Path(tasks_path).read_text())
    results = [run_task(tuple(task)) for task in tasks]
    Path(results_path).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
