"""One in-process cold + resumed sweep, traced or not, for the per-layer split.

``run.py --trace 1`` starts this module twice in fresh processes of
the benchmark's own code: once with ``--spans FILE`` (traced) and once
without (its untraced twin, same configuration), so the difference of
their cold walls is the cost of tracing.  ``sim_grid`` goes
through ``SweepRunner(jobs=1)``; ``fleet_grid`` drives the distributed
coordinator with one local worker process plus one ``SweepWorker`` on a
thread of this process, so both sides of the queue are timed.  With
``--bank`` a third pass sweeps the RevPred cells of
:func:`perfbench.grids.bank_spec` on the same cache, which trains and
stores a RevPred bank.

Usage: ``python3 perfbench/inproc.py --workload W --seed N --dir DIR
[--spans FILE] [--bank] --report FILE``
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import grids, spans, stats  # noqa: E402


def _worker_thread(queue_dir: Path, errors: list) -> threading.Thread:
    def work() -> None:
        from repro.sweep.distrib import SweepWorker, TaskQueue

        try:
            queue = TaskQueue.attach(queue_dir, wait_seconds=120.0, poll=0.02)
            SweepWorker(queue, worker_id="perfbench-thread").run()
        except Exception as error:  # noqa: BLE001 — reported by the parent
            errors.append(f"{type(error).__name__}: {error}")

    return threading.Thread(target=work, name="perfbench-worker", daemon=True)


def run(workload: grids.Workload, seed: int, directory: Path, recorder, bank: bool) -> dict:
    from repro.sweep import ScenarioGrid, SweepRunner, sweep_out_text
    from repro.sweep.distrib import DistributedSweepRunner

    grid = ScenarioGrid.from_spec(workload.spec(seed))
    bank_grid = ScenarioGrid.from_spec(grids.bank_spec(workload.seeds(seed)))
    cache = directory / "cache"
    report: dict = {"cells": len(grid), "bank_cells": len(bank_grid), "worker_errors": []}
    phases = {}
    emitted: dict[str, float] = {}

    def on_cell(index, total, cell) -> None:
        emitted[cell.scenario.fingerprint()] = time.perf_counter()

    for phase in ("cold", "resume") + (("bank",) if bank else ()):
        resume = phase == "resume"
        token = recorder.open(f"phase.{phase}") if recorder else None
        started = time.perf_counter()
        if workload.distributed:
            runner = DistributedSweepRunner(cache=cache, jobs=1, resume=resume)
            thread = None
            if not resume:
                # Every cell of a resumed run comes from the cache, so
                # the coordinator starts no worker then either.
                if recorder:
                    recorder.inherit(token)
                thread = _worker_thread(runner.queue_dir, report["worker_errors"])
                thread.start()
            result = runner.run(grid, on_cell=on_cell if not resume else None)
            if thread is not None:
                thread.join(timeout=120.0)
        else:
            cells = bank_grid if phase == "bank" else grid
            result = SweepRunner(jobs=1, cache=cache, resume=resume).run(cells)
        wall = time.perf_counter() - started
        if recorder:
            phases[phase] = recorder.close(token)
        report[f"{phase}_s"] = wall
        report[f"{phase}_executed"] = result.executed_count
        report[f"{phase}_cached"] = result.cached_count
        out = directory / f"{phase}.json"
        out.write_text(sweep_out_text(result.summaries()))
        report[f"{phase}_out"] = str(out)
    if recorder:
        report["layers"] = spans.layer_metrics(recorder, phases)
        if workload.distributed:
            done = {
                s.cell: s.end for s in recorder.spans if s.name == "distrib.done" and s.cell
            }
            lags = [emitted[fp] - end for fp, end in done.items() if fp in emitted]
            report["layers"]["distrib.tail_lag_s_p50"] = stats.median(lags) if lags else 0.0
            report["layers"]["distrib.tail_lag_s_tail"] = stats.tail(lags)[0]
            report["tail_lag_samples"] = len(lags)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(grids.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--bank", action="store_true",
                        help="then sweep the RevPred cells of grids.bank_spec (trains a bank)")
    parser.add_argument("--report", required=True, type=Path)
    args = parser.parse_args(argv)
    workload = grids.WORKLOADS[args.workload]
    import repro.cli  # noqa: F401 — imported before the clock starts, like a fresh CLI

    recorder = spans.Recorder() if args.spans else None
    if recorder:
        recorder.patch()
    try:
        report = run(workload, args.seed, args.dir, recorder, args.bank)
    finally:
        if recorder:
            recorder.unpatch()
    if recorder:
        report["spans"] = recorder.write(args.spans)
    args.report.write_text(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
