#!/usr/bin/env python3
"""Benchmark `repro sweep`: cold and resumed runs, and a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload sim_grid --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --compare parent.ndjson child.ndjson

``--trace 0`` times real ``repro sweep`` processes (cold on empty
caches, then ``--resume``) and a fresh process's set-up, and prints the
end-to-end metrics.  ``--trace 1`` instead runs the workload in the
benchmark's own process (``perfbench/inproc.py``) with spans around each
layer's public calls, next to an untraced twin, and prints the
per-layer metrics.  Either way the outputs are checked afterwards and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 136, "failed": 0, "metrics": {...}}

``--compare`` reads two files of such lines (one run per line) and
prints each metric's median and quartiles and the verdict of the
nine-tenths-of-pairs rule.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
for entry in (str(SRC), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import checks, grids, stats  # noqa: E402

#: One BLAS thread for every process: :func:`main` sets these before
#: numpy is first imported, and children inherit them.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Fewest rounds of (set-up, cold sweep, resumes) a run makes; it makes
#: more while ``--seconds`` have not passed.  Medians over the rounds
#: are the end-to-end metrics.
MIN_ROUNDS = 3
#: ``--resume`` runs per round: a resume is the cheap phase, so it is
#: sampled twice as often as the cold run.
RESUMES = 2
#: Set-up processes of a traced run; their median is ``import.cli_s``.
TRACED_SETUPS = 3
#: Caches and outputs live here, inside the checkout (a disk, not tmpfs).
WORK_DIR = ROOT / ".perfbench-tmp"
#: Span files of traced runs are kept here.
SPANS_DIR = ROOT / ".perfbench-out"
#: Processes busy at once while checking.
CHECK_PROCESSES = 2


def child_env() -> dict:
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def launch(argv: list[str], log: Path) -> dict:
    """Run ``argv`` to its end; wall seconds from launch to exit, and the
    CPU seconds and largest resident set of its whole process tree."""
    with open(log, "w") as handle:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=handle, stderr=subprocess.STDOUT
        )
        # wait4 reports the child together with every descendant it
        # waited for: pool and fleet workers are all reaped by it.
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "rc": process.returncode,
        "log": log.read_text(errors="replace"),
    }


SETUP_CODE = """
import json, sys, time
started = time.perf_counter()
import repro.cli
imported = time.perf_counter()
from repro.analysis.context import TOTAL_DAYS
from repro.market.dataset import generate_default_dataset
for seed in json.loads(sys.argv[1]):
    generate_default_dataset(seed=seed, days=TOTAL_DAYS)
print(json.dumps({"import_s": imported - started, "generate_s": time.perf_counter() - imported}))
"""


def measure_setup(workload: grids.Workload, seed: int, log: Path) -> dict:
    """A fresh process that imports repro.cli and builds the workload's markets."""
    result = launch([sys.executable, "-c", SETUP_CODE, json.dumps(workload.seeds(seed))], log)
    if result["rc"] != 0:
        raise RuntimeError(f"set-up process failed:\n{result['log']}")
    result.update(json.loads(result["log"].strip().splitlines()[-1]))
    return result


def scipy_import_seconds(text: str) -> float:
    """scipy's share of an ``-X importtime`` report: the cumulative time of
    every scipy module whose importer is not itself a scipy module."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, raw.strip(), int(parts[1])))

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    total = 0
    for index, (depth, name, cumulative) in enumerate(entries):
        if not is_scipy(name):
            continue
        # Children are printed before their importer, one level deeper.
        parent = next((n for d, n, _ in entries[index + 1:] if d < depth), None)
        if parent is None or not is_scipy(parent):
            total += cumulative
    return total / 1e6


def measure_scipy_import(work: Path) -> float:
    result = launch([sys.executable, "-X", "importtime", "-c", "import repro.cli"], work / "importtime.log")
    return scipy_import_seconds(result["log"])


SUMMARY_LINE = re.compile(r"executed (\d+) cell\(s\), (\d+) from cache")


def sweep_phase(workload, spec_path: Path, cache: Path, out: Path, resume: bool, log: Path) -> dict:
    argv = [sys.executable, "-m", "repro", "sweep", "--spec", str(spec_path),
            "--cache-dir", str(cache), "--out", str(out), *workload.flags]
    if resume:
        argv.append("--resume")
    result = launch(argv, log)
    match = SUMMARY_LINE.search(result["log"])
    result["executed"], result["cached"] = (int(match[1]), int(match[2])) if match else (0, 0)
    result["out"] = out.read_text() if out.is_file() else "[]"
    return result


def remove(directory: Path) -> None:
    """Delete a directory tree and commit the deletion before going on,
    so the next timed sweep's fsyncs do not wait on its journal entry."""
    shutil.rmtree(directory, ignore_errors=True)
    descriptor = os.open(directory.parent, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Checks:
    def __init__(self) -> None:
        self.results: list[tuple[str, list[str]]] = []
        self.extra: dict = {}

    def add(self, label: str, problems: list[str], seconds: float | None = None) -> None:
        self.results.append((label, problems))
        status = "ok" if not problems else "FAIL " + "; ".join(problems[:3])
        took = f" ({seconds:.2f}s)" if seconds is not None else ""
        print(f"check {label}: {status}{took}", flush=True)

    @property
    def failed(self) -> int:
        return sum(1 for _, problems in self.results if problems)

    def run_processes(self, tasks: list[tuple], work: Path) -> None:
        """The heavy checks, split between at most two fresh processes."""
        running = []
        for index, share in enumerate(checks.split(tasks, CHECK_PROCESSES)):
            task_file, result_file = work / f"checks-{index}.json", work / f"checks-{index}.out.json"
            task_file.write_text(json.dumps(share))
            log = open(work / f"checks-{index}.log", "w")
            argv = [sys.executable, str(ROOT / "perfbench" / "checks.py"), str(task_file), str(result_file)]
            running.append((subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                             stderr=subprocess.STDOUT), log, share, result_file))
        for process, log, share, result_file in running:
            process.wait()
            log.close()
            if process.returncode != 0 or not result_file.is_file():
                for label, _, _ in share:
                    self.add(label, [f"check process exited with {process.returncode}"])
                continue
            for label, problems, extra, seconds in json.loads(result_file.read_text()):
                self.extra.update(extra)
                self.add(label, problems, seconds)


def reference_sample(grid, workload_name: str) -> list:
    """First cell of ``workload_name`` for each (predictor, checkpoint
    policy) pair of the grid's SpotTune cells."""
    picked = {}
    for scenario in grid:
        if (scenario.approach, scenario.workload) == ("spottune", workload_name):
            picked.setdefault((scenario.predictor, scenario.checkpoint_policy), scenario)
    return list(picked.values())


def summary_property_problems(grid: list, text: str) -> list[str]:
    from repro.workloads.catalog import get_workload
    from repro.workloads.trial import make_trials

    summaries = json.loads(text)
    problems = []
    if len(summaries) != len(grid):
        problems.append(f"{len(summaries)} summaries for {len(grid)} cells")
    trials = {}
    for scenario, summary in zip(grid, summaries):
        key = (scenario.workload, scenario.seed)
        if key not in trials:
            trials[key] = len(make_trials(get_workload(scenario.workload), seed=scenario.seed))
        problems += checks.summary_problems(scenario.to_dict(), summary, trials[key])
    return problems


def reference_tasks(grid: list, text: str, banks: str | None, result: Checks) -> list[tuple]:
    """Frozen-core re-simulations of :func:`reference_sample`'s cells."""
    from repro.sweep.cache import canonical_json

    by_fingerprint = {s.fingerprint(): summary for s, summary in zip(grid, json.loads(text))}
    tasks = []
    for scenario in reference_sample(grid, grids.SAMPLE_WORKLOAD):
        expected = by_fingerprint.get(scenario.fingerprint())
        label = f"reference_core[{scenario.predictor}/{scenario.checkpoint_policy}/{scenario.workload}]"
        if expected is None:
            result.add(label, ["cell missing from the sweep output"])
            continue
        tasks.append((label, "reference_cell", (scenario.to_dict(), canonical_json(expected), banks)))
    return tasks


def check_outputs(workload, seed: int, spec: dict, cold: str, resumes: list[str],
                  colds: list[str], cache: Path, result: Checks, bank: tuple | None = None) -> None:
    """Every check of one run; ``cold`` is the first cold ``--out``, and
    ``bank`` the (spec, output) of a traced run's RevPred pass."""
    from repro.sweep import ScenarioGrid

    grid = list(ScenarioGrid.from_spec(spec))
    for index, text in enumerate(resumes):
        result.add(f"resume_equals_cold[{index}]", checks.text_problems("--resume vs cold", text, cold))
    for index, text in enumerate(colds[1:], start=1):
        result.add(f"cold_repeats[{index}]", checks.text_problems("cold vs first cold", text, cold))
    result.add("summary_properties", summary_property_problems(grid, cold))
    tasks = [
        (f"markets[seed={s}]", "markets", (s, checks.snapshot_dir(cache, s)))
        for s in workload.seeds(seed)
    ]
    tasks += reference_tasks(grid, cold, None, result)
    if workload.distributed:
        tasks.append(("serial_equals_distributed", "serial", (spec, cold)))
    if bank is not None:
        bank_spec, bank_out = bank
        bank_grid = list(ScenarioGrid.from_spec(bank_spec))
        banks = str(cache / "banks")
        result.add("bank_summary_properties", summary_property_problems(bank_grid, bank_out))
        tasks += reference_tasks(bank_grid, bank_out, banks, result)
        tasks.append(("revpred_beats_majority", "bank_accuracy", (bank_grid[0].seed, banks)))
    result.run_processes(tasks, cache.parent)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def cell_counts(phase: str, cells: int, done: int, wall: float) -> tuple[int, int]:
    failed = cells - min(done, cells)
    print(f"phase {phase}: attempted={cells} failed={failed} wall={wall:.3f}s", flush=True)
    return cells, failed


def run_untraced(workload, seed: int, seconds: float, work: Path, spec_path: Path, spec: dict, result: Checks):
    """Whole rounds of (set-up process, cold sweep, :data:`RESUMES`
    ``--resume`` runs) until ``seconds`` have passed, and at least
    :data:`MIN_ROUNDS`; medians over the rounds."""
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        index = len(rounds)
        setup = measure_setup(workload, seed, work / f"setup{index}.log")
        cache = work / f"round{index}" / "cache"
        cold = sweep_phase(workload, spec_path, cache, work / f"cold{index}.json", False, work / f"cold{index}.log")
        resumes = [
            sweep_phase(workload, spec_path, cache, work / f"resume{index}-{rep}.json", True,
                        work / f"resume{index}-{rep}.log")
            for rep in range(RESUMES)
        ]
        rounds.append((setup, cold, resumes))
        if index:
            # Only the first round's caches are checked in depth.
            remove(cache.parent)
    from repro.sweep import ScenarioGrid

    cells = len(ScenarioGrid.from_spec(spec))
    attempted = failed = 0
    for _, cold, resumes in rounds:
        for phase, run, done in [("cold", cold, cold["executed"])] + [("resume", r, r["cached"]) for r in resumes]:
            if run["rc"] != 0:
                print(run["log"][-2000:], file=sys.stderr)
            a, f = cell_counts(phase, cells, done if run["rc"] == 0 else 0, run["wall"])
            attempted += a
            failed += f
    colds = [c["out"] for _, c, _ in rounds]
    check_outputs(workload, seed, spec, colds[0], [r["out"] for _, _, rs in rounds for r in rs], colds,
                  work / "round0" / "cache", result)
    metrics = {
        "sweep_s": stats.median(c["wall"] for _, c, _ in rounds),
        "resume_s": stats.median(r["wall"] for _, _, rs in rounds for r in rs),
        "setup_s": stats.median(s["wall"] for s, _, _ in rounds),
        "cpu_s": stats.median(c["cpu"] for _, c, _ in rounds),
        "peak_rss_mb": stats.median(c["rss_mb"] for _, c, _ in rounds),
    }
    print(f"rounds: {len(rounds)}", flush=True)
    return attempted, failed, {name: {"value": metrics[name], "unit": unit}
                               for name, unit in declared_units("end_to_end").items()}


def run_traced(workload, seed: int, work: Path, spec: dict, result: Checks):
    setups = [measure_setup(workload, seed, work / f"setup{index}.log") for index in range(TRACED_SETUPS)]
    scipy_s = measure_scipy_import(work)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{workload.name}-seed{seed}.spans.ndjson"
    sides = {}
    processes = {}
    for side in ("twin", "traced"):
        directory = work / side
        directory.mkdir()
        argv = [sys.executable, str(ROOT / "perfbench" / "inproc.py"), "--workload", workload.name,
                "--seed", str(seed), "--dir", str(directory), "--report", str(directory / "report.json")]
        if side == "traced":
            argv += ["--spans", str(spans_path)] + (["--bank"] if workload.traced_bank else [])
        log = open(directory / "log.txt", "w")
        processes[side] = (subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT), log)
        # A serial in-process run keeps one process busy, so its twin
        # runs beside it; a distributed one keeps two busy.
        if workload.distributed:
            processes[side][0].wait()
    for process, log in processes.values():
        process.wait()
        log.close()
    for side, (process, _) in processes.items():
        report_path = work / side / "report.json"
        if process.returncode != 0 or not report_path.is_file():
            print((work / side / "log.txt").read_text()[-3000:], file=sys.stderr)
            raise RuntimeError(f"{side} in-process run failed")
        sides[side] = json.loads(report_path.read_text())
    traced, twin = sides["traced"], sides["twin"]
    attempted = failed = 0
    for side in (twin, traced):
        phases = [("cold", side["cold_executed"]), ("resume", side["resume_cached"])]
        if "bank_s" in side:
            phases.append(("bank", side["bank_executed"]))
        for phase, done in phases:
            cells = side["bank_cells"] if phase == "bank" else side["cells"]
            a, f = cell_counts(phase, cells, done, side[f"{phase}_s"])
            attempted += a
            failed += f
    if workload.distributed:
        result.add("thread_worker_ran", traced["worker_errors"] + twin["worker_errors"])
    cold = Path(traced["cold_out"]).read_text()
    result.add("traced_equals_untraced", checks.text_problems(
        "traced vs untraced cold", cold, Path(twin["cold_out"]).read_text()))
    cache = work / "traced" / "cache"
    check_outputs(workload, seed, spec, cold, [Path(traced["resume_out"]).read_text()], [cold], cache, result,
                  bank=(grids.bank_spec(workload.seeds(seed)), Path(traced["bank_out"]).read_text())
                  if workload.traced_bank else None)
    chrome = SPANS_DIR / f"{workload.name}-seed{seed}.chrome.json"
    converted = launch([sys.executable, "-m", "repro", "trace", "--chrome", str(chrome), "--spans", str(spans_path)],
                       work / "chrome.log")
    expected = f"({traced['spans']} span(s))"
    result.add("chrome_trace_converts", [] if converted["rc"] == 0 and expected in converted["log"]
               else [f"repro trace --chrome: {converted['log'].strip()[-300:]}"])
    layers = dict(traced["layers"])
    layers.setdefault("distrib.tail_lag_s_p50", 0.0)
    layers.setdefault("distrib.tail_lag_s_tail", 0.0)
    layers["import.cli_s"] = stats.median(s["import_s"] for s in setups)
    layers["import.scipy_s"] = scipy_s
    layers["trace.overhead_s"] = traced["cold_s"] - twin["cold_s"]
    layers["revpred.test_accuracy"] = result.extra.get("revpred.test_accuracy", 0.0)
    layers["revpred.test_f1"] = result.extra.get("revpred.test_f1", 0.0)
    print(f"spans: {traced['spans']} written to {spans_path.relative_to(ROOT)}; "
          f"traced cold {traced['cold_s']:.3f}s, untraced twin {twin['cold_s']:.3f}s, "
          f"uncovered by top-level spans {layers['trace.uncovered_s']:.3f}s", flush=True)
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in declared_units("per_layer").items()}
    return attempted, failed, metrics


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units as ``BENCHMARK.json`` declares them."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark[section]}


def environment(work: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
        "filesystem": filesystem_type(work),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }


def filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and (target == fields[1] or target.startswith(fields[1].rstrip("/") + "/")):
            if len(fields[1]) >= len(best):
                best, kind = fields[1], fields[2]
    return kind


def bench(args) -> int:
    workload = grids.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        print("env " + json.dumps(environment(work), sort_keys=True), flush=True)
        spec = workload.spec(args.seed)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec, sort_keys=True))
        result = Checks()
        if args.trace:
            attempted, failed, metrics = run_traced(workload, args.seed, work, spec, result)
        else:
            attempted, failed, metrics = run_untraced(workload, args.seed, args.seconds, work, spec_path, spec, result)
    finally:
        remove(work)
    print(f"checks: attempted={len(result.results)} failed={result.failed}", flush=True)
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def load_runs(path: str) -> list[dict]:
    runs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "metrics" in record:
                runs.append(record)
    return runs


def compare(parent_path: str, child_path: str) -> int:
    parent, child = load_runs(parent_path), load_runs(child_path)
    if not parent or not child:
        print("compare needs at least one result line in each file", file=sys.stderr)
        return 2
    declared = {}
    benchmark = ROOT / "BENCHMARK.json"
    if benchmark.is_file():
        data = json.loads(benchmark.read_text())
        declared = {m["name"]: m for m in data["end_to_end"] + data["per_layer"]}
    print(f"parent: {len(parent)} run(s) from {parent_path}; child: {len(child)} run(s) from {child_path}")
    print(f"{'metric':28} {'parent median [q1, q3]':>30} {'child median [q1, q3]':>30}  pairs won/lost  verdict")
    for name in sorted(set(parent[0]["metrics"]) & set(child[0]["metrics"])):
        info = declared.get(name, {})
        c = stats.compare(
            name,
            [run["metrics"][name]["value"] for run in parent],
            [run["metrics"][name]["value"] for run in child],
            better=info.get("better", "lower"),
            bound=info.get("bound"),
        )
        fmt = "{:.4g} [{:.4g}, {:.4g}]"
        print(f"{name:28} {fmt.format(c.parent[1], c.parent[0], c.parent[2]):>30} "
              f"{fmt.format(c.child[1], c.child[0], c.child[2]):>30}  {c.won:>3}/{c.lost:<3} of {c.pairs:<3} {c.verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(grids.WORKLOADS))
    parser.add_argument("--seed", type=int, default=grids.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHILD"))
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
