"""Tests of the benchmark's own arithmetic and of its output checks.

Each output check is shown to fail on a perturbed summary or trace.
Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json

import pytest

from perfbench import checks, grids, spans, stats
from perfbench.run import reference_sample, scipy_import_seconds


@pytest.fixture(autouse=True)
def _fresh_contexts(monkeypatch):
    """Keep this module's experiment contexts out of the process memo."""
    from repro.sweep import runner

    monkeypatch.setattr(runner, "_CONTEXT_CACHE", {})


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    # Children overlap (2-4 and 3-5) and one pokes out of the parent.
    assert stats.self_time(0.0, 10.0, [(2.0, 4.0), (3.0, 5.0), (9.0, 12.0)]) == 6.0
    assert stats.self_time(0.0, 10.0, []) == 10.0


def test_covered_merges_overlaps():
    assert stats.covered([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert stats.covered([]) == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(40) == 75
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(39) is None
    values = list(range(1, 101))
    value, p = stats.tail(values)
    assert (value, p) == (90, 90)
    assert sum(1 for v in values if v > value) == 10


def test_tail_of_a_small_sample_is_the_median():
    assert stats.tail([1.0, 2.0, 9.0]) == (2.0, None)


def test_compare_rule_needs_nine_tenths_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v - 1.0 for v in parent]
    assert stats.compare("t", parent, faster).verdict == "gain"
    assert stats.compare("t", faster, parent).verdict == "loss"
    # Eight of ten pairs won is not enough.
    mixed = faster[:8] + [v + 1.0 for v in parent[8:]]
    assert stats.compare("t", parent, mixed).verdict != "gain"
    # Every pair won by a hair, inside the parent's own spread.
    hair = [v - 0.01 for v in parent]
    assert stats.compare("t", parent, hair).verdict != "gain"
    assert stats.compare("t", parent, hair, bound=0.1).verdict == "within bound"
    # "higher is better" flips the direction.
    assert stats.compare("t", parent, faster, better="higher").verdict == "loss"


def test_scipy_import_share_counts_only_outermost_scipy_modules():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       scipy.linalg._fblas",
        "import time:       400 |        450 |     scipy.linalg",
        "import time:      1000 |       1750 |   repro.earlycurve.model",
        "import time:        10 |         10 | numpy",
    ])
    assert scipy_import_seconds(report) == pytest.approx(750e-6)


def test_workload_seeds_shift_the_market_seeds():
    from repro.sweep import ScenarioGrid

    sizes = {"sim_grid": 26, "fleet_grid": 432}
    for name, workload in grids.WORKLOADS.items():
        first = ScenarioGrid.from_spec(workload.spec(0))
        again = ScenarioGrid.from_spec(workload.spec(0))
        other = ScenarioGrid.from_spec(workload.spec(1))
        assert len(first) == sizes[name]
        assert [s.fingerprint() for s in first] == [s.fingerprint() for s in again]
        assert {s.seed for s in first}.isdisjoint({s.seed for s in other})


def test_reference_sample_covers_every_predictor_and_policy():
    from repro.sweep import ScenarioGrid

    workload = grids.WORKLOADS["sim_grid"]
    picked = reference_sample(ScenarioGrid.from_spec(workload.spec(0)), grids.SAMPLE_WORKLOAD)
    assert {(s.predictor, s.checkpoint_policy) for s in picked} == {
        ("oracle", "notice"),
        ("constant", "notice"),
        ("oracle", "periodic:1800"),
        ("oracle", "prediction:0.5:300"),
    }
    bank = ScenarioGrid.from_spec(grids.bank_spec(workload.seeds(0)))
    assert [(s.predictor, s.workload) for s in reference_sample(bank, grids.SAMPLE_WORKLOAD)] == [
        ("revpred", "SVM")
    ]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_layer_metrics_self_time_and_uncovered_remainder():
    recorder = spans.Recorder()
    phase = recorder.open("phase.cold")
    run = recorder.open("core.run")
    for _ in range(2):
        recorder.close(recorder.open("core.provision"))
    recorder.close(run)
    cold = recorder.close(phase)
    phase = recorder.open("phase.resume")
    resume = recorder.close(phase)
    by_name = {s.name: s for s in recorder.spans}
    provisions = [s for s in recorder.spans if s.name == "core.provision"]
    assert all(s.parent == by_name["core.run"].span_id for s in provisions)
    metrics = spans.layer_metrics(recorder, {"cold": cold, "resume": resume})
    run_span = by_name["core.run"]
    assert metrics["core.provisions"] == 2
    assert metrics["core.run_self_s"] == pytest.approx(
        run_span.seconds - sum(s.seconds for s in provisions)
    )
    assert metrics["trace.uncovered_s"] == pytest.approx(
        cold.seconds - run_span.seconds + resume.seconds
    )


def test_patch_records_cells_and_unpatch_restores(tmp_path):
    from repro.sweep import runner
    from repro.sweep.scenario import Scenario
    from repro.sweep.cache import SweepCache

    original_run, original_store = runner.run_scenario, SweepCache.store
    recorder = spans.Recorder()
    recorder.patch()
    try:
        scenario = Scenario(workload="LoR", approach="single_spot", instance="r4.large", seed=7)
        result = runner.SweepRunner(jobs=1, cache=tmp_path / "cache").run([scenario])
    finally:
        recorder.unpatch()
    assert runner.run_scenario is original_run and SweepCache.store is original_store
    names = [s.name for s in recorder.spans]
    assert "sweep.cell" in names and "core.baseline" in names and "cache.store" in names
    cell = next(s for s in recorder.spans if s.name == "sweep.cell")
    baseline = next(s for s in recorder.spans if s.name == "core.baseline")
    assert cell.cell == baseline.cell == scenario.fingerprint()
    assert result.executed_count == 1
    path = tmp_path / "spans.ndjson"
    assert recorder.write(path) == len(recorder.spans)
    from repro.obs import trace as trace_mod

    assert len(trace_mod.chrome_trace(trace_mod.load_events(path))["traceEvents"]) == len(recorder.spans)


# ----------------------------------------------------------------------
# Output checks fail on perturbed inputs
# ----------------------------------------------------------------------
def _baseline_cell():
    from repro.sweep.runner import run_scenario
    from repro.sweep.scenario import Scenario

    scenario = Scenario(workload="LoR", approach="single_spot", instance="r4.large", seed=7)
    return scenario, run_scenario(scenario)


def test_summary_properties_fail_on_perturbed_summaries():
    scenario, summary = _baseline_cell()
    info = scenario.to_dict()
    assert checks.summary_problems(info, summary, 16) == []
    perturbations = {
        "num_jobs": 15,
        "selected": summary["selected"][:-1],
        "cost": -1.0,
        "jct_hours": 0.0,
        "steps_completed": 0.0,
        "free_step_fraction": 1.5,
        "overhead_fraction": -0.1,
        "refund_fraction": summary["refund_fraction"] + 1e-9,
        "workload": "SVM",
    }
    for key, value in perturbations.items():
        assert checks.summary_problems(info, {**summary, key: value}, 16), key


def test_text_checks_fail_on_one_changed_summary():
    from repro.sweep import sweep_out_text

    _, summary = _baseline_cell()
    text = sweep_out_text([summary, summary])
    assert checks.text_problems("x", text, text) == []
    changed = sweep_out_text([summary, {**summary, "cost": summary["cost"] * 1.0000001}])
    assert "differs in ['cost']" in checks.text_problems("x", changed, text)[0]
    assert checks.text_problems("x", sweep_out_text([summary]), text)


def test_market_check_fails_on_a_perturbed_trace():
    from repro.cloud.instance import DEFAULT_INSTANCE_POOL
    from repro.market.dataset import generate_default_dataset
    from repro.market.reference import generate_loop_reference

    instance = DEFAULT_INSTANCE_POOL[0]
    trace = generate_default_dataset(seed=5, days=2.0, instances=[instance])[instance.name]
    reference = generate_loop_reference(instance, days=2.0, seed=5)
    assert checks.trace_problems(5, instance.name, trace.times, trace.prices,
                                 reference.times, reference.prices) == []
    prices = trace.prices.copy()
    prices[len(prices) // 2] += 0.0001
    assert checks.trace_problems(5, instance.name, trace.times, prices,
                                 reference.times, reference.prices)
    assert checks.trace_problems(5, instance.name, trace.times[:-1], trace.prices[:-1],
                                 reference.times, reference.prices)


def test_reference_core_check_fails_on_a_perturbed_summary():
    from repro.sweep.cache import canonical_json
    from repro.sweep.runner import run_scenario
    from repro.sweep.scenario import Scenario

    scenario = Scenario(workload="LiR", theta=1.0, predictor="constant", seed=7)
    summary = run_scenario(scenario)
    problems, _ = checks.reference_cell_task(scenario.to_dict(), canonical_json(summary), None)
    assert problems == []
    perturbed = {**summary, "lost_steps": summary["lost_steps"] + 1.0}
    problems, _ = checks.reference_cell_task(scenario.to_dict(), canonical_json(perturbed), None)
    assert problems and "lost_steps" in problems[0]


def test_serial_check_fails_on_a_perturbed_output():
    from repro.sweep import ScenarioGrid, SweepRunner, sweep_out_text

    spec = {"seed": 7, "approach": "single_spot", "workload": "LoR", "instance": ["r4.large", "m4.4xlarge"]}
    summaries = SweepRunner(jobs=1).run(ScenarioGrid.from_spec(spec)).summaries()
    assert checks.serial_task(spec, sweep_out_text(summaries))[0] == []
    summaries[1] = {**summaries[1], "selected": list(reversed(summaries[1]["selected"]))}
    assert checks.serial_task(spec, sweep_out_text(summaries))[0]


def test_accuracy_check_fails_at_or_below_the_majority_rate():
    accuracy, f1, majority = checks.classification([0.9, 0.1, 0.2, 0.8], [True, False, False, False])
    assert (accuracy, majority) == (0.75, 0.75)
    assert f1 == pytest.approx(2 / 3)
    assert checks.accuracy_problems(accuracy, majority)
    assert checks.accuracy_problems(0.8, 0.75) == []


def test_failed_task_is_reported_not_raised():
    label, problems, extra, seconds = checks.run_task(("m", "markets", (1, "/nonexistent/snapshot")))
    assert label == "m" and problems and extra == {} and seconds >= 0


def test_split_balances_the_longest_checks_first():
    tasks = [("m1", "markets", (1, None)), ("m2", "markets", (2, None)),
             ("r", "reference_cell", ({"predictor": "revpred"}, "", None)),
             ("o", "reference_cell", ({"predictor": "oracle"}, "", None))]
    shares = checks.split(tasks, 2)
    assert sorted(t[0] for share in shares for t in share) == ["m1", "m2", "o", "r"]
    assert [t[0] for t in shares[0]] == ["r"]


def test_check_process_writes_its_results(tmp_path):
    tasks, results = tmp_path / "t.json", tmp_path / "r.json"
    tasks.write_text(json.dumps([["m", "markets", [1, "/nonexistent/snapshot"]]]))
    assert checks.main([str(tasks), str(results)]) == 0
    [(label, problems, extra, seconds)] = json.loads(results.read_text())
    assert label == "m" and problems


def test_compare_mode_reads_result_lines(tmp_path, capsys):
    from perfbench.run import compare

    def lines(values):
        return "\n".join(
            ["env {}"] + [json.dumps({"correct": True, "attempted": 1, "failed": 0,
                                      "metrics": {"sweep_s": {"value": v, "unit": "s"}}}) for v in values]
        )

    (tmp_path / "p").write_text(lines([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.0]))
    (tmp_path / "c").write_text(lines([8.0, 8.1, 7.9, 8.0, 8.2, 7.8, 8.1, 8.0, 7.9, 8.0]))
    assert compare(str(tmp_path / "p"), str(tmp_path / "c")) == 0
    out = capsys.readouterr().out
    assert "sweep_s" in out and "gain" in out
