"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import measure  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import accuracy_verdict, check_run, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- every workload runs end to end on a tiny run length ----------------------

# Per workload: per-layer metrics that must be non-zero when it is traced.
LAYERS_RUN = {
    "paper-k100": ("fl.local_solves", "select.rounding_calls", "datasets.draws"),
    "population-k5000": ("select.solver_calls", "fl.eval_clients", "fl.aggregate_s"),
    "byzantine-des": ("sim.rounds", "ckpt.writes", "ckpt.bytes", "fl.local_solves"),
    "live-fleet": ("live.frames_sent", "live.bytes_recv", "live.iteration_wait_s"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_end_to_end(name, tmp_path):
    epochs = 10 if name == "byzantine-des" else 3   # one snapshot at epoch 10
    tiny = dataclasses.replace(WORKLOADS[name], epochs=epochs, accuracy_floor=0.0)
    plain = measure.run_workload(tiny, 0, 1, False, tmp_path, None)
    assert plain.failed == 0, plain.reasons
    assert plain.attempted == epochs
    assert [n for n, *_ in measure.END_TO_END + measure.REPORTED] == list(plain.metrics)
    assert all(v > 0 for v in plain.metrics.values()), plain.metrics

    traced = measure.run_workload(tiny, 0, 2, True, tmp_path, None)
    assert traced.failed == 0, traced.reasons   # tracing leaves final_w unchanged
    assert list(traced.metrics) == list(measure.PER_LAYER)
    for metric in LAYERS_RUN[name]:
        assert traced.metrics[metric] > 0, metric
    assert traced.metrics["trace.coverage_frac"] > 0.9
    assert {s[tracing.EPOCH] for s in traced.spans} >= set(range(epochs))


def test_live_shutdown_is_not_part_of_the_last_epoch(tmp_path, monkeypatch):
    from repro.live.runtime import LiveRuntime

    close = LiveRuntime.close

    def slow_close(self):
        time.sleep(2.0)
        close(self)

    monkeypatch.setattr(LiveRuntime, "close", slow_close)
    rep = measure.time_experiment(WORKLOADS["live-fleet"], 0, 3, tmp_path)
    assert len(rep.walls) == 3 and rep.walls[-1] < 2.0
    assert LiveRuntime.close is slow_close


def test_install_restores_every_boundary():
    from repro.core.fedl import FedLPolicy
    from repro.fl import round_runner

    before = (FedLPolicy.select, round_runner.run_federated_round)
    inst = tracing.install(tracing.Tracer(), FedLPolicy)
    assert FedLPolicy.select is not before[0]
    assert round_runner.run_federated_round is not before[1]
    inst.remove()
    assert (FedLPolicy.select, round_runner.run_federated_round) == before


# -- the checker counts failures ----------------------------------------------


def _records(costs, selected):
    return [
        SimpleNamespace(cost_spent=c, num_selected=s)
        for c, s in zip(costs, selected)
    ]


def _check(records, w, **kw):
    args = dict(budget=10.0, charges=[r.cost_spent for r in records],
                min_participants=2, epochs=4)
    args.update(kw)
    return check_run(records, w, **args)


def test_checker_passes_a_good_run():
    w = np.linspace(-1, 1, 7)
    v = _check(_records([2, 2, 2, 2], [2, 3, 2, 2]), w,
               expected_digest=digest(w), reference_w=w.copy())
    assert (v.attempted, v.failed, v.reasons) == (4, 0, [])


def test_overspent_budget_fails_the_epochs_past_c():
    v = _check(_records([4, 4, 4, 4], [2, 2, 2, 2]), np.zeros(3))
    assert v.failed == 2          # cumulative spend 12 and 16 exceed C=10


def test_spend_other_than_the_selected_prices_fails_that_epoch():
    records = _records([2, 2, 2, 2], [2, 2, 2, 2])
    assert _check(records, np.zeros(3), charges=[2, 2, 3, 2]).failed == 1
    assert _check(records, np.zeros(3), charges=[2, 2, 2]).failed == 1


def test_participation_floor_breach_fails_that_epoch():
    v = _check(_records([1, 1, 1, 1], [2, 1, 2, 2]), np.zeros(3))
    assert v.failed == 1


def test_perturbed_final_w_fails_every_epoch():
    w = np.linspace(-1, 1, 7)
    bad = w.copy()
    bad[3] = np.nextafter(bad[3], 1.0)
    good = _records([1, 1, 1, 1], [2, 2, 2, 2])
    assert _check(good, bad, expected_digest=digest(w)).failed == 4
    assert _check(good, bad, reference_w=w).failed == 4
    bad[0] = np.nan
    assert _check(good, bad).failed == 4


def test_short_run_fails_the_missing_epochs():
    assert _check(_records([1, 1], [2, 2]), np.zeros(3)).failed == 2


def test_accuracy_at_or_below_the_floor_fails_the_whole_run(tmp_path):
    assert accuracy_verdict(0.5, 0.5, 12).failed == 12
    assert accuracy_verdict(0.51, 0.5, 12).failed == 0
    tiny = dataclasses.replace(WORKLOADS["paper-k100"], epochs=3, accuracy_floor=1.0)
    out = measure.run_workload(tiny, 0, 2, False, tmp_path, None)
    assert (out.attempted, out.failed) == (6, 6)


# -- span arithmetic ------------------------------------------------------------


def _tree():
    # loop [0,10] > round [1,6] > (solve [2,4], aggregate [4,5]); select [7,8]
    return [
        ["experiments.loop", 0.0, 10.0, -1, -1],
        ["fl.round", 1.0, 6.0, 0, 0],
        ["fl.local_solve", 2.0, 4.0, 1, 0],
        ["fl.aggregate", 4.0, 5.0, 1, 0],
        ["select", 7.0, 8.0, 0, 1],
    ]


def test_self_time_is_duration_minus_child_coverage():
    assert tracing.self_times(_tree()) == [4.0, 2.0, 2.0, 1.0, 1.0]


def test_overlapping_children_are_covered_once():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 5.0, 0, 0], ["c", 3.0, 12.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_coverage_and_loop_self():
    tr = tracing.Tracer()
    tr.spans = _tree()
    m = measure.layer_metrics(tr, workers=1)
    assert m["loop.self_s"] == 4.0
    assert m["trace.coverage_frac"] == pytest.approx(0.6)
    assert (m["fl.round_s"], m["fl.round_self_s"]) == (5.0, 2.0)
    assert (m["fl.local_solve_s"], m["fl.aggregate_s"], m["select_s"]) == (2.0, 1.0, 1.0)


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct, n = measure.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert measure.tail([3.0, 1.0, 2.0])[0] == 3.0


# -- the contract file and the command ---------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, measure.unit_of(n)) for n in measure.PER_LAYER
    ]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-k100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_digest_is_compared_only_where_recorded():
    import run

    env = run.environment((0.0, 0.0, 0.0))
    workload = WORKLOADS["paper-k100"]
    recorded = json.loads(run.DIGESTS.read_text())[workload.name]
    expected, note = run._expected_digest(workload, recorded["seed"], env)
    if recorded["platform"] == run.platform_key(env):
        assert (expected, note) == (recorded["sha256"], "applied")
    assert run._expected_digest(workload, recorded["seed"] + 1, env)[0] is None
    shorter = dataclasses.replace(workload, epochs=workload.epochs - 1)
    assert run._expected_digest(shorter, recorded["seed"], env)[0] is None
