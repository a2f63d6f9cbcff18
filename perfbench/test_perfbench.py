"""Tests of the benchmark's own arithmetic, checks and tracing.

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
import subprocess
import threading

import pytest

import measure
import run
import tracing
import workloads
from pqsbfl import protocol
from pqsbfl.sigsuite import SchemeId
from tracing import Span, SpanRecorder
from workloads import Tamper, TamperHook, Workload

# NONE keeps these fast; calibrated NONE submit gas is 173,650 when stored
# and 20,000 less when rejected (no storage write).
TINY = Workload("tiny", SchemeId.NONE, clients=3, rounds=2)
NONE_STORED, NONE_REJECTED, NONE_SIG = 173_650, 153_650, 32


def _non_accuracy(failures):
    # Two-round experiments stay below the accuracy floor by design.
    return [f for f in failures if "accuracy" not in f]


@pytest.mark.parametrize(
    "n, expected", [(19, None), (20, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95)]
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_tail_percentile_rule_over_many_sizes():
    ladder = measure.PERCENTILE_LADDER
    for n in range(20, 3000):
        p = measure.tail_percentile(n)
        assert measure.beyond(n, p) >= 10
        higher = ladder[ladder.index(p) + 1:]
        assert all(measure.beyond(n, q) < 10 for q in higher)


def test_percentile_is_nearest_rank_and_tail_line_states_count():
    values = [i / 1000 for i in range(1, 101)]  # 1..100 ms, shuffled order
    values = values[::2] + values[1::2]
    assert measure.percentile(values, 50) == 0.050
    assert measure.percentile(values, 90) == 0.090
    line = measure.describe_tail(values)
    assert "n=100" in line and "p90 = 90.000 ms" in line and "10 samples beyond" in line


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span("round", 0.0, 10.0, None, 1, 1),
        Span("a", 1.0, 4.0, 0, 1, 2),   # overlaps b on [3, 4]
        Span("b", 3.0, 6.0, 0, 1, 3),
        Span("c", 8.0, 12.0, 0, 1, 2),  # clipped to the parent at 10
        Span("d", 2.0, 3.0, 1, 1, 2),   # grandchild: only a's self time drops
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0]
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == 3.0


def test_worker_thread_spans_parent_to_open_round():
    recorder = SpanRecorder()

    def work():
        with recorder.span("w"):
            pass

    with recorder.span("protocol.run_round", round_id=7):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        with recorder.span("main-child"):
            pass
    outer, in_worker, in_main = recorder.spans
    assert (in_worker.parent, in_worker.round) == (0, 7)
    assert (in_main.parent, in_main.round) == (0, 7)
    assert in_worker.thread != outer.thread


@pytest.mark.parametrize(
    "tamper, counts, gas",
    [
        (None, (3, 0), 4 * NONE_STORED),
        (Tamper("signature", 5), (2, 1), 3 * NONE_STORED + NONE_REJECTED),
        (Tamper("params", 5), (2, 1), 4 * NONE_STORED),
    ],
)
def test_gas_formula_matches_ledger_and_detects_mismatch(tamper, counts, gas):
    config = TINY.config(1)
    state = protocol.init_phase(config)
    hook = TamperHook({} if tamper is None else {1: tamper})
    metrics = protocol.run_round(state, 1, tamper_hook=hook)
    assert (metrics.verified_count, metrics.rejected_count) == counts
    assert workloads.predicted_gas(config, hook, NONE_SIG) == metrics.total_gas == gas
    assert workloads.round_problems(config, metrics, hook, NONE_SIG) == []

    # Checked against the wrong pattern, the counts always disagree; the gas
    # disagrees unless the only difference is a stored submission.
    wrong = TamperHook({} if tamper else {0: Tamper("signature", 0)})
    wrong.sent = hook.sent
    problems = workloads.round_problems(config, metrics, wrong, NONE_SIG)
    assert any("verified/rejected" in p for p in problems)
    gas_differs = tamper is None or tamper.kind == "signature"
    assert any("total_gas" in p for p in problems) == gas_differs


def test_tamper_plan_is_seeded_and_never_covers_a_round():
    fleet = workloads.WORKLOADS["pqc-signed-fleet"]
    plans = [fleet.tamper_plan(9, t) for t in range(1, 101)]
    assert plans == [fleet.tamper_plan(9, t) for t in range(1, 101)]
    assert plans != [fleet.tamper_plan(10, t) for t in range(1, 101)]
    for plan in plans:
        assert sorted(t.kind for t in plan.values()) == ["params", "signature"]


def test_all_tampered_rounds_fail_without_crashing_the_command(monkeypatch, capsys):
    hostile = Workload("all-tampered", SchemeId.NONE, clients=2, rounds=2,
                       tampered_per_round=2)
    monkeypatch.setitem(workloads.WORKLOADS, hostile.name, hostile)
    code = run.main(["--workload", hostile.name, "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    # Both rounds of the timed experiment and the one round of its check
    # repeat fail with NoVerifiedUpdates; setup calls still succeed.
    assert result["failed"] >= 3 and result["attempted"] > result["failed"]


def test_all_runs_each_workload_apart_and_fails_a_child_without_result(monkeypatch, capsys):
    line = {"correct": True, "attempted": 2, "failed": 0,
            "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    outputs = iter(["report\n" + json.dumps(line) + "\n", "Traceback ...\n"])
    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 1, stdout=next(outputs))

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    code = run.main(["--workload", "all", "--seed", "4", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    first, second = workloads.WORKLOADS
    assert [c[c.index("--workload") + 1] for c in commands] == [first, second]
    assert code == 1
    assert result == {"correct": False, "attempted": 3, "failed": 1,
                      "metrics": {f"{first}.setup_s": {"value": 0.5, "unit": "s"}}}


def test_failures_are_recorded_per_round():
    everyone = {cid: Tamper("signature", 1) for cid in range(TINY.clients)}
    outcome = measure.Outcome()
    exp = measure.run_experiment(TINY.config(1), lambda t: everyone if t == 2 else {},
                                 outcome, NONE_SIG)
    assert [f.split(":")[:2] for f in outcome.failures] == [["round 2", " NoVerifiedUpdates"]]
    assert len(exp.round_s) == 1 and exp.verified == TINY.clients


def test_traced_restores_every_wrapped_function():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.LAYER_TARGETS]
    with pytest.raises(RuntimeError):
        with tracing.traced(SpanRecorder()):
            during = [vars(owner)[attr] for owner, attr, _, _ in tracing.LAYER_TARGETS]
            assert all(d is not b for d, b in zip(during, before))
            raise RuntimeError("leave the block early")
    after = [vars(owner)[attr] for owner, attr, _, _ in tracing.LAYER_TARGETS]
    assert all(a is b for a, b in zip(after, before))


def test_traced_run_counts_layers_and_keeps_the_trajectory():
    result = measure.measure_traced(TINY, 5)
    assert _non_accuracy(result.outcome.failures) == []
    m = {k: v for k, (v, _) in result.metrics.items()}
    n, rounds = TINY.clients, TINY.rounds
    assert m["fedcore.local_train.calls"] == n * rounds
    assert m["sigsuite.sign.calls"] == (n + 1) * rounds        # clients + aggregator
    assert m["sigsuite.verify.calls"] == (n + 1) * rounds      # through the ledger
    assert m["sigsuite.digest_model.per_update"] == pytest.approx((2 * n + 1) / n)
    assert m["ledger.mine_block.calls"] == rounds + 1          # plus registration
    assert m["ledger.submit_update.stored_ratio"] == 1.0
    assert m["keyexpand.expand_seed.calls"] == 0
    assert m["protocol.run_round.self_ms"] > 0
    assert 1 <= m["fedcore.local_train.threads"] <= n
