"""Run a workload, check its outputs and compute its metrics.

Rounds are a closed loop: each ``run_round`` starts only after the previous
one returned, from one single-threaded caller. One run times whole
experiments (setup, rounds, audit) while the next still fits in the run's
time, at least one, and pools their rounds; setup is sampled many times and
reported as a median. The trajectory digest is then compared with a check
repeat of the same seed, which runs only the first rounds when one timed
experiment filled the run.
"""

import gc
import hashlib
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from pqsbfl import ledger, protocol

import tracing
from workloads import ACCURACY_FLOOR, TamperHook, Workload, round_problems, signature_bytes

# Extra init_phase calls sample setup_s, in two batches, one before and one
# after the timed experiments so the median spans the run: each batch runs
# until it has this many samples and they took this long (capped), so a
# cheap setup is still a median of many.
SETUP_SAMPLES, SETUP_SAMPLE_S, SETUP_SAMPLES_MAX = 3, 0.5, 75
# Rounds of the check repeat, as a share of the workload's rounds.
CHECK_SHARE = 4
# Percentiles considered for the tail of the round-time distribution.
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p``-th percentile of ``n``."""
    return n - math.ceil(p / 100 * n)


def tail_percentile(n: int):
    """Highest ladder percentile with at least ten of ``n`` samples beyond
    it, or None when even the median has fewer."""
    fit = [p for p in PERCENTILE_LADDER if beyond(n, p) >= MIN_BEYOND]
    return fit[-1] if fit else None


def describe_tail(values_s) -> str:
    n = len(values_s)
    p = tail_percentile(n)
    if p is None:
        return f"rounds: n={n}, too few for a tail percentile"
    return (
        f"rounds: n={n}; tail p{p:g} = {percentile(values_s, p) * 1e3:.3f} ms "
        f"({beyond(n, p)} samples beyond)"
    )


@dataclass
class Outcome:
    """Operations attempted and the problems of those that failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


@dataclass
class Experiment:
    setup_s: float
    complete: bool       # ran every configured round
    round_s: list        # wall time of each round that returned
    verified: int        # client updates aggregated, over all rounds
    submissions: int     # client submissions, over all rounds
    final_accuracy: float
    digests: list        # model digest of each round that returned
    gas_per_update: float
    audit_s: float

    @property
    def trajectory(self) -> str:
        """SHA3-256 over the rounds' model digests."""
        return hashlib.sha3_256("".join(self.digests).encode()).hexdigest()


def run_experiment(config, plan, outcome: Outcome, aggregator_sig_bytes: int,
                   rounds: int = None) -> Experiment:
    """One experiment through the public API, every output checked.

    ``plan(t)`` gives round ``t``'s tampering. A round that raises counts as
    one failed operation and the next round still runs. ``rounds`` stops
    early, after the first so many rounds.
    """
    rounds = config.rounds if rounds is None else rounds
    gc.collect()  # no garbage of earlier experiments is collected during this one
    start = time.perf_counter()
    state = protocol.init_phase(config)
    setup_s = time.perf_counter() - start
    outcome.record([])

    round_s, digests, gas = [], [], []
    verified = submissions = 0
    accuracy = state.initial_accuracy
    for t in range(1, rounds + 1):
        hook = TamperHook(plan(t))
        start = time.perf_counter()
        try:
            metrics = protocol.run_round(state, t, tamper_hook=hook)
        except Exception as exc:  # a failed round must not end the run
            outcome.record([f"round {t}: {type(exc).__name__}: {exc}"])
            traceback.print_exc()
            continue
        round_s.append(time.perf_counter() - start)
        outcome.record(round_problems(config, metrics, hook, aggregator_sig_bytes))
        verified += metrics.verified_count
        submissions += len(hook.sent)
        digests.append(metrics.model_digest)
        gas.append(metrics.mean_gas_per_update)
        accuracy = metrics.accuracy

    start = time.perf_counter()
    check = ledger.chain_verify(state.ledger.chain)
    audit_s = time.perf_counter() - start
    outcome.record([] if check.intact else [f"chain_verify: broken at height {check.broken_height}"])

    return Experiment(
        setup_s=setup_s,
        complete=rounds == config.rounds,
        round_s=round_s,
        verified=verified,
        submissions=submissions,
        final_accuracy=accuracy,
        digests=digests,
        gas_per_update=statistics.fmean(gas) if gas else 0.0,
        audit_s=audit_s,
    )


def experiment_problems(exp: Experiment, reference: Experiment = None) -> list:
    """Checks on a whole experiment: the accuracy floor after all rounds,
    and the trajectory equal to an earlier repeat of the same seed over the
    rounds both ran."""
    problems = []
    if exp.complete and exp.final_accuracy < ACCURACY_FLOOR:
        problems.append(f"final accuracy {exp.final_accuracy} below {ACCURACY_FLOOR}")
    if reference is not None:
        shared = min(len(exp.digests), len(reference.digests))
        if exp.digests[:shared] != reference.digests[:shared]:
            problems.append(f"trajectory over {shared} rounds differs from an earlier repeat")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(experiments: list, setup_samples: list) -> dict:
    """End-to-end metrics, name -> (value, unit), over the pooled repeats."""
    rounds = [s for e in experiments for s in e.round_s]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "round_p50_ms": (percentile(rounds, 50) * 1e3, "ms"),
        "round_p90_ms": (percentile(rounds, 90) * 1e3, "ms"),
        "updates_per_s": (sum(e.verified for e in experiments) / sum(rounds), "1/s"),
        "experiment_s": (statistics.median(e.setup_s + sum(e.round_s) for e in experiments), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "final_accuracy": (statistics.median(e.final_accuracy for e in experiments), "fraction"),
        "audit_s": (statistics.median(e.audit_s for e in experiments), "s"),
        "gas_per_update": (experiments[0].gas_per_update, "gas"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".rejected", ".threads")):
        return "count"
    if name.endswith(".per_update"):
        return "1/update"
    return "ratio"


@dataclass
class Result:
    outcome: Outcome
    metrics: dict                                 # name -> (value, unit)
    notes: list = field(default_factory=list)     # human-readable report lines
    round_ms: list = field(default_factory=list)  # every timed round, in order

    @property
    def correct(self) -> bool:
        return not self.outcome.failures

    def to_json(self, names) -> dict:
        """The result line, carrying those of the metrics ``names`` that
        were measured (a run whose rounds all failed measures none)."""
        return {
            "correct": self.correct,
            "attempted": self.outcome.attempted,
            "failed": len(self.outcome.failures),
            "metrics": {
                k: dict(zip(("value", "unit"), self.metrics[k])) for k in names if k in self.metrics
            },
        }


def sample_setup(config, outcome: Outcome) -> list:
    """Wall times of one batch of ``init_phase`` calls."""
    samples = []
    while len(samples) < SETUP_SAMPLES_MAX and (
        len(samples) < SETUP_SAMPLES or sum(samples) < SETUP_SAMPLE_S
    ):
        start = time.perf_counter()
        protocol.init_phase(config)
        samples.append(time.perf_counter() - start)
        outcome.record([])
    return samples


def pool_threads(config) -> int:
    """Threads the program trains clients on, observed by tracing the first
    round of a fresh experiment (run after the measurement)."""
    recorder = tracing.SpanRecorder()
    state = protocol.init_phase(config)
    with tracing.traced(recorder):
        protocol.run_round(state, 1)
    return tracing.layer_metrics(recorder, 0)["fedcore.local_train.threads"]


def _inputs(workload: Workload, seed: int):
    """The run's config and round -> tamper plan."""
    return workload.config(seed), lambda t: workload.tamper_plan(seed, t)


def measure(workload: Workload, seed: int, seconds: float) -> Result:
    """Untraced run: setup samples, timed experiments, a check repeat."""
    outcome = Outcome()
    sig_bytes = signature_bytes(workload.scheme)
    started = time.perf_counter()
    config, plan = _inputs(workload, seed)

    setup_samples = sample_setup(config, outcome)
    experiments = []
    timed_from = time.perf_counter()
    while True:
        exp = run_experiment(config, plan, outcome, sig_bytes)
        outcome.record(experiment_problems(exp, experiments[0] if experiments else None))
        experiments.append(exp)
        now = time.perf_counter()
        if now - started + (now - timed_from) / len(experiments) > seconds:
            break
    if len(experiments) == 1:
        check = run_experiment(config, plan, outcome, sig_bytes,
                               rounds=max(1, config.rounds // CHECK_SHARE))
        outcome.record(experiment_problems(check, experiments[0]))
    setup_samples += sample_setup(config, outcome)

    rounds = [s for e in experiments for s in e.round_s]
    notes = [
        f"timed experiments: {len(experiments)}; setup samples: {len(setup_samples)}",
        describe_tail(rounds) if rounds else "rounds: none returned",
        f"trajectory sha3-256 = {experiments[0].trajectory}",
        f"failed_ratio = {len(outcome.failures)}/{outcome.attempted} operations",
    ]
    metrics = end_to_end(experiments, setup_samples) if rounds else {}
    return Result(outcome, metrics, notes, [s * 1e3 for s in rounds])


def measure_traced(workload: Workload, seed: int, spans_path=None) -> Result:
    """Traced run: one untraced experiment, then the same seed with every
    layer wrapped; the per-layer metrics come from the second, and the
    tracing overhead is its end-to-end results minus the first's."""
    outcome = Outcome()
    sig_bytes = signature_bytes(workload.scheme)
    config, plan = _inputs(workload, seed)

    plain = run_experiment(config, plan, outcome, sig_bytes)
    outcome.record(experiment_problems(plain))
    recorder = tracing.SpanRecorder()
    with tracing.traced(recorder):
        traced = run_experiment(config, plan, outcome, sig_bytes)
    outcome.record(experiment_problems(traced, plain))
    if spans_path is not None:
        recorder.write_jsonl(spans_path)

    metrics = tracing.layer_metrics(recorder, traced.submissions)
    notes = []
    if plain.round_s and traced.round_s:
        before = end_to_end([plain], [plain.setup_s])
        after = end_to_end([traced], [traced.setup_s])
        overhead = {k: after[k][0] - before[k][0] for k in before if k != "peak_rss_mb"}
        metrics["trace.overhead.round_p50_ms"] = overhead["round_p50_ms"]
        metrics["trace.overhead.experiment_s"] = overhead["experiment_s"]
        notes.append("tracing overhead (traced - untraced): " + ", ".join(
            f"{k} {v:+.6g} {before[k][1]}" for k, v in overhead.items()
        ))
    notes.append(f"spans recorded: {len(recorder.spans)}")
    return Result(outcome, {k: (v, layer_unit(k)) for k, v in metrics.items()}, notes)
