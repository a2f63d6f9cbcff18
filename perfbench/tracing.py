"""Span recorder for the traced benchmark run.

The program has no spans of its own, so the traced run wraps the layer
functions it calls (module attributes and ledger methods) for the duration of
one experiment and restores them afterwards. Each call becomes a span with a
name, start, end, parent span, round id and thread id, kept in memory and
written out when the run ends.

Client work runs on the program's worker threads, whose span stacks start
empty; such spans take the open ``run_round`` span as their parent, which is
sound because rounds run one at a time. Self time is a span's duration minus
the union of its children's intervals, so overlapping child spans from
several threads are not subtracted twice.
"""

import collections
import contextlib
import functools
import json
import statistics
import threading
import time
from dataclasses import dataclass

from pqsbfl import _mldsa_keyexpand, fedcore, ledger, protocol, sigsuite


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into SpanRecorder.spans
    round: int | None
    thread: int


class SpanRecorder:
    """In-memory spans plus named counters of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._round_span = None
        self._round = None

    @contextlib.contextmanager
    def span(self, name: str, round_id: int = None):
        """Record one span; with ``round_id`` it is the round's root span."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._round_span
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), float("nan"), parent,
                     round_id if round_id is not None else self._round,
                     threading.get_ident())
            )
        if round_id is not None:
            self._round_span, self._round = index, round_id
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()
            if round_id is not None:
                self._round_span = self._round = None

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.round, s.thread]))
                out.write("\n")


def _count_rejected(recorder, receipt):
    recorder.counters["ledger.submit_update.rejected"] += not receipt.verified


# (owner, attribute, span name, result hook). ``ledger`` imports ``verify``
# by name, so both bindings are wrapped to see every verification.
LAYER_TARGETS = (
    (_mldsa_keyexpand, "expand_seed", "keyexpand.expand_seed", None),
    (sigsuite, "keygen", "sigsuite.keygen", None),
    (sigsuite, "sign", "sigsuite.sign", None),
    (sigsuite, "verify", "sigsuite.verify", None),
    (ledger, "verify", "sigsuite.verify", None),
    (sigsuite, "digest_model", "sigsuite.digest_model", None),
    (fedcore, "local_train", "fedcore.local_train", None),
    (fedcore, "aggregate", "fedcore.aggregate", None),
    (fedcore, "evaluate", "fedcore.evaluate", None),
    (ledger.SimulatedLedger, "submit_update", "ledger.submit_update", _count_rejected),
    (ledger.SimulatedLedger, "submit_aggregation", "ledger.submit_aggregation", None),
    (ledger.SimulatedLedger, "mine_block", "ledger.mine_block", None),
    (ledger, "chain_verify", "ledger.chain_verify", None),
    (protocol, "init_phase", "protocol.init_phase", None),
    (protocol, "run_round", "protocol.run_round", None),
)


def _wrap(recorder, name, fn, on_result):
    # A run_round span is its round's root; the round number is argument t.
    is_round = name == "protocol.run_round"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        round_id = (args[1] if len(args) > 1 else kwargs["t"]) if is_round else None
        with recorder.span(name, round_id):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(recorder, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every layer target for the duration of the block, then restore it."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in LAYER_TARGETS]
    try:
        for owner, attr, name, on_result in LAYER_TARGETS:
            setattr(owner, attr, _wrap(recorder, name, vars(owner)[attr], on_result))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Total length covered by ``intervals`` after clipping them to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_start, cur_end = 0.0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - union_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _ms_total(values):
    return sum(values) * 1e3


def _ms_p50(values):
    return statistics.median(values) * 1e3 if values else 0.0


def _decile_ms(values, last: bool):
    if not values:
        return 0.0
    k = max(1, len(values) // 10)
    part = values[-k:] if last else values[:k]
    return sum(part) / len(part) * 1e3


def layer_metrics(recorder: SpanRecorder, submissions: int) -> dict:
    """Per-layer metrics of one traced experiment.

    ``submissions`` is the number of client submissions the experiment made,
    the base of ``sigsuite.digest_model.per_update``.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    by_name = collections.defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def durations(name):
        return [spans[i].end - spans[i].start for i in by_name[name]]

    def self_ms(name):
        return sum(selfs[i] for i in by_name[name]) * 1e3

    train = [(spans[i].start, spans[i].end) for i in by_name["fedcore.local_train"]]
    train_busy = sum(e - s for s, e in train)
    train_wall = union_length(train)
    threads_per_round = collections.defaultdict(set)
    for i in by_name["fedcore.local_train"]:
        threads_per_round[spans[i].round].add(spans[i].thread)
    submits = len(by_name["ledger.submit_update"])
    rejected = recorder.counters["ledger.submit_update.rejected"]
    mine = durations("ledger.mine_block")

    return {
        "keyexpand.expand_seed.calls": len(by_name["keyexpand.expand_seed"]),
        "keyexpand.expand_seed.total_ms": _ms_total(durations("keyexpand.expand_seed")),
        "sigsuite.keygen.self_ms": self_ms("sigsuite.keygen"),
        "protocol.init_phase.self_ms": self_ms("protocol.init_phase"),
        "sigsuite.sign.calls": len(by_name["sigsuite.sign"]),
        "sigsuite.sign.p50_ms": _ms_p50(durations("sigsuite.sign")),
        "sigsuite.sign.total_ms": _ms_total(durations("sigsuite.sign")),
        "sigsuite.verify.calls": len(by_name["sigsuite.verify"]),
        "sigsuite.verify.p50_ms": _ms_p50(durations("sigsuite.verify")),
        "sigsuite.verify.total_ms": _ms_total(durations("sigsuite.verify")),
        "sigsuite.digest_model.calls": len(by_name["sigsuite.digest_model"]),
        "sigsuite.digest_model.total_ms": _ms_total(durations("sigsuite.digest_model")),
        "sigsuite.digest_model.per_update": (
            len(by_name["sigsuite.digest_model"]) / submissions if submissions else 0.0
        ),
        "fedcore.local_train.calls": len(train),
        "fedcore.local_train.p50_ms": _ms_p50(durations("fedcore.local_train")),
        "fedcore.local_train.total_ms": train_busy * 1e3,
        "fedcore.local_train.overlap": train_busy / train_wall if train_wall else 0.0,
        "fedcore.local_train.threads": max(map(len, threads_per_round.values()), default=0),
        "fedcore.aggregate.total_ms": _ms_total(durations("fedcore.aggregate")),
        "fedcore.evaluate.total_ms": _ms_total(durations("fedcore.evaluate")),
        "ledger.submit_update.calls": submits,
        "ledger.submit_update.self_ms": self_ms("ledger.submit_update"),
        "ledger.submit_update.rejected": rejected,
        "ledger.submit_update.stored_ratio": (submits - rejected) / submits if submits else 0.0,
        "ledger.submit_aggregation.self_ms": self_ms("ledger.submit_aggregation"),
        "ledger.mine_block.calls": len(mine),
        "ledger.mine_block.p50_ms": _ms_p50(mine),
        "ledger.mine_block.first_decile_ms": _decile_ms(mine, last=False),
        "ledger.mine_block.last_decile_ms": _decile_ms(mine, last=True),
        "ledger.chain_verify.total_ms": _ms_total(durations("ledger.chain_verify")),
        "protocol.run_round.self_ms": self_ms("protocol.run_round"),
    }
