"""Benchmark workloads: generated configs, tamper patterns and round checks.

Each workload runs with the ledger on and sets only the scheme, client
count, rounds, ``train.local_epochs`` and ``master_seed``; everything else,
including how the program schedules client work, stays at the program's
defaults so that the benchmark measures its default path.
"""

import dataclasses
import hashlib
import random
import struct

import numpy as np

from pqsbfl import fedcore, ledger, protocol, sigsuite
from pqsbfl.fedcore import ModelParams
from pqsbfl.sigsuite import SchemeId, Signature

ACCURACY_FLOOR = 0.90


def stream(seed: int, *tags) -> int:
    """64-bit value for one purpose under the benchmark's workload seed."""
    label = "/".join(str(t) for t in tags).encode()
    digest = hashlib.sha256(b"perfbench:" + struct.pack("<Q", seed) + b":" + label).digest()
    return int.from_bytes(digest[:8], "little")


@dataclasses.dataclass(frozen=True)
class Tamper:
    """One in-flight corruption: ``kind`` is "signature" (flip one byte, so
    the ledger rejects it) or "params" (change one value after signing, so
    the hash-binding check excludes it); ``where`` picks the byte or value."""

    kind: str
    where: int


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scheme: SchemeId
    clients: int
    rounds: int
    local_epochs: int | None = None  # None keeps the program's default
    tampered_per_round: int = 0

    def config(self, seed: int) -> protocol.ExperimentConfig:
        fields = {
            "scheme": self.scheme,
            "n_clients": self.clients,
            "rounds": self.rounds,
            "blockchain": True,
            "master_seed": stream(seed, self.name, "master"),
        }
        if self.local_epochs is not None:
            fields["train"] = dataclasses.replace(
                fedcore.TrainConfig(), local_epochs=self.local_epochs
            )
        return protocol.ExperimentConfig(**fields)

    def tamper_plan(self, seed: int, round_: int) -> dict:
        """Client id -> :class:`Tamper` for round ``round_``; half of the
        chosen clients (rounded up) get a flipped signature byte."""
        if not self.tampered_per_round:
            return {}
        rng = random.Random(stream(seed, self.name, "tamper", round_))
        chosen = rng.sample(range(self.clients), self.tampered_per_round)
        n_sig = (len(chosen) + 1) // 2
        return {
            cid: Tamper("signature" if i < n_sig else "params", rng.getrandbits(32))
            for i, cid in enumerate(chosen)
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pqc-signed-fleet",
            SchemeId.PQC, clients=16, rounds=100, tampered_per_round=2,
        ),
        Workload(
            "none-long-chain",
            SchemeId.NONE, clients=64, rounds=200, local_epochs=1,
        ),
    )
}


def apply_tamper(sub: protocol.ClientSubmission, tamper: Tamper) -> protocol.ClientSubmission:
    if tamper.kind == "signature":
        raw = bytearray(sub.sig.bytes)
        raw[tamper.where % len(raw)] ^= 0x01
        return dataclasses.replace(sub, sig=Signature(sub.sig.scheme, bytes(raw)))
    values = sub.params.values.copy()
    values[tamper.where % values.size] += np.float32(1.0)
    return dataclasses.replace(sub, params=ModelParams(values, sub.params.layout))


class TamperHook:
    """``tamper_hook`` for one round: applies the round's plan and records
    the signature size of every submission sent."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.sent = []  # (client id, signature bytes)

    def __call__(self, sub):
        tamper = self.plan.get(sub.client_id)
        if tamper is not None:
            sub = apply_tamper(sub, tamper)
        self.sent.append((sub.client_id, len(sub.sig.bytes)))
        return sub


def signature_bytes(scheme: SchemeId) -> int:
    """Signature size of ``scheme``, which is also the aggregator's: the
    workloads' schemes sign with a fixed length."""
    key = sigsuite.keygen(scheme, 0)
    return len(sigsuite.sign(key, bytes(sigsuite.HASH_BYTES)).bytes)


def predicted_gas(config, hook: TamperHook, aggregator_sig_bytes: int) -> int:
    """Gas a round must charge under the calibrated model: every client
    submit (stored unless its signature was corrupted) plus the aggregation."""
    model = ledger.calibrate_gas(config.gas_targets)
    gas = sum(
        model.submit_gas(config.scheme, size, stored=_stored(hook.plan.get(cid)))
        for cid, size in hook.sent
    )
    return gas + model.submit_gas(config.scheme, aggregator_sig_bytes, stored=True)


def _stored(tamper) -> bool:
    return tamper is None or tamper.kind != "signature"


def round_problems(config, metrics, hook: TamperHook, aggregator_sig_bytes: int) -> list:
    """Output checks of one round; empty when the round is correct."""
    problems = []
    bad = len(hook.plan)
    counts = (metrics.verified_count, metrics.rejected_count)
    if counts != (config.n_clients - bad, bad):
        problems.append(
            f"round {metrics.round}: verified/rejected {counts}, "
            f"tamper pattern implies {(config.n_clients - bad, bad)}"
        )
    gas = predicted_gas(config, hook, aggregator_sig_bytes)
    if metrics.total_gas != gas:
        problems.append(f"round {metrics.round}: total_gas {metrics.total_gas}, predicted {gas}")
    return problems
