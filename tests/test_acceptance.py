"""Acceptance gate: one test per release criterion, tolerances pinned.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints a one-line summary of the measured
values it checked.
"""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from pqsbfl import fedcore, sigsuite
from pqsbfl.fedcore import TrainConfig
from pqsbfl.ledger import (
    DEFAULT_GAS_TARGETS,
    SimulatedLedger,
    Transaction,
    TxKind,
    calibrate_gas,
    chain_verify,
)
from pqsbfl.protocol import (
    DEFAULT_LATENCY_S,
    ExperimentConfig,
    init_phase,
    overhead_ratio,
    run_experiment,
    run_round,
)
from pqsbfl.sigsuite import HASH_BYTES, SchemeId, Signature, keygen, measure_primitives, sign

ALL_SCHEMES = (SchemeId.PQC, SchemeId.ECDSA, SchemeId.NONE)


def _flip_bit(data: bytes, bit_index: int) -> bytes:
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


def _address(tag: str) -> bytes:
    return hashlib.sha3_256(tag.encode()).digest()


def test_c01_size_pinning():
    """ML-DSA-65: sig 3309 B, pk 1952 B, sk 4032 B; NONE: 32 B sig, 26/27 B tokens."""
    for seed in range(3):
        key = keygen(SchemeId.PQC, seed)
        assert len(key.public_key) == 1952
        assert len(key.private_key) == 4032
        for _ in range(2):
            assert len(sign(key, b"\x07" * 32).bytes) == 3309
    none_key = keygen(SchemeId.NONE, 0)
    assert len(none_key.public_key) == 26
    assert len(none_key.private_key) == 27
    assert len(sign(none_key, b"msg").bytes) == 32
    print("ACCEPTANCE 1 PASS: PQC 3309/1952/4032 B, NONE 32/26/27 B")


def test_c02_gas_reproduction_exact():
    """Calibrated submit gas: 1,724,100 / 188,900 / 173,650 as integers."""
    gas_model = calibrate_gas(DEFAULT_GAS_TARGETS)
    observed = {}
    for scheme in ALL_SCHEMES:
        ledger = SimulatedLedger(gas_model=gas_model)
        key = keygen(scheme, 13)
        addr = _address(f"client-{scheme.value}")
        ledger.register_client(addr, key.public_key, scheme)
        digest = hashlib.sha3_256(b"model bytes").digest()
        sig = sign(key, digest)
        i = 0
        while scheme is SchemeId.ECDSA and len(sig.bytes) != 71:
            # Calibration targets assume the 71 B average. ECDSA signs
            # deterministically, so vary the message, not the signature.
            digest = hashlib.sha3_256(b"model bytes" + bytes([i])).digest()
            sig = sign(key, digest)
            i += 1
        receipt = ledger.submit_update(addr, 1, digest, sig)
        assert receipt.verified
        observed[scheme] = receipt.gas_used
    assert observed == {
        SchemeId.PQC: 1_724_100,
        SchemeId.ECDSA: 188_900,
        SchemeId.NONE: 173_650,
    }
    print(f"ACCEPTANCE 2 PASS: submit gas {observed}")


def test_c03_overhead_ratio_reproduction():
    """0.609 ms + 0.524 ms over 0.05 s -> 0.02266, within 5% of 0.023099."""
    ratio = overhead_ratio(0.609, 0.524, 0.05)
    assert ratio == pytest.approx(0.02266, abs=1e-12)
    assert abs(ratio - 0.023099) / 0.023099 < 0.05
    print(f"ACCEPTANCE 3 PASS: overhead ratio {ratio:.6f} vs reference 0.023099")


def test_c04_crypto_timing_bands():
    """Loose hardware bands over 100 trials; PQC/ECDSA sign ratio in [1.5, 20]."""
    pqc = measure_primitives(SchemeId.PQC, trials=100)
    ecdsa = measure_primitives(SchemeId.ECDSA, trials=100)
    assert pqc.sign_ms < 10.0 and pqc.verify_ms < 10.0
    assert ecdsa.sign_ms < 5.0 and ecdsa.verify_ms < 5.0
    ratio = pqc.sign_ms / ecdsa.sign_ms
    assert 1.5 <= ratio <= 20.0
    print(
        f"ACCEPTANCE 4 PASS: PQC sign {pqc.sign_ms:.3f} ms verify {pqc.verify_ms:.3f} ms, "
        f"ECDSA sign {ecdsa.sign_ms:.3f} ms verify {ecdsa.verify_ms:.3f} ms, "
        f"sign ratio {ratio:.2f}"
    )


def test_c05_scheme_independence_oracle():
    """One seed, 3 clients, 10 rounds: identical per-round model digests
    (SHA3-256 of the canonical model bytes) across PQC/ECDSA/NONE and across
    BC/NoBC."""
    trajectories = {}
    for scheme in ALL_SCHEMES:
        for blockchain in (True, False):
            cfg = ExperimentConfig(
                scheme=scheme, n_clients=3, rounds=10, blockchain=blockchain,
                master_seed=2024,
            )
            trajectories[cfg.name()] = [m.model_digest for m in run_experiment(cfg).rounds]
    reference = next(iter(trajectories.values()))
    assert len(reference) == 10
    for name, trajectory in trajectories.items():
        assert trajectory == reference, f"{name} diverged"
    print(f"ACCEPTANCE 5 PASS: {len(trajectories)} configs, identical 10-round trajectories")


def test_c06_security_properties():
    """>=1000 single-bit tampers rejected with zero state writes; cross-key
    verification rejects; digest-mismatched off-chain params are excluded."""
    ledger = SimulatedLedger()
    key = keygen(SchemeId.PQC, 3)
    addr = _address("client")
    ledger.register_client(addr, key.public_key, SchemeId.PQC)
    rng = np.random.default_rng(606)

    rejected = 0
    for i in range(1000):
        digest = hashlib.sha3_256(f"update-{i}".encode()).digest()
        sig = sign(key, digest)
        if i % 2 == 0:
            digest = _flip_bit(digest, int(rng.integers(0, 256)))
        else:
            sig = Signature(
                SchemeId.PQC, _flip_bit(sig.bytes, int(rng.integers(0, len(sig.bytes) * 8)))
            )
        receipt = ledger.submit_update(addr, i, digest, sig)
        rejected += not receipt.verified
    assert rejected == 1000
    assert ledger.state.verified_updates == {}
    assert ledger.state.aggregation_records == {}

    cross_rejections = 0
    msg = hashlib.sha3_256(b"cross").digest()
    for i in range(50):
        a, b = keygen(SchemeId.PQC, 1000 + i), keygen(SchemeId.PQC, 2000 + i)
        cross_rejections += not sigsuite.verify(b.public_key, SchemeId.PQC, msg, sign(a, msg).bytes)
    assert cross_rejections == 50

    cfg = ExperimentConfig(
        n_clients=3, rounds=5, master_seed=11,
        synth_samples=300, synth_features=8, synth_classes=3,
        train=TrainConfig(local_epochs=1),
    )
    state = init_phase(cfg)

    def corrupt_params(sub):
        if sub.client_id != 0:
            return sub
        mutated = sub.params.copy()
        mutated.values[int(rng.integers(0, mutated.values.size))] += np.float32(0.25)
        return dataclasses.replace(sub, params=mutated)

    for t in range(1, 6):
        metrics = run_round(state, t, tamper_hook=corrupt_params)
        assert metrics.verified_count == 2, "digest-mismatched client not excluded"
    print("ACCEPTANCE 6 PASS: 1000/1000 tampers rejected, 50/50 cross-key rejections, "
          "5/5 digest mismatches excluded")


def test_c07_verified_subset_equivalence():
    """50 randomized rounds with injected invalid signatures: aggregation
    equals brute-force FedAvg over exactly the verified subset (<=1 ulp)."""
    cfg = ExperimentConfig(
        n_clients=4, rounds=0, master_seed=171,
        synth_samples=240, synth_features=6, synth_classes=3,
        train=TrainConfig(local_epochs=1, batch_size=32),
    )
    state = init_phase(cfg)
    rng = np.random.default_rng(515)

    for t in range(1, 51):
        n = cfg.n_clients
        n_bad = int(rng.integers(0, n))  # always leaves one honest client
        bad = set(rng.choice(n, size=n_bad, replace=False).tolist())

        # independent oracle from the pre-round model
        weighted, total = None, 0
        for cid in range(n):
            if cid in bad:
                continue
            local = fedcore.local_train(
                state.global_params, state.train_set, state.partitions[cid], cfg.train,
                (cfg.master_seed ^ cid) & (2**64 - 1),
            )
            size = len(state.partitions[cid])
            total += size
            term = size * local.values.astype(np.float64)
            weighted = term if weighted is None else weighted + term
        oracle = (weighted / total).astype(np.float32)

        def tamper(sub, bad=bad):
            if sub.client_id not in bad:
                return sub
            flipped = _flip_bit(sub.sig.bytes, int(rng.integers(0, len(sub.sig.bytes) * 8)))
            return dataclasses.replace(sub, sig=Signature(sub.sig.scheme, flipped))

        metrics = run_round(state, t, tamper_hook=tamper)
        assert metrics.verified_count == n - len(bad)
        tolerance = np.spacing(np.abs(oracle))
        assert np.all(np.abs(state.global_params.values - oracle) <= tolerance), f"round {t}"
    print("ACCEPTANCE 7 PASS: 50/50 rounds match the verified-subset FedAvg oracle")


def test_c08_learning_sanity():
    """Synthetic task, 3 clients, 50 rounds: >=90% accuracy under every
    scheme, with scheme-identical accuracy trajectories."""
    trajectories = {}
    finals = {}
    for scheme in ALL_SCHEMES:
        cfg = ExperimentConfig(scheme=scheme, n_clients=3, rounds=50, master_seed=88)
        report = run_experiment(cfg)
        finals[scheme.value] = report.final_accuracy
        trajectories[scheme.value] = [m.accuracy for m in report.rounds]
        assert report.final_accuracy >= 0.90, f"{scheme}: {report.final_accuracy}"
    assert trajectories["PQC"] == trajectories["ECDSA"] == trajectories["NONE"]
    print(f"ACCEPTANCE 8 PASS: 50-round accuracy {finals}")


def test_c09_scalability():
    """Per-round compute time grows sublinearly in clients (the fixed training
    set is split across clients, so each client trains on fewer samples);
    per-client gas is constant across client counts. A round's updates share
    one block, so its simulated latency is the slowest update's confirmation
    plus the aggregation's, whatever the client count."""
    compute, gas, latency = {}, {}, {}
    for n in (3, 10, 30):
        cfg = ExperimentConfig(scheme=SchemeId.PQC, n_clients=n, rounds=4, master_seed=5)
        report = run_experiment(cfg)
        compute[n] = report.summary["compute_time_s"]
        gas[n] = {m.mean_gas_per_update for m in report.rounds}
        latency[n] = report.summary["simulated_latency_s"]
    assert compute[30] / compute[3] < 30 / 3
    assert compute[10] / compute[3] < 10 / 3
    assert gas[3] == gas[10] == gas[30] == {1_724_100.0}
    assert latency[3] == latency[10] == latency[30] == 2 * DEFAULT_LATENCY_S[SchemeId.PQC]
    print(
        "ACCEPTANCE 9 PASS: compute/round "
        f"3c {compute[3]*1e3:.1f} ms, 10c {compute[10]*1e3:.1f} ms, "
        f"30c {compute[30]*1e3:.1f} ms; per-client gas and simulated latency "
        f"{latency[3]:.2f} s constant"
    )


def test_c10_ledger_integrity():
    """chain_verify detects 100% of 500 randomized historical mutations."""
    cfg = ExperimentConfig(
        n_clients=3, rounds=5, master_seed=31,
        synth_samples=300, synth_features=8, synth_classes=3,
        train=TrainConfig(local_epochs=1),
    )
    state = init_phase(cfg)
    for t in range(1, 6):
        run_round(state, t)
    chain = state.ledger.chain
    assert chain_verify(chain).intact
    rng = np.random.default_rng(1010)

    detected = 0
    for _ in range(500):
        mutated = copy.deepcopy(chain)
        kind = rng.choice(["tx", "state_root", "parent", "timestamp", "rewrite", "height"])
        height = int(rng.integers(1, len(mutated.blocks)))
        block = mutated.blocks[height]
        body = block.transactions
        submits = [i for i, tx in enumerate(body) if tx.kind is not TxKind.REGISTER]
        if kind == "tx" and body:
            i = int(rng.integers(0, len(body)))
            tx = body[i]
            payload = _flip_bit(tx.payload, int(rng.integers(0, len(tx.payload) * 8)))
            forged = Transaction(tx.kind, tx.sender, tx.round, payload, tx.scheme)
            mutated.blocks[height] = dataclasses.replace(
                block, transactions=body[:i] + (forged,) + body[i + 1:]
            )
        elif kind == "state_root":
            root = _flip_bit(block.state_root, int(rng.integers(0, 256)))
            mutated.blocks[height] = dataclasses.replace(block, state_root=root)
        elif kind == "parent":
            parent = _flip_bit(block.parent_hash, int(rng.integers(0, 256)))
            mutated.blocks[height] = dataclasses.replace(block, parent_hash=parent)
        elif kind == "timestamp":
            mutated.blocks[height] = dataclasses.replace(block, timestamp=block.timestamp + 1e-3)
        elif kind == "rewrite" and submits:
            # A consistent forgery: the rewritten submission is re-keyed and
            # every later link and the head re-hashed, so only the replayed
            # state root can tell.
            i = submits[int(rng.integers(0, len(submits)))]
            tx = body[i]
            payload = _flip_bit(tx.payload, int(rng.integers(0, len(tx.payload) * 8)))
            forged = Transaction(tx.kind, tx.sender, tx.round, payload, tx.scheme)
            at, packed = i * HASH_BYTES, block.tx_hashes
            mutated.blocks[height] = dataclasses.replace(
                block,
                tx_hashes=packed[:at] + forged.tx_hash() + packed[at + HASH_BYTES:],
                transactions=body[:i] + (forged,) + body[i + 1:],
            )
            for h in range(height + 1, len(mutated.blocks)):
                mutated.blocks[h] = dataclasses.replace(
                    mutated.blocks[h], parent_hash=mutated.blocks[h - 1].block_hash()
                )
            mutated.head_hash = mutated.blocks[-1].block_hash()
        else:
            mutated.blocks[height] = dataclasses.replace(block, height=block.height + 1)
        detected += not chain_verify(mutated).intact
    assert detected == 500
    print("ACCEPTANCE 10 PASS: 500/500 historical mutations detected")
